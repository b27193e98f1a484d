//! Pins every answer of every router: one FNV-1a digest per network and
//! failure set over `candidates`, `next_hops`, `waypoint_reached`,
//! `waypoint_options` and `select_waypoint`, for every node, VC and
//! accelerator target. A routing refactor must leave every digest as it
//! is; a deliberate change to a routing decision re-pins the table below
//! from the values the failing run prints.
//!
//! Run with `cargo test -p hxnet --test route_digest` (seconds in debug).

use hxnet::dragonfly::DragonflyParams;
use hxnet::fattree::FatTreeParams;
use hxnet::hammingmesh::HxMeshParams;
use hxnet::hyperx::HyperXParams;
use hxnet::route::{Hop, LoadProbe, ZeroLoad};
use hxnet::torus::TorusParams;
use hxnet::{Network, NodeId, PortId};
use rand::SeedableRng;

/// Cables failed per case, drawn by `fail_random_cables_drawn`.
const FAILED: [usize; 3] = [0, 1, 3];
const FAIL_SEED: u64 = 0x5EED_D16E;

/// Expected digests per network, one per entry of `FAILED`.
#[rustfmt::skip]
const PINNED: [(&str, [u64; 3]); 11] = [
    ("hx2 2x2", [0x8334150f49927507, 0x004ac07c476e1cc5, 0x3199b85ffaf4f0c4]),
    ("hx4 2x2", [0x95659a5c0d2e6582, 0x23746ad598656cc1, 0xeaca1dd79c663a81]),
    ("hx3x2 2x3", [0x6faab42aa71b46e1, 0x4a7106a42f10a8a5, 0xebb9c7b1754702e4]),
    ("hx1x2 3x2", [0x7798aa8882b4857f, 0xf6e49f0854b28f7f, 0x7f141545250eecbe]),
    ("hx2x1 2x3", [0x541356b0756c14b1, 0xcf692659ef91e7b3, 0x71949d99e7b70eb1]),
    ("hx2x3 6x5 r8 t0.5", [0x1748ee5a7f7d17cb, 0x605e310f8050f8cb, 0xb5241e183646b709]),
    ("hyperx 4x4", [0x7151a34731afd5ee, 0x49f8b31e7efbbee9, 0x8294938d22f14deb]),
    ("torus 4x4", [0xb59690dbf80b8c25, 0x42e5fe7742928b64, 0x87619d91cfc14c24]),
    ("torus 6x4", [0xf6b1a706fee985a5, 0x8069c55abd04fa24, 0x87210197c69d3460]),
    ("dragonfly 4/2/2/5", [0x928f5b1fcf592f79, 0xe56de9143e50caf4, 0x6926fe246f6d1bfb]),
    ("fat tree 16 r8", [0x90310af9b0d15725, 0xc746bb59ea6e86a5, 0x44e0a671b7d32325]),
];

/// Expected digest of `hx2 2x2` with both global cables of one board row
/// line cut.
const ROW_LINE_CUT: u64 = 0xad3cc65177aa2207;

fn build(name: &str) -> Network {
    let hx = |a, b, x, y| HxMeshParams {
        a,
        b,
        x,
        y,
        taper: 0.0,
        radix: 64,
    };
    let torus = |cols, rows| TorusParams {
        cols,
        rows,
        board: 2,
    };
    match name {
        "hx2 2x2" => HxMeshParams::square(2, 2).build(),
        "hx4 2x2" => HxMeshParams::square(4, 2).build(),
        "hx3x2 2x3" => hx(3, 2, 2, 3).build(),
        "hx1x2 3x2" => hx(1, 2, 3, 2).build(),
        "hx2x1 2x3" => hx(2, 1, 2, 3).build(),
        // Lines of 12 and 10 ports on radix 8: two-level tapered trees.
        "hx2x3 6x5 r8 t0.5" => HxMeshParams {
            taper: 0.5,
            radix: 8,
            ..hx(2, 3, 6, 5)
        }
        .build(),
        "hyperx 4x4" => HyperXParams {
            x: 4,
            y: 4,
            radix: 64,
        }
        .build(),
        "torus 4x4" => torus(4, 4).build(),
        "torus 6x4" => torus(6, 4).build(),
        "dragonfly 4/2/2/5" => DragonflyParams {
            a: 4,
            p: 2,
            h: 2,
            groups: 5,
        }
        .build(),
        "fat tree 16 r8" => FatTreeParams::scaled_nonblocking(16, 8).build(),
        _ => unreachable!("unknown network {name}"),
    }
}

/// FNV-1a over the little-endian bytes of each word.
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn hops(&mut self, hops: &[Hop]) {
        self.word(hops.len() as u64);
        for h in hops {
            self.word(u64::from(h.port.0));
            self.word(u64::from(h.vc));
        }
    }
}

/// A fixed, uneven congestion picture: every queue reports a different
/// backlog up to 16 KiB, so UGAL's threshold and the HxMesh queue
/// comparison both go either way across the pairs.
struct Skewed;

impl LoadProbe for Skewed {
    fn queued_bytes(&self, node: NodeId, port: PortId) -> u64 {
        let key = u64::from(node.0) << 16 | u64::from(port.0);
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40) % 16_384
    }
}

fn digest(net: &Network) -> u64 {
    let (topo, router) = (&net.topo, &net.router);
    let accs = &net.endpoints;
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    let mut out = Vec::new();
    for node in (0..topo.num_nodes() as u32).map(NodeId) {
        // The last VC is the escape VC of `next_hops`.
        for vc in 0..=router.num_vcs() {
            for &t in accs {
                out.clear();
                router.candidates(topo, node, vc, t, &mut out);
                h.hops(&out);
                router.next_hops(topo, node, vc, t, &mut out);
                h.hops(&out);
            }
        }
        for &w in accs {
            h.word(u64::from(router.waypoint_reached(topo, node, w)));
        }
    }
    let pairs = || {
        accs.iter()
            .flat_map(|&s| accs.iter().map(move |&d| (s, d)))
            .filter(|(s, d)| s != d)
    };
    let mut ways = Vec::new();
    for (s, d) in pairs() {
        ways.clear();
        router.waypoint_options(topo, s, d, &mut ways);
        h.word(ways.len() as u64);
        for w in &ways {
            h.word(u64::from(w.0));
        }
    }
    let mut rng = rand::rngs::StdRng::seed_from_u64(26);
    for probe in [&ZeroLoad as &dyn LoadProbe, &Skewed] {
        for (s, d) in pairs() {
            let w = router.select_waypoint(topo, s, d, probe, &mut rng);
            h.word(w.map_or(u64::MAX, |w| u64::from(w.0)));
        }
    }
    h.0
}

#[test]
fn every_router_answer_matches_its_pin() {
    let mut got = Vec::new();
    for (name, _) in PINNED {
        let mut row = [0; 3];
        for (slot, &k) in row.iter_mut().zip(&FAILED) {
            let mut net = build(name);
            assert_eq!(net.fail_random_cables_drawn(k, FAIL_SEED, 0), k, "{name}");
            *slot = digest(&net);
        }
        got.push((name, row));
    }
    let table: String = got
        .iter()
        .map(|(name, [d0, d1, d3])| {
            format!("    (\"{name}\", [{d0:#018x}, {d1:#018x}, {d3:#018x}]),\n")
        })
        .collect();
    let stale: Vec<String> = got
        .iter()
        .zip(&PINNED)
        .flat_map(|((name, row), (_, want))| {
            (0..FAILED.len())
                .filter(move |&i| row[i] != want[i])
                .map(move |i| format!("{name} with {} failed", FAILED[i]))
        })
        .collect();
    assert!(
        stale.is_empty(),
        "router answers changed for {stale:?}; this run's digests:\n{table}"
    );
}

/// Random draws of a few cables never cut both edge cables of one board
/// line, so this case does: the row exit then offers both edges (the line
/// is unreachable either way) and `next_hops` detours over the columns.
#[test]
fn a_row_line_with_both_edge_cables_cut_matches_its_pin() {
    let mut net = build("hx2 2x2");
    // Ranks 0 and 1 are the W and E edges of row 0 on board (0, 0); an
    // accelerator's first switch-facing port is its row cable.
    for rank in [0, 1] {
        let node = net.endpoints[rank];
        let row_cable = (0..net.topo.num_ports(node) as u16)
            .map(PortId)
            .find(|&p| net.topo.kind(net.topo.peer(node, p).node).is_switch());
        assert!(net.topo.fail_link(node, row_cable.expect("a row cable")));
    }
    let got = digest(&net);
    assert_eq!(got, ROW_LINE_CUT, "router answers changed: {got:#018x}");
}
