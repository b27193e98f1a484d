//! Cross-validation of the two simulation backends: the flow-level fluid
//! engine must reproduce the packet engine's completion times within a
//! documented tolerance band on small alltoall / allreduce / permutation
//! scenarios, so that figure sweeps run on the fast path stay faithful to
//! the packet-level ground truth.
//!
//! ## Tolerance bands (flow time / packet time)
//!
//! | scenario class                         | band          |
//! |----------------------------------------|---------------|
//! | single transfers, large-message alltoall | [0.90, 1.25] |
//! | small-message alltoall (latency regime) | [0.65, 1.60]  |
//! | allreduce schedules (rings / torus)     | [0.70, 1.45]  |
//! | permutation mean receive bandwidth      | [0.80, 1.25]  |
//!
//! The widest band covers the latency-dominated small-message regime,
//! where the fluid model charges path latency once per message instead of
//! overlapping it per packet, and congested tori, where per-packet
//! adaptivity beats fixed fluid routes. Large-message scenarios — the
//! regime the flow engine exists for — agree within a few percent (see
//! BENCH_smoke.json). These bands are asserted here and documented in
//! README.md; tighten them only together.
//!
//! ## Known fidelity weak spots (named band pins)
//!
//! Two scenario classes sit persistently at the optimistic edge of the
//! fluid model, where the packet engine's per-port NIC window throttles
//! in ways a fluid rate cannot express. Each is pinned by a named test
//! with a band re-centred on its measured ratio, so a solver change that
//! silently *worsens* (or accidentally "fixes") them trips CI:
//!
//! | weak spot                                       | measured | band         |
//! |-------------------------------------------------|----------|--------------|
//! | BidirRing allreduce, chunks near NIC port window | 1.23–1.26 | [1.05, 1.45] |
//! | congested small-message torus alltoall (win 4)   | 1.50–1.75 | [1.30, 1.95] |
//!
//! ## Tolerance bands under fault injection (failed cables)
//!
//! With cables failed, both engines route over the same failure-aware
//! hop sets (`hxnet::Router::next_hops`), so the agreement story
//! is unchanged in kind; the bands below are the healthy-class bands
//! re-centred on measured ratios (seeded, deterministic failure sets),
//! widened where failures push traffic into the latency regime:
//!
//! | failure scenario (alltoall)                  | measured | band         |
//! |----------------------------------------------|----------|--------------|
//! | fat tree, 1 MiB, 2 dead inter-switch cables  | 1.13     | [0.90, 1.40] |
//! | 2D torus, 32 KiB, 2 dead inter-board cables  | 1.32     | [0.80, 1.60] |
//! | Hx2Mesh, 256 KiB, 2 dead line cables         | 1.27     | [0.90, 1.55] |
//! | Dragonfly, 256 KiB, 2 dead cables            | 1.48     | [0.95, 1.80] |
//! | 2D HyperX, 64 KiB, 3 dead cables             | 0.84     | [0.65, 1.25] |
//!
//! The Dragonfly case sits high for the same reason its healthy
//! small-message case does: minimal-path Valiant suppression under load
//! is per-packet in the packet engine and per-message in the fluid model.

use hammingmesh::hxsim::apps::MessageBlast;
use hammingmesh::hxsim::{simulate, EngineKind, SimConfig};
use hammingmesh::prelude::*;
use rayon::prelude::*;

/// Assert `flow/packet` lies inside `band` for a scenario's time.
fn assert_ratio(label: &str, packet_ps: u64, flow_ps: u64, band: (f64, f64)) {
    let ratio = flow_ps as f64 / packet_ps as f64;
    assert!(
        ratio >= band.0 && ratio <= band.1,
        "{label}: flow {flow_ps} ps vs packet {packet_ps} ps, ratio {ratio:.3} outside \
         [{:.2}, {:.2}]",
        band.0,
        band.1
    );
}

#[test]
fn single_large_transfer_agrees() {
    let net = HxMeshParams::square(2, 2).build();
    let times: Vec<u64> = EngineKind::all()
        .into_iter()
        .map(|kind| {
            let mut app = MessageBlast::pairs(vec![(0, 15, 8 << 20)]);
            let stats = simulate(&net, SimConfig::default(), kind, &mut app);
            assert!(stats.clean(), "{kind}: {stats:?}");
            stats.finish_ps
        })
        .collect();
    assert_ratio("8MiB single transfer", times[0], times[1], (0.90, 1.25));
}

#[test]
fn alltoall_large_messages_agree() {
    // 1 MiB pairs — the bandwidth-dominated regime the flow engine is
    // built for; 16 ranks keeps the packet side affordable in CI.
    for (name, net) in [
        ("Hx2Mesh", HxMeshParams::square(2, 2).build()),
        (
            "fat tree",
            FatTreeParams::scaled_nonblocking(16, 16).build(),
        ),
    ] {
        let p = experiments::alltoall_bandwidth(
            &net,
            1 << 20,
            2,
            EngineKind::Packet,
            SimConfig::default(),
        );
        let f = experiments::alltoall_bandwidth(
            &net,
            1 << 20,
            2,
            EngineKind::Flow,
            SimConfig::default(),
        );
        assert!(p.clean && f.clean);
        assert_ratio(
            &format!("alltoall 1MiB on {name}"),
            p.time_ps,
            f.time_ps,
            (0.90, 1.25),
        );
    }
}

#[test]
fn alltoall_small_messages_agree_loosely() {
    for (name, net) in [
        ("Hx2Mesh", HxMeshParams::square(2, 2).build()),
        (
            "torus",
            TorusParams {
                cols: 4,
                rows: 4,
                board: 2,
            }
            .build(),
        ),
    ] {
        let p = experiments::alltoall_bandwidth(
            &net,
            32 << 10,
            2,
            EngineKind::Packet,
            SimConfig::default(),
        );
        let f = experiments::alltoall_bandwidth(
            &net,
            32 << 10,
            2,
            EngineKind::Flow,
            SimConfig::default(),
        );
        assert!(p.clean && f.clean);
        assert_ratio(
            &format!("alltoall 32KiB on {name}"),
            p.time_ps,
            f.time_ps,
            (0.65, 1.60),
        );
    }
}

#[test]
fn allreduce_schedules_agree() {
    // Independent (algorithm, engine) cells: run the matrix on the
    // thread pool (every simulation is deterministic, so the assertions
    // are thread-count-independent).
    let net = HxMeshParams::square(2, 2).build();
    [
        AllreduceAlgo::Ring,
        AllreduceAlgo::DisjointRings,
        AllreduceAlgo::Torus2D,
    ]
    .into_par_iter()
    .for_each(|algo| {
        let p = experiments::allreduce_bandwidth(&net, algo, 4 << 20, EngineKind::Packet);
        let f = experiments::allreduce_bandwidth(&net, algo, 4 << 20, EngineKind::Flow);
        assert!(p.clean && f.clean, "{algo:?}");
        assert_ratio(
            &format!("allreduce {algo:?} 4MiB"),
            p.time_ps,
            f.time_ps,
            (0.70, 1.45),
        );
    });
}

#[test]
fn permutation_mean_bandwidth_agrees() {
    let net = HxMeshParams::square(2, 2).build();
    let mean = |engine| {
        let bw = experiments::permutation_bandwidths(&net, 256 << 10, 2, 42, engine);
        bw.iter().sum::<f64>() / bw.len() as f64
    };
    let p = mean(EngineKind::Packet);
    let f = mean(EngineKind::Flow);
    let ratio = p / f;
    assert!(
        (0.80..=1.25).contains(&ratio),
        "permutation mean bw: packet {p:.3} vs flow {f:.3}, ratio {ratio:.3}"
    );
}

#[test]
fn engines_deliver_identical_message_sets() {
    let net = HxMeshParams::square(2, 2).build();
    let mut delivered = Vec::new();
    for kind in EngineKind::all() {
        let mut app = Alltoall::new(net.num_ranks(), 64 << 10, 2);
        let stats = simulate(&net, SimConfig::default(), kind, &mut app);
        assert!(stats.clean());
        delivered.push((
            stats.messages_sent,
            stats.messages_delivered,
            stats.bytes_delivered,
        ));
    }
    assert_eq!(delivered[0], delivered[1]);
}

use hammingmesh::hxsim::apps::Alltoall;

/// The flow engine's raison d'être: at the paper's Fig. 11 message sizes
/// it must beat the packet engine by a wide margin on wall-clock time.
/// The CI perf-smoke job records the full numbers in BENCH_smoke.json; this
/// is a cheap in-tree guard at a smaller scale (16 ranks, so the packet
/// side stays fast even under the debug profile).
#[test]
fn flow_engine_is_much_faster_at_bandwidth_scale() {
    let net = HxMeshParams::square(2, 2).build();
    let wall = |kind| {
        #[allow(clippy::disallowed_methods)] // coarse speedup report, not sim state
        let t0 = std::time::Instant::now();
        let m = experiments::alltoall_bandwidth(&net, 2 << 20, 2, kind, SimConfig::default());
        assert!(m.clean);
        t0.elapsed().as_secs_f64()
    };
    let packet = wall(EngineKind::Packet);
    let flow = wall(EngineKind::Flow);
    assert!(
        flow * 5.0 < packet,
        "flow {flow:.3}s should be >=5x faster than packet {packet:.3}s at 2MiB alltoall"
    );
}

// ---------------------------------------------------------------------------
// Named band pins for the two known fidelity weak spots (module header).
// ---------------------------------------------------------------------------

/// Weak spot 1: the bidirectional-ring allreduce at chunk sizes around
/// the packet engine's per-port NIC window (`nic_port_window_bytes`,
/// 4 packets = 16 KiB). Each ring step sends one chunk per direction;
/// when chunks are in the window's neighbourhood, the packet engine
/// stalls injection per port while the fluid model streams both
/// directions at the full max-min rate, so the flow engine runs *slow*
/// relative to packet by a steady ~1.23–1.26x (the stalls let the packet
/// side pipeline steps that the fluid model serializes). The band floor
/// above 1 is deliberate: if a solver change drags the ratio under 1.05
/// the model got optimistic somewhere else, and that is also a regression.
#[test]
fn bidir_ring_chunks_near_nic_port_window_band_pin() {
    let net = HxMeshParams::square(2, 2).build();
    for bytes in [64u64 << 10, 256 << 10] {
        let p = experiments::allreduce_bandwidth(
            &net,
            AllreduceAlgo::BidirRing,
            bytes,
            EngineKind::Packet,
        );
        let f = experiments::allreduce_bandwidth(
            &net,
            AllreduceAlgo::BidirRing,
            bytes,
            EngineKind::Flow,
        );
        assert!(p.clean && f.clean);
        assert_ratio(
            &format!("bidir ring allreduce {} B (chunk ~ NIC port window)", bytes),
            p.time_ps,
            f.time_ps,
            (1.05, 1.45),
        );
    }
}

/// Weak spot 2: congested small-message alltoall on a 2D torus with a
/// deep injection window. Four shifts in flight per rank pile latency-
/// regime messages onto the torus' long average paths; the packet
/// engine's per-packet adaptivity drains the hot spots while the fluid
/// model holds fixed routes at their max-min share, so flow runs
/// ~1.50–1.75x slower than packet — the widest steady divergence in the
/// portfolio. Pinned so the gap can only move on purpose.
#[test]
fn congested_small_message_torus_band_pin() {
    let net = TorusParams {
        cols: 4,
        rows: 4,
        board: 2,
    }
    .build();
    for (bytes, window) in [(4u64 << 10, 2u32), (8 << 10, 4)] {
        let p = experiments::alltoall_bandwidth(
            &net,
            bytes,
            window,
            EngineKind::Packet,
            SimConfig::default(),
        );
        let f = experiments::alltoall_bandwidth(
            &net,
            bytes,
            window,
            EngineKind::Flow,
            SimConfig::default(),
        );
        assert!(p.clean && f.clean);
        assert_ratio(
            &format!("congested torus alltoall {bytes} B window {window}"),
            p.time_ps,
            f.time_ps,
            (1.30, 1.95),
        );
    }
}

// ---------------------------------------------------------------------------
// Cross-validation under fault injection (see the module-header table).
// ---------------------------------------------------------------------------

use hammingmesh::hxnet::Network;

#[test]
fn alltoall_with_failed_cables_agrees() {
    /// (label, network, failed cables, bytes per pair, tolerance band).
    type FaultScenario = (&'static str, Network, usize, u64, (f64, f64));
    let scenarios: [FaultScenario; 5] = [
        (
            "fat tree 1MiB, 2 failed",
            FatTreeParams::scaled_nonblocking(16, 8).build(),
            2,
            1 << 20,
            (0.90, 1.40),
        ),
        (
            "torus 32KiB, 2 failed",
            TorusParams {
                cols: 4,
                rows: 4,
                board: 2,
            }
            .build(),
            2,
            32 << 10,
            (0.80, 1.60),
        ),
        (
            "Hx2Mesh 256KiB, 2 failed",
            HxMeshParams::square(2, 2).build(),
            2,
            256 << 10,
            (0.90, 1.55),
        ),
        (
            "Dragonfly 256KiB, 2 failed",
            DragonflyParams {
                a: 4,
                p: 2,
                h: 2,
                groups: 4,
            }
            .build(),
            2,
            256 << 10,
            (0.95, 1.80),
        ),
        (
            "HyperX 64KiB, 3 failed",
            HyperXParams {
                x: 4,
                y: 4,
                radix: 64,
            }
            .build(),
            3,
            64 << 10,
            (0.65, 1.25),
        ),
    ];
    // The five failure scenarios are independent; run them on the thread
    // pool (networks move into the workers, each simulation is
    // deterministic). A failed assertion in any worker panics the test
    // via the pool's panic propagation.
    scenarios
        .into_par_iter()
        .for_each(|(label, mut net, failures, bytes, band)| {
            assert_eq!(net.fail_spread_cables(failures), failures);
            let p = experiments::alltoall_bandwidth(
                &net,
                bytes,
                2,
                EngineKind::Packet,
                SimConfig::default(),
            );
            let f = experiments::alltoall_bandwidth(
                &net,
                bytes,
                2,
                EngineKind::Flow,
                SimConfig::default(),
            );
            assert!(p.clean && f.clean, "{label}: unclean run under failures");
            assert_ratio(label, p.time_ps, f.time_ps, band);
        });
}

/// Both engines must agree exactly on *what* is delivered under failures
/// (same message and byte counts), not just on how long it takes.
#[test]
fn engines_deliver_identical_message_sets_under_failures() {
    let mut net = HxMeshParams::square(2, 2).build();
    assert_eq!(net.fail_spread_cables(2), 2);
    let mut delivered = Vec::new();
    for kind in EngineKind::all() {
        let mut app = Alltoall::new(net.num_ranks(), 64 << 10, 2);
        let stats = simulate(&net, SimConfig::default(), kind, &mut app);
        assert!(stats.clean(), "{kind}: {stats:?}");
        delivered.push((
            stats.messages_sent,
            stats.messages_delivered,
            stats.bytes_delivered,
        ));
    }
    assert_eq!(delivered[0], delivered[1]);
}
