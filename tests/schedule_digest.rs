//! Pins every schedule generator's ops and message pairing: one FNV-1a
//! digest per case over each rank's ops in order (kind, peer, payload,
//! action, compute duration and dependencies) and, for every send, the
//! `(rank, op)` of the recv that takes it. A refactor of the generators
//! or of how a recv finds its send must leave every digest as it is; a
//! deliberate change to a schedule re-pins the table below from the values
//! the failing run prints.
//!
//! Run with `cargo test --test schedule_digest` (about a second in debug).

use hammingmesh::hxcollect::allreduce::job_allreduce;
use hammingmesh::hxcollect::{
    bidirectional_ring_allreduce, binomial_tree_allreduce, disjoint_rings_allreduce,
    ring_allgather, ring_allreduce, ring_broadcast, ring_reduce_scatter, torus2d_allreduce, OpKind,
    Payload, RecvAction, Schedule,
};
use hammingmesh::hxmodels::schedule::{build_iteration, ScaledConfig};
use hammingmesh::hxmodels::DnnWorkload;
use std::collections::BTreeMap;

/// Expected digest per case, in the order [`cases`] builds them.
#[rustfmt::skip]
const PINNED: [(&str, u64); 44] = [
    ("ring p2", 0xc7462f03459f15f6),
    ("bidir ring p2", 0x576865e815cba956),
    ("reduce-scatter p2", 0x0402c8b538822fdd),
    ("allgather p2", 0x914aefa11ddb2a7d),
    ("ring p3", 0xdb044ed0553e44f1),
    ("bidir ring p3", 0x7f97995f6a343bc7),
    ("reduce-scatter p3", 0xf63c9b1d54bdea99),
    ("allgather p3", 0x9ef4963cf3e0de39),
    ("ring p8", 0x452d79c9434f4c4c),
    ("bidir ring p8", 0x597297ef854e994c),
    ("reduce-scatter p8", 0x11cfbebd6bb0f9ac),
    ("allgather p8", 0x963f8a8b63afd9ac),
    ("binomial p2", 0x7249fdf4573024f3),
    ("binomial p5", 0x97dfa9669f2771d2),
    ("binomial p13", 0xd38f0f085f4f99d6),
    ("broadcast p5 root2", 0xdf769ad6a20fe384),
    ("torus2d 2x2", 0xbe6171f3e0192ca5),
    ("torus2d 2x2 doubled", 0x79718ad0e89075a5),
    ("torus2d 3x5", 0x9e28f3031bad8b18),
    ("torus2d 3x5 doubled", 0x307d787fea776ebe),
    ("torus2d 4x4", 0xc21632a08dbe3711),
    ("torus2d 4x4 doubled", 0xb94db032e1b53611),
    ("disjoint rings 3x3", 0xd689aa3b0f61ffc4),
    ("disjoint rings 4x4", 0xdedac6bf8c163191),
    ("disjoint rings 2x2", 0x17b648b60c2a3ef5),
    ("disjoint rings 2x3", 0xd7f23c6cde6f4d4f),
    ("disjoint rings 2x4", 0x7a20cf62943f5fa9),
    ("disjoint rings 1x4", 0xcff89e45ee214b35),
    ("disjoint rings 3x1", 0xe3cb18622696bede),
    ("job 1x1", 0x006e504f498fa728),
    ("job 1x2", 0x124c659919a9e1cb),
    ("job 1x6", 0xb2c51f58baa22adf),
    ("job 4x1", 0x01a19fce8282ef15),
    ("job 2x2", 0x0cd5d4f781afef15),
    ("job 2x3", 0x380c0f207a8482df),
    ("job 3x3", 0x7da9a563be9e654c),
    ("job 4x2", 0xda926abcc7af63a9),
    ("job 6x4", 0xddef0fc4a63461b9),
    ("job 5x3", 0x111131bc1c2d7afa),
    ("dnn ResNet-152", 0x25e39bdf2c9deea0),
    ("dnn GPT-3", 0xfdc3fd184a040818),
    ("dnn GPT-3 MoE", 0x85a3f15e05098238),
    ("dnn CosmoFlow", 0x0483d68dd70ba3e0),
    ("dnn DLRM", 0x8f8aeb7c285f6060),
];

/// Every case: the 1-D collectives at three sizes, the binomial tree,
/// broadcast, the 2D torus single and doubled, the disjoint rings on each
/// shape whose cycles differ (two cycles, one cycle, linear), every job
/// shape of the cluster loop and one DNN iteration per workload.
fn cases() -> Vec<(String, Schedule)> {
    let mut out: Vec<(String, Schedule)> = Vec::new();
    for p in [2, 3, 8] {
        let n = 8 * p + 5;
        out.push((format!("ring p{p}"), ring_allreduce(p, n)));
        out.push((
            format!("bidir ring p{p}"),
            bidirectional_ring_allreduce(p, n),
        ));
        out.push((format!("reduce-scatter p{p}"), ring_reduce_scatter(p, n)));
        out.push((format!("allgather p{p}"), ring_allgather(p, n)));
    }
    for p in [2, 5, 13] {
        out.push((format!("binomial p{p}"), binomial_tree_allreduce(p, 16)));
    }
    out.push(("broadcast p5 root2".into(), ring_broadcast(5, 10, 2)));
    for (r, c) in [(2, 2), (3, 5), (4, 4)] {
        for doubled in [false, true] {
            let name = format!("torus2d {r}x{c}{}", if doubled { " doubled" } else { "" });
            out.push((name, torus2d_allreduce(r, c, 8 * r * c, doubled)));
        }
    }
    for (r, c) in [(3, 3), (4, 4), (2, 2), (2, 3), (2, 4), (1, 4), (3, 1)] {
        let s = disjoint_rings_allreduce(r, c, 12 * r * c).0;
        out.push((format!("disjoint rings {r}x{c}"), s));
    }
    for (r, c) in [
        (1, 1),
        (1, 2),
        (1, 6),
        (4, 1),
        (2, 2),
        (2, 3),
        (3, 3),
        (4, 2),
        (6, 4),
        (5, 3),
    ] {
        out.push((format!("job {r}x{c}"), job_allreduce(r, c, 8)));
    }
    for w in DnnWorkload::all() {
        let s = build_iteration(&w, &ScaledConfig::fit(&w, 32));
        out.push((format!("dnn {}", w.name), s));
    }
    out
}

/// The `(rank, op)` of the recv that takes each send, keyed by the send's
/// `(rank, op)`: the recv that names it.
fn recv_of_send(s: &Schedule) -> BTreeMap<(u32, u32), (u32, u32)> {
    let mut out = BTreeMap::new();
    for (r, ops) in s.ops.iter().enumerate() {
        for (i, op) in ops.iter().enumerate() {
            if let OpKind::Recv { from, send, .. } = op.kind {
                out.insert((from, send), (r as u32, i as u32));
            }
        }
    }
    out
}

/// FNV-1a over the little-endian bytes of each word.
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn digest(s: &Schedule) -> u64 {
    let recv_of = recv_of_send(s);
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    h.word(s.nranks as u64);
    h.word(s.data_len as u64);
    h.word(s.elem_bytes);
    for (r, ops) in s.ops.iter().enumerate() {
        h.word(ops.len() as u64);
        for (i, op) in ops.iter().enumerate() {
            match op.kind {
                OpKind::Send { to, payload, .. } => {
                    h.word(0);
                    h.word(u64::from(to));
                    match payload {
                        Payload::Segment { off, len } => {
                            h.word(0);
                            h.word(u64::from(off));
                            h.word(u64::from(len));
                        }
                        Payload::Opaque { bytes } => {
                            h.word(1);
                            h.word(bytes);
                        }
                    }
                    let recv = recv_of.get(&(r as u32, i as u32));
                    let (rank, op) = recv.copied().unwrap_or((u32::MAX, u32::MAX));
                    h.word(u64::from(rank));
                    h.word(u64::from(op));
                }
                OpKind::Recv { from, action, .. } => {
                    h.word(1);
                    h.word(u64::from(from));
                    h.word(match action {
                        RecvAction::Reduce => 0,
                        RecvAction::Copy => 1,
                        RecvAction::Discard => 2,
                    });
                }
                OpKind::Compute { ps } => {
                    h.word(2);
                    h.word(ps);
                }
            }
            h.word(op.deps.len() as u64);
            for &d in &op.deps {
                h.word(u64::from(d));
            }
        }
    }
    h.0
}

#[test]
fn every_schedule_matches_its_pin() {
    let cases = cases();
    let got: Vec<(String, u64)> = cases
        .iter()
        .map(|(name, s)| (name.clone(), digest(s)))
        .collect();
    let table: String = got
        .iter()
        .map(|(name, d)| format!("    (\"{name}\", {d:#018x}),\n"))
        .collect();
    let names: Vec<&str> = got.iter().map(|(name, _)| name.as_str()).collect();
    let pinned: Vec<&str> = PINNED.iter().map(|&(name, _)| name).collect();
    assert_eq!(names, pinned, "cases changed; this run's digests:\n{table}");
    let stale: Vec<&str> = got
        .iter()
        .zip(&PINNED)
        .filter(|((_, d), (_, want))| d != want)
        .map(|((name, _), _)| name.as_str())
        .collect();
    assert!(
        stale.is_empty(),
        "schedules changed for {stale:?}; this run's digests:\n{table}"
    );
    for (name, s) in &cases {
        assert_eq!(s.validate(), Ok(()), "{name}");
    }
}
