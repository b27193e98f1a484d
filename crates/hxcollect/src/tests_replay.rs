//! Differential proof that the dense replay is exact: schedules from every
//! generator and hand-built ones, bound under random injective placements
//! onto small networks, give the same `SimStats`, bit for bit, on both
//! engines, as the map-based replay [`ScheduleApp`] replaced (kept here as
//! the oracle, [`MapScheduleApp`]). The dense app is bound once per case
//! and rebound for every later run, one of them cut short, so a rebound
//! app is proved against a freshly bound oracle.

use crate::allreduce::{
    bidirectional_ring_allreduce, binomial_tree_allreduce, disjoint_rings_allreduce, job_allreduce,
    ring_allgather, ring_allreduce, ring_broadcast, ring_reduce_scatter, torus2d_allreduce,
};
use crate::rings;
use crate::schedule::{OpKind, Payload, RecvAction, Schedule};
use crate::simapp::ScheduleApp;
use hxnet::fattree::FatTreeParams;
use hxnet::hammingmesh::HxMeshParams;
use hxnet::torus::TorusParams;
use hxnet::Network;
use hxsim::{simulate, Application, Ctx, EngineKind, MsgInfo, SimConfig};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, RngCore, SeedableRng};
use std::collections::BTreeMap;

/// The replay before dense binding: per-rank nested dependents, and
/// send/recv matching through `BTreeMap`s at bind and at every callback.
/// Only well-formed schedules reach it, so its rejections are asserts.
struct MapScheduleApp<'s> {
    sched: &'s Schedule,
    mapping: Vec<u32>,
    indeg: Vec<Vec<u32>>,
    dependents: Vec<Vec<Vec<u32>>>,
    send_match: Vec<BTreeMap<u32, (u32, u32)>>,
    remaining: usize,
    finish_ps: u64,
}

impl<'s> MapScheduleApp<'s> {
    fn with_mapping(sched: &'s Schedule, mapping: Vec<u32>) -> Self {
        assert_eq!(mapping.len(), sched.nranks);
        assert_eq!(sched.validate(), Ok(()));
        let inverse: BTreeMap<u32, u32> = mapping
            .iter()
            .enumerate()
            .map(|(s, &g)| (g, s as u32))
            .collect();
        assert_eq!(inverse.len(), mapping.len(), "mapping must be injective");

        let mut indeg: Vec<Vec<u32>> = Vec::with_capacity(sched.nranks);
        let mut dependents: Vec<Vec<Vec<u32>>> = Vec::with_capacity(sched.nranks);
        for ops in &sched.ops {
            let mut ind = vec![0u32; ops.len()];
            let mut dep: Vec<Vec<u32>> = vec![Vec::new(); ops.len()];
            for (i, op) in ops.iter().enumerate() {
                ind[i] = op.deps.len() as u32;
                for &d in &op.deps {
                    dep[d as usize].push(i as u32);
                }
            }
            indeg.push(ind);
            dependents.push(dep);
        }

        let mut pending_recvs: BTreeMap<(u32, u32, u64), Vec<(u32, u32)>> = BTreeMap::new();
        for (r, ops) in sched.ops.iter().enumerate() {
            for (i, op) in ops.iter().enumerate() {
                if let OpKind::Recv { from, tag, .. } = op.kind {
                    pending_recvs
                        .entry((from, r as u32, tag))
                        .or_default()
                        .push((r as u32, i as u32));
                }
            }
        }
        let mut send_match: Vec<BTreeMap<u32, (u32, u32)>> = vec![BTreeMap::new(); sched.nranks];
        for (r, ops) in sched.ops.iter().enumerate() {
            for (i, op) in ops.iter().enumerate() {
                if let OpKind::Send { to, tag, .. } = op.kind {
                    let q = pending_recvs.entry((r as u32, to, tag)).or_default();
                    assert!(!q.is_empty(), "send rank {r} op {i}: no matching recv");
                    let m = q.remove(0);
                    send_match[r].insert(i as u32, m);
                }
            }
        }
        for (k, q) in &pending_recvs {
            assert!(q.is_empty(), "unmatched recv {k:?}");
        }

        Self {
            sched,
            mapping,
            indeg,
            dependents,
            send_match,
            remaining: sched.num_ops(),
            finish_ps: 0,
        }
    }

    fn enc(rank: u32, op: u32) -> u64 {
        ((rank as u64) << 32) | op as u64
    }

    fn dec(tag: u64) -> (u32, u32) {
        ((tag >> 32) as u32, tag as u32)
    }

    fn issue(&mut self, ctx: &mut Ctx, rank: u32, op_idx: u32) {
        let op = &self.sched.ops[rank as usize][op_idx as usize];
        match op.kind {
            OpKind::Send { to, payload, .. } => {
                let bytes = payload.bytes(self.sched.elem_bytes).max(1);
                ctx.send(
                    self.mapping[rank as usize],
                    self.mapping[to as usize],
                    bytes,
                    Self::enc(rank, op_idx),
                );
            }
            OpKind::Recv { .. } => {}
            OpKind::Compute { ps } => {
                ctx.compute(self.mapping[rank as usize], ps, Self::enc(rank, op_idx));
            }
        }
    }

    fn complete(&mut self, ctx: &mut Ctx, rank: u32, op_idx: u32) {
        self.remaining -= 1;
        self.finish_ps = self.finish_ps.max(ctx.now());
        let deps = std::mem::take(&mut self.dependents[rank as usize][op_idx as usize]);
        for d in &deps {
            let slot = &mut self.indeg[rank as usize][*d as usize];
            *slot -= 1;
            if *slot == 0 {
                self.issue(ctx, rank, *d);
            }
        }
        self.dependents[rank as usize][op_idx as usize] = deps;
    }
}

impl Application for MapScheduleApp<'_> {
    fn start(&mut self, ctx: &mut Ctx) {
        for r in 0..self.sched.nranks as u32 {
            for i in 0..self.sched.ops[r as usize].len() as u32 {
                if self.indeg[r as usize][i as usize] == 0 {
                    self.issue(ctx, r, i);
                }
            }
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx, info: MsgInfo) {
        let (srank, sop) = Self::dec(info.tag);
        let (rrank, rop) = self.send_match[srank as usize][&sop];
        self.complete(ctx, rrank, rop);
    }

    fn on_send_complete(&mut self, ctx: &mut Ctx, info: MsgInfo) {
        let (srank, sop) = Self::dec(info.tag);
        self.complete(ctx, srank, sop);
    }

    fn on_compute_done(&mut self, ctx: &mut Ctx, _rank: u32, tag: u64) {
        let (srank, sop) = Self::dec(tag);
        self.complete(ctx, srank, sop);
    }
}

/// Where a case's schedule comes from.
#[derive(Clone, Copy, Debug)]
enum Source {
    Ring,
    BidirRing,
    /// `disjoint_rings_allreduce(rows, cols, ..)`: two cycles, one cycle
    /// or the linear fallback, depending on the shape.
    DisjointRings(usize, usize),
    Torus2d(usize, usize, bool),
    BinomialTree,
    Broadcast(usize),
    ReduceScatter,
    Allgather,
    Job(usize, usize),
    /// A ring allreduce and a binomial tree, `merge`d.
    Merged,
    /// Random traffic with computes, opaque payloads, fan-outs and
    /// repeated `(src, dst, tag)` keys (see [`hand_built`]).
    HandBuilt(u64),
}

/// Shapes for `disjoint_rings_allreduce`: 3x3 and 4x4 meet the two-cycle
/// conditions, 2x2, 2x3 and 2x4 take the one-cycle fallback, and 1x4 and
/// 3x1 the linear one.
const RING_SHAPES: [(usize, usize); 7] = [(3, 3), (4, 4), (2, 2), (2, 3), (2, 4), (1, 4), (3, 1)];
const TORUS_SHAPES: [(usize, usize); 4] = [(2, 2), (2, 4), (4, 2), (4, 4)];
/// `job_allreduce` shapes: a single rank (the empty schedule), strips and
/// grids.
const JOB_SHAPES: [(usize, usize); 6] = [(1, 1), (1, 5), (4, 1), (2, 2), (3, 3), (2, 4)];
const NUM_SOURCES: u32 = 11;

/// One random scenario, drawn from a source index and a seed.
#[derive(Clone, Copy, Debug)]
struct Case {
    source: Source,
    /// Ranks of the 1-D sources.
    p: usize,
    /// Elements per rank: mostly a few per chunk, sometimes enough for
    /// multi-packet messages.
    elems_per_rank: usize,
    net_idx: usize,
    seed: u64,
}

impl Case {
    fn draw(source: u32, seed: u64) -> Case {
        let mut rng = StdRng::seed_from_u64(seed);
        let p = rng.random_range(2..17);
        let source = match source {
            0 => Source::Ring,
            1 => Source::BidirRing,
            2 => {
                let (r, c) = RING_SHAPES[rng.random_range(0..RING_SHAPES.len())];
                Source::DisjointRings(r, c)
            }
            3 => {
                let (r, c) = TORUS_SHAPES[rng.random_range(0..TORUS_SHAPES.len())];
                Source::Torus2d(r, c, rng.random_bool(0.5))
            }
            4 => Source::BinomialTree,
            5 => Source::Broadcast(rng.random_range(0..p)),
            6 => Source::ReduceScatter,
            7 => Source::Allgather,
            8 => {
                let (r, c) = JOB_SHAPES[rng.random_range(0..JOB_SHAPES.len())];
                Source::Job(r, c)
            }
            9 => Source::Merged,
            _ => Source::HandBuilt(rng.next_u64()),
        };
        Case {
            source,
            p,
            elems_per_rank: pick(&mut rng, &[1, 3, 8, 2500]),
            net_idx: rng.random_range(0..3),
            seed,
        }
    }

    fn schedule(&self) -> Schedule {
        let (p, n) = (self.p, self.p * self.elems_per_rank);
        match self.source {
            Source::Ring => ring_allreduce(p, n),
            Source::BidirRing => bidirectional_ring_allreduce(p, n),
            Source::DisjointRings(r, c) => {
                disjoint_rings_allreduce(r, c, r * c * 4 * self.elems_per_rank).0
            }
            Source::Torus2d(r, c, doubled) => {
                torus2d_allreduce(r, c, r * c * self.elems_per_rank, doubled)
            }
            Source::BinomialTree => binomial_tree_allreduce(p, n),
            Source::Broadcast(root) => ring_broadcast(p, n, root),
            Source::ReduceScatter => ring_reduce_scatter(p, n),
            Source::Allgather => ring_allgather(p, n),
            Source::Job(r, c) => job_allreduce(r, c, r * c * self.elems_per_rank),
            Source::Merged => {
                let mut s = ring_allreduce(p, n);
                s.merge(&binomial_tree_allreduce(p, n), 1 << 40);
                s
            }
            Source::HandBuilt(seed) => hand_built(p, seed),
        }
    }

    /// A random injective placement of the schedule's ranks; `salt`
    /// draws another.
    fn placement(&self, nranks: usize, net: &Network, salt: u64) -> Vec<u32> {
        let mut sim_ranks: Vec<u32> = (0..net.num_ranks() as u32).collect();
        sim_ranks.shuffle(&mut StdRng::seed_from_u64(self.seed ^ 0x91ACE ^ salt));
        sim_ranks.truncate(nranks);
        sim_ranks
    }

    /// Replay the case under placements A and B: on the flow engine, A,
    /// then B cut short at half of A's finish time, then B in full; on
    /// the packet engine with two seeds, A then B. The oracle binds afresh
    /// for every run; the dense app is bound once, under A, and rebound
    /// before every later run. Each run yields its `SimStats` (`Debug`),
    /// `finish_ps` and `is_done`.
    fn run(&self, oracle: bool) -> Vec<(String, u64, bool)> {
        let sched = self.schedule();
        let net = net_for(self.net_idx);
        let a = self.placement(sched.nranks, &net, 0);
        let b = self.placement(sched.nranks, &net, 0xB);
        let (flow, packet) = (EngineKind::Flow, EngineKind::Packet);
        let (s1, s2) = (self.seed, self.seed ^ 0x5EED);
        let runs = [
            (flow, s1, &a, false),
            (flow, s1, &b, true),
            (flow, s1, &b, false),
            (packet, s1, &a, false),
            (packet, s1, &b, false),
            (packet, s2, &a, false),
            (packet, s2, &b, false),
        ];
        let mut dense = ScheduleApp::with_mapping(&sched, a.clone());
        let mut out: Vec<(String, u64, bool)> = Vec::new();
        for (i, &(kind, seed, mapping, cut)) in runs.iter().enumerate() {
            let mut cfg = SimConfig {
                seed,
                ..SimConfig::default()
            };
            if cut {
                cfg.max_time_ps = out[0].1 / 2;
            }
            out.push(if oracle {
                let mut app = MapScheduleApp::with_mapping(&sched, mapping.clone());
                let stats = simulate(&net, cfg, kind, &mut app);
                (format!("{stats:?}"), app.finish_ps, app.remaining == 0)
            } else {
                if i > 0 {
                    dense.rebind(mapping.clone());
                }
                let stats = simulate(&net, cfg, kind, &mut dense);
                (format!("{stats:?}"), dense.finish_ps, dense.is_done())
            });
        }
        out
    }
}

fn pick<T: Copy>(rng: &mut StdRng, choices: &[T]) -> T {
    choices[rng.random_range(0..choices.len())]
}

/// Small networks with at least 16 ranks each.
fn net_for(idx: usize) -> Network {
    match idx {
        0 => HxMeshParams::square(2, 2).build(),
        1 => TorusParams {
            cols: 4,
            rows: 4,
            board: 2,
        }
        .build(),
        2 => FatTreeParams::scaled_nonblocking(16, 8).build(),
        _ => unreachable!("net_for index out of range"),
    }
}

/// Random traffic over `p` ranks, built message by message so it cannot
/// deadlock: each new op depends only on ops its rank already has. Tags
/// come from a range of three, so `(src, dst, tag)` keys repeat; payloads
/// are opaque (some zero-byte) or segments (some empty); computes fan out
/// to several sends at once.
fn hand_built(p: usize, seed: u64) -> Schedule {
    const DATA: u32 = 16;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut s = Schedule::new(p, DATA as usize);
    let deps = |s: &Schedule, r: usize, rng: &mut StdRng| -> Vec<u32> {
        let len = s.ops[r].len() as u32;
        (0..rng.random_range(0..3))
            .filter(|_| len > 0)
            .map(|_| {
                if rng.random_bool(0.5) {
                    len - 1
                } else {
                    rng.random_range(0..len)
                }
            })
            .collect()
    };
    let message = |s: &mut Schedule, src: usize, send_deps: Vec<u32>, rng: &mut StdRng| {
        let dst = (src + rng.random_range(1..p)) % p;
        let tag = rng.random_range(0..3u64);
        let (payload, action) = if rng.random_bool(0.5) {
            let bytes = pick(rng, &[0, 100, 9000]);
            (Payload::Opaque { bytes }, RecvAction::Discard)
        } else {
            let off = rng.random_range(0..DATA + 1);
            let len = rng.random_range(0..DATA - off + 1);
            let action = pick(
                rng,
                &[RecvAction::Reduce, RecvAction::Copy, RecvAction::Discard],
            );
            (Payload::Segment { off, len }, action)
        };
        s.send(src, dst as u32, tag, payload, send_deps);
        let recv_deps = deps(s, dst, rng);
        s.recv(dst, src as u32, tag, action, recv_deps);
    };
    for _ in 0..rng.random_range(1..24) {
        let src = rng.random_range(0..p);
        if rng.random_bool(0.3) {
            let d = deps(&s, src, &mut rng);
            let c = s.compute(src, rng.random_range(0..5_000_000), d);
            for _ in 0..rng.random_range(2..4) {
                message(&mut s, src, vec![c], &mut rng);
            }
        } else {
            let d = deps(&s, src, &mut rng);
            message(&mut s, src, d, &mut rng);
        }
    }
    s
}

fn check(case: &Case) -> Result<(), proptest::test_runner::TestCaseError> {
    let oracle = case.run(true);
    let got = case.run(false);
    // Every source is deadlock-free, so a replay that does not finish
    // would verify nothing; only the cut-short run (index 1) may stop
    // early.
    prop_assert!(
        oracle.iter().enumerate().all(|(i, o)| i == 1 || o.2),
        "{case:?}: {oracle:?}"
    );
    prop_assert_eq!(got, oracle, "{:?}", case);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The dense replay is the map-based replay, bit for bit: every
    /// `SimStats` field (compared through `Debug`, which prints every
    /// integer exactly and every field the struct ever grows),
    /// `finish_ps` and `is_done` match on both engines.
    #[test]
    fn prop_dense_replay_matches_map_replay(source in 0..NUM_SOURCES, seed in 0u64..u64::MAX) {
        check(&Case::draw(source, seed))?;
    }
}

/// Every source, whatever the proptest draws: two cases each, plus every
/// disjoint-rings shape so all three fallbacks run.
#[test]
fn every_source_replays_identically() {
    for source in 0..NUM_SOURCES {
        for seed in 0..2 {
            check(&Case::draw(source, seed)).unwrap_or_else(|e| panic!("{e:?}"));
        }
    }
    // (cycles used, whether a single Hamiltonian cycle exists)
    let kinds: Vec<(usize, bool)> = RING_SHAPES
        .iter()
        .map(|&(r, c)| {
            let cycles = disjoint_rings_allreduce(r, c, r * c * 4).1;
            (cycles, rings::single_hamiltonian_cycle(r, c).is_some())
        })
        .collect();
    let one_cycle = (1, true);
    let linear = (1, false);
    assert_eq!(
        kinds,
        [
            (2, true),
            (2, true),
            one_cycle,
            one_cycle,
            one_cycle,
            linear,
            linear
        ]
    );
    for (i, &(r, c)) in RING_SHAPES.iter().enumerate() {
        let case = Case {
            source: Source::DisjointRings(r, c),
            ..Case::draw(2, i as u64)
        };
        check(&case).unwrap_or_else(|e| panic!("{e:?}"));
    }
}

/// The hand-built source reaches what the property is about: computes,
/// opaque payloads, repeated keys and completions that release two or more
/// sends at once.
#[test]
fn hand_built_schedules_cover_the_replay_paths() {
    let (mut computes, mut opaque, mut repeated, mut fan_out) = (0, 0, 0, 0);
    for seed in 0..16 {
        let s = hand_built(2 + seed as usize % 7, seed);
        s.validate().expect("hand-built schedules are valid");
        let mut keys = BTreeMap::new();
        for (r, ops) in s.ops.iter().enumerate() {
            let mut sends_after = vec![0; ops.len()];
            for op in ops {
                match op.kind {
                    OpKind::Compute { .. } => computes += 1,
                    OpKind::Send { to, tag, payload } => {
                        opaque += matches!(payload, Payload::Opaque { .. }) as usize;
                        *keys.entry((r, to, tag)).or_insert(0) += 1;
                        for &d in &op.deps {
                            sends_after[d as usize] += 1;
                        }
                    }
                    OpKind::Recv { .. } => {}
                }
            }
            fan_out += sends_after.iter().filter(|&&n| n >= 2).count();
        }
        repeated += keys.values().filter(|&&n| n >= 2).count();
    }
    assert!(
        computes > 0 && opaque > 0 && repeated > 0 && fan_out > 0,
        "computes {computes}, opaque {opaque}, repeated keys {repeated}, fan-outs {fan_out}"
    );
}
