//! Differential proof that `RateMode::Incremental` is observationally
//! identical to `RateMode::Full` (proptest).
//!
//! Random (topology, traffic pattern, message size class, connectivity-
//! preserving failure set, replica thread count) scenarios run under both
//! solver modes. Everything an application or a figure sweep can observe
//! must match **bitwise**: completion times, per-epoch max-min rates
//! (`SimStats::rate_trace`, recorded on every epoch in either mode), and
//! all delivery and failure counters.
//!
//! The patterns include the figure sweeps' two less direct paths: a
//! collective schedule (disjoint-rings or 2D-torus allreduce replayed by
//! `ScheduleApp`, as Fig. 13 runs it) and, as an option on any pattern,
//! the drawn failure set replayed mid-run as a `FailureSchedule` on the
//! pristine network (as `hxserve`'s mid-run cells and Fig. 10 run it).
//!
//! The four solver-effort counters (`rate_recomputes`,
//! `rate_recomputes_full`, `rate_touched_flows`, `rate_fill_rounds`) are
//! deliberately *excluded* from the bitwise comparison: they measure how
//! much work the solver did, not what it computed, and the incremental
//! solver is allowed to skip epochs whose only seeds went stale (a seeded
//! flow that drained in the same epoch). For those the suite instead pins
//! the direction of the O(affected) claim: incremental effort never
//! exceeds full effort.

use hammingmesh::hxcollect::simapp::ScheduleApp;
use hammingmesh::hxcollect::{disjoint_rings_allreduce, torus2d_allreduce, ELEM_BYTES};
use hammingmesh::hxnet::route::ShortestPathRouter;
use hammingmesh::hxnet::Network;
use hammingmesh::hxsim::apps::{Alltoall, MessageBlast, Permutation, UniformRandom};
use hammingmesh::hxsim::{Application, FailureSchedule, FlowEngine, RateMode, SimConfig, SimStats};
use hammingmesh::prelude::*;
use proptest::prelude::*;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// The topology x router combinations under test — the same portfolio the
/// fault-model proptests cover, small enough to build per case.
fn net_for(idx: usize) -> Network {
    match idx {
        0 => FatTreeParams::scaled_nonblocking(16, 8).build(),
        1 => DragonflyParams {
            a: 4,
            p: 2,
            h: 2,
            groups: 4,
        }
        .build(),
        2 => HyperXParams {
            x: 4,
            y: 4,
            radix: 64,
        }
        .build(),
        3 => TorusParams {
            cols: 4,
            rows: 4,
            board: 2,
        }
        .build(),
        4 => HxMeshParams::square(2, 3).build(),
        5 | 6 => {
            let mut net = if idx == 5 {
                FatTreeParams::scaled_nonblocking(16, 8).build()
            } else {
                TorusParams {
                    cols: 4,
                    rows: 4,
                    board: 2,
                }
                .build()
            };
            net.router = Box::new(ShortestPathRouter::build(&net.topo, &net.endpoints));
            net
        }
        _ => unreachable!("net_for index out of range"),
    }
}

/// Ranks of the collective-schedule pattern: a 4x4 logical grid, placed
/// on a seeded subset of the machine so schedules stay small everywhere.
const COLLECTIVE_RANKS: usize = 16;

/// One fully-specified random scenario: everything needed to rebuild the
/// identical simulation any number of times (per mode, per replica).
#[derive(Clone, Copy, Debug)]
struct Scenario {
    net_idx: usize,
    kind: usize,
    bytes: u64,
    failures: usize,
    /// Inject the drawn cables mid-run instead of before the run.
    midrun: bool,
    seed: u64,
}

impl Scenario {
    /// The network and the run's failure schedule. Frozen scenarios fail
    /// the drawn cables up front; mid-run ones restore them and replay
    /// the same set as one fail instant (plus a repair on odd seeds)
    /// while traffic is in flight.
    fn build_net(&self) -> (Network, FailureSchedule) {
        let mut net = net_for(self.net_idx);
        let mut rng = rand::rngs::StdRng::seed_from_u64(self.seed);
        net.fail_random_cables(self.failures, &mut rng);
        let mut sched = FailureSchedule::new();
        if self.midrun {
            let drawn: Vec<_> = net
                .topo
                .cables()
                .into_iter()
                .filter(|&(n, p)| net.topo.link_failed(n, p))
                .collect();
            let fail_at = 200_000 * (1 + self.seed % 8);
            for (n, p) in drawn {
                net.topo.restore_link(n, p);
                sched = sched.fail(fail_at, n, p);
                if !self.seed.is_multiple_of(2) {
                    sched = sched.repair(fail_at + 2_000_000, n, p);
                }
            }
        }
        (net, sched)
    }

    /// The collective-schedule pattern: a disjoint-rings or 2D-torus
    /// allreduce of `bytes` per rank and its seeded placement.
    fn collective(&self, p: usize) -> (Schedule, Vec<u32>) {
        let elems = (self.bytes / ELEM_BYTES).max(COLLECTIVE_RANKS as u64 * 4) as usize;
        let sched = if self.seed.is_multiple_of(2) {
            disjoint_rings_allreduce(4, 4, elems).0
        } else {
            torus2d_allreduce(4, 4, elems, true)
        };
        let mut rng = rand::rngs::StdRng::seed_from_u64(self.seed ^ 0xC011);
        let mut placement: Vec<u32> = (0..p as u32).collect();
        placement.shuffle(&mut rng);
        placement.truncate(COLLECTIVE_RANKS);
        (sched, placement)
    }

    fn build_app(&self) -> Box<dyn Application> {
        let p = net_for(self.net_idx).num_ranks();
        let mut rng = rand::rngs::StdRng::seed_from_u64(self.seed ^ 0xA11CE);
        match self.kind {
            0 => {
                let n = 1 + (self.seed as usize % 12);
                let mut pairs = Vec::with_capacity(n);
                while pairs.len() < n {
                    let s = rng.random_range(0..p as u32);
                    let d = rng.random_range(0..p as u32);
                    if s != d {
                        pairs.push((s, d, self.bytes));
                    }
                }
                Box::new(MessageBlast::pairs(pairs))
            }
            1 => {
                let window = 1 + (self.seed % 2) as u32;
                let shifts = 1 + (self.seed % 4) as u32;
                Box::new(Alltoall::with_shifts(p, self.bytes, window, shifts))
            }
            2 => {
                let rounds = 1 + (self.seed % 3) as u32;
                Box::new(Permutation::new(p, self.bytes, rounds, self.seed))
            }
            3 => Box::new(UniformRandom::new(p, self.bytes, 3, self.seed)),
            _ => unreachable!("pattern kind out of range"),
        }
    }

    fn run(&self, mode: RateMode) -> SimStats {
        let (net, failures) = self.build_net();
        let cfg = SimConfig {
            rate_mode: mode,
            trace_rates: true,
            max_time_ps: 500_000_000_000,
            failures,
            ..Default::default()
        };
        if self.kind == 4 {
            let (sched, placement) = self.collective(net.num_ranks());
            let mut app = ScheduleApp::with_mapping(&sched, placement);
            let stats = FlowEngine::new(&net, cfg).run(&mut app);
            assert!(app.is_done(), "{self:?}: schedule did not complete");
            return stats;
        }
        let mut app = self.build_app();
        FlowEngine::new(&net, cfg).run(app.as_mut())
    }
}

/// Bitwise equality on every observable `SimStats` field; the solver
/// effort counters are pinned directionally instead (see module doc).
fn assert_equiv(full: &SimStats, inc: &SimStats) {
    assert_eq!(full.finish_ps, inc.finish_ps, "completion time diverged");
    assert_eq!(full.events, inc.events);
    assert_eq!(full.messages_sent, inc.messages_sent);
    assert_eq!(full.messages_delivered, inc.messages_delivered);
    assert_eq!(full.bytes_delivered, inc.bytes_delivered);
    assert_eq!(full.packets_forwarded, inc.packets_forwarded);
    assert_eq!(full.undelivered_messages, inc.undelivered_messages);
    assert_eq!(full.timed_out, inc.timed_out);
    assert_eq!(full.total_link_busy_ps, inc.total_link_busy_ps);
    assert_eq!(full.rank_recv_done_ps, inc.rank_recv_done_ps);
    assert_eq!(full.rank_recv_bytes, inc.rank_recv_bytes);
    assert_eq!(full.node_forwarded, inc.node_forwarded);
    assert_eq!(full.link_fail_events, inc.link_fail_events);
    assert_eq!(full.link_repair_events, inc.link_repair_events);
    assert_eq!(full.flows_rerouted, inc.flows_rerouted);
    assert_eq!(full.flow_stall_ps, inc.flow_stall_ps);
    assert_eq!(full.packet_retransmits, inc.packet_retransmits);
    assert_eq!(full.error, inc.error);
    assert_eq!(
        full.rate_trace, inc.rate_trace,
        "per-epoch max-min rates diverged"
    );
    // The O(affected) direction: component-scoped fills never do MORE
    // work than global refills.
    assert!(
        inc.rate_touched_flows <= full.rate_touched_flows,
        "incremental touched {} flows, full only {}",
        inc.rate_touched_flows,
        full.rate_touched_flows
    );
    assert!(
        inc.rate_recomputes <= full.rate_recomputes,
        "incremental ran {} fill epochs, full only {}",
        inc.rate_recomputes,
        full.rate_recomputes
    );
    assert!(
        inc.rate_recomputes_full <= full.rate_recomputes_full,
        "incremental ran {} whole-network epochs, full only {}",
        inc.rate_recomputes_full,
        full.rate_recomputes_full
    );
    assert!(
        inc.rate_fill_rounds <= full.rate_fill_rounds,
        "incremental ran {} level rounds, full only {}",
        inc.rate_fill_rounds,
        full.rate_fill_rounds
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The headline differential property: full and incremental solving
    /// are indistinguishable on any random scenario, and the incremental
    /// run is additionally reproducible across concurrent replicas (the
    /// engine owns all its state, so scheduling cannot leak in).
    #[test]
    fn prop_incremental_matches_full_bitwise(
        net_idx in 0usize..7,
        kind in 0usize..5,
        bytes in prop_oneof![
            64u64..2048,             // latency-bound small messages
            (16u64 << 10)..(64 << 10), // the figures' mid sizes
            (1u64 << 20)..(2 << 20),   // bandwidth-bound MiB class
        ],
        failure_set in (0usize..5, prop_oneof![Just(false), Just(true)]),
        seed in 0u64..10_000,
        threads in 1usize..4,
    ) {
        let (failures, midrun) = failure_set;
        let sc = Scenario { net_idx, kind, bytes, failures, midrun, seed };
        let full = sc.run(RateMode::Full);
        let inc = sc.run(RateMode::Incremental);
        // A universally timed-out suite would verify nothing: scenarios
        // keep endpoints connected, so every run must drain.
        prop_assert!(full.clean(), "{sc:?}: {full:?}");
        prop_assert!(!full.rate_trace.is_empty(), "vacuous trace: {sc:?}");
        assert_equiv(&full, &inc);
        // Replica determinism at the sampled thread count: concurrent
        // incremental runs of the same scenario are bitwise identical.
        let replicas: Vec<SimStats> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| scope.spawn(|| sc.run(RateMode::Incremental)))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for rep in &replicas {
            prop_assert_eq!(rep.finish_ps, inc.finish_ps);
            prop_assert_eq!(&rep.rate_trace, &inc.rate_trace);
        }
    }
}
