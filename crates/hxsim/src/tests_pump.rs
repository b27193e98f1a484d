//! Differential proof that the NIC pump's route classes and skipped
//! pumps are exact: on random topologies, routers, traffic that defers
//! at the NIC and mid-run fail/repair schedules, the class pump gives
//! the same `SimStats`, bit for bit, as the per-packet pump it replaced
//! (kept under `#[cfg(test)]` as the oracle, `Engine::pump_nic_per_packet`).

use crate::apps::{Alltoall, Permutation, UniformRandom};
use crate::engine::PumpProbe;
use crate::{Application, Engine, FailureSchedule, RetransmitPolicy, SimConfig, SimStats};
use hxnet::dragonfly::DragonflyParams;
use hxnet::fattree::FatTreeParams;
use hxnet::hammingmesh::HxMeshParams;
use hxnet::hyperx::HyperXParams;
use hxnet::route::ShortestPathRouter;
use hxnet::torus::TorusParams;
use hxnet::Network;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The topology x router portfolio of `tests/flow_incremental_equiv.rs`.
fn net_for(idx: usize) -> Network {
    let torus = || {
        TorusParams {
            cols: 4,
            rows: 4,
            board: 2,
        }
        .build()
    };
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
        3 => torus(),
        4 => HxMeshParams::square(2, 3).build(),
        5 | 6 => {
            let mut net = if idx == 5 {
                FatTreeParams::scaled_nonblocking(16, 8).build()
            } else {
                torus()
            };
            net.router = Box::new(ShortestPathRouter::build(&net.topo, &net.endpoints));
            net
        }
        _ => unreachable!("net_for index out of range"),
    }
}

/// Traffic whose messages are longer than the per-port window, so
/// packets defer at the NIC.
#[derive(Clone, Copy, Debug)]
enum Pattern {
    Alltoall { window: u32, shifts: u32 },
    Permutation { rounds: u32 },
    UniformRandom { count: u32 },
}

/// One random scenario, drawn from a seed.
#[derive(Clone, Copy, Debug)]
struct Case {
    net_idx: usize,
    pattern: Pattern,
    packets: u64,
    /// `(cables, fail_at_ps, repair_at_ps)`: connectivity-preserving
    /// cables that fail mid-run and come back.
    failure: Option<(usize, u64, u64)>,
    retransmit: RetransmitPolicy,
    seed: u64,
}

impl Case {
    fn draw(seed: u64) -> Case {
        let mut rng = StdRng::seed_from_u64(seed);
        let pattern = match rng.random_range(0..3u32) {
            0 => Pattern::Alltoall {
                window: rng.random_range(1..5),
                shifts: rng.random_range(1..4),
            },
            1 => Pattern::Permutation {
                rounds: rng.random_range(1..3),
            },
            _ => Pattern::UniformRandom {
                count: rng.random_range(1..3),
            },
        };
        let failure = rng.random_bool(0.5).then(|| {
            let fail_at: u64 = rng.random_range(100_000..4_000_000);
            (
                rng.random_range(1..3),
                fail_at,
                fail_at + rng.random_range(500_000..3_000_000u64),
            )
        });
        let retransmit = if rng.random_bool(0.5) {
            RetransmitPolicy::Timeout
        } else {
            RetransmitPolicy::Reroute
        };
        Case {
            net_idx: rng.random_range(0..7),
            pattern,
            packets: rng.random_range(5..65),
            failure,
            retransmit,
            seed,
        }
    }

    /// Run the case under the class pump, or under the per-packet oracle.
    fn run(&self, per_packet: bool) -> (SimStats, PumpProbe) {
        let mut net = net_for(self.net_idx);
        let mut failures = FailureSchedule::new();
        if let Some((cables, fail_at, repair_at)) = self.failure {
            let mut rng = StdRng::seed_from_u64(self.seed ^ 0xFA11);
            net.fail_random_cables(cables, &mut rng);
            for (n, p) in net.topo.cables() {
                if net.topo.link_failed(n, p) {
                    net.topo.restore_link(n, p);
                    failures = failures.fail(fail_at, n, p).repair(repair_at, n, p);
                }
            }
        }
        let p = net.num_ranks();
        let bytes = self.packets * crate::PACKET_BYTES;
        let mut app: Box<dyn Application> = match self.pattern {
            Pattern::Alltoall { window, shifts } => {
                Box::new(Alltoall::with_shifts(p, bytes, window, shifts))
            }
            Pattern::Permutation { rounds } => {
                Box::new(Permutation::new(p, bytes, rounds, self.seed))
            }
            Pattern::UniformRandom { count } => {
                Box::new(UniformRandom::new(p, bytes, count, self.seed))
            }
        };
        let cfg = SimConfig {
            seed: self.seed,
            max_time_ps: 500_000_000_000,
            failures,
            retransmit: self.retransmit,
            ..SimConfig::default()
        };
        let probe = PumpProbe {
            per_packet,
            ..PumpProbe::default()
        };
        Engine::new(&net, cfg).run_probed(probe, app.as_mut())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The class pump is the per-packet pump, bit for bit: every
    /// `SimStats` field matches (compared through `Debug`, which prints
    /// every integer exactly and every field the struct ever grows).
    #[test]
    fn prop_class_pump_matches_per_packet_pump(seed in 0u64..u64::MAX) {
        let case = Case::draw(seed);
        let (oracle, _) = case.run(true);
        let (got, _) = case.run(false);
        // Failure sets keep every endpoint connected, so a run that does
        // not drain would verify nothing.
        prop_assert!(oracle.clean(), "{case:?}: {oracle:?}");
        prop_assert_eq!(format!("{got:?}"), format!("{oracle:?}"), "{:?}", case);
    }
}

/// The generator reaches what the property is about: packets defer at
/// the NIC, pumps are skipped, and link events land while a NIC is
/// blocked.
#[test]
fn random_cases_defer_skip_and_unblock() {
    let probes: Vec<(Case, PumpProbe)> = (0..16)
        .map(|seed| {
            let case = Case::draw(seed);
            (case, case.run(false).1)
        })
        .collect();
    let deferred = probes.iter().filter(|(_, p)| p.deferred > 0).count();
    let skipped = probes.iter().filter(|(_, p)| p.skipped > 0).count();
    let failing = probes.iter().filter(|(c, _)| c.failure.is_some()).count();
    let unblocked = probes
        .iter()
        .filter(|(_, p)| p.link_events_while_blocked > 0)
        .count();
    assert_eq!(deferred, probes.len(), "{probes:?}");
    assert_eq!(skipped, probes.len(), "{probes:?}");
    assert!(failing >= 4 && unblocked >= 3, "{probes:?}");
}
