//! High-level measurement drivers shared by the benchmark harness, the
//! examples, and the integration tests.

use hxcollect::allreduce::{
    bidirectional_ring_allreduce, disjoint_rings_allreduce, ring_allreduce, torus2d_allreduce,
};
use hxcollect::model;
use hxcollect::simapp::ScheduleApp;
use hxnet::Network;
use hxsim::apps::{Alltoall, Permutation};
use hxsim::{simulate, EngineKind, SimConfig};

/// Outcome of a bandwidth measurement on the simulator. Every driver runs
/// the [`EngineKind`] it is given (figure binaries default to the flow
/// fast path — see `tests/flow_vs_packet.rs` for the agreement bands
/// between the two).
#[derive(Clone, Copy, Debug)]
pub struct Measurement {
    /// Simulated completion time (ps).
    pub time_ps: u64,
    /// Bytes the pattern moves per rank (for normalization).
    pub bytes_per_rank: u64,
    /// Pattern-specific normalized bandwidth:
    /// alltoall -> share of injection bandwidth (Table II "glob. BW");
    /// allreduce -> share of the S/(inj/2) optimum (Table II "ared. BW").
    pub bw_fraction: f64,
    /// The run finished with every message delivered.
    pub clean: bool,
    /// Events the simulator executed ([`hxsim::SimStats::events`]).
    pub events: u64,
    /// Messages the run sent.
    pub messages: u64,
}

/// Allreduce algorithm selector (§V-A2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AllreduceAlgo {
    /// Unidirectional pipelined ring.
    Ring,
    /// Bidirectional pipelined ring (two ports).
    BidirRing,
    /// Two bidirectional rings on edge-disjoint Hamiltonian cycles
    /// (all four ports; "rings" in Fig. 13).
    DisjointRings,
    /// 2D torus algorithm ("torus" in Fig. 13), doubled over 4 ports.
    Torus2D,
}

impl AllreduceAlgo {
    /// Stable identifier used by the `hxserve` scenario specs; `"rings"`
    /// and `"torus"` match the labels Fig. 13 uses for the two headline
    /// algorithms.
    pub fn spec_name(self) -> &'static str {
        match self {
            AllreduceAlgo::Ring => "ring",
            AllreduceAlgo::BidirRing => "bidir_ring",
            AllreduceAlgo::DisjointRings => "rings",
            AllreduceAlgo::Torus2D => "torus",
        }
    }

    pub fn all() -> [AllreduceAlgo; 4] {
        [
            AllreduceAlgo::Ring,
            AllreduceAlgo::BidirRing,
            AllreduceAlgo::DisjointRings,
            AllreduceAlgo::Torus2D,
        ]
    }
}

impl std::str::FromStr for AllreduceAlgo {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        AllreduceAlgo::all()
            .into_iter()
            .find(|a| a.spec_name() == s)
            .ok_or_else(|| {
                let names: Vec<&str> = AllreduceAlgo::all().map(AllreduceAlgo::spec_name).to_vec();
                format!(
                    "unknown algorithm {s:?} (expected one of: {})",
                    names.join(", ")
                )
            })
    }
}

/// Grid factorization of `n` ranks for torus-structured algorithms.
fn near_square_grid(n: usize) -> (usize, usize) {
    let mut r = (n as f64).sqrt() as usize;
    while r > 1 && !n.is_multiple_of(r) {
        r -= 1;
    }
    (n / r, r) // rows >= cols so r = k*c more often satisfiable
}

/// Run one allreduce of `bytes` per rank over the whole machine and report
/// the achieved fraction of the theoretical optimum.
pub fn allreduce_bandwidth(
    net: &Network,
    algo: AllreduceAlgo,
    bytes: u64,
    engine: EngineKind,
) -> Measurement {
    let p = net.num_ranks();
    let elems = (bytes / hxcollect::ELEM_BYTES).max(p as u64 * 4) as usize;
    let sched = match algo {
        AllreduceAlgo::Ring => ring_allreduce(p, elems),
        AllreduceAlgo::BidirRing => bidirectional_ring_allreduce(p, elems),
        AllreduceAlgo::DisjointRings => disjoint_rings_allreduce_grid(p, elems),
        AllreduceAlgo::Torus2D => {
            let (r, c) = near_square_grid(p);
            torus2d_allreduce(r, c, elems, true)
        }
    };
    let mut app = ScheduleApp::new(&sched);
    let stats = simulate(net, SimConfig::default(), engine, &mut app);
    let s_bytes = elems as u64 * hxcollect::ELEM_BYTES;
    let inj = net.injection_bytes_per_ps(0);
    Measurement {
        time_ps: stats.finish_ps,
        bytes_per_rank: s_bytes,
        bw_fraction: model::allreduce_bw_fraction(s_bytes, stats.finish_ps, inj),
        clean: stats.clean() && app.is_done(),
        events: stats.events,
        messages: stats.messages_sent,
    }
}

fn disjoint_rings_allreduce_grid(p: usize, elems: usize) -> hxcollect::Schedule {
    let (r, c) = near_square_grid(p);
    disjoint_rings_allreduce(r, c, elems).0
}

/// Balanced-shift alltoall of `bytes` per pair (§V-A1a); reports the share
/// of injection bandwidth sustained. `cfg` carries fault-injection
/// settings (a mid-run `FailureSchedule`, a retransmit policy); plain runs
/// pass `SimConfig::default()`.
pub fn alltoall_bandwidth(
    net: &Network,
    bytes: u64,
    window: u32,
    engine: EngineKind,
    cfg: SimConfig,
) -> Measurement {
    let p = net.num_ranks();
    let mut app = Alltoall::new(p, bytes, window);
    let stats = simulate(net, cfg, engine, &mut app);
    let per_rank = app.bytes_per_rank();
    let inj = net.injection_bytes_per_ps(0);
    Measurement {
        time_ps: stats.finish_ps,
        bytes_per_rank: per_rank,
        bw_fraction: model::alltoall_bw_fraction(per_rank, stats.finish_ps, inj),
        clean: stats.clean(),
        events: stats.events,
        messages: stats.messages_sent,
    }
}

/// Random-permutation traffic (§V-A1b): per-accelerator receive bandwidth
/// distribution in fractions of injection bandwidth.
pub fn permutation_bandwidths(
    net: &Network,
    bytes: u64,
    rounds: u32,
    seed: u64,
    engine: EngineKind,
) -> Vec<f64> {
    let p = net.num_ranks();
    let mut app = Permutation::new(p, bytes, rounds, seed);
    let stats = simulate(net, SimConfig::default(), engine, &mut app);
    assert!(stats.clean(), "permutation run did not complete");
    let inj = net.injection_bytes_per_ps(0);
    stats
        .rank_recv_bytes_per_ps()
        .into_iter()
        .filter(|&b| b > 0.0)
        .map(|b| b / inj)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hxnet::hammingmesh::HxMeshParams;
    use hxnet::torus::TorusParams;

    #[test]
    fn allreduce_measures_reasonable_fractions() {
        // 2x2 Hx2Mesh (16 accels), 8 MiB: the rings algorithm must reach a
        // solid share of the optimum in the bandwidth regime (paper Fig. 13
        // reaches >90% at large sizes; small sizes are latency-bound).
        let net = HxMeshParams::square(2, 2).build();
        let m = allreduce_bandwidth(
            &net,
            AllreduceAlgo::DisjointRings,
            8 << 20,
            EngineKind::Packet,
        );
        assert!(m.clean);
        assert!(m.bw_fraction > 0.6, "rings fraction {:.3}", m.bw_fraction);
        // Unidirectional ring can use at most 1 of 4 ports each way:
        // fraction <= ~0.5 of the 4-port optimum.
        let m1 = allreduce_bandwidth(&net, AllreduceAlgo::Ring, 8 << 20, EngineKind::Packet);
        assert!(m1.clean);
        assert!(m1.bw_fraction < m.bw_fraction);
        assert!(
            m1.bw_fraction < 0.55,
            "uni ring fraction {:.3}",
            m1.bw_fraction
        );
    }

    #[test]
    fn alltoall_fraction_reflects_oversubscription() {
        // Hx2Mesh cut ratio is 1/(2a) = 1/4; small meshes do a bit better
        // because not all traffic crosses the bisection (§V-A1a).
        let net = HxMeshParams::square(2, 4).build();
        let m = alltoall_bandwidth(&net, 64 << 10, 2, EngineKind::Packet, SimConfig::default());
        assert!(m.clean);
        assert!(
            m.bw_fraction > 0.10 && m.bw_fraction < 0.9,
            "alltoall fraction {:.3}",
            m.bw_fraction
        );
    }

    #[test]
    fn torus_alltoall_is_much_worse_than_hxmesh() {
        let hx = HxMeshParams::square(2, 4).build();
        let torus = TorusParams {
            cols: 8,
            rows: 8,
            board: 2,
        }
        .build();
        let mh = alltoall_bandwidth(&hx, 32 << 10, 2, EngineKind::Packet, SimConfig::default());
        let mt = alltoall_bandwidth(
            &torus,
            32 << 10,
            2,
            EngineKind::Packet,
            SimConfig::default(),
        );
        assert!(mh.clean && mt.clean);
        assert!(
            mt.bw_fraction < mh.bw_fraction,
            "torus {:.3} !< hxmesh {:.3}",
            mt.bw_fraction,
            mh.bw_fraction
        );
    }

    #[test]
    fn permutation_returns_per_rank_distribution() {
        let net = HxMeshParams::square(2, 2).build();
        let bw = permutation_bandwidths(&net, 128 << 10, 2, 42, EngineKind::Packet);
        assert_eq!(bw.len(), 16);
        assert!(bw.iter().all(|&b| b > 0.0 && b <= 1.01));
    }

    #[test]
    fn flow_engine_reproduces_the_alltoall_ordering() {
        // The qualitative Fig. 1 result must not depend on the backend:
        // HxMesh beats the torus on alltoall under the flow engine too.
        let hx = HxMeshParams::square(2, 4).build();
        let torus = TorusParams {
            cols: 8,
            rows: 8,
            board: 2,
        }
        .build();
        let mh = alltoall_bandwidth(&hx, 32 << 10, 2, EngineKind::Flow, SimConfig::default());
        let mt = alltoall_bandwidth(&torus, 32 << 10, 2, EngineKind::Flow, SimConfig::default());
        assert!(mh.clean && mt.clean);
        assert!(
            mt.bw_fraction < mh.bw_fraction,
            "torus {:.3} !< hxmesh {:.3}",
            mt.bw_fraction,
            mh.bw_fraction
        );
    }
}
