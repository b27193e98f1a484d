//! Build a simulatable one-iteration [`Schedule`] for a DNN workload.
//!
//! The schedule expresses the D x P x O structure of §II-D directly:
//! data-parallel gradient rings across `d`, a fill/drain pipeline across
//! `p` with per-stage compute slices, operator rings across `o`, and
//! MoE/DLRM alltoalls. Payloads are opaque (timing-only); numerical
//! correctness of the collective building blocks is covered by
//! `hxcollect`'s logical executor.
//!
//! Scaling: `ScaledConfig` shrinks the parallelism degrees while keeping
//! per-accelerator communication volumes, so a laptop-size simulation
//! exercises the same per-endpoint load as the paper's cluster (README
//! "Substitutions").

use crate::workloads::{CommPhase, DnnWorkload, Parallelism};
use hxcollect::schedule::{Payload, RecvAction, Schedule};

/// A workload scaled to a simulatable size.
#[derive(Clone, Debug)]
pub struct ScaledConfig {
    pub parallelism: Parallelism,
    /// Microbatches in flight through the pipeline.
    pub microbatches: u32,
    /// Multiplier applied to all byte counts (to shorten simulations;
    /// bandwidth ratios are preserved).
    pub bytes_scale: f64,
}

impl ScaledConfig {
    /// Shrink `w`'s parallelism to at most `max_ranks` accelerators,
    /// preserving the axis structure (d is reduced first, then p).
    pub fn fit(w: &DnnWorkload, max_ranks: usize) -> Self {
        let mut par = w.parallelism;
        while par.total() > max_ranks && par.d > 1 {
            par.d = (par.d / 2).max(1);
        }
        while par.total() > max_ranks && par.p > 2 {
            par.p = (par.p / 2).max(2);
        }
        while par.total() > max_ranks && par.o > 1 {
            par.o = (par.o / 2).max(1);
        }
        Self {
            parallelism: par,
            microbatches: 4,
            bytes_scale: 1.0,
        }
    }

    /// Rank of logical coordinate (di, pi, oi): o fastest, then p, then d.
    pub fn rank(&self, di: usize, pi: usize, oi: usize) -> u32 {
        ((di * self.parallelism.p + pi) * self.parallelism.o + oi) as u32
    }
}

/// Scale a byte count, keeping at least one packet's worth.
fn scaled(bytes: u64, f: f64) -> u64 {
    ((bytes as f64 * f) as u64).max(256)
}

/// Opaque unidirectional ring allreduce over `members`: 2(g-1) rounds of
/// `total/g` bytes. Returns per-member final op indices.
fn opaque_ring(s: &mut Schedule, members: &[u32], total: u64, entry: &[Vec<u32>]) -> Vec<u32> {
    let g = members.len();
    if g < 2 || total == 0 {
        return entry
            .iter()
            .map(|d| d.last().copied().unwrap_or(0))
            .collect();
    }
    let chunk = Payload::Opaque {
        bytes: (total / g as u64).max(1),
    };
    let mut last = Vec::new();
    for k in 0..2 * (g - 1) {
        last = s.shift_round(
            members,
            1,
            |i| {
                let deps = if k == 0 {
                    entry[i].clone()
                } else {
                    vec![last[i]]
                };
                (chunk, deps)
            },
            |_| (RecvAction::Discard, Vec::new()),
        );
    }
    last
}

/// Opaque balanced-shift alltoall over `members`, `bytes` per peer.
fn opaque_alltoall(s: &mut Schedule, members: &[u32], bytes: u64, entry: &[Vec<u32>]) {
    let g = members.len();
    if g < 2 || bytes == 0 {
        return;
    }
    for shift in 1..g {
        s.shift_round(
            members,
            shift,
            |i| (Payload::Opaque { bytes }, entry[i].clone()),
            |_| (RecvAction::Discard, Vec::new()),
        );
    }
}

/// Build a one-iteration schedule for `w` at `cfg`'s scale.
pub fn build_iteration(w: &DnnWorkload, cfg: &ScaledConfig) -> Schedule {
    let par = cfg.parallelism;
    let n = par.total();
    let mut s = Schedule::new(n, 1);
    let mb = cfg.microbatches.max(1);
    let f = cfg.bytes_scale;

    // Per-rank compute, sliced per pipeline stage and microbatch when a
    // pipeline exists; communication runs concurrently (overlap emerges in
    // the simulator, it is not assumed).
    let compute_slice = w.compute_ps / (mb as u64) / par.p.max(1) as u64;

    // Pipeline stage gating ops: gate[d][p][o] = ops that end stage work.
    let mut stage_gate: Vec<Vec<u32>> = vec![Vec::new(); n];

    if par.p > 1 {
        // Explicit fill/drain pipeline: forward then backward per
        // microbatch, with a compute slice between hops.
        let handoff = w
            .phases
            .iter()
            .find_map(|ph| match *ph {
                CommPhase::PipelineSendRecv { bytes, .. } => Some(scaled(bytes, f)),
                _ => None,
            })
            .unwrap_or(1024);
        for di in 0..par.d {
            for oi in 0..par.o {
                // per (d, o) replica: a chain over p stages
                let chain: Vec<u32> = (0..par.p).map(|pi| cfg.rank(di, pi, oi)).collect();
                let mut prev_recv: Vec<Option<u32>> = vec![None; par.p];
                for _ in 0..mb {
                    // forward
                    for pi in 0..par.p {
                        let me = chain[pi] as usize;
                        let mut deps: Vec<u32> = prev_recv[pi].into_iter().collect();
                        let c = s.compute(me, compute_slice, deps.clone());
                        deps = vec![c];
                        if pi + 1 < par.p {
                            let next = chain[pi + 1];
                            let tx = s.send(me, next, Payload::Opaque { bytes: handoff }, deps);
                            let r = s.recv(
                                next as usize,
                                chain[pi],
                                tx,
                                RecvAction::Discard,
                                Vec::new(),
                            );
                            prev_recv[pi + 1] = Some(r);
                        } else {
                            stage_gate[me].push(c);
                        }
                    }
                }
            }
        }
    } else {
        for r in 0..n {
            let c = s.compute(r, w.compute_ps, Vec::new());
            stage_gate[r].push(c);
        }
    }

    for phase in &w.phases {
        match *phase {
            CommPhase::DataAllreduce { bytes, chunks } => {
                if par.d < 2 {
                    continue;
                }
                let per_chunk = scaled(bytes, f) / chunks.max(1) as u64;
                for pi in 0..par.p {
                    for oi in 0..par.o {
                        let members: Vec<u32> = (0..par.d).map(|di| cfg.rank(di, pi, oi)).collect();
                        let entry: Vec<Vec<u32>> = members
                            .iter()
                            .map(|&mm| stage_gate[mm as usize].clone())
                            .collect();
                        for _ in 0..chunks.max(1) {
                            opaque_ring(&mut s, &members, per_chunk * par.d as u64, &entry);
                        }
                    }
                }
            }
            CommPhase::PipelineSendRecv { .. } => {
                // Handled by the pipeline chain above.
            }
            CommPhase::OperatorAllreduce { bytes, count } => {
                if par.o < 2 {
                    continue;
                }
                for di in 0..par.d {
                    for pi in 0..par.p {
                        let members: Vec<u32> = (0..par.o).map(|oi| cfg.rank(di, pi, oi)).collect();
                        let entry: Vec<Vec<u32>> = vec![Vec::new(); members.len()];
                        let mut gate = entry.clone();
                        for _ in 0..count.max(1) {
                            let exits = opaque_ring(&mut s, &members, scaled(bytes, f), &gate);
                            gate = exits.into_iter().map(|e| vec![e]).collect();
                        }
                    }
                }
            }
            CommPhase::OperatorAlltoall { bytes, count } => {
                // Expert groups of up to 16 consecutive ranks.
                let group = 16.min(n);
                if group < 2 {
                    continue;
                }
                for g0 in (0..n).step_by(group) {
                    let members: Vec<u32> = (g0..(g0 + group).min(n)).map(|r| r as u32).collect();
                    if members.len() < 2 {
                        continue;
                    }
                    let entry: Vec<Vec<u32>> = vec![Vec::new(); members.len()];
                    for _ in 0..count.max(1) {
                        opaque_alltoall(&mut s, &members, scaled(bytes, f), &entry);
                    }
                }
            }
            CommPhase::HaloExchange { bytes, count } => {
                if par.o < 2 {
                    continue;
                }
                // Neighbor exchange along the o ring.
                for di in 0..par.d {
                    for pi in 0..par.p {
                        let members: Vec<u32> = (0..par.o).map(|oi| cfg.rank(di, pi, oi)).collect();
                        let halo = Payload::Opaque {
                            bytes: scaled(bytes, f),
                        };
                        for _ in 0..count.max(1) {
                            s.shift_round(
                                &members,
                                1,
                                |_| (halo, Vec::new()),
                                |_| (RecvAction::Discard, Vec::new()),
                            );
                        }
                    }
                }
            }
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use hxsim::SimConfig;

    #[test]
    fn scaled_config_fits_budget() {
        for w in DnnWorkload::all() {
            let cfg = ScaledConfig::fit(&w, 64);
            assert!(
                cfg.parallelism.total() <= 64,
                "{}: {:?}",
                w.name,
                cfg.parallelism
            );
            assert!(cfg.parallelism.total() >= 2);
        }
    }

    #[test]
    fn schedules_validate() {
        for w in DnnWorkload::all() {
            let mut cfg = ScaledConfig::fit(&w, 32);
            cfg.bytes_scale = 0.01;
            let s = build_iteration(&w, &cfg);
            s.validate().unwrap_or_else(|e| panic!("{}: {e}", w.name));
            assert!(s.num_ops() > 0, "{}", w.name);
        }
    }

    /// End-to-end: simulate a scaled GPT-3 iteration on a small HxMesh and
    /// a torus; both must complete, and the iteration must take at least
    /// the compute time.
    #[test]
    fn scaled_gpt3_runs_on_simulator() {
        // Both backends must replay the full DNN-iteration schedule
        // (sends, recvs, and compute ops with dependencies).
        let w = DnnWorkload::gpt3();
        let mut cfg = ScaledConfig::fit(&w, 16);
        cfg.bytes_scale = 0.001;
        let sched = build_iteration(&w, &cfg);
        let net = hxnet::hammingmesh::HxMeshParams::square(2, 2).build();
        for kind in hxsim::EngineKind::all() {
            let mut app = hxcollect::simapp::ScheduleApp::new(&sched);
            let stats = hxsim::simulate(&net, SimConfig::default(), kind, &mut app);
            assert!(stats.clean(), "{kind}: {stats:?}");
            assert!(app.is_done(), "{kind}");
            assert!(stats.finish_ps >= w.compute_ps / cfg.microbatches as u64);
        }
    }

    #[test]
    fn resnet_schedule_is_pure_data_parallel() {
        let w = DnnWorkload::resnet152();
        let mut cfg = ScaledConfig::fit(&w, 8);
        cfg.bytes_scale = 0.001;
        let s = build_iteration(&w, &cfg);
        // Every rank participates in the gradient rings: sends > 0.
        for (r, ops) in s.ops.iter().enumerate() {
            assert!(ops.len() > 1, "rank {r} idle");
        }
    }
}
