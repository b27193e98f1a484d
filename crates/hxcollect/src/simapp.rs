//! Replay a [`Schedule`] inside the packet simulator.
//!
//! Sends and receives are matched *statically* when the app is built (by
//! `(src, dst, tag)` in program order), so the simulator tag can directly
//! encode the receiver's op index — no runtime matching, and schedules with
//! unmatched operations are rejected up front.

use crate::schedule::{OpKind, Schedule};
use hxsim::{Application, Ctx, MsgInfo};
use std::collections::BTreeMap;

/// A schedule bound to simulator ranks, executable by [`hxsim::Engine`].
pub struct ScheduleApp<'s> {
    sched: &'s Schedule,
    /// Schedule rank -> simulator rank (job placement).
    mapping: Vec<u32>,
    /// Remaining dependency count per (rank, op).
    indeg: Vec<Vec<u32>>,
    /// Reverse dependency lists per (rank, op).
    dependents: Vec<Vec<Vec<u32>>>,
    /// For each send op: the matched receiver (schedule rank, op index).
    send_match: Vec<BTreeMap<u32, (u32, u32)>>,
    remaining: usize,
    /// Completion time of the final op (ps).
    pub finish_ps: u64,
}

impl<'s> ScheduleApp<'s> {
    /// Bind `sched` with the identity placement (schedule rank r = sim rank r).
    pub fn new(sched: &'s Schedule) -> Self {
        Self::with_mapping(sched, (0..sched.nranks as u32).collect())
    }

    /// Bind `sched` with an explicit placement: schedule rank `r` runs on
    /// simulator rank `mapping[r]`.
    pub fn with_mapping(sched: &'s Schedule, mapping: Vec<u32>) -> Self {
        assert_eq!(mapping.len(), sched.nranks);
        // hxlint: allow(P001) constructor contract: binding an invalid schedule is a caller bug, fail loudly
        sched.validate().expect("invalid schedule");
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

        // Static send/recv matching by (src, dst, tag) in program order.
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
                    let q = pending_recvs
                        .get_mut(&(r as u32, to, tag))
                        // hxlint: allow(P001) static matching rejects malformed schedules loudly by design
                        .unwrap_or_else(|| panic!("send rank {r} op {i}: no matching recv"));
                    assert!(!q.is_empty(), "send rank {r} op {i}: recv count mismatch");
                    let m = q.remove(0);
                    send_match[r].insert(i as u32, m);
                }
            }
        }
        for (k, q) in &pending_recvs {
            assert!(q.is_empty(), "unmatched recv {k:?}");
        }

        let remaining = sched.num_ops();
        Self {
            sched,
            mapping,
            indeg,
            dependents,
            send_match,
            remaining,
            finish_ps: 0,
        }
    }

    pub fn is_done(&self) -> bool {
        self.remaining == 0
    }

    /// Encode (schedule rank, op idx) into a simulator tag.
    fn enc(rank: u32, op: u32) -> u64 {
        ((rank as u64) << 32) | op as u64
    }

    fn dec(tag: u64) -> (u32, u32) {
        ((tag >> 32) as u32, tag as u32)
    }

    /// Issue an op whose dependencies are all satisfied.
    fn issue(&mut self, ctx: &mut Ctx, rank: u32, op_idx: u32) {
        let op = &self.sched.ops[rank as usize][op_idx as usize];
        match op.kind {
            OpKind::Send { to, payload, .. } => {
                let (mrank, mop) = self.send_match[rank as usize][&op_idx];
                debug_assert_eq!(mrank, to);
                let _ = mop;
                let bytes = payload.bytes(self.sched.elem_bytes).max(1);
                // The tag carries the sender's (schedule rank, op index);
                // both completion callbacks decode it and the receiver op is
                // found through the static match table.
                ctx.send(
                    self.mapping[rank as usize],
                    self.mapping[to as usize],
                    bytes,
                    Self::enc(rank, op_idx),
                );
            }
            OpKind::Recv { .. } => {
                // Passive: completes when the matched message arrives.
            }
            OpKind::Compute { ps } => {
                ctx.compute(self.mapping[rank as usize], ps, Self::enc(rank, op_idx));
            }
        }
    }

    /// Mark op complete and cascade to dependents.
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

impl Application for ScheduleApp<'_> {
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
        // The tag encodes the sender's (schedule rank, op); resolve the
        // receiver op through the static match.
        let (srank, sop) = Self::dec(info.tag);
        let (rrank, rop) = self.send_match[srank as usize][&sop];
        debug_assert_eq!(self.mapping[rrank as usize], info.dst_rank);
        self.complete(ctx, rrank, rop);
    }

    fn on_send_complete(&mut self, ctx: &mut Ctx, info: MsgInfo) {
        let (srank, sop) = Self::dec(info.tag);
        debug_assert_eq!(self.mapping[srank as usize], info.src_rank);
        self.complete(ctx, srank, sop);
    }

    fn on_compute_done(&mut self, ctx: &mut Ctx, rank: u32, tag: u64) {
        let (srank, sop) = Self::dec(tag);
        debug_assert_eq!(self.mapping[srank as usize], rank);
        self.complete(ctx, srank, sop);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allreduce::ring_allreduce;
    use hxnet::hammingmesh::HxMeshParams;
    use hxsim::{simulate, EngineKind, SimConfig};

    /// A schedule replay must complete on both simulation backends — the
    /// ScheduleApp surface is engine-agnostic by construction.
    #[test]
    fn schedule_replays_on_both_engines() {
        let net = HxMeshParams::square(2, 2).build();
        let sched = ring_allreduce(net.num_ranks(), 64 * net.num_ranks());
        for kind in EngineKind::all() {
            let mut app = ScheduleApp::new(&sched);
            let stats = simulate(&net, SimConfig::default(), kind, &mut app);
            assert!(stats.clean(), "{kind}: {stats:?}");
            assert!(app.is_done(), "{kind}: schedule incomplete");
            assert!(app.finish_ps > 0);
        }
    }

    /// Schedule replay under fault injection: the routes the replayed
    /// collective rides are re-selected around a failed line cable by the
    /// failure-aware routers, on both backends, and every op completes.
    #[test]
    fn schedule_replays_around_failed_cable_on_both_engines() {
        use hxnet::PortId;
        let net = HxMeshParams::square(2, 2).build();
        let sched = ring_allreduce(net.num_ranks(), 64 * net.num_ranks());
        for kind in EngineKind::all() {
            let mut net = HxMeshParams::square(2, 2).build();
            // Endpoint 0's East port is a row-line cable on a 2x2 board
            // corner; killing it forces the ring's wrap traffic West.
            let e0 = net.endpoints[0];
            let cable = (0..net.topo.num_ports(e0))
                .map(|p| PortId(p as u16))
                .find(|&p| net.topo.kind(net.topo.peer(e0, p).node).is_switch())
                .expect("endpoint line cable");
            net.topo.fail_link(e0, cable);
            let mut app = ScheduleApp::new(&sched);
            let stats = simulate(&net, SimConfig::default(), kind, &mut app);
            assert!(stats.clean(), "{kind}: {stats:?}");
            assert!(app.is_done(), "{kind}: schedule incomplete under faults");
        }
    }
}
