//! Replay a [`Schedule`] inside the simulators.
//!
//! Binding ([`ScheduleApp::with_mapping`]) flattens the schedule once into
//! arrays indexed by a global op id, and the [`Application`] callbacks then
//! only index those arrays:
//!
//! * **Global op ids.** Op `i` of schedule rank `r` is `g = base[r] + i`,
//!   where `base` is the prefix sum of the per-rank op counts. Every send
//!   and compute carries its `g` as the simulator tag.
//! * **Action table.** `action[g]` is what issuing op `g` does. A send
//!   holds its schedule source and destination ranks, its bytes and the
//!   `g` of the recv it is matched to; a compute holds its schedule rank
//!   and duration; a recv is passive and completes when its message lands.
//! * **CSR dependents.** The ops that wait on `g` are
//!   `dependents[dep_start[g]..dep_start[g + 1]]`, in ascending op index,
//!   and `indeg[g]` counts the dependencies of `g` still outstanding.
//!
//! Sends and receives are matched *statically*, by `(src, dst, tag)` in
//! program order: the k-th send from `src` to `dst` with tag `t` pairs with
//! the k-th recv on `dst` from `src` with tag `t`. A schedule with an
//! unpaired send or recv is rejected at binding, so replay needs no
//! runtime matching. `start` issues the ready ops in `g` order and each
//! completion issues its newly ready dependents in CSR order, so the
//! command sequence the engines see depends only on the schedule.
//!
//! **Placement is applied at issue.** The bound arrays hold schedule
//! ranks; the app keeps the placement (`mapping[r]` is the simulator rank
//! of schedule rank `r`) and maps a send's endpoints or a compute's rank
//! when it issues the op. So one bound app replays under any number of
//! placements: [`ScheduleApp::rebind`] installs a new mapping (same
//! length, injective, checked as at binding) and resets the replay state,
//! recomputing every in-degree from the CSR dependents and restoring the
//! op count and `finish_ps`, whether or not the previous run finished.
//! A rebound app issues exactly the commands a freshly bound one would.
//! The reset keeps no second per-op array: the largest schedules have
//! about a million ops.

use crate::schedule::{OpKind, Schedule};
use hxsim::{Application, Ctx, MsgInfo};

/// What issuing one op does (see the module doc).
#[derive(Clone, Copy, Debug)]
enum Action {
    /// `src` and `dst` are schedule ranks.
    Send {
        src: u32,
        dst: u32,
        /// Global op id of the matched recv.
        recv: u32,
        bytes: u64,
    },
    Recv,
    /// `rank` is a schedule rank.
    Compute {
        rank: u32,
        ps: u64,
    },
}

/// A schedule bound for replay and placed on simulator ranks by its
/// mapping, executable by [`hxsim::Engine`].
pub struct ScheduleApp {
    action: Vec<Action>,
    /// Simulator rank of each schedule rank, applied at issue.
    mapping: Vec<u32>,
    /// Remaining dependency count per op.
    indeg: Vec<u32>,
    /// CSR offsets into `dependents`, one per op plus one.
    dep_start: Vec<u32>,
    /// Ops released by each op, in ascending op index.
    dependents: Vec<u32>,
    remaining: usize,
    /// Completion time of the final op (ps).
    pub finish_ps: u64,
}

impl ScheduleApp {
    /// Bind `sched` with the identity placement (schedule rank r = sim rank r).
    pub fn new(sched: &Schedule) -> Self {
        Self::with_mapping(sched, (0..sched.nranks as u32).collect())
    }

    /// Bind `sched` with an explicit placement: schedule rank `r` runs on
    /// simulator rank `mapping[r]`.
    pub fn with_mapping(sched: &Schedule, mapping: Vec<u32>) -> Self {
        let mut app = Self::bind(sched);
        app.rebind(mapping);
        app
    }

    /// Replay the bound schedule again under `mapping`: check it as
    /// binding does, install it, and reset the replay state (see the
    /// module doc). The previous run may have finished or been cut short.
    pub fn rebind(&mut self, mapping: Vec<u32>) {
        assert_eq!(
            mapping.len(),
            self.mapping.len(),
            "mapping must place every schedule rank"
        );
        let mut placed = mapping.clone();
        placed.sort_unstable();
        assert!(
            placed.windows(2).all(|w| w[0] != w[1]),
            "mapping must be injective"
        );
        self.mapping = mapping;
        self.indeg.fill(0);
        for &d in &self.dependents {
            self.indeg[d as usize] += 1;
        }
        self.remaining = self.action.len();
        self.finish_ps = 0;
    }

    /// Flatten `sched` into the bound arrays. The mapping and the replay
    /// state are left for [`Self::rebind`] to set.
    fn bind(sched: &Schedule) -> Self {
        // hxlint: allow(P001) constructor contract: binding an invalid schedule is a caller bug, fail loudly
        sched.validate().expect("invalid schedule");

        let mut base = Vec::with_capacity(sched.nranks);
        let mut n = 0usize;
        for ops in &sched.ops {
            base.push(n);
            n += ops.len();
        }

        // Dependents in CSR form: count per op, prefix-sum, then fill in
        // op order so each list stays ascending.
        let mut dep_start = vec![0u32; n + 1];
        let mut edges = 0usize;
        for (r, ops) in sched.ops.iter().enumerate() {
            for op in ops {
                edges += op.deps.len();
                for &d in &op.deps {
                    dep_start[base[r] + d as usize + 1] += 1;
                }
            }
        }
        assert!(
            n < u32::MAX as usize && edges <= u32::MAX as usize,
            "{n} ops with {edges} dependencies overflow u32 op ids"
        );
        for g in 0..n {
            dep_start[g + 1] += dep_start[g];
        }
        let mut cursor = dep_start.clone();
        let mut dependents = vec![0u32; edges];
        // Sends keyed `(src, dst, tag, op)`, recvs `(from, rank, tag, op)`:
        // once sorted, each key's group lists its ops in program order.
        let mut sends: Vec<(u32, u32, u64, u32)> = Vec::new();
        let mut recvs: Vec<(u32, u32, u64, u32)> = Vec::new();
        let mut action = Vec::with_capacity(n);
        for (r, ops) in sched.ops.iter().enumerate() {
            for (i, op) in ops.iter().enumerate() {
                let g = (base[r] + i) as u32;
                for &d in &op.deps {
                    let c = &mut cursor[base[r] + d as usize];
                    dependents[*c as usize] = g;
                    *c += 1;
                }
                action.push(match op.kind {
                    OpKind::Send { to, tag, payload } => {
                        sends.push((r as u32, to, tag, i as u32));
                        Action::Send {
                            src: r as u32,
                            dst: to,
                            recv: u32::MAX,
                            bytes: payload.bytes(sched.elem_bytes).max(1),
                        }
                    }
                    OpKind::Recv { from, tag, .. } => {
                        recvs.push((from, r as u32, tag, i as u32));
                        Action::Recv
                    }
                    OpKind::Compute { ps } => Action::Compute { rank: r as u32, ps },
                });
            }
        }

        // Static matching: in a well-formed schedule the k-th sorted send
        // and the k-th sorted recv share a key, which pairs each key's
        // sends and recvs in program order. The first pair that differs
        // names the op left unpaired.
        sends.sort_unstable();
        recvs.sort_unstable();
        let key = |e: &(u32, u32, u64, u32)| (e.0, e.1, e.2);
        for k in 0..sends.len().max(recvs.len()) {
            match (sends.get(k), recvs.get(k)) {
                (Some(s), Some(rv)) if key(s) == key(rv) => {
                    if let Action::Send { recv, .. } =
                        &mut action[base[s.0 as usize] + s.3 as usize]
                    {
                        *recv = (base[rv.1 as usize] + rv.3 as usize) as u32;
                    }
                }
                (Some(s), rv) if rv.is_none_or(|rv| key(s) < key(rv)) => {
                    let why = if k > 0 && key(&sends[k - 1]) == key(s) {
                        "recv count mismatch"
                    } else {
                        "no matching recv"
                    };
                    // hxlint: allow(P001) static matching rejects malformed schedules loudly by design
                    panic!("send rank {} op {}, key {:?}: {why}", s.0, s.3, key(s));
                }
                _ => {
                    let rv = &recvs[k];
                    // hxlint: allow(P001) static matching rejects malformed schedules loudly by design
                    panic!(
                        "recv rank {} op {}, key {:?}: unmatched recv",
                        rv.1,
                        rv.3,
                        key(rv)
                    );
                }
            }
        }

        Self {
            action,
            mapping: vec![0; sched.nranks],
            indeg: vec![0; n],
            dep_start,
            dependents,
            remaining: 0,
            finish_ps: 0,
        }
    }

    pub fn is_done(&self) -> bool {
        self.remaining == 0
    }

    /// Issue op `g`, whose dependencies are all satisfied, on the
    /// simulator ranks the mapping places it.
    fn issue(&self, ctx: &mut Ctx, g: u32) {
        let at = |r: u32| self.mapping[r as usize];
        match self.action[g as usize] {
            Action::Send {
                src, dst, bytes, ..
            } => ctx.send(at(src), at(dst), bytes, g as u64),
            // Passive: completes when the matched message arrives.
            Action::Recv => {}
            Action::Compute { rank, ps } => ctx.compute(at(rank), ps, g as u64),
        }
    }

    /// Mark op `g` complete and issue the dependents it makes ready.
    fn complete(&mut self, ctx: &mut Ctx, g: u32) {
        self.remaining -= 1;
        self.finish_ps = self.finish_ps.max(ctx.now());
        let g = g as usize;
        for k in self.dep_start[g] as usize..self.dep_start[g + 1] as usize {
            let d = self.dependents[k];
            let slot = &mut self.indeg[d as usize];
            *slot -= 1;
            if *slot == 0 {
                self.issue(ctx, d);
            }
        }
    }
}

impl Application for ScheduleApp {
    fn start(&mut self, ctx: &mut Ctx) {
        for g in 0..self.action.len() as u32 {
            if self.indeg[g as usize] == 0 {
                self.issue(ctx, g);
            }
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx, info: MsgInfo) {
        // The tag is the send's op id; its action names the matched recv.
        let Action::Send { dst, recv, .. } = self.action[info.tag as usize] else {
            unreachable!("message tags are send op ids");
        };
        debug_assert_eq!(self.mapping[dst as usize], info.dst_rank);
        self.complete(ctx, recv);
    }

    fn on_send_complete(&mut self, ctx: &mut Ctx, info: MsgInfo) {
        debug_assert!(
            matches!(self.action[info.tag as usize], Action::Send { src, .. } if self.mapping[src as usize] == info.src_rank)
        );
        self.complete(ctx, info.tag as u32);
    }

    fn on_compute_done(&mut self, ctx: &mut Ctx, rank: u32, tag: u64) {
        debug_assert!(
            matches!(self.action[tag as usize], Action::Compute { rank: r, .. } if self.mapping[r as usize] == rank)
        );
        self.complete(ctx, tag as u32);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allreduce::ring_allreduce;
    use crate::schedule::{Payload, RecvAction};
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

    const BYTES: Payload = Payload::Opaque { bytes: 64 };

    #[test]
    #[should_panic(expected = "send rank 0 op 0, key (0, 1, 7): no matching recv")]
    fn send_without_recv_is_rejected() {
        let mut s = Schedule::new(2, 4);
        s.send(0, 1, 7, BYTES, vec![]);
        s.recv(1, 0, 8, RecvAction::Discard, vec![]);
        ScheduleApp::new(&s);
    }

    #[test]
    #[should_panic(expected = "recv rank 1 op 1, key (0, 1, 9): unmatched recv")]
    fn recv_without_send_is_rejected() {
        let mut s = Schedule::new(2, 4);
        s.send(0, 1, 7, BYTES, vec![]);
        s.recv(1, 0, 7, RecvAction::Discard, vec![]);
        s.recv(1, 0, 9, RecvAction::Discard, vec![]);
        ScheduleApp::new(&s);
    }

    #[test]
    #[should_panic(expected = "send rank 0 op 1, key (0, 1, 7): recv count mismatch")]
    fn more_sends_than_recvs_is_rejected() {
        let mut s = Schedule::new(2, 4);
        s.send(0, 1, 7, BYTES, vec![]);
        s.send(0, 1, 7, BYTES, vec![]);
        s.recv(1, 0, 7, RecvAction::Discard, vec![]);
        ScheduleApp::new(&s);
    }

    #[test]
    #[should_panic(expected = "mapping must be injective")]
    fn non_injective_mapping_is_rejected() {
        ScheduleApp::with_mapping(&ring_allreduce(4, 16), vec![3, 1, 0, 1]);
    }

    #[test]
    #[should_panic(expected = "mapping must place every schedule rank")]
    fn rebind_with_wrong_length_mapping_is_rejected() {
        ScheduleApp::new(&ring_allreduce(4, 16)).rebind(vec![0, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "mapping must be injective")]
    fn rebind_with_non_injective_mapping_is_rejected() {
        ScheduleApp::new(&ring_allreduce(4, 16)).rebind(vec![2, 2, 0, 1]);
    }

    #[test]
    #[should_panic(expected = "invalid schedule")]
    fn invalid_schedule_is_rejected() {
        let mut s = Schedule::new(2, 4);
        s.send(0, 5, 7, BYTES, vec![]);
        ScheduleApp::new(&s);
    }

    /// Repeated `(src, dst, tag)` keys pair the k-th send with the k-th
    /// recv, each in program order, whatever else sits between them.
    #[test]
    fn repeated_keys_pair_kth_send_with_kth_recv() {
        let mut s = Schedule::new(2, 4);
        let sends = [
            s.send(0, 1, 5, BYTES, vec![]),
            s.send(0, 1, 5, BYTES, vec![]),
        ];
        s.send(0, 1, 6, BYTES, vec![]);
        let third = s.send(0, 1, 5, BYTES, vec![]);
        s.compute(1, 10, vec![]);
        let first_recv = s.recv(1, 0, 5, RecvAction::Discard, vec![]);
        s.recv(1, 0, 6, RecvAction::Discard, vec![]);
        let recvs = [
            first_recv,
            s.recv(1, 0, 5, RecvAction::Discard, vec![]),
            s.recv(1, 0, 5, RecvAction::Discard, vec![]),
        ];
        let app = ScheduleApp::new(&s);
        let rank1 = s.ops[0].len() as u32;
        let matched = |op: u32| match app.action[op as usize] {
            Action::Send { recv, .. } => recv - rank1,
            a => panic!("op {op} is {a:?}"),
        };
        let got = [matched(sends[0]), matched(sends[1]), matched(third)];
        assert_eq!(got, recvs);
    }
}
