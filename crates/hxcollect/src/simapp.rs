//! Replay a [`Schedule`] on either simulation engine, packet or flow.
//!
//! Binding ([`ScheduleApp::with_mapping`]) flattens the schedule once into
//! arrays indexed by an op id, and the [`Application`] callbacks then only
//! index those arrays:
//!
//! * **Time-major op ids.** Op `i` of schedule rank `r` is
//!   `off[i] + slot[r]`. `slot` orders the ranks by op count, longest
//!   first, ties broken by rank, so the ranks that have an op `i` are a
//!   prefix of that order; `off[i]` counts the ops of all earlier steps
//!   (the ops with a smaller index). The ops of one step sit together, and
//!   inside a rank the ids rise with the op index. Both tables are
//!   O(ranks + steps); there is no per-op id table. Every send and compute
//!   carries its id as the simulator tag.
//! * **Action table.** `action[g]` is what issuing op `g` does. A send
//!   holds its schedule source and destination ranks, its bytes and the
//!   id of the recv that names it; a compute holds its schedule rank and
//!   duration; a recv is passive and completes when its message lands.
//! * **CSR dependents.** The ops that wait on `g` are
//!   `dependents[dep_start[g]..dep_start[g + 1]]`, in ascending op index,
//!   and `indeg[g]` counts the dependencies of `g` still outstanding.
//!
//! **Why time-major.** The ranks of a collective advance in step, so the
//! callbacks of one stretch of simulated time complete ops of a few
//! neighbouring steps on every rank. Time-major ids keep those ops, their
//! in-degrees and their dependent lists in a few contiguous stretches of
//! the per-op arrays. Numbering rank by rank (a per-rank prefix sum plus
//! the op index) would scatter them over one spot per rank, a rank's op
//! count apart: on the 256-rank disjoint rings, 256 regions about 4k ops
//! apart, so nearly every callback's in-degree and dependent loads would
//! miss the cache.
//!
//! **Pairing is read, not matched.** Every recv names the send it takes,
//! so binding writes the recv's id into that send's action and replay
//! needs no matching at all. A schedule that [`Schedule::validate`]
//! rejects, an unpaired send or recv among its errors, is rejected at
//! binding. `start` issues the ready ops rank by rank in op order, and
//! each completion issues its newly ready dependents in CSR order.
//! Neither order depends on the ids, so the command sequence the engines
//! see depends only on the schedule.
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
use std::cmp::Reverse;

/// What issuing one op does (see the module doc).
#[derive(Clone, Copy, Debug)]
enum Action {
    /// `src` and `dst` are schedule ranks.
    Send {
        src: u32,
        dst: u32,
        /// Op id of the recv that names this send.
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

/// Time-major op ids (see the module doc).
struct OpIds {
    /// Position of each schedule rank in the order by op count, longest
    /// first, ties broken by rank.
    slot: Vec<u32>,
    /// `off[i]` counts the ops of steps `0..i`; the last entry is the
    /// schedule's op count.
    off: Vec<u32>,
}

impl OpIds {
    fn new(sched: &Schedule) -> Self {
        let len = |r: u32| sched.ops[r as usize].len();
        let mut order: Vec<u32> = (0..sched.nranks as u32).collect();
        order.sort_unstable_by_key(|&r| (Reverse(len(r)), r));
        let mut slot = vec![0; order.len()];
        for (s, &r) in order.iter().enumerate() {
            slot[r as usize] = s as u32;
        }
        let steps = order.first().map_or(0, |&r| len(r));
        let mut off = Vec::with_capacity(steps + 1);
        off.push(0);
        // The ranks with an op at step `i`: a prefix of `order` that
        // shrinks as `i` grows (the longest rank always has one).
        let mut running = order.len();
        for i in 0..steps {
            while len(order[running - 1]) <= i {
                running -= 1;
            }
            off.push(off[i] + running as u32);
        }
        Self { slot, off }
    }

    /// Number of ops.
    fn len(&self) -> usize {
        self.off[self.off.len() - 1] as usize
    }

    /// Id of op `i` of schedule rank `r`.
    fn id(&self, r: usize, i: usize) -> u32 {
        self.off[i] + self.slot[r]
    }

    /// Ids of schedule rank `r`'s ops, in op order.
    fn of_rank(&self, r: usize) -> impl Iterator<Item = u32> + '_ {
        let s = self.slot[r];
        self.off
            .windows(2)
            .take_while(move |w| w[1] - w[0] > s)
            .map(move |w| w[0] + s)
    }
}

/// A schedule bound for replay and placed on simulator ranks by its
/// mapping, executable by either engine ([`hxsim::simulate`]).
pub struct ScheduleApp {
    ids: OpIds,
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
    /// state are left for [`Self::rebind`] to set. Every array is sized
    /// from counts before it is filled.
    fn bind(sched: &Schedule) -> Self {
        // hxlint: allow(P001) constructor contract: binding an invalid schedule is a caller bug, fail loudly
        sched.validate().expect("invalid schedule");
        let ids = OpIds::new(sched);
        let (nranks, n) = (sched.nranks, ids.len());

        // Write every op's action and count its dependents, then
        // prefix-sum the counts.
        let mut action = vec![Action::Recv; n];
        let mut dep_start = vec![0u32; n + 1];
        let mut edges = 0usize;
        for (r, ops) in sched.ops.iter().enumerate() {
            for (i, op) in ops.iter().enumerate() {
                edges += op.deps.len();
                for &d in &op.deps {
                    dep_start[ids.id(r, d as usize) as usize + 1] += 1;
                }
                action[ids.id(r, i) as usize] = match op.kind {
                    OpKind::Send { to, payload } => Action::Send {
                        src: r as u32,
                        dst: to,
                        recv: u32::MAX,
                        bytes: payload.bytes(sched.elem_bytes).max(1),
                    },
                    OpKind::Recv { .. } => Action::Recv,
                    OpKind::Compute { ps } => Action::Compute { rank: r as u32, ps },
                };
            }
        }
        assert!(
            n < u32::MAX as usize && edges <= u32::MAX as usize,
            "{n} ops with {edges} dependencies overflow u32 op ids"
        );
        for k in 1..dep_start.len() {
            dep_start[k] += dep_start[k - 1];
        }

        // Fill the dependent lists in rank-major op order, so each stays
        // in ascending op index, and record each recv on the send it
        // names.
        let mut cursor = dep_start.clone();
        let mut dependents = vec![0u32; edges];
        for (r, ops) in sched.ops.iter().enumerate() {
            for (i, op) in ops.iter().enumerate() {
                let g = ids.id(r, i);
                for &d in &op.deps {
                    let c = &mut cursor[ids.id(r, d as usize) as usize];
                    dependents[*c as usize] = g;
                    *c += 1;
                }
                if let OpKind::Recv { from, send, .. } = op.kind {
                    let tx = ids.id(from as usize, send as usize) as usize;
                    if let Action::Send { recv, .. } = &mut action[tx] {
                        *recv = g;
                    }
                }
            }
        }

        Self {
            ids,
            action,
            mapping: vec![0; nranks],
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
            // Passive: completes when its message arrives.
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
        // Rank by rank in op order (see the module doc).
        for r in 0..self.mapping.len() {
            for g in self.ids.of_rank(r) {
                if self.indeg[g as usize] == 0 {
                    self.issue(ctx, g);
                }
            }
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx, info: MsgInfo) {
        // The tag is the send's op id; its action names its recv.
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
        s.send(0, 5, BYTES, vec![]);
        ScheduleApp::new(&s);
    }

    /// Binding rejects a send that no recv names.
    #[test]
    #[should_panic(expected = "rank 0 op 0: send never received")]
    fn send_without_recv_is_rejected() {
        let mut s = Schedule::new(2, 4);
        s.send(0, 1, BYTES, vec![]);
        s.compute(1, 10, vec![]);
        ScheduleApp::new(&s);
    }

    /// Two sends from rank 0 to rank 1 and one recv: binding rejects the
    /// send that the recv does not name.
    #[test]
    #[should_panic(expected = "rank 0 op 1: send never received")]
    fn more_sends_than_recvs_is_rejected() {
        let mut s = Schedule::new(2, 4);
        let tx = s.send(0, 1, BYTES, vec![]);
        s.send(0, 1, BYTES, vec![]);
        s.recv(1, 0, tx, RecvAction::Discard, vec![]);
        ScheduleApp::new(&s);
    }

    /// Repeated `(src, dst)` keys: the k-th send from rank 0 to rank 1 is
    /// bound to the k-th recv, which names it, whatever else sits between
    /// them.
    #[test]
    fn repeated_keys_pair_kth_send_with_kth_recv() {
        let mut s = Schedule::new(3, 4);
        let first = [(); 2].map(|_| s.send(0, 1, BYTES, vec![]));
        let other = s.send(0, 2, BYTES, vec![]);
        let sends = [first[0], first[1], s.send(0, 1, BYTES, vec![])];
        s.recv(2, 0, other, RecvAction::Discard, vec![]);
        s.compute(1, 10, vec![]);
        let recvs = sends.map(|tx| s.recv(1, 0, tx, RecvAction::Discard, vec![]));
        let app = ScheduleApp::new(&s);
        let got = sends.map(|op| bound_recv(&app, 0, op));
        assert_eq!(got, recvs.map(|op| app.ids.id(1, op as usize)));
    }

    /// One `(src, dst)` group whose recvs name its sends in a different
    /// order from the sends' program order: each send is bound to the recv
    /// that names it. Binding visits the sending rank first here.
    #[test]
    fn group_with_unordered_tags_pairs_by_tag_in_program_order() {
        let mut s = Schedule::new(2, 4);
        let sends = [(); 4].map(|_| s.send(0, 1, BYTES, vec![]));
        let order = [3, 0, 1, 2];
        let recvs = order.map(|k| s.recv(1, 0, sends[k], RecvAction::Discard, vec![]));
        let app = ScheduleApp::new(&s);
        let got = order.map(|k| bound_recv(&app, 0, sends[k]));
        assert_eq!(got, recvs.map(|op| app.ids.id(1, op as usize)));
    }

    /// Each send's action holds the op id of the recv that names it, also
    /// when binding visits the receiving rank before the sending one.
    #[test]
    fn each_send_is_bound_to_the_recv_naming_it() {
        let mut s = Schedule::new(2, 4);
        let sends = [(); 4].map(|_| s.send(1, 0, BYTES, vec![]));
        s.compute(0, 10, vec![]);
        let order = [2, 0, 3, 1];
        let recvs = order.map(|k| s.recv(0, 1, sends[k], RecvAction::Discard, vec![]));
        let app = ScheduleApp::new(&s);
        let got = order.map(|k| bound_recv(&app, 1, sends[k]));
        assert_eq!(got, recvs.map(|op| app.ids.id(0, op as usize)));
    }

    /// The op id of the recv that op `op` of schedule rank `src`, a send,
    /// is bound to.
    fn bound_recv(app: &ScheduleApp, src: usize, op: u32) -> u32 {
        match app.action[app.ids.id(src, op as usize) as usize] {
            Action::Send { recv, .. } => recv,
            a => panic!("rank {src} op {op} is {a:?}"),
        }
    }

    /// Ranks of different lengths, ties included: the ids are a bijection
    /// onto `0..n`, rise with the op index inside a rank, and each step's
    /// ops take consecutive ids, after every earlier step's; the ranks go
    /// longest first, ties broken by rank.
    #[test]
    fn op_ids_are_time_major() {
        let lens = [2usize, 5, 0, 3, 5, 1, 3];
        let mut s = Schedule::new(lens.len(), 4);
        for (r, &len) in lens.iter().enumerate() {
            for i in 0..len as u32 {
                s.compute(r, 10, i.checked_sub(1).into_iter().collect());
            }
        }
        let ids = ScheduleApp::new(&s).ids;
        assert_eq!(ids.slot, [4, 0, 6, 2, 1, 5, 3]);
        let n = s.num_ops();
        assert_eq!(ids.len(), n);
        let mut seen = vec![false; n];
        for (r, &len) in lens.iter().enumerate() {
            let of_rank: Vec<u32> = (0..len).map(|i| ids.id(r, i)).collect();
            assert!(
                of_rank.windows(2).all(|w| w[0] < w[1]),
                "rank {r}: {of_rank:?}"
            );
            assert_eq!(ids.of_rank(r).collect::<Vec<_>>(), of_rank);
            for g in of_rank {
                assert!(
                    !std::mem::replace(&mut seen[g as usize], true),
                    "id {g} twice"
                );
            }
        }
        assert!(seen.iter().all(|&s| s));
        let mut next = 0;
        for i in 0..lens.into_iter().max().unwrap_or(0) {
            let mut step: Vec<u32> = (0..lens.len())
                .filter(|&r| lens[r] > i)
                .map(|r| ids.id(r, i))
                .collect();
            step.sort_unstable();
            let end = next + step.len() as u32;
            assert_eq!(step, (next..end).collect::<Vec<_>>(), "step {i}");
            next = end;
        }
    }
}
