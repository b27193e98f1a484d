//! Dependency-graph communication schedules.
//!
//! A [`Schedule`] is a per-rank list of operations with intra-rank
//! dependencies (indices into the same rank's list). Every receive names
//! the send it takes: the index of that send in its source rank's list.
//! So a generator creates a message's send before its recv, and there is
//! nothing left to match.

/// What a message carries, in units of the schedule's element space.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Payload {
    /// Elements `[off, off+len)` of the sender's working buffer.
    Segment { off: u32, len: u32 },
    /// Raw bytes with no data semantics (pipeline activations etc.).
    Opaque { bytes: u64 },
}

impl Payload {
    pub fn bytes(&self, elem_bytes: u64) -> u64 {
        match *self {
            Payload::Segment { len, .. } => len as u64 * elem_bytes,
            Payload::Opaque { bytes } => bytes,
        }
    }
}

/// What a receiver does with an incoming segment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecvAction {
    /// Element-wise add into the local buffer at the segment offset.
    Reduce,
    /// Overwrite the local buffer at the segment offset.
    Copy,
    /// Ignore the data (opaque traffic).
    Discard,
}

#[derive(Clone, Copy, Debug)]
pub enum OpKind {
    Send {
        to: u32,
        payload: Payload,
    },
    Recv {
        from: u32,
        /// Index of the send it takes in rank `from`'s op list.
        send: u32,
        action: RecvAction,
    },
    /// Local computation lasting `ps` picoseconds (no-op logically).
    Compute {
        ps: u64,
    },
}

/// One operation with its intra-rank dependencies.
#[derive(Clone, Debug)]
pub struct Op {
    pub kind: OpKind,
    /// Indices of ops (same rank) that must complete before this one runs.
    pub deps: Vec<u32>,
}

/// A complete multi-rank communication schedule.
#[derive(Clone, Debug, Default)]
pub struct Schedule {
    /// Number of participating ranks.
    pub nranks: usize,
    /// Logical vector length per rank (elements).
    pub data_len: usize,
    /// Bytes per element (4 for FP32).
    pub elem_bytes: u64,
    /// `ops[rank]` is that rank's operation list.
    pub ops: Vec<Vec<Op>>,
}

impl Schedule {
    pub fn new(nranks: usize, data_len: usize) -> Self {
        Self {
            nranks,
            data_len,
            elem_bytes: crate::ELEM_BYTES,
            ops: vec![Vec::new(); nranks],
        }
    }

    /// Append an op for `rank`, returning its index for use in `deps`.
    pub fn push(&mut self, rank: usize, kind: OpKind, deps: Vec<u32>) -> u32 {
        let idx = self.ops[rank].len() as u32;
        self.ops[rank].push(Op { kind, deps });
        idx
    }

    pub fn send(&mut self, rank: usize, to: u32, payload: Payload, deps: Vec<u32>) -> u32 {
        self.push(rank, OpKind::Send { to, payload }, deps)
    }

    /// Append a recv for `rank` of the message sent by op `send` of rank
    /// `from`.
    pub fn recv(
        &mut self,
        rank: usize,
        from: u32,
        send: u32,
        action: RecvAction,
        deps: Vec<u32>,
    ) -> u32 {
        self.push(rank, OpKind::Recv { from, send, action }, deps)
    }

    pub fn compute(&mut self, rank: usize, ps: u64, deps: Vec<u32>) -> u32 {
        self.push(rank, OpKind::Compute { ps }, deps)
    }

    /// One round of a shift over `order`: position `i` sends to position
    /// `i + shift` and receives what position `i - shift` sent (positions
    /// mod `order.len()`). `send(i)` gives position `i`'s payload and
    /// dependencies, `recv(i)` its action and dependencies. All sends are
    /// created before the recvs that name them, so each rank gets its send,
    /// then its recv. Returns each position's recv.
    pub fn shift_round(
        &mut self,
        order: &[u32],
        shift: usize,
        mut send: impl FnMut(usize) -> (Payload, Vec<u32>),
        mut recv: impl FnMut(usize) -> (RecvAction, Vec<u32>),
    ) -> Vec<u32> {
        let p = order.len();
        let sends: Vec<u32> = (0..p)
            .map(|i| {
                let (payload, deps) = send(i);
                self.send(order[i] as usize, order[(i + shift) % p], payload, deps)
            })
            .collect();
        (0..p)
            .map(|i| {
                let from = (i + p - shift % p) % p;
                let (action, deps) = recv(i);
                self.recv(order[i] as usize, order[from], sends[from], action, deps)
            })
            .collect()
    }

    /// Total number of operations across all ranks.
    pub fn num_ops(&self) -> usize {
        self.ops.iter().map(|v| v.len()).sum()
    }

    /// Total bytes moved by all sends.
    pub fn total_send_bytes(&self) -> u64 {
        self.ops
            .iter()
            .flatten()
            .map(|op| match op.kind {
                OpKind::Send { payload, .. } => payload.bytes(self.elem_bytes),
                _ => 0,
            })
            .sum()
    }

    /// Merge another schedule over the same ranks/data (used to run two
    /// algorithm instances concurrently, e.g. the two disjoint rings).
    /// The dependencies and the named sends of `other` are re-based.
    pub fn merge(&mut self, other: &Schedule) {
        assert_eq!(self.nranks, other.nranks);
        assert_eq!(self.elem_bytes, other.elem_bytes);
        let base: Vec<u32> = self.ops.iter().map(|ops| ops.len() as u32).collect();
        for (r, ops) in other.ops.iter().enumerate() {
            for op in ops {
                let kind = match op.kind {
                    OpKind::Recv { from, send, action } => OpKind::Recv {
                        from,
                        send: send + base[from as usize],
                        action,
                    },
                    k => k,
                };
                self.ops[r].push(Op {
                    kind,
                    deps: op.deps.iter().map(|&d| d + base[r]).collect(),
                });
            }
        }
    }

    /// Validate structural sanity: one op list per rank, dependency
    /// indices in range and acyclic (deps must point backwards), every send
    /// and recv naming a rank of the schedule, segments within the data
    /// vector, and every message paired: each recv names a send to its own
    /// rank, no send is received twice and none goes unreceived.
    pub fn validate(&self) -> Result<(), String> {
        if self.ops.len() != self.nranks {
            return Err(format!(
                "{} op lists for {} ranks",
                self.ops.len(),
                self.nranks
            ));
        }
        // One flag per op, rank `r`'s ops from `start[r]` on.
        let mut start = Vec::with_capacity(self.nranks + 1);
        start.push(0);
        for ops in &self.ops {
            start.push(start[start.len() - 1] + ops.len());
        }
        let mut received = vec![false; start[self.nranks]];
        for (r, ops) in self.ops.iter().enumerate() {
            for (i, op) in ops.iter().enumerate() {
                for &d in &op.deps {
                    if d as usize >= i {
                        return Err(format!("rank {r} op {i}: forward/self dep {d}"));
                    }
                }
                match op.kind {
                    OpKind::Send { to, payload } => {
                        if let Payload::Segment { off, len } = payload {
                            if off as u64 + len as u64 > self.data_len as u64 {
                                return Err(format!("rank {r} op {i}: segment out of range"));
                            }
                        }
                        if to as usize >= self.nranks {
                            return Err(format!("rank {r} op {i}: bad destination {to}"));
                        }
                    }
                    OpKind::Recv { from, send, .. } => {
                        let Some(sender) = self.ops.get(from as usize) else {
                            return Err(format!("rank {r} op {i}: bad source {from}"));
                        };
                        let named = sender.get(send as usize).map(|op| op.kind);
                        if !matches!(named, Some(OpKind::Send { to, .. }) if to as usize == r) {
                            return Err(format!(
                                "rank {r} op {i}: rank {from} op {send} is not a send to rank {r}"
                            ));
                        }
                        let flag = &mut received[start[from as usize] + send as usize];
                        if *flag {
                            return Err(format!(
                                "rank {r} op {i}: rank {from} op {send} is received twice"
                            ));
                        }
                        *flag = true;
                    }
                    OpKind::Compute { .. } => {}
                }
            }
        }
        for (r, ops) in self.ops.iter().enumerate() {
            for (i, op) in ops.iter().enumerate() {
                if matches!(op.kind, OpKind::Send { .. }) && !received[start[r] + i] {
                    return Err(format!("rank {r} op {i}: send never received"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BYTES: Payload = Payload::Opaque { bytes: 64 };

    #[test]
    fn push_and_validate() {
        let mut s = Schedule::new(2, 8);
        let r0 = s.recv(0, 1, 0, RecvAction::Reduce, vec![]);
        let s0 = s.send(0, 1, Payload::Segment { off: 0, len: 8 }, vec![r0]);
        s.send(1, 0, Payload::Segment { off: 0, len: 8 }, vec![]);
        s.recv(1, 0, s0, RecvAction::Reduce, vec![]);
        assert!(s.validate().is_ok());
        assert_eq!(s.num_ops(), 4);
        assert_eq!(s.total_send_bytes(), 2 * 8 * 4);
    }

    #[test]
    fn forward_dep_rejected() {
        let mut s = Schedule::new(1, 4);
        s.push(0, OpKind::Compute { ps: 1 }, vec![1]);
        s.push(0, OpKind::Compute { ps: 1 }, vec![]);
        assert!(s.validate().is_err());
    }

    #[test]
    fn segment_bounds_checked() {
        let mut s = Schedule::new(2, 4);
        s.send(0, 1, Payload::Segment { off: 2, len: 4 }, vec![]);
        assert!(s.validate().is_err());
    }

    #[test]
    fn segment_bound_does_not_wrap() {
        let mut s = Schedule::new(2, 4);
        s.send(
            0,
            1,
            Payload::Segment {
                off: u32::MAX,
                len: 2,
            },
            vec![],
        );
        assert!(s.validate().is_err());
    }

    #[test]
    fn opaque_send_destination_checked() {
        let mut s = Schedule::new(2, 4);
        s.send(0, 5, BYTES, vec![]);
        assert_eq!(s.validate(), Err("rank 0 op 0: bad destination 5".into()));
    }

    #[test]
    fn recv_source_checked() {
        let mut s = Schedule::new(2, 4);
        s.recv(1, 7, 0, RecvAction::Discard, vec![]);
        assert_eq!(s.validate(), Err("rank 1 op 0: bad source 7".into()));
    }

    /// A recv naming a send to another rank, an op that is not a send, or
    /// no op at all.
    #[test]
    fn recv_naming_no_send_to_its_rank_is_rejected() {
        let mut s = Schedule::new(3, 4);
        s.send(0, 2, BYTES, vec![]);
        s.compute(0, 10, vec![]);
        s.recv(1, 0, 0, RecvAction::Discard, vec![]);
        for send in [0, 1, 2] {
            s.ops[1][0].kind = OpKind::Recv {
                from: 0,
                send,
                action: RecvAction::Discard,
            };
            let want = format!("rank 1 op 0: rank 0 op {send} is not a send to rank 1");
            assert_eq!(s.validate(), Err(want));
        }
    }

    #[test]
    fn send_received_twice_is_rejected() {
        let mut s = Schedule::new(2, 4);
        let tx = s.send(0, 1, BYTES, vec![]);
        s.recv(1, 0, tx, RecvAction::Discard, vec![]);
        s.recv(1, 0, tx, RecvAction::Discard, vec![]);
        let want = "rank 1 op 1: rank 0 op 0 is received twice";
        assert_eq!(s.validate(), Err(want.into()));
    }

    #[test]
    fn unreceived_send_is_rejected() {
        let mut s = Schedule::new(2, 4);
        let tx = s.send(0, 1, BYTES, vec![]);
        s.send(0, 1, BYTES, vec![]);
        s.recv(1, 0, tx, RecvAction::Discard, vec![]);
        let want = "rank 0 op 1: send never received";
        assert_eq!(s.validate(), Err(want.into()));
    }

    #[test]
    fn one_op_list_per_rank() {
        let mut s = Schedule::new(2, 4);
        s.ops.push(Vec::new());
        assert!(s.validate().is_err());
    }

    /// Each rank's dependencies move by its own op count, and each named
    /// send by its source rank's.
    #[test]
    fn merge_rebases_deps_and_sends() {
        // One message each way, rank 0's recv gating its send.
        let exchange = || {
            let mut s = Schedule::new(2, 4);
            let r = s.recv(0, 1, 0, RecvAction::Discard, vec![]);
            let tx = s.send(0, 1, BYTES, vec![r]);
            s.send(1, 0, BYTES, vec![]);
            s.recv(1, 0, tx, RecvAction::Discard, vec![]);
            s
        };
        let mut a = exchange();
        a.compute(1, 10, vec![]);
        a.merge(&exchange());
        assert_eq!((a.ops[0].len(), a.ops[1].len()), (4, 5));
        assert_eq!(a.ops[0][3].deps, vec![2]);
        assert!(matches!(a.ops[0][2].kind, OpKind::Recv { send: 3, .. }));
        assert!(matches!(a.ops[1][4].kind, OpKind::Recv { send: 3, .. }));
        assert_eq!(a.validate(), Ok(()));
    }
}
