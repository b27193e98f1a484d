//! Dependency-graph communication schedules.
//!
//! A [`Schedule`] is a per-rank list of operations with intra-rank
//! dependencies (indices into the same rank's list). Sends and receives
//! match across ranks by `(source rank, tag)`, so a generator must give
//! concurrent messages between the same pair distinct tags.

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
        tag: u64,
        payload: Payload,
    },
    Recv {
        from: u32,
        tag: u64,
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

    pub fn send(
        &mut self,
        rank: usize,
        to: u32,
        tag: u64,
        payload: Payload,
        deps: Vec<u32>,
    ) -> u32 {
        self.push(rank, OpKind::Send { to, tag, payload }, deps)
    }

    pub fn recv(
        &mut self,
        rank: usize,
        from: u32,
        tag: u64,
        action: RecvAction,
        deps: Vec<u32>,
    ) -> u32 {
        self.push(rank, OpKind::Recv { from, tag, action }, deps)
    }

    pub fn compute(&mut self, rank: usize, ps: u64, deps: Vec<u32>) -> u32 {
        self.push(rank, OpKind::Compute { ps }, deps)
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
    /// Dependencies of `other` are re-based; tags are offset by `tag_shift`
    /// to keep matching disjoint.
    pub fn merge(&mut self, other: &Schedule, tag_shift: u64) {
        assert_eq!(self.nranks, other.nranks);
        assert_eq!(self.elem_bytes, other.elem_bytes);
        for r in 0..self.nranks {
            let base = self.ops[r].len() as u32;
            for op in &other.ops[r] {
                let kind = match op.kind {
                    OpKind::Send { to, tag, payload } => OpKind::Send {
                        to,
                        tag: tag + tag_shift,
                        payload,
                    },
                    OpKind::Recv { from, tag, action } => OpKind::Recv {
                        from,
                        tag: tag + tag_shift,
                        action,
                    },
                    k => k,
                };
                self.ops[r].push(Op {
                    kind,
                    deps: op.deps.iter().map(|&d| d + base).collect(),
                });
            }
        }
    }

    /// Validate structural sanity: one op list per rank, dependency
    /// indices in range and acyclic (deps must point backwards), every send
    /// and recv naming a rank of the schedule, segments within the data
    /// vector.
    pub fn validate(&self) -> Result<(), String> {
        if self.ops.len() != self.nranks {
            return Err(format!(
                "{} op lists for {} ranks",
                self.ops.len(),
                self.nranks
            ));
        }
        for (r, ops) in self.ops.iter().enumerate() {
            for (i, op) in ops.iter().enumerate() {
                for &d in &op.deps {
                    if d as usize >= i {
                        return Err(format!("rank {r} op {i}: forward/self dep {d}"));
                    }
                }
                match op.kind {
                    OpKind::Send { to, payload, .. } => {
                        if let Payload::Segment { off, len } = payload {
                            if off as u64 + len as u64 > self.data_len as u64 {
                                return Err(format!("rank {r} op {i}: segment out of range"));
                            }
                        }
                        if to as usize >= self.nranks {
                            return Err(format!("rank {r} op {i}: bad destination {to}"));
                        }
                    }
                    OpKind::Recv { from, .. } => {
                        if from as usize >= self.nranks {
                            return Err(format!("rank {r} op {i}: bad source {from}"));
                        }
                    }
                    OpKind::Compute { .. } => {}
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_validate() {
        let mut s = Schedule::new(2, 8);
        let r0 = s.recv(0, 1, 0, RecvAction::Reduce, vec![]);
        s.send(0, 1, 0, Payload::Segment { off: 0, len: 8 }, vec![r0]);
        s.send(1, 0, 0, Payload::Segment { off: 0, len: 8 }, vec![]);
        s.recv(1, 0, 0, RecvAction::Reduce, vec![]);
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
        s.send(0, 1, 0, Payload::Segment { off: 2, len: 4 }, vec![]);
        assert!(s.validate().is_err());
    }

    #[test]
    fn segment_bound_does_not_wrap() {
        let mut s = Schedule::new(2, 4);
        s.send(
            0,
            1,
            0,
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
        s.send(0, 5, 0, Payload::Opaque { bytes: 8 }, vec![]);
        assert_eq!(s.validate(), Err("rank 0 op 0: bad destination 5".into()));
    }

    #[test]
    fn recv_source_checked() {
        let mut s = Schedule::new(2, 4);
        s.recv(1, 7, 0, RecvAction::Discard, vec![]);
        assert_eq!(s.validate(), Err("rank 1 op 0: bad source 7".into()));
    }

    #[test]
    fn one_op_list_per_rank() {
        let mut s = Schedule::new(2, 4);
        s.ops.push(Vec::new());
        assert!(s.validate().is_err());
    }

    #[test]
    fn merge_rebases_deps_and_tags() {
        let mut a = Schedule::new(2, 4);
        let r = a.recv(0, 1, 7, RecvAction::Copy, vec![]);
        a.send(0, 1, 7, Payload::Segment { off: 0, len: 4 }, vec![r]);
        let mut b = Schedule::new(2, 4);
        let r = b.recv(0, 1, 7, RecvAction::Copy, vec![]);
        b.send(0, 1, 7, Payload::Segment { off: 0, len: 4 }, vec![r]);
        a.merge(&b, 1000);
        assert_eq!(a.ops[0].len(), 4);
        match a.ops[0][3].kind {
            OpKind::Send { tag, .. } => assert_eq!(tag, 1007),
            _ => panic!(),
        }
        assert_eq!(a.ops[0][3].deps, vec![2]);
        assert!(a.validate().is_ok());
    }
}
