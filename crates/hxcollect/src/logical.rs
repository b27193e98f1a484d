//! Logical (data-level) schedule executor.
//!
//! Runs a [`Schedule`] on real `f32` vectors to verify that the collective
//! computes what it claims — e.g. after an allreduce schedule, every rank's
//! buffer must equal the element-wise sum of all initial buffers. This is
//! the correctness half of the dual-executor design; replay on either
//! simulation engine is the timing half.

use crate::schedule::{OpKind, Payload, RecvAction, Schedule};

/// Outcome of a logical execution.
#[derive(Debug)]
pub struct LogicalResult {
    /// Final buffer contents per rank.
    pub data: Vec<Vec<f32>>,
    /// Number of messages exchanged.
    pub messages: usize,
}

/// Execute `sched` starting from `inputs` (one vector per rank, all of
/// length `sched.data_len`). Returns an error when the schedule deadlocks
/// (an op never becomes runnable) — which property tests use to reject
/// malformed generators.
pub fn execute(sched: &Schedule, inputs: &[Vec<f32>]) -> Result<LogicalResult, String> {
    assert_eq!(inputs.len(), sched.nranks);
    for (r, v) in inputs.iter().enumerate() {
        assert_eq!(v.len(), sched.data_len, "rank {r} input length");
    }
    sched.validate()?;

    let mut data: Vec<Vec<f32>> = inputs.to_vec();
    let mut done: Vec<Vec<bool>> = sched.ops.iter().map(|v| vec![false; v.len()]).collect();
    // The offset and data of the segment each executed send captured, by
    // rank and op, until the recv that names the send takes it.
    #[allow(clippy::type_complexity)]
    let mut sent: Vec<Vec<Option<(u32, Vec<f32>)>>> =
        sched.ops.iter().map(|v| vec![None; v.len()]).collect();
    let mut messages = 0usize;

    let total: usize = sched.num_ops();
    let mut completed = 0usize;
    loop {
        let mut progress = false;
        for r in 0..sched.nranks {
            for i in 0..sched.ops[r].len() {
                if done[r][i] {
                    continue;
                }
                let op = &sched.ops[r][i];
                if !op.deps.iter().all(|&d| done[r][d as usize]) {
                    continue;
                }
                match op.kind {
                    OpKind::Compute { .. } => {}
                    OpKind::Send { payload, .. } => {
                        if let Payload::Segment { off, len } = payload {
                            let seg = data[r][off as usize..(off + len) as usize].to_vec();
                            sent[r][i] = Some((off, seg));
                        }
                        messages += 1;
                    }
                    OpKind::Recv { from, send, action } => {
                        let (from, send) = (from as usize, send as usize);
                        if !done[from][send] {
                            continue;
                        }
                        match (action, sent[from][send].take()) {
                            (RecvAction::Discard, _) => {}
                            (RecvAction::Reduce, Some((off, vals))) => {
                                for (k, v) in vals.iter().enumerate() {
                                    data[r][off as usize + k] += v;
                                }
                            }
                            (RecvAction::Copy, Some((off, vals))) => {
                                data[r][off as usize..off as usize + vals.len()]
                                    .copy_from_slice(&vals);
                            }
                            (a, None) => {
                                return Err(format!("rank {r} op {i}: {a:?} on opaque payload"))
                            }
                        }
                    }
                }
                done[r][i] = true;
                completed += 1;
                progress = true;
            }
        }
        if completed == total {
            return Ok(LogicalResult { data, messages });
        }
        if !progress {
            let stuck: Vec<String> = (0..sched.nranks)
                .flat_map(|r| {
                    done[r]
                        .iter()
                        .enumerate()
                        .filter(|(_, d)| !**d)
                        .map(move |(i, _)| format!("rank {r} op {i}"))
                })
                .take(8)
                .collect();
            return Err(format!("schedule deadlock; stuck: {stuck:?}"));
        }
    }
}

/// Convenience: run `sched` on deterministic pseudo-random inputs and check
/// that every rank ends with the element-wise sum of all inputs (allreduce
/// post-condition). Tolerates float rounding from reassociation.
pub fn check_allreduce(sched: &Schedule) -> Result<(), String> {
    let inputs: Vec<Vec<f32>> = (0..sched.nranks)
        .map(|r| {
            (0..sched.data_len)
                .map(|i| ((r * 31 + i * 7) % 97) as f32 - 48.0)
                .collect()
        })
        .collect();
    let mut expect = vec![0.0f32; sched.data_len];
    for v in &inputs {
        for (e, x) in expect.iter_mut().zip(v) {
            *e += x;
        }
    }
    let res = execute(sched, &inputs)?;
    for (r, v) in res.data.iter().enumerate() {
        for (i, (&got, &want)) in v.iter().zip(&expect).enumerate() {
            let tol = 1e-3 * (1.0 + want.abs());
            if (got - want).abs() > tol {
                return Err(format!(
                    "rank {r} elem {i}: got {got}, want {want} (allreduce broken)"
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::Schedule;

    const WHOLE: Payload = Payload::Segment { off: 0, len: 4 };

    /// Hand-written 2-rank allreduce: exchange full vectors and reduce.
    #[test]
    fn two_rank_exchange_allreduce() {
        let mut s = Schedule::new(2, 4);
        let sends = [0, 1].map(|r| s.send(r, 1 - r as u32, WHOLE, vec![]));
        for r in 0..2usize {
            s.recv(r, 1 - r as u32, sends[1 - r], RecvAction::Reduce, vec![]);
        }
        check_allreduce(&s).unwrap();
    }

    /// Each rank's send waits for its recv, whose message is the other
    /// rank's send.
    #[test]
    fn deadlock_detected() {
        let mut s = Schedule::new(2, 4);
        for r in 0..2usize {
            let rv = s.recv(r, 1 - r as u32, 1, RecvAction::Reduce, vec![]);
            s.send(r, 1 - r as u32, WHOLE, vec![rv]);
        }
        let inputs = vec![vec![0.0; 4], vec![0.0; 4]];
        let err = execute(&s, &inputs).unwrap_err();
        assert!(err.starts_with("schedule deadlock"), "{err}");
    }

    #[test]
    fn copy_action_overwrites() {
        let mut s = Schedule::new(2, 2);
        let tx = s.send(0, 1, Payload::Segment { off: 0, len: 2 }, vec![]);
        s.recv(1, 0, tx, RecvAction::Copy, vec![]);
        let res = execute(&s, &[vec![5.0, 6.0], vec![0.0, 0.0]]).unwrap();
        assert_eq!(res.data[1], vec![5.0, 6.0]);
    }

    #[test]
    fn opaque_discard_works() {
        let mut s = Schedule::new(2, 1);
        let tx = s.send(0, 1, Payload::Opaque { bytes: 1000 }, vec![]);
        s.recv(1, 0, tx, RecvAction::Discard, vec![]);
        let res = execute(&s, &[vec![1.0], vec![2.0]]).unwrap();
        assert_eq!(res.data[1], vec![2.0]);
        assert_eq!(res.messages, 1);
    }
}
