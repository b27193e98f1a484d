//! The one timed event queue: the packet engine, the flow engine and the
//! hxcluster lifetime loop all pop their events from an [`EventQueue`].
//!
//! Events pop earliest time first and, among equal times, in push order:
//! a monotone sequence number breaks the tie, so the processing order —
//! and every output downstream of it — is deterministic however events
//! interleave at one instant.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A min-heap of `(time, event)` pairs, FIFO among equal times.
#[derive(Debug)]
pub struct EventQueue<T, E> {
    heap: BinaryHeap<Reverse<(T, u64, E)>>,
    seq: u64,
}

impl<T: Ord, E: Ord> Default for EventQueue<T, E> {
    fn default() -> Self {
        Self {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }
}

impl<T: Ord + Copy, E: Ord> EventQueue<T, E> {
    /// Schedule `event` at `time`.
    pub fn push(&mut self, time: T, event: E) {
        self.heap.push(Reverse((time, self.seq, event)));
        self.seq += 1;
    }

    /// Remove the earliest event.
    pub fn pop(&mut self) -> Option<(T, E)> {
        self.heap
            .pop()
            .map(|Reverse((time, _, event))| (time, event))
    }

    /// The earliest event's time.
    pub fn next_time(&self) -> Option<T> {
        self.heap.peek().map(|Reverse((time, _, _))| *time)
    }

    /// Remove the earliest event if it is due by `limit`.
    pub fn pop_due(&mut self, limit: T) -> Option<(T, E)> {
        if self.next_time()? > limit {
            return None;
        }
        self.pop()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::TimeKey;

    #[test]
    fn pops_in_time_then_insertion_order() {
        // Integer times (packet engine, cluster loop). Events at one
        // instant come out in push order, not in the events' own order.
        let mut q = EventQueue::default();
        for (t, e) in [(50u64, 0), (10, 3), (10, 1), (10, 2)] {
            q.push(t, e);
        }
        assert_eq!(q.next_time(), Some(10));
        let popped: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(popped, [(10, 3), (10, 1), (10, 2), (50, 0)]);
        assert_eq!(q.next_time(), None);

        // Float times (flow engine): the same rule, and `pop_due` stops at
        // the first event later than its limit.
        let mut q = EventQueue::default();
        for (t, e) in [(2.5, 0), (0.5, 3), (0.0, 4), (0.5, 1), (2.5, 2)] {
            q.push(TimeKey(t), e);
        }
        let due: Vec<_> = std::iter::from_fn(|| q.pop_due(TimeKey(1.0))).collect();
        assert_eq!(
            due,
            [(TimeKey(0.0), 4), (TimeKey(0.5), 3), (TimeKey(0.5), 1)]
        );
        assert_eq!(q.next_time(), Some(TimeKey(2.5)));
        assert_eq!(q.pop(), Some((TimeKey(2.5), 0)));
        assert_eq!(q.pop(), Some((TimeKey(2.5), 2)));
        assert_eq!(q.pop(), None);
    }
}
