//! In-run link failure schedules and recovery policies.
//!
//! A [`FailureSchedule`] turns cable fail/repair into first-class
//! simulation events: both engines consume the schedule mid-run through
//! their run ledger, which advances a private copy of the topology's
//! failure epoch at the scheduled instants (the borrowed
//! [`hxnet::Network`] is never mutated). The flow engine re-routes and re-rates the affected flows
//! at each epoch; the packet engine drops the packets in flight on the
//! failed cable and recovers them with the configured
//! [`RetransmitPolicy`]. An empty schedule costs one branch per event
//! loop iteration, and a schedule whose events all fall after the traffic
//! leaves the run bitwise as the empty one does:
//! `tests_midrun.rs::after_horizon_schedule_is_bitwise_inert` pins that
//! on both engines and rate modes, and
//! `tests/proptests.rs::prop_after_horizon_schedule_counters_stay_zero`
//! pins the recovery counters at zero.

use crate::Time;
use hxnet::{NodeId, PortId};

/// What happens to the cable at the scheduled instant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LinkEventKind {
    /// The cable goes down in both directions ([`hxnet::Topology::fail_link`]).
    Fail,
    /// The cable comes back ([`hxnet::Topology::restore_link`]).
    Repair,
}

/// One scheduled cable transition. The cable is named by either of its
/// ends — `(node, port)` — and fails/repairs full-duplex, exactly like
/// the pre-run `fail_link` API.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LinkEvent {
    pub at_ps: Time,
    pub kind: LinkEventKind,
    pub node: NodeId,
    pub port: PortId,
}

/// A time-sorted list of in-run cable events, consumed by both engines.
///
/// Events at equal instants apply in insertion order. An event that
/// re-fails an already-failed cable (or repairs a healthy one) is a
/// no-op and is not counted in the fail/repair stats.
#[derive(Clone, Debug, Default)]
pub struct FailureSchedule {
    events: Vec<LinkEvent>,
}

impl FailureSchedule {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// The events, sorted by time (stable for equal instants).
    pub fn events(&self) -> &[LinkEvent] {
        &self.events
    }

    /// Insert an event, keeping the list time-sorted; equal instants
    /// keep insertion order.
    pub fn push(&mut self, ev: LinkEvent) {
        let pos = self.events.partition_point(|e| e.at_ps <= ev.at_ps);
        self.events.insert(pos, ev);
    }

    /// Builder: schedule a cable failure.
    pub fn fail(mut self, at_ps: Time, node: NodeId, port: PortId) -> Self {
        self.push(LinkEvent {
            at_ps,
            kind: LinkEventKind::Fail,
            node,
            port,
        });
        self
    }

    /// Builder: schedule a cable repair.
    pub fn repair(mut self, at_ps: Time, node: NodeId, port: PortId) -> Self {
        self.push(LinkEvent {
            at_ps,
            kind: LinkEventKind::Repair,
            node,
            port,
        });
        self
    }
}

/// How the packet engine's sender recovers a packet dropped on a failed
/// cable ([`crate::SimConfig::retransmit`]; scenario specs select it with
/// `[failures] retransmit = "timeout" | "reroute"`). Ignored by the flow
/// engine, whose fluid flows re-route losslessly.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum RetransmitPolicy {
    /// Sender-side retransmission timer: the dropped packet re-injects
    /// after a base RTO shifted left by the message's retransmit count,
    /// capped — classic capped exponential backoff.
    #[default]
    Timeout,
    /// Fast reroute: the point of failure NACKs the sender, which
    /// re-injects after a fixed small delay and lets adaptive routing
    /// pick a healthy path.
    Reroute,
}

impl RetransmitPolicy {
    pub fn as_str(self) -> &'static str {
        match self {
            RetransmitPolicy::Timeout => "timeout",
            RetransmitPolicy::Reroute => "reroute",
        }
    }
}

impl std::fmt::Display for RetransmitPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::str::FromStr for RetransmitPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "timeout" => Ok(RetransmitPolicy::Timeout),
            "reroute" => Ok(RetransmitPolicy::Reroute),
            _ => Err(format!(
                "unknown retransmit policy {s:?} (expected timeout|reroute)"
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_keeps_time_order_with_stable_ties() {
        let s = FailureSchedule::new()
            .fail(500, NodeId(2), PortId(0))
            .fail(100, NodeId(1), PortId(3))
            .repair(500, NodeId(2), PortId(0))
            .fail(300, NodeId(0), PortId(1));
        let times: Vec<Time> = s.events().iter().map(|e| e.at_ps).collect();
        assert_eq!(times, vec![100, 300, 500, 500]);
        // Equal instants keep insertion order: fail before repair.
        assert_eq!(s.events()[2].kind, LinkEventKind::Fail);
        assert_eq!(s.events()[3].kind, LinkEventKind::Repair);
    }

    #[test]
    fn retransmit_policy_parses_and_round_trips() {
        for p in [RetransmitPolicy::Timeout, RetransmitPolicy::Reroute] {
            assert_eq!(p.as_str().parse::<RetransmitPolicy>(), Ok(p));
        }
        assert!("nack".parse::<RetransmitPolicy>().is_err());
    }
}
