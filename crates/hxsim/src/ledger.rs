//! The run ledger both engines keep: everything the packet engine
//! ([`crate::Engine`]) and the flow engine ([`crate::FlowEngine`]) do the
//! same way around a simulation, kept once so that the two backends
//! report the same quantities.
//!
//! * **Statistics**: the run's [`SimStats`], pre-sized for the network.
//! * **Failure epochs**: the topology the run routes over and the cursor
//!   into its [`FailureSchedule`]. An empty schedule borrows the shared
//!   `net.topo`; a non-empty one clones it once, so scheduled fail/repair
//!   events never mutate the shared [`Network`].
//!   [`Ledger::apply_next_link_event`] applies, counts and traces an
//!   event; each engine keeps only its reaction to it.
//! * **Telemetry**: the trace sink and, only when the metrics channel is
//!   on, the registry. Every counter, histogram and trace-event name the
//!   engines emit is spelled in this file, and both engines register the
//!   same counters, so every run reports one metrics schema. Counters
//!   that [`SimStats`] already holds are written from it when the run
//!   submits. The process-wide enable flags are read once, at
//!   construction: with both channels off a recording site costs one
//!   branch and allocates nothing.
//! * **Messages**: [`Ledger::sent`] is the one place a message is born
//!   (it refuses a self-send, builds the [`MsgInfo`] and records the send
//!   instant); the engines report its drain, delivery, lost packets and
//!   reroutes by the id it returns, and keep only its transport.
//! * **The end of the run**: [`Ledger::live_link_event`] states when a
//!   scheduled link event still counts, and [`Ledger::finish`] counts the
//!   undelivered messages, reports [`SimError::Disconnected`] and submits
//!   the telemetry.

use crate::app::MsgInfo;
use crate::failure::{FailureSchedule, LinkEvent, LinkEventKind};
use crate::stats::{SimError, SimStats};
use crate::Time;
use hxnet::{Network, NodeId, PortId, Topology};
use hxtelemetry::{collect, CounterId, HistId, Registry, TraceSink};
use std::borrow::Cow;

/// The registry and the ids of the metrics recorded as the run goes.
struct Metrics {
    reg: Registry,
    flows_drained: CounterId,
    packet_stalls: CounterId,
    rate_epochs: CounterId,
    rate_changed_flows: CounterId,
    msg_latency_ps: HistId,
}

/// A message's index in the order the application sent it.
pub(crate) type MsgId = u32;

/// One run's statistics, messages, failure-epoch topology and telemetry.
pub(crate) struct Ledger<'n> {
    pub(crate) stats: SimStats,
    /// Every message sent so far and its send instant, by [`MsgId`].
    msgs: Vec<(MsgInfo, Time)>,
    /// The topology of the current failure epoch.
    pub(crate) topo: Cow<'n, Topology>,
    schedule: FailureSchedule,
    /// Cursor into `schedule` (sorted by time).
    next_event: usize,
    sink: TraceSink,
    /// `Some` iff the metrics channel was on at construction.
    metrics: Option<Metrics>,
    /// Trace category of `flow_start` and `flow_drain`.
    msg_cat: &'static str,
}

impl<'n> Ledger<'n> {
    pub(crate) fn new(net: &'n Network, schedule: FailureSchedule, msg_cat: &'static str) -> Self {
        let metrics = collect::metrics_enabled().then(|| {
            let mut reg = Registry::new();
            Metrics {
                flows_drained: reg.counter("flows_drained"),
                packet_stalls: reg.counter("packet_stalls"),
                rate_epochs: reg.counter("rate_epochs"),
                rate_changed_flows: reg.counter("rate_changed_flows"),
                msg_latency_ps: reg.histogram("msg_latency_ps"),
                reg,
            }
        });
        Self {
            stats: SimStats {
                node_forwarded: vec![0; net.topo.num_nodes()],
                // Pre-sized so the delivery path indexes directly instead
                // of resizing per message.
                rank_recv_done_ps: vec![0; net.endpoints.len()],
                rank_recv_bytes: vec![0; net.endpoints.len()],
                ..SimStats::default()
            },
            msgs: Vec::new(),
            topo: if schedule.is_empty() {
                Cow::Borrowed(&net.topo)
            } else {
                Cow::Owned(net.topo.clone())
            },
            schedule,
            next_event: 0,
            sink: TraceSink::new(collect::trace_enabled()),
            metrics,
            msg_cat,
        }
    }

    /// Record an instant trace event; `args` are copied only when the
    /// sink records.
    #[inline]
    fn trace(
        &mut self,
        name: &'static str,
        cat: &'static str,
        ts_ps: Time,
        args: &[(&'static str, u64)],
    ) {
        if self.sink.enabled() {
            self.sink.instant_args(name, cat, ts_ps, args.to_vec());
        }
    }

    /// The application sent `bytes` from rank `src` to rank `dst` with
    /// `tag` at `now_ps`: record the message and return its id.
    pub(crate) fn sent(&mut self, src: u32, dst: u32, bytes: u64, tag: u64, now_ps: Time) -> MsgId {
        assert_ne!(src, dst, "self-sends are not modelled");
        let id = self.msgs.len() as MsgId;
        let info = MsgInfo {
            src_rank: src,
            dst_rank: dst,
            bytes,
            tag,
        };
        self.msgs.push((info, now_ps));
        self.stats.messages_sent += 1;
        let args = [("src", src as u64), ("dst", dst as u64), ("bytes", bytes)];
        self.trace("flow_start", self.msg_cat, now_ps, &args);
        id
    }

    /// What the callbacks see of message `msg`.
    #[inline]
    pub(crate) fn info(&self, msg: MsgId) -> MsgInfo {
        self.msgs[msg as usize].0
    }

    /// Message `msg` was delivered at `now_ps`; returns its info for the
    /// delivery callback.
    pub(crate) fn delivered(&mut self, msg: MsgId, now_ps: Time) -> MsgInfo {
        let (info, sent_ps) = self.msgs[msg as usize];
        self.stats.messages_delivered += 1;
        self.stats.rank_recv_done_ps[info.dst_rank as usize] = now_ps;
        self.stats.rank_recv_bytes[info.dst_rank as usize] += info.bytes;
        if let Some(m) = &mut self.metrics {
            m.reg
                .record(m.msg_latency_ps, now_ps.saturating_sub(sent_ps));
        }
        info
    }

    /// Message `msg`'s flow drained at `now_ps`: at the delivery of its
    /// last packet in the packet engine, when its source sent the last
    /// byte in the flow engine. Returns its info for the send-completion
    /// callback.
    pub(crate) fn drained(&mut self, msg: MsgId, now_ps: Time) -> MsgInfo {
        let info = self.info(msg);
        if let Some(m) = &mut self.metrics {
            m.reg.inc(m.flows_drained, 1);
        }
        let args = [("src", info.src_rank as u64), ("dst", info.dst_rank as u64)];
        self.trace("flow_drain", self.msg_cat, now_ps, &args);
        info
    }

    /// An output VC found no downstream credit and waits for it.
    pub(crate) fn packet_stall(&mut self, node: NodeId, port: PortId, vc: u8, now_ps: Time) {
        if let Some(m) = &mut self.metrics {
            m.reg.inc(m.packet_stalls, 1);
        }
        let args = [
            ("node", node.idx() as u64),
            ("port", port.idx() as u64),
            ("vc", vc as u64),
        ];
        self.trace("packet_stall", "packet", now_ps, &args);
    }

    /// A packet of message `msg` was lost on a failed cable; its source
    /// re-injects it `delay_ps` later.
    pub(crate) fn packet_retransmit(&mut self, msg: MsgId, delay_ps: Time, now_ps: Time) {
        let info = self.info(msg);
        self.stats.packet_retransmits += 1;
        let (src, dst) = (info.src_rank as u64, info.dst_rank as u64);
        let args = [("src", src), ("dst", dst), ("delay_ps", delay_ps)];
        self.trace("packet_retransmit", "fault", now_ps, &args);
    }

    /// The flow of message `msg` left a failed cable over a new route set.
    pub(crate) fn flow_reroute(&mut self, msg: MsgId, now_ps: Time) {
        let info = self.info(msg);
        self.stats.flows_rerouted += 1;
        let args = [("src", info.src_rank as u64), ("dst", info.dst_rank as u64)];
        self.trace("flow_reroute", "fault", now_ps, &args);
    }

    /// A rate epoch changed the rate bit pattern of `changed` flows; an
    /// epoch that changed none records nothing.
    pub(crate) fn rate_epoch(&mut self, changed: u64, now_ps: Time) {
        if changed == 0 {
            return;
        }
        if let Some(m) = &mut self.metrics {
            m.reg.inc(m.rate_epochs, 1);
            m.reg.inc(m.rate_changed_flows, changed);
        }
        self.trace("rate_epoch", "flow", now_ps, &[("touched_flows", changed)]);
    }

    /// The next scheduled link event, if any remains.
    pub(crate) fn next_link_event(&self) -> Option<LinkEvent> {
        self.schedule.events().get(self.next_event).copied()
    }

    /// The next scheduled link event while `traffic` is pending or a
    /// parked packet or stalled flow is `waiting` for a repair. Past the
    /// traffic horizon the schedule stays inert, so such a run is
    /// bit-identical to one without a schedule.
    pub(crate) fn live_link_event(&self, traffic: bool, waiting: bool) -> Option<LinkEvent> {
        self.next_link_event().filter(|_| traffic || waiting)
    }

    /// Apply the next scheduled link event to the failure-epoch topology
    /// at `now_ps`, counting and tracing it. Returns whether the link
    /// changed: re-failing a dead cable or repairing a healthy one is a
    /// no-op the stats do not count.
    pub(crate) fn apply_next_link_event(&mut self, now_ps: Time) -> bool {
        let Some(ev) = self.next_link_event() else {
            return false;
        };
        self.next_event += 1;
        let topo = self.topo.to_mut();
        let (changed, count, name) = match ev.kind {
            LinkEventKind::Fail => (
                topo.fail_link(ev.node, ev.port),
                &mut self.stats.link_fail_events,
                "link_fail",
            ),
            LinkEventKind::Repair => (
                topo.restore_link(ev.node, ev.port),
                &mut self.stats.link_repair_events,
                "link_repair",
            ),
        };
        if changed {
            *count += 1;
            let args = [
                ("node", ev.node.idx() as u64),
                ("port", ev.port.idx() as u64),
            ];
            self.trace(name, "fault", now_ps, &args);
        }
        changed
    }

    /// Close the run at `finish_ps`: count the messages sent but never
    /// delivered, report message `stuck`, the first still without a path,
    /// as [`SimError::Disconnected`], submit the telemetry and hand back
    /// the stats.
    pub(crate) fn finish(self, finish_ps: Time, stuck: Option<MsgId>) -> SimStats {
        let stuck = stuck.map(|msg| self.info(msg));
        let Ledger {
            mut stats,
            topo,
            sink,
            metrics,
            ..
        } = self;
        if let Some(info) = stuck {
            stats.error = Some(SimError::Disconnected {
                src_rank: info.src_rank,
                dst_rank: info.dst_rank,
                failed_links: topo.count_failed_links(),
            });
        }
        stats.finish_ps = finish_ps;
        stats.undelivered_messages = (stats.messages_sent - stats.messages_delivered) as usize;
        if metrics.is_some() || sink.enabled() {
            let reg = metrics.map_or_else(Registry::new, |Metrics { mut reg, .. }| {
                for (name, v) in [
                    ("flows_started", stats.messages_sent),
                    ("sim_events", stats.events),
                    ("link_fail_events", stats.link_fail_events),
                    ("link_repair_events", stats.link_repair_events),
                    ("flow_reroutes", stats.flows_rerouted),
                    ("packet_retransmits", stats.packet_retransmits),
                ] {
                    let id = reg.counter(name);
                    reg.inc(id, v);
                }
                reg
            });
            collect::submit(reg, sink);
        }
        stats
    }
}
