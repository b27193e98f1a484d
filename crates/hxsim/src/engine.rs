//! The packet-level discrete-event simulation engine.

pub use crate::app::{Application, Cmd, Ctx, MsgInfo};
use crate::failure::{LinkEvent, LinkEventKind};
use crate::ledger::{Ledger, MsgId};
use crate::stats::SimStats;
use crate::{EventQueue, RetransmitPolicy, Time};
use hxnet::route::{Hop, LoadProbe};
use hxnet::{Network, NodeId, PortId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::ops::Range;

/// Which max-min solver scope the flow engine uses on each epoch.
///
/// Both modes run the same per-component progressive filling
/// ([`crate::flow`]); they differ only in *which* components refill.
/// `Full` refills every connected component of the link-sharing graph,
/// `Incremental` only the components containing a change seed (new flow,
/// NIC un-gating, or a drain that retired a shared link). Because the
/// fill is a pure function of a component's membership — and an
/// unchanged component's membership is unchanged by definition — the two
/// modes produce bitwise-identical rates, completion times, and stats
/// (solver-effort counters aside); `tests/flow_incremental_equiv.rs`
/// pins that equivalence differentially. Runs use `Incremental`; `Full`
/// is the oracle those tests compare against. Ignored by the packet
/// engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RateMode {
    /// Refill every component on each epoch with a change seed (the
    /// differential tests' reference solver).
    Full,
    /// Refill only components that contain a change seed (default).
    Incremental,
}

/// Engine configuration. Defaults follow App. F of the paper; the App. F
/// settings no run varies are constants ([`crate::PACKET_BYTES`],
/// [`crate::HOP_LATENCY_PS`], [`crate::FLIT_BYTES`]).
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Input-buffer capacity per (port, VC) in bytes.
    pub buffer_bytes: u64,
    /// Injection throttle: a NIC keeps at most this many bytes queued in
    /// its node's output queues before pacing further packets.
    pub nic_window_bytes: u64,
    /// Per-output-port injection cap: packets whose preferred port already
    /// holds this many NIC bytes are deferred so concurrent flows (e.g.
    /// the four HxMesh ring directions) share the NIC fairly.
    pub nic_port_window_bytes: u64,
    /// Enable source-side waypoint selection (Valiant / column-first).
    pub use_waypoints: bool,
    /// RNG seed for adaptive tie-breaking.
    pub seed: u64,
    /// Hard stop; the run reports a failure if exceeded.
    pub max_time_ps: Time,
    /// Flow engine: max-min solver scope (see [`RateMode`]).
    pub rate_mode: RateMode,
    /// Flow engine: record a per-epoch `(time, msg, rate)` snapshot in
    /// [`crate::SimStats::rate_trace`] at every epoch. Test-only
    /// instrumentation for the differential equivalence suite; costs
    /// O(active flows) per epoch, so it defaults off.
    pub trace_rates: bool,
    /// In-run cable fail/repair events, applied by both engines at the
    /// scheduled instants. Empty (the default) keeps the event loops on
    /// their historical fast path — one branch per iteration.
    pub failures: crate::FailureSchedule,
    /// Packet engine: recovery policy for packets dropped on a cable
    /// that failed mid-flight (see [`crate::RetransmitPolicy`]).
    pub retransmit: crate::RetransmitPolicy,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            buffer_bytes: crate::DEFAULT_BUFFER_BYTES,
            nic_window_bytes: 32 * crate::PACKET_BYTES,
            nic_port_window_bytes: 4 * crate::PACKET_BYTES,
            use_waypoints: true,
            seed: 0x5eed,
            max_time_ps: Time::MAX,
            rate_mode: RateMode::Incremental,
            trace_rates: false,
            failures: crate::FailureSchedule::default(),
            retransmit: RetransmitPolicy::Timeout,
        }
    }
}

type PacketId = u32;

/// Base retransmission timeout for the [`RetransmitPolicy::Timeout`]
/// policy: 1 µs, a few round trips at App. F latencies. Doubles per
/// retransmit of the same message, capped at `<< RTO_BACKOFF_CAP`.
const RTO_BASE_PS: Time = 1_000_000;
const RTO_BACKOFF_CAP: u32 = 6;

struct PacketState {
    msg: MsgId,
    bytes: u32,
    vc: u8,
    /// Final destination node.
    dst_node: NodeId,
    /// Active waypoint (cleared once reached).
    waypoint: Option<NodeId>,
    /// The input buffer this packet currently occupies, if any.
    held: Option<(NodeId, PortId, u8)>,
    /// On the wire: set at transmit, cleared on arrival. Only in-flight
    /// packets can be lost to a mid-run cable failure.
    in_flight: bool,
    /// Incarnation stamp carried by `Arrive` events: bumped when the
    /// packet is dropped on a failed cable (and when its slot is
    /// recycled), so the stale arrival of a dropped incarnation is
    /// discarded even if the retransmitted copy is already moving again.
    gen: u32,
}

/// A message's packet counters; the ledger keeps the message itself.
struct MsgState {
    num_packets: u32,
    delivered_packets: u32,
    injected_packets: u32,
    /// Packets of this message lost to cable failures so far; drives the
    /// exponential backoff of the Timeout retransmit policy.
    retransmits: u32,
}

struct OutPort {
    /// One FIFO per virtual channel: a blocked VC must never head-of-line
    /// block packets of other VCs, or the escape-VC deadlock guarantees
    /// collapse (VC isolation).
    queues: Vec<VecDeque<PacketId>>,
    queued_bytes: u64,
    busy_until: Time,
    /// Bitmask of VCs registered as waiters on their downstream buffer.
    stalled_mask: u8,
    /// Round-robin pointer over VCs for fair link arbitration.
    rr: u8,
    /// Total busy picoseconds (for utilization stats).
    busy_ps: u64,
}

struct NodeState {
    out: Vec<OutPort>,
    /// Input-buffer occupancy per (port * num_vcs + vc).
    in_occ: Vec<u64>,
    /// Upstream (node, port) pairs waiting for space per (port, vc).
    waiters: Vec<Vec<(NodeId, PortId)>>,
    /// NIC injection queue (accelerators only).
    nic_pending: VecDeque<PacketId>,
    /// Set when a pass over the whole NIC queue found every route class
    /// with all of its candidate ports at or over the per-port window:
    /// the union of those ports (see [`port_bit`]). Pumps return at once
    /// until a port in the set drains below the window, a packet joins
    /// the queue, or a link event changes the routes.
    nic_blocked: Option<u64>,
    out_bytes_total: u64,
}

/// `port`'s bit in a [`NodeState::nic_blocked`] port set. Ports from 63
/// up share the top bit: a drain on any of them clears a set holding any
/// other, which costs one pump and never skips one.
fn port_bit(port: PortId) -> u64 {
    1 << port.idx().min(63)
}

/// The route classes one NIC pump met: each `(target, vc)` with the range
/// of its candidates in `hops`, routed once per pump into `cand`.
#[derive(Default)]
struct RouteClasses {
    classes: Vec<(NodeId, u8, Range<usize>)>,
    hops: Vec<Hop>,
    cand: Vec<Hop>,
}

impl RouteClasses {
    fn clear(&mut self) {
        self.classes.clear();
        self.hops.clear();
    }

    fn find(&self, target: NodeId, vc: u8) -> Option<Range<usize>> {
        self.classes
            .iter()
            .find(|c| (c.0, c.1) == (target, vc))
            .map(|c| c.2.clone())
    }

    /// Record class `(target, vc)` with the candidates just routed into
    /// `cand`.
    fn push(&mut self, target: NodeId, vc: u8) -> Range<usize> {
        let range = self.hops.len()..self.hops.len() + self.cand.len();
        self.hops.extend_from_slice(&self.cand);
        self.classes.push((target, vc, range.clone()));
        range
    }
}

#[derive(PartialEq, Eq, PartialOrd, Ord, Clone, Copy, Debug)]
enum Event {
    /// A packet (incarnation `gen`) finished arriving at (node, port).
    /// Stale incarnations — the packet was dropped on a failed cable
    /// after this event was scheduled — are discarded on pop.
    Arrive(NodeId, PortId, PacketId, u32),
    /// Re-inject a packet dropped on a failed cable at its source NIC.
    Retransmit(PacketId),
    /// Serialization done on (node, port): release the packet's previous
    /// buffer and try to transmit the next queued packet. All data is
    /// carried in the event because, with cut-through, the packet may have
    /// been delivered (and its slot recycled) before serialization ends.
    PortFree {
        node: NodeId,
        port: PortId,
        msg: MsgId,
        bytes: u32,
        release: Option<(NodeId, PortId, u8)>,
    },
    /// Application compute finished.
    Compute(u32, u64),
}

/// The packet-level simulation engine, borrowed over a [`Network`].
pub struct Engine<'n> {
    net: &'n Network,
    cfg: SimConfig,
    num_vcs: usize,
    now: Time,
    queue: EventQueue<Time, Event>,
    nodes: Vec<NodeState>,
    packets: Vec<PacketState>,
    free_packets: Vec<PacketId>,
    /// Indexed by [`MsgId`], like the ledger's messages.
    msgs: Vec<MsgState>,
    rng: StdRng,
    /// Scratch buffer for routing candidates.
    cand: Vec<Hop>,
    /// The NIC pump's route classes, recycled across pumps.
    classes: RouteClasses,
    /// Recycled application-command buffer of [`Self::call`]: every
    /// delivery/compute event used to allocate a fresh `Vec<Cmd>`, which
    /// dominated the allocator traffic of the hot loop. `apply_cmds`
    /// drains it, so it is always empty between events.
    cmd_scratch: Vec<Cmd>,
    /// Recycled waiter list for `release_buffer`: buffers rotate between
    /// this scratch and the per-(port, vc) waiter slots instead of being
    /// freed and reallocated on every credit release.
    waiter_scratch: Vec<(NodeId, PortId)>,
    /// The stats, the messages, the failure-epoch topology with its
    /// schedule cursor, and the telemetry, kept the same way as the flow
    /// engine keeps them (see `ledger.rs`).
    ledger: Ledger<'n>,
    /// Packets with no healthy path toward their target, as
    /// `(current node, packet)`. A parked transit packet keeps occupying
    /// its input buffer — a real switch cannot conjure the capacity to
    /// drop-and-forget either — and is re-routed on the next repair.
    /// Non-empty at the end of a run => [`crate::SimError::Disconnected`].
    parked: Vec<(NodeId, PacketId)>,
    /// The NIC pump's oracle switch and counters.
    #[cfg(test)]
    probe: PumpProbe,
}

impl<'n> Engine<'n> {
    pub fn new(net: &'n Network, mut cfg: SimConfig) -> Self {
        // One VC beyond the router's structured set: the escape VC that
        // failover detours use (see `hxnet::Router::next_hops`). It
        // carries no traffic on healthy runs — the round-robin arbiter
        // skips its empty queue — so allocating it unconditionally keeps
        // healthy results bit-identical.
        let num_vcs = net.router.num_vcs().max(1) as usize + 1;
        debug_assert!(num_vcs <= 8, "stalled_mask is a u8 bitmap");
        let nodes = net
            .topo
            .nodes()
            .map(|(_, n)| {
                let p = n.ports.len();
                NodeState {
                    out: (0..p)
                        .map(|_| OutPort {
                            queues: (0..num_vcs).map(|_| VecDeque::new()).collect(),
                            queued_bytes: 0,
                            busy_until: 0,
                            stalled_mask: 0,
                            rr: 0,
                            busy_ps: 0,
                        })
                        .collect(),
                    in_occ: vec![0; p * num_vcs],
                    waiters: vec![Vec::new(); p * num_vcs],
                    nic_pending: VecDeque::new(),
                    nic_blocked: None,
                    out_bytes_total: 0,
                }
            })
            .collect();
        Self {
            rng: StdRng::seed_from_u64(cfg.seed),
            net,
            num_vcs,
            now: 0,
            queue: EventQueue::default(),
            nodes,
            packets: Vec::new(),
            free_packets: Vec::new(),
            msgs: Vec::new(),
            cand: Vec::new(),
            classes: RouteClasses::default(),
            cmd_scratch: Vec::new(),
            waiter_scratch: Vec::new(),
            ledger: Ledger::new(net, std::mem::take(&mut cfg.failures), "packet"),
            parked: Vec::new(),
            #[cfg(test)]
            probe: PumpProbe::default(),
            cfg,
        }
    }

    /// Run the application to completion. Returns the collected statistics.
    pub fn run(mut self, app: &mut dyn Application) -> SimStats {
        self.run_events(app);
        self.finish()
    }

    /// The event loop: runs until the queue drains or time runs out.
    fn run_events(&mut self, app: &mut dyn Application) {
        self.call(|ctx| app.start(ctx));
        loop {
            // Merge the failure schedule with the event queue; a parked
            // packet waits for a repair.
            let next = self.queue.next_time();
            let waiting = !self.parked.is_empty();
            if let Some(ev) = self.ledger.live_link_event(next.is_some(), waiting) {
                if next.is_none_or(|t| ev.at_ps <= t) {
                    self.now = self.now.max(ev.at_ps);
                    if self.now > self.cfg.max_time_ps {
                        self.ledger.stats.timed_out = true;
                        break;
                    }
                    if self.ledger.apply_next_link_event(self.now) {
                        self.on_link_event(ev);
                    }
                    continue;
                }
            }
            let Some((t, ev)) = self.queue.pop() else {
                break;
            };
            debug_assert!(t >= self.now, "time went backwards");
            self.now = t;
            if t > self.cfg.max_time_ps {
                self.ledger.stats.timed_out = true;
                break;
            }
            self.ledger.stats.events += 1;
            match ev {
                Event::Arrive(node, port, pkt, gen) => {
                    // A stale incarnation means the packet was dropped on
                    // a failed cable after this event was scheduled; the
                    // retransmitted copy carries a newer stamp.
                    if self.packets[pkt as usize].gen == gen {
                        self.on_arrive(node, port, pkt, app);
                    }
                }
                Event::Retransmit(pkt) => {
                    let src_rank = self.ledger.info(self.packets[pkt as usize].msg).src_rank;
                    let src_node = self.net.endpoints[src_rank as usize];
                    self.nic_push(src_node, pkt);
                    self.pump_nic(src_node);
                }
                Event::PortFree {
                    node,
                    port,
                    msg,
                    bytes,
                    release,
                } => self.on_port_free(node, port, msg, bytes, release, app),
                Event::Compute(rank, tag) => self.call(|ctx| app.on_compute_done(ctx, rank, tag)),
            }
        }
    }

    /// The one path to the application: run `callback` now and apply the
    /// commands it enqueued.
    fn call(&mut self, callback: impl FnOnce(&mut Ctx)) {
        let mut cmds = std::mem::take(&mut self.cmd_scratch);
        callback(&mut Ctx::new(self.now, &mut cmds));
        self.apply_cmds(&mut cmds);
        self.cmd_scratch = cmds;
    }

    /// Close the run: total the link busy time and hand the stats back
    /// through the ledger.
    fn finish(mut self) -> SimStats {
        for n in &self.nodes {
            for p in &n.out {
                self.ledger.stats.total_link_busy_ps += p.busy_ps;
            }
        }
        // Packets still parked at the end never found a healthy path:
        // the ledger reports the disconnection (their messages also count
        // as undelivered).
        let stuck = self
            .parked
            .first()
            .map(|&(_, pkt)| self.packets[pkt as usize].msg);
        self.ledger.finish(self.now, stuck)
    }

    /// React to a scheduled fail/repair event the ledger just applied to
    /// the failure-epoch topology.
    ///
    /// *Fail*: both directed halves of the cable die. Packets queued on
    /// the dead output ports are re-routed immediately (they never left
    /// the switch); packets in flight *on* the cable are lost and
    /// recovered by a sender-side retransmit whose delay follows
    /// [`SimConfig::retransmit`] — a full RTO with capped exponential
    /// backoff for `Timeout`, a short NACK-like turnaround for
    /// `Reroute`. *Repair*: the link returns and parked packets retry.
    fn on_link_event(&mut self, ev: LinkEvent) {
        // Routes changed: every blocked NIC pumps again.
        #[cfg(test)]
        if self.nodes.iter().any(|n| n.nic_blocked.is_some()) {
            self.probe.link_events_while_blocked += 1;
        }
        for n in &mut self.nodes {
            n.nic_blocked = None;
        }
        match ev.kind {
            LinkEventKind::Fail => {
                let peer = self.net.topo.peer(ev.node, ev.port);
                let halves = [(ev.node, ev.port), (peer.node, peer.port)];
                for &(n, p) in &halves {
                    self.evacuate_dead_port(n, p);
                }
                for &(n, p) in &halves {
                    self.drop_in_flight(n, p);
                }
            }
            LinkEventKind::Repair => {
                // Parked packets retry; the still-disconnected ones
                // re-park themselves inside route_and_enqueue.
                let parked = std::mem::take(&mut self.parked);
                for (n, pkt) in parked {
                    self.route_and_enqueue(n, pkt);
                }
            }
        }
    }

    /// A cable half (sender side `node`/`port`) just died: packets still
    /// queued on the output port never left the switch, so they re-route
    /// through the surviving ports; the port's credit-waiter
    /// registrations on the downstream input buffers are withdrawn (no
    /// credit will ever come back over a dead wire).
    fn evacuate_dead_port(&mut self, node: NodeId, port: PortId) {
        // Withdraw waiter registrations: this port can only ever wait on
        // the input slots of its own downstream peer.
        let peer = self.net.topo.peer(node, port);
        for vc in 0..self.num_vcs {
            let slot = peer.port.idx() * self.num_vcs + vc;
            self.nodes[peer.node.idx()].waiters[slot].retain(|&w| w != (node, port));
        }
        self.nodes[node.idx()].out[port.idx()].stalled_mask = 0;
        let mut evacuated: Vec<PacketId> = Vec::new();
        {
            let op = &mut self.nodes[node.idx()].out[port.idx()];
            for q in &mut op.queues {
                evacuated.extend(q.drain(..));
            }
        }
        let mut bytes_total = 0u64;
        for &pkt in &evacuated {
            bytes_total += self.packets[pkt as usize].bytes as u64;
        }
        {
            let op = &mut self.nodes[node.idx()].out[port.idx()];
            debug_assert_eq!(op.queued_bytes, bytes_total);
            op.queued_bytes = 0;
        }
        self.nodes[node.idx()].out_bytes_total -= bytes_total;
        for pkt in evacuated {
            self.route_and_enqueue(node, pkt);
        }
    }

    /// Drop the packets currently on the wire toward (`node`, `port`) —
    /// they reserved that input buffer at transmit time — and schedule
    /// their sender-side retransmission.
    fn drop_in_flight(&mut self, node: NodeId, port: PortId) {
        for pkt in 0..self.packets.len() as PacketId {
            let held = self.packets[pkt as usize].held;
            let in_flight = self.packets[pkt as usize].in_flight;
            let (hn, hp, hvc) = match held {
                Some(h) if in_flight && (h.0, h.1) == (node, port) => h,
                _ => continue,
            };
            let bytes = self.packets[pkt as usize].bytes as u64;
            // The reserved downstream buffer never fills: hand the credit
            // back (its waiters were withdrawn by `evacuate_dead_port`).
            self.release_buffer(hn, hp, hvc, bytes);
            let msg = self.packets[pkt as usize].msg;
            let delay = {
                let m = &mut self.msgs[msg as usize];
                m.retransmits += 1;
                match self.cfg.retransmit {
                    RetransmitPolicy::Timeout => {
                        RTO_BASE_PS << m.retransmits.saturating_sub(1).min(RTO_BACKOFF_CAP)
                    }
                    // NACK-like: the drop is signalled back to the sender
                    // after a couple of hop turnarounds.
                    RetransmitPolicy::Reroute => 4 * crate::HOP_LATENCY_PS,
                }
            };
            {
                let p = &mut self.packets[pkt as usize];
                p.held = None;
                p.in_flight = false;
                p.gen = p.gen.wrapping_add(1); // invalidate the stale Arrive
                p.vc = 0;
                p.waypoint = None;
            }
            self.ledger.packet_retransmit(msg, delay, self.now);
            self.queue.push(self.now + delay, Event::Retransmit(pkt));
        }
    }

    fn apply_cmds(&mut self, cmds: &mut Vec<Cmd>) {
        // Commands may recursively produce more commands (e.g. a send whose
        // completion callback fires instantly is impossible — sends take
        // time — but computes with 0 ps are executed inline).
        while let Some(cmd) = cmds.pop() {
            match cmd {
                Cmd::Send {
                    src,
                    dst,
                    bytes,
                    tag,
                } => self.start_send(src, dst, bytes, tag),
                Cmd::Compute { rank, ps, tag } => {
                    self.queue.push(self.now + ps, Event::Compute(rank, tag));
                }
            }
        }
    }

    fn start_send(&mut self, src: u32, dst: u32, bytes: u64, tag: u64) {
        let msg_id = self.ledger.sent(src, dst, bytes, tag, self.now);
        let src_node = self.net.endpoints[src as usize];
        let dst_node = self.net.endpoints[dst as usize];
        let num_packets = bytes.div_ceil(crate::PACKET_BYTES) as u32;
        self.msgs.push(MsgState {
            num_packets,
            delivered_packets: 0,
            injected_packets: 0,
            retransmits: 0,
        });
        let mut remaining = bytes;
        for _ in 0..num_packets {
            let sz = remaining.min(crate::PACKET_BYTES) as u32;
            remaining -= sz as u64;
            let waypoint = if self.cfg.use_waypoints {
                let probe = EngineProbe { nodes: &self.nodes };
                self.net.router.select_waypoint(
                    &self.ledger.topo,
                    src_node,
                    dst_node,
                    &probe,
                    &mut self.rng,
                )
            } else {
                None
            };
            let pkt = self.alloc_packet(PacketState {
                msg: msg_id,
                bytes: sz,
                vc: 0,
                dst_node,
                waypoint,
                held: None,
                in_flight: false,
                gen: 0,
            });
            self.nic_push(src_node, pkt);
        }
        self.pump_nic(src_node);
    }

    /// Append `pkt` to `node`'s NIC queue. Its route class may accept it,
    /// so the NIC is no longer blocked.
    fn nic_push(&mut self, node: NodeId, pkt: PacketId) {
        let ns = &mut self.nodes[node.idx()];
        ns.nic_pending.push_back(pkt);
        ns.nic_blocked = None;
    }

    fn alloc_packet(&mut self, st: PacketState) -> PacketId {
        if let Some(id) = self.free_packets.pop() {
            // Preserve-and-bump the slot's incarnation stamp so an
            // `Arrive` scheduled for the retired occupant can never be
            // mistaken for the new one.
            let gen = self.packets[id as usize].gen.wrapping_add(1);
            self.packets[id as usize] = st;
            self.packets[id as usize].gen = gen;
            id
        } else {
            self.packets.push(st);
            (self.packets.len() - 1) as PacketId
        }
    }

    /// Move packets from the NIC injection queue into output queues while
    /// the injection window has room. A packet whose preferred output port
    /// is already full (per-port window) is deferred — rotated to the back
    /// of the queue — so that concurrent flows on different ports are not
    /// head-of-line blocked behind each other at the NIC.
    ///
    /// The topology cannot change inside a pump, so the packets of one
    /// route class — `(target, vc)` — share one candidate set, routed
    /// once per pump; each packet is checked against the live queue
    /// lengths of its class's ports. A pass over the whole queue that
    /// leaves every class it met full blocks the NIC
    /// ([`NodeState::nic_blocked`]), and pumps return at once until
    /// something that could let a packet in happens. Skipping is exact: a
    /// pass that defers every packet rotates the queue by its own length,
    /// draws no random number, and only clears waypoints already reached,
    /// which the pass that blocked the NIC did.
    fn pump_nic(&mut self, node: NodeId) {
        #[cfg(test)]
        if self.probe.per_packet {
            return self.pump_nic_per_packet(node);
        }
        if self.nodes[node.idx()].nic_blocked.is_some() {
            #[cfg(test)]
            {
                self.probe.skipped += 1;
            }
            return;
        }
        let mut classes = std::mem::take(&mut self.classes);
        classes.clear();
        let mut attempts = self.nodes[node.idx()].nic_pending.len();
        let mut whole_pass = true;
        while attempts > 0 {
            attempts -= 1;
            let ns = &mut self.nodes[node.idx()];
            if ns.out_bytes_total >= self.cfg.nic_window_bytes {
                whole_pass = false;
                break;
            }
            let Some(pkt) = ns.nic_pending.pop_front() else {
                break;
            };
            let (target, vc) = self.class_of(node, pkt);
            let range = match classes.find(target, vc) {
                Some(range) => range,
                None => {
                    self.route(node, target, vc, &mut classes.cand);
                    classes.push(target, vc)
                }
            };
            let hops = &classes.hops[range];
            if self.min_queued(node, hops) >= self.cfg.nic_port_window_bytes {
                self.nodes[node.idx()].nic_pending.push_back(pkt);
                #[cfg(test)]
                {
                    self.probe.deferred += 1;
                }
            } else if hops.is_empty() {
                // No healthy path: abandon the waypoint or park.
                self.route_and_enqueue(node, pkt);
            } else {
                self.pick_and_enqueue(node, pkt, hops);
            }
        }
        if whole_pass {
            self.nodes[node.idx()].nic_blocked = self.blocked_ports(node, &classes);
        }
        self.classes = classes;
    }

    /// After a pass over the whole NIC queue: the union of the candidate
    /// ports of the classes it met, if every one of those ports is at or
    /// over the per-port window; `None` if some class can still inject or
    /// the queue is empty.
    fn blocked_ports(&self, node: NodeId, classes: &RouteClasses) -> Option<u64> {
        if self.nodes[node.idx()].nic_pending.is_empty() {
            return None;
        }
        let mut ports = 0;
        for (_, _, range) in &classes.classes {
            let hops = &classes.hops[range.clone()];
            if self.min_queued(node, hops) < self.cfg.nic_port_window_bytes {
                return None;
            }
            ports |= hops.iter().fold(0, |m, h| m | port_bit(h.port));
        }
        Some(ports)
    }

    /// The fewest bytes queued on any of `hops`' output ports at `node`
    /// (0 for no candidates).
    fn min_queued(&self, node: NodeId, hops: &[Hop]) -> u64 {
        let out = &self.nodes[node.idx()].out;
        hops.iter()
            .map(|h| out[h.port.idx()].queued_bytes)
            .min()
            .unwrap_or(0)
    }

    /// The routing step: `node`'s hops toward `target` on `vc`, into `out`
    /// (which [`hxnet::Router::next_hops`] clears first).
    fn route(&self, node: NodeId, target: NodeId, vc: u8, out: &mut Vec<Hop>) {
        self.net
            .router
            .next_hops(&self.ledger.topo, node, vc, target, out);
    }

    /// The route class of `pkt` at `node`: its target — the waypoint
    /// while one is active, the destination after — and its VC. A
    /// waypoint `node` has reached is cleared first.
    fn class_of(&mut self, node: NodeId, pkt: PacketId) -> (NodeId, u8) {
        let p = &mut self.packets[pkt as usize];
        if let Some(w) = p.waypoint {
            if self.net.router.waypoint_reached(&self.ledger.topo, node, w) {
                p.waypoint = None;
            }
        }
        (p.waypoint.unwrap_or(p.dst_node), p.vc)
    }

    /// Route `pkt` at `node` and append it to the chosen output queue.
    /// A packet with no healthy path — its target is disconnected by the
    /// current failure set — is *parked* (keeping whatever input buffer
    /// it occupies) until a scheduled repair re-routes it; a waypoint
    /// the failures cut off is abandoned in favor of the direct path
    /// first.
    fn route_and_enqueue(&mut self, node: NodeId, pkt: PacketId) {
        let (target, vc) = self.class_of(node, pkt);
        debug_assert_ne!(node, target, "routing a packet already at its target");
        let mut cand = std::mem::take(&mut self.cand);
        self.route(node, target, vc, &mut cand);
        if cand.is_empty() {
            self.cand = cand;
            if self.packets[pkt as usize].waypoint.take().is_some()
                && node != self.packets[pkt as usize].dst_node
            {
                return self.route_and_enqueue(node, pkt);
            }
            self.parked.push((node, pkt));
            return;
        }
        self.pick_and_enqueue(node, pkt, &cand);
        self.cand = cand;
    }

    /// Append `pkt` to the best of its (non-empty) candidates at `node`
    /// and try to transmit.
    fn pick_and_enqueue(&mut self, node: NodeId, pkt: PacketId, cand: &[Hop]) {
        // Score: free downstream credits minus our queued bytes.
        let mut best = 0usize;
        let mut best_score = i64::MIN;
        let mut ties = 0u32;
        for (i, h) in cand.iter().enumerate() {
            let peer = self.net.topo.peer(node, h.port);
            let occ =
                self.nodes[peer.node.idx()].in_occ[peer.port.idx() * self.num_vcs + h.vc as usize];
            let free = self.cfg.buffer_bytes.saturating_sub(occ) as i64;
            let score = free - self.nodes[node.idx()].out[h.port.idx()].queued_bytes as i64;
            if score > best_score {
                best = i;
                best_score = score;
                ties = 1;
            } else if score == best_score {
                // Reservoir-sample among ties for unbiased adaptivity.
                ties += 1;
                if self.rng.random_range(0..ties) == 0 {
                    best = i;
                }
            }
        }
        let hop = cand[best];
        let bytes = self.packets[pkt as usize].bytes as u64;
        self.packets[pkt as usize].vc = hop.vc;
        let ns = &mut self.nodes[node.idx()];
        ns.out[hop.port.idx()].queues[hop.vc as usize].push_back(pkt);
        ns.out[hop.port.idx()].queued_bytes += bytes;
        ns.out_bytes_total += bytes;
        self.try_transmit(node, hop.port);
    }

    /// Attempt to transmit a head packet of (node, port): round-robin over
    /// the per-VC queues, skipping VCs without downstream credit (those
    /// register as waiters) so one blocked VC never blocks the others.
    fn try_transmit(&mut self, node: NodeId, port: PortId) {
        {
            let op = &self.nodes[node.idx()].out[port.idx()];
            if op.busy_until > self.now {
                return;
            }
        }
        let link = *self.net.topo.link(node, port);
        let peer = link.peer;
        let nvc = self.num_vcs as u8;
        let start = self.nodes[node.idx()].out[port.idx()].rr;
        let mut chosen: Option<(PacketId, u64, u8)> = None;
        for k in 0..nvc {
            let vc = (start + k) % nvc;
            let Some(&pkt) = self.nodes[node.idx()].out[port.idx()].queues[vc as usize].front()
            else {
                continue;
            };
            debug_assert_eq!(self.packets[pkt as usize].vc, vc);
            let bytes = self.packets[pkt as usize].bytes as u64;
            let slot = peer.port.idx() * self.num_vcs + vc as usize;
            if self.nodes[peer.node.idx()].in_occ[slot] + bytes > self.cfg.buffer_bytes {
                // No credit on this VC: register once, try the next VC.
                let op = &mut self.nodes[node.idx()].out[port.idx()];
                if op.stalled_mask & (1 << vc) == 0 {
                    op.stalled_mask |= 1 << vc;
                    self.nodes[peer.node.idx()].waiters[slot].push((node, port));
                    self.ledger.packet_stall(node, port, vc, self.now);
                }
                continue;
            }
            chosen = Some((pkt, bytes, vc));
            break;
        }
        let Some((pkt, bytes, vc)) = chosen else {
            return;
        };
        // Reserve downstream space and ship it.
        let slot = peer.port.idx() * self.num_vcs + vc as usize;
        self.nodes[peer.node.idx()].in_occ[slot] += bytes;
        let ser = (bytes as f64 * link.spec.ps_per_byte).round() as u64;
        {
            let ns = &mut self.nodes[node.idx()];
            let op = &mut ns.out[port.idx()];
            op.queues[vc as usize].pop_front();
            op.queued_bytes -= bytes;
            op.busy_until = self.now + ser;
            op.busy_ps += ser;
            op.rr = (vc + 1) % nvc;
            // A blocked NIC pumps again once one of its ports drains
            // below the per-port window.
            if let Some(ports) = ns.nic_blocked {
                if op.queued_bytes < self.cfg.nic_port_window_bytes && ports & port_bit(port) != 0 {
                    ns.nic_blocked = None;
                }
            }
            ns.out_bytes_total -= bytes;
        }
        self.ledger.stats.packets_forwarded += 1;
        self.ledger.stats.node_forwarded[node.idx()] += 1;
        // The packet now holds the downstream buffer; remember the buffer
        // it held before so PortFree can release it after serialization.
        let prev_held = self.packets[pkt as usize]
            .held
            .replace((peer.node, peer.port, vc));
        self.packets[pkt as usize].in_flight = true;
        let msg = self.packets[pkt as usize].msg;
        self.queue.push(
            self.now + ser,
            Event::PortFree {
                node,
                port,
                msg,
                bytes: bytes as u32,
                release: prev_held,
            },
        );
        // Virtual cut-through: the packet becomes routable downstream after
        // one flit plus wire latency; the link still carries every byte.
        let fwd_ser = (bytes.min(crate::FLIT_BYTES) as f64 * link.spec.ps_per_byte).round() as u64;
        let gen = self.packets[pkt as usize].gen;
        self.queue.push(
            self.now + fwd_ser + link.spec.latency_ps + crate::HOP_LATENCY_PS,
            Event::Arrive(peer.node, peer.port, pkt, gen),
        );
    }

    fn on_port_free(
        &mut self,
        node: NodeId,
        port: PortId,
        msg: MsgId,
        bytes: u32,
        release: Option<(NodeId, PortId, u8)>,
        app: &mut dyn Application,
    ) {
        // Release the buffer the packet occupied before this hop.
        if let Some((hn, hp, hvc)) = release {
            self.release_buffer(hn, hp, hvc, bytes as u64);
        } else {
            // First hop: the packet left the source NIC. Account injection.
            let m = &mut self.msgs[msg as usize];
            m.injected_packets += 1;
            if m.injected_packets == m.num_packets {
                let info = self.ledger.info(msg);
                self.call(|ctx| app.on_send_complete(ctx, info));
            }
        }
        // Output queue space was freed: the local NIC (if any) may inject.
        // Accelerators also forward transit traffic (HxMesh/torus), so this
        // must run for every departure, not just first hops.
        self.pump_nic(node);
        self.try_transmit(node, port);
    }

    fn release_buffer(&mut self, node: NodeId, port: PortId, vc: u8, bytes: u64) {
        let slot = port.idx() * self.num_vcs + vc as usize;
        let ns = &mut self.nodes[node.idx()];
        debug_assert!(ns.in_occ[slot] >= bytes, "buffer accounting underflow");
        ns.in_occ[slot] -= bytes;
        // Rotate the waiter list through the scratch buffer: the slot gets
        // the (empty) scratch, we drain the old list, and its capacity
        // becomes the next scratch — no allocation in steady state. The
        // swap (rather than iterating in place) is required because
        // `try_transmit` may push new waiters onto this very slot.
        let mut waiters = std::mem::take(&mut self.waiter_scratch);
        debug_assert!(waiters.is_empty());
        std::mem::swap(&mut waiters, &mut self.nodes[node.idx()].waiters[slot]);
        let vc_bit = 1u8 << (slot % self.num_vcs) as u8;
        for (wn, wp) in waiters.drain(..) {
            self.nodes[wn.idx()].out[wp.idx()].stalled_mask &= !vc_bit;
            self.try_transmit(wn, wp);
        }
        self.waiter_scratch = waiters;
    }

    fn on_arrive(&mut self, node: NodeId, port: PortId, pkt: PacketId, app: &mut dyn Application) {
        self.packets[pkt as usize].in_flight = false;
        let dst = self.packets[pkt as usize].dst_node;
        if node == dst {
            // Ejection: free the buffer immediately and deliver.
            let (bytes, vc, msg) = {
                let p = &self.packets[pkt as usize];
                (p.bytes as u64, p.vc, p.msg)
            };
            if let Some((hn, hp, hvc)) = self.packets[pkt as usize].held.take() {
                debug_assert_eq!((hn, hvc), (node, vc));
                debug_assert_eq!(hp, port);
                self.release_buffer(hn, hp, hvc, bytes);
            }
            self.free_packets.push(pkt);
            self.ledger.stats.bytes_delivered += bytes;
            let m = &mut self.msgs[msg as usize];
            m.delivered_packets += 1;
            if m.delivered_packets == m.num_packets {
                // A packet-level flow drains as its last packet arrives.
                self.ledger.drained(msg, self.now);
                let info = self.ledger.delivered(msg, self.now);
                self.call(|ctx| app.on_message(ctx, info));
            }
            return;
        }
        // Transit: pick the next hop. The packet keeps occupying this input
        // buffer (reserved at upstream transmit time) until it moves on.
        self.route_and_enqueue(node, pkt);
    }
}

struct EngineProbe<'a> {
    nodes: &'a [NodeState],
}

impl LoadProbe for EngineProbe<'_> {
    fn queued_bytes(&self, node: NodeId, port: PortId) -> u64 {
        self.nodes[node.idx()].out[port.idx()].queued_bytes
    }
}

/// What the NIC pump did, for the differential tests: they switch the
/// engine to the per-packet pump it replaced and check that the class
/// pump deferred packets, skipped pumps and saw link events while a NIC
/// was blocked.
#[cfg(test)]
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct PumpProbe {
    /// Run the per-packet oracle pump instead of the class pump.
    pub(crate) per_packet: bool,
    pub(crate) deferred: u64,
    pub(crate) skipped: u64,
    pub(crate) link_events_while_blocked: u64,
}

#[cfg(test)]
impl Engine<'_> {
    /// [`Engine::run`] with the NIC pump `probe` set, returning what the
    /// pump recorded as well.
    pub(crate) fn run_probed(
        mut self,
        probe: PumpProbe,
        app: &mut dyn Application,
    ) -> (SimStats, PumpProbe) {
        self.probe = probe;
        self.run_events(app);
        let probe = self.probe;
        (self.finish(), probe)
    }

    /// The per-packet pump the class pump replaced: it routes every
    /// queued packet on every pump, and an accepted one twice. Kept as
    /// the oracle of the differential tests (`tests_pump.rs`).
    fn pump_nic_per_packet(&mut self, node: NodeId) {
        let mut attempts = self.nodes[node.idx()].nic_pending.len();
        while attempts > 0 {
            attempts -= 1;
            let ns = &mut self.nodes[node.idx()];
            if ns.out_bytes_total >= self.cfg.nic_window_bytes {
                return;
            }
            let Some(pkt) = ns.nic_pending.pop_front() else {
                return;
            };
            let (target, vc) = self.class_of(node, pkt);
            let mut cand = std::mem::take(&mut self.cand);
            self.route(node, target, vc, &mut cand);
            let full = self.min_queued(node, &cand) >= self.cfg.nic_port_window_bytes;
            self.cand = cand;
            if full {
                self.nodes[node.idx()].nic_pending.push_back(pkt);
            } else {
                self.route_and_enqueue(node, pkt);
            }
        }
    }
}
