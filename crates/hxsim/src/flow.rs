//! Flow-level fluid simulation engine — the fast path.
//!
//! Instead of moving individual packets through buffered switches, this
//! backend models every in-flight message as a *fluid flow* spread over a
//! small set of routes (one per minimal first-hop candidate, plus one set
//! per router-provided waypoint class — e.g. the HxMesh column-first
//! path). Link bandwidth is shared between the routes crossing it by
//! **max-min fairness** (progressive filling); a message drains at the sum
//! of its routes' fair shares, mirroring how the packet engine sprays
//! packets over all minimal paths. Simulated time advances in
//! *rate-change epochs*: the engine jumps directly to the next instant at
//! which the allocation can change (a message drains, a delivery or a
//! compute completes) instead of executing per-packet events.
//!
//! ## Fidelity trade-offs versus the packet engine
//!
//! * Routes are fixed at injection; the packet engine re-balances every
//!   packet against live queue depths.
//! * No buffer occupancy, credit stalls, or head-of-line blocking: links
//!   are ideal rate servers, so congestion spreads instantaneously.
//! * Propagation and per-hop pipeline latency are charged once per message
//!   (after the last byte drains) instead of per packet, which
//!   under-reports pipelining for multi-packet messages on long paths.
//!
//! In exchange the run time is proportional to the number of rate-change
//! epochs (~2 per message), independent of message size — per-packet
//! events make the packet engine's cost grow linearly with bytes. At
//! paper scale (Figs. 11-13: MiB-sized transfers over 1,024+ endpoints)
//! this is the difference between minutes and seconds. Completion times
//! agree with the packet engine within the cross-validation tolerance
//! asserted in `tests/flow_vs_packet.rs` and documented in the README.
//!
//! ## O(affected) incremental rate solving
//!
//! Max-min allocations decompose over the connected components of the
//! *link-sharing graph* (flows as nodes, an edge wherever two flows cross
//! the same directed link): filling one component never reads a link of
//! another. The solver exploits that by refilling, on each epoch, only
//! the components reachable from a *change seed* — a flow activated since
//! the last solve (new send, NIC un-gating) or a link where a drain
//! retired a shared subscription. Everything else keeps its rates. This
//! generalizes the PR 5 disjoint-drain skip from "no shared link anywhere"
//! to "recompute only where sharing changed"; on large symmetric patterns
//! almost every epoch touches a small component, which is what makes
//! 16k-endpoint sweeps tractable (see the `flow_scale` step of a full
//! `perf_smoke` run; `--quick` shrinks it to 1,024 endpoints).
//! [`RateMode::Full`] widens every solve to all components; since
//! `FlowEngine::fill_component` is a pure function of component
//! membership, the widened solve recomputes identical bit patterns for
//! unchanged components, and the two modes stay bitwise-equivalent —
//! `tests/flow_incremental_equiv.rs` pins that differentially.
//!
//! ## Fault injection: frozen failure sets and mid-run link events
//!
//! Routes avoid links marked failed via [`hxnet::Topology::fail_link`]
//! exactly like the packet engine does, because both take their first-hop,
//! transit, and waypoint hops from the same failure-aware
//! [`hxnet::Router::next_hops`], so the multipath route sets built here
//! contain only healthy links and the two engines agree on which paths
//! exist. Waypoint classes the failure set cuts off are dropped by
//! `Router::waypoint_options` before any subflow is built over them.
//!
//! Beyond the frozen (pre-run) failure set, [`SimConfig::failures`] can
//! carry a [`crate::FailureSchedule`] of *in-run* fail/repair events. The
//! run ledger this engine shares with the packet engine (`ledger.rs`)
//! holds the schedule and the failure-epoch topology, a private copy of
//! the network's, and applies, counts and traces each event at its
//! instant, merged into the rate-change epoch loop. What stays here is
//! the reaction, for which a cable failure is just another change seed
//! for the O(affected) incremental solver. Flows whose route set crosses
//! the dead cable bank their already-carried bytes into the traffic
//! stats (exactly the drain-time flush) and re-route over the
//! failure-epoch topology; flows the event leaves with no healthy path
//! *stall* — they hold their remaining bytes off the network, accumulate
//! [`SimStats::flow_stall_ps`], and resume when a scheduled repair
//! reconnects them. Routes are still fixed at
//! (re-)injection: a repair does not pull already-routed flows back onto
//! the shorter healthy path, mirroring how real fabrics leave
//! established routes alone until the next path computation. A run that
//! ends with stalled flows reports [`crate::SimError::Disconnected`]
//! instead of panicking; the same applies to a send injected while its
//! destination is unreachable.

use crate::app::{Application, Cmd, Ctx};
use crate::failure::LinkEventKind;
use crate::ledger::{Ledger, MsgId};
use crate::stats::SimStats;
use crate::{EventQueue, RateMode, SimConfig, Time};
use fill::Fill;
use hxnet::route::Hop;
use hxnet::{Network, NodeId, PortId, Topology};
use std::borrow::Cow;

mod fill;

type FlowId = u32;

/// Bytes below which a flow counts as drained (float slop guard).
const DRAIN_EPS: f64 = 1e-3;

/// Epoch coalescing: drains and timed events within this *relative* window
/// of the epoch instant are processed together, so waves of
/// near-simultaneous completions (staggered by float-level rate
/// differences, e.g. the per-step chunks of a pipelined ring) cost one
/// rate recomputation instead of hundreds. Bounds the per-event timing
/// error at 0.1% of elapsed simulated time — two orders of magnitude
/// below the flow-vs-packet cross-validation tolerance.
const COALESCE_REL: f64 = 1e-3;

/// Absolute floor of the coalescing window, in picoseconds (1 ns).
const COALESCE_ABS_PS: f64 = 1_000.0;

/// One route of a flow: dense directed-link indices, the current max-min
/// share, and the bytes it has carried so far (for traffic accounting).
struct Route {
    links: Vec<u32>,
    rate: f64,
    carried: f64,
}

/// One in-flight message, fluid over its set of routes.
struct FlowState {
    msg: MsgId,
    routes: Vec<Route>,
    /// Worst-case route latency: propagation + per-hop pipeline latency.
    latency_ps: u64,
    remaining: f64,
    /// Aggregate rate over all routes in bytes/ps.
    rate: f64,
    /// Waiting in the NIC injection queues (see `inj_queue`), not draining.
    gated: bool,
    /// Message exceeds the per-port NIC window: its packets would
    /// interleave with successors instead of passing as one FIFO burst.
    large: bool,
}

/// Timed events that are not flow drains (those are derived from rates).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
enum Event {
    /// A drained message's last byte reaches the destination.
    Deliver(MsgId),
    /// Application compute finished on (rank, tag).
    Compute(u32, u64),
}

/// Queue key ordering f64 times; all simulation times are finite and >= 0.
#[derive(Clone, Copy, PartialEq, Debug)]
pub(crate) struct TimeKey(pub(crate) f64);

impl Eq for TimeKey {}

impl PartialOrd for TimeKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for TimeKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// The flow-level simulation engine, borrowed over a [`Network`].
///
/// Drop-in interchangeable with the packet-level [`crate::Engine`]: same
/// constructor shape, same [`Application`] surface, same [`SimStats`] out.
pub struct FlowEngine<'n> {
    net: &'n Network,
    cfg: SimConfig,
    now: f64,
    queue: EventQueue<TimeKey, Event>,
    flows: Vec<FlowState>,
    free_flows: Vec<FlowId>,
    /// Flows currently draining.
    active: Vec<FlowId>,
    /// Dense directed-link index: `port_base[node] + port`.
    port_base: Vec<usize>,
    /// The node that owns each directed link, for stats attribution.
    link_owner: Vec<NodeId>,
    /// Per directed link: capacity in bytes/ps (from the link spec).
    link_cap: Vec<f64>,
    /// Per directed link: number of active routes crossing it.
    link_nflows: Vec<u32>,
    /// Max-min fill scratch, recycled across fills.
    fill: Fill,
    /// The flows of the component being filled (buffer recycled across
    /// fills): the component walk's queue, then its canonical order.
    comp: Vec<FlowId>,
    /// Per directed link: the *draining* (active, un-gated) flows that
    /// cross it — the incidence side of the link-sharing graph the
    /// incremental solver walks. Gated flows are absent: they hold no
    /// rate and do not constrain the fill. One entry per flow no matter
    /// how many of its routes cross the link.
    link_flows: Vec<Vec<FlowId>>,
    /// Change seeds accumulated since the last solve: flows activated
    /// (new sends and NIC un-gatings) ...
    seed_flows: Vec<FlowId>,
    /// ... and links where a drain retired a shared subscription.
    seed_links: Vec<u32>,
    /// Visited stamps, lazily invalidated by bumping `comp_gen`: the
    /// component walk's, and between solves [`Self::activate`]'s link
    /// dedup.
    flow_seen: Vec<u32>,
    link_seen: Vec<u32>,
    comp_gen: u32,
    /// NIC injection FIFO per directed link (indexed like `link_cap`; only
    /// endpoint injection ports are ever populated). Mirrors the packet
    /// engine's per-port NIC window: a message that fits the window
    /// traverses the port as one FIFO burst, so flows queued behind it
    /// wait for its drain — that serialization is what keeps
    /// dependency-chained pipelines (ring collectives) honest. Messages
    /// larger than the window interleave packet-by-packet in the packet
    /// engine, so flows behind them fair-share immediately.
    inj_queue: Vec<Vec<FlowId>>,
    /// Recycled route link-vectors and route sets, to keep the
    /// per-message path allocation-free in steady state.
    spare_links: Vec<Vec<u32>>,
    spare_routes: Vec<Vec<Route>>,
    /// Scratch for a route class's first-hop candidates.
    first_cand: Vec<Hop>,
    /// Scratch for the routing walk's candidates at each later hop.
    cand: Vec<Hop>,
    /// Scratch for the routing walk's visited nodes.
    visited: Vec<NodeId>,
    /// Scratch for waypoint classes.
    waypoints: Vec<NodeId>,
    /// Scratch for the commands of one application callback
    /// ([`Self::call`]) or of an epoch's drain batch.
    cmds: Vec<Cmd>,
    /// Scratch for the gated flows a NIC queue release may let through.
    nic_cand: Vec<FlowId>,
    /// The stats, the messages, the failure-epoch topology with its
    /// schedule cursor, and the telemetry, kept the same way as the
    /// packet engine keeps them (see `ledger.rs`).
    ledger: Ledger<'n>,
    /// Flows whose rate bit pattern changed in the current epoch.
    epoch_changed: u64,
    /// Flows with no healthy path, as `(flow, stall start instant)`.
    /// Retried on every repair; still-stalled entries at the end of the
    /// run surface as [`crate::SimError::Disconnected`].
    stalled: Vec<(FlowId, f64)>,
}

impl<'n> FlowEngine<'n> {
    pub fn new(net: &'n Network, mut cfg: SimConfig) -> Self {
        let mut port_base = Vec::with_capacity(net.topo.num_nodes() + 1);
        let mut total = 0usize;
        for (_, n) in net.topo.nodes() {
            port_base.push(total);
            total += n.ports.len();
        }
        port_base.push(total);
        let mut link_cap = vec![0.0; total];
        let mut link_owner = vec![NodeId(0); total];
        for (id, n) in net.topo.nodes() {
            for (p, link) in n.ports.iter().enumerate() {
                link_cap[port_base[id.idx()] + p] = 1.0 / link.spec.ps_per_byte;
                link_owner[port_base[id.idx()] + p] = id;
            }
        }
        Self {
            net,
            now: 0.0,
            queue: EventQueue::default(),
            flows: Vec::new(),
            free_flows: Vec::new(),
            active: Vec::new(),
            port_base,
            link_owner,
            link_cap,
            link_nflows: vec![0; total],
            fill: Fill::default(),
            comp: Vec::new(),
            link_flows: vec![Vec::new(); total],
            seed_flows: Vec::new(),
            seed_links: Vec::new(),
            flow_seen: Vec::new(),
            link_seen: vec![0; total],
            comp_gen: 0,
            inj_queue: vec![Vec::new(); total],
            spare_links: Vec::new(),
            spare_routes: Vec::new(),
            first_cand: Vec::new(),
            cand: Vec::new(),
            visited: Vec::new(),
            waypoints: Vec::new(),
            cmds: Vec::new(),
            nic_cand: Vec::new(),
            ledger: Ledger::new(net, std::mem::take(&mut cfg.failures), "flow"),
            epoch_changed: 0,
            stalled: Vec::new(),
            cfg,
        }
    }

    #[inline]
    fn link_idx(&self, node: NodeId, port: PortId) -> u32 {
        (self.port_base[node.idx()] + port.idx()) as u32
    }

    /// Run the application to completion. Returns the collected statistics.
    pub fn run(mut self, app: &mut dyn Application) -> SimStats {
        self.call(|ctx| app.start(ctx));
        self.recompute_rates();

        loop {
            // Next rate-change instant: earliest flow drain or timed event.
            let mut t_next = f64::INFINITY;
            for &f in &self.active {
                let fl = &self.flows[f as usize];
                if fl.rate > 0.0 {
                    t_next = t_next.min(self.now + fl.remaining / fl.rate);
                }
            }
            if let Some(TimeKey(t)) = self.queue.next_time() {
                t_next = t_next.min(t);
            }
            // Merge the failure schedule into the epoch instants; a
            // stalled flow waits for a repair.
            let waiting = !self.stalled.is_empty();
            if let Some(ev) = self.ledger.live_link_event(t_next.is_finite(), waiting) {
                t_next = t_next.min((ev.at_ps as f64).max(self.now));
            }
            if !t_next.is_finite() {
                break; // no active flows and no events: done (or stuck)
            }
            if t_next > self.cfg.max_time_ps as f64 {
                self.now = self.cfg.max_time_ps as f64;
                self.ledger.stats.timed_out = true;
                break;
            }
            self.ledger.stats.events += 1;

            // Advance every active flow to t_next at its current rates.
            let dt = t_next - self.now;
            self.now = t_next;
            for &f in &self.active {
                let fl = &mut self.flows[f as usize];
                fl.remaining -= fl.rate * dt;
                for r in &mut fl.routes {
                    r.carried += r.rate * dt;
                }
            }

            let quantum = (self.now * COALESCE_REL).max(COALESCE_ABS_PS);
            self.complete_drained_flows(quantum, app);
            self.apply_link_events(quantum);
            self.pop_due_events(quantum, app);
            self.recompute_rates();
        }

        // Flows still stalled when the run ends never found a healthy
        // path: charge their wait; the ledger reports the disconnection
        // (their messages also count as undelivered).
        for &(_f, since) in &self.stalled {
            self.ledger.stats.flow_stall_ps += (self.now - since).max(0.0).round() as u64;
        }
        let stuck = self
            .stalled
            .first()
            .map(|&(f, _)| self.flows[f as usize].msg);
        self.ledger.finish(self.now.round() as Time, stuck)
    }

    /// The one path to the application outside the drain batch: run
    /// `callback` now and apply the commands it enqueued.
    fn call(&mut self, callback: impl FnOnce(&mut Ctx)) {
        let mut cmds = std::mem::take(&mut self.cmds);
        callback(&mut Ctx::new(self.now.round() as Time, &mut cmds));
        self.apply_cmds(&mut cmds);
        self.cmds = cmds;
    }

    /// Retire flows whose bytes have fully drained — or would drain within
    /// the coalescing `quantum` at their current rate (their residual
    /// bytes are credited to the routes, so byte accounting stays exact
    /// and only the completion *instant* moves by < quantum). Fires local
    /// send completion and schedules the latency-delayed delivery.
    ///
    /// An epoch's send completions apply their commands once, after the
    /// last drain: per drain, new sends would reuse other freed flow ids,
    /// changing the canonical fill order and every rate.
    ///
    /// A retirement seeds the next solve only where it can change some
    /// remaining flow's rate: a link it shared with a still-draining flow
    /// ([`Self::flush_routes`]), or a gated flow it released from a NIC
    /// FIFO. A flow whose links all drop to zero draining subscribers
    /// leaves every other flow's constraint set — and hence the max-min
    /// solution — untouched, so its drain seeds nothing and the epoch's
    /// solve fills nothing.
    fn complete_drained_flows(&mut self, quantum: f64, app: &mut dyn Application) {
        let mut cmds = std::mem::take(&mut self.cmds);
        let mut i = 0;
        while i < self.active.len() {
            let f = self.active[i];
            {
                let fl = &mut self.flows[f as usize];
                if fl.remaining > DRAIN_EPS + fl.rate * quantum {
                    i += 1;
                    continue;
                }
                // Credit the not-yet-drained residue to the routes,
                // proportionally to their rates.
                if fl.remaining > 0.0 && fl.rate > 0.0 {
                    let scale = fl.remaining / fl.rate;
                    for r in &mut fl.routes {
                        r.carried += r.rate * scale;
                    }
                }
                fl.remaining = 0.0;
            }
            self.active.swap_remove(i);
            self.release_nic(f, |_| {});
            let fl = &self.flows[f as usize];
            let (msg, latency_ps) = (fl.msg, fl.latency_ps);
            self.flush_routes(f);
            self.free_flows.push(f);

            let now_ps = self.now.round() as Time;
            let info = self.ledger.drained(msg, now_ps);
            app.on_send_complete(&mut Ctx::new(now_ps, &mut cmds), info);
            // The last byte still has to propagate down the route.
            self.queue
                .push(TimeKey(self.now + latency_ps as f64), Event::Deliver(msg));
        }
        self.apply_cmds(&mut cmds);
        self.cmds = cmds;
    }

    /// Bank a flow's carried bytes into the traffic stats and release its
    /// link subscriptions, draining its route set. Shared between drain
    /// retirement and mid-run reroutes (a reroute is an early drain of the
    /// old path followed by a fresh injection over the new one). A
    /// released link that still has draining subscribers is seeded:
    /// their fair share grows now that we left.
    fn flush_routes(&mut self, f: FlowId) {
        let pkt_bytes = crate::PACKET_BYTES as f64;
        let mut routes = std::mem::take(&mut self.flows[f as usize].routes);
        for mut r in routes.drain(..) {
            // Packet-equivalent traffic accounting at drain time; the
            // per-route byte split is what the fluid model carried.
            let pkts = (r.carried / pkt_bytes).ceil() as u64;
            let stats = &mut self.ledger.stats;
            stats.packets_forwarded += pkts * r.links.len() as u64;
            for &li in &r.links {
                let n = self.link_owner[li as usize];
                stats.node_forwarded[n.idx()] += pkts;
                stats.total_link_busy_ps += (r.carried / self.link_cap[li as usize]).round() as u64;
                debug_assert!(self.link_nflows[li as usize] > 0);
                self.link_nflows[li as usize] -= 1;
                // Drop `f` from the link's incidence list (once —
                // later routes revisiting the link find it gone) and
                // seed the link if other draining flows remain. Links
                // whose remaining subscribers are all gated seed
                // nothing — a gated flow holds no rate and constrains
                // no fill.
                let lf = &mut self.link_flows[li as usize];
                if let Some(pos) = lf.iter().position(|&g| g == f) {
                    lf.swap_remove(pos);
                }
                if !lf.is_empty() {
                    self.seed_links.push(li);
                }
            }
            r.links.clear();
            self.spare_links.push(r.links);
        }
        self.spare_routes.push(routes);
    }

    /// Apply every scheduled link event due at the current epoch (within
    /// the coalescing `quantum`, like drains and timed events). The
    /// ledger applies each event to the failure-epoch topology; here a
    /// *fail* reroutes every flow whose route set crosses the dead cable
    /// — banking carried bytes, rebuilding routes over the new topology,
    /// stalling the flow if none exist — and a *repair* retries the
    /// stalled flows.
    fn apply_link_events(&mut self, quantum: f64) {
        while let Some(ev) = self.ledger.next_link_event() {
            if ev.at_ps as f64 > self.now + quantum {
                break;
            }
            if !self.ledger.apply_next_link_event(self.now.round() as Time) {
                continue; // a no-op re-fail or repair
            }
            match ev.kind {
                LinkEventKind::Fail => {
                    // Both directed halves of the cable die together.
                    let li1 = self.link_idx(ev.node, ev.port);
                    let peer = self.net.topo.peer(ev.node, ev.port);
                    let li2 = self.link_idx(peer.node, peer.port);
                    // Every flow with a route over either half must leave
                    // the link. Scanning all flow slots is fine: fail
                    // events are rare and drained/free slots hold empty
                    // route sets.
                    let mut affected: Vec<FlowId> = Vec::new();
                    for (i, fl) in self.flows.iter().enumerate() {
                        if fl
                            .routes
                            .iter()
                            .any(|r| r.links.iter().any(|&l| l == li1 || l == li2))
                        {
                            affected.push(i as FlowId);
                        }
                    }
                    for f in affected {
                        self.reroute_flow(f);
                    }
                }
                LinkEventKind::Repair => {
                    // Retry every stalled flow; those still unreachable
                    // stay stalled (their wait keeps accumulating).
                    let stalled = std::mem::take(&mut self.stalled);
                    for (f, since) in stalled {
                        if self.route_or_stall(f, since) {
                            self.ledger.stats.flow_stall_ps +=
                                (self.now - since).max(0.0).round() as u64;
                        }
                    }
                }
            }
        }
    }

    /// Pull a live flow off a just-failed cable: bank its carried bytes,
    /// release its old subscriptions and NIC queue slots, and re-inject
    /// it over the failure-epoch topology (or stall it if disconnected).
    fn reroute_flow(&mut self, f: FlowId) {
        if !self.flows[f as usize].gated {
            if let Some(pos) = self.active.iter().position(|&g| g == f) {
                self.active.swap_remove(pos);
            }
        }
        // Leave the old NIC injection FIFOs exactly as a drain does, but
        // let successors through only once `f` sits in its new ones.
        self.release_nic(f, |s| {
            s.flush_routes(f);
            let fl = &mut s.flows[f as usize];
            fl.rate = 0.0;
            fl.gated = true;
            if s.route_or_stall(f, s.now) {
                s.ledger
                    .flow_reroute(s.flows[f as usize].msg, s.now.round() as Time);
            }
        });
    }

    /// Take `f` out of the NIC injection FIFOs of its routes' first links,
    /// run `then`, and activate each gated flow queued in those FIFOs
    /// that has routes and may now inject, in queue order.
    fn release_nic(&mut self, f: FlowId, then: impl FnOnce(&mut Self)) {
        let mut candidates = std::mem::take(&mut self.nic_cand);
        candidates.clear();
        for li in Self::first_links(&self.flows[f as usize].routes) {
            let q = &mut self.inj_queue[li as usize];
            let pos = q
                .iter()
                .position(|&g| g == f)
                // hxlint: allow(P001) a flow with routes is always parked in its NIC injection queues
                .expect("flow missing from NIC queue");
            q.remove(pos);
            for &g in q.iter() {
                if self.flows[g as usize].gated && !candidates.contains(&g) {
                    candidates.push(g);
                }
            }
        }
        then(self);
        for &g in &candidates {
            let fl = &self.flows[g as usize];
            if fl.gated && !fl.routes.is_empty() && self.nic_eligible(g) {
                self.activate(g);
            }
        }
        self.nic_cand = candidates;
    }

    /// Build routes for `f`'s message over the failure-epoch topology and
    /// attach them; if the destination is unreachable, park `f` in
    /// `stalled` as waiting since `since` instead. Returns whether `f` got
    /// routes.
    fn route_or_stall(&mut self, f: FlowId, since: f64) -> bool {
        let info = self.ledger.info(self.flows[f as usize].msg);
        let src_node = self.net.endpoints[info.src_rank as usize];
        let dst_node = self.net.endpoints[info.dst_rank as usize];
        let (routes, latency_ps) = self.build_routes(src_node, dst_node);
        if routes.is_empty() {
            self.spare_routes.push(routes);
            self.stalled.push((f, since));
            return false;
        }
        self.attach_routes(f, routes, latency_ps);
        true
    }

    /// Install a freshly built route set on a gated flow: subscribe its
    /// links, park it in the NIC injection FIFOs, and activate it if
    /// nothing window-sized sits ahead.
    fn attach_routes(&mut self, f: FlowId, routes: Vec<Route>, latency_ps: u64) {
        for r in &routes {
            for &li in &r.links {
                self.link_nflows[li as usize] += 1;
            }
        }
        {
            let fl = &mut self.flows[f as usize];
            fl.routes = routes;
            fl.latency_ps = latency_ps;
        }
        let Self {
            flows, inj_queue, ..
        } = self;
        for li in Self::first_links(&flows[f as usize].routes) {
            inj_queue[li as usize].push(f);
        }
        if self.nic_eligible(f) {
            self.activate(f);
        }
    }

    /// Execute all queue events due at the current time, plus any within
    /// the coalescing `quantum` (they fire early by < quantum).
    fn pop_due_events(&mut self, quantum: f64, app: &mut dyn Application) {
        while let Some((_, ev)) = self.queue.pop_due(TimeKey(self.now + quantum)) {
            match ev {
                Event::Deliver(msg) => {
                    let info = self.ledger.delivered(msg, self.now.round() as Time);
                    self.ledger.stats.bytes_delivered += info.bytes;
                    self.call(|ctx| app.on_message(ctx, info));
                }
                Event::Compute(rank, tag) => self.call(|ctx| app.on_compute_done(ctx, rank, tag)),
            }
        }
    }

    fn apply_cmds(&mut self, cmds: &mut Vec<Cmd>) {
        while let Some(cmd) = cmds.pop() {
            match cmd {
                Cmd::Send {
                    src,
                    dst,
                    bytes,
                    tag,
                } => self.start_send(src, dst, bytes, tag),
                Cmd::Compute { rank, ps, tag } => {
                    self.queue
                        .push(TimeKey(self.now + ps as f64), Event::Compute(rank, tag));
                }
            }
        }
    }

    /// Start a message as one fluid flow spread over its route set (one
    /// route per waypoint class x distinct first-hop candidate).
    fn start_send(&mut self, src: u32, dst: u32, bytes: u64, tag: u64) {
        let msg = self
            .ledger
            .sent(src, dst, bytes, tag, self.now.round() as Time);
        let f = self.alloc_flow(FlowState {
            msg,
            routes: Vec::new(),
            latency_ps: 0,
            remaining: bytes as f64,
            rate: 0.0,
            gated: true,
            large: bytes >= self.cfg.nic_port_window_bytes,
        });
        // Subscribe the links and enqueue on the NIC injection FIFOs of
        // the routes' first links; the flow drains once nothing
        // window-sized sits ahead of it. A currently disconnected
        // destination stalls the flow at the NIC until a scheduled repair
        // reconnects it; a run ending with stalled flows reports
        // [`SimError::Disconnected`].
        self.route_or_stall(f, self.now);
    }

    /// Build the multipath route set from `src_node` to `dst_node` over
    /// the ledger's failure-epoch topology: one route per waypoint class
    /// x distinct first-hop candidate. Empty iff the destination is
    /// unreachable.
    fn build_routes(&mut self, src_node: NodeId, dst_node: NodeId) -> (Vec<Route>, u64) {
        let net = self.net;
        // `walk_route` borrows the engine mutably, so the topology steps
        // out of the ledger for the walk.
        let topo = std::mem::replace(&mut self.ledger.topo, Cow::Borrowed(&net.topo));

        // Route classes: direct, plus each router-provided waypoint.
        let mut waypoints = std::mem::take(&mut self.waypoints);
        waypoints.clear();
        if self.cfg.use_waypoints {
            net.router
                .waypoint_options(&topo, src_node, dst_node, &mut waypoints);
        }
        let mut routes = self.spare_routes.pop().unwrap_or_default();
        let mut latency_ps = 0u64;
        let mut firsts = std::mem::take(&mut self.first_cand);
        for class in std::iter::once(None).chain(waypoints.iter().copied().map(Some)) {
            let target = class.unwrap_or(dst_node);
            net.router
                .next_hops(&topo, src_node, 0, target, &mut firsts);
            for (i, h) in firsts.iter().enumerate() {
                // One route per distinct first-hop port.
                if firsts[..i].iter().any(|e| e.port == h.port) {
                    continue;
                }
                let (links, lat) = self.walk_route(&topo, src_node, dst_node, class, *h);
                latency_ps = latency_ps.max(lat);
                routes.push(Route {
                    links,
                    rate: 0.0,
                    carried: 0.0,
                });
            }
        }
        self.first_cand = firsts;
        self.waypoints = waypoints;
        self.ledger.topo = topo;
        (routes, latency_ps)
    }

    /// Activate a flow: mark it draining, register it on the incidence
    /// lists of every distinct link its routes cross, and seed it for the
    /// next solver pass. Activations run between solves, so the dedup
    /// borrows the component walk's link stamps under a fresh `comp_gen`.
    fn activate(&mut self, f: FlowId) {
        self.flows[f as usize].gated = false;
        self.active.push(f);
        self.comp_gen = self.comp_gen.wrapping_add(1);
        let gen = self.comp_gen;
        let fl = &self.flows[f as usize];
        for r in &fl.routes {
            for &li in &r.links {
                let li = li as usize;
                if self.link_seen[li] != gen {
                    self.link_seen[li] = gen;
                    self.link_flows[li].push(f);
                }
            }
        }
        self.seed_flows.push(f);
    }

    /// Distinct first links over a route set (at most 4 routes, so a
    /// linear dedup suffices).
    fn first_links(routes: &[Route]) -> impl Iterator<Item = u32> + '_ {
        routes
            .iter()
            .enumerate()
            .filter(|(i, r)| !routes[..*i].iter().any(|q| q.links[0] == r.links[0]))
            .map(|(_, r)| r.links[0])
    }

    /// Whether `f` may inject: on every NIC FIFO it sits in, all flows
    /// ahead of it are larger than the per-port window (their packets
    /// interleave with ours under the packet engine's NIC pacing, instead
    /// of forming an exclusive FIFO burst we must wait out) *and* headed
    /// for a different destination. Same-destination flows follow the
    /// same route, where the packet engine's per-VC FIFO queues deliver
    /// strictly in issue order — fair-sharing them would stall the
    /// earlier message's delivery (and any pipeline depending on it)
    /// behind the later one's bytes.
    fn nic_eligible(&self, f: FlowId) -> bool {
        let dst_of = |f: FlowId| self.ledger.info(self.flows[f as usize].msg).dst_rank;
        let dst = dst_of(f);
        Self::first_links(&self.flows[f as usize].routes).all(|li| {
            self.inj_queue[li as usize]
                .iter()
                .take_while(|&&g| g != f)
                .all(|&g| self.flows[g as usize].large && dst_of(g) != dst)
        })
    }

    /// Greedily walk the router's candidate graph from `src` to `dst`,
    /// pinned to `first` as the first hop, picking the least-subscribed
    /// candidate link at every subsequent hop (ties to the lowest port id,
    /// keeping the walk deterministic).
    fn walk_route(
        &mut self,
        topo: &Topology,
        src: NodeId,
        dst: NodeId,
        mut waypoint: Option<NodeId>,
        first: Hop,
    ) -> (Vec<u32>, u64) {
        let router = &self.net.router;
        let mut links = self.spare_links.pop().unwrap_or_default();
        let mut visited = std::mem::take(&mut self.visited);
        visited.clear();
        visited.push(src);
        let mut latency_ps = 0u64;
        let mut node = src;
        let mut hop = first;
        let max_hops = 4 * topo.num_nodes();
        loop {
            let link = topo.link(node, hop.port);
            links.push(self.link_idx(node, hop.port));
            latency_ps += link.spec.latency_ps + crate::HOP_LATENCY_PS;
            node = link.peer.node;
            if node == dst {
                break;
            }
            visited.push(node);
            if let Some(w) = waypoint {
                if router.waypoint_reached(topo, node, w) {
                    waypoint = None;
                }
            }
            let target = waypoint.unwrap_or(dst);
            let mut cand = std::mem::take(&mut self.cand);
            router.next_hops(topo, node, hop.vc, target, &mut cand);
            assert!(
                !cand.is_empty(),
                "router produced no candidates at {node:?} (vc {}) toward {target:?} \
                 ({} failed links — target disconnected?)",
                hop.vc,
                topo.count_failed_links()
            );
            // Least-subscribed candidate; ties break to the lowest port.
            // Candidates leading to an already-visited node lose to fresh
            // ones: adaptive candidate sets may contain non-minimal detour
            // hops (e.g. Dragonfly's local hop toward a global port), and a
            // deterministic walk would ping-pong over them forever where
            // the packet engine escapes via randomized tie-breaks.
            let score = |h: &Hop| {
                let revisit = visited.contains(&topo.peer(node, h.port).node);
                (
                    revisit,
                    self.link_nflows[self.link_idx(node, h.port) as usize],
                    h.port,
                )
            };
            let mut best = cand[0];
            let mut best_score = score(&best);
            for h in cand.iter().skip(1) {
                let s = score(h);
                if s < best_score {
                    best = *h;
                    best_score = s;
                }
            }
            self.cand = cand;
            hop = best;
            assert!(
                links.len() < max_hops,
                "routing walk did not terminate on {} ({src:?}->{dst:?})",
                self.net.name
            );
        }
        self.visited = visited;
        (links, latency_ps)
    }

    fn alloc_flow(&mut self, st: FlowState) -> FlowId {
        if let Some(id) = self.free_flows.pop() {
            self.flows[id as usize] = st;
            id
        } else {
            self.flows.push(st);
            (self.flows.len() - 1) as FlowId
        }
    }

    /// Solve max-min rates for every component that could have changed.
    ///
    /// The link-sharing graph splits into connected components whose
    /// allocations are independent: filling one component never reads a
    /// link of another. Every epoch this walks the components reachable
    /// from the change seeds — flows activated since the last solve
    /// (`seed_flows`) and links a retired flow left behind with
    /// surviving subscribers (`seed_links`) — and refills each exactly
    /// once via [`Self::fill_component`]; all other flows keep their
    /// rates, and an epoch without seeds fills nothing. Multiple
    /// same-epoch seeds landing in one component coalesce into a single
    /// fill (the `comp_gen` visited stamps).
    ///
    /// [`RateMode::Full`] widens the walk to every active flow. Because
    /// the fill is a pure function of component membership, and a
    /// component without a seed has unchanged membership, the widened
    /// walk recomputes identical bit patterns for unchanged components —
    /// the idempotence that makes the two modes bitwise-equivalent and
    /// differentially testable. Only the solver-effort counters
    /// (`rate_recomputes`, `rate_recomputes_full`, `rate_touched_flows`,
    /// `rate_fill_rounds`) may differ across modes;
    /// `tests/flow_incremental_equiv.rs` holds everything else, including
    /// the optional per-epoch rate trace, bitwise equal.
    fn recompute_rates(&mut self) {
        let mut filled = 0usize;
        let mut fills = 0u32;
        let has_seeds = !(self.seed_flows.is_empty() && self.seed_links.is_empty());
        if !self.active.is_empty() && has_seeds {
            self.comp_gen = self.comp_gen.wrapping_add(1);
            let gen = self.comp_gen;
            if self.flow_seen.len() < self.flows.len() {
                self.flow_seen.resize(self.flows.len(), gen.wrapping_sub(1));
            }
            if self.cfg.rate_mode == RateMode::Full {
                for i in 0..self.active.len() {
                    let f = self.active[i];
                    if self.flow_seen[f as usize] != gen {
                        filled += self.fill_component_from(f);
                        fills += 1;
                    }
                }
            } else {
                for i in 0..self.seed_flows.len() {
                    let f = self.seed_flows[i];
                    let fl = &self.flows[f as usize];
                    // A seed may have drained (or had its id recycled)
                    // within the same coalesced epoch; only flows that
                    // are still draining anchor a component walk.
                    if fl.gated || fl.routes.is_empty() || self.flow_seen[f as usize] == gen {
                        continue;
                    }
                    filled += self.fill_component_from(f);
                    fills += 1;
                }
                for i in 0..self.seed_links.len() {
                    let li = self.seed_links[i] as usize;
                    for j in 0..self.link_flows[li].len() {
                        let g = self.link_flows[li][j];
                        if self.flow_seen[g as usize] != gen {
                            filled += self.fill_component_from(g);
                            fills += 1;
                        }
                    }
                }
            }
        }
        self.seed_flows.clear();
        self.seed_links.clear();
        if fills > 0 {
            let stats = &mut self.ledger.stats;
            stats.rate_recomputes += 1;
            stats.rate_touched_flows += filled as u64;
            if filled == self.active.len() {
                stats.rate_recomputes_full += 1;
            }
        }
        // Telemetry counts flows whose rate *bit pattern changed* this
        // epoch — not the solver-effort counters above, which depend on
        // [`RateMode`]. A component refilled to identical bits (the Full
        // mode's widened walk) contributes nothing, so this count — and
        // the `rate_epoch` trace — is bitwise mode-invariant.
        self.ledger
            .rate_epoch(self.epoch_changed, self.now.round() as Time);
        self.epoch_changed = 0;
        if self.cfg.trace_rates {
            self.record_rate_trace();
        }
    }

    /// Append one epoch's `(time, msg, rate)` snapshot of every active
    /// flow to [`SimStats::rate_trace`], sorted by msg id within the
    /// epoch. Recorded on *every* epoch (not just epochs that filled
    /// something) because epochs are mode-independent while fill counts
    /// are not — that keeps the traces of the two solver modes
    /// index-aligned for the bitwise comparison.
    fn record_rate_trace(&mut self) {
        let t = self.now.to_bits();
        let trace = &mut self.ledger.stats.rate_trace;
        let start = trace.len();
        for &f in &self.active {
            let fl = &self.flows[f as usize];
            trace.push((t, fl.msg, fl.rate.to_bits()));
        }
        trace[start..].sort_unstable();
    }

    /// Walk the connected component containing flow `f` over the link ↔
    /// draining-flow incidence and refill it. Returns the component's
    /// flow count. Visited stamps are `comp_gen`-scoped, so a component
    /// fills at most once per epoch no matter how many seeds land in it.
    fn fill_component_from(&mut self, f: FlowId) -> usize {
        let gen = self.comp_gen;
        let Self {
            flows,
            link_flows,
            flow_seen,
            link_seen,
            comp,
            ..
        } = self;
        flow_seen[f as usize] = gen;
        comp.clear();
        comp.push(f);
        // Breadth-first: `comp` is both the queue and the result.
        let mut next = 0;
        while let Some(&g) = comp.get(next) {
            next += 1;
            for r in &flows[g as usize].routes {
                for &li in &r.links {
                    let li = li as usize;
                    if link_seen[li] == gen {
                        continue;
                    }
                    link_seen[li] = gen;
                    for &h in &link_flows[li] {
                        let seen = &mut flow_seen[h as usize];
                        if *seen != gen {
                            *seen = gen;
                            comp.push(h);
                        }
                    }
                }
            }
        }
        self.fill_component();
        self.comp.len()
    }

    /// Max-min fair allocation of the component in `comp` (see
    /// [`Fill::solve`] for the level rounds).
    ///
    /// Determinism contract: this is a pure function of the component's
    /// flow membership and the link capacities. The flows are sorted
    /// first, so the units reach the fill in canonical (flow id, route
    /// index) order: the float accumulations are order-dependent, and
    /// with the sort the same component yields the same bit pattern no
    /// matter which seed discovered it or which [`RateMode`] requested
    /// the fill.
    ///
    /// Cost: one pass copies the component into the fill's contiguous
    /// per-fill arrays (each route's link vector is read once per fill,
    /// not once per round), the rounds run over that copy and recompute
    /// only the shares of links the previous round changed, and one pass
    /// writes the rates back. Allocation-free in steady state: every
    /// buffer is recycled.
    fn fill_component(&mut self) {
        let Self {
            flows,
            comp,
            fill,
            link_cap,
            ledger,
            epoch_changed,
            ..
        } = self;
        comp.sort_unstable();
        fill.begin(link_cap.len());
        for &f in comp.iter() {
            for r in &flows[f as usize].routes {
                fill.push(f, &r.links, link_cap);
            }
        }
        ledger.stats.rate_fill_rounds += fill.solve();
        for (&(f, first, end), &rate) in fill.flows.iter().zip(&fill.flow_rate) {
            let fl = &mut flows[f as usize];
            // Telemetry counts flows whose rate bit pattern changed.
            *epoch_changed += u64::from(fl.rate.to_bits() != rate.to_bits());
            fl.rate = rate;
            let unit_rates = &fill.unit_rate[first as usize..end as usize];
            for (r, &ur) in fl.routes.iter_mut().zip(unit_rates) {
                r.rate = ur;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::tests as smoke;
    use crate::apps::{Alltoall, MessageBlast};
    use crate::EngineKind;
    use hxnet::fattree::single_switch;
    use hxnet::hammingmesh::HxMeshParams;

    #[test]
    fn single_message_time_matches_fluid_model() {
        // Two endpoints on one switch: 1 MiB at 400 Gb/s over 2 hops.
        let net = single_switch(2, "pair");
        let bytes: u64 = 1 << 20;
        let mut app = MessageBlast::pairs(vec![(0, 1, bytes)]);
        let stats = FlowEngine::new(&net, SimConfig::default()).run(&mut app);
        assert!(stats.clean(), "{stats:?}");
        assert_eq!(stats.messages_delivered, 1);
        // Drain time = bytes * 20 ps (one bottleneck link), plus two hops
        // of propagation + pipeline latency.
        let drain = bytes * 20;
        assert!(stats.finish_ps > drain, "{}", stats.finish_ps);
        assert!(stats.finish_ps < drain + 1_000_000, "{}", stats.finish_ps);
        let gbps = stats.delivered_gbps();
        assert!(gbps > 350.0 && gbps <= 400.0, "got {gbps} Gb/s");
    }

    #[test]
    fn two_flows_share_a_link_max_min() {
        // Ranks 0 and 1 both send to rank 2 through one switch: the
        // ejection link is the bottleneck, each flow gets half.
        let net = single_switch(3, "tri");
        let bytes: u64 = 4 << 20;
        let mut app = MessageBlast::pairs(vec![(0, 2, bytes), (1, 2, bytes)]);
        let stats = FlowEngine::new(&net, SimConfig::default()).run(&mut app);
        assert!(stats.clean(), "{stats:?}");
        // Both flows drain in ~2x the solo time.
        let solo = bytes * 20;
        assert!(
            stats.finish_ps > 2 * solo - 1_000_000 && stats.finish_ps < 2 * solo + 2_000_000,
            "{} vs solo {}",
            stats.finish_ps,
            solo
        );
    }

    #[test]
    fn alltoall_completes_on_hxmesh() {
        smoke::check_alltoall_completes_on_hxmesh(EngineKind::Flow);
    }

    #[test]
    fn permutation_completes_on_torus() {
        smoke::check_permutation_completes_on_torus(EngineKind::Flow);
    }

    #[test]
    fn uniform_random_completes_on_all_topologies() {
        smoke::check_uniform_random_on_all_topologies(EngineKind::Flow);
    }

    #[test]
    fn deterministic_across_runs() {
        smoke::check_deterministic_given_seed(EngineKind::Flow);
    }

    #[test]
    fn uses_far_fewer_events_than_packet_engine() {
        let net = HxMeshParams::square(2, 2).build();
        let mut fapp = Alltoall::new(net.num_ranks(), 256 * 1024, 2);
        let fstats = FlowEngine::new(&net, SimConfig::default()).run(&mut fapp);
        let mut papp = Alltoall::new(net.num_ranks(), 256 * 1024, 2);
        let pstats = crate::Engine::new(&net, SimConfig::default()).run(&mut papp);
        assert!(fstats.clean() && pstats.clean());
        assert!(
            fstats.events * 10 < pstats.events,
            "flow {} events vs packet {}",
            fstats.events,
            pstats.events
        );
    }

    /// Drains of link-disjoint flows skip the max-min recompute: two
    /// transfers through one switch that share no directed link finish
    /// with only the initial progressive filling, while the same pair
    /// aimed at a shared ejection port must refill on the first drain.
    #[test]
    fn disjoint_drains_skip_rate_recompute() {
        let net = single_switch(4, "quad");
        // 0->1 and 2->3: four distinct directed links, no sharing. The
        // second transfer is larger so the drains are staggered.
        let mut app = MessageBlast::pairs(vec![(0, 1, 1 << 20), (2, 3, 3 << 20)]);
        let stats = FlowEngine::new(&net, SimConfig::default()).run(&mut app);
        assert!(stats.clean(), "{stats:?}");
        assert_eq!(
            stats.rate_recomputes, 1,
            "disjoint retirements must not refill (events {})",
            stats.events
        );

        // Same sizes, but both flows eject at rank 3: the shared ejection
        // link makes the first drain free capacity for the survivor, which
        // must be refilled.
        let mut app = MessageBlast::pairs(vec![(0, 3, 1 << 20), (2, 3, 3 << 20)]);
        let stats = FlowEngine::new(&net, SimConfig::default()).run(&mut app);
        assert!(stats.clean(), "{stats:?}");
        assert!(
            stats.rate_recomputes >= 2,
            "shared-bottleneck drain must recompute rates ({} recomputes)",
            stats.rate_recomputes
        );
    }

    #[test]
    fn traffic_accounting_is_byte_exact_per_message() {
        let net = HxMeshParams::square(2, 2).build();
        let mut app = MessageBlast::pairs(vec![(0, 15, 3 << 20), (5, 10, 1 << 20)]);
        let stats = FlowEngine::new(&net, SimConfig::default()).run(&mut app);
        assert!(stats.clean());
        assert_eq!(stats.bytes_delivered, (3 << 20) + (1 << 20));
        assert_eq!(stats.messages_delivered, 2);
        // Some node on each route forwarded traffic.
        assert!(stats.node_forwarded.iter().sum::<u64>() > 0);
        assert!(stats.total_link_busy_ps > 0);
    }
}
