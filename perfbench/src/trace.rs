//! Outside-in tracing for the traced run.
//!
//! The benchmark records a span around every call it makes into a layer
//! (topology builders, engine constructors, schedule construction and
//! binding, `run`), and installs two delegating wrappers that see the
//! calls the engines make back out: [`TracedRouter`] counts
//! `Router::candidates` and times a sample of them, [`TracedApp`] counts
//! and times every application callback. Nothing inside the crates is
//! instrumented; the transparency test checks the wrappers change no
//! simulated result.

use hxnet::route::{Hop, LoadProbe};
use hxnet::{Network, NodeId, Router, Topology};
use hxsim::{Application, Ctx, MsgInfo};
use hxtelemetry::{validate_chrome_trace, TraceSink};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Host nanoseconds a timed section reads when it times nothing: the
/// median of 1001 empty timings, measured once. The wrappers subtract it
/// from every timing, so a sampled `candidates` call of a few tens of
/// nanoseconds is not dominated by the clock reads around it.
fn clock_overhead_ns() -> u64 {
    static OVERHEAD: OnceLock<u64> = OnceLock::new();
    *OVERHEAD.get_or_init(|| {
        let mut v: Vec<u64> = (0..1001)
            .map(|_| {
                let t = Instant::now();
                t.elapsed().as_nanos() as u64
            })
            .collect();
        v.sort_unstable();
        v[v.len() / 2]
    })
}

/// Nanoseconds since `t`, less the clock overhead.
fn elapsed_ns(t: Instant) -> u64 {
    (t.elapsed().as_nanos() as u64).saturating_sub(clock_overhead_ns())
}

/// One call into a layer, in host nanoseconds since the tracer started.
/// `parent` indexes the enclosing span.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

/// Span recorder. A disabled tracer runs the wrapped closures directly,
/// so timed runs pay one branch per call site.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn off() -> Self {
        Self::new(false)
    }

    pub fn on() -> Self {
        Self::new(true)
    }

    fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Seconds spent in spans named `name` among `spans()[from..]`.
    pub fn total_s(&self, name: &str, from: usize) -> f64 {
        self.spans[from..]
            .iter()
            .filter(|s| s.name == name)
            .fold(0.0, |acc, s| acc + (s.end_ns - s.start_ns) as f64 * 1e-9)
    }

    /// The spans as a Chrome trace-event document (loadable in Perfetto),
    /// rendered through hxtelemetry's writer and checked by its validator.
    /// Host nanoseconds go in the writer's picosecond field scaled by
    /// 1000, so the document's microseconds are real host microseconds.
    pub fn chrome_trace(&self, label: &str) -> Result<String, String> {
        let mut sink = TraceSink::new(true);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(0, |p| p as u64 + 1);
            sink.span(
                s.name,
                "perfbench",
                s.start_ns * 1000,
                (s.end_ns - s.start_ns) * 1000,
                vec![("span", i as u64 + 1), ("parent", parent)],
            );
        }
        let events = sink.into_events();
        let mut out = Vec::new();
        hxtelemetry::trace::write_chrome_trace(&mut out, &[(label, &events)])
            .map_err(|e| e.to_string())?;
        let text = String::from_utf8(out).map_err(|e| e.to_string())?;
        validate_chrome_trace(&text)?;
        Ok(text)
    }
}

/// Every `ROUTE_SAMPLE`-th `Router::candidates` call is timed. Timing
/// every call triples a packet-engine run; a prime period avoids locking
/// onto the engines' periodic call patterns.
pub const ROUTE_SAMPLE: u64 = 61;

/// Counters shared by every [`TracedRouter`] of one workload.
#[derive(Debug)]
pub struct RouteProbe {
    calls: AtomicU64,
    timed: AtomicU64,
    timed_ns: AtomicU64,
}

impl Default for RouteProbe {
    fn default() -> Self {
        // Calibrate now rather than inside the first timed call.
        clock_overhead_ns();
        RouteProbe {
            calls: AtomicU64::new(0),
            timed: AtomicU64::new(0),
            timed_ns: AtomicU64::new(0),
        }
    }
}

/// A point-in-time copy of a [`RouteProbe`]; differences give per-run
/// figures.
#[derive(Clone, Copy, Debug, Default)]
pub struct RouteCount {
    pub calls: u64,
    pub timed: u64,
    pub timed_ns: u64,
}

impl RouteProbe {
    pub fn snapshot(&self) -> RouteCount {
        RouteCount {
            calls: self.calls.load(Relaxed),
            timed: self.timed.load(Relaxed),
            timed_ns: self.timed_ns.load(Relaxed),
        }
    }
}

impl RouteCount {
    pub fn since(self, earlier: RouteCount) -> RouteCount {
        RouteCount {
            calls: self.calls - earlier.calls,
            timed: self.timed - earlier.timed,
            timed_ns: self.timed_ns - earlier.timed_ns,
        }
    }

    /// Estimated seconds inside `candidates`: the sampled mean call time
    /// times the number of calls.
    pub fn busy_s(self) -> f64 {
        if self.timed == 0 {
            return 0.0;
        }
        self.timed_ns as f64 * 1e-9 / self.timed as f64 * self.calls as f64
    }
}

/// Delegates every [`Router`] method to the topology's own router.
pub struct TracedRouter {
    inner: Box<dyn Router>,
    probe: Arc<RouteProbe>,
}

impl Router for TracedRouter {
    fn num_vcs(&self) -> u8 {
        self.inner.num_vcs()
    }

    fn candidates(
        &self,
        topo: &Topology,
        node: NodeId,
        vc: u8,
        target: NodeId,
        out: &mut Vec<Hop>,
    ) {
        let n = self.probe.calls.fetch_add(1, Relaxed);
        if !n.is_multiple_of(ROUTE_SAMPLE) {
            self.inner.candidates(topo, node, vc, target, out);
            return;
        }
        let t = Instant::now();
        self.inner.candidates(topo, node, vc, target, out);
        let ns = elapsed_ns(t);
        self.probe.timed.fetch_add(1, Relaxed);
        self.probe.timed_ns.fetch_add(ns, Relaxed);
    }

    fn select_waypoint(
        &self,
        topo: &Topology,
        src: NodeId,
        dst: NodeId,
        probe: &dyn LoadProbe,
        rng: &mut dyn rand::RngCore,
    ) -> Option<NodeId> {
        self.inner.select_waypoint(topo, src, dst, probe, rng)
    }

    fn waypoint_reached(&self, topo: &Topology, node: NodeId, waypoint: NodeId) -> bool {
        self.inner.waypoint_reached(topo, node, waypoint)
    }

    fn waypoint_options(&self, topo: &Topology, src: NodeId, dst: NodeId, out: &mut Vec<NodeId>) {
        self.inner.waypoint_options(topo, src, dst, out)
    }
}

/// `net` with its router wrapped in a [`TracedRouter`] reporting to
/// `probe`.
pub fn trace_router(net: Network, probe: &Arc<RouteProbe>) -> Network {
    let Network {
        topo,
        endpoints,
        router,
        name,
    } = net;
    Network {
        topo,
        endpoints,
        router: Box::new(TracedRouter {
            inner: router,
            probe: Arc::clone(probe),
        }),
        name,
    }
}

/// Delegates every [`Application`] callback, counting and timing each.
pub struct TracedApp<'a> {
    inner: &'a mut dyn Application,
    pub callbacks: u64,
    pub busy_ns: u64,
}

impl<'a> TracedApp<'a> {
    pub fn new(inner: &'a mut dyn Application) -> Self {
        // Calibrate now rather than inside the first timed callback.
        clock_overhead_ns();
        TracedApp {
            inner,
            callbacks: 0,
            busy_ns: 0,
        }
    }

    fn timed(&mut self, f: impl FnOnce(&mut dyn Application)) {
        let t = Instant::now();
        f(&mut *self.inner);
        self.busy_ns += elapsed_ns(t);
        self.callbacks += 1;
    }
}

impl Application for TracedApp<'_> {
    fn start(&mut self, ctx: &mut Ctx) {
        self.timed(|a| a.start(ctx));
    }

    fn on_message(&mut self, ctx: &mut Ctx, info: MsgInfo) {
        self.timed(|a| a.on_message(ctx, info));
    }

    fn on_send_complete(&mut self, ctx: &mut Ctx, info: MsgInfo) {
        self.timed(|a| a.on_send_complete(ctx, info));
    }

    fn on_compute_done(&mut self, ctx: &mut Ctx, rank: u32, tag: u64) {
        self.timed(|a| a.on_compute_done(ctx, rank, tag));
    }
}
