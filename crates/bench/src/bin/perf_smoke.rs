//! CI perf-smoke harness: the repo's speed claims, measured and judged in
//! one run. It times the Fig. 11 (alltoall) and Fig. 13 (allreduce)
//! headline scenarios on **both** simulation backends, the packet
//! engine's router calls per packet-hop on the Fig. 11 point, the
//! Table-II-scale `flow_scale` run, the cost of telemetry and of an
//! armed-but-inert failure schedule, the Fig. 8 / Fig. 9 Monte-Carlo
//! trace sweeps at 1 thread and at the environment thread count, and the
//! allocator on a 1,000×1,000 board mesh.
//!
//! ```sh
//! perf_smoke --out bench-artifacts
//! ```
//!
//! Every scenario becomes one record of the same shape in
//! `BENCH_smoke.json`: a name, a one-line description, a flat map of
//! named numbers, an `ok` flag for its correctness condition (always
//! enforced), and threshold gates `{value, min|max, pass}` under one
//! `enforced` flag. The document is written and checked for valid JSON
//! first; then every failed check is printed with its scenario, value,
//! observed number and limit, and the run exits 1. Usage errors exit 2.
//! The traced telemetry run also writes `fig11_flow.trace.json`, a
//! Perfetto-loadable sample.

use hammingmesh::hxalloc::experiments::{
    fig8_strategies, fig8_utilization, fig9_upper_traffic, Distribution,
};
use hammingmesh::hxnet::route::{Hop, LoadProbe, Router};
use hammingmesh::hxnet::{NodeId, Topology};
use hammingmesh::hxsim::apps::Alltoall;
use hammingmesh::hxsim::FailureSchedule;
use hammingmesh::prelude::*;
use hxserve::cli::{self, FlagSpec};
use hxserve::render::fmt_bytes;
use hxtelemetry::{collect, trace::escape_json};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

/// perf_smoke's flags, parsed as strictly as the shared table: unknown
/// flags and missing values exit 2.
const FLAGS: &[FlagSpec] = &[
    FlagSpec {
        name: "--out",
        value: Some("DIR"),
        help: "directory for BENCH_smoke.json and the sample trace (default: .)",
    },
    FlagSpec {
        name: "--quick",
        value: None,
        help: "shrink the packet-engine scenarios so a debug build stays fast \
               and record the wall-clock gates unenforced \
               (the smoke tests run it this way; CI runs the full release version)",
    },
];

/// One scenario's record; every scenario renders with these fields.
struct Scenario {
    name: &'static str,
    description: String,
    metrics: Vec<(&'static str, f64)>,
    /// The correctness condition, checked on every run.
    ok: bool,
    /// Judged only when `enforced`; always recorded with their verdict.
    gates: Vec<Gate>,
    enforced: bool,
}

/// A threshold on one of its scenario's metrics.
enum Gate {
    Min(&'static str, f64),
    Max(&'static str, f64),
}

impl Gate {
    /// `(metric, "min" | "max", limit)`.
    fn parts(&self) -> (&'static str, &'static str, f64) {
        match *self {
            Gate::Min(value, limit) => (value, "min", limit),
            Gate::Max(value, limit) => (value, "max", limit),
        }
    }

    /// The gate's verdict on `s` (a missing or NaN metric fails).
    fn pass(&self, s: &Scenario) -> bool {
        let observed = s.metric(self.parts().0);
        match *self {
            Gate::Min(_, limit) => observed >= limit,
            Gate::Max(_, limit) => observed <= limit,
        }
    }
}

impl Scenario {
    fn metric(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|(k, _)| *k == name)
            .map_or(f64::NAN, |&(_, v)| v)
    }
}

/// A JSON number with at most four decimals. NaN and infinities render
/// as-is, so the document fails [`hxtelemetry::validate_json`].
fn num(x: f64) -> String {
    let s = format!("{x:.4}");
    s.trim_end_matches('0').trim_end_matches('.').to_string()
}

/// The one writer: the `BENCH_smoke.json` document.
fn render(quick: bool, cores: usize, threads: usize, scenarios: &[Scenario]) -> String {
    let scale = if quick { "reduced (--quick)" } else { "quick" };
    let mut out = format!(
        "{{\n  \"generated_by\": \"perf_smoke\",\n  \"scale\": \"{scale}\",\n  \
         \"cores\": {cores},\n  \"threads\": {threads},\n  \"scenarios\": ["
    );
    for (i, s) in scenarios.iter().enumerate() {
        let metrics: Vec<String> = s
            .metrics
            .iter()
            .map(|(k, v)| format!("\"{}\": {}", escape_json(k), num(*v)))
            .collect();
        let gates: Vec<String> = s
            .gates
            .iter()
            .map(|g| {
                let (value, bound, limit) = g.parts();
                format!(
                    "{{\"value\": \"{}\", \"{bound}\": {}, \"pass\": {}}}",
                    escape_json(value),
                    num(limit),
                    g.pass(s)
                )
            })
            .collect();
        write!(
            out,
            "{}\n    {{\"name\": \"{}\", \"description\": \"{}\",\n      \
             \"metrics\": {{{}}},\n      \"ok\": {}, \"enforced\": {}, \"gates\": [{}]}}",
            if i == 0 { "" } else { "," },
            escape_json(s.name),
            escape_json(&s.description),
            metrics.join(", "),
            s.ok,
            s.enforced,
            gates.join(", ")
        )
        .expect("write to String");
    }
    out.push_str("\n  ]\n}\n");
    out
}

/// The one checker: every failed check, in document order. A false `ok`
/// always fails; a gate fails only when its scenario is `enforced`.
fn check(scenarios: &[Scenario]) -> Vec<String> {
    let mut failures = Vec::new();
    for s in scenarios {
        if !s.ok {
            failures.push(format!("{}: correctness check failed (ok = false)", s.name));
        }
        for g in s.gates.iter().filter(|g| s.enforced && !g.pass(s)) {
            let (value, bound, limit) = g.parts();
            failures.push(format!(
                "{}: {value} = {} breaks its {bound} of {}",
                s.name,
                num(s.metric(value)),
                num(limit)
            ));
        }
    }
    failures
}

/// Run `f`, returning its result and its wall-clock seconds.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    #[allow(clippy::disallowed_methods)] // wall-clock is this bin's product
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// The best wall of `runs` runs of `f`, and whether every run returned true.
fn best_of(runs: u32, mut f: impl FnMut() -> bool) -> (f64, bool) {
    let (mut best, mut ok) = (f64::INFINITY, true);
    for _ in 0..runs {
        let (clean, wall) = timed(&mut f);
        best = best.min(wall);
        ok &= clean;
    }
    (best, ok)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let flags = match cli::parse_flags(&argv, &[FLAGS]) {
        Ok((flags, positional)) if positional.is_empty() => flags,
        Ok((_, positional)) => {
            eprintln!("unexpected argument {:?} (try --help)", positional[0]);
            std::process::exit(2);
        }
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };
    let mut out_dir = PathBuf::from(".");
    let mut quick = false;
    for (flag, value) in flags {
        match flag.as_str() {
            "--out" => out_dir = PathBuf::from(value.unwrap_or_default()),
            "--quick" => quick = true,
            _ => {
                // `--help`, which parse_flags recognizes in every table.
                print!("{}", cli::help_text("perf_smoke [options]", &[FLAGS]));
                std::process::exit(0);
            }
        }
    }
    std::fs::create_dir_all(&out_dir).expect("create output directory");
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let threads = rayon::current_num_threads();

    // Headline scenarios: quick topology scale (Hx2Mesh, 64 endpoints)
    // at the paper's headline message sizes — the largest size of the
    // Fig. 11 axis (1 MiB alltoall) and of the Fig. 13 axis (64 MiB
    // allreduce). This is the regime the flow engine exists for: packet
    // cost grows with bytes, flow cost does not.
    let (a2a_bytes, ar_bytes): (u64, u64) = if quick {
        (128 << 10, 4 << 20)
    } else {
        (1 << 20, 64 << 20)
    };
    let net = TopologyChoice::Hx2Mesh.build_scaled(64);
    let mut scenarios = vec![
        // The flow engine's own work: its module doc promises about 2
        // epochs per message (0.46 measured at 1 MiB, 0.51 at 128 KiB).
        // A count repeats exactly, so the gate is enforced at every scale;
        // `wall_speedup` divides by the packet engine's wall and is only
        // recorded.
        Scenario {
            gates: vec![Gate::Max("flow_events_per_msg", 2.0)],
            enforced: true,
            ..engine_pair(
                "fig11_alltoall",
                format!(
                    "balanced-shift alltoall, {}/pair, Hx2Mesh 64 endpoints, packet vs flow engine",
                    fmt_bytes(a2a_bytes)
                ),
                |engine| {
                    experiments::alltoall_bandwidth(
                        &net,
                        a2a_bytes,
                        2,
                        engine,
                        SimConfig::default(),
                    )
                },
            )
        },
        packet_nic_routing(a2a_bytes),
        engine_pair(
            "fig13_allreduce",
            format!(
                "disjoint-rings allreduce, {}/rank, Hx2Mesh 64 endpoints, packet vs flow engine",
                fmt_bytes(ar_bytes)
            ),
            |engine| {
                experiments::allreduce_bandwidth(
                    &net,
                    AllreduceAlgo::DisjointRings,
                    ar_bytes,
                    engine,
                )
            },
        ),
        flow_scale(quick),
        telemetry_overhead(&out_dir, quick, &net, a2a_bytes),
        fault_inert(quick, &net, a2a_bytes),
    ];
    scenarios.extend(parallel_sweeps(quick, cores, threads));
    scenarios.push(alloc_1000x1000(quick));

    let doc = render(quick, cores, threads, &scenarios);
    let mut failures = Vec::new();
    if let Err(e) = hxtelemetry::validate_json(&doc) {
        failures.push(format!("BENCH_smoke.json is not valid JSON: {e}"));
    }
    let path = out_dir.join("BENCH_smoke.json");
    std::fs::write(&path, &doc).expect("write BENCH_smoke.json");
    eprintln!("[perf_smoke] wrote {}", path.display());
    failures.extend(check(&scenarios));
    if !failures.is_empty() {
        for f in &failures {
            eprintln!("[perf_smoke] FAILED {f}");
        }
        std::process::exit(1);
    }
}

/// A packet-vs-flow scenario: both engines' walls, simulated times and
/// bandwidth fractions, the flow run's events per message sent, and the
/// flow engine's wall-clock speedup. `ok` when both runs deliver all
/// traffic; no gates of its own.
fn engine_pair(
    name: &'static str,
    description: String,
    mut run: impl FnMut(EngineKind) -> Measurement,
) -> Scenario {
    eprintln!("[perf_smoke] {name}: {description}");
    let (packet, packet_wall) = timed(|| run(EngineKind::Packet));
    let (flow, flow_wall) = timed(|| run(EngineKind::Flow));
    let speedup = packet_wall / flow_wall.max(1e-9);
    eprintln!(
        "[perf_smoke] {name}: packet {packet_wall:.2}s / flow {flow_wall:.2}s -> {speedup:.0}x"
    );
    Scenario {
        name,
        description,
        metrics: vec![
            ("packet_wall_s", packet_wall),
            ("packet_sim_ps", packet.time_ps as f64),
            ("packet_bw_fraction", packet.bw_fraction),
            ("flow_wall_s", flow_wall),
            ("flow_sim_ps", flow.time_ps as f64),
            ("flow_bw_fraction", flow.bw_fraction),
            ("flow_events", flow.events as f64),
            ("flow_messages", flow.messages as f64),
            (
                "flow_events_per_msg",
                flow.events as f64 / (flow.messages as f64).max(1.0),
            ),
            ("wall_speedup", speedup),
        ],
        ok: packet.clean && flow.clean,
        gates: Vec::new(),
        enforced: false,
    }
}

/// Delegates every [`Router`] method to the topology's own router and
/// counts the `candidates` calls.
struct CountingRouter {
    inner: Box<dyn Router>,
    calls: Arc<AtomicU64>,
}

impl Router for CountingRouter {
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
        self.calls.fetch_add(1, Relaxed);
        self.inner.candidates(topo, node, vc, target, out);
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

/// The packet engine's routing work: the `fig11_alltoall` packet point
/// (same network, bytes and window) run once more through a
/// [`CountingRouter`]. Its NIC pump routes each route class once per
/// pump and skips pumps that cannot inject, so router calls stay near
/// one per packet-hop; a pump that re-routed every deferred packet
/// would make them grow with the packets per message. A count repeats
/// exactly, so the gate is enforced at every scale.
fn packet_nic_routing(bytes: u64) -> Scenario {
    let calls = Arc::new(AtomicU64::new(0));
    let Network {
        topo,
        endpoints,
        router,
        name,
    } = TopologyChoice::Hx2Mesh.build_scaled(64);
    let net = Network {
        topo,
        endpoints,
        router: Box::new(CountingRouter {
            inner: router,
            calls: Arc::clone(&calls),
        }),
        name,
    };
    let mut app = Alltoall::new(net.num_ranks(), bytes, 2);
    let stats = simulate(&net, SimConfig::default(), EngineKind::Packet, &mut app);
    let route_calls = calls.load(Relaxed) as f64;
    let packet_hops = stats.packets_forwarded as f64;
    let per_hop = route_calls / packet_hops.max(1.0);
    eprintln!(
        "[perf_smoke] packet_nic_routing: {route_calls} router calls for {packet_hops} \
         packet-hops ({per_hop:.2} per hop)"
    );
    Scenario {
        name: "packet_nic_routing",
        description: format!(
            "balanced-shift alltoall, {}/pair, Hx2Mesh 64 endpoints, packet engine, \
             Router::candidates calls per packet-hop",
            fmt_bytes(bytes)
        ),
        metrics: vec![
            ("route_calls", route_calls),
            ("packet_hops", packet_hops),
            ("route_calls_per_hop", per_hop),
        ],
        ok: stats.clean(),
        gates: vec![Gate::Max("route_calls_per_hop", 2.0)],
        enforced: true,
    }
}

/// ROADMAP item 1's scale gate: a Table-II-scale Hx4Mesh alltoall on one
/// core of the flow engine. The alltoall is shift-capped
/// ([`Alltoall::with_shifts`]) so the message count stays CI-sized
/// (16384 ranks × 8 shifts ≈ 131k messages; the untruncated pattern
/// would be 2.7·10⁸), while each shift remains a full permutation of the
/// uniform all-pairs traffic. Records wall-clock, the solver-effort
/// split from [`hammingmesh::hxsim::SimStats`], and the share of
/// recompute epochs the O(affected) incremental solver kept
/// component-scoped — gated at ≥ 0.9, with the wall-clock under the step
/// budget. `--quick` shrinks to 1024 endpoints so the debug-profile smoke
/// tests stay fast.
fn flow_scale(quick: bool) -> Scenario {
    let (endpoints, shifts, bytes): (usize, u32, u64) = if quick {
        (1024, 4, 64 << 10)
    } else {
        (16384, 8, 64 << 10)
    };
    eprintln!("[perf_smoke] flow_scale: Hx4Mesh {endpoints} endpoints, {shifts} shifts");
    let net = TopologyChoice::Hx4Mesh.build_scaled(endpoints);
    // Window 1: one in-flight shift per rank. Deeper windows overlap
    // consecutive permutations, and the overlap flows chain accelerator
    // rows into one giant sharing component — which turns nearly every
    // epoch into a full refill and defeats the O(affected) solver this
    // step exists to measure.
    let mut app = Alltoall::with_shifts(endpoints, bytes, 1, shifts);
    let (stats, wall_s) = timed(|| FlowEngine::new(&net, SimConfig::default()).run(&mut app));
    let messages = endpoints as u64 * shifts as u64;
    let component = stats.rate_recomputes - stats.rate_recomputes_full;
    let comp_share = component as f64 / (stats.rate_recomputes as f64).max(1.0);
    eprintln!(
        "[perf_smoke] flow_scale: {messages} messages in {wall_s:.2}s, \
         {} recompute epochs ({} full, {} component -> {:.1}% component-scoped)",
        stats.rate_recomputes,
        stats.rate_recomputes_full,
        component,
        100.0 * comp_share
    );
    Scenario {
        name: "flow_scale",
        description: format!(
            "shift-capped alltoall, Hx4Mesh {endpoints} endpoints, {shifts} shifts x {}/pair, \
             flow engine, 1 core",
            fmt_bytes(bytes)
        ),
        metrics: vec![
            ("endpoints", endpoints as f64),
            ("shifts", shifts as f64),
            ("messages", messages as f64),
            ("wall_s", wall_s),
            ("sim_ps", stats.finish_ps as f64),
            ("rate_recomputes", stats.rate_recomputes as f64),
            ("rate_recomputes_full", stats.rate_recomputes_full as f64),
            ("rate_recomputes_component", component as f64),
            ("rate_touched_flows", stats.rate_touched_flows as f64),
            ("rate_fill_rounds", stats.rate_fill_rounds as f64),
            ("component_fill_share", comp_share),
        ],
        ok: stats.clean(),
        // The wall budget is generous against the measured time (see
        // BENCH_smoke.json in-tree) so CI noise cannot flake the gate;
        // the component-share gate is the real O(affected) regression
        // tripwire.
        gates: vec![
            Gate::Min("component_fill_share", 0.9),
            Gate::Max("wall_s", 120.0),
        ],
        enforced: !quick,
    }
}

/// The observability overhead gate: the fig11 alltoall flow run measured
/// three ways in one process — telemetry disabled (the baseline and the
/// "tracing off" leg, proving the disabled instrumentation is one branch
/// per site), then with both channels on; gated at off ≤ 1.05×, on ≤
/// 1.25×. The traced run also writes `fig11_flow.trace.json`, a
/// Perfetto-loadable sample, and must emit at least one event that passes
/// the Chrome trace-event schema check.
fn telemetry_overhead(out_dir: &Path, quick: bool, net: &Network, bytes: u64) -> Scenario {
    let wall = || {
        best_of(3, || {
            experiments::alltoall_bandwidth(net, bytes, 2, EngineKind::Flow, SimConfig::default())
                .clean
        })
    };
    collect::set_trace_enabled(false);
    collect::set_metrics_enabled(false);
    let (baseline, baseline_ok) = wall();
    let (off, off_ok) = wall();
    collect::set_trace_enabled(true);
    collect::set_metrics_enabled(true);
    collect::reset();
    let (on, on_ok) = {
        let _scope = collect::scope("obs/fig11_flow");
        wall()
    };
    let trace = collect::render_trace().expect("render trace");
    collect::set_trace_enabled(false);
    collect::set_metrics_enabled(false);
    collect::reset();
    let events = hxtelemetry::validate_chrome_trace(&trace).unwrap_or_else(|e| {
        eprintln!("[perf_smoke] fig11_flow.trace.json is not a valid Chrome trace: {e}");
        0
    });
    let trace_path = out_dir.join("fig11_flow.trace.json");
    std::fs::write(&trace_path, &trace).expect("write sample trace artifact");
    eprintln!(
        "[perf_smoke] wrote {} ({events} events)",
        trace_path.display()
    );
    let off_ratio = off / baseline.max(1e-9);
    let on_ratio = on / baseline.max(1e-9);
    eprintln!(
        "[perf_smoke] obs: baseline {baseline:.3}s, tracing-off {off:.3}s ({off_ratio:.3}x), \
         tracing-on {on:.3}s ({on_ratio:.3}x)"
    );
    Scenario {
        name: "telemetry_overhead",
        description: "balanced-shift alltoall, flow engine, Hx2Mesh 64 endpoints, \
                      min-of-3 walls in one process: telemetry off, off again, on"
            .into(),
        metrics: vec![
            ("baseline_wall_s", baseline),
            ("tracing_off_wall_s", off),
            ("tracing_on_wall_s", on),
            ("off_ratio", off_ratio),
            ("on_ratio", on_ratio),
            ("trace_events", events as f64),
        ],
        ok: baseline_ok && off_ok && on_ok && events >= 1,
        gates: vec![Gate::Max("off_ratio", 1.05), Gate::Max("on_ratio", 1.25)],
        enforced: !quick,
    }
}

/// The mid-run failure machinery's no-op gate: the fig11 alltoall flow
/// run with no schedule — the baseline configuration every figure sweep
/// uses — against the same run with a [`FailureSchedule`] armed whose
/// events all land far beyond the horizon. The no-schedule run IS the
/// baseline, so this gate pins the cost of carrying schedule support in
/// the engines at all; an armed-but-inert schedule costs one comparison
/// per epoch-loop iteration and must sit within measurement noise
/// (≤ 1.05×).
fn fault_inert(quick: bool, net: &Network, bytes: u64) -> Scenario {
    let wall = |sched: &FailureSchedule| {
        best_of(3, || {
            let cfg = SimConfig {
                failures: sched.clone(),
                ..SimConfig::default()
            };
            experiments::alltoall_bandwidth(net, bytes, 2, EngineKind::Flow, cfg).clean
        })
    };
    let (baseline, baseline_ok) = wall(&FailureSchedule::default());
    let (node, port) = net.topo.cables()[0];
    const BEYOND_HORIZON_PS: u64 = 1_000_000_000_000_000;
    let armed = FailureSchedule::new()
        .fail(BEYOND_HORIZON_PS, node, port)
        .repair(BEYOND_HORIZON_PS + 1_000, node, port);
    let (armed_wall, armed_ok) = wall(&armed);
    let ratio = armed_wall / baseline.max(1e-9);
    eprintln!(
        "[perf_smoke] fault: no-schedule {baseline:.3}s, armed-inert {armed_wall:.3}s \
         ({ratio:.3}x)"
    );
    Scenario {
        name: "fault_inert",
        description: "balanced-shift alltoall, flow engine, Hx2Mesh 64 endpoints, \
                      min-of-3 walls in one process; armed schedule fires beyond the horizon"
            .into(),
        metrics: vec![
            ("no_schedule_wall_s", baseline),
            ("armed_inert_wall_s", armed_wall),
            ("ratio", ratio),
        ],
        ok: baseline_ok && armed_ok,
        gates: vec![Gate::Max("ratio", 1.05)],
        enforced: !quick,
    }
}

/// Benchmark the thread pool under the rayon shim: the Fig. 8 and Fig. 9
/// Monte-Carlo trace sweeps at `RAYON_NUM_THREADS=1` and at the
/// environment thread count, each leg timed as the best of three runs (a
/// single sub-second wall swung fig8's speedup from 0.69 to 2.26 between
/// runs of one binary). `ok` when every run's samples are bitwise
/// identical to the first one-thread run's (the pool's index-ordered
/// collection contract); the ≥ 1.5× speedup gate is enforced only when
/// the parallel leg actually ran ≥ 4 wide on ≥ 4 cores — below that the
/// speedup is unearnable — and not under `--quick`, whose millisecond
/// sweeps measure spawn cost.
///
/// The vendored shim re-reads `RAYON_NUM_THREADS` on every parallel call,
/// which is what lets one process measure both configurations.
fn parallel_sweeps(quick: bool, cores: usize, threads: usize) -> [Scenario; 2] {
    let saved = std::env::var("RAYON_NUM_THREADS").ok();
    // Sized so the sequential leg runs a few hundred ms in release: long
    // enough that the speedup gate measures compute, not timer noise or
    // thread spawn cost, short enough to stay a smoke test.
    let (fig8_traces, fig9_traces) = if quick { (60, 6) } else { (4000, 200) };
    let strategies = fig8_strategies();
    let full_stack = strategies[5];
    let locality_stack = strategies[3];

    let run_fig8 = || vec![fig8_utilization(16, 16, fig8_traces, full_stack, 0xC0FFEE)];
    let run_fig9 = || {
        let (a, b) = fig9_upper_traffic(64, 64, fig9_traces, locality_stack, 0xC0FFEE);
        vec![a, b]
    };

    let identical = |a: &[Distribution], b: &[Distribution]| {
        a.len() == b.len()
            && a.iter().zip(b).all(|(x, y)| {
                x.samples.len() == y.samples.len()
                    && x.samples
                        .iter()
                        .zip(&y.samples)
                        .all(|(p, q)| p.to_bits() == q.to_bits())
            })
    };
    // Best of three walls; the first run's samples are the reference
    // every later run of the sweep must match.
    let leg = |run: &dyn Fn() -> Vec<Distribution>, reference: &mut Option<Vec<Distribution>>| {
        best_of(3, || {
            let d = run();
            identical(reference.get_or_insert_with(|| d.clone()), &d)
        })
    };
    let (mut ref8, mut ref9) = (None, None);
    std::env::set_var("RAYON_NUM_THREADS", "1");
    let (w8_seq, ok8_seq) = leg(&run_fig8, &mut ref8);
    let (w9_seq, ok9_seq) = leg(&run_fig9, &mut ref9);
    match &saved {
        Some(v) => std::env::set_var("RAYON_NUM_THREADS", v),
        None => std::env::remove_var("RAYON_NUM_THREADS"),
    }
    let (w8_par, ok8_par) = leg(&run_fig8, &mut ref8);
    let (w9_par, ok9_par) = leg(&run_fig9, &mut ref9);

    let sweep = |name, what: &str, traces: usize, seq: f64, par: f64, ok| {
        let speedup = seq / par.max(1e-9);
        eprintln!(
            "[perf_smoke] {name}: {seq:.2}s @1 thread, {par:.2}s @{threads} -> {speedup:.2}x"
        );
        Scenario {
            name,
            description: format!(
                "{what}, {traces} traces, best of 3 walls each, 1 thread vs {threads}"
            ),
            metrics: vec![
                ("traces", traces as f64),
                ("wall_s_1thread", seq),
                ("wall_s_par", par),
                ("speedup", speedup),
            ],
            ok,
            gates: vec![Gate::Min("speedup", 1.5)],
            enforced: !quick && cores >= 4 && threads >= 4,
        }
    };
    [
        sweep(
            "fig8_utilization",
            "Fig. 8 allocation sweep, 16x16 boards, full heuristic stack",
            fig8_traces,
            w8_seq,
            w8_par,
            ok8_seq && ok8_par,
        ),
        sweep(
            "fig9_upper_traffic",
            "Fig. 9 upper-tier traffic sweep, 64x64 boards, locality stack",
            fig9_traces,
            w9_seq,
            w9_par,
            ok9_seq && ok9_par,
        ),
    ]
}

/// The paper's allocator scalability claim (§IV-A): a 1,000×1,000 HxMesh
/// allocates in under a second. Times building the empty mesh and placing
/// one 100×100 job without heuristics, best of 3.
fn alloc_1000x1000(quick: bool) -> Scenario {
    let (wall_s, ok) = best_of(3, || {
        let mut mesh = BoardMesh::new(1000, 1000);
        mesh.allocate(1, 100, 100, Heuristics::none()).is_ok()
    });
    eprintln!("[perf_smoke] alloc_1000x1000: {wall_s:.3}s");
    Scenario {
        name: "alloc_1000x1000",
        description: "one 100x100 job on an empty 1000x1000 board mesh, no heuristics, \
                      min of 3 runs"
            .into(),
        metrics: vec![("wall_s", wall_s)],
        ok,
        gates: vec![Gate::Max("wall_s", 1.0)],
        enforced: !quick,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig11(events_per_msg: f64, ok: bool, enforced: bool) -> Scenario {
        Scenario {
            name: "fig11_alltoall",
            description: "test".into(),
            metrics: vec![("flow_events_per_msg", events_per_msg)],
            ok,
            gates: vec![Gate::Max("flow_events_per_msg", 2.0)],
            enforced,
        }
    }

    #[test]
    fn enforced_failing_gate_is_reported_with_scenario_value_and_limit() {
        let failures = check(&[fig11(4.5, true, true)]);
        assert_eq!(
            failures,
            ["fig11_alltoall: flow_events_per_msg = 4.5 breaks its max of 2"]
        );
        assert!(check(&[fig11(0.46, true, true)]).is_empty());
    }

    #[test]
    fn unenforced_failing_gate_is_recorded_but_does_not_fail() {
        let scenarios = [fig11(4.5, true, false)];
        assert!(check(&scenarios).is_empty());
        let doc = render(true, 2, 2, &scenarios);
        assert!(
            doc.contains(
                "\"enforced\": false, \"gates\": [{\"value\": \"flow_events_per_msg\", \
                 \"max\": 2, \"pass\": false}]"
            ),
            "{doc}"
        );
        assert_eq!(hxtelemetry::validate_json(&doc), Ok(()));
    }

    #[test]
    fn false_ok_fails_even_when_gates_are_unenforced() {
        let failures = check(&[fig11(0.46, false, false)]);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].starts_with("fig11_alltoall: "), "{failures:?}");
    }

    #[test]
    fn non_finite_metrics_make_the_document_invalid() {
        let doc = render(false, 1, 1, &[fig11(f64::NAN, true, true)]);
        assert!(hxtelemetry::validate_json(&doc).is_err(), "{doc}");
        assert_eq!(check(&[fig11(f64::NAN, true, true)]).len(), 1);
    }
}
