//! The benchmark command.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload flow_a2a_16k --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` times set-ups and operations untraced and reports the
//! end-to-end metrics; `--trace 1` alternates untraced and traced
//! operations and reports the per-layer metrics, writing the traced
//! spans to `perfbench/out/` as a Perfetto-loadable Chrome trace. The last
//! line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.

// Host wall-clock time is what a benchmark measures.
#![allow(clippy::disallowed_methods)]

use perfbench::trace::Tracer;
use perfbench::{run, setup, Inputs, OpResult, Outcome, Workload};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

const USAGE: &str = "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1\n\
                     workloads: flow_a2a_16k flow_rings_256 packet_a2a_64 cluster_heavy_8x8";

/// Fewest operations a run measures, however long they take.
const MIN_OPS: usize = 3;
/// Every operation gets a fresh set-up, timed. Where a set-up is cheap,
/// more are timed after each operation, up to this share of the
/// operation's time and `MAX_EXTRA_SETUPS`, so the set-up median rests
/// on many samples spread over the whole run rather than on one burst.
const SETUP_SHARE: f64 = 0.02;
const MAX_EXTRA_SETUPS: usize = 500;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds must be in (0, 3600], got {s}"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}\n{USAGE}");
        std::process::exit(2);
    });
    // Hermetic configuration: the engines read these at construction
    // (hxcluster builds its SimConfig from the defaults), and telemetry
    // stays off except inside traced operations.
    for var in ["HX_RATES", "HX_RETRANSMIT", "HXSIM_DEBUG"] {
        std::env::remove_var(var);
    }
    std::env::set_var("RAYON_NUM_THREADS", "1");
    hxtelemetry::collect::set_trace_enabled(false);
    hxtelemetry::collect::set_metrics_enabled(false);

    println!(
        "# perfbench workload={} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace as u8
    );
    println!(
        "# nproc={} cpu={:?} rustc={:?}",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        cpu_model(),
        env!("PERFBENCH_RUSTC")
    );
    let report = if args.trace {
        traced(&args)
    } else {
        timed(&args)
    };
    println!("{}", report.json());
}

struct Report {
    attempted: usize,
    failed: usize,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, v, unit)| {
                // Adding 0.0 turns a -0.0 into 0.0.
                let v = if v.is_finite() { *v + 0.0 } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn failed(r: &Result<OpResult, ()>) -> bool {
    r.as_ref().map_or(true, |r| r.check.is_err())
}

/// Set-up samples: total seconds per set-up and, when traced, seconds
/// per layer constructor.
#[derive(Default)]
struct Setups {
    total: Vec<f64>,
    layers: BTreeMap<&'static str, Vec<f64>>,
}

/// Per-layer set-up metrics and the spans they sum.
const SETUP_LAYERS: [(&str, &str); 4] = [
    ("hxnet.build_s", "hxnet.build"),
    ("hxsim.new_s", "hxsim.new"),
    ("hxcollect.sched_s", "hxcollect.sched"),
    ("hxcollect.bind_s", "hxcollect.bind"),
];

impl Setups {
    /// Set the workload up once, recording how long it took.
    fn timed(&mut self, a: &Args, tr: &mut Tracer) -> Inputs {
        let first = tr.spans().len();
        let t = Instant::now();
        let inp = setup(a.workload, a.seed, tr);
        self.total.push(t.elapsed().as_secs_f64());
        if tr.enabled() {
            for (metric, span) in SETUP_LAYERS {
                let s = tr.total_s(span, first);
                self.layers.entry(metric).or_default().push(s);
            }
        }
        inp
    }

    /// Time further set-ups after an operation that took `op_s`.
    fn extra(&mut self, a: &Args, tr: &mut Tracer, op_s: f64) {
        let start = Instant::now();
        for _ in 0..MAX_EXTRA_SETUPS {
            if start.elapsed().as_secs_f64() >= SETUP_SHARE * op_s {
                break;
            }
            drop(self.timed(a, tr));
        }
    }
}

/// One round: a timed set-up and one operation on its inputs. A panic or
/// a failed output check is reported and counted as a failed operation
/// instead of ending the benchmark.
fn round(a: &Args, tr: &mut Tracer, setups: &mut Setups) -> Result<OpResult, ()> {
    match catch_unwind(AssertUnwindSafe(|| run(&setups.timed(a, tr), tr))) {
        Ok(r) => {
            if let Err(e) = &r.check {
                eprintln!("perfbench: output check failed: {e}");
            }
            Ok(r)
        }
        Err(_) => {
            eprintln!("perfbench: operation panicked");
            Err(())
        }
    }
}

fn timed(a: &Args) -> Report {
    let mut tr = Tracer::off();
    let mut setups = Setups::default();
    let mut walls = Vec::new();
    let mut attempted = 0;
    let mut failures = 0;
    let start = Instant::now();
    while attempted < MIN_OPS || start.elapsed().as_secs_f64() < a.seconds {
        let r = round(a, &mut tr, &mut setups);
        attempted += 1;
        failures += failed(&r) as usize;
        if let Ok(r) = r {
            walls.push(r.wall_s);
            setups.extra(a, &mut tr, r.wall_s);
        }
    }
    Report {
        attempted,
        failed: failures,
        metrics: vec![
            ("wall_s", median(&walls), "s"),
            ("setup_s", median(&setups.total), "s"),
            ("peak_rss_mib", peak_rss_mib(), "MiB"),
        ],
    }
}

/// Per-layer metrics, in the order `BENCHMARK.json` lists them.
const LAYER_METRICS: [(&str, &str); 36] = [
    ("hxnet.build_s", "s"),
    ("hxnet.links", "count"),
    ("hxsim.new_s", "s"),
    ("hxcollect.sched_s", "s"),
    ("hxcollect.bind_s", "s"),
    ("hxcollect.ops", "count"),
    ("route.calls", "count"),
    ("route.calls_per_hop", "calls/hop"),
    ("route.useful_ratio", "ratio"),
    ("route.busy_s", "s"),
    ("route.calls_per_msg", "calls/msg"),
    ("flow.self_s", "s"),
    ("flow.epochs", "count"),
    ("flow.recomputes", "count"),
    ("flow.recomputes_full", "count"),
    ("flow.touched_flows", "count"),
    ("flow.ns_per_touched", "ns"),
    ("flow.us_per_msg", "us"),
    ("app.busy_s", "s"),
    ("app.callbacks", "count"),
    ("app.ns_per_callback", "ns"),
    ("packet.self_s", "s"),
    ("packet.events", "count"),
    ("packet.hops", "count"),
    ("packet.ns_per_event", "ns"),
    ("packet.stalls", "count"),
    ("cluster.run_s", "s"),
    ("cluster.sims", "count"),
    ("cluster.ms_per_sim", "ms"),
    ("cluster.memo_hit_ratio", "ratio"),
    ("cluster.rerates", "count"),
    ("cluster.defrag_passes", "count"),
    ("cluster.fail_events", "count"),
    ("cluster.flows_started", "count"),
    ("cluster.rate_epochs", "count"),
    ("trace.overhead", "ratio"),
];

/// `a / b`, or 0 where the layer did no work.
fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// The per-layer figures of one traced operation. Layers the workload
/// does not call into read 0.
fn layer_sample(
    w: Workload,
    tr: &Tracer,
    first_span: usize,
    r: &OpResult,
) -> Vec<(&'static str, f64)> {
    use hxtelemetry::collect::counter_total;
    let route = r.route;
    let route_s = route.busy_s();
    let mut m = vec![
        ("hxnet.links", r.links as f64),
        ("hxcollect.ops", r.sched_ops as f64),
        ("route.calls", route.calls as f64),
        ("route.busy_s", route_s),
        ("app.busy_s", r.app_busy_s),
        ("app.callbacks", r.app_callbacks as f64),
        (
            "app.ns_per_callback",
            ratio(r.app_busy_s * 1e9, r.app_callbacks as f64),
        ),
    ];
    match &r.outcome {
        Outcome::Sims(stats) => {
            let sum = |f: fn(&hxsim::SimStats) -> u64| stats.iter().map(f).sum::<u64>() as f64;
            let msgs = sum(|s| s.messages_sent);
            let hops = sum(|s| s.packets_forwarded);
            let events = sum(|s| s.events);
            let self_s = tr.total_s("hxsim.run", first_span) - r.app_busy_s - route_s;
            m.push(("route.calls_per_msg", ratio(route.calls as f64, msgs)));
            if w == Workload::PacketA2a64 {
                // The flow engine's `packets_forwarded` is a modelled
                // equivalent, not hops the router was asked about.
                m.extend([
                    ("route.calls_per_hop", ratio(route.calls as f64, hops)),
                    ("route.useful_ratio", ratio(hops, route.calls as f64)),
                    ("packet.self_s", self_s),
                    ("packet.events", events),
                    ("packet.hops", hops),
                    ("packet.ns_per_event", ratio(self_s * 1e9, events)),
                    ("packet.stalls", counter_total("packet_stalls") as f64),
                ]);
            } else {
                let touched = sum(|s| s.rate_touched_flows);
                m.extend([
                    ("flow.self_s", self_s),
                    ("flow.epochs", events),
                    ("flow.recomputes", sum(|s| s.rate_recomputes)),
                    ("flow.recomputes_full", sum(|s| s.rate_recomputes_full)),
                    ("flow.touched_flows", touched),
                    ("flow.ns_per_touched", ratio(self_s * 1e9, touched)),
                    ("flow.us_per_msg", ratio(self_s * 1e6, msgs)),
                ]);
            }
        }
        Outcome::Cluster(rep) => {
            let run_s = tr.total_s("hxcluster.run", first_span);
            let sims = rep.sim_invocations as f64;
            // Every placement and every re-rate looks the iteration time
            // up in the memo; misses run a simulation.
            let placed = rep.jobs.iter().filter(|j| !j.rejected).count() as f64;
            m.extend([
                ("cluster.run_s", run_s),
                ("cluster.sims", sims),
                ("cluster.ms_per_sim", ratio(run_s * 1e3, sims)),
                (
                    "cluster.memo_hit_ratio",
                    1.0 - ratio(sims, placed + rep.resims as f64),
                ),
                ("cluster.rerates", rep.resims as f64),
                ("cluster.defrag_passes", rep.defrag_passes as f64),
                ("cluster.fail_events", rep.fail_events as f64),
                (
                    "cluster.flows_started",
                    counter_total("flows_started") as f64,
                ),
                ("cluster.rate_epochs", counter_total("rate_epochs") as f64),
            ]);
        }
    }
    m
}

fn traced(a: &Args) -> Report {
    use hxtelemetry::collect;
    let mut tr = Tracer::on();
    let mut setups = Setups::default();
    let mut samples = BTreeMap::<&str, Vec<f64>>::new();
    let mut bare_walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut attempted = 0;
    let mut failures = 0;
    let start = Instant::now();
    // Untraced and traced rounds alternate, so the overhead ratio
    // compares operations run under the same conditions.
    while attempted < 2 * MIN_OPS || start.elapsed().as_secs_f64() < a.seconds {
        let r = round(a, &mut Tracer::off(), &mut Setups::default());
        attempted += 1;
        failures += failed(&r) as usize;
        if let Ok(r) = r {
            bare_walls.push(r.wall_s);
        }

        collect::reset();
        collect::set_metrics_enabled(true);
        let first_span = tr.spans().len();
        let r = tr.span("round", |tr| round(a, tr, &mut setups));
        collect::set_metrics_enabled(false);
        attempted += 1;
        failures += failed(&r) as usize;
        if let Ok(r) = r {
            traced_walls.push(r.wall_s);
            for (name, v) in layer_sample(a.workload, &tr, first_span, &r) {
                samples.entry(name).or_default().push(v);
            }
            setups.extra(a, &mut tr, r.wall_s);
        }
        collect::reset();
    }
    samples.extend(setups.layers);
    samples.insert(
        "trace.overhead",
        vec![ratio(median(&traced_walls), median(&bare_walls))],
    );
    let metrics = LAYER_METRICS
        .iter()
        .map(|&(name, unit)| (name, samples.get(name).map_or(0.0, |v| median(v)), unit))
        .collect();
    write_trace(a, &tr);
    Report {
        attempted,
        failed: failures,
        metrics,
    }
}

/// Write the traced run's spans next to the benchmark's sources. A
/// failure to write is reported but does not fail the run.
fn write_trace(a: &Args, tr: &Tracer) {
    let label = format!("perfbench/{}", a.workload.name());
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("{}-seed{}.trace.json", a.workload.name(), a.seed));
    let written = tr.chrome_trace(&label).and_then(|text| {
        std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, text))
            .map_err(|e| e.to_string())
    });
    match written {
        Ok(()) => eprintln!(
            "perfbench: wrote {} ({} spans)",
            path.display(),
            tr.spans().len()
        ),
        Err(e) => eprintln!("perfbench: trace not written: {e}"),
    }
}

fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Peak resident set size of this process, from `/proc/self/status`.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|l| l.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}
