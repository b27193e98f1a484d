//! CI perf-smoke harness: runs the Fig. 11 (alltoall) and Fig. 13
//! (allreduce) headline scenarios at quick scale on **both** simulation
//! backends, records wall-clock and simulated time to `BENCH_sim.json`,
//! emits the figure sweeps as CSV artifacts (flow engine, so the sweep
//! stays cheap even in CI), and benchmarks the thread pool: the Fig. 8 /
//! Fig. 9 Monte-Carlo trace sweeps run once at 1 thread and once at the
//! environment thread count, and `BENCH_par.json` records the measured
//! parallel speedup plus a bitwise identical-results check.
//!
//! ```sh
//! perf_smoke --out bench-artifacts
//! ```
//!
//! The JSON files double as the PR-level perf gates: `BENCH_sim.json`'s
//! `wall_speedup` documents how much faster the flow-level fast path is
//! than the packet engine, and `BENCH_par.json`'s `speedup` documents
//! what multi-core execution buys on the trace sweeps (CI enforces
//! >= 1.5x when the runner has >= 4 cores).

use hammingmesh::hxalloc::experiments::{
    fig8_strategies, fig8_utilization, fig9_upper_traffic, Distribution,
};
use hammingmesh::hxsim::apps::Alltoall;
use hammingmesh::hxsim::SimStats;
use hammingmesh::prelude::*;
use hxserve::cli::{self, FlagSpec};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

/// perf_smoke's flags, parsed as strictly as the shared table: unknown
/// flags and missing values exit 2.
const FLAGS: &[FlagSpec] = &[
    FlagSpec {
        name: "--out",
        value: Some("DIR"),
        help: "directory for the BENCH_*.json files and figure CSVs (default: .)",
    },
    FlagSpec {
        name: "--quick",
        value: None,
        help: "shrink the packet-engine scenarios so a debug build stays fast \
               (the smoke tests run it this way; CI runs the full release version)",
    },
];

struct EngineRun {
    wall_s: f64,
    sim_ps: u64,
    bw_fraction: f64,
    clean: bool,
}

fn run_both(mut f: impl FnMut(EngineKind) -> Measurement) -> (EngineRun, EngineRun) {
    let mut one = |engine| {
        #[allow(clippy::disallowed_methods)] // wall-clock is this bin's product
        let t0 = Instant::now();
        let m = f(engine);
        EngineRun {
            wall_s: t0.elapsed().as_secs_f64(),
            sim_ps: m.time_ps,
            bw_fraction: m.bw_fraction,
            clean: m.clean,
        }
    };
    (one(EngineKind::Packet), one(EngineKind::Flow))
}

fn json_scenario(out: &mut String, name: &str, desc: &str, packet: &EngineRun, flow: &EngineRun) {
    let speedup = packet.wall_s / flow.wall_s.max(1e-9);
    writeln!(out, "    \"{name}\": {{").unwrap();
    writeln!(out, "      \"scenario\": \"{desc}\",").unwrap();
    for (engine, r) in [("packet", packet), ("flow", flow)] {
        writeln!(
            out,
            "      \"{engine}\": {{\"wall_s\": {:.4}, \"sim_ps\": {}, \"bw_fraction\": {:.4}, \"clean\": {}}},",
            r.wall_s, r.sim_ps, r.bw_fraction, r.clean
        )
        .unwrap();
    }
    writeln!(out, "      \"wall_speedup\": {speedup:.1}").unwrap();
    out.push_str("    }");
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
    eprintln!("[perf_smoke] fig11_alltoall scenario on {}", net.name);
    let (a2a_packet, a2a_flow) =
        run_both(|engine| experiments::alltoall_bandwidth_on(&net, a2a_bytes, 2, engine));
    eprintln!(
        "[perf_smoke] alltoall packet {:.2}s / flow {:.2}s -> {:.0}x",
        a2a_packet.wall_s,
        a2a_flow.wall_s,
        a2a_packet.wall_s / a2a_flow.wall_s.max(1e-9)
    );
    eprintln!("[perf_smoke] fig13_allreduce scenario on {}", net.name);
    let (ar_packet, ar_flow) = run_both(|engine| {
        experiments::allreduce_bandwidth_on(&net, AllreduceAlgo::DisjointRings, ar_bytes, engine)
    });
    eprintln!(
        "[perf_smoke] allreduce packet {:.2}s / flow {:.2}s -> {:.0}x",
        ar_packet.wall_s,
        ar_flow.wall_s,
        ar_packet.wall_s / ar_flow.wall_s.max(1e-9)
    );

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"generated_by\": \"perf_smoke\",\n");
    json.push_str(if quick {
        "  \"scale\": \"reduced (--quick)\",\n"
    } else {
        "  \"scale\": \"quick\",\n"
    });
    json.push_str("  \"scenarios\": {\n");
    json_scenario(
        &mut json,
        "fig11_alltoall",
        &format!(
            "balanced-shift alltoall, {}/pair, Hx2Mesh 64 endpoints",
            hxbench::fmt_bytes(a2a_bytes)
        ),
        &a2a_packet,
        &a2a_flow,
    );
    json.push_str(",\n");
    json_scenario(
        &mut json,
        "fig13_allreduce",
        &format!(
            "disjoint-rings allreduce, {}/rank, Hx2Mesh 64 endpoints",
            hxbench::fmt_bytes(ar_bytes)
        ),
        &ar_packet,
        &ar_flow,
    );
    json.push_str(",\n");
    json_flow_scale(&mut json, quick);
    json.push_str("\n  }\n}\n");
    let json_path = out_dir.join("BENCH_sim.json");
    std::fs::write(&json_path, &json).expect("write BENCH_sim.json");
    eprintln!("[perf_smoke] wrote {}", json_path.display());

    // Figure sweeps as CSV artifacts, on the flow engine (cheap).
    let sizes_a2a: &[u64] = if quick {
        &[32 << 10]
    } else {
        &[32 << 10, 256 << 10, 1 << 20]
    };
    let mut csv = String::from("topology,engine,bytes,bw_fraction,sim_ps,clean\n");
    for choice in TopologyChoice::all() {
        let net = choice.build_scaled(64);
        for &s in sizes_a2a {
            let m = experiments::alltoall_bandwidth_on(&net, s, 2, EngineKind::Flow);
            writeln!(
                csv,
                "{},flow,{},{:.4},{},{}",
                choice.name(),
                s,
                m.bw_fraction,
                m.time_ps,
                m.clean
            )
            .unwrap();
        }
    }
    let p = out_dir.join("fig11_alltoall.csv");
    std::fs::write(&p, &csv).expect("write fig11 csv");
    eprintln!("[perf_smoke] wrote {}", p.display());

    let sizes_ar: &[u64] = if quick {
        &[256 << 10]
    } else {
        &[256 << 10, 1 << 20, 4 << 20]
    };
    let mut csv = String::from("topology,engine,algorithm,bytes,bw_fraction,sim_ps,clean\n");
    for choice in TopologyChoice::all() {
        let net = choice.build_scaled(64);
        for algo in [AllreduceAlgo::DisjointRings, AllreduceAlgo::Torus2D] {
            for &s in sizes_ar {
                let m = experiments::allreduce_bandwidth_on(&net, algo, s, EngineKind::Flow);
                writeln!(
                    csv,
                    "{},flow,{:?},{},{:.4},{},{}",
                    choice.name(),
                    algo,
                    s,
                    m.bw_fraction,
                    m.time_ps,
                    m.clean
                )
                .unwrap();
            }
        }
    }
    let p = out_dir.join("fig13_allreduce.csv");
    std::fs::write(&p, &csv).expect("write fig13 csv");
    eprintln!("[perf_smoke] wrote {}", p.display());

    write_bench_obs(&out_dir, quick, &net, a2a_bytes);
    write_bench_fault(&out_dir, quick, &net, a2a_bytes);
    write_bench_par(&out_dir, quick);
}

/// The mid-run failure machinery's no-op gate: the fig11 alltoall flow
/// run with no schedule — the baseline configuration every figure sweep
/// uses — against the same run with a [`hammingmesh::hxsim::FailureSchedule`] armed whose
/// events all land far beyond the horizon. The no-schedule run IS the
/// baseline, so this gate pins the cost of carrying schedule support in
/// the engines at all; an armed-but-inert schedule costs one comparison
/// per epoch-loop iteration and must sit within measurement noise
/// (<= 1.05x). `BENCH_fault.json` records both walls and the gate.
fn write_bench_fault(out_dir: &std::path::Path, quick: bool, net: &Network, bytes: u64) {
    use hammingmesh::hxsim::FailureSchedule;
    let wall = |sched: &FailureSchedule| -> f64 {
        let mut best = f64::INFINITY;
        for _ in 0..3 {
            #[allow(clippy::disallowed_methods)] // wall-clock is this bin's product
            let t0 = Instant::now();
            let m = experiments::alltoall_bandwidth_cfg(
                net,
                bytes,
                2,
                EngineKind::Flow,
                SimConfig {
                    failures: sched.clone(),
                    ..SimConfig::default()
                },
            );
            assert!(m.clean, "fig11 flow run did not deliver all traffic");
            best = best.min(t0.elapsed().as_secs_f64());
        }
        best
    };
    let baseline = wall(&FailureSchedule::default());
    let (node, port) = net.topo.cables()[0];
    const BEYOND_HORIZON_PS: u64 = 1_000_000_000_000_000;
    let armed = FailureSchedule::new()
        .fail(BEYOND_HORIZON_PS, node, port)
        .repair(BEYOND_HORIZON_PS + 1_000, node, port);
    let armed_wall = wall(&armed);
    let ratio = armed_wall / baseline.max(1e-9);
    eprintln!(
        "[perf_smoke] fault: no-schedule {baseline:.3}s, armed-inert {armed_wall:.3}s \
         ({ratio:.3}x)"
    );
    let mut json = String::new();
    json.push_str("{\n  \"generated_by\": \"perf_smoke\",\n");
    json.push_str(
        "  \"scenario\": \"balanced-shift alltoall, flow engine, Hx2Mesh 64 endpoints, \
         min-of-3 walls in one process; armed schedule fires beyond the horizon\",\n",
    );
    writeln!(json, "  \"no_schedule_wall_s\": {baseline:.4},").unwrap();
    writeln!(json, "  \"armed_inert_wall_s\": {armed_wall:.4},").unwrap();
    writeln!(json, "  \"ratio\": {ratio:.4},").unwrap();
    writeln!(
        json,
        "  \"gate\": {{\"max_ratio\": 1.05, \"enforced\": {}}}",
        !quick
    )
    .unwrap();
    json.push_str("}\n");
    let path = out_dir.join("BENCH_fault.json");
    std::fs::write(&path, &json).expect("write BENCH_fault.json");
    eprintln!("[perf_smoke] wrote {}", path.display());
}

/// The observability overhead gate: the fig11 alltoall flow run measured
/// three ways in one process — telemetry disabled (the baseline and the
/// "tracing off" leg, proving the disabled instrumentation is one branch
/// per site), then with both channels on. `BENCH_obs.json` records the
/// walls and the ratio gates (off <= 1.05x, on <= 1.25x); the traced run
/// also emits `fig11_flow.trace.json`, a Perfetto-loadable sample
/// artifact, validated against the Chrome trace-event schema before it
/// is written.
fn write_bench_obs(out_dir: &std::path::Path, quick: bool, net: &Network, bytes: u64) {
    use hxtelemetry::collect;
    let wall = |runs: u32| -> f64 {
        let mut best = f64::INFINITY;
        for _ in 0..runs {
            #[allow(clippy::disallowed_methods)] // wall-clock is this bin's product
            let t0 = Instant::now();
            let m = experiments::alltoall_bandwidth_on(net, bytes, 2, EngineKind::Flow);
            assert!(m.clean, "fig11 flow run did not deliver all traffic");
            best = best.min(t0.elapsed().as_secs_f64());
        }
        best
    };
    collect::set_trace_enabled(false);
    collect::set_metrics_enabled(false);
    let baseline = wall(3);
    let off = wall(3);
    collect::set_trace_enabled(true);
    collect::set_metrics_enabled(true);
    collect::reset();
    let on = {
        let _scope = collect::scope("obs/fig11_flow");
        wall(3)
    };
    let trace = collect::render_trace().expect("render trace");
    let events = hxtelemetry::validate_chrome_trace(&trace)
        .expect("traced fig11 run must emit valid Chrome trace JSON");
    collect::set_trace_enabled(false);
    collect::set_metrics_enabled(false);
    collect::reset();
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
    let mut json = String::new();
    json.push_str("{\n  \"generated_by\": \"perf_smoke\",\n");
    json.push_str(
        "  \"scenario\": \"balanced-shift alltoall, flow engine, Hx2Mesh 64 endpoints, \
         min-of-3 walls in one process\",\n",
    );
    writeln!(json, "  \"baseline_wall_s\": {baseline:.4},").unwrap();
    writeln!(json, "  \"tracing_off_wall_s\": {off:.4},").unwrap();
    writeln!(json, "  \"tracing_on_wall_s\": {on:.4},").unwrap();
    writeln!(json, "  \"off_ratio\": {off_ratio:.4},").unwrap();
    writeln!(json, "  \"on_ratio\": {on_ratio:.4},").unwrap();
    writeln!(json, "  \"trace_events\": {events},").unwrap();
    writeln!(
        json,
        "  \"gate\": {{\"max_off_ratio\": 1.05, \"max_on_ratio\": 1.25, \"enforced\": {}}}",
        !quick
    )
    .unwrap();
    json.push_str("}\n");
    let path = out_dir.join("BENCH_obs.json");
    std::fs::write(&path, &json).expect("write BENCH_obs.json");
    eprintln!("[perf_smoke] wrote {}", path.display());
}

/// ROADMAP item 1's scale gate: a Table-II-scale Hx4Mesh alltoall on one
/// core of the flow engine. The alltoall is shift-capped
/// ([`Alltoall::with_shifts`]) so the message count stays CI-sized
/// (16384 ranks × 8 shifts ≈ 131k messages; the untruncated pattern
/// would be 2.7·10⁸), while each shift remains a full permutation of the
/// uniform all-pairs traffic. Records wall-clock, the solver-effort
/// split from [`SimStats`], and the share of recompute epochs the
/// O(affected) incremental solver kept component-scoped — CI gates that
/// share at ≥ 0.9 and the wall-clock under the step budget. `--quick`
/// shrinks to 1024 endpoints so the debug-profile smoke tests stay fast.
fn json_flow_scale(out: &mut String, quick: bool) {
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
    #[allow(clippy::disallowed_methods)] // wall-clock is this bin's product
    let t0 = Instant::now();
    let stats: SimStats = FlowEngine::new(&net, SimConfig::default()).run(&mut app);
    let wall_s = t0.elapsed().as_secs_f64();
    let messages = endpoints as u64 * shifts as u64;
    let comp_share =
        stats.rate_recomputes_component as f64 / (stats.rate_recomputes as f64).max(1.0);
    eprintln!(
        "[perf_smoke] flow_scale: {messages} messages in {wall_s:.2}s, \
         {} recompute epochs ({} full, {} component -> {:.1}% component-scoped)",
        stats.rate_recomputes,
        stats.rate_recomputes_full,
        stats.rate_recomputes_component,
        100.0 * comp_share
    );
    assert!(stats.clean(), "flow_scale run did not complete: {stats:?}");
    writeln!(out, "    \"flow_scale\": {{").unwrap();
    writeln!(
        out,
        "      \"scenario\": \"shift-capped alltoall, Hx4Mesh {endpoints} endpoints, \
         {shifts} shifts x {}/pair, flow engine, 1 core\",",
        hxbench::fmt_bytes(bytes)
    )
    .unwrap();
    writeln!(
        out,
        "      \"endpoints\": {endpoints}, \"shifts\": {shifts}, \"messages\": {messages},"
    )
    .unwrap();
    writeln!(
        out,
        "      \"flow\": {{\"wall_s\": {wall_s:.4}, \"sim_ps\": {}, \"clean\": {}}},",
        stats.finish_ps,
        stats.clean()
    )
    .unwrap();
    writeln!(
        out,
        "      \"rate_recomputes\": {}, \"rate_recomputes_full\": {}, \
         \"rate_recomputes_component\": {}, \"rate_touched_flows\": {},",
        stats.rate_recomputes,
        stats.rate_recomputes_full,
        stats.rate_recomputes_component,
        stats.rate_touched_flows
    )
    .unwrap();
    writeln!(out, "      \"component_fill_share\": {comp_share:.4},").unwrap();
    // The wall budget is generous against the measured time (see
    // BENCH_sim.json in-tree) so CI noise cannot flake the gate; the
    // component-share gate is the real O(affected) regression tripwire.
    writeln!(
        out,
        "      \"gate\": {{\"min_component_share\": 0.9, \"max_wall_s\": 120.0, \
         \"enforced\": {}}}",
        !quick
    )
    .unwrap();
    out.push_str("    }");
}

/// Benchmark the thread pool under the rayon shim: the Fig. 8 and Fig. 9
/// Monte-Carlo trace sweeps — the workloads ISSUE/ROADMAP name as the
/// parallelization targets — once at `RAYON_NUM_THREADS=1` and once at
/// the environment thread count, asserting the two runs produce bitwise
/// identical samples (the pool's index-ordered collection contract) and
/// recording the wall-clock speedup in `BENCH_par.json`.
///
/// The vendored shim re-reads `RAYON_NUM_THREADS` on every parallel call,
/// which is what lets one process measure both configurations.
fn write_bench_par(out_dir: &std::path::Path, quick: bool) {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let saved = std::env::var("RAYON_NUM_THREADS").ok();
    let threads = rayon::current_num_threads();
    // Sized so the sequential leg runs a few hundred ms in release: long
    // enough that the CI speedup gate measures compute, not timer noise
    // or thread spawn cost, short enough to stay a smoke test.
    let (fig8_traces, fig9_traces) = if quick { (60, 6) } else { (4000, 200) };
    let strategies = fig8_strategies();
    let full_stack = strategies[5];
    let locality_stack = strategies[3];

    let run_fig8 = || fig8_utilization(16, 16, fig8_traces, full_stack, 0xC0FFEE);
    let run_fig9 = || fig9_upper_traffic(64, 64, fig9_traces, locality_stack, 0xC0FFEE);
    let timed = |f: &dyn Fn() -> Vec<Distribution>| {
        #[allow(clippy::disallowed_methods)] // wall-clock is this bin's product
        let t0 = Instant::now();
        let d = f();
        (d, t0.elapsed().as_secs_f64())
    };

    std::env::set_var("RAYON_NUM_THREADS", "1");
    let (d8_seq, w8_seq) = timed(&|| vec![run_fig8()]);
    let (d9_seq, w9_seq) = timed(&|| {
        let (a, b) = run_fig9();
        vec![a, b]
    });
    match &saved {
        Some(v) => std::env::set_var("RAYON_NUM_THREADS", v),
        None => std::env::remove_var("RAYON_NUM_THREADS"),
    }
    let (d8_par, w8_par) = timed(&|| vec![run_fig8()]);
    let (d9_par, w9_par) = timed(&|| {
        let (a, b) = run_fig9();
        vec![a, b]
    });

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
    let id8 = identical(&d8_seq, &d8_par);
    let id9 = identical(&d9_seq, &d9_par);
    assert!(
        id8 && id9,
        "parallel sweep results diverged from sequential (fig8: {id8}, fig9: {id9})"
    );

    let mut json = String::new();
    json.push_str("{\n  \"generated_by\": \"perf_smoke\",\n");
    writeln!(json, "  \"cores\": {cores},").unwrap();
    writeln!(json, "  \"threads\": {threads},").unwrap();
    json.push_str("  \"sweeps\": {\n");
    for (name, traces, seq, par, id, comma) in [
        ("fig8_utilization", fig8_traces, w8_seq, w8_par, id8, ","),
        ("fig9_upper_traffic", fig9_traces, w9_seq, w9_par, id9, ""),
    ] {
        writeln!(
            json,
            "    \"{name}\": {{\"traces\": {traces}, \"wall_s_1thread\": {seq:.4}, \
             \"wall_s_par\": {par:.4}, \"speedup\": {:.2}, \"identical_results\": {id}}}{comma}",
            seq / par.max(1e-9)
        )
        .unwrap();
        eprintln!(
            "[perf_smoke] {name}: {seq:.2}s @1 thread, {par:.2}s @{threads} -> {:.2}x",
            seq / par.max(1e-9)
        );
    }
    json.push_str("  },\n");
    // Enforce only when the parallel leg actually ran >= 4 wide: a
    // RAYON_NUM_THREADS cap below 4 (or a small machine) makes the
    // speedup unearnable, so the gate must no-op there.
    writeln!(
        json,
        "  \"gate\": {{\"min_speedup\": 1.5, \"enforced\": {}}}",
        cores >= 4 && threads >= 4
    )
    .unwrap();
    json.push_str("}\n");
    let path = out_dir.join("BENCH_par.json");
    std::fs::write(&path, &json).expect("write BENCH_par.json");
    eprintln!("[perf_smoke] wrote {}", path.display());
}
