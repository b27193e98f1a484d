//! End-to-end contract of the `hxserve` binary: a `batch` run executed
//! twice against the same cache directory must serve the second pass
//! (near-)entirely from cache — ≥90% hits, asserted from the `--stats`
//! counters — and the streamed JSONL must be byte-identical between the
//! passes. This is the same check CI's perf-smoke job runs on the
//! committed specs at release scale.

use std::path::PathBuf;
use std::process::Command;

const SPEC_A: &str = r#"
[scenario]
name = "batch-a"
engine = "flow"

[topology]
set = ["hx2mesh", "torus"]
endpoints = 16

[sweep]
bytes = [4096, 16384]

[output]
style = "grid"
title = "batch a"
"#;

const SPEC_B: &str = r#"
[scenario]
name = "batch-b"
engine = "flow"

[topology]
set = ["hx2mesh"]
endpoints = 16

[sweep]
bytes = [16384]
algos = ["rings", "torus"]

[output]
style = "grid_by_algo"
title = "batch b"
"#;

struct Workdir(PathBuf);

impl Workdir {
    fn new(tag: &str) -> Self {
        let d = std::env::temp_dir().join(format!("hxserve_cli_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&d).ok();
        std::fs::create_dir_all(&d).unwrap();
        Self(d)
    }
    fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for Workdir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

fn stat(stats: &str, field: &str) -> usize {
    let pat = format!("\"{field}\":");
    let rest = &stats[stats
        .find(&pat)
        .unwrap_or_else(|| panic!("{field} in {stats}"))
        + pat.len()..];
    rest[..rest.find([',', '}']).unwrap()]
        .trim()
        .parse()
        .unwrap()
}

fn run_batch(dir: &Workdir, pass: &str, extra: &[&str]) -> (Vec<u8>, String) {
    let stats_path = dir.path(&format!("stats_{pass}.json"));
    let out = Command::new(env!("CARGO_BIN_EXE_hxserve"))
        .arg("batch")
        .arg(dir.path("a.toml"))
        .arg(dir.path("b.toml"))
        .args(["--cache-dir", dir.path("cache").to_str().unwrap()])
        .args(["--stats", stats_path.to_str().unwrap()])
        .args(extra)
        .output()
        .expect("spawn hxserve");
    assert!(
        out.status.success(),
        "hxserve batch ({pass}) exited with {:?}\n--- stderr ---\n{}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr),
    );
    let stats = std::fs::read_to_string(&stats_path).expect("stats written");
    (out.stdout, stats)
}

#[test]
fn second_batch_pass_is_cached_and_byte_identical() {
    let dir = Workdir::new("batch");
    std::fs::write(dir.path("a.toml"), SPEC_A).unwrap();
    std::fs::write(dir.path("b.toml"), SPEC_B).unwrap();

    let (cold_out, cold_stats) = run_batch(&dir, "cold", &[]);
    assert_eq!(stat(&cold_stats, "specs"), 2);
    let cells = stat(&cold_stats, "cells");
    assert_eq!(cells, 2 * 2 + 2, "grid 2x2 plus two allreduce cells");
    assert_eq!(stat(&cold_stats, "cache_hits"), 0);
    assert_eq!(stat(&cold_stats, "cache_misses"), cells);

    let (warm_out, warm_stats) = run_batch(&dir, "warm", &[]);
    let hits = stat(&warm_stats, "cache_hits");
    assert!(
        hits * 10 >= cells * 9,
        "warm pass must be >=90% cache hits, got {hits}/{cells}"
    );
    assert_eq!(
        warm_out, cold_out,
        "warm JSONL must be byte-identical to the cold pass"
    );
    // JSONL stream: one object per cell, in plan order, no cached marker.
    let body = String::from_utf8(cold_out).unwrap();
    assert_eq!(body.lines().count(), cells);
    assert!(body.lines().all(|l| l.starts_with('{') && l.ends_with('}')));
    assert!(!body.contains("cached"));
}

/// A small mid-run packet-engine spec whose dropped packets make the
/// two recovery policies finish at different times; `{retransmit}`
/// stands for the optional `retransmit` line.
const MIDRUN: &str = r#"
[scenario]
name = "midrun"
engine = "packet"

[topology]
set = ["hx2mesh", "torus"]
endpoints = 16

[sweep]
bytes = [32768]
failed_cables = [2]
draws = 1

[failures]
mode = "midrun"
{retransmit}

[failures.schedule]
fail_at_ps = [1000000]

[output]
style = "failure_blocks"
title = "midrun"
"#;

/// The packet-engine recovery policy is a spec key, so switching it
/// changes the hashed spec source and every cell key: a cache warmed
/// under the timeout policy must serve none of its records to the
/// reroute spec, whose output must equal its own uncached run.
#[test]
fn retransmit_switch_never_hits_the_other_policys_records() {
    let dir = Workdir::new("retransmit");
    let spec = dir.path("midrun.toml");
    let run = |extra: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_hxserve"))
            .arg("run")
            .arg(&spec)
            .args(extra)
            .output()
            .expect("spawn hxserve");
        assert!(
            out.status.success(),
            "hxserve run {extra:?} exited with {:?}\n--- stderr ---\n{}",
            out.status.code(),
            String::from_utf8_lossy(&out.stderr),
        );
        out.stdout
    };
    let cache = dir.path("cache");
    let cached = ["--cache-dir", cache.to_str().unwrap()];
    let stats_path = dir.path("stats.json");

    std::fs::write(&spec, MIDRUN.replace("{retransmit}", "")).unwrap();
    let timeout_out = run(&cached);

    std::fs::write(
        &spec,
        MIDRUN.replace("{retransmit}", "retransmit = \"reroute\""),
    )
    .unwrap();
    let reroute_out = run(&[&cached[..], &["--stats", stats_path.to_str().unwrap()]].concat());
    let stats = std::fs::read_to_string(&stats_path).expect("stats written");
    assert_eq!(stat(&stats, "cache_hits"), 0, "{stats}");
    assert_eq!(
        reroute_out,
        run(&["--no-cache"]),
        "the reroute run must match its own uncached output"
    );
    // Without this the test could not see a stale hit.
    assert_ne!(
        reroute_out, timeout_out,
        "the two policies must differ on this spec"
    );
}

/// Satellite contract of the telemetry tentpole: `--stats` keeps its
/// legacy fields but gains the registry counter totals and the measured
/// `telemetry_overhead_s`, and `--metrics-out`/`--trace-out` write a
/// scope-keyed metrics document and a valid Chrome trace.
#[test]
fn stats_gain_registry_counters_and_telemetry_artifacts() {
    let dir = Workdir::new("telemetry");
    std::fs::write(dir.path("a.toml"), SPEC_A).unwrap();
    std::fs::write(dir.path("b.toml"), SPEC_B).unwrap();
    let metrics_path = dir.path("metrics.json");
    let trace_path = dir.path("trace.json");
    let tel_flags = [
        "--metrics-out",
        metrics_path.to_str().unwrap(),
        "--trace-out",
        trace_path.to_str().unwrap(),
    ];

    let (_, cold_stats) = run_batch(&dir, "cold", &tel_flags);
    let cells = stat(&cold_stats, "cells");
    assert_eq!(stat(&cold_stats, "cells_computed"), cells, "{cold_stats}");
    assert!(stat(&cold_stats, "flows_started") > 0, "{cold_stats}");
    assert!(
        cold_stats.contains("\"telemetry_overhead_s\":"),
        "{cold_stats}"
    );
    let metrics = std::fs::read_to_string(&metrics_path).unwrap();
    assert!(metrics.contains("\"cell/0000\""), "{metrics}");
    assert!(metrics.contains("\"msg_latency_ps\""), "{metrics}");
    let trace = std::fs::read_to_string(&trace_path).unwrap();
    let events = hxtelemetry::validate_chrome_trace(&trace).expect("valid Chrome trace");
    assert!(events > 0, "trace holds no events");

    // A warm pass surfaces the cache through the trace counters too.
    let (_, warm_stats) = run_batch(&dir, "warm", &tel_flags);
    assert_eq!(
        stat(&warm_stats, "cell_cache_hits"),
        stat(&warm_stats, "cache_hits"),
        "{warm_stats}"
    );
}

#[test]
fn run_renders_csv_and_table_formats() {
    let dir = Workdir::new("formats");
    let spec = dir.path("scal.toml");
    std::fs::write(
        &spec,
        r#"
[scenario]
name = "scal"
engine = "flow"

[topology]
set = ["hx2mesh"]
endpoints = 16

[sweep]
bytes = [16384]
algos = ["rings"]
endpoints = [16, 64]

[output]
style = "scaling_by_algo"
title = "scal {bytes}"
"#,
    )
    .unwrap();

    let run = |format: &str| {
        let out = Command::new(env!("CARGO_BIN_EXE_hxserve"))
            .args([
                "run",
                spec.to_str().unwrap(),
                "--no-cache",
                "--format",
                format,
            ])
            .output()
            .expect("spawn hxserve");
        assert!(out.status.success(), "--format {format} failed");
        String::from_utf8(out.stdout).unwrap()
    };
    let csv = run("csv");
    assert!(
        csv.starts_with("algorithm,topology,engine,endpoints,bytes,bw_fraction,sim_ps,clean\n"),
        "{csv}"
    );
    assert_eq!(csv.lines().count(), 1 + 2, "header plus one row per cell");
    let table = run("table");
    assert!(table.contains("=== scal 16KiB ==="), "{table}");
    assert!(table.contains("algorithm: DisjointRings"), "{table}");
}

#[test]
fn cli_errors_are_exit_code_2() {
    let cases: &[&[&str]] = &[
        &["run"],                               // missing spec path
        &["batch"],                             // no specs
        &["frobnicate"],                        // unknown command
        &["run", "x.toml", "--wat"],            // unknown flag
        &["run", "x.toml", "--format", "yaml"], // bad enum value
        &["run", "x.toml", "--traces"],         // missing value
        &["run", "x.toml", "--rates", "full"],  // unknown flags
        &["run", "x.toml", "--retransmit", "reroute"],
        &["run", "x.toml", "--threads", "2"],
    ];
    for args in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_hxserve"))
            .args(*args)
            .output()
            .expect("spawn hxserve");
        assert_eq!(
            out.status.code(),
            Some(2),
            "{args:?} must exit 2\n--- stderr ---\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    let help = Command::new(env!("CARGO_BIN_EXE_hxserve"))
        .arg("--help")
        .output()
        .expect("spawn hxserve");
    assert_eq!(help.status.code(), Some(0), "--help exits 0");
    let text = String::from_utf8(help.stdout).unwrap();
    for flag in [
        "--full",
        "--traces",
        "--seed",
        "--engine",
        "--format",
        "--no-cache",
    ] {
        assert!(text.contains(flag), "--help must document {flag}:\n{text}");
    }
}

/// A spec that fails to parse is an exit-1 data error (not a usage
/// error), reported with the file path.
#[test]
fn broken_spec_is_exit_code_1_with_the_path() {
    let dir = Workdir::new("broken");
    let spec = dir.path("broken.toml");
    std::fs::write(&spec, "[scenario]\nname = \"x\"\n").unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_hxserve"))
        .args(["run", spec.to_str().unwrap()])
        .output()
        .expect("spawn hxserve");
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("broken.toml"), "{err}");
}
