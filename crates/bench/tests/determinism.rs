//! Thread-count determinism suite for the parallel sweep drivers.
//!
//! The vendored rayon thread pool promises **index-ordered collection**:
//! the results of a parallel sweep are byte-identical to sequential
//! execution at any thread count. These tests hold the headline drivers
//! to that promise end to end — each binary runs under
//! `RAYON_NUM_THREADS=1` and `=4` and the captured stdout (and CSV file,
//! where the binary writes one) must match byte for byte. Wall-clock
//! chatter goes to stderr, which is deliberately not compared.
//!
//! Panic propagation through the pool (a worker panic must fail the
//! caller, with every input item dropped exactly once) is pinned by the
//! shim's own tests in `vendor/rayon`.

use hxtelemetry::validate_chrome_trace;
use std::collections::{BTreeMap, BTreeSet};
use std::process::Command;

/// Run `exe` with `args` under the given thread count; returns (stdout,
/// CSV contents if `csv_args` requested one).
fn run(exe: &str, args: &[&str], threads: u32, csv: bool) -> (Vec<u8>, Option<String>) {
    let csv_path = std::env::temp_dir().join(format!(
        "hx_det_{}_{threads}_{}.csv",
        std::process::id(),
        std::path::Path::new(exe)
            .file_name()
            .unwrap()
            .to_string_lossy()
    ));
    let mut cmd = Command::new(exe);
    cmd.args(args).env("RAYON_NUM_THREADS", threads.to_string());
    if csv {
        cmd.args(["--csv", csv_path.to_str().unwrap()]);
    }
    let out = cmd
        .output()
        .unwrap_or_else(|e| panic!("failed to spawn {exe}: {e}"));
    assert!(
        out.status.success(),
        "{exe} with {threads} thread(s) exited with {:?}\n--- stderr ---\n{}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr),
    );
    let body = csv.then(|| {
        let b = std::fs::read_to_string(&csv_path).expect("CSV written");
        std::fs::remove_file(&csv_path).ok();
        b
    });
    (out.stdout, body)
}

/// Assert a binary produces byte-identical stdout (and CSV) at 1 vs 4
/// threads.
fn assert_thread_count_invariant(exe: &str, args: &[&str], csv: bool) {
    let (out1, csv1) = run(exe, args, 1, csv);
    let (out4, csv4) = run(exe, args, 4, csv);
    assert!(
        out1 == out4,
        "{exe}: stdout differs between 1 and 4 threads\n--- 1 thread ---\n{}\n--- 4 threads ---\n{}",
        String::from_utf8_lossy(&out1),
        String::from_utf8_lossy(&out4),
    );
    assert_eq!(csv1, csv4, "{exe}: CSV differs between 1 and 4 threads");
    // Guard against trivially-empty comparisons.
    assert!(!out1.is_empty(), "{exe} printed nothing");
}

/// Fig. 8's Monte-Carlo utilization sweep: the `into_par_iter` trace loop
/// in `hxalloc::experiments` must aggregate identically at any thread
/// count (the printed table is all that binary emits on stdout).
#[test]
fn fig8_utilization_is_thread_count_invariant() {
    assert_thread_count_invariant(
        env!("CARGO_BIN_EXE_fig8_utilization"),
        &["--traces", "40"],
        false,
    );
}

/// The cluster-lifetime sweep: three load levels simulated in parallel,
/// with per-load output buffered and emitted in load order — stdout rows
/// and the per-job/summary CSV must not depend on completion order.
#[test]
fn cluster_sweep_is_thread_count_invariant() {
    assert_thread_count_invariant(
        env!("CARGO_BIN_EXE_cluster_sweep"),
        &["--traces", "8", "--seed", "12648430"],
        true,
    );
}

/// The routed cable-failure sweep: every (topology, failures, engine,
/// draw) cell simulates independently on the pool; the table and the
/// per-draw CSV reassemble in grid order.
#[test]
fn fig10_routed_is_thread_count_invariant() {
    assert_thread_count_invariant(
        env!("CARGO_BIN_EXE_fig10_failures"),
        &["--mode", "routed", "--traces", "2", "--engine", "flow"],
        true,
    );
}

/// The frozen-vs-mid-flight failure comparison: every cell runs a
/// mid-run [`FailureSchedule`] through one of the engines (flow re-route
/// and re-rate, packet drop and retransmit), and the whole recovery
/// machinery must still collect in grid order at any thread count. The
/// rate-solver half of the pin runs in-process: the mid-run option of
/// `tests/flow_incremental_equiv.rs` replays drawn cable sets as
/// schedules under both `RateMode`s and compares them bitwise.
#[test]
fn fig10_midrun_is_thread_and_rate_solver_invariant() {
    assert_thread_count_invariant(env!("CARGO_BIN_EXE_fig10_midrun"), &[], true);
}

/// Fig. 11's (topology x message-size) alltoall grid: independent cells
/// on the pool, table reassembled in grid order. No CSV on this binary —
/// the printed table is the entire artifact.
#[test]
fn fig11_alltoall_is_thread_count_invariant() {
    assert_thread_count_invariant(env!("CARGO_BIN_EXE_fig11_alltoall"), &[], false);
}

/// Fig. 12's permutation distribution: one seeded permutation run per
/// topology in parallel; the percentile rows (and the float sums behind
/// the mean column) must not depend on completion order.
#[test]
fn fig12_permutation_is_thread_count_invariant() {
    assert_thread_count_invariant(
        env!("CARGO_BIN_EXE_fig12_permutation"),
        &["--seed", "3735928559"],
        false,
    );
}

/// Fig. 13's (algorithm x topology x size) allreduce grid, the paper's
/// headline collective result.
#[test]
fn fig13_allreduce_is_thread_count_invariant() {
    assert_thread_count_invariant(env!("CARGO_BIN_EXE_fig13_allreduce"), &[], false);
}

/// Run `exe` with `--metrics-out`/`--trace-out` under the given thread
/// count; returns the two artifact documents.
fn run_telemetry(exe: &str, args: &[&str], threads: u32) -> (String, String) {
    let stem = format!(
        "hx_tel_{}_{threads}_{}",
        std::process::id(),
        std::path::Path::new(exe)
            .file_name()
            .unwrap()
            .to_string_lossy()
    );
    let metrics_path = std::env::temp_dir().join(format!("{stem}.metrics.json"));
    let trace_path = std::env::temp_dir().join(format!("{stem}.trace.json"));
    let out = Command::new(exe)
        .args(args)
        .args(["--metrics-out", metrics_path.to_str().unwrap()])
        .args(["--trace-out", trace_path.to_str().unwrap()])
        .env("RAYON_NUM_THREADS", threads.to_string())
        .output()
        .unwrap_or_else(|e| panic!("failed to spawn {exe}: {e}"));
    assert!(
        out.status.success(),
        "{exe} with {threads} thread(s) exited with {:?}\n--- stderr ---\n{}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr),
    );
    let metrics = std::fs::read_to_string(&metrics_path).expect("metrics artifact written");
    let trace = std::fs::read_to_string(&trace_path).expect("trace artifact written");
    std::fs::remove_file(&metrics_path).ok();
    std::fs::remove_file(&trace_path).ok();
    (metrics, trace)
}

/// Assert `--metrics-out`/`--trace-out` artifacts are byte-identical at
/// 1 vs 4 threads, and that the trace parses as Chrome trace-event JSON
/// with events in it. Solver-mode invariance of everything the engine
/// reports is pinned in-process by `tests/flow_incremental_equiv.rs`.
fn assert_telemetry_invariant(exe: &str, args: &[&str]) {
    let (m1, t1) = run_telemetry(exe, args, 1);
    let (m4, t4) = run_telemetry(exe, args, 4);
    assert!(
        m1 == m4,
        "{exe}: metrics artifact differs between 1 and 4 threads"
    );
    assert!(
        t1 == t4,
        "{exe}: trace artifact differs between 1 and 4 threads"
    );
    let events = validate_chrome_trace(&t1)
        .unwrap_or_else(|e| panic!("{exe}: trace artifact is not valid Chrome trace JSON: {e}"));
    assert!(events > 0, "{exe}: trace artifact holds no events");
    assert!(
        m1.contains("\"counters\""),
        "{exe}: metrics artifact holds no registry"
    );
}

/// The telemetry tentpole's determinism claim, held end to end for the
/// fig11 sweep: metrics and trace artifacts are byte-identical at any
/// thread count, and the trace loads as Chrome trace-event JSON.
#[test]
fn fig11_telemetry_artifacts_are_thread_and_solver_invariant() {
    assert_telemetry_invariant(env!("CARGO_BIN_EXE_fig11_alltoall"), &[]);
}

/// Same artifact pins for the cluster-lifetime sweep, whose load points
/// run concurrently and nest engine runs inside the cluster event loop.
#[test]
fn cluster_sweep_telemetry_artifacts_are_thread_and_solver_invariant() {
    assert_telemetry_invariant(
        env!("CARGO_BIN_EXE_cluster_sweep"),
        &["--traces", "8", "--seed", "12648430"],
    );
}

/// The counters of every `cell/*` scope of a `--metrics-out` document,
/// with the scope's `msg_latency_ps` sample count. The renderer writes
/// one scope per line, so a line-wise scan reads it.
fn cell_counters(doc: &str) -> Vec<(String, BTreeMap<String, u64>, u64)> {
    // The text between `key` and the next `end` on `line`.
    let field = |line: &str, key: &str, end: char| {
        let rest = line.split(key).nth(1);
        let rest = rest.unwrap_or_else(|| panic!("no {key} in {line}"));
        rest.split(end).next().unwrap().to_string()
    };
    doc.lines()
        .filter(|l| l.starts_with("\"cell/"))
        .map(|l| {
            let counters = field(l, "\"counters\":{", '}')
                .split(',')
                .map(|kv| {
                    let (k, v) = kv.split_once(':').unwrap();
                    (k.trim_matches('"').to_string(), v.parse().unwrap())
                })
                .collect();
            let latency = field(l, "\"msg_latency_ps\":{\"count\":", ',');
            (field(l, "\"", '"'), counters, latency.parse().unwrap())
        })
        .collect()
}

/// Both engines keep their stats and telemetry in one ledger, so a
/// packet cell and a flow cell of one sweep report one metrics schema:
/// every cell of the mid-run failure sweep, run once per engine, names
/// the same counters; every message started drains and has one latency
/// sample; and each engine counts the cable failures it applied.
#[test]
fn packet_and_flow_cells_share_one_metrics_schema() {
    let exe = env!("CARGO_BIN_EXE_fig10_midrun");
    let mut schema: Option<BTreeSet<String>> = None;
    for engine in ["packet", "flow"] {
        let (metrics, _) = run_telemetry(exe, &["--traces", "1", "--engine", engine], 1);
        let cells = cell_counters(&metrics);
        assert!(!cells.is_empty(), "{engine}: no cell scopes");
        for (label, c, latency) in &cells {
            let names: BTreeSet<String> = c.keys().cloned().collect();
            let schema = schema.get_or_insert_with(|| names.clone());
            assert_eq!(&names, schema, "{engine} {label}: counter names differ");
            let started = c["flows_started"];
            assert_eq!(c["flows_drained"], started, "{engine} {label}: drained");
            assert_eq!(*latency, started, "{engine} {label}: latency samples");
        }
        assert!(
            cells
                .iter()
                .any(|(_, c, _)| c.get("link_fail_events").is_some_and(|&n| n > 0)),
            "{engine}: no cell counted a mid-run cable failure"
        );
    }
}

/// The reduction-scaling grid (algorithm x topology; `--traces 1` caps
/// the sweep at the 64-endpoint cluster size so the debug-profile run
/// stays a smoke test — the grid indexing under test is identical).
#[test]
fn fig14_grid_is_thread_count_invariant() {
    assert_thread_count_invariant(
        env!("CARGO_BIN_EXE_fig14_reduction_scaling"),
        &["--traces", "1"],
        true,
    );
}
