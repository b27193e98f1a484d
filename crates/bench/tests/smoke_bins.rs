//! Smoke test: every figure binary must run to completion at quick scale.
//!
//! Each binary is invoked with `--traces 1` (one trace / repetition, quick
//! default sizes) and must exit 0. This keeps the figure harness from
//! silently rotting: a binary that panics, deadlocks in the simulator, or
//! drifts out of sync with a library API fails this suite.

use std::process::Command;

/// Run one compiled figure binary and assert a clean exit.
fn run_quick(exe: &str) {
    let out = Command::new(exe)
        .args(["--traces", "1"])
        .output()
        .unwrap_or_else(|e| panic!("failed to spawn {exe}: {e}"));
    assert!(
        out.status.success(),
        "{exe} exited with {:?}\n--- stdout ---\n{}\n--- stderr ---\n{}",
        out.status.code(),
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
}

macro_rules! smoke {
    ($($name:ident),* $(,)?) => {$(
        #[test]
        fn $name() {
            run_quick(env!(concat!("CARGO_BIN_EXE_", stringify!($name))));
        }
    )*};
}

smoke!(
    fig7_workload_cdf,
    fig8_utilization,
    fig9_upper_traffic,
    fig10_failures,
    fig11_alltoall,
    fig12_permutation,
    fig13_allreduce,
    fig14_reduction_scaling,
    fig15_dnn_savings,
    fig16_disjoint_rings,
    table2,
    ablations,
    dnn_iteration_times,
    cluster_sweep,
);

/// The routed cable-failure sweep (`fig10_failures --mode routed`) must
/// complete at quick scale on the flow engine — all five topologies
/// deliver their traffic around the failed cables — and emit its CSV.
#[test]
fn fig10_failures_routed() {
    let csv = std::env::temp_dir().join(format!("hx_fig10_routed_{}.csv", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_fig10_failures"))
        .args(["--traces", "1", "--mode", "routed", "--engine", "flow"])
        .args(["--csv", csv.to_str().unwrap()])
        .output()
        .expect("spawn fig10_failures");
    assert!(
        out.status.success(),
        "fig10_failures --mode routed exited with {:?}\n--- stdout ---\n{}\n--- stderr ---\n{}",
        out.status.code(),
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
    let body = std::fs::read_to_string(&csv).expect("routed-mode CSV written");
    assert!(body.starts_with("topology,engine,failed_cables,draw,bw_fraction,sim_ps,clean"));
    // 5 topologies x 5 sweep points x 1 draw, all delivered cleanly.
    assert_eq!(body.lines().count(), 1 + 5 * 5, "{body}");
    assert!(body.lines().skip(1).all(|l| l.ends_with(",true")), "{body}");
    std::fs::remove_file(&csv).ok();
}

/// The cluster-lifetime sweep at quick scale: 64 boards, mid-run cable
/// fail + repair events at every load point, per-job wait/completion rows
/// and time-averaged fragmentation in the CSV — and the whole CSV is
/// byte-for-byte reproducible for a fixed seed and equal to the committed
/// golden `tests/golden/cluster_sweep.csv`. Regenerate the golden only
/// when cluster results are meant to change, and say so in the commit.
#[test]
fn cluster_sweep_csv_is_complete_and_deterministic() {
    let run = |tag: &str| {
        let csv =
            std::env::temp_dir().join(format!("hx_cluster_sweep_{}_{tag}.csv", std::process::id()));
        let out = Command::new(env!("CARGO_BIN_EXE_cluster_sweep"))
            .args(["--traces", "12", "--seed", "12648430"])
            .args(["--csv", csv.to_str().unwrap()])
            .output()
            .expect("spawn cluster_sweep");
        assert!(
            out.status.success(),
            "cluster_sweep exited with {:?}\n--- stdout ---\n{}\n--- stderr ---\n{}",
            out.status.code(),
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr),
        );
        let body = std::fs::read_to_string(&csv).expect("cluster_sweep CSV written");
        std::fs::remove_file(&csv).ok();
        body
    };

    let body = run("a");
    let golden =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/cluster_sweep.csv");
    let golden =
        std::fs::read_to_string(&golden).unwrap_or_else(|e| panic!("{}: {e}", golden.display()));
    assert_eq!(body, golden, "cluster_sweep CSV drifted from its golden");
    let header = body.lines().next().unwrap();
    for col in ["wait_ps", "jct_ps", "frag_avg", "fails", "repairs"] {
        assert!(header.contains(col), "missing column {col}: {header}");
    }
    // Three load points, each with one summary row; every load saw at
    // least one mid-run fail AND repair event (columns 16/17).
    let summaries: Vec<&str> = body.lines().filter(|l| l.starts_with("summary,")).collect();
    assert_eq!(summaries.len(), 3, "{body}");
    for s in &summaries {
        let f: Vec<&str> = s.split(',').collect();
        let fails: u32 = f[15].parse().unwrap();
        let repairs: u32 = f[16].parse().unwrap();
        assert!(fails >= 1, "no mid-run failure: {s}");
        assert!(repairs >= 1, "no mid-run repair: {s}");
    }
    // Per-job rows carry wait + completion times.
    let jobs = body.lines().filter(|l| l.starts_with("job,")).count();
    assert_eq!(
        jobs + body.lines().filter(|l| l.starts_with("rejected,")).count(),
        3 * 12
    );

    assert_eq!(body, run("b"), "same seed must reproduce the CSV exactly");
}

/// The CI perf-smoke harness must run and write exactly its two
/// artifacts: one valid BENCH document naming every scenario, and the
/// sample trace.
#[test]
fn perf_smoke() {
    let dir = std::env::temp_dir().join(format!("hx_perf_smoke_{}", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_perf_smoke"))
        .args(["--quick", "--out", dir.to_str().unwrap()])
        .output()
        .expect("spawn perf_smoke");
    assert!(
        out.status.success(),
        "perf_smoke exited with {:?}\n{}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    let mut written: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    written.sort();
    assert_eq!(written, ["BENCH_smoke.json", "fig11_flow.trace.json"]);
    let json = std::fs::read_to_string(dir.join("BENCH_smoke.json")).unwrap();
    hxtelemetry::validate_json(&json).unwrap_or_else(|e| panic!("{e}\n{json}"));
    for name in [
        "fig11_alltoall",
        "packet_nic_routing",
        "fig13_allreduce",
        "flow_scale",
        "telemetry_overhead",
        "fault_inert",
        "fig8_utilization",
        "fig9_upper_traffic",
        "alloc_1000x1000",
    ] {
        assert!(
            json.contains(&format!("{{\"name\": \"{name}\"")),
            "{name} missing:\n{json}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Unknown flags are usage errors (exit 2) in every binary, before any
/// work runs. That includes `--rates`, `--retransmit` and `--threads`:
/// a run is configured by the common flags and its spec only. perf_smoke
/// has a table of its own (`--out DIR`, `--quick`).
#[test]
fn unknown_flags_exit_2() {
    let perf_smoke = env!("CARGO_BIN_EXE_perf_smoke");
    let bins = [
        env!("CARGO_BIN_EXE_fig7_workload_cdf"),
        env!("CARGO_BIN_EXE_fig8_utilization"),
        env!("CARGO_BIN_EXE_fig9_upper_traffic"),
        env!("CARGO_BIN_EXE_fig10_failures"),
        env!("CARGO_BIN_EXE_fig10_midrun"),
        env!("CARGO_BIN_EXE_fig11_alltoall"),
        env!("CARGO_BIN_EXE_fig12_permutation"),
        env!("CARGO_BIN_EXE_fig13_allreduce"),
        env!("CARGO_BIN_EXE_fig14_reduction_scaling"),
        env!("CARGO_BIN_EXE_fig15_dnn_savings"),
        env!("CARGO_BIN_EXE_fig16_disjoint_rings"),
        env!("CARGO_BIN_EXE_table2"),
        env!("CARGO_BIN_EXE_ablations"),
        env!("CARGO_BIN_EXE_dnn_iteration_times"),
        env!("CARGO_BIN_EXE_cluster_sweep"),
        perf_smoke,
    ];
    let mut cases: Vec<(&str, Vec<&str>)> = Vec::new();
    for exe in bins {
        for flag in ["--bogus", "--rates", "--retransmit", "--threads"] {
            cases.push((exe, vec![flag, "1"]));
        }
    }
    cases.push((perf_smoke, vec!["--traces", "1"]));
    cases.push((perf_smoke, vec!["--out"]));
    for (exe, args) in cases {
        let out = Command::new(exe)
            .args(&args)
            .output()
            .unwrap_or_else(|e| panic!("failed to spawn {exe}: {e}"));
        assert_eq!(
            out.status.code(),
            Some(2),
            "{exe} {args:?} must exit 2\n--- stderr ---\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}
