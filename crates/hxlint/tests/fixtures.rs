//! Self-test: every rule fires on its broken fixture and stays silent on
//! the clean one. The fixtures live in `tests/fixtures/` (excluded from
//! workspace linting by `classify`) and are linted as source text — they
//! are never compiled.

use hxlint::{lint_source, FileCx, FileKind, Finding};

fn lint(fixture: &str, crate_name: &str, kind: FileKind) -> Vec<Finding> {
    let path = format!("{}/tests/fixtures/{fixture}.rs", env!("CARGO_MANIFEST_DIR"));
    let src =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading fixture {path}: {e}"));
    let cx = FileCx {
        crate_name: crate_name.to_string(),
        kind,
    };
    lint_source(&format!("tests/fixtures/{fixture}.rs"), &cx, &src)
}

fn rules(findings: &[Finding]) -> Vec<&str> {
    findings.iter().map(|f| f.rule.as_str()).collect()
}

#[test]
fn d001_fires_on_hash_containers_and_not_on_btree() {
    let bad = lint("d001_bad", "hxnet", FileKind::Lib);
    assert_eq!(rules(&bad), ["D001", "D001", "D001", "D001"], "{bad:?}");
    // The use-declaration hits count too: both names, then both fields.
    assert!(bad[0].message.contains("RandomState"));
    assert!(lint("d001_clean", "hxnet", FileKind::Lib).is_empty());
}

#[test]
fn d001_only_covers_sim_state_crates() {
    // hxcost holds no simulation state; hash containers are fine there.
    assert!(lint("d001_bad", "hxcost", FileKind::Lib).is_empty());
}

#[test]
fn d002_fires_on_ambient_entropy_and_clock() {
    let bad = lint("d002_bad", "hxsim", FileKind::Lib);
    // thread_rng + Instant::now + SystemTime::now (the `use` line has no
    // `::now` path, so only the call sites trip the clock rules).
    assert_eq!(rules(&bad), ["D002", "D002", "D002"], "{bad:?}");
    assert!(lint("d002_clean", "hxsim", FileKind::Lib).is_empty());
}

#[test]
fn d002_fires_on_wall_clock_driven_samplers() {
    // The hxtelemetry sampler is deterministic only if it is advanced on
    // simulated time; stamping it from Instant/SystemTime is the misuse
    // this pair pins.
    let bad = lint("d002_sampler_bad", "hxtelemetry", FileKind::Lib);
    assert_eq!(rules(&bad), ["D002", "D002"], "{bad:?}");
    assert!(bad[0].message.contains("wall-clock"), "{bad:?}");
    assert!(lint("d002_sampler_clean", "hxtelemetry", FileKind::Lib).is_empty());
}

#[test]
fn d002_fires_on_process_environment_access() {
    let bad = lint("d002_env_bad", "hxsim", FileKind::Lib);
    // The grouped import's `var_os` and `vars` (it is what brings their
    // bare call sites in scope), then `var`, `set_var` and `remove_var`.
    assert_eq!(rules(&bad), ["D002"; 5], "{bad:?}");
    assert_eq!(bad[0].line, 4, "{bad:?}");
    assert!(bad[0].message.contains("environment"), "{bad:?}");
    assert!(lint("d002_env_clean", "hxsim", FileKind::Lib).is_empty());
    // A binary's `main` owns its environment.
    assert!(lint("d002_env_bad", "bench", FileKind::Bin).is_empty());
}

#[test]
fn d002_does_not_cover_bins() {
    // Bins own the wall-clock (benchmark timing, progress output).
    assert!(lint("d002_bad", "bench", FileKind::Bin).is_empty());
}

#[test]
fn d003_fires_on_parallel_float_reductions() {
    let bad = lint("d003_bad", "bench", FileKind::Bin);
    assert_eq!(rules(&bad), ["D003", "D003"], "{bad:?}");
    assert!(bad[0].message.contains("thread scheduling"));
    assert!(lint("d003_clean", "bench", FileKind::Bin).is_empty());
}

#[test]
fn d003_covers_tests_too() {
    assert_eq!(
        rules(&lint("d003_bad", "hxnet", FileKind::Test)),
        ["D003", "D003"]
    );
}

#[test]
fn p001_fires_on_panicking_library_code() {
    let bad = lint("p001_bad", "hxcost", FileKind::Lib);
    assert_eq!(rules(&bad), ["P001", "P001", "P001"], "{bad:?}");
    assert!(lint("p001_clean", "hxcost", FileKind::Lib).is_empty());
}

#[test]
fn p001_does_not_cover_bins_or_tests() {
    assert!(lint("p001_bad", "hxcost", FileKind::Bin).is_empty());
    assert!(lint("p001_bad", "hxcost", FileKind::Test).is_empty());
}

#[test]
fn findings_render_with_file_line_col_spans() {
    let bad = lint("p001_bad", "hxcost", FileKind::Lib);
    let rendered = bad[0].to_string();
    assert!(
        rendered.starts_with("tests/fixtures/p001_bad.rs:5:"),
        "span should point at the unwrap line: {rendered}"
    );
}
