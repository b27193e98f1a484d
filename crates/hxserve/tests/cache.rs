//! The memoization contract of the scenario cache:
//!
//! * a byte-identical spec re-run is served entirely from cache, and the
//!   served rows render byte-identically to the cold run;
//! * a one-character change to the spec source misses everything (the key
//!   covers the spec bytes, not just the cell descriptor);
//! * disabling the cache leaves the directory untouched.

use hxserve::{exec, render, ExecOptions, Overrides, Scenario};
use std::path::PathBuf;

const SPEC: &str = r#"
[scenario]
name = "cache-probe"
engine = "flow"
seed = 7

[topology]
set = ["hx2mesh", "torus"]
endpoints = 16

[sweep]
bytes = [4096]
failed_cables = [0, 1]
draws = 2

[output]
style = "failure_blocks"
title = "cache probe"
"#;

fn tmp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("hxserve_cache_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&d).ok();
    d
}

fn jsonl(spec_src: &str, opts: &ExecOptions) -> (String, usize, usize) {
    let plan = Scenario::parse(spec_src)
        .unwrap()
        .resolve(&Overrides::default());
    let res = exec::run(&plan, opts);
    let body: String = res
        .rows
        .iter()
        .map(|r| render::jsonl_row(&plan, r) + "\n")
        .collect();
    (body, res.cache_hits, res.cache_misses)
}

#[test]
fn identical_spec_hits_and_renders_byte_identically() {
    let dir = tmp_dir("hit");
    let opts = ExecOptions {
        cache_dir: Some(dir.clone()),
    };
    let (cold, hits0, misses0) = jsonl(SPEC, &opts);
    assert_eq!(hits0, 0, "cold run must not hit");
    assert_eq!(misses0, 8, "2 topologies x 2 failure counts x 2 draws");

    let (warm, hits1, misses1) = jsonl(SPEC, &opts);
    assert_eq!((hits1, misses1), (8, 0), "warm run must be all hits");
    assert_eq!(warm, cold, "cached rows must render byte-identically");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn one_character_spec_change_misses_everything() {
    let dir = tmp_dir("miss");
    let opts = ExecOptions {
        cache_dir: Some(dir.clone()),
    };
    let (_, _, misses0) = jsonl(SPEC, &opts);
    assert_eq!(misses0, 8);

    // Same cells, same descriptors — only the title text differs.
    let touched = SPEC.replace("cache probe", "cache probe!");
    assert_eq!(touched.len(), SPEC.len() + 1);
    let (_, hits, misses) = jsonl(&touched, &opts);
    assert_eq!(
        (hits, misses),
        (0, 8),
        "a changed spec source must invalidate every cell"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn disabled_cache_writes_nothing() {
    let dir = tmp_dir("off");
    let (_, hits, misses) = jsonl(SPEC, &ExecOptions { cache_dir: None });
    assert_eq!((hits, misses), (0, 8), "every cell computed, none served");
    assert!(!dir.exists(), "no cache dir may be created");
}

/// Two draws of the same failure count produce different failure sets,
/// so their rows must carry different `failure_set_id`s — and the zero-
/// failure cells must agree on the empty set id across topologies' draws.
#[test]
fn failure_set_ids_key_the_draws_apart() {
    let plan = Scenario::parse(SPEC)
        .unwrap()
        .resolve(&Overrides::default());
    let res = exec::run(&plan, &ExecOptions::default());
    // Layout: topo x failed x engine x draw; draws are innermost.
    let by_cell: Vec<u64> = res.rows.iter().map(|r| r.failure_set_id).collect();
    assert_eq!(by_cell[0], by_cell[1], "f=0 draws share the empty set id");
    assert_ne!(
        by_cell[2], by_cell[3],
        "f=1 draws must draw different cables"
    );
}
