//! Renderers: turn a plan's row stream into the exact stdout tables the
//! original figure binaries printed (pinned byte-for-byte by
//! `crates/bench/tests/spec_golden.rs`), the figures' CSV side files, and
//! `hxserve`'s machine formats (JSONL, streaming CSV).
//!
//! None of the output includes the `cached` flag or any wall-clock value,
//! so a warm (fully cached) run is byte-identical to the cold run that
//! populated the cache.

use crate::exec::{BwCell, CellOutput, CellRow};
use crate::spec::{CellKind, FailureMode, Plan, Style};
use hammingmesh::hxtelemetry::trace::escape_json;
use hammingmesh::prelude::ClusterSize;
use std::fmt::Write as _;

/// Human-readable byte size for axes (`32KiB`, `8MiB`, `512B`).
pub fn fmt_bytes(b: u64) -> String {
    if b >= 1 << 20 {
        format!("{}MiB", b >> 20)
    } else if b >= 1 << 10 {
        format!("{}KiB", b >> 10)
    } else {
        format!("{b}B")
    }
}

fn bw_cell(row: &CellRow) -> BwCell {
    match &row.output {
        CellOutput::Bandwidth(b) => *b,
        CellOutput::Distribution(_) => {
            unreachable!("plan expansion pairs bandwidth styles with bandwidth cells")
        }
    }
}

/// `sorted` must be ascending; nearest-rank percentile, matching the
/// original Fig. 12 binary.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[((sorted.len() - 1) as f64 * p).round() as usize]
}

/// Render the full stdout report (header line, tables, trailing note) for
/// a completed run. `rows` must be the plan's cells in order.
pub fn render(plan: &Plan, rows: &[CellRow]) -> String {
    assert_eq!(rows.len(), plan.cells.len(), "row set must match the plan");
    let mut out = String::new();
    let _ = writeln!(out, "\n=== {} ===", plan.title);
    match plan.style {
        Style::Grid => {
            let cols: Vec<String> = plan.bytes.iter().map(|&b| fmt_bytes(b)).collect();
            grid_block(&mut out, plan, rows, 0, &cols);
        }
        Style::GridByAlgo => {
            let cols: Vec<String> = plan.bytes.iter().map(|&b| fmt_bytes(b)).collect();
            let block = plan.topologies.len() * cols.len();
            for (ai, algo) in plan.algos.iter().enumerate() {
                let _ = writeln!(out, "\nalgorithm: {algo:?}");
                grid_block(&mut out, plan, rows, ai * block, &cols);
            }
        }
        Style::ScalingByAlgo => {
            let cols: Vec<String> = plan
                .endpoints_axis
                .iter()
                .map(|n| format!("{n} accels"))
                .collect();
            let block = plan.topologies.len() * cols.len();
            for (ai, algo) in plan.algos.iter().enumerate() {
                let _ = writeln!(out, "\nalgorithm: {algo:?}");
                grid_block(&mut out, plan, rows, ai * block, &cols);
            }
        }
        Style::Distribution => distribution_block(&mut out, plan, rows),
        Style::FailureBlocks => failure_blocks(&mut out, plan, rows),
    }
    let _ = writeln!(out, "\n{}", plan.note);
    out
}

/// One topology-rows x `cols` table of percentage cells starting at
/// `offset` (shared by the grid, grid_by_algo, and scaling styles).
fn grid_block(out: &mut String, plan: &Plan, rows: &[CellRow], offset: usize, cols: &[String]) {
    let _ = write!(out, "{:<24}", "topology");
    for c in cols {
        let _ = write!(out, " {c:>10}");
    }
    out.push('\n');
    for (ti, choice) in plan.topologies.iter().enumerate() {
        let _ = write!(out, "{:<24}", choice.name());
        for ci in 0..cols.len() {
            let b = bw_cell(&rows[offset + ti * cols.len() + ci]);
            let _ = write!(
                out,
                " {:>9.1}%{}",
                b.bw_fraction * 100.0,
                if b.clean { "" } else { "!" }
            );
        }
        out.push('\n');
    }
}

/// The Fig. 12 table: per-topology receive-bandwidth percentiles and the
/// cost-per-average-bandwidth column, relative to the first row.
fn distribution_block(out: &mut String, plan: &Plan, rows: &[CellRow]) {
    let _ = writeln!(
        out,
        "{:<24} {:>8} {:>8} {:>8} {:>8} {:>14}",
        "topology", "p10%", "median%", "p90%", "mean%", "cost/avgBW"
    );
    let costs = hammingmesh::hxcost::table2_entries(ClusterSize::Small);
    let mut first_cost_per_bw = None;
    for (ti, &choice) in plan.topologies.iter().enumerate() {
        let CellOutput::Distribution(samples) = &rows[ti].output else {
            unreachable!("distribution style pairs with distribution cells")
        };
        let mut bw = samples.clone();
        // total_cmp orders the positive finite samples identically to the
        // original partial_cmp sort, without its NaN panic path.
        bw.sort_by(f64::total_cmp);
        let mean = bw.iter().sum::<f64>() / bw.len() as f64;
        // Table II costs are indexed by the topology's row in
        // `TopologyChoice::all()`, which is the enum discriminant.
        let cost_per_bw = costs[choice as usize].cost_musd() / mean.max(1e-9);
        let rel = *first_cost_per_bw.get_or_insert(cost_per_bw);
        let _ = writeln!(
            out,
            "{:<24} {:>7.1} {:>7.1} {:>7.1} {:>7.1} {:>10.2}x-FT",
            choice.name(),
            percentile(&bw, 0.10) * 100.0,
            percentile(&bw, 0.50) * 100.0,
            percentile(&bw, 0.90) * 100.0,
            mean * 100.0,
            cost_per_bw / rel
        );
    }
}

/// The Fig. 10 routed tables: one block per topology, failed-cables rows
/// by engine (x failure-mode, for midrun comparisons) columns, each cell
/// the mean over the draws.
fn failure_blocks(out: &mut String, plan: &Plan, rows: &[CellRow]) {
    let e_n = plan.engines.len();
    let m_n = plan.failures.modes.len();
    let d_n = plan.draws;
    let f_n = plan.failed_cables.len();
    for ti in 0..plan.topologies.len() {
        let base = ti * f_n * e_n * m_n * d_n;
        let net = &rows[base].net;
        let _ = writeln!(
            out,
            "\n{} ({} endpoints, {} cables):",
            net.name, net.endpoints, net.cables
        );
        // Mode-tagged headers ("packet mid%") need the wider column; the
        // single-frozen-mode layout keeps the original 9-char one.
        let legacy = m_n == 1 && plan.failures.modes[0] == FailureMode::Frozen;
        let w = if legacy { 9 } else { 12 };
        let _ = write!(out, "{:>8}", "failed");
        for e in &plan.engines {
            for &mode in &plan.failures.modes {
                let label = if legacy {
                    format!("{e}%")
                } else {
                    let tag = match mode {
                        FailureMode::Frozen => "frz",
                        FailureMode::Midrun => "mid",
                    };
                    format!("{e} {tag}%")
                };
                let _ = write!(out, " {label:>w$}");
            }
        }
        out.push('\n');
        for (fi, &f) in plan.failed_cables.iter().enumerate() {
            let _ = write!(out, "{f:>8}");
            for ei in 0..e_n {
                for mi in 0..m_n {
                    let mut sum = 0.0;
                    for di in 0..d_n {
                        let idx = base + ((fi * e_n + ei) * m_n + mi) * d_n + di;
                        sum += bw_cell(&rows[idx]).bw_fraction;
                    }
                    let _ = write!(out, " {:>w$.1}", sum / d_n as f64 * 100.0);
                }
            }
            out.push('\n');
        }
    }
}

/// Does the plan have a midrun column (which adds a `mode` CSV column)?
fn has_midrun(plan: &Plan) -> bool {
    plan.failures.modes.contains(&FailureMode::Midrun)
}

/// CSV column header for the styles that emit CSV (the Fig. 14 and
/// Fig. 10 side files); `None` for the stdout-only styles. Frozen-only
/// failure plans keep the original column set; plans with a midrun
/// component gain a `mode` column after `engine`.
pub fn csv_header(plan: &Plan) -> Option<String> {
    match plan.style {
        Style::ScalingByAlgo => {
            Some("algorithm,topology,engine,endpoints,bytes,bw_fraction,sim_ps,clean".to_string())
        }
        Style::FailureBlocks if has_midrun(plan) => {
            Some("topology,engine,mode,failed_cables,draw,bw_fraction,sim_ps,clean".to_string())
        }
        Style::FailureBlocks => {
            Some("topology,engine,failed_cables,draw,bw_fraction,sim_ps,clean".to_string())
        }
        _ => None,
    }
}

/// One CSV line for a cell (no trailing newline), matching the original
/// binaries' column conventions. `None` when the style emits no CSV.
pub fn csv_row(plan: &Plan, row: &CellRow) -> Option<String> {
    match (plan.style, &row.spec.kind, &row.output) {
        (Style::ScalingByAlgo, CellKind::Allreduce { algo }, CellOutput::Bandwidth(b)) => {
            Some(format!(
                "{algo:?},{},{},{},{},{:.4},{},{}",
                row.spec.topology.name(),
                row.spec.engine,
                row.net.ranks,
                row.spec.bytes,
                b.bw_fraction,
                b.time_ps,
                b.clean
            ))
        }
        (
            Style::FailureBlocks,
            CellKind::FailedAlltoall { failures, draw },
            CellOutput::Bandwidth(b),
        ) => {
            let mode = if has_midrun(plan) { "frozen," } else { "" };
            Some(format!(
                "{},{},{mode}{failures},{draw},{:.4},{},{}",
                row.net.name, row.spec.engine, b.bw_fraction, b.time_ps, b.clean
            ))
        }
        (
            Style::FailureBlocks,
            CellKind::MidrunAlltoall { failures, draw, .. },
            CellOutput::Bandwidth(b),
        ) => Some(format!(
            "{},{},midrun,{failures},{draw},{:.4},{},{}",
            row.net.name, row.spec.engine, b.bw_fraction, b.time_ps, b.clean
        )),
        _ => None,
    }
}

/// The complete CSV side file for a run, or `None` for stdout-only styles.
pub fn render_csv(plan: &Plan, rows: &[CellRow]) -> Option<String> {
    let header = csv_header(plan)?;
    let mut out = String::with_capacity(64 * (rows.len() + 1));
    out.push_str(&header);
    out.push('\n');
    for row in rows {
        if let Some(line) = csv_row(plan, row) {
            out.push_str(&line);
            out.push('\n');
        }
    }
    Some(out)
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", escape_json(s))
}

/// One JSONL object for a cell (no trailing newline). Excludes the
/// `cached` flag by design: warm and cold runs must emit identical bytes.
pub fn jsonl_row(plan: &Plan, row: &CellRow) -> String {
    let mut out = String::with_capacity(160);
    let _ = write!(
        out,
        "{{\"scenario\":{},\"cell\":{},\"topology\":{},\"engine\":\"{}\",\"endpoints\":{},\"ranks\":{},\"bytes\":{}",
        json_str(&plan.name),
        row.spec.index,
        json_str(row.spec.topology.spec_name()),
        row.spec.engine,
        row.spec.endpoints,
        row.net.ranks,
        row.spec.bytes,
    );
    match &row.spec.kind {
        CellKind::Alltoall => {
            let _ = write!(out, ",\"kind\":\"alltoall\",\"window\":{}", row.spec.window);
        }
        CellKind::Permutation { rounds } => {
            let _ = write!(out, ",\"kind\":\"permutation\",\"rounds\":{rounds}");
        }
        CellKind::Allreduce { algo } => {
            let _ = write!(
                out,
                ",\"kind\":\"allreduce\",\"algo\":{}",
                json_str(algo.spec_name())
            );
        }
        CellKind::FailedAlltoall { failures, draw } => {
            let _ = write!(
                out,
                ",\"kind\":\"failed_alltoall\",\"failed_cables\":{failures},\"draw\":{draw},\"failure_set_id\":\"{:016x}\"",
                row.failure_set_id
            );
        }
        CellKind::MidrunAlltoall {
            failures,
            draw,
            times,
            ..
        } => {
            let ints = |v: &[u64]| {
                v.iter()
                    .map(|t| t.to_string())
                    .collect::<Vec<_>>()
                    .join(",")
            };
            let _ = write!(
                out,
                ",\"kind\":\"midrun_alltoall\",\"failed_cables\":{failures},\"draw\":{draw},\"failure_set_id\":\"{:016x}\",\"fail_at_ps\":[{}],\"repair_at_ps\":[{}]",
                row.failure_set_id,
                ints(&times.fail_at_ps),
                ints(&times.repair_at_ps)
            );
        }
    }
    match &row.output {
        CellOutput::Bandwidth(b) => {
            let _ = write!(
                out,
                ",\"bw_fraction\":{},\"sim_ps\":{},\"clean\":{}}}",
                json_f64(b.bw_fraction),
                b.time_ps,
                b.clean
            );
        }
        CellOutput::Distribution(samples) => {
            let joined: Vec<String> = samples.iter().map(|&s| json_f64(s)).collect();
            let _ = write!(out, ",\"samples\":[{}]}}", joined.join(","));
        }
    }
    out
}

/// A finite f64 as a JSON number that parses back to the same bits
/// (Rust's shortest-round-trip Display).
fn json_f64(v: f64) -> String {
    debug_assert!(v.is_finite(), "bandwidth fractions are finite");
    let s = format!("{v}");
    // Display omits the decimal point for integral values; keep it a JSON
    // number either way (it already is), nothing to fix up.
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{ExecOptions, NetInfo};
    use crate::spec::{Overrides, Scenario};

    #[test]
    fn fmt_bytes_units() {
        assert_eq!(fmt_bytes(512), "512B");
        assert_eq!(fmt_bytes(32 << 10), "32KiB");
        assert_eq!(fmt_bytes(8 << 20), "8MiB");
    }

    #[test]
    fn grid_render_shape_and_determinism() {
        let spec = r#"
[scenario]
name = "t"

[topology]
set = ["hx2mesh", "torus"]
endpoints = 16

[sweep]
bytes = [8192, 16384]

[output]
style = "grid"
title = "t (16 endpoints)"
note = "n"
"#;
        let plan = Scenario::parse(spec)
            .unwrap()
            .resolve(&Overrides::default());
        let res = crate::exec::run(&plan, &ExecOptions::default());
        let text = render(&plan, &res.rows);
        assert!(text.starts_with("\n=== t (16 endpoints) ===\n"), "{text}");
        assert!(text.contains("Hx2Mesh"), "{text}");
        assert!(text.contains("2D torus"), "{text}");
        assert!(text.ends_with("\nn\n"), "{text:?}");
        // Rendering is a pure function of the rows.
        assert_eq!(text, render(&plan, &res.rows));
    }

    #[test]
    fn jsonl_rows_are_valid_enough_and_exclude_cached() {
        let spec = r#"
[scenario]
name = "t"

[topology]
set = ["hx2mesh"]
endpoints = 16

[sweep]
bytes = [8192]

[output]
style = "grid"
title = "t"
"#;
        let plan = Scenario::parse(spec)
            .unwrap()
            .resolve(&Overrides::default());
        let res = crate::exec::run(&plan, &ExecOptions::default());
        let mut row = res.rows[0].clone();
        let cold = jsonl_row(&plan, &row);
        assert!(
            cold.starts_with("{\"scenario\":\"t\",\"cell\":0,"),
            "{cold}"
        );
        assert!(cold.ends_with('}'), "{cold}");
        assert!(!cold.contains("cached"), "{cold}");
        row.cached = true;
        assert_eq!(jsonl_row(&plan, &row), cold, "cached flag must not leak");
    }

    #[test]
    fn csv_rows_only_for_csv_styles() {
        let plan_of = |src: &str| Scenario::parse(src).unwrap().resolve(&Overrides::default());
        let grid = plan_of(
            "[scenario]\nname = \"g\"\n[topology]\nset = [\"torus\"]\n\
             endpoints = 16\n[sweep]\nbytes = [8192]\n[output]\nstyle = \"grid\"\ntitle = \"g\"\n",
        );
        let frozen = plan_of(
            "[scenario]\nname = \"f\"\nengine = \"flow\"\n[topology]\n\
             set = [\"torus\"]\nendpoints = 64\n[sweep]\nbytes = [32768]\n\
             failed_cables = [0, 4]\ndraws = 2\n[output]\nstyle = \"failure_blocks\"\n\
             title = \"f\"\n",
        );
        let compare = plan_of(
            "[scenario]\nname = \"c\"\nengine = \"flow\"\n[topology]\n\
             set = [\"torus\"]\nendpoints = 64\n[sweep]\nbytes = [32768]\n\
             failed_cables = [0, 4]\ndraws = 2\n[failures]\nmode = \"compare\"\n\
             [failures.schedule]\nfail_at_ps = [1000000]\n[output]\n\
             style = \"failure_blocks\"\ntitle = \"c\"\n",
        );
        assert_eq!(csv_header(&grid), None);
        assert_eq!(
            csv_header(&frozen).unwrap(),
            "topology,engine,failed_cables,draw,bw_fraction,sim_ps,clean"
        );
        assert_eq!(
            csv_header(&compare).unwrap(),
            "topology,engine,mode,failed_cables,draw,bw_fraction,sim_ps,clean"
        );
        let mut row = CellRow {
            spec: crate::spec::CellSpec {
                index: 0,
                topology: hammingmesh::topologies::TopologyChoice::Torus,
                engine: hammingmesh::hxsim::EngineKind::Flow,
                endpoints: 64,
                bytes: 32768,
                window: 2,
                seed: 1,
                kind: CellKind::FailedAlltoall {
                    failures: 4,
                    draw: 1,
                },
            },
            net: NetInfo {
                name: "8x8 2D torus".into(),
                ranks: 64,
                endpoints: 64,
                cables: 64,
            },
            failure_set_id: 7,
            output: CellOutput::Bandwidth(crate::exec::BwCell {
                bw_fraction: 0.08215,
                time_ps: 123,
                clean: true,
            }),
            cached: false,
        };
        assert_eq!(
            csv_row(&frozen, &row).unwrap(),
            "8x8 2D torus,flow,4,1,0.0822,123,true"
        );
        assert_eq!(
            csv_row(&compare, &row).unwrap(),
            "8x8 2D torus,flow,frozen,4,1,0.0822,123,true"
        );
        row.spec.kind = CellKind::MidrunAlltoall {
            failures: 4,
            draw: 1,
            retransmit: hammingmesh::hxsim::RetransmitPolicy::Timeout,
            times: crate::spec::MidrunTimes {
                fail_at_ps: vec![1_000_000],
                repair_at_ps: Vec::new(),
            },
        };
        assert_eq!(
            csv_row(&compare, &row).unwrap(),
            "8x8 2D torus,flow,midrun,4,1,0.0822,123,true"
        );
        assert_eq!(csv_row(&grid, &row), None);
    }
}
