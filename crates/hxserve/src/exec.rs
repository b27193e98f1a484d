//! The scenario executor: expands a [`Plan`]'s cells onto the workspace
//! thread pool, memoizes completed cells through the on-disk cache, and
//! reassembles results in deterministic cell order.
//!
//! Concurrency model: cells run in chunks of `threads * 4` on the
//! vendored rayon pool. Within a chunk, results come back index-ordered
//! (the pool's contract), and chunks are emitted in order — so the row
//! stream handed to [`run_with`]'s callback is identical at any thread
//! count, and identical whether a cell was computed or served from cache.

use crate::cache::{self, CacheRecord};
use crate::spec::{CellKind, CellSpec, Plan, PAPER_SCALE};
use hammingmesh::experiments::{self, Measurement};
use hammingmesh::hxnet::{FailureSetId, Network};
use hammingmesh::hxsim::SimConfig;
use hammingmesh::hxtelemetry::{self, Registry, TraceSink};
use rayon::prelude::*;
use std::path::{Path, PathBuf};

/// A bandwidth-style cell result (everything but the permutation
/// distributions).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BwCell {
    pub bw_fraction: f64,
    pub time_ps: u64,
    pub clean: bool,
}

/// Identity of the network a cell ran on, captured so renderers (and the
/// cache) never need to rebuild the topology.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NetInfo {
    /// The built network's human-readable name (`"8x8 2D HyperX"`).
    pub name: String,
    /// `Network::num_ranks()` — what the Fig. 14 CSV reports.
    pub ranks: usize,
    /// `Network::endpoints.len()` — what the Fig. 10 block headers report.
    pub endpoints: usize,
    /// Total cable count of the pristine topology.
    pub cables: usize,
}

/// What a cell produced.
#[derive(Clone, Debug, PartialEq)]
pub enum CellOutput {
    Bandwidth(BwCell),
    /// Per-accelerator receive-bandwidth samples (permutation pattern).
    Distribution(Vec<f64>),
}

/// One executed cell, in plan order.
#[derive(Clone, Debug)]
pub struct CellRow {
    pub spec: CellSpec,
    pub net: NetInfo,
    /// Fingerprint of the drawn failure set (0 for non-failure cells).
    pub failure_set_id: u64,
    pub output: CellOutput,
    /// Served from the on-disk cache (never affects rendered output).
    pub cached: bool,
}

/// Executor configuration.
#[derive(Clone, Debug, Default)]
pub struct ExecOptions {
    /// Cell cache directory; `None` disables memoization entirely.
    pub cache_dir: Option<PathBuf>,
}

/// The outcome of running a plan: rows in cell order plus cache counters.
#[derive(Clone, Debug)]
pub struct RunResult {
    pub rows: Vec<CellRow>,
    pub cache_hits: usize,
    pub cache_misses: usize,
}

/// Run every cell of the plan. Equivalent to [`run_with`] with a no-op
/// row callback.
pub fn run(plan: &Plan, opts: &ExecOptions) -> RunResult {
    run_with(plan, opts, |_| {})
}

/// Run every cell, invoking `on_row` for each completed row **in cell
/// order** (the streaming hook behind `hxserve`'s JSONL/CSV output).
/// Rows surface chunk by chunk: a chunk's cells run concurrently, then
/// its rows are emitted in index order before the next chunk starts.
pub fn run_with(plan: &Plan, opts: &ExecOptions, mut on_row: impl FnMut(&CellRow)) -> RunResult {
    let chunk = rayon::current_num_threads().saturating_mul(4).max(1);
    let mut rows: Vec<CellRow> = Vec::with_capacity(plan.cells.len());
    for batch in plan.cells.chunks(chunk) {
        let done: Vec<CellRow> = batch
            .par_iter()
            .map(|cell| exec_cell(&plan.spec_src, cell, opts.cache_dir.as_deref()))
            .collect();
        for row in done {
            on_row(&row);
            rows.push(row);
        }
    }
    let cache_hits = rows.iter().filter(|r| r.cached).count();
    let cache_misses = rows.len() - cache_hits;
    RunResult {
        rows,
        cache_hits,
        cache_misses,
    }
}

/// Build the cell's network at the right scale: counts at or above
/// [`PAPER_SCALE`] get the paper-scale machine, smaller counts the
/// proportionally reduced build.
fn build_net(cell: &CellSpec) -> Network {
    if cell.endpoints >= PAPER_SCALE {
        cell.topology.build_small()
    } else {
        cell.topology.build_scaled(cell.endpoints)
    }
}

fn net_info(net: &Network) -> NetInfo {
    NetInfo {
        name: net.name.clone(),
        ranks: net.num_ranks(),
        endpoints: net.endpoints.len(),
        cables: net.topo.cables().len(),
    }
}

/// Pack a [`FailureSetId`] into the cache key's u64 slot. The count lands
/// in the high half so two sets differing only in size can't collide via
/// fingerprint alone.
fn fsid_u64(id: FailureSetId) -> u64 {
    (u64::from(id.count)).rotate_left(32) ^ id.fingerprint
}

/// Execute (or recall) one cell.
fn exec_cell(spec_src: &str, cell: &CellSpec, cache_dir: Option<&Path>) -> CellRow {
    // Telemetry scope: everything this cell records — including the
    // engine-level events of the simulations it runs — lands under a
    // label derived from the cell index, so artifacts are byte-identical
    // at any thread count.
    let _tel_scope = hxtelemetry::collect::scope(&format!("cell/{:04}", cell.index));
    let tel_trace = hxtelemetry::collect::trace_enabled();
    let tel_metrics = hxtelemetry::collect::metrics_enabled();
    let tel_any = tel_trace || tel_metrics;
    let mut sink = TraceSink::new(tel_trace);
    let mut reg = Registry::new();
    if tel_any {
        sink.instant_args("cell_start", "serve", 0, vec![("cell", cell.index as u64)]);
    }
    // Failure cells draw their cable set first: the cache key includes the
    // set's content fingerprint, so a changed drawing recipe can never be
    // served a stale result. The draw itself is cheap next to the sim.
    let mut cfg = SimConfig::default();
    let (prepared, failure_set_id) = match cell.kind {
        CellKind::FailedAlltoall { failures, draw }
        | CellKind::MidrunAlltoall { failures, draw, .. } => {
            let mut net = build_net(cell);
            let got = net.fail_random_cables_drawn(failures, cell.seed, draw as u64);
            assert_eq!(
                got, failures,
                "{}: could only fail {got}/{failures} cables",
                net.name
            );
            let id = fsid_u64(net.topo.failure_set_id());
            if let CellKind::MidrunAlltoall {
                retransmit, times, ..
            } = &cell.kind
            {
                // Same draw (and so the same fingerprint/cache identity) as
                // the frozen cell, but the run starts on the pristine
                // network and the drawn cables arrive as mid-run link events.
                let drawn: Vec<_> = net
                    .topo
                    .cables()
                    .into_iter()
                    .filter(|&(n, p)| net.topo.link_failed(n, p))
                    .collect();
                let at = |v: &[u64], i: usize| v[i.min(v.len() - 1)];
                for (i, &(n, p)) in drawn.iter().enumerate() {
                    net.topo.restore_link(n, p);
                    cfg.failures = cfg.failures.fail(at(&times.fail_at_ps, i), n, p);
                    if !times.repair_at_ps.is_empty() {
                        cfg.failures = cfg.failures.repair(at(&times.repair_at_ps, i), n, p);
                    }
                }
                cfg.retransmit = *retransmit;
            }
            (Some(net), id)
        }
        _ => (None, 0u64),
    };
    let descriptor = cell.descriptor();
    let key = cache::cell_key(spec_src, &descriptor, failure_set_id);
    if let Some(dir) = cache_dir {
        if let Some(rec) = cache::load(dir, key, &descriptor) {
            if tel_any {
                sink.instant_args(
                    "cell_cache_hit",
                    "serve",
                    0,
                    vec![("cell", cell.index as u64)],
                );
                let hits = reg.counter("cell_cache_hits");
                reg.inc(hits, 1);
                hxtelemetry::collect::submit(reg, sink);
            }
            return CellRow {
                spec: cell.clone(),
                net: rec.net,
                failure_set_id,
                output: rec.output,
                cached: true,
            };
        }
    }
    let net = match prepared {
        Some(net) => net,
        None => build_net(cell),
    };
    let info = net_info(&net);
    let output = match &cell.kind {
        CellKind::Alltoall => bw(experiments::alltoall_bandwidth(
            &net,
            cell.bytes,
            cell.window,
            cell.engine,
            cfg,
        )),
        CellKind::Permutation { rounds } => CellOutput::Distribution(
            experiments::permutation_bandwidths(&net, cell.bytes, *rounds, cell.seed, cell.engine),
        ),
        CellKind::Allreduce { algo } => bw(experiments::allreduce_bandwidth(
            &net,
            *algo,
            cell.bytes,
            cell.engine,
        )),
        CellKind::FailedAlltoall { failures, .. } | CellKind::MidrunAlltoall { failures, .. } => {
            let m =
                experiments::alltoall_bandwidth(&net, cell.bytes, cell.window, cell.engine, cfg);
            assert!(
                m.clean,
                "{} with {failures} failed cables ({:?}) did not deliver all traffic ({})",
                net.name, cell.kind, cell.engine
            );
            bw(m)
        }
    };
    if let Some(dir) = cache_dir {
        // A failed store (disk full, read-only dir) costs a recompute next
        // run, never a wrong answer — drop the error.
        let _ = cache::store(
            dir,
            key,
            &CacheRecord {
                descriptor,
                net: info.clone(),
                output: output.clone(),
            },
        );
    }
    if tel_any {
        let computed = reg.counter("cells_computed");
        reg.inc(computed, 1);
        hxtelemetry::collect::submit(reg, sink);
    }
    CellRow {
        spec: cell.clone(),
        net: info,
        failure_set_id,
        output,
        cached: false,
    }
}

fn bw(m: Measurement) -> CellOutput {
    CellOutput::Bandwidth(BwCell {
        bw_fraction: m.bw_fraction,
        time_ps: m.time_ps,
        clean: m.clean,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{Overrides, Scenario};

    const TINY: &str = r#"
[scenario]
name = "tiny"

[topology]
set = ["hx2mesh", "torus"]
endpoints = 16

[sweep]
bytes = [8192]

[output]
style = "grid"
title = "tiny"
"#;

    #[test]
    fn runs_cells_in_order_without_cache() {
        let plan = Scenario::parse(TINY)
            .unwrap()
            .resolve(&Overrides::default());
        let mut seen = Vec::new();
        let res = run_with(&plan, &ExecOptions::default(), |row| {
            seen.push(row.spec.index);
        });
        assert_eq!(seen, vec![0, 1]);
        assert_eq!(res.cache_hits, 0);
        assert_eq!(res.cache_misses, 2);
        for row in &res.rows {
            let CellOutput::Bandwidth(b) = &row.output else {
                panic!("bandwidth cell expected");
            };
            assert!(b.clean && b.bw_fraction > 0.0);
            assert_eq!(row.net.ranks, 16);
        }
    }
}
