//! `hxserve` — the scenario service: one declarative API over the
//! simulation stack, replacing the per-figure ad-hoc sweep drivers.
//!
//! A *scenario spec* (`specs/*.toml`) declares a topology set, an
//! engine, sweep axes, a failure policy, and an output style — the style
//! also selects the traffic pattern and what `--traces` overrides (see
//! [`spec`]); the library turns it into typed values and runs it:
//!
//! ```text
//! spec source ──toml::parse──► Doc ──Scenario::parse──► Scenario
//!     Scenario::resolve(Overrides) ──► Plan (cells in render order)
//!     exec::run(&plan, &opts)     ──► RunResult (rows + cache counters)
//!     render::{render, render_csv, jsonl_row} ──► output bytes
//! ```
//!
//! Design rules, inherited from the workspace's determinism discipline:
//!
//! * **Dependency-free parsing.** The TOML subset is hand-rolled
//!   ([`toml`]), same no-crates.io regime as `hxlint`'s lexer.
//! * **Deterministic at any thread count.** Cells run concurrently on the
//!   vendored rayon pool but are reassembled in plan order, so every
//!   output byte is independent of `RAYON_NUM_THREADS`.
//! * **The spec is the whole input.** Every setting that changes a
//!   result is a spec key or a common flag resolved into the cells
//!   (`--full`, `--traces`, `--seed`, `--engine`); nothing reaches the
//!   engines through the process environment, so the cache key covers
//!   everything a cell depends on.
//! * **Content-addressed memoization.** Completed cells are cached on
//!   disk keyed on (spec source hash, cell descriptor, failure-set
//!   fingerprint) — byte-identical specs hit, any spec edit misses, and
//!   warm output is byte-identical to cold output ([`cache`]).
//! * **Figure fidelity.** The renderers reproduce the replaced figure
//!   binaries' stdout and CSV byte-for-byte (pinned by
//!   `crates/bench/tests/spec_golden.rs`).
//!
//! The `hxserve` binary (`src/main.rs`) fronts this with `run <spec>` and
//! `batch <specs...>` commands streaming JSONL or CSV.

pub mod cache;
pub mod cli;
pub mod exec;
pub mod render;
pub mod spec;
pub mod toml;

pub use exec::{run, run_with, BwCell, CellOutput, CellRow, ExecOptions, NetInfo, RunResult};
pub use spec::{CellKind, CellSpec, EngineSel, Overrides, Plan, Scenario, Style, Sweep};
pub use toml::SpecError;
