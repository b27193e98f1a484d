//! Deterministic telemetry for the HammingMesh simulation stack.
//!
//! Three pillars, all driven by *simulated* time — no wall clock, no
//! ambient entropy, no external dependencies:
//!
//! - [`hist::HistogramU64`]: a log-bucketed (hdrhistogram-style, ~2
//!   significant digits) fixed-size histogram with O(1) record and
//!   exact-bucket percentiles, replacing sort-the-Vec percentile scans.
//! - [`registry::Registry`]: named counter/gauge/histogram handles
//!   registered once and updated through copyable ids, plus a sim-time
//!   [`registry::Sampler`] that snapshots selected gauges on a simulated
//!   period into a bounded ring.
//! - [`trace::TraceSink`]: structured spans and instant events serialized
//!   as Chrome trace-event JSON (loadable in Perfetto / `chrome://tracing`).
//!   A disabled sink records nothing and costs one branch per call site.
//!
//! The [`collect`] module is the process-global rendezvous: engines record
//! into cheap local sinks and submit under a deterministic *scope* label
//! (cell index, load label); artifact writers iterate the sorted scope map,
//! which makes `--metrics-out`/`--trace-out` files byte-identical at any
//! thread count by construction.

pub mod collect;
pub mod hist;
pub mod registry;
pub mod trace;

pub use collect::{scope, ScopeGuard};
pub use hist::HistogramU64;
pub use registry::{CounterId, GaugeId, HistId, Registry, Sample, Sampler};
pub use trace::{validate_chrome_trace, validate_json, TraceEvent, TraceSink};
