//! Regenerates the **Fig. 10 mid-run comparison**: frozen-failure vs
//! mid-flight-failure alltoall curves, driven by the
//! `specs/fig10_midrun.toml` scenario. Each sweep point draws one random
//! connectivity-preserving cable set and runs it both ways — frozen
//! before injection starts, and as in-run link-fail events at 5 µs with
//! traffic already in flight (flow engine: mid-run re-route and re-rate;
//! packet engine: drop plus timeout/reroute retransmission, chosen by
//! the spec's `[failures] retransmit` key). `--engine` restricts the
//! engine columns, `--traces N` overrides the draws per sweep point, and
//! `--csv PATH` records the per-draw samples with a frozen/midrun `mode`
//! column.

use hxbench::HarnessArgs;

fn main() {
    let args = HarnessArgs::parse();
    hxbench::run_spec(include_str!("../../../../specs/fig10_midrun.toml"), &args)
}
