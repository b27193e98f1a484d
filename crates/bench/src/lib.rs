//! Shared plumbing for the per-figure benchmark binaries.
//!
//! Every binary regenerates the table or figure of the paper its name
//! gives (`fig11_alltoall` is Fig. 11) and prints the same rows/series the
//! paper reports. By default they run at a reduced scale that finishes in
//! seconds; pass `--full` for the paper-scale configuration (hours).
//!
//! The simulation-sweep binaries (fig10 routed, fig11–fig14) are thin
//! wrappers over `hxserve` scenario specs under `specs/` — see
//! [`run_spec`]. The flag table is shared with the `hxserve` CLI
//! ([`hxserve::cli`]), so `--help` text and strict unknown-flag handling
//! (exit 2) cannot drift between the two entry points.

use hammingmesh::hxsim::EngineKind;
use hxserve::cli::{self, COMMON_FLAGS, HARNESS_FLAGS};
use std::time::Instant;

/// Parsed command line shared by the figure binaries.
#[derive(Clone, Debug)]
pub struct HarnessArgs {
    /// Run paper-scale sizes instead of the quick defaults.
    pub full: bool,
    /// Override trace/repetition counts.
    pub traces: Option<usize>,
    /// RNG seed.
    pub seed: u64,
    /// Simulation backend override (`--engine packet|flow`).
    pub engine: Option<EngineKind>,
    /// Figure-specific sub-mode (`--mode NAME`); binaries with a single
    /// mode ignore it. `fig10_failures` accepts `board` and `routed`.
    pub mode: Option<String>,
    /// Also write the printed table as CSV to this path (`--csv PATH`).
    pub csv: Option<std::path::PathBuf>,
    /// Write the deterministic metrics registry as JSON (`--metrics-out`).
    pub metrics_out: Option<std::path::PathBuf>,
    /// Write a Chrome trace-event JSON of the run (`--trace-out`).
    pub trace_out: Option<std::path::PathBuf>,
}

impl HarnessArgs {
    /// Parse the process arguments. Unknown flags and malformed values
    /// are hard errors (message on stderr, exit 2); `--help` prints the
    /// shared flag table and exits 0.
    pub fn parse() -> Self {
        let fail = |msg: String| -> ! {
            eprintln!("{msg}");
            std::process::exit(2);
        };
        let argv: Vec<String> = std::env::args().skip(1).collect();
        let (common, flags, positional) = match cli::parse_common(&argv, HARNESS_FLAGS) {
            Ok(parsed) => parsed,
            Err(msg) => fail(msg),
        };
        if let Some(p) = positional.first() {
            fail(format!("unexpected argument {p:?} (try --help)"));
        }
        let mut out = Self {
            full: common.overrides.full,
            traces: common.overrides.traces,
            seed: common.overrides.seed.unwrap_or(hxserve::spec::DEFAULT_SEED),
            engine: common.overrides.engine,
            mode: None,
            csv: None,
            metrics_out: common.metrics_out,
            trace_out: common.trace_out,
        };
        for (flag, value) in flags {
            match flag.as_str() {
                "--help" => {
                    print!(
                        "{}",
                        cli::help_text("<figure binary> [options]", &[COMMON_FLAGS, HARNESS_FLAGS])
                    );
                    std::process::exit(0);
                }
                "--mode" => out.mode = value,
                "--csv" => out.csv = value.map(std::path::PathBuf::from),
                other => fail(format!("unhandled flag {other:?}")),
            }
        }
        // Enable telemetry before any engine is constructed: engines cache
        // the channel flags at construction time.
        cli::apply_telemetry(out.metrics_out.as_deref(), out.trace_out.as_deref());
        out
    }

    /// Write the `--metrics-out` / `--trace-out` artifacts collected over
    /// the process. Figure binaries call this once, after all sweeps.
    pub fn write_telemetry(&self) {
        if let Err(e) = cli::write_telemetry(self.metrics_out.as_deref(), self.trace_out.as_deref())
        {
            eprintln!("cannot write telemetry artifacts: {e}");
            std::process::exit(1);
        }
        for path in [&self.metrics_out, &self.trace_out].into_iter().flatten() {
            eprintln!("[telemetry] wrote {}", path.display());
        }
    }

    /// The simulation backend to use: an explicit `--engine` wins;
    /// otherwise the figure binaries default to the flow-level fast path
    /// at every scale — it is what makes the paper-size message sweeps
    /// affordable (quick included, now that quick configs span the
    /// paper's MiB-sized messages), and it is mandatory at `--full`
    /// scale. Pass `--engine packet` for packet-level validation runs;
    /// the cross-validation suite (`tests/flow_vs_packet.rs`) pins the
    /// agreement between the two.
    pub fn engine(&self) -> EngineKind {
        self.engine.unwrap_or(EngineKind::Flow)
    }

    /// These flags as `hxserve` scenario overrides.
    pub fn overrides(&self) -> hxserve::Overrides {
        hxserve::Overrides {
            full: self.full,
            traces: self.traces,
            seed: Some(self.seed),
            engine: self.engine,
        }
    }
}

/// Run an `hxserve` scenario spec the way the figure binaries do: resolve
/// it against the parsed flags, execute (uncached — a figure binary is a
/// from-scratch reproduction by definition), print the table to stdout,
/// and honor `--csv`. Spec errors exit 2: the committed specs are
/// validated by `cargo test -p hxserve`, so an error here means a local
/// edit broke one.
pub fn run_spec(spec_src: &str, args: &HarnessArgs) {
    let scenario = match hxserve::Scenario::parse(spec_src) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    let plan = scenario.resolve(&args.overrides());
    let result = timed(&format!("{} cells", plan.name), || {
        hxserve::exec::run(&plan, &hxserve::ExecOptions::default())
    });
    print!("{}", hxserve::render::render(&plan, &result.rows));
    if let Some(path) = &args.csv {
        if let Some(csv) = hxserve::render::render_csv(&plan, &result.rows) {
            if let Err(e) = std::fs::write(path, &csv) {
                eprintln!("cannot write {}: {e}", path.display());
                std::process::exit(1);
            }
            eprintln!("[{}] wrote {}", plan.name, path.display());
        }
    }
    args.write_telemetry();
}

/// Print a section header in the style used by all binaries.
pub fn header(title: &str) {
    println!("\n=== {title} ===");
}

/// Time a closure and report wall-clock seconds on stderr.
pub fn timed<T>(label: &str, f: impl FnOnce() -> T) -> T {
    #[allow(clippy::disallowed_methods)]
    // hxlint: allow(D002) wall-clock benchmark chatter on stderr; simulation results never read it
    let t0 = Instant::now();
    let out = f();
    eprintln!("[{label}] {:.2}s", t0.elapsed().as_secs_f64());
    out
}
