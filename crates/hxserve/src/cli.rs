//! The shared flag table and strict parser behind both CLIs: the
//! `hxserve` binary and the figure harness (`hxbench::HarnessArgs`).
//!
//! One table, two consumers — so `--help` output, value metavars, and the
//! "unknown flag" behavior (exit 2, no silent ignoring) can never drift
//! between the scenario service and the fifteen figure binaries. The
//! common flags are matched in one function, [`parse_common`]; every
//! other setting of a run lives in its scenario spec.

use crate::Overrides;
use std::path::PathBuf;

/// One flag: name, optional value metavar, help line.
pub struct FlagSpec {
    /// Including the leading dashes (`"--seed"`).
    pub name: &'static str,
    /// `Some(metavar)` if the flag consumes the following argument.
    pub value: Option<&'static str>,
    pub help: &'static str,
}

/// Flags every sweep consumer takes (figure binaries and `hxserve`).
pub const COMMON_FLAGS: &[FlagSpec] = &[
    FlagSpec {
        name: "--full",
        value: None,
        help: "run the paper-scale configuration instead of the quick default",
    },
    FlagSpec {
        name: "--traces",
        value: Some("N"),
        help: "override the trace/repetition count (in a spec the style decides: \
               failure_blocks draws per point, scaling_by_algo the first N cluster \
               sizes, other styles ignore it)",
    },
    FlagSpec {
        name: "--seed",
        value: Some("S"),
        help: "RNG seed (default 12648430 = 0xC0FFEE)",
    },
    FlagSpec {
        name: "--engine",
        value: Some("packet|flow"),
        help: "simulation backend override (default: flow)",
    },
    FlagSpec {
        name: "--metrics-out",
        value: Some("PATH"),
        help: "write the deterministic metrics registry (counters, gauges, \
               histograms, samples) as JSON to PATH",
    },
    FlagSpec {
        name: "--trace-out",
        value: Some("PATH"),
        help: "write a Chrome trace-event JSON (Perfetto-loadable) of the run \
               to PATH",
    },
];

/// Extra flags of the figure harness only.
pub const HARNESS_FLAGS: &[FlagSpec] = &[
    FlagSpec {
        name: "--mode",
        value: Some("NAME"),
        help: "figure-specific sub-mode (fig10_failures: board|routed)",
    },
    FlagSpec {
        name: "--csv",
        value: Some("PATH"),
        help: "also write the printed table as CSV to PATH",
    },
];

/// Extra flags of the `hxserve` binary only.
pub const SERVE_FLAGS: &[FlagSpec] = &[
    FlagSpec {
        name: "--format",
        value: Some("jsonl|csv|table"),
        help: "output format (default: jsonl)",
    },
    FlagSpec {
        name: "--cache-dir",
        value: Some("PATH"),
        help: "cell cache directory (default: target/hxserve-cache)",
    },
    FlagSpec {
        name: "--no-cache",
        value: None,
        help: "disable the cell cache (always recompute, write nothing)",
    },
    FlagSpec {
        name: "--stats",
        value: Some("PATH"),
        help: "write a JSON run summary (cells, cache hits/misses) to PATH",
    },
];

/// Recognized `(flag, value)` pairs in argument order.
pub type ParsedFlags = Vec<(String, Option<String>)>;

/// Parse `args` against the given flag tables. Returns the recognized
/// `(flag, value)` pairs in order plus the positional arguments.
/// `--help`/`-h` is always recognized (returned as a `"--help"` pair).
/// Unknown flags and flags missing their value are errors — callers print
/// the message and exit 2.
pub fn parse_flags(
    args: &[String],
    tables: &[&[FlagSpec]],
) -> Result<(ParsedFlags, Vec<String>), String> {
    let mut flags: ParsedFlags = Vec::new();
    let mut positional: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--help" || a == "-h" {
            flags.push(("--help".to_string(), None));
            continue;
        }
        if let Some(spec) = tables.iter().flat_map(|t| t.iter()).find(|s| s.name == a) {
            let value = match spec.value {
                Some(metavar) => match it.next() {
                    Some(v) => Some(v.clone()),
                    None => return Err(format!("{a} needs a value ({metavar})")),
                },
                None => None,
            };
            flags.push((a.clone(), value));
        } else if a.starts_with('-') && a.len() > 1 {
            return Err(format!("unknown flag {a:?} (try --help)"));
        } else {
            positional.push(a.clone());
        }
    }
    Ok((flags, positional))
}

/// The [`COMMON_FLAGS`], parsed: scenario overrides plus the telemetry
/// artifact destinations.
#[derive(Clone, Debug, Default)]
pub struct CommonArgs {
    pub overrides: Overrides,
    pub metrics_out: Option<PathBuf>,
    pub trace_out: Option<PathBuf>,
}

/// Parse `args` against [`COMMON_FLAGS`] plus the consumer's own `extra`
/// table. The common flags fold into [`CommonArgs`]; the consumer's own
/// flags (and `--help`) come back as `(flag, value)` pairs in argument
/// order, followed by the positional arguments. Unknown flags, missing
/// values, and malformed common values are errors — callers print the
/// message and exit 2.
pub fn parse_common(
    args: &[String],
    extra: &[FlagSpec],
) -> Result<(CommonArgs, ParsedFlags, Vec<String>), String> {
    let (flags, positional) = parse_flags(args, &[COMMON_FLAGS, extra])?;
    let mut common = CommonArgs::default();
    let mut own = ParsedFlags::new();
    for (flag, value) in flags {
        let v = value.as_deref().unwrap_or("");
        let int_err = |_| format!("{flag} needs an integer, got {v:?}");
        match flag.as_str() {
            "--full" => common.overrides.full = true,
            "--traces" => common.overrides.traces = Some(v.parse().map_err(int_err)?),
            "--seed" => common.overrides.seed = Some(v.parse().map_err(int_err)?),
            "--engine" => common.overrides.engine = Some(v.parse()?),
            "--metrics-out" => common.metrics_out = Some(PathBuf::from(v)),
            "--trace-out" => common.trace_out = Some(PathBuf::from(v)),
            _ => own.push((flag, value)),
        }
    }
    Ok((common, own, positional))
}

/// Render the `--help` text for a usage line and a set of flag tables.
pub fn help_text(usage: &str, tables: &[&[FlagSpec]]) -> String {
    let mut out = format!("usage: {usage}\n\noptions:\n");
    for spec in tables.iter().flat_map(|t| t.iter()) {
        let left = match spec.value {
            Some(metavar) => format!("{} {metavar}", spec.name),
            None => spec.name.to_string(),
        };
        out.push_str(&format!("  {left:<26} {}\n", spec.help));
    }
    out
}

/// Apply `--metrics-out` / `--trace-out`: enable exactly the channels
/// that have a destination, so instrumented code costs one branch when
/// neither flag is given. Call before any simulation is constructed —
/// engines cache the enabled flags at construction.
pub fn apply_telemetry(metrics_out: Option<&std::path::Path>, trace_out: Option<&std::path::Path>) {
    hxtelemetry::collect::set_metrics_enabled(metrics_out.is_some());
    hxtelemetry::collect::set_trace_enabled(trace_out.is_some());
}

/// Write the collected telemetry artifacts after a run. Paths mirror
/// [`apply_telemetry`]; a `None` channel writes nothing. Both files are
/// byte-identical across thread counts.
pub fn write_telemetry(
    metrics_out: Option<&std::path::Path>,
    trace_out: Option<&std::path::Path>,
) -> std::io::Result<()> {
    if let Some(path) = metrics_out {
        hxtelemetry::collect::write_metrics_file(path)?;
    }
    if let Some(path) = trace_out {
        hxtelemetry::collect::write_trace_file(path)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn recognized_flags_and_positionals() {
        let (flags, pos) = parse_flags(
            &argv(&["--full", "specs/a.toml", "--seed", "7", "b.toml"]),
            &[COMMON_FLAGS],
        )
        .unwrap();
        assert_eq!(
            flags,
            vec![
                ("--full".to_string(), None),
                ("--seed".to_string(), Some("7".to_string()))
            ]
        );
        assert_eq!(pos, argv(&["specs/a.toml", "b.toml"]));
    }

    #[test]
    fn unknown_flag_is_an_error() {
        let err = parse_flags(&argv(&["--frobnicate"]), &[COMMON_FLAGS]).unwrap_err();
        assert!(err.contains("unknown flag"), "{err}");
        // A flag from a table not passed in is unknown to this consumer.
        let err = parse_flags(&argv(&["--format", "csv"]), &[COMMON_FLAGS]).unwrap_err();
        assert!(err.contains("--format"), "{err}");
    }

    #[test]
    fn missing_value_is_an_error() {
        let err = parse_flags(&argv(&["--seed"]), &[COMMON_FLAGS]).unwrap_err();
        assert!(err.contains("needs a value"), "{err}");
    }

    #[test]
    fn common_flags_fold_and_own_flags_pass_through() {
        let (common, own, pos) = parse_common(
            &argv(&[
                "--full", "--seed", "7", "--csv", "x.csv", "--engine", "packet", "s.toml",
            ]),
            HARNESS_FLAGS,
        )
        .unwrap();
        assert!(common.overrides.full);
        assert_eq!(common.overrides.seed, Some(7));
        assert_eq!(
            common.overrides.engine,
            Some(hammingmesh::hxsim::EngineKind::Packet)
        );
        assert_eq!(own, vec![("--csv".to_string(), Some("x.csv".to_string()))]);
        assert_eq!(pos, argv(&["s.toml"]));
        let err = parse_common(&argv(&["--traces", "many"]), &[]).unwrap_err();
        assert!(err.contains("--traces needs an integer"), "{err}");
    }

    #[test]
    fn help_is_always_recognized() {
        for h in ["--help", "-h"] {
            let (flags, _) = parse_flags(&argv(&[h]), &[COMMON_FLAGS]).unwrap();
            assert_eq!(flags[0].0, "--help");
        }
    }

    #[test]
    fn help_text_lists_every_flag() {
        let text = help_text("prog [options]", &[COMMON_FLAGS, HARNESS_FLAGS]);
        for spec in COMMON_FLAGS.iter().chain(HARNESS_FLAGS) {
            assert!(text.contains(spec.name), "missing {}", spec.name);
        }
        assert!(text.starts_with("usage: prog [options]\n"));
    }
}
