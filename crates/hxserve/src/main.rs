//! The `hxserve` CLI: run declarative scenario specs.
//!
//! ```text
//! hxserve run   specs/fig11.toml --format table
//! hxserve batch specs/*.toml --stats stats.json
//! ```
//!
//! Rows stream as cells complete (in deterministic cell order); repeated
//! runs over unchanged specs are served from the cell cache and emit
//! byte-identical output.

use hxserve::cli::{self, CommonArgs, COMMON_FLAGS, SERVE_FLAGS};
use hxserve::{exec, render, ExecOptions, Scenario};
use std::io::Write as _;
use std::path::PathBuf;

#[derive(Clone, Copy, PartialEq)]
enum Format {
    Jsonl,
    Csv,
    Table,
}

struct ServeArgs {
    common: CommonArgs,
    format: Format,
    cache_dir: Option<PathBuf>,
    stats: Option<PathBuf>,
    specs: Vec<PathBuf>,
}

fn usage() -> String {
    cli::help_text(
        "hxserve <run|batch> <spec.toml>... [options]",
        &[COMMON_FLAGS, SERVE_FLAGS],
    )
}

fn fail_usage(msg: &str) -> ! {
    eprintln!("hxserve: {msg}");
    eprintln!("{}", usage());
    std::process::exit(2);
}

fn parse_cli() -> ServeArgs {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = argv.first() else {
        fail_usage("missing command");
    };
    if command == "--help" || command == "-h" {
        print!("{}", usage());
        std::process::exit(0);
    }
    if command != "run" && command != "batch" {
        fail_usage(&format!(
            "unknown command {command:?} (expected run or batch)"
        ));
    }
    let (common, flags, positional) = match cli::parse_common(&argv[1..], SERVE_FLAGS) {
        Ok(parsed) => parsed,
        Err(msg) => fail_usage(&msg),
    };
    let mut out = ServeArgs {
        common,
        format: Format::Jsonl,
        cache_dir: Some(PathBuf::from("target/hxserve-cache")),
        stats: None,
        specs: positional.iter().map(PathBuf::from).collect(),
    };
    let mut no_cache = false;
    for (flag, value) in &flags {
        let value = value.as_deref().unwrap_or("");
        match flag.as_str() {
            "--help" => {
                print!("{}", usage());
                std::process::exit(0);
            }
            "--format" => {
                out.format = match value {
                    "jsonl" => Format::Jsonl,
                    "csv" => Format::Csv,
                    "table" => Format::Table,
                    other => fail_usage(&format!(
                        "unknown format {other:?} (expected jsonl, csv, table)"
                    )),
                }
            }
            "--cache-dir" => out.cache_dir = Some(PathBuf::from(value)),
            "--no-cache" => no_cache = true,
            "--stats" => out.stats = Some(PathBuf::from(value)),
            other => fail_usage(&format!("unhandled flag {other:?}")),
        }
    }
    if no_cache {
        out.cache_dir = None;
    }
    cli::apply_telemetry(
        out.common.metrics_out.as_deref(),
        out.common.trace_out.as_deref(),
    );
    match (command.as_str(), out.specs.len()) {
        ("run", 1) => {}
        ("run", n) => fail_usage(&format!("run takes exactly one spec, got {n}")),
        ("batch", 0) => fail_usage("batch needs at least one spec"),
        _ => {}
    }
    out
}

fn main() {
    let args = parse_cli();
    let opts = ExecOptions {
        cache_dir: args.cache_dir.clone(),
    };
    let stdout = std::io::stdout();
    let mut total_cells = 0usize;
    let mut total_hits = 0usize;
    let mut total_misses = 0usize;
    for path in &args.specs {
        let src = match std::fs::read_to_string(path) {
            Ok(src) => src,
            Err(e) => {
                eprintln!("hxserve: cannot read {}: {e}", path.display());
                std::process::exit(1);
            }
        };
        let scenario = match Scenario::parse(&src) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("hxserve: {}: {e}", path.display());
                std::process::exit(1);
            }
        };
        let plan = scenario.resolve(&args.common.overrides);
        let mut lock = stdout.lock();
        if args.format == Format::Csv {
            if let Some(header) = render::csv_header(&plan) {
                let _ = writeln!(lock, "{header}");
            }
        }
        let result = exec::run_with(&plan, &opts, |row| match args.format {
            Format::Jsonl => {
                let _ = writeln!(lock, "{}", render::jsonl_row(&plan, row));
            }
            Format::Csv => {
                if let Some(line) = render::csv_row(&plan, row) {
                    let _ = writeln!(lock, "{line}");
                }
            }
            Format::Table => {}
        });
        if args.format == Format::Table {
            let _ = write!(lock, "{}", render::render(&plan, &result.rows));
        }
        drop(lock);
        eprintln!(
            "[hxserve] {}: {} cells ({} cached, {} computed)",
            plan.name,
            result.rows.len(),
            result.cache_hits,
            result.cache_misses
        );
        total_cells += result.rows.len();
        total_hits += result.cache_hits;
        total_misses += result.cache_misses;
    }
    // Telemetry artifacts, and the wall-clock cost of producing them: the
    // only wall-clock in this binary, surfaced as `telemetry_overhead_s`
    // so `--stats` consumers can see what the flags cost end to end.
    #[allow(clippy::disallowed_methods)] // bin-side wall-clock; results never read it
    let t0 = std::time::Instant::now();
    if let Err(e) = cli::write_telemetry(
        args.common.metrics_out.as_deref(),
        args.common.trace_out.as_deref(),
    ) {
        eprintln!("hxserve: cannot write telemetry artifacts: {e}");
        std::process::exit(1);
    }
    let telemetry_overhead_s = t0.elapsed().as_secs_f64();
    if let Some(path) = &args.stats {
        let mut counters = String::from("{");
        for (i, (name, total)) in hxtelemetry::collect::counter_totals().iter().enumerate() {
            if i > 0 {
                counters.push(',');
            }
            counters.push_str(&format!("\"{name}\":{total}"));
        }
        counters.push('}');
        let body = format!(
            "{{\"specs\":{},\"cells\":{total_cells},\"cache_hits\":{total_hits},\"cache_misses\":{total_misses},\
             \"counters\":{counters},\"telemetry_overhead_s\":{telemetry_overhead_s:.6}}}\n",
            args.specs.len()
        );
        if let Err(e) = std::fs::write(path, body) {
            eprintln!("hxserve: cannot write stats {}: {e}", path.display());
            std::process::exit(1);
        }
    }
}
