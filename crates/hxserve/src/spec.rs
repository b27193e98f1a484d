//! The typed scenario spec: what a `specs/*.toml` file parses into, the
//! validation rules, and the resolution of a spec + CLI overrides into a
//! concrete execution [`Plan`].
//!
//! # Spec format
//!
//! ```toml
//! [scenario]
//! name = "fig11_alltoall"   # identifier (letters, digits, _ and -)
//! engine = "flow"           # packet | flow | both (both: failure_blocks only)
//! window = 2                # alltoall injection window / permutation rounds
//! seed = 12648430           # base RNG seed (default 0xC0FFEE)
//!
//! [topology]
//! set = "all"               # "all" (Table II order) or ["fat_tree", ...]
//! endpoints = 64            # quick-scale accelerator count
//! endpoints_full = "small"  # --full count; "small" = the paper-scale build
//!
//! [sweep]
//! bytes = [32768, 1048576]  # message-size axis (single value = fixed)
//! bytes_full = [...]        # --full variant (defaults to `bytes`)
//! algos = ["rings", "torus"]        # allreduce algorithm axis
//! endpoints = [64, 256]             # cluster-size axis (scaling_by_algo)
//! failed_cables = [0, 1, 2, 4, 8]   # failure-count axis (failure_blocks)
//! draws = 3                 # random failure draws per sweep point
//!
//! [failures]                # failure_blocks only; optional
//! mode = "frozen"           # frozen | midrun | compare (frozen vs midrun columns)
//! retransmit = "timeout"    # midrun/compare only: packet-engine recovery of
//!                           # packets dropped on a failed cable (timeout | reroute)
//!
//! [failures.schedule]       # required for midrun/compare modes
//! fail_at_ps = [5000000]    # fail instants, paired with the drawn cables
//!                           # in canonical cable order (last entry repeats)
//! repair_at_ps = [...]      # optional repair instants (same pairing)
//!
//! [output]
//! style = "grid"            # grid | distribution | grid_by_algo |
//!                           # scaling_by_algo | failure_blocks
//! title = "... {n} ... {engine} ..."   # {n} {engine} {bytes} {draws} substituted
//! note = "trailing commentary"
//! ```
//!
//! The style is the one place a spec names what it runs: it selects the
//! traffic pattern and what a `--traces N` override means.
//!
//! | style             | pattern                                 | `--traces N`            |
//! |-------------------|-----------------------------------------|-------------------------|
//! | `grid`            | alltoall (Fig. 11)                      | ignored                 |
//! | `distribution`    | random permutation (Fig. 12)            | ignored                 |
//! | `grid_by_algo`    | allreduce per `algos` entry (Fig. 13)   | ignored                 |
//! | `scaling_by_algo` | allreduce per `algos` entry (Fig. 14)   | first N cluster sizes   |
//! | `failure_blocks`  | alltoall around failed cables (Fig. 10) | N draws per sweep point |
//!
//! Every `*_full` key defaults to its quick sibling. Endpoint counts of
//! 1024 and above (and the `"small"` keyword) build the paper-scale
//! machine (`TopologyChoice::build_small`); smaller counts use
//! `build_scaled`. Unknown sections, unknown keys, bad enum values, and
//! duplicate keys (a sweep axis given twice) are all hard errors.

use crate::toml::{self, Doc, Section, SpecError, Value};
use hammingmesh::experiments::AllreduceAlgo;
use hammingmesh::hxsim::{EngineKind, RetransmitPolicy};
use hammingmesh::topologies::TopologyChoice;

/// The default RNG seed, shared with the figure harness (`HarnessArgs`).
pub const DEFAULT_SEED: u64 = 0xC0FFEE;

/// Endpoint counts at or above this build the paper-scale machine.
pub const PAPER_SCALE: usize = 1024;

/// Engine selection: one backend, or both (failure blocks compare them).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EngineSel {
    One(EngineKind),
    Both,
}

/// What a scenario runs and how it prints: the traffic pattern and the
/// table shape (each reproduces one figure binary's layout byte for
/// byte; see [`crate::render`]). The style also decides what `--traces`
/// overrides (see the module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Style {
    /// Balanced-shift alltoall (§V-A1a): topology rows x message-size
    /// columns (Fig. 11).
    Grid,
    /// Random-permutation traffic (§V-A1b): per-topology receive-bandwidth
    /// percentiles + cost (Fig. 12).
    Distribution,
    /// Global allreduce (§V-A2): one grid per algorithm (Fig. 13).
    GridByAlgo,
    /// Global allreduce: one (topology x cluster-size) grid per algorithm
    /// + CSV (Fig. 14).
    ScalingByAlgo,
    /// Alltoall routed around random failed cables: per-topology blocks of
    /// failed-cables rows x engine columns (Fig. 10).
    FailureBlocks,
}

impl Style {
    pub fn spec_name(self) -> &'static str {
        match self {
            Style::Grid => "grid",
            Style::Distribution => "distribution",
            Style::GridByAlgo => "grid_by_algo",
            Style::ScalingByAlgo => "scaling_by_algo",
            Style::FailureBlocks => "failure_blocks",
        }
    }
}

/// When a failure cell's drawn cable set takes effect: before the run
/// starts (the original Fig. 10 routed behavior) or mid-run, as in-situ
/// fail/repair events the engines react to while traffic is in flight.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FailureMode {
    Frozen,
    Midrun,
}

/// The `[failures.schedule]` instants. Entries pair with the drawn
/// cables in canonical cable order; a shorter list repeats its last
/// entry, so a single instant fails (or repairs) the whole set at once.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct MidrunTimes {
    pub fail_at_ps: Vec<u64>,
    /// Empty = the failures are permanent for the rest of the run.
    pub repair_at_ps: Vec<u64>,
}

/// The `[failures]` (+ `[failures.schedule]`) sections: how failure
/// cells inject their drawn cable set.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FailurePolicy {
    /// The modes each (topology, failed-count, engine) group sweeps:
    /// `[Frozen]` (default), `[Midrun]`, or `[Frozen, Midrun]` for
    /// `mode = "compare"` side-by-side columns.
    pub modes: Vec<FailureMode>,
    /// How the packet engine recovers packets dropped by a mid-run
    /// failure (`retransmit`; only legal when a midrun mode is swept).
    pub retransmit: RetransmitPolicy,
    pub times: MidrunTimes,
}

impl Default for FailurePolicy {
    fn default() -> Self {
        FailurePolicy {
            modes: vec![FailureMode::Frozen],
            retransmit: RetransmitPolicy::Timeout,
            times: MidrunTimes::default(),
        }
    }
}

impl FailurePolicy {
    /// The `mode` key's value.
    pub fn mode_name(&self) -> &'static str {
        match self.modes.as_slice() {
            [FailureMode::Frozen] => "frozen",
            [FailureMode::Midrun] => "midrun",
            _ => "compare",
        }
    }
}

/// The `[sweep]` section: quick and `--full` variants of every axis.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Sweep {
    pub bytes: Vec<u64>,
    pub bytes_full: Vec<u64>,
    pub algos: Vec<AllreduceAlgo>,
    pub endpoints: Option<Vec<usize>>,
    pub endpoints_full: Option<Vec<usize>>,
    pub failed_cables: Vec<usize>,
    pub failed_cables_full: Vec<usize>,
    pub draws: usize,
    pub draws_full: usize,
}

/// A parsed, validated scenario spec. Parse one with [`Scenario::parse`];
/// the original source text is retained for content-addressed caching.
#[derive(Clone, Debug)]
pub struct Scenario {
    pub name: String,
    pub engine: EngineSel,
    pub window: u32,
    pub seed: u64,
    pub topologies: Vec<TopologyChoice>,
    pub endpoints: usize,
    pub endpoints_full: usize,
    pub sweep: Sweep,
    pub failures: FailurePolicy,
    pub style: Style,
    pub title: String,
    pub note: String,
    /// The verbatim spec source (cache keys hash it).
    pub src: String,
}

/// CLI overrides applied on top of a spec (the figure harness flags).
#[derive(Clone, Copy, Debug, Default)]
pub struct Overrides {
    pub full: bool,
    pub traces: Option<usize>,
    pub seed: Option<u64>,
    pub engine: Option<EngineKind>,
}

/// One unit of work: a single simulation the executor can run (and the
/// cache can memoize) independently.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CellSpec {
    /// Position in the plan's deterministic cell order.
    pub index: usize,
    pub topology: TopologyChoice,
    pub engine: EngineKind,
    /// Accelerator count; `>= PAPER_SCALE` builds the paper-scale machine.
    pub endpoints: usize,
    pub bytes: u64,
    pub window: u32,
    pub seed: u64,
    pub kind: CellKind,
}

/// The pattern-specific part of a cell.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CellKind {
    Alltoall,
    Permutation {
        rounds: u32,
    },
    Allreduce {
        algo: AllreduceAlgo,
    },
    FailedAlltoall {
        failures: usize,
        draw: usize,
    },
    /// Same drawn cable set as `FailedAlltoall`, but injected as mid-run
    /// link events at `times` on a pristine network.
    MidrunAlltoall {
        failures: usize,
        draw: usize,
        retransmit: RetransmitPolicy,
        times: MidrunTimes,
    },
}

impl CellSpec {
    /// Stable textual descriptor of everything that determines this
    /// cell's result. Cache keys hash it (together with the spec source
    /// and the failure-set fingerprint), and stored records embed it so a
    /// hash collision degrades to a miss instead of a wrong answer.
    pub fn descriptor(&self) -> String {
        let kind = match &self.kind {
            CellKind::Alltoall => "alltoall".to_string(),
            CellKind::Permutation { rounds } => format!("permutation:rounds={rounds}"),
            CellKind::Allreduce { algo } => format!("allreduce:{}", algo.spec_name()),
            CellKind::FailedAlltoall { failures, draw } => {
                format!("failed_alltoall:f={failures},draw={draw}")
            }
            CellKind::MidrunAlltoall {
                failures,
                draw,
                retransmit,
                times,
            } => {
                let j = |v: &[u64]| {
                    v.iter()
                        .map(|t| t.to_string())
                        .collect::<Vec<_>>()
                        .join("|")
                };
                format!(
                    "midrun_alltoall:f={failures},draw={draw},retransmit={retransmit},fail={},repair={}",
                    j(&times.fail_at_ps),
                    j(&times.repair_at_ps)
                )
            }
        };
        format!(
            "topo={};engine={};n={};bytes={};window={};seed={};kind={kind}",
            self.topology.spec_name(),
            self.engine,
            self.endpoints,
            self.bytes,
            self.window,
            self.seed,
        )
    }
}

/// A spec resolved against its overrides: concrete axes, the rendered
/// title, and the full deterministic cell list.
#[derive(Clone, Debug)]
pub struct Plan {
    pub name: String,
    pub style: Style,
    pub title: String,
    pub note: String,
    pub topologies: Vec<TopologyChoice>,
    pub engines: Vec<EngineKind>,
    /// Base accelerator count (the `{n}` of the title).
    pub endpoints: usize,
    pub bytes: Vec<u64>,
    pub algos: Vec<AllreduceAlgo>,
    /// Cluster-size axis; `[endpoints]` when the spec has none.
    pub endpoints_axis: Vec<usize>,
    pub failed_cables: Vec<usize>,
    pub draws: usize,
    /// Failure-injection policy (frozen / midrun / compare + instants).
    pub failures: FailurePolicy,
    pub seed: u64,
    pub window: u32,
    /// Verbatim spec source, carried for cache keying.
    pub spec_src: String,
    /// Cells in the deterministic order the renderer consumes.
    pub cells: Vec<CellSpec>,
}

// ---------------------------------------------------------------------
// Typed section access.

fn unknown_key_check(sec: &Section, allowed: &[&str]) -> Result<(), SpecError> {
    for e in &sec.entries {
        if !allowed.contains(&e.key.as_str()) {
            return Err(SpecError::at(
                e.line,
                format!(
                    "unknown key `{}` in [{}] (allowed: {})",
                    e.key,
                    sec.name,
                    allowed.join(", ")
                ),
            ));
        }
    }
    Ok(())
}

fn want_str(sec: &Section, key: &str) -> Result<Option<String>, SpecError> {
    match sec.get(key) {
        None => Ok(None),
        Some(e) => match &e.value {
            Value::Str(s) => Ok(Some(s.clone())),
            v => Err(SpecError::at(
                e.line,
                format!("`{key}` must be a string, got {}", v.shape()),
            )),
        },
    }
}

fn want_u64(sec: &Section, key: &str) -> Result<Option<u64>, SpecError> {
    match sec.get(key) {
        None => Ok(None),
        Some(e) => match &e.value {
            Value::Int(i) if *i >= 0 => Ok(Some(*i as u64)),
            Value::Int(i) => Err(SpecError::at(
                e.line,
                format!("`{key}` must be non-negative, got {i}"),
            )),
            v => Err(SpecError::at(
                e.line,
                format!("`{key}` must be an integer, got {}", v.shape()),
            )),
        },
    }
}

fn want_u64_list(sec: &Section, key: &str) -> Result<Option<Vec<u64>>, SpecError> {
    match sec.get(key) {
        None => Ok(None),
        Some(e) => match &e.value {
            Value::IntList(v) => {
                if v.is_empty() {
                    return Err(SpecError::at(e.line, format!("`{key}` must not be empty")));
                }
                v.iter()
                    .map(|&i| {
                        if i >= 0 {
                            Ok(i as u64)
                        } else {
                            Err(SpecError::at(
                                e.line,
                                format!("`{key}` entries must be non-negative, got {i}"),
                            ))
                        }
                    })
                    .collect::<Result<Vec<_>, _>>()
                    .map(Some)
            }
            v => Err(SpecError::at(
                e.line,
                format!("`{key}` must be an integer array, got {}", v.shape()),
            )),
        },
    }
}

/// Parse an enum-valued string key via `FromStr`-style closure.
fn want_enum<T>(
    sec: &Section,
    key: &str,
    parse: impl Fn(&str) -> Result<T, String>,
) -> Result<Option<T>, SpecError> {
    let Some(e) = sec.get(key) else {
        return Ok(None);
    };
    let Value::Str(s) = &e.value else {
        return Err(SpecError::at(
            e.line,
            format!("`{key}` must be a string, got {}", e.value.shape()),
        ));
    };
    parse(s)
        .map(Some)
        .map_err(|m| SpecError::at(e.line, format!("bad `{key}`: {m}")))
}

impl Scenario {
    /// Parse and validate a spec from its TOML source.
    pub fn parse(src: &str) -> Result<Scenario, SpecError> {
        let doc = toml::parse(src)?;
        for sec in &doc.sections {
            if !matches!(
                sec.name.as_str(),
                "scenario" | "topology" | "sweep" | "failures" | "failures.schedule" | "output"
            ) {
                return Err(SpecError::at(
                    sec.line,
                    format!(
                        "unknown section [{}] (expected [scenario], [topology], [sweep], \
                         [failures], [failures.schedule], [output])",
                        sec.name
                    ),
                ));
            }
        }
        let scenario = require_section(&doc, "scenario")?;
        let topology = require_section(&doc, "topology")?;
        let sweep_sec = require_section(&doc, "sweep")?;
        let output = require_section(&doc, "output")?;

        unknown_key_check(scenario, &["name", "engine", "window", "seed"])?;
        unknown_key_check(topology, &["set", "endpoints", "endpoints_full"])?;
        unknown_key_check(
            sweep_sec,
            &[
                "bytes",
                "bytes_full",
                "algos",
                "endpoints",
                "endpoints_full",
                "failed_cables",
                "failed_cables_full",
                "draws",
                "draws_full",
            ],
        )?;
        unknown_key_check(output, &["style", "title", "note"])?;

        // [scenario]
        let name = want_str(scenario, "name")?
            .ok_or_else(|| SpecError::at(scenario.line, "missing `name` in [scenario]"))?;
        if name.is_empty()
            || !name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
        {
            return Err(SpecError::at(
                scenario.line,
                format!("`name` must be an identifier, got {name:?}"),
            ));
        }
        let engine = want_enum(scenario, "engine", |s| match s {
            "both" => Ok(EngineSel::Both),
            other => other
                .parse::<EngineKind>()
                .map(EngineSel::One)
                .map_err(|_| format!("unknown engine {other:?} (expected packet, flow, both)")),
        })?
        .unwrap_or(EngineSel::One(EngineKind::Flow));
        let window = want_u64(scenario, "window")?.unwrap_or(2);
        let window = u32::try_from(window)
            .map_err(|_| SpecError::at(scenario.line, format!("`window` too large: {window}")))?;
        let seed = want_u64(scenario, "seed")?.unwrap_or(DEFAULT_SEED);

        // [topology]
        let topologies = parse_topology_set(topology)?;
        let endpoints = want_u64(topology, "endpoints")?
            .ok_or_else(|| SpecError::at(topology.line, "missing `endpoints` in [topology]"))?
            as usize;
        let endpoints_full = parse_endpoints_full(topology)?.unwrap_or(endpoints);

        // [sweep]
        let bytes = want_u64_list(sweep_sec, "bytes")?
            .ok_or_else(|| SpecError::at(sweep_sec.line, "missing `bytes` axis in [sweep]"))?;
        let bytes_full = want_u64_list(sweep_sec, "bytes_full")?.unwrap_or_else(|| bytes.clone());
        let algos = match sweep_sec.get("algos") {
            None => Vec::new(),
            Some(e) => match &e.value {
                Value::StrList(names) if !names.is_empty() => names
                    .iter()
                    .map(|s| {
                        s.parse::<AllreduceAlgo>()
                            .map_err(|m| SpecError::at(e.line, format!("bad `algos`: {m}")))
                    })
                    .collect::<Result<Vec<_>, _>>()?,
                Value::StrList(_) => {
                    return Err(SpecError::at(e.line, "`algos` must not be empty"))
                }
                v => {
                    return Err(SpecError::at(
                        e.line,
                        format!("`algos` must be a string array, got {}", v.shape()),
                    ))
                }
            },
        };
        let endpoints_axis = want_u64_list(sweep_sec, "endpoints")?
            .map(|v| v.into_iter().map(|n| n as usize).collect::<Vec<_>>());
        let endpoints_axis_full = want_u64_list(sweep_sec, "endpoints_full")?
            .map(|v| v.into_iter().map(|n| n as usize).collect::<Vec<_>>());
        let failed_cables = want_u64_list(sweep_sec, "failed_cables")?
            .map(|v| v.into_iter().map(|n| n as usize).collect::<Vec<_>>())
            .unwrap_or_default();
        let failed_cables_full = want_u64_list(sweep_sec, "failed_cables_full")?
            .map(|v| v.into_iter().map(|n| n as usize).collect::<Vec<_>>())
            .unwrap_or_else(|| failed_cables.clone());
        let draws = want_u64(sweep_sec, "draws")?.unwrap_or(1) as usize;
        let draws_full = want_u64(sweep_sec, "draws_full")?.unwrap_or(draws as u64) as usize;

        // [failures] / [failures.schedule]
        let failures = parse_failures(&doc)?;

        // [output]
        let style = want_enum(output, "style", |s| match s {
            "grid" => Ok(Style::Grid),
            "distribution" => Ok(Style::Distribution),
            "grid_by_algo" => Ok(Style::GridByAlgo),
            "scaling_by_algo" => Ok(Style::ScalingByAlgo),
            "failure_blocks" => Ok(Style::FailureBlocks),
            other => Err(format!(
                "unknown style {other:?} (expected grid, distribution, grid_by_algo, \
                 scaling_by_algo, failure_blocks)"
            )),
        })?
        .ok_or_else(|| SpecError::at(output.line, "missing `style` in [output]"))?;
        let title = want_str(output, "title")?
            .ok_or_else(|| SpecError::at(output.line, "missing `title` in [output]"))?;
        let note = want_str(output, "note")?.unwrap_or_default();

        let spec = Scenario {
            name,
            engine,
            window,
            seed,
            topologies,
            endpoints,
            endpoints_full,
            sweep: Sweep {
                bytes,
                bytes_full,
                algos,
                endpoints: endpoints_axis,
                endpoints_full: endpoints_axis_full,
                failed_cables,
                failed_cables_full,
                draws,
                draws_full,
            },
            failures,
            style,
            title,
            note,
            src: src.to_string(),
        };
        spec.validate()?;
        Ok(spec)
    }

    /// Cross-field validation (everything the per-key parsing can't see).
    fn validate(&self) -> Result<(), SpecError> {
        let e = |msg: String| Err(SpecError::whole(msg));
        let style = self.style.spec_name();
        if self.engine == EngineSel::Both && self.style != Style::FailureBlocks {
            return e("engine \"both\" is only supported by the failure_blocks style".into());
        }
        if matches!(self.style, Style::GridByAlgo | Style::ScalingByAlgo) {
            if self.sweep.algos.is_empty() {
                return e(format!("style `{style}` needs an `algos` axis in [sweep]"));
            }
        } else if !self.sweep.algos.is_empty() {
            return e(format!(
                "`algos` only applies to the grid_by_algo and scaling_by_algo styles, not `{style}`"
            ));
        }
        if self.style == Style::FailureBlocks {
            if self.sweep.failed_cables.is_empty() {
                return e("style `failure_blocks` needs a `failed_cables` axis in [sweep]".into());
            }
            if self.sweep.draws == 0 || self.sweep.draws_full == 0 {
                return e("`draws` must be at least 1".into());
            }
        } else {
            if !self.sweep.failed_cables.is_empty() || !self.sweep.failed_cables_full.is_empty() {
                return e(format!(
                    "`failed_cables` only applies to the failure_blocks style, not `{style}`"
                ));
            }
            if self.failures != FailurePolicy::default() {
                return e(format!(
                    "[failures] only applies to the failure_blocks style, not `{style}`"
                ));
            }
        }
        if self.failures.modes.contains(&FailureMode::Midrun)
            && self.failures.times.fail_at_ps.is_empty()
        {
            return e(format!(
                "failure mode \"{}\" needs a [failures.schedule] with `fail_at_ps`",
                self.failures.mode_name()
            ));
        }
        if self.style == Style::ScalingByAlgo {
            if self.sweep.endpoints.is_none() {
                return e("scaling_by_algo scenarios need an `endpoints` axis in [sweep]".into());
            }
        } else if self.sweep.endpoints.is_some() || self.sweep.endpoints_full.is_some() {
            return e("a [sweep] `endpoints` axis requires the scaling_by_algo style".into());
        }
        if matches!(
            self.style,
            Style::Distribution | Style::ScalingByAlgo | Style::FailureBlocks
        ) && (self.sweep.bytes.len() != 1 || self.sweep.bytes_full.len() != 1)
        {
            return e(format!(
                "style `{style}` uses a single message size; give `bytes` exactly one entry"
            ));
        }
        if self.topologies.is_empty() {
            return e("the topology set must not be empty".into());
        }
        Ok(())
    }

    /// Resolve this spec against CLI overrides into a concrete [`Plan`].
    pub fn resolve(&self, ov: &Overrides) -> Plan {
        let s = &self.sweep;
        let seed = ov.seed.unwrap_or(self.seed);
        let bytes = if ov.full {
            s.bytes_full.clone()
        } else {
            s.bytes.clone()
        };
        let endpoints = if ov.full {
            self.endpoints_full
        } else {
            self.endpoints
        };
        let mut endpoints_axis = match (ov.full, &s.endpoints, &s.endpoints_full) {
            (true, quick, full) => full.clone().or_else(|| quick.clone()),
            (false, quick, _) => quick.clone(),
        }
        .unwrap_or_else(|| vec![endpoints]);
        let mut draws = if ov.full { s.draws_full } else { s.draws };
        match (self.style, ov.traces) {
            (Style::FailureBlocks, Some(t)) => draws = t.max(1),
            (Style::ScalingByAlgo, Some(t)) => {
                let cap = t.clamp(1, endpoints_axis.len());
                endpoints_axis.truncate(cap);
            }
            _ => {}
        }
        let failed_cables = if ov.full {
            s.failed_cables_full.clone()
        } else {
            s.failed_cables.clone()
        };
        let engines: Vec<EngineKind> = match (self.engine, ov.engine) {
            (_, Some(e)) => vec![e],
            (EngineSel::One(e), None) => vec![e],
            (EngineSel::Both, None) => EngineKind::all().to_vec(),
        };
        let title = substitute(&self.title, endpoints, engines[0], bytes[0], draws);
        let mut plan = Plan {
            name: self.name.clone(),
            style: self.style,
            title,
            note: self.note.clone(),
            topologies: self.topologies.clone(),
            engines,
            endpoints,
            bytes,
            algos: s.algos.clone(),
            endpoints_axis,
            failed_cables,
            draws,
            failures: self.failures.clone(),
            seed,
            window: self.window,
            spec_src: self.src.clone(),
            cells: Vec::new(),
        };
        plan.cells = expand_cells(&plan);
        plan
    }
}

/// Parse the optional `[failures]` + `[failures.schedule]` sections.
fn parse_failures(doc: &Doc) -> Result<FailurePolicy, SpecError> {
    let mut policy = FailurePolicy::default();
    if let Some(sec) = doc.section("failures") {
        unknown_key_check(sec, &["mode", "retransmit"])?;
        if let Some(modes) = want_enum(sec, "mode", |s| match s {
            "frozen" => Ok(vec![FailureMode::Frozen]),
            "midrun" => Ok(vec![FailureMode::Midrun]),
            "compare" => Ok(vec![FailureMode::Frozen, FailureMode::Midrun]),
            other => Err(format!(
                "unknown failure mode {other:?} (expected frozen, midrun, compare)"
            )),
        })? {
            policy.modes = modes;
        }
        if let Some(e) = sec.get("retransmit") {
            if !policy.modes.contains(&FailureMode::Midrun) {
                return Err(SpecError::at(
                    e.line,
                    "`retransmit` needs mode \"midrun\" or \"compare\": \
                     frozen failures drop no packets",
                ));
            }
        }
        if let Some(retransmit) = want_enum(sec, "retransmit", |s| s.parse())? {
            policy.retransmit = retransmit;
        }
    }
    if let Some(sec) = doc.section("failures.schedule") {
        unknown_key_check(sec, &["fail_at_ps", "repair_at_ps"])?;
        policy.times.fail_at_ps = want_u64_list(sec, "fail_at_ps")?.ok_or_else(|| {
            SpecError::at(sec.line, "missing `fail_at_ps` in [failures.schedule]")
        })?;
        policy.times.repair_at_ps = want_u64_list(sec, "repair_at_ps")?.unwrap_or_default();
        let t = &policy.times;
        if !t.repair_at_ps.is_empty() && t.repair_at_ps.len() != t.fail_at_ps.len() {
            return Err(SpecError::at(
                sec.line,
                "`repair_at_ps` must be empty or pair one-to-one with `fail_at_ps`",
            ));
        }
        for (i, (&f, &r)) in t.fail_at_ps.iter().zip(&t.repair_at_ps).enumerate() {
            if r <= f {
                return Err(SpecError::at(
                    sec.line,
                    format!("repair_at_ps[{i}] = {r} must come after fail_at_ps[{i}] = {f}"),
                ));
            }
        }
    }
    Ok(policy)
}

fn require_section<'d>(doc: &'d Doc, name: &str) -> Result<&'d Section, SpecError> {
    doc.section(name)
        .ok_or_else(|| SpecError::whole(format!("missing required section [{name}]")))
}

fn parse_topology_set(sec: &Section) -> Result<Vec<TopologyChoice>, SpecError> {
    let Some(e) = sec.get("set") else {
        return Err(SpecError::at(sec.line, "missing `set` in [topology]"));
    };
    match &e.value {
        Value::Str(s) if s == "all" => Ok(TopologyChoice::all().to_vec()),
        Value::Str(s) => Err(SpecError::at(
            e.line,
            format!("`set` must be \"all\" or a list of topology names, got {s:?}"),
        )),
        Value::StrList(names) if !names.is_empty() => names
            .iter()
            .map(|s| {
                s.parse::<TopologyChoice>()
                    .map_err(|m| SpecError::at(e.line, format!("bad `set`: {m}")))
            })
            .collect(),
        Value::StrList(_) => Err(SpecError::at(e.line, "`set` must not be empty")),
        v => Err(SpecError::at(
            e.line,
            format!("`set` must be \"all\" or a string array, got {}", v.shape()),
        )),
    }
}

/// `endpoints_full` accepts an integer or the `"small"` keyword (the
/// paper-scale build; equivalent to [`PAPER_SCALE`]).
fn parse_endpoints_full(sec: &Section) -> Result<Option<usize>, SpecError> {
    match sec.get("endpoints_full") {
        None => Ok(None),
        Some(e) => match &e.value {
            Value::Int(i) if *i > 0 => Ok(Some(*i as usize)),
            Value::Str(s) if s == "small" => Ok(Some(PAPER_SCALE)),
            v => Err(SpecError::at(
                e.line,
                format!(
                    "`endpoints_full` must be a positive integer or \"small\", got {}",
                    v.shape()
                ),
            )),
        },
    }
}

/// Substitute the `{n}` / `{engine}` / `{bytes}` / `{draws}` title
/// placeholders.
fn substitute(template: &str, n: usize, engine: EngineKind, bytes: u64, draws: usize) -> String {
    template
        .replace("{n}", &n.to_string())
        .replace("{engine}", engine.as_str())
        .replace("{bytes}", &crate::render::fmt_bytes(bytes))
        .replace("{draws}", &draws.to_string())
}

/// Expand the plan's axes into cells, in the exact nesting order each
/// style's renderer walks (so `cells[i]` is the i-th thing printed).
fn expand_cells(plan: &Plan) -> Vec<CellSpec> {
    let mut cells = Vec::new();
    let mut push = |topology, engine, endpoints, bytes, kind| {
        let index = cells.len();
        cells.push(CellSpec {
            index,
            topology,
            engine,
            endpoints,
            bytes,
            window: plan.window,
            seed: plan.seed,
            kind,
        });
    };
    let engine = plan.engines[0];
    match plan.style {
        Style::Grid => {
            for &t in &plan.topologies {
                for &b in &plan.bytes {
                    push(t, engine, plan.endpoints, b, CellKind::Alltoall);
                }
            }
        }
        Style::Distribution => {
            for &t in &plan.topologies {
                push(
                    t,
                    engine,
                    plan.endpoints,
                    plan.bytes[0],
                    CellKind::Permutation {
                        rounds: plan.window,
                    },
                );
            }
        }
        Style::GridByAlgo => {
            for &algo in &plan.algos {
                for &t in &plan.topologies {
                    for &b in &plan.bytes {
                        push(t, engine, plan.endpoints, b, CellKind::Allreduce { algo });
                    }
                }
            }
        }
        Style::ScalingByAlgo => {
            for &algo in &plan.algos {
                for &t in &plan.topologies {
                    for &n in &plan.endpoints_axis {
                        push(t, engine, n, plan.bytes[0], CellKind::Allreduce { algo });
                    }
                }
            }
        }
        Style::FailureBlocks => {
            for &t in &plan.topologies {
                for &f in &plan.failed_cables {
                    for &e in &plan.engines {
                        for &mode in &plan.failures.modes {
                            for d in 0..plan.draws {
                                let kind = match mode {
                                    FailureMode::Frozen => CellKind::FailedAlltoall {
                                        failures: f,
                                        draw: d,
                                    },
                                    FailureMode::Midrun => CellKind::MidrunAlltoall {
                                        failures: f,
                                        draw: d,
                                        retransmit: plan.failures.retransmit,
                                        times: plan.failures.times.clone(),
                                    },
                                };
                                push(t, e, plan.endpoints, plan.bytes[0], kind);
                            }
                        }
                    }
                }
            }
        }
    }
    cells
}

#[cfg(test)]
mod tests {
    use super::*;

    const MINI: &str = r#"
[scenario]
name = "mini"
engine = "flow"

[topology]
set = ["hx2mesh"]
endpoints = 16

[sweep]
bytes = [8192, 16384]

[output]
style = "grid"
title = "mini ({n} endpoints, {engine} engine)"
note = "n."
"#;

    #[test]
    fn parses_and_resolves_the_minimal_spec() {
        let s = Scenario::parse(MINI).unwrap();
        assert_eq!(s.name, "mini");
        assert_eq!(s.seed, DEFAULT_SEED);
        assert_eq!(s.endpoints_full, 16, "endpoints_full defaults to endpoints");
        let plan = s.resolve(&Overrides::default());
        assert_eq!(plan.cells.len(), 2);
        assert_eq!(plan.title, "mini (16 endpoints, flow engine)");
        assert_eq!(plan.cells[1].bytes, 16384);
        assert_eq!(plan.cells[1].kind, CellKind::Alltoall);
    }

    #[test]
    fn overrides_pick_engine_seed_and_full_axes() {
        let s = Scenario::parse(MINI).unwrap();
        let plan = s.resolve(&Overrides {
            full: true,
            seed: Some(7),
            engine: Some(EngineKind::Packet),
            traces: None,
        });
        assert_eq!(plan.seed, 7);
        assert_eq!(plan.engines, vec![EngineKind::Packet]);
        assert_eq!(
            plan.bytes,
            vec![8192, 16384],
            "bytes_full defaults to bytes"
        );
        assert_eq!(plan.title, "mini (16 endpoints, packet engine)");
    }

    #[test]
    fn both_engines_only_for_failure_blocks() {
        let bad = MINI.replace("engine = \"flow\"", "engine = \"both\"");
        let err = Scenario::parse(&bad).unwrap_err();
        assert!(err.msg.contains("failure_blocks"), "{err}");
    }

    const MIDRUN: &str = r#"
[scenario]
name = "midrun"
engine = "flow"

[topology]
set = ["torus"]
endpoints = 16

[sweep]
bytes = [8192]
failed_cables = [0, 1]
draws = 2

[failures]
mode = "compare"

[failures.schedule]
fail_at_ps = [1000000]
repair_at_ps = [9000000]

[output]
style = "failure_blocks"
title = "midrun"
"#;

    #[test]
    fn midrun_failures_parse_and_expand() {
        let s = Scenario::parse(MIDRUN).unwrap();
        assert_eq!(
            s.failures.modes,
            vec![FailureMode::Frozen, FailureMode::Midrun]
        );
        assert_eq!(s.failures.times.fail_at_ps, vec![1_000_000]);
        assert_eq!(s.failures.times.repair_at_ps, vec![9_000_000]);
        let plan = s.resolve(&Overrides::default());
        // topologies(1) x failed(2) x engines(1) x modes(2) x draws(2)
        assert_eq!(plan.cells.len(), 8);
        assert_eq!(
            plan.cells[2].kind,
            CellKind::MidrunAlltoall {
                failures: 0,
                draw: 0,
                retransmit: RetransmitPolicy::Timeout,
                times: s.failures.times.clone(),
            }
        );
        assert_eq!(
            plan.cells[0].kind,
            CellKind::FailedAlltoall {
                failures: 0,
                draw: 0
            }
        );
        let d_frozen = plan.cells[4].descriptor();
        let d_mid = plan.cells[6].descriptor();
        assert!(d_frozen.contains("failed_alltoall:f=1"), "{d_frozen}");
        assert!(d_mid.contains("midrun_alltoall:f=1"), "{d_mid}");
        assert!(d_mid.contains("retransmit=timeout"), "{d_mid}");
        assert!(d_mid.contains("fail=1000000"), "{d_mid}");
        assert_ne!(d_frozen, d_mid);
    }

    const SCALING: &str = r#"
[scenario]
name = "scaling"

[topology]
set = ["hx2mesh"]
endpoints = 16

[sweep]
bytes = [8192]
algos = ["rings"]
endpoints = [16, 64]

[output]
style = "scaling_by_algo"
title = "scaling"
"#;

    /// `--traces N` means what the style says: draws for failure blocks,
    /// a cluster-size cap for scaling grids, nothing for the rest.
    #[test]
    fn traces_override_follows_the_style() {
        let one = Overrides {
            traces: Some(1),
            ..Overrides::default()
        };
        let failures = Scenario::parse(MIDRUN).unwrap();
        assert_eq!(failures.resolve(&Overrides::default()).draws, 2);
        let plan = failures.resolve(&one);
        assert_eq!(plan.draws, 1);
        // topologies(1) x failed(2) x engines(1) x modes(2) x draws(1)
        assert_eq!(plan.cells.len(), 4);

        let scaling = Scenario::parse(SCALING).unwrap();
        assert_eq!(
            scaling.resolve(&Overrides::default()).endpoints_axis,
            vec![16, 64]
        );
        let plan = scaling.resolve(&one);
        assert_eq!(plan.endpoints_axis, vec![16]);
        assert_eq!(plan.cells.len(), 1);

        let grid = Scenario::parse(MINI).unwrap();
        let (with, without) = (grid.resolve(&one), grid.resolve(&Overrides::default()));
        assert_eq!(with.cells, without.cells);
        assert_eq!(with.title, without.title);
        assert_eq!(with.draws, without.draws);
        assert_eq!(with.endpoints_axis, without.endpoints_axis);
    }

    #[test]
    fn failure_policy_misuse_is_rejected() {
        // [failures] outside the failure_blocks style.
        let bad = format!("{MINI}\n[failures]\nmode = \"midrun\"\n");
        let err = Scenario::parse(&bad).unwrap_err();
        assert!(
            err.msg
                .contains("[failures] only applies to the failure_blocks style"),
            "{err}"
        );
        // midrun mode without a schedule.
        let bad = MIDRUN
            .replace("[failures.schedule]", "")
            .replace("fail_at_ps = [1000000]", "")
            .replace("repair_at_ps = [9000000]", "");
        let err = Scenario::parse(&bad).unwrap_err();
        assert!(err.msg.contains("needs a [failures.schedule]"), "{err}");
        // repair not after fail.
        let bad = MIDRUN.replace("repair_at_ps = [9000000]", "repair_at_ps = [1000000]");
        let err = Scenario::parse(&bad).unwrap_err();
        assert!(err.msg.contains("must come after"), "{err}");
        // ragged pairing.
        let bad = MIDRUN.replace(
            "repair_at_ps = [9000000]",
            "repair_at_ps = [9000000, 9000001]",
        );
        let err = Scenario::parse(&bad).unwrap_err();
        assert!(err.msg.contains("one-to-one"), "{err}");
    }

    #[test]
    fn descriptor_is_stable_and_distinct() {
        let s = Scenario::parse(MINI).unwrap();
        let plan = s.resolve(&Overrides::default());
        let d0 = plan.cells[0].descriptor();
        assert_eq!(
            d0,
            "topo=hx2mesh;engine=flow;n=16;bytes=8192;window=2;seed=12648430;kind=alltoall"
        );
        assert_ne!(d0, plan.cells[1].descriptor());
    }
}
