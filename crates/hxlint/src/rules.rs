//! The rule set, v1.
//!
//! Rules are token-sequence matchers — see the module docs in
//! [`crate::lexer`] for what the lexer guarantees. Scoping is by crate
//! and target kind (`FileCx`), with `#[cfg(test)]` / `#[test]` regions
//! excluded where a rule only covers shipped code.

use crate::lexer::{Tok, Token};
use crate::{FileCx, FileKind};

/// The crates whose in-memory state feeds simulation output. Any
/// hash-ordered iteration here can leak `RandomState` into results —
/// exactly the bug class that nearly sank PR 5's byte-identical-at-any-
/// thread-count guarantee twice (`BoardMesh::placements`, `defragment()`).
pub const SIM_STATE_CRATES: &[&str] = &[
    "hxnet",
    "hxsim",
    "hxalloc",
    "hxcluster",
    "hxcollect",
    "hxserve",
    "hxtelemetry",
];

/// One catalog entry, also rendered by `--list-rules` and the README.
pub struct RuleInfo {
    pub code: &'static str,
    pub summary: &'static str,
    pub scope: &'static str,
}

pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        code: "D001",
        summary: "no HashMap/HashSet in sim-state crates: hash iteration order is per-process \
                  (RandomState) and leaks into simulation state; use BTreeMap/BTreeSet",
        scope: "all code in sim-state crates (hxnet, hxsim, hxalloc, hxcluster, hxcollect, \
                hxserve, hxtelemetry)",
    },
    RuleInfo {
        code: "D002",
        summary: "no ambient entropy, wall-clock or process environment in library code \
                  (thread_rng, RandomState, Instant::now, SystemTime::now, std::env::{var, var_os, \
                  vars, vars_os, set_var, remove_var}); randomness must thread from a CLI seed and \
                  configuration arrive as an explicit value",
        scope: "library (non-bin, non-test, non-bench) code of every crate",
    },
    RuleInfo {
        code: "D003",
        summary: "no float reduction directly off a parallel iterator (par_iter ... sum/fold/\
                  reduce): reassemble in input-index order (collect, then reduce sequentially)",
        scope: "all code, including bins and tests",
    },
    RuleInfo {
        code: "P001",
        summary: "no unwrap/expect/panic! in library non-test code without a waiver naming the \
                  invariant that rules the panic out",
        scope: "library (non-bin, non-test, non-bench) code of every crate",
    },
];

/// Waiver-system diagnostics (not themselves waivable).
pub const WAIVER_RULES: &[RuleInfo] = &[
    RuleInfo {
        code: "W001",
        summary: "unused waiver: no finding of the waived rule on the covered line",
        scope: "everywhere a waiver comment appears",
    },
    RuleInfo {
        code: "W002",
        summary: "waiver without a reason: every waiver must say why the finding is safe",
        scope: "everywhere a waiver comment appears",
    },
    RuleInfo {
        code: "W003",
        summary: "malformed waiver or unknown rule code in a waiver",
        scope: "everywhere a waiver comment appears",
    },
];

pub fn is_lintable_rule(code: &str) -> bool {
    RULES.iter().any(|r| r.code == code)
}

pub(crate) struct RawFinding {
    pub rule: &'static str,
    pub line: u32,
    pub col: u32,
    pub message: String,
}

fn finding(rule: &'static str, t: &Token, message: String) -> RawFinding {
    RawFinding {
        rule,
        line: t.line,
        col: t.col,
        message,
    }
}

/// The `std::env` functions that read or write the process environment
/// (D002). `args`, `temp_dir` and `current_dir` stay legal.
const ENV_ACCESS: &[&str] = &["var", "var_os", "vars", "vars_os", "set_var", "remove_var"];

/// `toks[i]` starts the path segment sequence `a :: b`?
fn path_seq(toks: &[Token], i: usize, b: &str) -> bool {
    toks.len() > i + 3
        && toks[i + 1].is_punct(':')
        && toks[i + 2].is_punct(':')
        && toks[i + 3].is_ident(b)
}

fn prev_code_tok(toks: &[Token], i: usize) -> Option<&Token> {
    toks[..i]
        .iter()
        .rev()
        .find(|t| !matches!(t.tok, Tok::LineComment(_)))
}

fn next_code_tok(toks: &[Token], i: usize) -> Option<&Token> {
    toks[i + 1..]
        .iter()
        .find(|t| !matches!(t.tok, Tok::LineComment(_)))
}

/// Run every rule over one file's token stream. `in_test[i]` marks tokens
/// inside `#[cfg(test)]` / `#[test]` regions.
pub(crate) fn scan(toks: &[Token], in_test: &[bool], cx: &FileCx) -> Vec<RawFinding> {
    let sim_state = SIM_STATE_CRATES.contains(&cx.crate_name.as_str());
    let lib_code = cx.kind == FileKind::Lib;
    let mut out = Vec::new();
    // D003 state: saw a parallel-iterator adapter since the last `;`.
    // Statement-local by construction; a `;` inside a closure body also
    // resets it, so the rule is a heuristic that can miss reductions
    // buried in multi-statement closures — never a false positive on
    // sequential chains, which is the right trade-off for a gate.
    let mut par_chain = false;
    for (i, t) in toks.iter().enumerate() {
        let Tok::Ident(id) = &t.tok else {
            if t.is_punct(';') {
                par_chain = false;
            }
            continue;
        };
        let tested = in_test.get(i).copied().unwrap_or(false);
        match id.as_str() {
            "HashMap" | "HashSet" if sim_state => {
                out.push(finding(
                    "D001",
                    t,
                    format!(
                        "`{id}` in sim-state crate `{}`: hash iteration order is per-process \
                         RandomState and can leak into simulation state; use `BTree{}` or waive \
                         with the access pattern that makes order irrelevant",
                        cx.crate_name,
                        if id == "HashMap" { "Map" } else { "Set" },
                    ),
                ));
            }
            "thread_rng" | "RandomState" if lib_code && !tested => {
                out.push(finding(
                    "D002",
                    t,
                    format!(
                        "`{id}` is ambient entropy in library code: all randomness must thread \
                         from a CLI seed so runs reproduce byte-identically"
                    ),
                ));
            }
            "Instant" | "SystemTime" if lib_code && !tested && path_seq(toks, i, "now") => {
                out.push(finding(
                    "D002",
                    t,
                    format!(
                        "`{id}::now()` is ambient wall-clock in library code: simulated time \
                         must come from the event loop, wall-clock belongs in bins"
                    ),
                ));
            }
            "env"
                if lib_code
                    && !tested
                    && toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
                    && toks.get(i + 2).is_some_and(|t| t.is_punct(':')) =>
            {
                // `env::var(..)`, or a grouped import `env::{var, ..}`.
                let rest = &toks[i + 3..];
                let named = if rest.first().is_some_and(|t| t.is_punct('{')) {
                    let end = rest.iter().position(|t| t.is_punct('}'));
                    &rest[..end.unwrap_or(rest.len())]
                } else {
                    &rest[..rest.len().min(1)]
                };
                for f in named {
                    let Tok::Ident(name) = &f.tok else { continue };
                    if ENV_ACCESS.contains(&name.as_str()) {
                        out.push(finding(
                            "D002",
                            f,
                            format!(
                                "`env::{name}` touches the process environment in library \
                                 code: configuration must arrive as an explicit value (flag or \
                                 spec); only a binary may read or set environment variables"
                            ),
                        ));
                    }
                }
            }
            "par_iter" | "into_par_iter" | "par_bridge" => par_chain = true,
            "sum" | "fold" | "reduce"
                if par_chain && prev_code_tok(toks, i).is_some_and(|p| p.is_punct('.')) =>
            {
                out.push(finding(
                    "D003",
                    t,
                    format!(
                        "`.{id}(..)` fed by a parallel iterator in the same statement: \
                         reduction order follows thread scheduling; `collect()` into index \
                         order first, then reduce sequentially"
                    ),
                ));
            }
            "unwrap" | "expect"
                if lib_code
                    && !tested
                    && prev_code_tok(toks, i).is_some_and(|p| p.is_punct('.'))
                    && next_code_tok(toks, i).is_some_and(|n| n.is_punct('(')) =>
            {
                out.push(finding(
                    "P001",
                    t,
                    format!(
                        "`.{id}(..)` in library non-test code: return an error or waive with \
                         the invariant that rules the panic out"
                    ),
                ));
            }
            "panic"
                if lib_code
                    && !tested
                    && next_code_tok(toks, i).is_some_and(|n| n.is_punct('!')) =>
            {
                out.push(finding(
                    "P001",
                    t,
                    "`panic!` in library non-test code: return an error or waive with the \
                     invariant that rules the panic out"
                        .to_string(),
                ));
            }
            _ => {}
        }
    }
    out
}
