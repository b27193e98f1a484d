//! `hxlint` — the workspace's first-party determinism-and-soundness lint.
//!
//! An offline, dependency-free static-analysis pass over the workspace's
//! `.rs` sources (hand-rolled lexer, same no-crates.io regime as
//! `vendor/`). It exists because the repo's headline guarantee — sweep
//! output byte-identical to sequential at any thread count — was nearly
//! sunk twice by `HashMap` iteration order leaking into simulation state,
//! each time found only by runtime bisection. The lint rejects that bug
//! class (and its neighbors: ambient entropy/wall-clock, scheduling-order
//! float reductions, panicking library paths) at check time.
//!
//! Rule catalog: see [`rules::RULES`] (`hxlint --list-rules` renders it).
//!
//! # Waivers
//!
//! A finding is silenced by a plain `//` comment naming the rule and a
//! reason:
//!
//! ```text
//! let cache: HashMap<K, V> = HashMap::new(); // hxlint: allow(D001) get/insert only, never iterated
//! ```
//!
//! A trailing waiver covers its own line; a waiver alone on a line covers
//! the next line that contains code. Waivers without a reason and waivers
//! that match no finding are themselves errors (`W001`–`W003`), so the
//! waiver set can never rot.
//!
//! # Enforcement points
//!
//! 1. `cargo run -p hxlint` — the standalone gate (`--format json` for
//!    machines);
//! 2. `cargo test -p hxlint` — `tests/workspace_clean.rs` runs the same
//!    pass, so a plain workspace `cargo test` enforces it;
//! 3. the dedicated `hxlint` CI job.

pub mod lexer;
pub mod rules;

use lexer::{Tok, Token};
use std::fmt;
use std::path::{Path, PathBuf};

/// How a file is compiled, which decides rule scope: `D002`/`P001` cover
/// `Lib` only (bins own their wall-clock and may panic on bad CLI input;
/// tests panic by design), `D001`/`D003` cover everything.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FileKind {
    Lib,
    Bin,
    Test,
    Bench,
    Example,
}

/// Lint context for one file.
#[derive(Clone, Debug)]
pub struct FileCx {
    /// Workspace crate the file belongs to (`hxnet`, …); the root crate's
    /// files are `hammingmesh-repro`.
    pub crate_name: String,
    pub kind: FileKind,
}

/// One diagnostic, with a span that points at the offending token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path.
    pub file: String,
    pub line: u32,
    pub col: u32,
    pub rule: String,
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}: {} {}",
            self.file, self.line, self.col, self.rule, self.message
        )
    }
}

/// A parsed `// hxlint: allow(RULE) reason` comment.
#[derive(Debug)]
struct Waiver {
    code: String,
    reason: String,
    /// Line of the comment itself (spans for W00x diagnostics).
    line: u32,
    col: u32,
    /// Line whose findings this waiver covers.
    target_line: u32,
    used: bool,
}

/// Mark every token inside a `#[cfg(test)]` / `#[test]` item. The scan is
/// attribute-driven: a test-ish attribute claims the next item, which
/// extends as far as [`item_end`] says.
fn test_regions(toks: &[Token]) -> Vec<bool> {
    let mut in_test = vec![false; toks.len()];
    let mut i = 0usize;
    let mut pending_test: Option<usize> = None; // index of the first test attr's `#`
    while i < toks.len() {
        if toks[i].is_punct('#') && i + 1 < toks.len() && toks[i + 1].is_punct('[') {
            let close = matching(toks, i + 1, '[', ']');
            let attr = &toks[i + 2..close.min(toks.len())];
            if is_test_attr(attr) {
                pending_test.get_or_insert(i);
            }
            i = close.saturating_add(1);
            continue;
        }
        if let Some(start) = pending_test {
            let end = item_end(toks, i);
            for flag in in_test.iter_mut().take(end + 1).skip(start) {
                *flag = true;
            }
            pending_test = None;
            i = end + 1;
            continue;
        }
        i += 1;
    }
    in_test
}

/// `#[test]` exactly, or a `cfg(...)` mentioning `test` without `not`.
fn is_test_attr(attr: &[Token]) -> bool {
    let has = |s: &str| attr.iter().any(|t| t.is_ident(s));
    (attr.len() == 1 && attr[0].is_ident("test")) || (has("cfg") && has("test") && !has("not"))
}

/// Index of the token closing the bracket opened at `open` (which must
/// hold `open_c`). Returns the last index when unbalanced.
fn matching(toks: &[Token], open: usize, open_c: char, close_c: char) -> usize {
    let mut depth = 0usize;
    for (j, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct(open_c) {
            depth += 1;
        } else if t.is_punct(close_c) {
            depth -= 1;
            if depth == 0 {
                return j;
            }
        }
    }
    toks.len().saturating_sub(1)
}

/// Keywords that open an item, or a statement ending in a block.
const ITEM_KEYWORDS: &[&str] = &[
    "async", "const", "enum", "extern", "fn", "for", "if", "impl", "let", "loop", "match", "mod",
    "static", "struct", "trait", "type", "union", "unsafe", "use", "while",
];

/// End index of the item starting at `i`. An item, a block, a macro
/// invocation, or a statement opening with one of [`ITEM_KEYWORDS`] ends
/// at the `}` matching its first body-level `{`, or at the first `;`
/// outside any nesting. Anything else is one element of a list — a struct
/// field, a struct-literal field, an enum variant — or an expression
/// statement: it ends at its first `,` or `;` outside any nesting, or just
/// before the bracket closing the enclosing list.
fn item_end(toks: &[Token], i: usize) -> usize {
    let mut depth = 0usize;
    if opens_item(toks, i) {
        for (j, t) in toks.iter().enumerate().skip(i) {
            match t.tok {
                Tok::Punct('(') | Tok::Punct('[') => depth += 1,
                Tok::Punct(')') | Tok::Punct(']') => depth = depth.saturating_sub(1),
                Tok::Punct('{') if depth == 0 => return matching(toks, j, '{', '}'),
                Tok::Punct(';') if depth == 0 => return j,
                _ => {}
            }
        }
    } else {
        for (j, t) in toks.iter().enumerate().skip(i) {
            match t.tok {
                Tok::Punct('(') | Tok::Punct('[') | Tok::Punct('{') => depth += 1,
                Tok::Punct(')') | Tok::Punct(']') | Tok::Punct('}') if depth == 0 => {
                    return j.saturating_sub(1).max(i);
                }
                Tok::Punct(')') | Tok::Punct(']') | Tok::Punct('}') => depth -= 1,
                Tok::Punct(',') | Tok::Punct(';') if depth == 0 => return j,
                _ => {}
            }
        }
    }
    toks.len().saturating_sub(1)
}

/// Whether the tokens from `i` on, past comments and a `pub` or
/// `pub(..)` visibility, open a block or a macro invocation, or start
/// with an item keyword.
fn opens_item(toks: &[Token], i: usize) -> bool {
    let mut j = i;
    while toks
        .get(j)
        .is_some_and(|t| matches!(t.tok, Tok::LineComment(_)))
    {
        j += 1;
    }
    if toks.get(j).is_some_and(|t| t.is_ident("pub")) {
        j += 1;
        if toks.get(j).is_some_and(|t| t.is_punct('(')) {
            j = matching(toks, j, '(', ')') + 1;
        }
    }
    toks.get(j).is_some_and(|t| {
        t.is_punct('{')
            || ITEM_KEYWORDS.iter().any(|k| t.is_ident(k))
            || toks.get(j + 1).is_some_and(|n| n.is_punct('!'))
    })
}

/// Extract waivers from the token stream's line comments.
fn parse_waivers(toks: &[Token], findings: &mut Vec<Finding>, file: &str) -> Vec<Waiver> {
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        let Tok::LineComment(text) = &t.tok else {
            continue;
        };
        let trimmed = text.trim_start();
        let Some(rest) = trimmed.strip_prefix("hxlint:") else {
            continue; // doc comments (`///`) keep their marker and fall out here
        };
        let rest = rest.trim_start();
        let parsed = rest.strip_prefix("allow(").and_then(|r| {
            let (code, reason) = r.split_once(')')?;
            let code = code.trim();
            let well_formed = code.len() == 4
                && code.starts_with(|c: char| c.is_ascii_uppercase())
                && code[1..].chars().all(|c| c.is_ascii_digit());
            well_formed.then(|| (code.to_string(), reason.trim().to_string()))
        });
        let Some((code, reason)) = parsed else {
            findings.push(Finding {
                file: file.to_string(),
                line: t.line,
                col: t.col,
                rule: "W003".into(),
                message: format!(
                    "malformed waiver `//{text}`: expected `// hxlint: allow(RULE) reason`"
                ),
            });
            continue;
        };
        if !rules::is_lintable_rule(&code) {
            findings.push(Finding {
                file: file.to_string(),
                line: t.line,
                col: t.col,
                rule: "W003".into(),
                message: format!("waiver names unknown rule `{code}`"),
            });
            continue;
        }
        if reason.is_empty() {
            findings.push(Finding {
                file: file.to_string(),
                line: t.line,
                col: t.col,
                rule: "W002".into(),
                message: format!(
                    "waiver for `{code}` carries no reason: say why the finding is safe"
                ),
            });
            continue;
        }
        // Trailing comment covers its own line; a standalone one covers
        // the next line holding code.
        let trailing = toks[..i]
            .iter()
            .any(|p| p.line == t.line && !matches!(p.tok, Tok::LineComment(_)));
        let target_line = if trailing {
            t.line
        } else {
            toks[i + 1..]
                .iter()
                .find(|n| !matches!(n.tok, Tok::LineComment(_)))
                .map(|n| n.line)
                .unwrap_or(t.line)
        };
        out.push(Waiver {
            code,
            reason,
            line: t.line,
            col: t.col,
            target_line,
            used: false,
        });
    }
    out
}

/// Lint one source file. Public so the self-test fixtures can drive the
/// exact production path with a synthetic [`FileCx`].
pub fn lint_source(file: &str, cx: &FileCx, src: &str) -> Vec<Finding> {
    let toks = lexer::lex(src);
    let in_test = test_regions(&toks);
    let raw = rules::scan(&toks, &in_test, cx);
    let mut findings = Vec::new();
    let mut waivers = parse_waivers(&toks, &mut findings, file);
    for f in raw {
        let waived = waivers
            .iter_mut()
            .find(|w| w.code == f.rule && w.target_line == f.line);
        match waived {
            Some(w) => w.used = true,
            None => findings.push(Finding {
                file: file.to_string(),
                line: f.line,
                col: f.col,
                rule: f.rule.to_string(),
                message: f.message,
            }),
        }
    }
    for w in &waivers {
        if !w.used {
            findings.push(Finding {
                file: file.to_string(),
                line: w.line,
                col: w.col,
                rule: "W001".into(),
                message: format!(
                    "unused waiver for `{}` (reason: {}): no such finding on line {} — \
                     delete it or move it to the offending line",
                    w.code, w.reason, w.target_line
                ),
            });
        }
    }
    findings.sort_by(|a, b| (a.line, a.col, &a.rule).cmp(&(b.line, b.col, &b.rule)));
    findings
}

/// Classify a workspace-relative path into its [`FileCx`].
/// `None` means out of scope (vendored shims, build outputs, fixtures).
pub fn classify(rel: &Path) -> Option<FileCx> {
    let parts: Vec<&str> = rel.iter().filter_map(|c| c.to_str()).collect();
    match *parts.first()? {
        "vendor" | "target" | ".git" => return None,
        _ => {}
    }
    if parts.contains(&"fixtures") {
        return None; // hxlint's own deliberately-broken test inputs
    }
    let (crate_name, rest) = if parts[0] == "crates" && parts.len() >= 3 {
        (parts[1].to_string(), &parts[2..])
    } else {
        ("hammingmesh-repro".to_string(), &parts[..])
    };
    let kind = match *rest.first()? {
        "tests" => FileKind::Test,
        "benches" => FileKind::Bench,
        "examples" => FileKind::Example,
        "src" if rest.contains(&"bin") || rest.last() == Some(&"main.rs") => FileKind::Bin,
        "src" => FileKind::Lib,
        _ => return None, // stray top-level .rs files are out of scope
    };
    Some(FileCx { crate_name, kind })
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let iter = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut entries: Vec<PathBuf> = iter
        .map(|e| e.map(|e| e.path()))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("{}: {e}", dir.display()))?;
    // Deterministic walk order — the linter holds itself to its own rules.
    entries.sort();
    for path in entries {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if matches!(name, "vendor" | "target" | ".git" | "fixtures") {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Lint every in-scope `.rs` file under the workspace root. Findings are
/// ordered by (file, line, col) — stable across machines and runs.
pub fn lint_workspace(root: &Path) -> Result<Vec<Finding>, String> {
    let mut files = Vec::new();
    collect_rs_files(root, &mut files)?;
    let mut findings = Vec::new();
    for path in files {
        let rel = path.strip_prefix(root).unwrap_or(&path);
        let Some(cx) = classify(rel) else {
            continue;
        };
        let src = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        findings.extend(lint_source(&rel.display().to_string(), &cx, &src));
    }
    Ok(findings)
}

/// Locate the workspace root: the nearest ancestor of `start` whose
/// `Cargo.toml` declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start);
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(body) = std::fs::read_to_string(&manifest) {
            if body.contains("[workspace]") {
                return Some(d.to_path_buf());
            }
        }
        dir = d.parent();
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cx(crate_name: &str, kind: FileKind) -> FileCx {
        FileCx {
            crate_name: crate_name.into(),
            kind,
        }
    }

    #[test]
    fn test_regions_cover_cfg_test_mods_and_test_fns() {
        let src = r#"
            fn lib_code() { x.unwrap(); }
            #[cfg(test)]
            mod tests {
                fn helper() { y.unwrap(); }
            }
            #[test]
            fn standalone() { z.unwrap(); }
        "#;
        let f = lint_source("f.rs", &cx("hxnet", FileKind::Lib), src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 2);
        assert_eq!(f[0].rule, "P001");
    }

    /// A `#[cfg(test)]` struct field is test code up to its comma; the
    /// rest of the struct and the `impl` after it are library code.
    #[test]
    fn cfg_test_struct_field_ends_at_its_comma() {
        let src = r#"
            struct Engine {
                #[cfg(test)]
                probe: Probe,
                live: u32
            }
            impl Engine {
                fn push(&self) { x.unwrap(); }
            }
        "#;
        let f = lint_source("f.rs", &cx("hxsim", FileKind::Lib), src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!((f[0].line, f[0].rule.as_str()), (8, "P001"));
    }

    /// Struct-literal fields, the last one closed by the literal's `}`.
    #[test]
    fn cfg_test_struct_literal_fields_end_at_their_comma_or_brace() {
        let src = r#"
            fn new() -> Engine {
                let e = Engine {
                    #[cfg(test)]
                    probe: Probe::new(a.unwrap()),
                    live: b.unwrap(),
                    #[cfg(test)]
                    last: Probe::default()
                };
                c.unwrap();
                e
            }
        "#;
        let f = lint_source("f.rs", &cx("hxsim", FileKind::Lib), src);
        let lines: Vec<u32> = f.iter().map(|f| f.line).collect();
        assert_eq!(lines, [6, 10], "{f:?}");
    }

    /// Enum variants: unit, tuple and struct-like.
    #[test]
    fn cfg_test_enum_variants_end_at_their_comma() {
        let src = r#"
            enum Ev {
                #[cfg(test)]
                Named { a: u32 },
                #[cfg(test)]
                Tuple(u32),
                #[cfg(test)]
                Probe,
                Live
            }
            fn f() { x.unwrap(); }
        "#;
        let f = lint_source("f.rs", &cx("hxsim", FileKind::Lib), src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 11);
    }

    /// Generic items and macro items keep their whole body: the commas
    /// between their parameters do not end them.
    #[test]
    fn cfg_test_generic_items_are_not_cut_at_their_commas() {
        let src = r#"
            #[cfg(test)]
            impl<A, B> Pair<A, B> {
                fn get(&self) { x.unwrap(); }
            }
            #[cfg(test)]
            pub(crate) fn f<T, U>(t: T, u: U) { y.unwrap(); }
            #[cfg(test)]
            macro_rules! m { ($a:expr, $b:expr) => { $a.unwrap() }; }
            fn live() { z.unwrap(); }
        "#;
        let f = lint_source("f.rs", &cx("hxsim", FileKind::Lib), src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 10);
    }

    #[test]
    fn cfg_not_test_is_live_code() {
        let src = "#[cfg(not(test))]\nfn live() { x.unwrap(); }";
        let f = lint_source("f.rs", &cx("hxnet", FileKind::Lib), src);
        assert_eq!(f.len(), 1, "{f:?}");
    }

    #[test]
    fn trailing_and_standalone_waivers() {
        let src = "use std::collections::HashMap; // hxlint: allow(D001) import for a waived map\n\
                   // hxlint: allow(D001) get/insert only, never iterated\n\
                   type T = HashMap<u32, u32>;\n";
        let f = lint_source("f.rs", &cx("hxcluster", FileKind::Lib), src);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn unused_waiver_is_an_error() {
        let src = "// hxlint: allow(D001) nothing here\nfn f() {}\n";
        let f = lint_source("f.rs", &cx("hxnet", FileKind::Lib), src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "W001");
    }

    #[test]
    fn waiver_without_reason_is_an_error_and_does_not_suppress() {
        let src = "type T = HashSet<u32>; // hxlint: allow(D001)\n";
        let f = lint_source("f.rs", &cx("hxnet", FileKind::Lib), src);
        let rules: Vec<&str> = f.iter().map(|f| f.rule.as_str()).collect();
        assert_eq!(rules, ["D001", "W002"], "{f:?}");
    }

    #[test]
    fn unknown_rule_waiver_is_an_error() {
        let src = "// hxlint: allow(D999) bogus\nfn f() {}\n";
        let f = lint_source("f.rs", &cx("hxnet", FileKind::Lib), src);
        assert_eq!(f[0].rule, "W003");
    }

    #[test]
    fn classify_scopes() {
        // Crate names are directory names (`bench`, not the package name
        // `hxbench`) — the sim-state list uses directory names too.
        let k = |p: &str| classify(Path::new(p)).map(|c| (c.crate_name, c.kind));
        assert_eq!(
            k("crates/hxnet/src/route.rs"),
            Some(("hxnet".into(), FileKind::Lib))
        );
        assert_eq!(
            k("crates/bench/src/bin/perf_smoke.rs"),
            Some(("bench".into(), FileKind::Bin))
        );
        assert_eq!(
            k("crates/bench/tests/determinism.rs"),
            Some(("bench".into(), FileKind::Test))
        );
        assert_eq!(
            k("tests/proptests.rs"),
            Some(("hammingmesh-repro".into(), FileKind::Test))
        );
        assert_eq!(
            k("src/lib.rs"),
            Some(("hammingmesh-repro".into(), FileKind::Lib))
        );
        assert_eq!(
            k("crates/hxlint/src/main.rs").map(|c| c.1),
            Some(FileKind::Bin)
        );
        // The scenario engine is sim-state: its cache and executor feed
        // simulation results, so D001 applies to all of crates/hxserve.
        let hxserve = k("crates/hxserve/src/exec.rs").unwrap();
        assert_eq!(hxserve, ("hxserve".into(), FileKind::Lib));
        assert!(crate::rules::SIM_STATE_CRATES.contains(&hxserve.0.as_str()));
        assert_eq!(
            k("crates/hxserve/src/main.rs"),
            Some(("hxserve".into(), FileKind::Bin))
        );
        assert!(classify(Path::new("vendor/rayon/src/lib.rs")).is_none());
        assert!(classify(Path::new("crates/hxlint/tests/fixtures/d001_bad.rs")).is_none());
        assert!(classify(Path::new("Cargo.toml")).is_none());
    }
}
