//! Spec-layer fixtures, in the hxlint style: every `ok_*.toml` under
//! `tests/fixtures/` must parse and resolve to a runnable plan, every
//! `bad_*.toml` must be rejected with the error named in its first-line
//! `# expect-error:` annotation. The committed scenario specs under
//! `specs/` must parse too, so a spec that drifts from the parser (or
//! vice versa) fails here, not at figure time.

use hxserve::Scenario;
use std::path::PathBuf;

fn fixture_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn specs_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../specs")
}

fn toml_files(dir: &PathBuf, prefix: &str) -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|e| e.unwrap().path())
        .filter(|p| {
            let name = p.file_name().unwrap().to_str().unwrap();
            name.ends_with(".toml") && name.starts_with(prefix)
        })
        .map(|p| {
            (
                p.file_stem().unwrap().to_str().unwrap().to_string(),
                std::fs::read_to_string(&p).unwrap(),
            )
        })
        .collect();
    out.sort();
    out
}

#[test]
fn ok_fixtures_parse_and_resolve() {
    let fixtures = toml_files(&fixture_dir(), "ok_");
    assert!(fixtures.len() >= 3, "fixture set went missing");
    for (name, src) in fixtures {
        // Resolving with defaults must yield a runnable, non-empty plan.
        let plan = Scenario::parse(&src)
            .unwrap_or_else(|e| panic!("{name}: {e}"))
            .resolve(&hxserve::Overrides::default());
        assert!(!plan.cells.is_empty(), "{name}: resolved to zero cells");
    }
}

#[test]
fn bad_fixtures_are_rejected_with_the_annotated_error() {
    let fixtures = toml_files(&fixture_dir(), "bad_");
    assert!(fixtures.len() >= 5, "fixture set went missing");
    for (name, src) in fixtures {
        let first = src.lines().next().unwrap_or_default();
        let want = first
            .strip_prefix("# expect-error:")
            .unwrap_or_else(|| panic!("{name}: first line must be `# expect-error: ...`"))
            .trim();
        match Scenario::parse(&src) {
            Ok(_) => panic!("{name}: expected rejection ({want:?}), but the spec parsed"),
            Err(e) => {
                let msg = e.to_string();
                assert!(
                    msg.contains(want),
                    "{name}: error {msg:?} does not contain {want:?}"
                );
            }
        }
    }
}

#[test]
fn committed_specs_parse_and_match_their_file_names() {
    let specs = toml_files(&specs_dir(), "");
    assert!(
        specs.len() >= 5,
        "expected the five converted figure specs under specs/"
    );
    for (name, src) in specs {
        let spec = Scenario::parse(&src).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(spec.name, name, "spec name must match its file stem");
    }
}

/// The quick and full configurations of every committed spec expand to
/// plausible work queues (non-empty, full at least as large as quick),
/// and cell indices are dense.
#[test]
fn committed_specs_resolve_at_both_scales() {
    for (name, src) in toml_files(&specs_dir(), "") {
        let spec = Scenario::parse(&src).unwrap();
        let quick = spec.resolve(&hxserve::Overrides::default());
        let full = spec.resolve(&hxserve::Overrides {
            full: true,
            ..Default::default()
        });
        assert!(!quick.cells.is_empty(), "{name}: quick plan is empty");
        assert!(
            full.cells.len() >= quick.cells.len(),
            "{name}: full plan smaller than quick"
        );
        for (i, cell) in quick.cells.iter().enumerate() {
            assert_eq!(cell.index, i, "{name}: cell indices must be dense");
        }
    }
}
