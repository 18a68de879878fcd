//! The fixture corpus and the workspace self-check: every bad fixture fires
//! exactly its rule, the clean fixture fires nothing, the real workspace
//! has zero findings, and the JSON report is byte-identical across runs.

use std::path::{Path, PathBuf};
use wakeup_lint::{lint_file, lint_workspace, report};

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn workspace() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/lint sits two levels below the workspace root")
        .to_path_buf()
}

#[test]
fn each_bad_fixture_fires_exactly_its_rule() {
    // (fixture file, virtual workspace path it pretends to live at, rule)
    let cases = [
        (
            "default_hash_state.rs",
            "crates/mac-sim/src/bad.rs",
            "default-hash-state",
        ),
        ("wall_clock.rs", "crates/core/src/bad.rs", "wall-clock"),
        (
            "ambient_rng.rs",
            "crates/selectors/src/bad.rs",
            "ambient-rng",
        ),
        (
            "unsafe_needs_safety.rs",
            "crates/mac-sim/src/bad.rs",
            "unsafe-needs-safety",
        ),
        (
            "sink_discipline.rs",
            "crates/core/src/bad.rs",
            "sink-discipline",
        ),
        (
            "env_discipline.rs",
            "crates/core/src/bad.rs",
            "env-discipline",
        ),
        (
            "panic_free_hot_path.rs",
            "crates/mac-sim/src/engine.rs",
            "panic-free-hot-path",
        ),
        ("lint_pragma.rs", "crates/core/src/bad.rs", "lint-pragma"),
    ];
    for (file, rel, rule) in cases {
        let out = lint_file(rel, &fixture(file));
        assert!(
            !out.findings.is_empty(),
            "{file}: expected at least one {rule} finding"
        );
        for f in &out.findings {
            assert_eq!(
                f.rule, rule,
                "{file}: stray finding {f:?} — each fixture must fire exactly one rule"
            );
        }
    }
}

#[test]
fn clean_fixture_fires_nothing_and_counts_its_suppression() {
    let out = lint_file("crates/core/src/clean.rs", &fixture("clean.rs"));
    assert!(out.findings.is_empty(), "unexpected: {:?}", out.findings);
    assert_eq!(out.suppressed, 1, "the reasoned pragma suppresses one site");
}

#[test]
fn workspace_has_zero_deny_findings() {
    let report = lint_workspace(&workspace()).expect("lint workspace");
    assert!(
        report.findings.is_empty(),
        "the tree must lint clean:\n{:#?}",
        report.findings
    );
}

#[test]
fn workspace_json_report_is_byte_identical_across_runs() {
    let root = workspace();
    let a = report::render_json(&lint_workspace(&root).expect("first run"));
    let b = report::render_json(&lint_workspace(&root).expect("second run"));
    assert!(!a.is_empty());
    assert_eq!(a, b, "lint output must be byte-deterministic");
}
