//! # wakeup-lint — in-tree determinism analyzer
//!
//! The workspace's reproducibility claims (bit-identical transcripts,
//! byte-stable JSON artifacts, seeded randomness everywhere) are invariants
//! the compiler cannot check. This crate checks them statically: a
//! dependency-free Rust lexer plus a small set of workspace-specific rules
//! that walk every source file and report violations as deterministic
//! JSON Lines / CSV / table output, gated in CI.
//!
//! The rules ([`rules::RULES`]) are `default-hash-state`, `wall-clock`,
//! `ambient-rng`, `unsafe-needs-safety`, `sink-discipline`,
//! `env-discipline`, `panic-free-hot-path` and `lint-pragma`. Any finding
//! fails the gate. Facts with a single source elsewhere are not linted:
//! the crate DAG is Cargo's (an undeclared crate does not resolve), and the
//! trace schema is `mac_sim::tracer`'s (`wakeup report` rejects unknown
//! kinds, and a root test pins the README table to it).
//!
//! Individual sites are suppressed with a reasoned pragma on the same or
//! preceding line:
//!
//! ```text
//! // lint: allow(default-hash-state) — lookup-only map, never iterated
//! ```
//!
//! Reason-less or unknown-rule pragmas are themselves `lint-pragma`
//! findings, so suppressions stay auditable.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod lexer;
pub mod policy;
pub mod report;
pub mod rules;
pub mod source;
pub mod walk;

use rules::{FileOutcome, Finding};
use std::io;
use std::path::{Path, PathBuf};

/// The result of linting a whole workspace.
#[derive(Clone, Debug, Default)]
pub struct LintReport {
    /// All surviving findings, sorted by `(file, line, rule)`.
    pub findings: Vec<Finding>,
    /// Number of source files scanned.
    pub files: u64,
    /// Findings suppressed by reasoned pragmas.
    pub suppressed: u64,
}

/// Lint a single file given its workspace-relative path and contents.
/// The path decides which policies apply — fixture tests lean on this to
/// present a snippet as if it lived anywhere in the tree.
pub fn lint_file(rel: &str, src: &str) -> FileOutcome {
    let class = policy::classify(rel);
    let sf = source::SourceFile::parse(src);
    rules::lint_tokens(rel, &class, &sf)
}

/// Lint every Rust source under `root`. Output order is fully
/// deterministic.
pub fn lint_workspace(root: &Path) -> io::Result<LintReport> {
    let files = walk::rust_sources(root)?;
    let mut report = LintReport {
        files: files.len() as u64,
        ..LintReport::default()
    };
    for rel in &files {
        let src = std::fs::read_to_string(root.join(rel))?;
        let outcome = lint_file(rel, &src);
        report.findings.extend(outcome.findings);
        report.suppressed += outcome.suppressed;
    }
    report
        .findings
        .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(report)
}

/// Locate the workspace root by walking up from the current directory to
/// the first `Cargo.toml` declaring `[workspace]`.
pub fn workspace_root() -> Option<PathBuf> {
    let cwd = std::env::current_dir().ok()?;
    for dir in cwd.ancestors() {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir.to_path_buf());
            }
        }
    }
    None
}
