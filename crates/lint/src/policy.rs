//! The workspace policy: which crate a file belongs to and which tier it
//! sits in. This is data, not mechanism — the rule engine consults it.

/// Where in a crate a file lives — rules treat test-ish contexts (tests,
/// benches, examples) more leniently than library sources.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Ctx {
    /// `src/` library code — the strict tier.
    Src,
    /// `src/bin/` binary entry points (CLI surface: printing allowed).
    Bin,
    /// `tests/` integration tests.
    Tests,
    /// `benches/` micro-benchmarks (wall-clock is their whole point).
    Benches,
    /// `examples/`.
    Examples,
}

impl Ctx {
    /// Test-ish contexts: tests, benches, examples.
    pub fn is_testish(self) -> bool {
        matches!(self, Ctx::Tests | Ctx::Benches | Ctx::Examples)
    }
}

/// A file's classification: owning crate (by directory name) and context.
#[derive(Clone, Debug)]
pub struct FileClass {
    /// Crate directory name: `mac-sim`, `core`, …, `compat/rand`, or
    /// `root` for the facade crate at the workspace root.
    pub krate: String,
    /// The file's context within the crate.
    pub ctx: Ctx,
}

/// Classify a workspace-relative path (forward slashes).
pub fn classify(rel: &str) -> FileClass {
    let krate = if let Some(rest) = rel.strip_prefix("crates/compat/") {
        let name = rest.split('/').next().unwrap_or("");
        format!("compat/{name}")
    } else if let Some(rest) = rel.strip_prefix("crates/") {
        rest.split('/').next().unwrap_or("").to_string()
    } else {
        "root".to_string()
    };
    let ctx = if rel.contains("/src/bin/") {
        Ctx::Bin
    } else if rel.contains("/benches/") || rel.starts_with("benches/") {
        Ctx::Benches
    } else if rel.contains("/tests/") || rel.starts_with("tests/") {
        Ctx::Tests
    } else if rel.contains("/examples/") || rel.starts_with("examples/") {
        Ctx::Examples
    } else {
        FileClass::SRC_CTX
    };
    FileClass { krate, ctx }
}

impl FileClass {
    const SRC_CTX: Ctx = Ctx::Src;

    /// Is this one of the compat shim crates?
    pub fn is_compat(&self) -> bool {
        self.krate.starts_with("compat/")
    }
}

/// Crates in the **deterministic tier**: everything they compute can reach
/// a transcript, trace byte or JSON artifact, so iteration order and
/// ambient state must be pinned.
pub const DETERMINISTIC_CRATES: &[&str] = &["mac-sim", "selectors", "core", "analysis"];

/// Files forming the engine's hot path (slot loop + tracer emission): the
/// `panic-free-hot-path` rule audits exactly these.
pub const HOT_PATH_FILES: &[&str] = &[
    "crates/mac-sim/src/engine.rs",
    "crates/mac-sim/src/tracer.rs",
];

/// Is wall-clock (`Instant::now` / `SystemTime`) acceptable here without a
/// pragma? The wall-clock tier: the runner (phase timers, progress), the
/// CLI/bench layer, the compat shims, and all test-ish contexts.
pub fn wall_clock_allowed(class: &FileClass) -> bool {
    class.krate == "runner" || class.krate == "bench" || class.is_compat() || class.ctx.is_testish()
}

/// Is direct stdout/stderr printing acceptable here without a pragma?
/// Only the CLI crate, the `ProgressSink` implementation, compat shims,
/// binaries and test-ish contexts — library crates must report through
/// `Sink`/`ProgressSink`.
pub fn sink_allowed(class: &FileClass, rel: &str) -> bool {
    class.krate == "bench"
        || class.is_compat()
        || rel == "crates/runner/src/progress.rs"
        || rel == "crates/lint/src/cli.rs"
        || class.ctx.is_testish()
        || class.ctx == Ctx::Bin
}

/// Is `std::env` access acceptable here without a pragma? Only the CLI
/// env-wiring modules, compat shims and test-ish contexts.
pub fn env_allowed(class: &FileClass, rel: &str) -> bool {
    rel == "crates/bench/src/lib.rs"
        || rel == "crates/bench/src/cli.rs"
        || class.is_compat()
        || class.ctx.is_testish()
        || class.ctx == Ctx::Bin
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_covers_the_workspace_shapes() {
        let c = classify("crates/mac-sim/src/engine.rs");
        assert_eq!(c.krate, "mac-sim");
        assert_eq!(c.ctx, Ctx::Src);
        assert_eq!(classify("crates/bench/src/bin/wakeup.rs").ctx, Ctx::Bin);
        assert_eq!(
            classify("crates/bench/benches/kernels.rs").ctx,
            Ctx::Benches
        );
        assert_eq!(
            classify("crates/compat/rand/src/lib.rs").krate,
            "compat/rand"
        );
        assert_eq!(classify("src/lib.rs").krate, "root");
        assert_eq!(classify("tests/theory.rs").ctx, Ctx::Tests);
        assert_eq!(classify("examples/quickstart.rs").ctx, Ctx::Examples);
    }
}
