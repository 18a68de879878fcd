//! The rule engine: each rule is one pass over a [`SourceFile`]'s token
//! stream, and every finding fails the gate.

use crate::lexer::Tok;
use crate::policy::{self, Ctx, FileClass};
use crate::source::SourceFile;
use wakeup_analysis::serial::Record;

/// One lint finding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Rule id (kebab-case).
    pub rule: &'static str,
    /// Workspace-relative path (forward slashes).
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Human-readable description of the violation.
    pub message: String,
}

impl Finding {
    /// The finding as a deterministic machine-readable record.
    pub fn record(&self) -> Record {
        Record::new()
            .with("rule", self.rule)
            .with("file", self.file.as_str())
            .with("line", u64::from(self.line))
            .with("message", self.message.as_str())
    }
}

/// Rule ids.
pub const DEFAULT_HASH_STATE: &str = "default-hash-state";
/// See [`DEFAULT_HASH_STATE`].
pub const WALL_CLOCK: &str = "wall-clock";
/// See [`DEFAULT_HASH_STATE`].
pub const AMBIENT_RNG: &str = "ambient-rng";
/// See [`DEFAULT_HASH_STATE`].
pub const UNSAFE_NEEDS_SAFETY: &str = "unsafe-needs-safety";
/// See [`DEFAULT_HASH_STATE`].
pub const SINK_DISCIPLINE: &str = "sink-discipline";
/// See [`DEFAULT_HASH_STATE`].
pub const ENV_DISCIPLINE: &str = "env-discipline";
/// See [`DEFAULT_HASH_STATE`].
pub const PANIC_FREE_HOT_PATH: &str = "panic-free-hot-path";
/// Meta-rule: malformed / reason-less allow pragmas.
pub const LINT_PRAGMA: &str = "lint-pragma";

/// Static description of one rule, for `wakeup lint`'s listing and docs.
#[derive(Clone, Copy, Debug)]
pub struct RuleInfo {
    /// Rule id.
    pub id: &'static str,
    /// One-line rationale.
    pub summary: &'static str,
}

/// Every rule the analyzer implements.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: DEFAULT_HASH_STATE,
        summary: "HashMap/HashSet with the default RandomState in deterministic crates — \
                  iteration order can leak into transcripts/traces/artifacts",
    },
    RuleInfo {
        id: WALL_CLOCK,
        summary: "Instant::now/SystemTime outside the wall-clock tier \
                  (runner timers, progress, calibration, benches)",
    },
    RuleInfo {
        id: AMBIENT_RNG,
        summary: "thread_rng/from_entropy/OsRng anywhere outside the compat shims — \
                  all randomness must be seeded",
    },
    RuleInfo {
        id: UNSAFE_NEEDS_SAFETY,
        summary: "every unsafe block/impl/fn must carry a // SAFETY: comment",
    },
    RuleInfo {
        id: SINK_DISCIPLINE,
        summary: "stray println!/eprintln! outside Sink/ProgressSink implementations and bins",
    },
    RuleInfo {
        id: ENV_DISCIPLINE,
        summary: "std::env reads outside the CLI env-wiring modules",
    },
    RuleInfo {
        id: PANIC_FREE_HOT_PATH,
        summary: "unwrap/expect/panic!/indexing in the engine slot loop and tracer emit paths",
    },
    RuleInfo {
        id: LINT_PRAGMA,
        summary: "lint: allow(...) pragmas must name a known rule and give a reason",
    },
];

/// The outcome of linting one file.
#[derive(Clone, Debug, Default)]
pub struct FileOutcome {
    /// Findings that survived pragma suppression.
    pub findings: Vec<Finding>,
    /// Findings suppressed by reasoned pragmas.
    pub suppressed: u64,
}

/// Run every token rule over one file.
pub fn lint_tokens(rel: &str, class: &FileClass, sf: &SourceFile) -> FileOutcome {
    let mut out = FileOutcome::default();
    pragma_hygiene(rel, sf, &mut out);
    default_hash_state(rel, class, sf, &mut out);
    wall_clock(rel, class, sf, &mut out);
    ambient_rng(rel, class, sf, &mut out);
    unsafe_needs_safety(rel, sf, &mut out);
    sink_discipline(rel, class, sf, &mut out);
    env_discipline(rel, class, sf, &mut out);
    panic_free_hot_path(rel, class, sf, &mut out);
    out
}

/// Push a finding unless a reasoned pragma on the same / preceding line
/// suppresses it.
fn push(
    out: &mut FileOutcome,
    sf: &SourceFile,
    rule: &'static str,
    rel: &str,
    line: u32,
    message: String,
) {
    if sf.suppressed(rule, line) {
        out.suppressed += 1;
        return;
    }
    out.findings.push(Finding {
        rule,
        file: rel.to_string(),
        line,
        message,
    });
}

/// Pragmas themselves are audited: a reason is mandatory, and the rule name
/// must exist (a typo would otherwise silently suppress nothing).
fn pragma_hygiene(rel: &str, sf: &SourceFile, out: &mut FileOutcome) {
    for p in &sf.pragmas {
        if !RULES.iter().any(|r| r.id == p.rule) {
            out.findings.push(Finding {
                rule: LINT_PRAGMA,
                file: rel.to_string(),
                line: p.line,
                message: format!("allow pragma names unknown rule '{}'", p.rule),
            });
        } else if !p.has_reason {
            out.findings.push(Finding {
                rule: LINT_PRAGMA,
                file: rel.to_string(),
                line: p.line,
                message: format!(
                    "allow({}) pragma has no reason — `// lint: allow({}) — <why>`",
                    p.rule, p.rule
                ),
            });
        }
    }
}

fn ident_at(sf: &SourceFile, i: usize) -> Option<&str> {
    match &sf.lexed.tokens.get(i)?.tok {
        Tok::Ident(id) => Some(id.as_str()),
        _ => None,
    }
}

fn punct_at(sf: &SourceFile, i: usize) -> Option<char> {
    match sf.lexed.tokens.get(i)?.tok {
        Tok::Punct(c) => Some(c),
        _ => None,
    }
}

fn default_hash_state(rel: &str, class: &FileClass, sf: &SourceFile, out: &mut FileOutcome) {
    if !policy::DETERMINISTIC_CRATES.contains(&class.krate.as_str()) || class.ctx != Ctx::Src {
        return;
    }
    for (i, t) in sf.lexed.tokens.iter().enumerate() {
        let Tok::Ident(id) = &t.tok else { continue };
        if (id == "HashMap" || id == "HashSet") && !sf.flags[i].in_use && !sf.flags[i].is_test {
            push(
                out,
                sf,
                DEFAULT_HASH_STATE,
                rel,
                t.line,
                format!(
                    "{id} with the default RandomState in a deterministic crate — use \
                     BTreeMap/BTreeSet, sorted-key iteration, or allow-annotate with a \
                     proof it never iterates"
                ),
            );
        }
    }
}

fn wall_clock(rel: &str, class: &FileClass, sf: &SourceFile, out: &mut FileOutcome) {
    if policy::wall_clock_allowed(class) {
        return;
    }
    for (i, t) in sf.lexed.tokens.iter().enumerate() {
        let Tok::Ident(id) = &t.tok else { continue };
        if (id == "Instant" || id == "SystemTime") && !sf.flags[i].in_use && !sf.flags[i].is_test {
            push(
                out,
                sf,
                WALL_CLOCK,
                rel,
                t.line,
                format!(
                    "{id} outside the wall-clock tier — deterministic code must not read \
                     the clock (use the runner's phase timers or the .exec.jsonl sidecar)"
                ),
            );
        }
    }
}

fn ambient_rng(rel: &str, class: &FileClass, sf: &SourceFile, out: &mut FileOutcome) {
    if class.is_compat() {
        return;
    }
    for t in &sf.lexed.tokens {
        let Tok::Ident(id) = &t.tok else { continue };
        if id == "thread_rng" || id == "from_entropy" || id == "OsRng" {
            push(
                out,
                sf,
                AMBIENT_RNG,
                rel,
                t.line,
                format!("ambient RNG `{id}` — all randomness must flow from an explicit seed"),
            );
        }
    }
}

fn unsafe_needs_safety(rel: &str, sf: &SourceFile, out: &mut FileOutcome) {
    for t in &sf.lexed.tokens {
        if t.tok == Tok::Ident("unsafe".into()) && !sf.safety_near(t.line) {
            push(
                out,
                sf,
                UNSAFE_NEEDS_SAFETY,
                rel,
                t.line,
                "unsafe without a // SAFETY: comment on or directly above it".to_string(),
            );
        }
    }
}

fn sink_discipline(rel: &str, class: &FileClass, sf: &SourceFile, out: &mut FileOutcome) {
    if policy::sink_allowed(class, rel) {
        return;
    }
    for (i, t) in sf.lexed.tokens.iter().enumerate() {
        let Tok::Ident(id) = &t.tok else { continue };
        let is_print = matches!(
            id.as_str(),
            "println" | "eprintln" | "print" | "eprint" | "dbg"
        );
        if is_print && punct_at(sf, i + 1) == Some('!') && !sf.flags[i].is_test {
            push(
                out,
                sf,
                SINK_DISCIPLINE,
                rel,
                t.line,
                format!("stray {id}! — library crates report through Sink/ProgressSink"),
            );
        }
    }
}

fn env_discipline(rel: &str, class: &FileClass, sf: &SourceFile, out: &mut FileOutcome) {
    if policy::env_allowed(class, rel) {
        return;
    }
    for (i, t) in sf.lexed.tokens.iter().enumerate() {
        let Tok::Ident(id) = &t.tok else { continue };
        if id != "env" || sf.flags[i].is_test || sf.flags[i].in_use {
            continue;
        }
        // `env :: var…` — look past the path separator.
        if punct_at(sf, i + 1) == Some(':') && punct_at(sf, i + 2) == Some(':') {
            if let Some(what) = ident_at(sf, i + 3) {
                if matches!(
                    what,
                    "var" | "var_os" | "vars" | "vars_os" | "set_var" | "remove_var"
                ) {
                    push(
                        out,
                        sf,
                        ENV_DISCIPLINE,
                        rel,
                        t.line,
                        format!(
                            "std::env::{what} outside the CLI env-wiring modules — thread \
                             configuration through Config instead"
                        ),
                    );
                }
            }
        }
    }
}

fn panic_free_hot_path(rel: &str, class: &FileClass, sf: &SourceFile, out: &mut FileOutcome) {
    if !policy::HOT_PATH_FILES.contains(&rel) || class.ctx != Ctx::Src {
        return;
    }
    let toks = &sf.lexed.tokens;
    for (i, t) in toks.iter().enumerate() {
        if sf.flags[i].is_test {
            continue;
        }
        let hit = match &t.tok {
            Tok::Ident(id) if (id == "unwrap" || id == "expect") && i > 0 => {
                // Method position only: `.unwrap()` / `.expect(`.
                (punct_at(sf, i - 1) == Some('.')).then(|| format!(".{id}()"))
            }
            Tok::Ident(id) if id == "panic" || id == "unreachable" || id == "todo" => {
                (punct_at(sf, i + 1) == Some('!')).then(|| format!("{id}!"))
            }
            Tok::Punct('[') if i > 0 => {
                // Indexing expression: `expr[` — preceded by an identifier,
                // a close-bracket or a close-paren (array literals,
                // attributes and slice types are preceded by punctuation).
                let prev = &toks[i - 1].tok;
                let is_index = matches!(prev, Tok::Ident(_))
                    || matches!(prev, Tok::Punct(']') | Tok::Punct(')'));
                is_index.then(|| "indexing".to_string())
            }
            _ => None,
        };
        if let Some(what) = hit {
            push(
                out,
                sf,
                PANIC_FREE_HOT_PATH,
                rel,
                t.line,
                format!("{what} in a hot path — prefer total code in the slot loop / tracer emit"),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::classify;

    fn run(rel: &str, src: &str) -> FileOutcome {
        lint_tokens(rel, &classify(rel), &SourceFile::parse(src))
    }

    #[test]
    fn hash_state_fires_only_in_deterministic_src() {
        let src = "use std::collections::HashMap;\nfn f() { let m = HashMap::new(); m.x(); }";
        let det = run("crates/mac-sim/src/x.rs", src);
        assert_eq!(det.findings.len(), 1, "{:?}", det.findings);
        assert_eq!(det.findings[0].rule, DEFAULT_HASH_STATE);
        assert_eq!(det.findings[0].line, 2, "the import itself is exempt");
        // Outside the deterministic tier: silent.
        assert!(run("crates/runner/src/x.rs", src).findings.is_empty());
        // Test context: silent.
        let test_src = "#[cfg(test)]\nmod tests { fn f() { let m = HashMap::new(); } }";
        assert!(run("crates/mac-sim/src/x.rs", test_src).findings.is_empty());
    }

    #[test]
    fn pragmas_suppress_with_reason_only() {
        let ok = "// lint: allow(default-hash-state) — membership-only, never iterated\n\
                  fn f() { let m = HashMap::new(); }";
        let out = run("crates/core/src/x.rs", ok);
        assert!(out.findings.is_empty(), "{:?}", out.findings);
        assert_eq!(out.suppressed, 1);
        let bad = "// lint: allow(default-hash-state)\nfn f() { let m = HashMap::new(); }";
        let out = run("crates/core/src/x.rs", bad);
        let rules: Vec<&str> = out.findings.iter().map(|f| f.rule).collect();
        assert!(rules.contains(&LINT_PRAGMA), "{rules:?}");
        assert!(rules.contains(&DEFAULT_HASH_STATE), "{rules:?}");
        let typo = "// lint: allow(default-hash-stat) — oops\nfn f() {}";
        let out = run("crates/core/src/x.rs", typo);
        assert_eq!(out.findings[0].rule, LINT_PRAGMA);
    }

    #[test]
    fn unsafe_rule_demands_safety_comments() {
        let bad = "fn f() { unsafe { g() } }";
        let out = run("crates/runner/src/x.rs", bad);
        assert_eq!(out.findings.len(), 1);
        assert_eq!(out.findings[0].rule, UNSAFE_NEEDS_SAFETY);
        let good = "fn f() {\n    // SAFETY: g upholds its contract here\n    unsafe { g() }\n}";
        assert!(run("crates/runner/src/x.rs", good).findings.is_empty());
        // `unsafe` in a string or comment never fires.
        let phantom = "fn f() { let s = \"unsafe\"; } // unsafe prose";
        assert!(run("crates/runner/src/x.rs", phantom).findings.is_empty());
    }

    #[test]
    fn hot_path_rule_is_scoped() {
        let src = "fn f(v: &[u32]) { let x = v[0]; let y = v.first().unwrap(); panic!(\"no\"); }";
        let out = run("crates/mac-sim/src/engine.rs", src);
        assert_eq!(out.findings.len(), 3, "{:?}", out.findings);
        assert!(out.findings.iter().all(|f| f.rule == PANIC_FREE_HOT_PATH));
        // Same code outside the hot-path files: silent.
        assert!(run("crates/mac-sim/src/pattern.rs", src)
            .findings
            .is_empty());
    }

    #[test]
    fn env_and_sink_and_clock_and_rng_fire_where_expected() {
        let env = "fn f() { let v = std::env::var(\"X\"); }";
        assert_eq!(
            run("crates/core/src/x.rs", env).findings[0].rule,
            ENV_DISCIPLINE
        );
        assert!(run("crates/bench/src/lib.rs", env).findings.is_empty());
        let print = "fn f() { println!(\"hi\"); }";
        assert_eq!(
            run("crates/analysis/src/x.rs", print).findings[0].rule,
            SINK_DISCIPLINE
        );
        assert!(run("crates/runner/src/progress.rs", print)
            .findings
            .is_empty());
        let clock = "fn f() { let t = Instant::now(); }";
        assert_eq!(
            run("crates/mac-sim/src/x.rs", clock).findings[0].rule,
            WALL_CLOCK
        );
        assert!(run("crates/runner/src/lib.rs", clock).findings.is_empty());
        let rng = "fn f() { let r = thread_rng(); }";
        assert_eq!(
            run("crates/runner/src/x.rs", rng).findings[0].rule,
            AMBIENT_RNG
        );
        assert!(run("crates/compat/rand/src/lib.rs", rng)
            .findings
            .is_empty());
    }
}
