//! The declarative experiment abstraction behind the `wakeup` driver.
//!
//! An [`Experiment`] is data: its registry name, banner strings, the
//! per-scale sweep [`Grid`] it walks, and a body function reporting through
//! a [`Ctx`]. The body never touches `println!`, `std::env` or `assert!` —
//! configuration comes in through the context (CLI flags layered over the
//! `WAKEUP_*` env fallbacks) and results go out through the active
//! [`Sink`], so the same experiment renders as pretty tables, CSV or JSON
//! Lines without changing a line of its body.
//!
//! The inline `assert!`s of the historical binaries became declarative
//! [`Check`]s: each check is evaluated against a streaming summary, its
//! outcome is *emitted* (machine sinks record passes and failures alike),
//! and the driver's exit code reflects any failure — so a failed paper
//! expectation is a reported measurement, not a half-printed panic.

use crate::sink::{ExperimentHead, Sink};
use crate::{Grid, Scale};
use std::cell::Cell;
use wakeup_analysis::ensemble::{EnsembleSpec, EnsembleSummary, TraceSpec};
use wakeup_analysis::serial::Record;
use wakeup_analysis::Table;

/// One registry entry: everything the driver needs to list and run an
/// experiment.
#[derive(Clone, Copy, Debug)]
pub struct Experiment {
    /// Registry / CLI / binary name (`exp_scenario_a`).
    pub name: &'static str,
    /// Short id used in table footers and row labels (`EXP-A`).
    pub id: &'static str,
    /// Banner title line (includes the id by convention).
    pub title: &'static str,
    /// The paper claim under test (the banner's second line).
    pub claim: &'static str,
    /// The sweep grid the body walks via [`Ctx::ns`]/[`Ctx::ks`]. Bodies
    /// with bespoke grids (figures, certification) leave the default.
    pub grid: Grid,
    /// Declared wall-clock budget of one **full-scale** run on the
    /// reference single-core box, in seconds (measured, rounded up).
    /// `wakeup list` prints it and `wakeup run --time-box` uses it to
    /// project whether a selection fits the box; quick-scale runs are
    /// seconds each and are not budgeted.
    pub full_budget_secs: u64,
    /// The body.
    pub run: fn(&mut Ctx<'_>),
}

impl Experiment {
    /// The banner identity of this experiment.
    pub fn head(&self) -> ExperimentHead<'_> {
        ExperimentHead {
            name: self.name,
            id: self.id,
            title: self.title,
            claim: self.claim,
        }
    }
}

/// A declarative expectation on measured results — the replacement for the
/// binaries' inline `assert!`s. Constructed per sweep cell and handed to
/// [`Ctx::check`], which evaluates, emits and tallies it.
#[derive(Debug)]
pub enum Check<'a> {
    /// Every run solved within the cap (`censored() == 0`).
    NoCensored(&'a EnsembleSummary),
    /// At least one run solved (`solved > 0`).
    Solves(&'a EnsembleSummary),
    /// The maximum solved latency stays within `bound`.
    MaxWithin(&'a EnsembleSummary, f64),
    /// An arbitrary already-evaluated predicate with rendered evidence.
    Holds(bool, String),
}

impl Check<'_> {
    fn eval(&self) -> (bool, String) {
        match self {
            Check::NoCensored(s) => (
                s.censored() == 0,
                format!("{} of {} runs censored", s.censored(), s.runs),
            ),
            Check::Solves(s) => (
                s.solved > 0,
                format!("{} of {} runs solved", s.solved, s.runs),
            ),
            Check::MaxWithin(s, bound) => (
                s.max() <= *bound,
                format!("max latency {:.0} vs bound {bound:.0}", s.max()),
            ),
            Check::Holds(ok, detail) => (*ok, detail.clone()),
        }
    }
}

/// The evaluated result of a [`Check`], as emitted to sinks.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CheckOutcome {
    /// The check's label (usually `"<what> at n=…, k=…"`).
    pub name: String,
    /// Did it hold?
    pub passed: bool,
    /// Rendered evidence (measured value vs expectation).
    pub detail: String,
}

/// The experiment's execution context: resolved configuration plus the
/// active sink.
pub struct Ctx<'a> {
    scale: Scale,
    grid: Grid,
    seed: u64,
    threads: Option<usize>,
    sink: &'a mut dyn Sink,
    failures: u64,
    /// The experiment's short id, prefixed onto progress labels so that
    /// nested or repeated sweeps never interleave identical labels in one
    /// stderr stream.
    id: String,
    /// Ordinal of the next ensemble this context builds (see
    /// `progress_label`).
    ensembles: Cell<u64>,
    /// Structured-trace capture attached to every spec built here.
    trace: Option<TraceSpec>,
}

impl<'a> Ctx<'a> {
    /// A context at `scale` over `grid`, reporting to `sink`. `seed` is
    /// added (wrapping) to every ensemble base seed; `threads` overrides
    /// the worker count when set (else `WAKEUP_THREADS`, else available
    /// parallelism).
    pub fn new(
        scale: Scale,
        grid: Grid,
        seed: u64,
        threads: Option<usize>,
        sink: &'a mut dyn Sink,
    ) -> Self {
        Ctx {
            scale,
            grid,
            seed,
            threads,
            sink,
            failures: 0,
            id: String::new(),
            ensembles: Cell::new(0),
            trace: None,
        }
    }

    /// Tag this context with the experiment's short id (label prefixing).
    pub fn with_id(mut self, id: impl Into<String>) -> Self {
        self.id = id.into();
        self
    }

    /// Attach structured-trace capture: every [`spec`](Self::spec) built by
    /// this context traces into it.
    pub fn with_trace(mut self, trace: Option<TraceSpec>) -> Self {
        self.trace = trace;
        self
    }

    /// The resolved scale.
    pub fn scale(&self) -> Scale {
        self.scale
    }

    /// The `n` sweep of this experiment's grid at the resolved scale.
    pub fn ns(&self) -> Vec<u32> {
        self.scale.n_sweep(self.grid)
    }

    /// The `k` sweep of this experiment's grid for universe size `n`.
    pub fn ks(&self, n: u32) -> Vec<u32> {
        self.scale.k_sweep(self.grid, n)
    }

    /// Runs per configuration at the resolved scale.
    pub fn runs(&self) -> u64 {
        self.scale.runs()
    }

    /// The global seed offset (`--seed`).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// `WAKEUP_ASSERT_SPARSE` is set: EXP-KG's sparse-path expectations
    /// become checks.
    pub fn assert_sparse(&self) -> bool {
        crate::env_assert("WAKEUP_ASSERT_SPARSE")
    }

    /// `WAKEUP_ASSERT_CLASSES` is set: class-engine cells are cross-checked
    /// against the concrete per-station engine.
    pub fn assert_classes(&self) -> bool {
        crate::env_assert("WAKEUP_ASSERT_CLASSES")
    }

    /// A unique progress label for the next ensemble: the experiment id is
    /// prefixed when the body's label doesn't already carry it, and an
    /// ensemble ordinal (`#4`) is appended. A sweep that reuses one label
    /// for every cell — or a summary experiment nesting sub-sweeps — thus
    /// never emits two progress streams under the same name.
    fn progress_label(&self, label: &str) -> String {
        let seq = self.ensembles.get();
        if self.id.is_empty() || label.starts_with(self.id.as_str()) {
            format!("{label} #{seq}")
        } else {
            format!("{} {label} #{seq}", self.id)
        }
    }

    /// An [`EnsembleSpec`] carrying the resolved configuration: the CLI
    /// `--seed` offset on top of `base_seed`, the resolved thread count, a
    /// disambiguated, uniquely-numbered label (written on the ensemble's
    /// exec record), `WAKEUP_PROGRESS` routed through the sink's progress
    /// target under that label, and the context's trace capture, if any.
    pub fn spec(&self, n: u32, runs: u64, base_seed: u64, label: &str) -> EnsembleSpec {
        let mut spec = EnsembleSpec::new(n, runs).with_base_seed(base_seed.wrapping_add(self.seed));
        spec.label = self.progress_label(label);
        if let Some(threads) = self.threads.or_else(crate::env_threads) {
            spec = spec.with_threads(threads);
        }
        if let Some(p) = crate::env_progress(&spec.label) {
            spec = spec.with_progress_spec(p.with_sink(self.sink.progress_sink()));
        }
        if let Some(trace) = &self.trace {
            spec = spec.with_trace(trace.clone());
        }
        self.ensembles.set(self.ensembles.get() + 1);
        spec
    }

    /// A bare [`wakeup_runner::Runner`] carrying the resolved thread count
    /// and progress routing — for experiment kernels outside the ensemble
    /// layer.
    pub fn runner(&self, label: &str) -> wakeup_runner::Runner {
        let mut r = wakeup_runner::Runner::new();
        if let Some(threads) = self.threads.or_else(crate::env_threads) {
            r = r.with_threads(threads);
        }
        if let Some(p) = crate::env_progress(&self.progress_label(label)) {
            r = r.with_progress(p.with_sink(self.sink.progress_sink()));
        }
        self.ensembles.set(self.ensembles.get() + 1);
        r
    }

    /// Emit a commentary line.
    pub fn note(&mut self, text: impl AsRef<str>) {
        self.sink.note(text.as_ref());
    }

    /// Emit a completed pretty table.
    pub fn table(&mut self, name: &str, table: &Table) {
        self.sink.table(name, table);
    }

    /// Emit one machine-readable row.
    pub fn row(&mut self, stream: &str, record: Record) {
        self.sink.row(stream, &record);
    }

    /// Emit a per-table work/throughput footer.
    pub fn work(&mut self, label: &str, meter: &crate::TableMeter) {
        self.sink.work(label, meter);
    }

    /// Evaluate a [`Check`], emit its outcome, and tally a failure if it
    /// did not hold. Returns whether it passed, so bodies can guard
    /// follow-up computation on the checked invariant.
    pub fn check(&mut self, name: impl Into<String>, check: Check<'_>) -> bool {
        let (passed, detail) = check.eval();
        let outcome = CheckOutcome {
            name: name.into(),
            passed,
            detail,
        };
        if !passed {
            self.failures += 1;
        }
        self.sink.check(&outcome);
        passed
    }

    /// Number of failed checks so far.
    pub fn failures(&self) -> u64 {
        self.failures
    }
}

/// Run one experiment end to end against `sink`; returns the number of
/// failed checks (the driver's exit status source).
pub fn run_experiment(
    exp: &Experiment,
    scale: Scale,
    seed: u64,
    threads: Option<usize>,
    sink: &mut dyn Sink,
) -> u64 {
    run_experiment_traced(exp, scale, seed, threads, None, sink)
}

/// [`run_experiment`] with structured-trace capture: every ensemble the
/// body runs records trace events into `trace` (when `Some`), without
/// perturbing outcomes or the sink's output. `wakeup run` and `wakeup
/// trace` call this.
pub fn run_experiment_traced(
    exp: &Experiment,
    scale: Scale,
    seed: u64,
    threads: Option<usize>,
    trace: Option<TraceSpec>,
    sink: &mut dyn Sink,
) -> u64 {
    sink.begin(&exp.head(), scale, seed);
    let mut ctx = Ctx::new(scale, exp.grid, seed, threads, sink)
        .with_id(exp.id)
        .with_trace(trace);
    (exp.run)(&mut ctx);
    let failures = ctx.failures();
    sink.finish(failures);
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    struct NullSink {
        checks: Vec<CheckOutcome>,
    }
    impl Sink for NullSink {
        fn check(&mut self, outcome: &CheckOutcome) {
            self.checks.push(outcome.clone());
        }
    }

    #[test]
    fn checks_tally_and_emit() {
        let mut sink = NullSink { checks: vec![] };
        let mut ctx = Ctx::new(Scale::Quick, Grid::Dense, 0, None, &mut sink);
        assert!(ctx.check("always", Check::Holds(true, "fine".into())));
        assert!(!ctx.check("never", Check::Holds(false, "broken".into())));
        assert_eq!(ctx.failures(), 1);
        assert_eq!(sink.checks.len(), 2);
        assert_eq!(sink.checks[1].name, "never");
        assert!(!sink.checks[1].passed);
    }

    #[test]
    fn summary_checks_evaluate_the_right_fields() {
        let spec = EnsembleSpec::new(16, 4).with_max_slots(40);
        let solved = wakeup_analysis::run_ensemble_stream(
            &spec,
            |_| Box::new(wakeup_core::prelude::RoundRobin::new(16)),
            |seed| crate::burst_pattern(16, 2, 0, seed),
        );
        assert!(matches!(Check::NoCensored(&solved).eval(), (true, _)));
        assert!(matches!(Check::Solves(&solved).eval(), (true, _)));
        assert!(matches!(
            Check::MaxWithin(&solved, 2.0 * 16.0 + 1.0).eval(),
            (true, _)
        ));
        assert!(matches!(Check::MaxWithin(&solved, 0.5).eval(), (false, _)));
    }

    #[test]
    fn ctx_spec_applies_seed_offset_and_threads() {
        let mut sink = NullSink { checks: vec![] };
        let ctx = Ctx::new(Scale::Quick, Grid::Sparse, 100, Some(3), &mut sink);
        let spec = ctx.spec(64, 10, 4000, "test");
        assert_eq!(spec.base_seed, 4100);
        assert_eq!(spec.threads, 3);
        assert_eq!(spec.sim.n, 64);
        assert_eq!(spec.label, "test #0");
        // Grid plumbs through to the sweeps.
        assert_eq!(ctx.ns(), Scale::Quick.n_sweep(Grid::Sparse));
        assert_eq!(ctx.ks(256), Scale::Quick.k_sweep(Grid::Sparse, 256));
    }

    #[test]
    fn progress_labels_are_unique_and_id_prefixed() {
        let mut sink = NullSink { checks: vec![] };
        let ctx = Ctx::new(Scale::Quick, Grid::Dense, 0, None, &mut sink)
            .with_id("EXP-X")
            .with_trace(None);
        // A bare body label gets the experiment id prefixed; the ensemble
        // ordinal makes repeated identical labels distinct.
        assert_eq!(ctx.progress_label("n=256 k=4"), "EXP-X n=256 k=4 #0");
        ctx.spec(16, 2, 100, "n=256 k=4");
        assert_eq!(ctx.progress_label("n=256 k=4"), "EXP-X n=256 k=4 #1");
        // Labels already carrying the id are not double-prefixed.
        assert_eq!(ctx.progress_label("EXP-X n=1"), "EXP-X n=1 #1");
        ctx.spec(16, 2, 100, "x");
        assert_eq!(ctx.progress_label("x"), "EXP-X x #2");
        // Without an id (bare Ctx::new) only the ordinal is appended.
        let mut sink2 = NullSink { checks: vec![] };
        let ctx2 = Ctx::new(Scale::Quick, Grid::Dense, 0, None, &mut sink2);
        assert_eq!(ctx2.progress_label("plain"), "plain #0");
    }
}
