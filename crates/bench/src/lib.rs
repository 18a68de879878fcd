//! # wakeup-bench — the declarative experiment layer and `wakeup` driver
//!
//! Every experiment of the reproduction (README, "Experiments: the `wakeup`
//! driver") is a **registry entry** ([`experiments::registry`]): a name, a
//! banner, a per-scale sweep [`Grid`], and a body that reports through a
//! pluggable [`sink::Sink`] instead of printing. One driver binary runs
//! them all:
//!
//! ```text
//! wakeup list                         # the registry, one line per experiment
//! wakeup run exp_scenario_a           # pretty tables on stdout (the default)
//! wakeup run --all --scale quick --out json --out-dir results/
//! wakeup run exp_crossover --scale full --threads 4 --out csv
//! ```
//!
//! | flag | values | env fallback |
//! |------|--------|--------------|
//! | `--scale`   | `quick` (default) \| `full` | `WAKEUP_SCALE` |
//! | `--threads` | worker count | `WAKEUP_THREADS` |
//! | `--seed`    | offset added to every ensemble base seed | — |
//! | `--out`     | `table` (default) \| `csv` \| `json` (JSON Lines) | — |
//! | `--out-dir` | write one file per experiment instead of stdout | — |
//! | `--trace`   | capture `<exp>.trace.jsonl` + `<exp>.exec.jsonl` | — |
//! | `--trace-out` | trace artifact directory (default `traces/`) | — |
//! | `--trace-sample` | keep every N-th event per (run, kind) stream | — |
//!
//! `wakeup trace <exp>` is `run` with `--trace` defaulted on, and
//! `wakeup report <trace.jsonl>` ([`report`]) folds an artifact back into
//! slot-class/contention histograms, the mode-switch timeline and worker
//! utilization through the same sinks.
//!
//! `WAKEUP_PROGRESS` (seconds between live `runs done | runs/s` lines) and
//! `WAKEUP_ASSERT_SPARSE` (turn the sparse-path expectations of EXP-KG into
//! hard check failures) keep working as before; `WAKEUP_ASSERT_CLASSES`
//! additionally cross-checks EXP-MEGA's class-engine cells against the
//! concrete per-station engine (the CI class smoke).
//!
//! Machine-readable output is **deterministic**: every value in a CSV/JSON
//! row folds in seed order on the runner, so `--out json` is bit-identical
//! across `--threads` counts (pinned by `tests/wakeup_cli.rs`).
//!
//! Criterion micro-benches live in `benches/` (`kernels` — simulation
//! hot paths; `runner` — static chunks vs the batch-cursor runner).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Env discipline (clippy.toml): the environment is read only by the env
// wiring in this file and by `cli::main`, each under an item-level expect.
#![warn(clippy::disallowed_methods)]

pub mod cli;
pub mod diff;
pub mod experiment;
pub mod experiments;
pub mod report;
pub mod sink;

use mac_sim::pattern::IdChoice;
use mac_sim::{StationId, WakePattern};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::time::Duration;
use wakeup_analysis::ensemble::{EnsembleSummary, WorkStats};
use wakeup_analysis::fit::{Metric, SweepPoint};

/// Experiment scale: `quick` (CI-friendly seconds) or `full` (the recorded
/// tables, minutes).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Seconds-scale sweeps (CI-friendly). The default.
    Quick,
    /// Minutes-scale sweeps; each registry entry declares its measured
    /// `full_budget_secs`.
    Full,
}

/// Which sweep grid an experiment walks — the one parameter that used to be
/// four near-duplicate `Scale` methods (`n_sweep`/`n_sweep_sparse`,
/// `k_sweep`/`k_sweep_sparse`). Carried by each registry entry, so the grid
/// is part of the experiment's declaration rather than re-chosen in every
/// body.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Grid {
    /// Dense-engine experiments: per-run cost grows with `n`, so the full
    /// sweep tops out at `n = 65536` and `k` reaches `n`.
    #[default]
    Dense,
    /// Sparse-engine experiments (per-run cost `O(events·log k)`,
    /// independent of `n`): the full sweep reaches `n = 2^20`, with `k`
    /// capped at 4096 because stations, not slots, are what costs.
    Sparse,
}

impl Scale {
    /// Read the scale from the environment (`WAKEUP_SCALE=quick|full`).
    #[expect(clippy::disallowed_methods, reason = "env wiring of WAKEUP_SCALE")]
    pub fn from_env() -> Scale {
        match std::env::var("WAKEUP_SCALE").as_deref() {
            Ok("full") => Scale::Full,
            _ => Scale::Quick,
        }
    }

    /// The CLI/env name of this scale.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Quick => "quick",
            Scale::Full => "full",
        }
    }

    /// The `n` sweep for scaling experiments on the given grid.
    pub fn n_sweep(self, grid: Grid) -> Vec<u32> {
        let mut ns = vec![256, 1024, 4096];
        if self == Scale::Full {
            ns.extend([16384, 65536]);
            if grid == Grid::Sparse {
                ns.push(1 << 20);
            }
        }
        ns
    }

    /// The `k` sweep (powers of two from 1) paired with
    /// [`n_sweep`](Self::n_sweep): capped at 64 at quick scale, and at the
    /// grid's full-scale cap (`n` dense, 4096 sparse) otherwise.
    pub fn k_sweep(self, grid: Grid, n: u32) -> Vec<u32> {
        let cap = match (self, grid) {
            (Scale::Quick, _) => 64.min(n),
            (Scale::Full, Grid::Dense) => n,
            (Scale::Full, Grid::Sparse) => 4096.min(n),
        };
        let mut ks = vec![1u32];
        let mut k = 2u32;
        while k <= cap {
            ks.push(k);
            k = k.saturating_mul(2);
        }
        ks
    }

    /// Runs per configuration.
    pub fn runs(self) -> u64 {
        match self {
            Scale::Quick => 10,
            Scale::Full => 50,
        }
    }
}

/// `WAKEUP_THREADS` override for the runner's worker count, if set.
#[expect(clippy::disallowed_methods, reason = "env wiring of WAKEUP_THREADS")]
fn env_threads() -> Option<usize> {
    std::env::var("WAKEUP_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
}

/// `WAKEUP_PROGRESS` (seconds between updates, bare value = 5) as a
/// [`wakeup_runner::Progress`] spec labelled `label`, if set.
#[expect(clippy::disallowed_methods, reason = "env wiring of WAKEUP_PROGRESS")]
fn env_progress(label: &str) -> Option<wakeup_runner::Progress> {
    std::env::var("WAKEUP_PROGRESS").ok().map(|v| {
        let secs = v.parse::<u64>().unwrap_or(5).max(1);
        wakeup_runner::Progress::new(Duration::from_secs(secs), label)
    })
}

/// Is the opt-in CI assertion knob `name` (`WAKEUP_ASSERT_SPARSE`,
/// `WAKEUP_ASSERT_CLASSES`) set?
#[expect(clippy::disallowed_methods, reason = "env wiring of WAKEUP_ASSERT_*")]
fn env_assert(name: &str) -> bool {
    std::env::var(name).is_ok()
}

/// Per-table accumulator of engine work and runner throughput, printed as a
/// footer line under each experiment table:
///
/// ```text
/// EXP-A work: slots 1234 | polls 56 (0.0454 polls/slot) | … || 500 runs in 1.2s (417 runs/s, 9.1k polls/s)
/// ```
#[derive(Clone, Debug, Default)]
pub struct TableMeter {
    work: WorkStats,
    runs: u64,
    elapsed: Duration,
}

impl TableMeter {
    /// An empty meter.
    pub fn new() -> Self {
        TableMeter::default()
    }

    /// Fold one ensemble's work and execution stats into the table totals.
    pub fn absorb(&mut self, summary: &EnsembleSummary) {
        self.work.merge(&summary.work);
        self.runs += summary.runs;
        self.elapsed += summary.exec.elapsed;
    }

    /// The accumulated engine-work counters.
    pub fn work(&self) -> &WorkStats {
        &self.work
    }

    /// Total runs folded in.
    pub fn runs(&self) -> u64 {
        self.runs
    }

    /// The footer line (see type docs).
    pub fn render(&self, label: &str) -> String {
        let secs = self.elapsed.as_secs_f64().max(1e-9);
        format!(
            "{label} work: {} || {} runs in {:.2}s ({:.1} runs/s, {:.0} polls/s)",
            self.work.render(),
            self.runs,
            self.elapsed.as_secs_f64(),
            self.runs as f64 / secs,
            self.work.polls as f64 / secs,
        )
    }
}

/// A random wake pattern: `k` random stations, wake times uniform in a
/// window of `window` slots starting at a random `s` (first waker pinned to
/// `s`).
pub fn random_pattern(n: u32, k: usize, window: u64, seed: u64) -> WakePattern {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let ids = IdChoice::Random.pick(n, k, &mut rng);
    let s = (seed % 97) * 13; // vary s across runs
    WakePattern::uniform_window(&ids, s, window.max(1), &mut rng).unwrap()
}

/// A simultaneous-burst pattern at slot `s` with `k` random stations.
pub fn burst_pattern(n: u32, k: usize, s: u64, seed: u64) -> WakePattern {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let ids = IdChoice::Random.pick(n, k, &mut rng);
    WakePattern::simultaneous(&ids, s).unwrap()
}

/// The adversarial block pattern for round-robin: the `k` stations owning
/// the *last* turns of the cycle, waking together.
pub fn worst_rr_pattern(n: u32, k: usize, s: u64) -> WakePattern {
    let ids: Vec<StationId> = (n - k as u32..n).map(StationId).collect();
    WakePattern::simultaneous(&ids, s).unwrap()
}

/// The mean solved latency for machine rows: `NaN` (rendered as JSON
/// `null` / CSV `NaN`) when **no** run solved, so a fully-censored cell is
/// unambiguous instead of reading as a latency of zero. The pretty tables
/// print `censored`/`-` for the same cells.
pub fn mean_or_nan(summary: &EnsembleSummary) -> f64 {
    if summary.solved > 0 {
        summary.mean()
    } else {
        f64::NAN
    }
}

/// Shape verdict: the paper's model must rank #1 by R² among all candidate
/// shapes and explain most of the variance. Returns a human-readable line.
pub fn shape_verdict(points: &[(f64, f64, f64)], target: wakeup_analysis::Model) -> String {
    let ranked = wakeup_analysis::fit::rank_models(points);
    let Some(best) = ranked.first() else {
        return "no fit possible (too few points)".into();
    };
    let target_fit = ranked.iter().find(|f| f.model == target);
    match target_fit {
        Some(f) if best.model == target && f.r2 >= 0.85 => format!(
            "SHAPE CONFIRMED: {} ranks #1 of {} candidates (R² = {:.3})",
            target.name(),
            ranked.len(),
            f.r2
        ),
        Some(f) => format!(
            "shape NOT confirmed: {} has R² = {:.3}, best was {} (R² = {:.3})",
            target.name(),
            f.r2,
            best.model.name(),
            best.r2
        ),
        None => "target model not fittable on these points".into(),
    }
}

/// [`shape_verdict`] against a chosen statistic of [`SweepPoint`]s — the
/// p90 variant checks that the *tail* of the latency distribution grows
/// with the claimed shape, not just the mean.
pub fn shape_verdict_by(
    points: &[SweepPoint],
    metric: Metric,
    target: wakeup_analysis::Model,
) -> String {
    shape_verdict(
        &wakeup_analysis::fit::project_points(metric, points),
        target,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_sweeps_are_nontrivial() {
        assert!(Scale::Quick.n_sweep(Grid::Dense).len() >= 3);
        assert!(Scale::Full.n_sweep(Grid::Dense).len() > Scale::Quick.n_sweep(Grid::Dense).len());
        let ks = Scale::Quick.k_sweep(Grid::Dense, 1024);
        assert_eq!(ks[0], 1);
        assert!(ks.contains(&64));
        assert!(ks.iter().all(|&k| k <= 1024));
        // Full scale reaches k = n on the dense grid.
        assert!(Scale::Full.k_sweep(Grid::Dense, 256).contains(&256));
    }

    #[test]
    fn sparse_grid_reaches_a_million_stations() {
        assert!(Scale::Full.n_sweep(Grid::Sparse).contains(&(1 << 20)));
        assert_eq!(
            Scale::Quick.n_sweep(Grid::Sparse),
            Scale::Quick.n_sweep(Grid::Dense)
        );
        // k stays capped so per-run station instantiation is bounded.
        let ks = Scale::Full.k_sweep(Grid::Sparse, 1 << 20);
        assert_eq!(*ks.last().unwrap(), 4096);
        assert!(Scale::Quick.k_sweep(Grid::Sparse, 1 << 20).contains(&64));
        // Small universes cap at n.
        assert!(Scale::Full
            .k_sweep(Grid::Sparse, 16)
            .iter()
            .all(|&k| k <= 16));
    }

    #[test]
    fn grids_agree_except_where_parameterized() {
        // The dedup must preserve the historical values: the grids differ
        // only in the full-scale n ceiling and full-scale k cap.
        assert_eq!(
            Scale::Full.n_sweep(Grid::Dense),
            vec![256, 1024, 4096, 16384, 65536]
        );
        assert_eq!(
            Scale::Full.n_sweep(Grid::Sparse),
            vec![256, 1024, 4096, 16384, 65536, 1 << 20]
        );
        for n in [256u32, 4096] {
            assert_eq!(
                Scale::Quick.k_sweep(Grid::Dense, n),
                Scale::Quick.k_sweep(Grid::Sparse, n)
            );
        }
        assert_eq!(Scale::Full.k_sweep(Grid::Dense, 65536).last(), Some(&65536));
    }

    #[test]
    fn table_meter_accumulates_and_prints() {
        let mut m = TableMeter::new();
        assert_eq!(m.work().slots, 0);
        // An empty meter must render without dividing by zero.
        assert!(m.render("TEST").starts_with("TEST work:"));
        let spec = wakeup_analysis::EnsembleSpec::new(16, 3);
        let s = wakeup_analysis::run_ensemble_stream(
            &spec,
            |_| Box::new(wakeup_core::prelude::RoundRobin::new(16)),
            |seed| random_pattern(16, 2, 4, seed),
        );
        m.absorb(&s);
        assert_eq!(m.runs(), 3);
        assert!(m.work().slots > 0);
        assert!(m.render("TEST").starts_with("TEST work: slots"));
    }

    #[test]
    fn random_pattern_is_reproducible_and_valid() {
        let a = random_pattern(128, 8, 32, 7);
        let b = random_pattern(128, 8, 32, 7);
        assert_eq!(a, b);
        assert_eq!(a.k(), 8);
        assert!(a.last_wake() - a.s() < 32);
    }

    #[test]
    fn burst_and_worst_patterns() {
        let b = burst_pattern(64, 4, 10, 1);
        assert!(b.wakes().iter().all(|&(_, t)| t == 10));
        let w = worst_rr_pattern(64, 4, 0);
        assert_eq!(
            w.wakes().iter().map(|&(id, _)| id.0).collect::<Vec<_>>(),
            vec![60, 61, 62, 63]
        );
    }
}
