//! EXP-KG — the Komlós–Greenberg predecessor problem (§1, reference \[25\]):
//! all `k` awake stations must transmit successfully, in
//! `O(k + k·log(n/k))` (their existential bound).
//!
//! Measures the selective-family resolver with retirement against retiring
//! round-robin (`Θ(n)`), as ensembles under `StopRule::AllResolved` (a
//! run's latency ends when its last station has transmitted alone), and
//! fits the measured full-resolution latency against `k·log(n/k)+1` and
//! `n`. Full-resolution runs execute on the **sparse** engine: retirement is
//! feedback-driven, but a station changes only at its own success, a slot
//! the engine polls it in, so its hints are unconditional and the sweep
//! reaches the same `n` as EXP-A/B. Contested stretches go to the word
//! kernel, whose slots cost no polls.
//! Each row reports the sparse work counters next to the dense-equivalent
//! cost: on a simultaneous burst every pattern station stays awake for the
//! whole run, so the dense engine would pay exactly `slots × k` polls.
//!
//! `WAKEUP_ASSERT_SPARSE=1` (the CI smoke) turns the sparse-path
//! expectations into hard check failures: the selective rows must actually
//! have skipped slots and stayed far below the dense poll count — i.e. no
//! protocol silently fell back to `TxHint::Dense`.

use crate::experiment::{Check, Ctx, Experiment};
use crate::{Grid, TableMeter};
use mac_sim::engine::StopRule;
use wakeup_analysis::prelude::*;
use wakeup_analysis::Record;
use wakeup_core::prelude::*;

/// Registry entry.
pub const EXP: Experiment = Experiment {
    name: "exp_full_resolution",
    id: "EXP-KG",
    title: "EXP-KG — full conflict resolution (every station transmits)",
    claim: "Komlós–Greenberg: O(k + k·log(n/k)); time-division baseline: Θ(n)",
    grid: Grid::Sparse,
    full_budget_secs: 15,
    run,
};

fn run(ctx: &mut Ctx<'_>) {
    let runs = ctx.runs();
    let assert_sparse = ctx.assert_sparse();
    let mut table = Table::new([
        "n",
        "k",
        "selective (mean)",
        "selective (max)",
        "retiring RR (mean)",
        "unresolved",
        "polls/slot",
        "skip%",
        "dense-equiv speedup",
    ]);
    let mut points = Vec::new();
    let mut meter = TableMeter::new();

    // The resolvers ride the sparse path now, so the sweep uses the sparse
    // n range (k stays modest: full resolution needs ≥ k successes, and the
    // per-run cost scales with events ≈ k·passes, not slots — hence the
    // sweep caps the k universe at 64).
    // One construction cache across the whole sweep: the per-run provider
    // seeds recur in every `(n, k)` cell (same base seed, same run count),
    // so each run seed's doubling schedule is built once per `(n, ⌈log k⌉)`
    // and shared by every cell and worker after that.
    let cache = wakeup_core::ConstructionCache::new();
    for &n in &ctx.ns() {
        for &k in &ctx.ks(64.min(n)) {
            let spec = |name: &str| {
                let mut spec = ctx
                    .spec(n, runs, 8000, &format!("EXP-KG {name} n={n} k={k}"))
                    .with_max_slots(4 * u64::from(n) * 64);
                spec.sim.stop = StopRule::AllResolved;
                spec
            };
            let pattern_for = |seed| crate::burst_pattern(n, k as usize, 3, seed);
            let sel = run_ensemble_stream_cached(
                &spec("selective"),
                &cache,
                |cache, seed| {
                    let provider = FamilyProvider::Random { seed, delta: 1e-4 };
                    Box::new(FullResolution::cached(n, k, &provider, cache))
                },
                pattern_for,
            );
            let rr = run_ensemble_stream_cached(
                &spec("rr"),
                &cache,
                |_, _| Box::new(RetiringRoundRobin::new(n)),
                pattern_for,
            );
            // A cell where nothing resolved reads NaN, as `record` writes it,
            // and stays out of the fits.
            let resolved = |s: &EnsembleSummary, v: f64| if s.solved > 0 { v } else { f64::NAN };
            let (sel_mean, sel_max) = (resolved(&sel, sel.mean()), resolved(&sel, sel.max()));
            let rr_mean = resolved(&rr, rr.mean());
            let unresolved = sel.censored() + rr.censored();
            if sel.solved > 0 {
                points.push((f64::from(n), f64::from(k), sel_mean));
            }
            // Dense equivalent: every awake station polled every slot.
            let dense_polls = sel.work.slots * u64::from(k);
            let speedup = dense_polls as f64 / sel.work.polls.max(1) as f64;
            // k = 1 resolves in a slot or two — nothing to skip; assert
            // only where runs have silent stretches to win back.
            if assert_sparse && sel.work.slots > 4 * runs {
                ctx.check(
                    format!("selective resolver skipped slots at n={n}, k={k}"),
                    Check::Holds(
                        sel.work.skipped > 0,
                        format!("skipped {} (dense fallback?)", sel.work.skipped),
                    ),
                );
                ctx.check(
                    format!("sparse poll count ≪ dense at n={n}, k={k}"),
                    Check::Holds(
                        speedup > 2.0,
                        format!("sparse polls {} vs dense {dense_polls}", sel.work.polls),
                    ),
                );
            }
            meter.absorb(&sel);
            meter.absorb(&rr);
            ctx.row(
                "sweep",
                Record::new()
                    .with("n", n)
                    .with("k", k)
                    .with("selective_mean", sel_mean)
                    .with("selective_max", sel_max)
                    .with("retiring_rr_mean", rr_mean)
                    .with("unresolved", unresolved)
                    .with("slots", sel.work.slots)
                    .with("polls", sel.work.polls)
                    .with("skipped", sel.work.skipped),
            );
            table.push_row([
                n.to_string(),
                k.to_string(),
                format!("{sel_mean:.1}"),
                format!("{sel_max:.0}"),
                format!("{rr_mean:.1}"),
                unresolved.to_string(),
                format!("{:.4}", sel.work.polls_per_slot()),
                format!("{:.1}", 100.0 * sel.work.skip_fraction()),
                format!("{speedup:.0}x"),
            ]);
        }
    }
    ctx.table("main", &table);
    ctx.work("EXP-KG", &meter);
    if assert_sparse && ctx.failures() == 0 {
        ctx.note("sparse-path assertion: PASSED (skips > 0, speedup > 2x on every selective row)");
    }

    ctx.note("\nmodel ranking over selective-resolver means (best R² first):");
    for fit in wakeup_analysis::fit::rank_models(&points).iter().take(4) {
        ctx.note(format!("  {}", fit.render()));
        ctx.row(
            "fit",
            Record::new()
                .with("model", fit.model.name())
                .with("a", fit.a)
                .with("b", fit.b)
                .with("r2", fit.r2),
        );
    }
    let target = fit_model(Model::KLogNOverK, &points).expect("fit");
    let linear = fit_model(Model::K, &points).expect("fit");
    ctx.note(format!("\nKG-shape fit: {}", target.render()));
    // KG's bound is O(k + k·log(n/k)) — an upper bound with an additive
    // Θ(k) term. Measured growth of Θ(k) (each resolution needs its own
    // success slot) sits *inside* the bound; either shape fitting well
    // confirms it.
    if target.r2 >= 0.85 || linear.r2 >= 0.85 {
        ctx.note(format!(
            "UPPER BOUND CONSISTENT: growth is Θ(k)·const (R² = {:.3}) \
             within O(k + k·log(n/k)); the log factor is subdominant at \
             these sizes",
            linear.r2.max(target.r2)
        ));
    } else {
        ctx.note(format!(
            "shape unclear: neither k (R² = {:.3}) nor k·log(n/k)+1 (R² = {:.3}) \
             reaches R² 0.85",
            linear.r2, target.r2
        ));
    }
}
