//! EXP-A — §3: `wakeup_with_s` resolves contention in `Θ(k·log(n/k) + 1)`
//! when the first wake-up slot `s` is known.
//!
//! Workload: simultaneous bursts at a known `s` (the hardest case for the
//! selective component — every awake station participates), with the
//! *adversarial* station block (the IDs owning round-robin's last turns),
//! so the measurement reflects the worst case the theorem bounds rather
//! than round-robin's lucky `n/k` average on random IDs. Reports mean/max
//! latency per `(n, k)` and fits the measured means **and the P² p90
//! curve** against the candidate model shapes; the paper's bound must rank
//! at the top and the absolute latency must stay below the round-robin
//! envelope `2n`.
//!
//! Since every protocol here rides the sparse engine, the full sweep
//! reaches `n = 2^20` (per-run cost is `O(events·log k)`, not `O(n)`); the
//! ensembles run on the batch-cursor runner and the table footer reports
//! the aggregated `WorkStats` and throughput.

use crate::experiment::{Check, Ctx, Experiment};
use crate::{Grid, TableMeter};
use mac_sim::Protocol;
use wakeup_analysis::prelude::*;
use wakeup_analysis::Record;
use wakeup_core::prelude::*;

/// Registry entry.
pub const EXP: Experiment = Experiment {
    name: "exp_scenario_a",
    id: "EXP-A",
    title: "EXP-A — Scenario A (s known): wakeup_with_s",
    claim: "Θ(k·log(n/k) + 1), optimal (Thm 2.1 + Clementi et al.)",
    grid: Grid::Sparse,
    full_budget_secs: 300,
    run,
};

fn run(ctx: &mut Ctx<'_>) {
    let runs = ctx.runs();
    let mut table = Table::new(["n", "k", "mean", "ci95", "max", "2n envelope", "censored"]);
    let mut points = Vec::new();
    let mut meter = TableMeter::new();

    for &n in &ctx.ns() {
        for &k in &ctx.ks(n) {
            let spec = ctx.spec(n, runs, 1000, &format!("EXP-A n={n} k={k}"));
            let res = run_ensemble_stream(
                &spec,
                |seed| -> Box<dyn Protocol> {
                    let s = (seed % 97) * 13;
                    Box::new(WakeupWithS::new(
                        n,
                        s,
                        FamilyProvider::Random { seed, delta: 1e-4 },
                    ))
                },
                |seed| {
                    let s = (seed % 97) * 13;
                    crate::worst_rr_pattern(n, k as usize, s)
                },
            );
            ctx.check(
                format!("scenario A solves at n={n}, k={k}"),
                Check::NoCensored(&res),
            );
            ctx.check(
                format!("within round-robin envelope at n={n}, k={k}"),
                Check::MaxWithin(&res, 2.0 * f64::from(n) + 1.0),
            );
            meter.absorb(&res);
            points.push(SweepPoint::of(n, k, &res));
            ctx.row(
                "sweep",
                Record::new()
                    .with("n", n)
                    .with("k", k)
                    .with("envelope", u64::from(2 * n))
                    .with_all(res.record()),
            );
            table.push_row([
                n.to_string(),
                k.to_string(),
                format!("{:.1}", res.mean()),
                format!("{:.1}", res.ci95()),
                format!("{:.0}", res.max()),
                (2 * n).to_string(),
                res.censored().to_string(),
            ]);
        }
    }
    ctx.table("main", &table);
    ctx.work("EXP-A", &meter);

    // Mean fits (the historical output), then the P² p90 curve: the bound
    // is worst-case, so the tail must grow with the claimed shape too.
    ctx.note("\nmodel ranking over measured means (best R² first):");
    for fit in rank_models_by(Metric::Mean, &points).iter().take(4) {
        ctx.note(format!("  {}", fit.render()));
        emit_fit(ctx, Metric::Mean, fit);
    }
    let target = fit_model_by(Model::KLogNOverK, Metric::Mean, &points).expect("fit");
    ctx.note(format!("\npaper-shape fit: {}", target.render()));
    ctx.note(crate::shape_verdict_by(
        &points,
        Metric::Mean,
        Model::KLogNOverK,
    ));

    ctx.note("\nmodel ranking over measured p90s (P² sketches, best R² first):");
    for fit in rank_models_by(Metric::P90, &points).iter().take(4) {
        ctx.note(format!("  {}", fit.render()));
        emit_fit(ctx, Metric::P90, fit);
    }
    let target_p90 = fit_model_by(Model::KLogNOverK, Metric::P90, &points).expect("fit");
    ctx.note(format!("\npaper-shape fit (p90): {}", target_p90.render()));
    ctx.note(crate::shape_verdict_by(
        &points,
        Metric::P90,
        Model::KLogNOverK,
    ));
}

fn emit_fit(ctx: &mut Ctx<'_>, metric: Metric, fit: &FitResult) {
    ctx.row(
        "fit",
        Record::new()
            .with("metric", metric.name())
            .with("model", fit.model.name())
            .with("a", fit.a)
            .with("b", fit.b)
            .with("r2", fit.r2),
    );
}
