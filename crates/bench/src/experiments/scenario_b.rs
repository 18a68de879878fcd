//! EXP-B — §4: `wakeup_with_k` resolves contention in `Θ(k·log(n/k) + 1)`
//! when the contention bound `k` is known, under *staggered* wake-ups.
//!
//! Workload: the non-synchronized patterns Scenario B is designed for —
//! uniform windows, staggered arithmetic arrivals and bursts. Reports
//! per-pattern-family latency and the model-shape fit. Runs on the
//! batch-cursor runner with the sparse-engine sweep up to `n = 2^20`; the
//! footer reports per-table `WorkStats` and throughput.

use crate::experiment::{Check, Ctx, Experiment};
use crate::{Grid, TableMeter};
use mac_sim::{Protocol, WakePattern};
use wakeup_analysis::prelude::*;
use wakeup_analysis::Record;
use wakeup_core::prelude::*;

/// Registry entry.
pub const EXP: Experiment = Experiment {
    name: "exp_scenario_b",
    id: "EXP-B",
    title: "EXP-B — Scenario B (k known): wakeup_with_k",
    claim: "Θ(k·log(n/k) + 1) under arbitrary wake-up patterns",
    grid: Grid::Sparse,
    full_budget_secs: 300,
    run,
};

fn staggered_pattern(n: u32, k: usize, seed: u64) -> WakePattern {
    use mac_sim::pattern::IdChoice;
    use rand::SeedableRng;
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    let ids = IdChoice::Random.pick(n, k, &mut rng);
    WakePattern::staggered(&ids, seed % 53, 1 + seed % 11).unwrap()
}

fn run(ctx: &mut Ctx<'_>) {
    let runs = ctx.runs();
    type PatternFn = fn(u32, usize, u64) -> WakePattern;
    let patterns: [(&str, PatternFn); 3] = [
        ("uniform-window", |n, k, seed| {
            crate::random_pattern(n, k, 64, seed)
        }),
        ("staggered", staggered_pattern),
        ("worst-block burst", |n, k, _seed| {
            crate::worst_rr_pattern(n, k, 7)
        }),
    ];

    let mut table = Table::new(["pattern", "n", "k", "mean", "max", "censored"]);
    let mut points = Vec::new();
    let mut meter = TableMeter::new();

    for &n in &ctx.ns() {
        for &k in &ctx.ks(n) {
            for (pname, pfn) in &patterns {
                let spec = ctx.spec(n, runs, 2000, &format!("EXP-B {pname} n={n} k={k}"));
                let res = run_ensemble_stream(
                    &spec,
                    |seed| -> Box<dyn Protocol> {
                        Box::new(WakeupWithK::new(
                            n,
                            k,
                            FamilyProvider::Random { seed, delta: 1e-4 },
                        ))
                    },
                    |seed| pfn(n, k as usize, seed),
                );
                ctx.check(
                    format!("solves: {pname} n={n} k={k}"),
                    Check::NoCensored(&res),
                );
                ctx.check(
                    format!("within round-robin envelope: {pname} n={n} k={k}"),
                    Check::MaxWithin(&res, 2.0 * f64::from(n) + 1.0),
                );
                meter.absorb(&res);
                if *pname == "worst-block burst" {
                    points.push((f64::from(n), f64::from(k), res.mean()));
                }
                ctx.row(
                    "sweep",
                    Record::new()
                        .with("pattern", *pname)
                        .with("n", n)
                        .with("k", k)
                        .with_all(res.record()),
                );
                table.push_row([
                    pname.to_string(),
                    n.to_string(),
                    k.to_string(),
                    format!("{:.1}", res.mean()),
                    format!("{:.0}", res.max()),
                    res.censored().to_string(),
                ]);
            }
        }
    }
    ctx.table("main", &table);
    ctx.work("EXP-B", &meter);

    ctx.note("\nmodel ranking over burst means (best R² first):");
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
    ctx.note(format!("\npaper-shape fit: {}", target.render()));
    ctx.note(crate::shape_verdict(&points, Model::KLogNOverK));
}
