//! EXP-C — §5, Theorem 5.3: `wakeup(n)` resolves contention in
//! `O(k·log n·log log n)` with no knowledge of `s` or `k`.
//!
//! Workload: simultaneous `k`-bursts — the hard case for the matrix walk
//! (every station enters row 1 together; the walk must descend to density
//! `≈ 1/k`, which costs `Θ(k·log n·log log n)` slots once `k` exceeds the
//! `2^{log log n}` band the ρ-sweep absorbs inside each row). The greedy
//! *spoiler* adversary (delay-the-winner local search) probes beyond-burst
//! worst cases. Latency means are fitted against `k·log n·log log n` (the
//! claim) and `k·log² n` (the baseline shape it must beat).
//!
//! Since the epoch-scoped hint refactor the waking matrix answers
//! *structure-aware* hints — per-row PRF jumps on a hoisted mixing prefix,
//! with `Until::Slot` callbacks at row boundaries — so the sweep uses the
//! sparse `n` range (up to n = 2^20 at full scale) like EXP-A/B. Each row
//! reports the sparse work counters next to the dense-equivalent cost
//! (`slots × k`: on a burst every station stays operative to the end).

use crate::experiment::{Check, Ctx, Experiment};
use crate::{Grid, Scale, TableMeter};
use mac_sim::prelude::*;
use wakeup_analysis::prelude::*;
use wakeup_analysis::Record;
use wakeup_core::prelude::*;

/// Registry entry.
pub const EXP: Experiment = Experiment {
    name: "exp_scenario_c",
    id: "EXP-C",
    title: "EXP-C — Scenario C (nothing known): wakeup(n) over a waking matrix",
    claim: "O(k·log n·log log n); log log n factor above the Ω(k·log(n/k)) bound",
    grid: Grid::Sparse,
    full_budget_secs: 240,
    run,
};

fn run(ctx: &mut Ctx<'_>) {
    let scale = ctx.scale();
    let runs = ctx.runs();
    let mut table = Table::new([
        "n",
        "k",
        "mean",
        "ci95",
        "max",
        "bound c·k·L·W",
        "censored",
        "polls/slot",
        "skip%",
        "dense-equiv speedup",
    ]);
    let mut points = Vec::new();
    let mut meter = TableMeter::new();

    for &n in &ctx.ns() {
        let k_cap = match scale {
            Scale::Quick => 256.min(n / 4),
            Scale::Full => 1024.min(n / 4),
        };
        let ks: Vec<u32> = ctx
            .ks(n)
            .into_iter()
            .filter(|&k| k <= k_cap.max(4))
            .chain([k_cap].into_iter().filter(|&k| k >= 4))
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();
        for &k in &ks {
            let spec = ctx.spec(n, runs, 3000, &format!("EXP-C n={n} k={k}"));
            let res = run_ensemble_stream(
                &spec,
                |seed| -> Box<dyn mac_sim::Protocol> {
                    Box::new(WakeupN::new(MatrixParams::new(n).with_seed(seed)))
                },
                |seed| crate::burst_pattern(n, k as usize, 11, seed),
            );
            ctx.check(
                format!("scenario C solves at n={n}, k={k}"),
                Check::Solves(&res),
            );
            let matrix = WakingMatrix::new(MatrixParams::new(n));
            let theorem_horizon = 2
                * u64::from(matrix.c())
                * u64::from(k)
                * u64::from(matrix.rows())
                * u64::from(matrix.window());
            ctx.check(
                format!("within the Theorem 5.3 horizon at n={n}, k={k}"),
                Check::MaxWithin(&res, theorem_horizon as f64),
            );
            meter.absorb(&res);
            points.push((f64::from(n), f64::from(k), res.mean()));
            let dense_polls = res.work.slots * u64::from(k);
            ctx.row(
                "sweep",
                Record::new()
                    .with("n", n)
                    .with("k", k)
                    .with("horizon", theorem_horizon)
                    .with_all(res.record()),
            );
            table.push_row([
                n.to_string(),
                k.to_string(),
                format!("{:.1}", res.mean()),
                format!("{:.1}", res.ci95()),
                format!("{:.0}", res.max()),
                theorem_horizon.to_string(),
                res.censored().to_string(),
                format!("{:.4}", res.work.polls_per_slot()),
                format!("{:.1}", 100.0 * res.work.skip_fraction()),
                format!("{:.0}x", dense_polls as f64 / res.work.polls.max(1) as f64),
            ]);
        }
    }
    ctx.table("main", &table);
    ctx.work("EXP-C", &meter);

    ctx.note("\nmodel ranking over measured means (best R² first):");
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
    let claim = fit_model(Model::KLogNLogLogN, &points).expect("fit");
    ctx.note(format!("\npaper-shape fit: {}", claim.render()));
    // Theorem 5.3 is an UPPER bound (O(·), not Θ(·)): the verdict is
    // containment within the horizon (checked per row above) plus a strong
    // fit of the bound shape. On plain bursts the measured latency actually
    // grows like Θ(k·log log n) — the effective per-k constant is
    // L·W/2^W ≈ log log n — comfortably below the worst-case bound.
    if claim.r2 >= 0.85 {
        ctx.note(format!(
            "UPPER BOUND CONFIRMED: every run within the Theorem 5.3 horizon; \
             bound shape fits with R² = {:.3}",
            claim.r2
        ));
    } else {
        ctx.note(format!(
            "upper bound holds but the shape fit is weak (R² = {:.3})",
            claim.r2
        ));
    }

    // Spoiler adversary probe at a fixed configuration.
    let n = 256u32;
    let k = 8usize;
    ctx.note(format!("\nspoiler-adversary probe (n={n}, k={k}):"));
    let sim = Simulator::new(SimConfig::new(n));
    let protocol = WakeupN::new(MatrixParams::new(n).with_seed(7));
    let start = crate::burst_pattern(n, k, 0, 7);
    let base = sim.run(&protocol, &start, 7).unwrap().latency().unwrap();
    let spoiler = SpoilerSearch::new(40, 100_000);
    let spoiled = spoiler.search(&sim, &protocol, start, 7).unwrap();
    let worst = spoiled
        .outcome
        .latency()
        .map(|l| l.to_string())
        .unwrap_or_else(|| "censored".into());
    ctx.note(format!(
        "  baseline burst latency {base}, after {} spoiler moves: {worst}",
        spoiled.moves
    ));
    let matrix = WakingMatrix::new(MatrixParams::new(n));
    let horizon = 2
        * u64::from(matrix.c())
        * k as u64
        * u64::from(matrix.rows())
        * u64::from(matrix.window());
    ctx.note(format!(
        "  Theorem 5.3 horizon for this configuration: {horizon} slots"
    ));
    ctx.row(
        "spoiler",
        Record::new()
            .with("n", n)
            .with("k", k)
            .with("baseline_latency", base)
            .with("spoiler_moves", spoiled.moves)
            .with("spoiled_latency", worst)
            .with("horizon", horizon),
    );
}
