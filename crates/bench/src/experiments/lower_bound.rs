//! EXP-LB — Theorem 2.1: the wake-up problem requires `min{k, n−k+1}`
//! rounds, even with simultaneous start and known `k`, `n`.
//!
//! Runs the swap-chain adversary against round-robin and against a
//! selective-family schedule, reporting the rounds each schedule is forced
//! to spend versus the theoretical bound. Corollary 2.1's identity
//! `n−k+1 = Θ(k log(n/k)+1)` for `k > n/c` is tabulated alongside. The
//! per-`(n, k)` adversary runs are independent and fan out on the
//! batch-cursor runner (rows still print in sweep order).

use crate::experiment::{Check, Ctx, Experiment};
use crate::{Grid, Scale};
use selectors::schedule::{RoundRobinSchedule, ScheduleExt};
use wakeup_analysis::{Record, Table};
use wakeup_core::prelude::*;

/// Registry entry.
pub const EXP: Experiment = Experiment {
    name: "exp_lower_bound",
    id: "EXP-LB",
    title: "EXP-LB — Theorem 2.1 lower bound (swap-chain adversary)",
    claim: "any algorithm needs ≥ min{k, n−k+1} rounds; forced_rounds must meet it",
    grid: Grid::Dense,
    full_budget_secs: 30,
    run,
};

fn run(ctx: &mut Ctx<'_>) {
    let scale = ctx.scale();
    let ns: Vec<u32> = match scale {
        Scale::Quick => vec![32, 64, 128],
        Scale::Full => vec![32, 64, 128, 256, 512],
    };

    let mut table = Table::new([
        "n",
        "k",
        "bound min{k,n-k+1}",
        "forced (round-robin)",
        "distinct rounds",
        "forced (selective)",
    ]);

    let mut grid: Vec<(u32, u32)> = Vec::new();
    for &n in &ns {
        for k in [1u32, 2, 4, n / 4, n / 2, 3 * n / 4, n - 2, n - 1] {
            if (1..=n).contains(&k) {
                grid.push((n, k));
            }
        }
    }

    let (rows, _stats) = ctx.runner("EXP-LB").map(grid.len() as u64, |i| {
        let (n, k) = grid[i as usize];
        let adv = SwapChainAdversary::new(n, k);
        let rr = adv.run(&RoundRobinSchedule::new(n));
        // A selective-family schedule (the building block of the upper
        // bounds) is also subject to the lower bound.
        let fam = FamilyProvider::random_with_seed(1).family(n, k.max(2));
        let sel = adv.run(&fam.clone().cycle());
        (n, k, adv.bound(), rr, sel)
    });
    for (n, k, bound, rr, sel) in rows {
        ctx.check(
            format!("round-robin meets the bound at n={n}, k={k}"),
            Check::Holds(
                rr.forced_rounds >= bound,
                format!("forced {} vs bound {bound}", rr.forced_rounds),
            ),
        );
        ctx.row(
            "sweep",
            Record::new()
                .with("n", n)
                .with("k", k)
                .with("bound", bound)
                .with("forced_round_robin", rr.forced_rounds)
                .with("distinct_rounds", rr.distinct_rounds)
                .with("forced_selective", sel.forced_rounds)
                .with("selective_unresolved_set", sel.found_unisolated_set),
        );
        table.push_row([
            n.to_string(),
            k.to_string(),
            bound.to_string(),
            rr.forced_rounds.to_string(),
            rr.distinct_rounds.to_string(),
            if sel.found_unisolated_set {
                format!("{}+ (unresolved set)", sel.forced_rounds)
            } else {
                sel.forced_rounds.to_string()
            },
        ]);
    }
    ctx.table("main", &table);

    ctx.note("\nCorollary 2.1: for k > n/c, n−k+1 = Θ(k·log(n/k)+1):");
    let mut cor = Table::new(["n", "k", "n-k+1", "k·log2(n/k)+1", "ratio"]);
    let n = 1024u32;
    for k in [512u32, 768, 896, 1008, 1020] {
        let rhs = f64::from(k) * (f64::from(n) / f64::from(k)).log2() + 1.0;
        ctx.row(
            "corollary",
            Record::new()
                .with("n", n)
                .with("k", k)
                .with("envelope", u64::from(n - k + 1))
                .with("k_log_n_over_k", rhs)
                .with("ratio", f64::from(n - k + 1) / rhs.max(1e-9)),
        );
        cor.push_row([
            n.to_string(),
            k.to_string(),
            (n - k + 1).to_string(),
            format!("{rhs:.1}"),
            format!("{:.2}", f64::from(n - k + 1) / rhs.max(1e-9)),
        ]);
    }
    ctx.table("corollary", &cor);
    ctx.note("\n(The ratio stays Θ(1)·ln2-ish as k → n: the two bounds coincide.)");
}
