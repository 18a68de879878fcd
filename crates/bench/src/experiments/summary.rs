//! TAB-SUMMARY — the paper's headline result table (abstract + §1):
//!
//! | Scenario | Bound |
//! |----------|-------|
//! | A (s known) | `Θ(k log(n/k) + 1)` |
//! | B (k known) | `Θ(k log(n/k) + 1)` |
//! | C (neither)  | `O(k log n log log n)` |
//!
//! Regenerated with measured latencies for each scenario's algorithm at a
//! grid of `(n, k)`, on the batch-cursor runner with streaming
//! aggregation.

use crate::experiment::{Check, Ctx, Experiment};
use crate::{Grid, TableMeter};
use mac_sim::Protocol;
use wakeup_analysis::prelude::*;
use wakeup_analysis::Record;
use wakeup_core::prelude::*;

/// Registry entry.
pub const EXP: Experiment = Experiment {
    name: "exp_summary",
    id: "TAB-SUMMARY",
    title: "TAB-SUMMARY — the three-scenario result table",
    claim: "A, B: Θ(k·log(n/k)+1); C: O(k·log n·log log n)",
    grid: Grid::Dense,
    full_budget_secs: 180,
    run,
};

fn run(ctx: &mut Ctx<'_>) {
    let runs = ctx.runs();
    let mut table = Table::new([
        "scenario",
        "bound",
        "n",
        "k",
        "measured mean",
        "measured max",
        "model value",
    ]);
    let mut meter = TableMeter::new();

    for &n in &ctx.ns() {
        for &k in &[2u32, 8, 32] {
            if k > n {
                continue;
            }
            let s_for = |seed: u64| (seed % 31) * 7;
            type Factory = Box<dyn Fn(u64) -> Box<dyn Protocol> + Sync>;
            let configs: Vec<(Scenario, Factory)> = vec![
                (
                    Scenario::A { s: 0 },
                    Box::new(move |seed| -> Box<dyn Protocol> {
                        Box::new(WakeupWithS::new(
                            n,
                            s_for(seed),
                            FamilyProvider::random_with_seed(seed),
                        ))
                    }),
                ),
                (
                    Scenario::B { k },
                    Box::new(move |seed| -> Box<dyn Protocol> {
                        Box::new(WakeupWithK::new(
                            n,
                            k,
                            FamilyProvider::random_with_seed(seed),
                        ))
                    }),
                ),
                (
                    Scenario::C,
                    Box::new(move |seed| -> Box<dyn Protocol> {
                        Box::new(WakeupN::new(MatrixParams::new(n).with_seed(seed)))
                    }),
                ),
            ];
            for (scenario, factory) in &configs {
                let res = run_ensemble_stream(
                    &ctx.spec(
                        n,
                        runs,
                        6000,
                        &format!("TAB-SUMMARY {} n={n} k={k}", scenario.label()),
                    ),
                    factory.as_ref(),
                    |seed| crate::burst_pattern(n, k as usize, s_for(seed), seed),
                );
                ctx.check(
                    format!("{} solves at n={n}, k={k}", scenario.label()),
                    Check::Solves(&res),
                );
                meter.absorb(&res);
                let model = match scenario {
                    Scenario::C => Model::KLogNLogLogN.eval(f64::from(n), f64::from(k)),
                    _ => Model::KLogNOverK.eval(f64::from(n), f64::from(k)),
                };
                ctx.row(
                    "sweep",
                    Record::new()
                        .with("scenario", scenario.label())
                        .with("bound", scenario.bound())
                        .with("n", n)
                        .with("k", k)
                        .with("model_value", model)
                        .with_all(res.record()),
                );
                table.push_row([
                    scenario.label().to_string(),
                    scenario.bound().to_string(),
                    n.to_string(),
                    k.to_string(),
                    format!("{:.1}", res.mean()),
                    format!("{:.0}", res.max()),
                    format!("{model:.0}"),
                ]);
            }
        }
    }
    ctx.table("main", &table);
    ctx.work("TAB-SUMMARY", &meter);
    ctx.note(
        "\n(measured/model ratios are implementation constants; the shape \
         columns are validated by EXP-A/B/C's fits)",
    );
}
