//! EXP-RAND — §6: randomized solutions.
//!
//! * RPD accomplishes wake-up in `O(log n)` expected time (Jurdziński &
//!   Stachowiak), independent of `k` and of the wake-up pattern;
//! * with known `k`, RPD with period `2⌈log k⌉` achieves `O(log k)`,
//!   matching the Kushilevitz–Mansour `Ω(log k)` lower bound;
//! * classical baselines (slotted ALOHA at `p = 1/k`, binary exponential
//!   backoff) for context.
//!
//! Streaming ensembles on the batch-cursor runner (randomized protocols
//! mean many cheap runs — exactly the workload batching amortizes).

use crate::experiment::{Check, Ctx, Experiment};
use crate::{Grid, TableMeter};
use mac_sim::Protocol;
use wakeup_analysis::prelude::*;
use wakeup_analysis::Record;
use wakeup_core::prelude::*;

/// Registry entry.
pub const EXP: Experiment = Experiment {
    name: "exp_randomized",
    id: "EXP-RAND",
    title: "EXP-RAND — §6 randomized protocols",
    claim: "RPD: O(log n) expected; RPD-k: O(log k) ≍ Ω(log k) lower bound",
    grid: Grid::Dense,
    full_budget_secs: 60,
    run,
};

fn run(ctx: &mut Ctx<'_>) {
    let runs = ctx.runs() * 4; // randomized: more runs, cheap ones
    let k = 4usize;
    let mut meter = TableMeter::new();

    // --- RPD expected time vs log n ------------------------------------
    let mut rpd_points = Vec::new();
    let mut table = Table::new(["n", "k", "RPD mean", "log2 n", "RPD-k mean", "log2 k"]);
    for &n in &ctx.ns() {
        let rpd = run_ensemble_stream(
            &ctx.spec(n, runs, 5000, &format!("EXP-RAND rpd n={n}"))
                .with_max_slots(1_000_000),
            |_| -> Box<dyn Protocol> { Box::new(Rpd::new(n)) },
            |seed| crate::random_pattern(n, k, 16, seed),
        );
        let rpdk = run_ensemble_stream(
            &ctx.spec(n, runs, 5000, &format!("EXP-RAND rpdk n={n}"))
                .with_max_slots(1_000_000),
            |_| -> Box<dyn Protocol> { Box::new(RpdK::new(n, k as u32)) },
            |seed| crate::random_pattern(n, k, 16, seed),
        );
        ctx.check(format!("RPD solves at n={n}"), Check::Solves(&rpd));
        ctx.check(format!("RPD-k solves at n={n}"), Check::Solves(&rpdk));
        meter.absorb(&rpd);
        meter.absorb(&rpdk);
        rpd_points.push((f64::from(n), k as f64, rpd.mean()));
        ctx.row(
            "rpd_sweep",
            Record::new()
                .with("n", n)
                .with("k", k)
                .with("rpd_mean", rpd.mean())
                .with("rpdk_mean", rpdk.mean())
                .with("log2_n", f64::from(n).log2())
                .with("log2_k", (k as f64).log2()),
        );
        table.push_row([
            n.to_string(),
            k.to_string(),
            format!("{:.1}", rpd.mean()),
            format!("{:.1}", f64::from(n).log2()),
            format!("{:.1}", rpdk.mean()),
            format!("{:.1}", (k as f64).log2()),
        ]);
    }
    ctx.table("rpd", &table);
    let fit = fit_model(Model::LogN, &rpd_points).expect("fit");
    ctx.note(format!("\nRPD shape fit: {}", fit.render()));

    // --- RPD-k vs the Ω(log k) lower bound ------------------------------
    ctx.note("\nRPD-k expected latency vs k (n fixed), with the Ω(log k) reference:");
    let n = *ctx.ns().last().unwrap();
    let mut ktab = Table::new(["n", "k", "RPD-k mean", "log2 k (lower-bound shape)"]);
    let mut k_points = Vec::new();
    for kk in [2u32, 4, 8, 16, 32, 64] {
        let res = run_ensemble_stream(
            &ctx.spec(n, runs, 5100, &format!("EXP-RAND rpdk k={kk}"))
                .with_max_slots(1_000_000),
            |_| -> Box<dyn Protocol> { Box::new(RpdK::new(n, kk)) },
            |seed| crate::burst_pattern(n, kk as usize, 3, seed),
        );
        ctx.check(format!("RPD-k solves at k={kk}"), Check::Solves(&res));
        meter.absorb(&res);
        k_points.push((f64::from(n), f64::from(kk), res.mean()));
        ctx.row(
            "rpdk_sweep",
            Record::new()
                .with("n", n)
                .with("k", kk)
                .with("mean", res.mean())
                .with("log2_k", f64::from(kk).log2()),
        );
        ktab.push_row([
            n.to_string(),
            kk.to_string(),
            format!("{:.1}", res.mean()),
            format!("{:.1}", f64::from(kk).log2()),
        ]);
    }
    ctx.table("rpdk", &ktab);
    let kfit = fit_model(Model::LogK, &k_points).expect("fit");
    ctx.note(format!("RPD-k shape fit: {}", kfit.render()));

    // --- baseline comparison at one configuration -----------------------
    ctx.note(format!(
        "\nbaseline comparison (n={n}, k=8, simultaneous burst):"
    ));
    let mut btab = Table::new(["protocol", "mean", "p90", "max"]);
    type Factory = Box<dyn Fn(u64) -> Box<dyn Protocol> + Sync>;
    let protocols: Vec<(&str, Factory)> = vec![
        ("RPD", Box::new(move |_| Box::new(Rpd::new(n)))),
        ("RPD-k", Box::new(move |_| Box::new(RpdK::new(n, 8)))),
        ("ALOHA 1/k", Box::new(move |_| Box::new(Aloha::new(n, 8)))),
        (
            "BEB",
            Box::new(move |_| Box::new(BinaryExponentialBackoff::new(n))),
        ),
    ];
    for (name, factory) in &protocols {
        let res = run_ensemble_stream(
            &ctx.spec(n, runs, 5200, &format!("EXP-RAND {name}"))
                .with_max_slots(1_000_000),
            factory.as_ref(),
            |seed| crate::burst_pattern(n, 8, 0, seed),
        );
        ctx.check(format!("{name} solves"), Check::Solves(&res));
        meter.absorb(&res);
        ctx.row(
            "baselines",
            Record::new()
                .with("protocol", *name)
                .with("n", n)
                .with("k", 8u64)
                .with_all(res.record()),
        );
        btab.push_row([
            name.to_string(),
            format!("{:.1}", res.mean()),
            format!("{:.1}", res.p90()),
            format!("{:.0}", res.max()),
        ]);
    }
    ctx.table("baselines", &btab);
    ctx.work("EXP-RAND", &meter);
}
