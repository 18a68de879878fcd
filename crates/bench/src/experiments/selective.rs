//! EXP-SEL — §3's combinatorial tool: `(n, 2^i)`-selective families of
//! length `O(2^i + 2^i·log(n/2^i))` exist (Komlós–Greenberg) and our
//! realizations are selective.
//!
//! Tables: family length vs the `k·log(n/k)+k` model for the randomized
//! construction; the explicit Kautz–Singleton sizes (`O(k² log² n)`) for
//! contrast; exhaustive verification on small universes and Monte-Carlo
//! falsification on large ones.

use crate::experiment::{Check, Ctx, Experiment};
use crate::{Grid, Scale};
use selectors::prelude::*;
use wakeup_analysis::{fit_model, Model, Record, Table};
use wakeup_core::FamilyProvider;

/// Registry entry.
pub const EXP: Experiment = Experiment {
    name: "exp_selective",
    id: "EXP-SEL",
    title: "EXP-SEL — selective family sizes and verification",
    claim: "random families: O(k + k·log(n/k)); Kautz–Singleton: O(k²·log² n)",
    grid: Grid::Dense,
    full_budget_secs: 180,
    run,
};

fn run(ctx: &mut Ctx<'_>) {
    let scale = ctx.scale();

    // --- size scaling ----------------------------------------------------
    let mut table = Table::new(["n", "k", "random len", "k·log2(n/k)+k", "KS len (q²)"]);
    let mut points = Vec::new();
    for &n in &ctx.ns() {
        for &k in &[2u32, 4, 8, 16, 32, 64] {
            if k > n {
                continue;
            }
            let rand_len = RandomFamilyBuilder::new(n, k).prescribed_length() as u64;
            let ks = KautzSingleton::new(n, k);
            let model = f64::from(k) * (f64::from(n) / f64::from(k)).log2() + f64::from(k);
            points.push((f64::from(n), f64::from(k), rand_len as f64));
            ctx.row(
                "sizes",
                Record::new()
                    .with("n", n)
                    .with("k", k)
                    .with("random_len", rand_len)
                    .with("model_len", model)
                    .with("kautz_singleton_len", ks.len() as u64),
            );
            table.push_row([
                n.to_string(),
                k.to_string(),
                rand_len.to_string(),
                format!("{model:.0}"),
                ks.len().to_string(),
            ]);
        }
    }
    ctx.table("sizes", &table);
    let fit = fit_model(Model::KLogNOverK, &points).expect("fit");
    ctx.note(format!("\nrandom-family length fit: {}", fit.render()));

    // --- exhaustive verification (ground truth, small n) -----------------
    ctx.note("\nexhaustive verification on small universes:");
    let mut vtab = Table::new(["n", "k", "construction", "targets checked", "verdict"]);
    for (n, k) in [(12u32, 2u32), (14, 3), (16, 4)] {
        let fam = FamilyProvider::default().family(n, k).materialize();
        let res = selectors::verify::selective_exhaustive(&fam);
        ctx.check(
            format!("random family selective at n={n}, k={k}"),
            Check::Holds(res.is_ok(), format!("{res:?}")),
        );
        vtab.push_row([
            n.to_string(),
            k.to_string(),
            "random".into(),
            res.as_ref()
                .map(|r| r.targets_checked.to_string())
                .unwrap_or_default(),
            if res.is_ok() {
                "selective ✓".into()
            } else {
                format!("FAILS: {res:?}")
            },
        ]);
        let ksf = KautzSingleton::new(n, k).materialize();
        let res = selectors::verify::strongly_selective_exhaustive(&ksf);
        ctx.check(
            format!("kautz-singleton strongly selective at n={n}, k={k}"),
            Check::Holds(res.is_ok(), format!("{res:?}")),
        );
        vtab.push_row([
            n.to_string(),
            k.to_string(),
            "kautz-singleton".into(),
            res.as_ref()
                .map(|r| r.targets_checked.to_string())
                .unwrap_or_default(),
            if res.is_ok() {
                "STRONGLY selective ✓".into()
            } else {
                format!("FAILS: {res:?}")
            },
        ]);
        let greedy = GreedyBuilder::new(n, k).build().expect("greedy");
        vtab.push_row([
            n.to_string(),
            k.to_string(),
            format!("greedy (len {})", greedy.len()),
            "-".into(),
            "selective by construction ✓".into(),
        ]);
    }
    ctx.table("verification", &vtab);

    // --- Monte-Carlo falsification at scale ------------------------------
    ctx.note("\nMonte-Carlo falsification at scale:");
    let trials = if scale == Scale::Full { 20_000 } else { 3_000 };
    let mut mtab = Table::new(["n", "k", "trials", "verdict"]);
    for (n, k) in [(1024u32, 16u32), (4096, 32), (16384, 64)] {
        // The oracle tests each target from the coins: nothing is materialized.
        let fam = RandomFamilyBuilder::new(n, k).seed(9).build_oracle();
        let res = verify::selective_monte_carlo_by(n, k, trials, 13, |x| fam.selects(x));
        ctx.check(
            format!("no Monte-Carlo counterexample at n={n}, k={k}"),
            Check::Holds(res.is_ok(), format!("{res:?}")),
        );
        ctx.row(
            "monte_carlo",
            Record::new()
                .with("n", n)
                .with("k", k)
                .with("trials", trials)
                .with("selective", res.is_ok()),
        );
        mtab.push_row([
            n.to_string(),
            k.to_string(),
            trials.to_string(),
            if res.is_ok() {
                "no counterexample".into()
            } else {
                format!("FAILS: {res:?}")
            },
        ]);
    }
    ctx.table("monte_carlo", &mtab);
}
