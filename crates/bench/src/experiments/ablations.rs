//! EXP-ABL — ablations of the paper's design choices.
//!
//! * **ABL-CD** — collision detection: the paper's protocols are oblivious,
//!   so granting the stronger CD feedback changes nothing for them (measured
//!   identity), while feedback-driven BEB *requires* it;
//! * **ABL-RHO** — removing the `ρ(j)` density sweep from the waking matrix
//!   (the §5 design trick) measurably slows Scenario C;
//! * **ABL-C** — sensitivity of Scenario C to the constant `c`;
//! * **ABL-ENERGY** — transmissions per protocol (the extension metric);
//! * **ABL-BUDGET** — per-station transmission budgets (power-sensitive
//!   extension, ref. 19): how small a budget still solves wake-up;
//! * **ABL-ADV** — spoiler-adversary robustness across protocols.
//!
//! All ensembles run streaming on the work-stealing runner; the footer
//! reports the aggregated `WorkStats`.

use crate::experiment::{Check, Ctx, Experiment};
use crate::{Grid, TableMeter};
use mac_sim::prelude::*;
use wakeup_analysis::prelude::*;
use wakeup_analysis::Record;
use wakeup_core::prelude::*;

/// Registry entry.
pub const EXP: Experiment = Experiment {
    name: "exp_ablations",
    id: "EXP-ABL",
    title: "EXP-ABL — design-choice ablations",
    claim: "see DESIGN.md §6",
    grid: Grid::Dense,
    full_budget_secs: 120,
    run,
};

fn run(ctx: &mut Ctx<'_>) {
    let runs = ctx.runs();
    let n = 256u32;
    let k = 8usize;
    let mut meter = TableMeter::new();

    // --- ABL-CD ----------------------------------------------------------
    ctx.note("ABL-CD: feedback model (oblivious protocols must not change)");
    let mut cd_tab = Table::new(["protocol", "no-CD mean", "CD mean"]);
    for (name, factory) in [
        (
            "wakeup(n)",
            Box::new(|seed: u64| -> Box<dyn mac_sim::Protocol> {
                Box::new(WakeupN::new(MatrixParams::new(256).with_seed(seed)))
            }) as Box<dyn Fn(u64) -> Box<dyn mac_sim::Protocol> + Sync>,
        ),
        (
            "wakeup_with_k",
            Box::new(|seed: u64| -> Box<dyn mac_sim::Protocol> {
                Box::new(WakeupWithK::new(
                    256,
                    8,
                    FamilyProvider::random_with_seed(seed),
                ))
            }),
        ),
        (
            "BEB (feedback-driven)",
            Box::new(|_| -> Box<dyn mac_sim::Protocol> {
                Box::new(BinaryExponentialBackoff::new(256))
            }),
        ),
    ] {
        let no_cd = run_ensemble_stream(
            &ctx.spec(n, runs, 7000, &format!("ABL-CD {name} no-cd")),
            factory.as_ref(),
            |seed| crate::random_pattern(n, k, 16, seed),
        );
        let cd = run_ensemble_stream(
            &ctx.spec(n, runs, 7000, &format!("ABL-CD {name} cd"))
                .with_feedback(FeedbackModel::CollisionDetection),
            factory.as_ref(),
            |seed| crate::random_pattern(n, k, 16, seed),
        );
        meter.absorb(&no_cd);
        meter.absorb(&cd);
        ctx.row(
            "abl_cd",
            Record::new()
                .with("protocol", name)
                .with("no_cd_mean", no_cd.mean())
                .with("cd_mean", cd.mean()),
        );
        cd_tab.push_row([
            name.to_string(),
            format!("{:.1}", no_cd.mean()),
            format!("{:.1}", cd.mean()),
        ]);
    }
    ctx.table("abl_cd", &cd_tab);

    // --- ABL-RHO ----------------------------------------------------------
    ctx.note("\nABL-RHO: waking matrix with vs without the ρ(j) density sweep");
    let mut rho_tab = Table::new(["k", "with sweep (mean)", "without sweep (mean)", "slowdown"]);
    for kk in [4usize, 8, 16, 32] {
        let with = run_ensemble_stream(
            &ctx.spec(n, runs, 7100, &format!("ABL-RHO with k={kk}")),
            |seed| -> Box<dyn mac_sim::Protocol> {
                Box::new(WakeupN::new(MatrixParams::new(n).with_seed(seed)))
            },
            |seed| crate::burst_pattern(n, kk, 0, seed),
        );
        let without = run_ensemble_stream(
            &ctx.spec(n, runs, 7100, &format!("ABL-RHO without k={kk}")),
            |seed| -> Box<dyn mac_sim::Protocol> {
                Box::new(WakeupN::new(
                    MatrixParams::new(n).with_seed(seed).without_rho_sweep(),
                ))
            },
            |seed| crate::burst_pattern(n, kk, 0, seed),
        );
        ctx.check(format!("with-sweep solves at k={kk}"), Check::Solves(&with));
        meter.absorb(&with);
        meter.absorb(&without);
        let w = with.mean();
        ctx.row(
            "abl_rho",
            Record::new()
                .with("k", kk)
                .with("with_sweep_mean", w)
                .with("without_sweep_mean", crate::mean_or_nan(&without))
                .with("without_sweep_censored", without.censored()),
        );
        let (wo, slow) = if without.solved > 0 {
            let m = without.mean();
            (format!("{m:.1}"), format!("{:.2}×", m / w))
        } else {
            ("all censored".into(), "∞".into())
        };
        rho_tab.push_row([kk.to_string(), format!("{w:.1}"), wo, slow]);
    }
    ctx.table("abl_rho", &rho_tab);

    // --- ABL-C -------------------------------------------------------------
    ctx.note("\nABL-C: Scenario C sensitivity to the constant c (k = 64 so the");
    ctx.note("walk must descend past c-scaled row boundaries)");
    let mut c_tab = Table::new(["c", "mean latency", "censored"]);
    for c in [1u32, 2, 4, 8] {
        let res = run_ensemble_stream(
            &ctx.spec(n, runs, 7200, &format!("ABL-C c={c}")),
            move |seed| -> Box<dyn mac_sim::Protocol> {
                Box::new(WakeupN::new(MatrixParams::new(n).with_seed(seed).with_c(c)))
            },
            |seed| crate::burst_pattern(n, 64, 0, seed),
        );
        meter.absorb(&res);
        ctx.row(
            "abl_c",
            Record::new()
                .with("c", c)
                .with("mean", crate::mean_or_nan(&res))
                .with("censored", res.censored()),
        );
        c_tab.push_row([
            c.to_string(),
            if res.solved > 0 {
                format!("{:.1}", res.mean())
            } else {
                "-".into()
            },
            res.censored().to_string(),
        ]);
    }
    ctx.table("abl_c", &c_tab);

    // --- ABL-ENERGY ---------------------------------------------------------
    ctx.note("\nABL-ENERGY: mean transmissions per run (energy cost)");
    let mut e_tab = Table::new([
        "protocol",
        "mean latency",
        "mean transmissions",
        "mean collisions",
    ]);
    type Factory = Box<dyn Fn(u64) -> Box<dyn mac_sim::Protocol> + Sync>;
    let protos: Vec<(&str, Factory)> = vec![
        (
            "round-robin",
            Box::new(move |_| Box::new(RoundRobin::new(n))),
        ),
        (
            "wakeup_with_k",
            Box::new(move |seed| {
                Box::new(WakeupWithK::new(
                    n,
                    k as u32,
                    FamilyProvider::random_with_seed(seed),
                ))
            }),
        ),
        (
            "wakeup(n)",
            Box::new(move |seed| Box::new(WakeupN::new(MatrixParams::new(n).with_seed(seed)))),
        ),
        ("RPD", Box::new(move |_| Box::new(Rpd::new(n)))),
    ];
    for (name, factory) in &protos {
        let res = run_ensemble_stream(
            &ctx.spec(n, runs, 7300, &format!("ABL-ENERGY {name}")),
            factory.as_ref(),
            |seed| crate::burst_pattern(n, k, 0, seed),
        );
        meter.absorb(&res);
        ctx.row(
            "abl_energy",
            Record::new()
                .with("protocol", *name)
                .with("n", n)
                .with("k", k)
                .with_all(res.record()),
        );
        e_tab.push_row([
            name.to_string(),
            if res.solved > 0 {
                format!("{:.1}", res.mean())
            } else {
                "-".into()
            },
            format!("{:.1}", res.energy.mean_transmissions()),
            format!("{:.1}", res.energy.mean_collisions()),
        ]);
    }
    ctx.table("abl_energy", &e_tab);

    // --- ABL-BUDGET -----------------------------------------------------------
    ctx.note("\nABL-BUDGET: per-station transmission budgets (power-sensitive ext.)");
    let mut b_tab = Table::new(["protocol", "budget", "solved %", "mean latency"]);
    for budget in [1u64, 2, 4, 16] {
        for (name, mk) in [
            (
                "wakeup_with_k",
                Box::new(move |seed: u64| -> Box<dyn mac_sim::Protocol> {
                    Box::new(EnergyCapped::new(
                        WakeupWithK::new(n, k as u32, FamilyProvider::random_with_seed(seed)),
                        budget,
                    ))
                }) as Box<dyn Fn(u64) -> Box<dyn mac_sim::Protocol> + Sync>,
            ),
            (
                "wakeup(n)",
                Box::new(move |seed: u64| -> Box<dyn mac_sim::Protocol> {
                    Box::new(EnergyCapped::new(
                        WakeupN::new(MatrixParams::new(n).with_seed(seed)),
                        budget,
                    ))
                }),
            ),
            (
                "ALOHA 1/k",
                Box::new(move |_| -> Box<dyn mac_sim::Protocol> {
                    Box::new(EnergyCapped::new(Aloha::new(n, k as u32), budget))
                }),
            ),
        ] {
            let res = run_ensemble_stream(
                &ctx.spec(n, runs, 7500, &format!("ABL-BUDGET {name} b={budget}"))
                    .with_max_slots(20_000),
                mk.as_ref(),
                |seed| crate::burst_pattern(n, k, 0, seed),
            );
            meter.absorb(&res);
            ctx.row(
                "abl_budget",
                Record::new()
                    .with("protocol", name)
                    .with("budget", budget)
                    .with("solved", res.solved)
                    .with("runs", res.runs)
                    .with("mean", res.mean()),
            );
            b_tab.push_row([
                name.to_string(),
                budget.to_string(),
                format!("{:.0}%", 100.0 * res.solved as f64 / res.runs.max(1) as f64),
                if res.solved > 0 {
                    format!("{:.1}", res.mean())
                } else {
                    "-".into()
                },
            ]);
        }
    }
    ctx.table("abl_budget", &b_tab);

    // --- ABL-ADV -------------------------------------------------------------
    ctx.note("\nABL-ADV: spoiler adversary (delay-the-winner) vs random patterns");
    let mut a_tab = Table::new(["protocol", "random mean", "spoiled latency", "moves"]);
    let sim = Simulator::new(SimConfig::new(n));
    let spoiler = SpoilerSearch::new(32, 100_000);
    let adv_protos: Vec<(&str, Box<dyn mac_sim::Protocol>)> = vec![
        ("round-robin", Box::new(RoundRobin::new(n))),
        (
            "wakeup_with_k",
            Box::new(WakeupWithK::new(n, k as u32, FamilyProvider::default())),
        ),
        ("wakeup(n)", Box::new(WakeupN::new(MatrixParams::new(n)))),
    ];
    // Fixed deterministic protocols: the construction cache builds each
    // schedule/matrix once for the whole ensemble instead of once per run.
    let cache = wakeup_core::ConstructionCache::new();
    for (name, proto) in &adv_protos {
        let res = wakeup_analysis::run_ensemble_stream_cached(
            &ctx.spec(n, runs, 7400, &format!("ABL-ADV {name}")),
            &cache,
            |cache, _| -> Box<dyn mac_sim::Protocol> {
                // Note: same protocol object semantics per run; adversary
                // probes the fixed deterministic schedule.
                match *name {
                    "round-robin" => Box::new(RoundRobin::new(n)),
                    "wakeup_with_k" => Box::new(WakeupWithK::cached(
                        n,
                        k as u32,
                        &FamilyProvider::default(),
                        cache,
                    )),
                    _ => Box::new(WakeupN::cached(MatrixParams::new(n), cache)),
                }
            },
            |seed| crate::burst_pattern(n, k, 0, seed),
        );
        meter.absorb(&res);
        let start = crate::burst_pattern(n, k, 0, 99);
        let spoiled = spoiler.search(&sim, proto.as_ref(), start, 99).unwrap();
        ctx.row(
            "abl_adv",
            Record::new()
                .with("protocol", *name)
                .with("random_mean", crate::mean_or_nan(&res))
                .with(
                    "spoiled_latency",
                    spoiled.outcome.latency().map(|l| l as i64).unwrap_or(-1),
                )
                .with("spoiler_moves", spoiled.moves),
        );
        a_tab.push_row([
            name.to_string(),
            if res.solved > 0 {
                format!("{:.1}", res.mean())
            } else {
                "-".into()
            },
            spoiled
                .outcome
                .latency()
                .map(|l| l.to_string())
                .unwrap_or_else(|| "censored".into()),
            spoiled.moves.to_string(),
        ]);
    }
    ctx.table("abl_adv", &a_tab);
    ctx.work("EXP-ABL", &meter);
}
