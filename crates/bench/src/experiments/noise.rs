//! EXP-NOISE — graceful degradation under channel faults: erasure sweeps
//! and capture effects.
//!
//! The fault layer perturbs the ground-truth slot outcome *before* it
//! reaches feedback, transcript, and stop rule ([`ChannelModel`]): a
//! success can be erased to silence, a collision can be captured by one
//! transmitter. Fault draws are
//! pure in `(run seed, slot)` with a shared hash threshold, so the fault
//! sets are **nested** across rates: every slot erased at rate `p` is also
//! erased at any rate `p′ > p`. That coupling turns two qualitative claims
//! into per-seed deterministic facts this experiment checks hard:
//!
//! * **Erasures only delay.** Until the first erased success the faulty and
//!   fault-free runs are identical, so first-success latency is pointwise
//!   monotone non-decreasing in the erasure rate.
//! * **Captures only help.** Under first-success semantics a captured
//!   collision ends the run at a slot where the ideal channel kept going,
//!   so latency is pointwise monotone non-increasing in the capture rate.
//!
//! On top of the monotonicity staircase, the round-robin rows check the
//! retry model quantitatively: a round-robin winner whose success is erased
//! retries one cycle (`n` slots) later and each retry independently
//! survives with probability `1 − p`, so the mean degrades by
//! `≈ n·p/(1−p)` — the sweep asserts it stays within a slack factor of
//! that bound.
//!
//! `WAKEUP_ASSERT_CLASSES=1` (the CI smoke) re-runs every erasure cell
//! under [`PopulationMode::Classes`](mac_sim::PopulationMode::Classes) and
//! turns bit-identity of the aggregates — fault counters included — into
//! hard check failures: fault injection is engine-path-independent.

use crate::experiment::{Check, Ctx, Experiment};
use crate::{random_pattern, Grid};
use mac_sim::{ChannelModel, FeedbackModel, Protocol, WakePattern};
use wakeup_analysis::ensemble::EnsembleSummary;
use wakeup_analysis::prelude::*;
use wakeup_analysis::Record;
use wakeup_core::prelude::*;

/// Registry entry.
pub const EXP: Experiment = Experiment {
    name: "exp_noise",
    id: "EXP-NOISE",
    title: "EXP-NOISE — degradation under channel faults (erasure, capture)",
    claim: "erasures delay monotonically, ≈ n·p/(1−p) for round-robin; captures only help",
    grid: Grid::Sparse,
    full_budget_secs: 60,
    run,
};

/// Erasure rates of the sweep, in parts-per-million (0%, 5%, 15%, 30%).
const ERASURE_PPM: [u32; 4] = [0, 50_000, 150_000, 300_000];

/// Contending stations per run.
const K: u32 = 8;

/// The universe sizes of the noise sweep: the sparse grid capped at
/// 2^16 — the sweep's subject is the fault layer, not engine scale.
fn noise_ns(ctx: &Ctx<'_>) -> Vec<u32> {
    let ns: Vec<u32> = ctx.ns().into_iter().filter(|&n| n <= 1 << 16).collect();
    match (ns.first(), ns.last()) {
        (Some(&lo), Some(&hi)) if lo != hi => vec![lo, hi],
        (Some(&lo), _) => vec![lo],
        _ => vec![256],
    }
}

fn run(ctx: &mut Ctx<'_>) {
    let runs = ctx.runs();
    let assert_classes = ctx.assert_classes();

    // --- erasure sweep ---------------------------------------------------
    let mut table = Table::new([
        "protocol", "n", "erasure", "mean", "max", "worst", "erasures", "censored",
    ]);
    let cache = ConstructionCache::new();
    for &n in &noise_ns(ctx) {
        for proto_name in ["round_robin", "wakeup_with_s"] {
            let mut baseline: Option<EnsembleSummary> = None;
            let mut prev_mean = f64::NEG_INFINITY;
            for ppm in ERASURE_PPM {
                let p = ppm as f64 / 1e6;
                let label = format!("EXP-NOISE {proto_name} n={n} p={ppm}ppm");
                let channel = ChannelModel::ideal().with_erasure_ppm(ppm);
                let spec = ctx
                    .spec(n, runs, 31_000, &label)
                    .with_max_slots(32 * u64::from(n))
                    .with_channel(channel);
                let res = run_noise_ensemble(&spec, &cache, proto_name, n);
                ctx.check(
                    format!("{proto_name} solves at n={n}, erasure {ppm} ppm"),
                    Check::NoCensored(&res),
                );
                // Nested fault draws: latency is pointwise non-decreasing
                // in the erasure rate, so the ensemble mean must be too.
                ctx.check(
                    format!("{proto_name} mean monotone at n={n}, erasure {ppm} ppm"),
                    Check::Holds(
                        res.mean() >= prev_mean,
                        format!("mean {:.1} vs previous rate's {:.1}", res.mean(), prev_mean),
                    ),
                );
                prev_mean = res.mean();
                match &baseline {
                    None => {
                        ctx.check(
                            format!("{proto_name} fault-free at n={n}: no fault fired"),
                            Check::Holds(!res.faults.any(), format!("{:?}", res.faults)),
                        );
                        baseline = Some(res.clone());
                    }
                    Some(base) if proto_name == "round_robin" => {
                        // Retry model: each erased success costs one more
                        // n-slot cycle; expected retries p/(1−p). Slack 3×
                        // plus one cycle absorbs small-ensemble variance.
                        let bound =
                            base.mean() + f64::from(n) * (3.0 * p / (1.0 - p)) + f64::from(n);
                        ctx.check(
                            format!("{proto_name} degradation bounded at n={n}, erasure {ppm} ppm"),
                            Check::Holds(
                                res.mean() <= bound,
                                format!(
                                    "mean {:.1} vs retry-model bound {:.1} (baseline {:.1})",
                                    res.mean(),
                                    bound,
                                    base.mean()
                                ),
                            ),
                        );
                    }
                    Some(_) => {}
                }
                if assert_classes {
                    let classed = run_noise_ensemble(
                        &ctx.spec(n, runs, 31_000, &format!("{label} classes"))
                            .with_max_slots(32 * u64::from(n))
                            .with_channel(channel)
                            .with_classes()
                            .without_per_station_detail(),
                        &cache,
                        proto_name,
                        n,
                    );
                    check_identical(ctx, proto_name, n, ppm, &res, &classed);
                }
                emit_cell(ctx, &mut table, proto_name, n, "erasure", ppm, &res);
            }
        }
    }
    ctx.table("erasure", &table);

    // --- capture arm -----------------------------------------------------
    // Slotted ALOHA on a simultaneous burst collides constantly under
    // collision detection — the natural subject for capture. Nested draws
    // again: a captured slot stays captured at any higher rate, so latency
    // is pointwise non-increasing in the capture rate.
    let mut ctab = Table::new([
        "n",
        "capture",
        "false-coll",
        "mean",
        "max",
        "captures",
        "false_collisions",
    ]);
    for &n in &noise_ns(ctx) {
        let mut base_mean = f64::INFINITY;
        for (cap_ppm, fc_ppm) in [(0u32, 0u32), (200_000, 0), (200_000, 50_000)] {
            let label = format!("EXP-NOISE aloha n={n} cap={cap_ppm}ppm fc={fc_ppm}ppm");
            let channel = ChannelModel::ideal()
                .with_capture_ppm(cap_ppm)
                .with_false_collision_ppm(fc_ppm);
            let spec = ctx
                .spec(n, runs, 47_000, &label)
                .with_feedback(FeedbackModel::CollisionDetection)
                .with_max_slots(32 * u64::from(n))
                .with_channel(channel);
            let res = run_ensemble_stream(
                &spec,
                |_| -> Box<dyn Protocol> { Box::new(Aloha::new(n, K)) },
                |seed| {
                    let s = (seed % 97) * 13;
                    crate::burst_pattern(n, K as usize, s, seed)
                },
            );
            ctx.check(
                format!("aloha solves at n={n}, capture {cap_ppm} ppm, false-coll {fc_ppm} ppm"),
                Check::NoCensored(&res),
            );
            if cap_ppm == 0 {
                base_mean = res.mean();
            } else if fc_ppm == 0 {
                ctx.check(
                    format!("capture only helps at n={n}"),
                    Check::Holds(
                        res.mean() <= base_mean,
                        format!("mean {:.1} vs ideal-channel {:.1}", res.mean(), base_mean),
                    ),
                );
            }
            ctx.row(
                "capture",
                Record::new()
                    .with("n", n)
                    .with("k", K)
                    .with("capture_ppm", cap_ppm)
                    .with("false_collision_ppm", fc_ppm)
                    .with("captures", res.faults.captures)
                    .with("false_collisions", res.faults.false_collisions)
                    .with_all(res.record()),
            );
            ctab.push_row([
                n.to_string(),
                format!("{:.0}%", f64::from(cap_ppm) / 1e4),
                format!("{:.0}%", f64::from(fc_ppm) / 1e4),
                format!("{:.1}", res.mean()),
                format!("{:.0}", res.max()),
                res.faults.captures.to_string(),
                res.faults.false_collisions.to_string(),
            ]);
        }
    }
    ctx.table("capture", &ctab);
    if assert_classes && ctx.failures() == 0 {
        ctx.note("fault-layer assertion: PASSED (classed erasure cells bit-identical)");
    }
}

/// One erasure cell: `runs` faulty-channel runs of `proto_name` with `K`
/// contenders waking across a window (round-robin) or as a block at the
/// protocol's known `s` (`wakeup_with_s`).
fn run_noise_ensemble(
    spec: &wakeup_analysis::EnsembleSpec,
    cache: &ConstructionCache,
    proto_name: &str,
    n: u32,
) -> EnsembleSummary {
    match proto_name {
        "round_robin" => run_ensemble_stream(
            spec,
            |_| -> Box<dyn Protocol> { Box::new(RoundRobin::new(n)) },
            |seed| random_pattern(n, K as usize, u64::from(n), seed),
        ),
        "wakeup_with_s" => run_ensemble_stream_cached(
            spec,
            cache,
            |cache, seed| -> Box<dyn Protocol> {
                let s = (seed % 97) * 13;
                Box::new(WakeupWithS::cached(n, s, &FamilyProvider::default(), cache))
            },
            |seed| {
                let s = (seed % 97) * 13;
                WakePattern::range(1, K + 1, s).expect("valid block")
            },
        ),
        other => unreachable!("unknown noise protocol {other}"),
    }
}

/// Emit one erasure cell's sweep row and pretty-table row.
fn emit_cell(
    ctx: &mut Ctx<'_>,
    table: &mut Table,
    proto_name: &str,
    n: u32,
    fault: &str,
    ppm: u32,
    res: &EnsembleSummary,
) {
    ctx.row(
        "sweep",
        Record::new()
            .with("protocol", proto_name)
            .with("n", n)
            .with("k", K)
            .with("fault", fault)
            .with("ppm", ppm)
            .with("erasures", res.faults.erasures)
            .with_all(res.record()),
    );
    table.push_row([
        proto_name.to_string(),
        n.to_string(),
        format!("{:.0}%", f64::from(ppm) / 1e4),
        format!("{:.1}", res.mean()),
        format!("{:.0}", res.max()),
        res.worst.to_string(),
        res.faults.erasures.to_string(),
        res.censored().to_string(),
    ]);
}

/// A classed and a concrete run of the same faulty cell must agree exactly
/// on every observable aggregate **including the fault counters** — the
/// channel perturbs outcomes, never engine-path determinism.
/// (`false_collisions` is excluded like `polls`: only materialized silent
/// slots can be misheard, and the erasure arm never arms mishearing.)
fn check_identical(
    ctx: &mut Ctx<'_>,
    proto_name: &str,
    n: u32,
    ppm: u32,
    concrete: &EnsembleSummary,
    classed: &EnsembleSummary,
) {
    let same = classed.runs == concrete.runs
        && classed.solved == concrete.solved
        && classed.worst == concrete.worst
        && classed.mean().to_bits() == concrete.mean().to_bits()
        && classed.max().to_bits() == concrete.max().to_bits()
        && classed.energy.total_transmissions == concrete.energy.total_transmissions
        && classed.energy.total_collisions == concrete.energy.total_collisions
        && classed.work.slots == concrete.work.slots
        && classed.faults.erasures == concrete.faults.erasures
        && classed.faults.captures == concrete.faults.captures
        && classed.faults.churn_crashes == concrete.faults.churn_crashes
        && classed.faults.churn_rewakes == concrete.faults.churn_rewakes;
    ctx.check(
        format!("{proto_name} classes ≡ concrete at n={n}, erasure {ppm} ppm"),
        Check::Holds(
            same,
            format!(
                "classed mean {} erasures {} vs concrete mean {} erasures {}",
                classed.mean(),
                classed.faults.erasures,
                concrete.mean(),
                concrete.faults.erasures,
            ),
        ),
    );
}
