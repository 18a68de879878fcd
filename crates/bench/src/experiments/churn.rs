//! EXP-CHURN — graceful degradation under station churn: crashes,
//! re-wakes, and permanent leaves.
//!
//! The churn layer ([`ChurnScript`]) crashes awake stations mid-run and
//! optionally re-wakes them after a fixed delay.
//! Fates are pure in `(run seed, station id, wake slot)` and drawn against
//! a shared hash threshold, so the crashed-station sets are **nested**
//! across rates: every station that crashes at rate `p` also crashes at
//! any rate `p′ > p` — the sweep checks the crash counters climb the
//! staircase accordingly.
//!
//! Degradation stays bounded because a protocol that cycles through the
//! universe never depends on one station: when the would-be winner
//! crashes, another awake station's turn arrives within one cycle, so the
//! mean moves by at most ≈ one extra cycle even at a 30% crash rate. The
//! permanent-leave arm removes the safety net of re-wakes and reports
//! censoring honestly: a run whose every contender leaves before a
//! success cannot solve, and the sweep's `censored` column says so rather
//! than folding those runs into the latency statistics.
//!
//! `WAKEUP_ASSERT_CLASSES=1` (the CI smoke) re-runs every cell under
//! [`PopulationMode::Classes`](mac_sim::PopulationMode::Classes) and turns
//! bit-identity of the aggregates — churn counters included — into hard
//! check failures: a churned member leaves an equivalence class exactly
//! the way a retired one does.

use crate::experiment::{Check, Ctx, Experiment};
use crate::{burst_pattern, Grid};
use mac_sim::{ChurnScript, Protocol, RandomChurn, WakePattern};
use wakeup_analysis::ensemble::EnsembleSummary;
use wakeup_analysis::prelude::*;
use wakeup_analysis::Record;
use wakeup_core::prelude::*;

/// Registry entry.
pub const EXP: Experiment = Experiment {
    name: "exp_churn",
    id: "EXP-CHURN",
    title: "EXP-CHURN — degradation under station churn (crash, re-wake, leave)",
    claim: "crash sets nest across rates; cycling protocols degrade by ≈ one cycle",
    grid: Grid::Sparse,
    full_budget_secs: 60,
    run,
};

/// Crash rates of the sweep, in parts-per-million (0%, 10%, 30%).
const CRASH_PPM: [u32; 3] = [0, 100_000, 300_000];

/// Contending stations per run — enough that losing a few to churn leaves
/// live contenders with overwhelming probability.
const K: u32 = 16;

/// The universe sizes of the churn sweep (sparse grid capped at 2^16 —
/// the subject is the churn layer, not engine scale).
fn churn_ns(ctx: &Ctx<'_>) -> Vec<u32> {
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

    let cache = ConstructionCache::new();
    let mut table = Table::new([
        "protocol", "n", "crash", "re-wake", "mean", "worst", "crashes", "rewakes", "censored",
    ]);
    for &n in &churn_ns(ctx) {
        // Crashes land within half a cycle of the wake; re-wakes follow a
        // quarter-cycle later — brief absences a cycling protocol rides out.
        let lifetime = u64::from(n) / 2 + 1;
        let rewake_after = u64::from(n) / 4 + 1;
        for proto_name in ["round_robin", "wakeup_with_s"] {
            let mut base_mean = f64::NAN;
            let mut prev_crashes = 0u64;
            for ppm in CRASH_PPM {
                let churn = ChurnScript::random(RandomChurn {
                    crash_ppm: ppm,
                    lifetime,
                    rewake_after: Some(rewake_after),
                })
                .expect("valid churn");
                let label = format!("EXP-CHURN {proto_name} n={n} crash={ppm}ppm");
                let res = run_churn_cell(ctx, &cache, proto_name, n, runs, &label, &churn);
                ctx.check(
                    format!("{proto_name} solves at n={n}, crash {ppm} ppm (re-wake)"),
                    Check::NoCensored(&res),
                );
                ctx.check(
                    format!("{proto_name} re-wakes ≤ crashes at n={n}, crash {ppm} ppm"),
                    Check::Holds(
                        res.faults.churn_rewakes <= res.faults.churn_crashes,
                        format!(
                            "{} re-wakes vs {} crashes",
                            res.faults.churn_rewakes, res.faults.churn_crashes
                        ),
                    ),
                );
                // Nested fates: the crashed-station set only grows with the
                // rate, so the ensemble crash counter must too.
                ctx.check(
                    format!("{proto_name} crash staircase at n={n}, crash {ppm} ppm"),
                    Check::Holds(
                        res.faults.churn_crashes >= prev_crashes,
                        format!(
                            "{} crashes vs previous rate's {}",
                            res.faults.churn_crashes, prev_crashes
                        ),
                    ),
                );
                prev_crashes = res.faults.churn_crashes;
                if ppm == 0 {
                    ctx.check(
                        format!("{proto_name} churn-free at n={n}: no fault fired"),
                        Check::Holds(!res.faults.any(), format!("{:?}", res.faults)),
                    );
                    base_mean = res.mean();
                } else {
                    // Losing the would-be winner costs at most ≈ one extra
                    // cycle (another contender's turn, or the re-wake a
                    // quarter-cycle later): 2n slack on the mean.
                    let bound = base_mean + 2.0 * f64::from(n);
                    ctx.check(
                        format!("{proto_name} degradation bounded at n={n}, crash {ppm} ppm"),
                        Check::Holds(
                            res.mean() <= bound,
                            format!(
                                "mean {:.1} vs one-cycle bound {:.1} (baseline {:.1})",
                                res.mean(),
                                bound,
                                base_mean
                            ),
                        ),
                    );
                }
                if assert_classes {
                    let classed = run_churn_cell(
                        ctx,
                        &cache,
                        proto_name,
                        n,
                        runs,
                        &format!("{label} classes"),
                        &churn,
                    );
                    check_identical(ctx, proto_name, n, ppm, &res, &classed);
                }
                emit_cell(ctx, &mut table, proto_name, n, ppm, true, &res);
            }

            // Permanent-leave arm: the top rate with no re-wake. Some runs
            // may genuinely lose every contender before a success — those
            // are censored, counted, and excluded from latency statistics.
            let top_ppm = CRASH_PPM[CRASH_PPM.len() - 1];
            let churn = ChurnScript::random(RandomChurn {
                crash_ppm: top_ppm,
                lifetime,
                rewake_after: None,
            })
            .expect("valid churn");
            let label = format!("EXP-CHURN {proto_name} n={n} crash={top_ppm}ppm permanent");
            let res = run_churn_cell(ctx, &cache, proto_name, n, runs, &label, &churn);
            ctx.check(
                format!("{proto_name} survives permanent leaves at n={n}, crash {top_ppm} ppm"),
                Check::Solves(&res),
            );
            ctx.check(
                format!("{proto_name} no re-wakes in permanent arm at n={n}"),
                Check::Holds(
                    res.faults.churn_rewakes == 0,
                    format!("{} re-wakes", res.faults.churn_rewakes),
                ),
            );
            emit_cell(ctx, &mut table, proto_name, n, top_ppm, false, &res);
        }
    }
    ctx.table("main", &table);
    if assert_classes && ctx.failures() == 0 {
        ctx.note("churn assertion: PASSED (classed cells bit-identical, counters included)");
    }
}

/// One churn cell: `runs` churned runs of `proto_name` on a `K`-station
/// simultaneous burst. The classes variant is selected by the label suffix
/// so the concrete and classed specs differ only in population mode.
fn run_churn_cell(
    ctx: &Ctx<'_>,
    cache: &ConstructionCache,
    proto_name: &str,
    n: u32,
    runs: u64,
    label: &str,
    churn: &ChurnScript,
) -> EnsembleSummary {
    let mut spec = ctx
        .spec(n, runs, 53_000, label)
        .with_max_slots(32 * u64::from(n))
        .with_churn(churn.clone());
    if label.ends_with("classes") {
        spec = spec.with_classes().without_per_station_detail();
    }
    match proto_name {
        "round_robin" => run_ensemble_stream(
            &spec,
            |_| -> Box<dyn Protocol> { Box::new(RoundRobin::new(n)) },
            |seed| {
                let s = (seed % 97) * 13;
                burst_pattern(n, K as usize, s, seed)
            },
        ),
        "wakeup_with_s" => run_ensemble_stream_cached(
            &spec,
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
        other => unreachable!("unknown churn protocol {other}"),
    }
}

/// Emit one cell's sweep row and pretty-table row.
fn emit_cell(
    ctx: &mut Ctx<'_>,
    table: &mut Table,
    proto_name: &str,
    n: u32,
    ppm: u32,
    rewake: bool,
    res: &EnsembleSummary,
) {
    ctx.row(
        "sweep",
        Record::new()
            .with("protocol", proto_name)
            .with("n", n)
            .with("k", K)
            .with("crash_ppm", ppm)
            .with("rewake", rewake)
            .with("churn_crashes", res.faults.churn_crashes)
            .with("churn_rewakes", res.faults.churn_rewakes)
            .with_all(res.record()),
    );
    table.push_row([
        proto_name.to_string(),
        n.to_string(),
        format!("{:.0}%", f64::from(ppm) / 1e4),
        if rewake { "yes".into() } else { "no".into() },
        format!("{:.1}", res.mean()),
        res.worst.to_string(),
        res.faults.churn_crashes.to_string(),
        res.faults.churn_rewakes.to_string(),
        res.censored().to_string(),
    ]);
}

/// A classed and a concrete run of the same churned cell must agree
/// exactly on every observable aggregate **including the churn counters**:
/// a crashed member leaves its equivalence class the way a retired one
/// does, so class aggregation changes memory, never outcomes.
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
        format!("{proto_name} classes ≡ concrete at n={n}, crash {ppm} ppm"),
        Check::Holds(
            same,
            format!(
                "classed mean {} crashes {} re-wakes {} vs concrete mean {} crashes {} re-wakes {}",
                classed.mean(),
                classed.faults.churn_crashes,
                classed.faults.churn_rewakes,
                concrete.mean(),
                concrete.faults.churn_crashes,
                concrete.faults.churn_rewakes,
            ),
        ),
    );
}
