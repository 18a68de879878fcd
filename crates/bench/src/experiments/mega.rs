//! EXP-MEGA — the implicit mega-station engine: equivalence-class
//! populations at n far beyond what concrete per-station simulation can
//! materialize.
//!
//! The paper's protocols are deterministic per station, so a block wake of
//! half the universe is **one** equivalence class: the class engine
//! ([`PopulationMode::Classes`]) simulates a single weighted unit where the
//! concrete engine would box `n/2` stations. This sweep runs round-robin
//! and `wakeup_with_s` on block wakes from `n = 2^14` (quick) up to
//! `n = 2^24` (full) and reports the unit economy per cell: `classes` is
//! the peak number of live simulation units (the engine's memory
//! proxy) and `reduction` is `k / classes` — stations represented per held
//! unit.
//!
//! The round-robin rows use the wrapped block (wake just after the block's
//! turns passed), so every run crosses ≈ `n/2` silent slots: at full scale
//! a single cell simulates > 400M slots through one hint per run. The
//! `wakeup_with_s` rows exercise the class-aware doubling-schedule
//! constructor through the shared [`ConstructionCache`].
//!
//! `WAKEUP_ASSERT_CLASSES=1` (the CI smoke) additionally re-runs every cell
//! the concrete engine can afford (`n ≤ 2^16`) under
//! [`PopulationMode::Concrete`] and turns bit-identity of the observable
//! aggregates (latency samples, energy, slots) into hard check failures —
//! the end-to-end guard that class aggregation changes memory, not
//! outcomes.
//!
//! [`PopulationMode::Classes`]: mac_sim::PopulationMode::Classes
//! [`PopulationMode::Concrete`]: mac_sim::PopulationMode::Concrete
//! [`ConstructionCache`]: wakeup_core::ConstructionCache

use crate::experiment::{Check, Ctx, Experiment};
use crate::{Grid, Scale, TableMeter};
use mac_sim::{Protocol, WakePattern};
use wakeup_analysis::ensemble::EnsembleSummary;
use wakeup_analysis::prelude::*;
use wakeup_analysis::Record;
use wakeup_core::prelude::*;

/// Registry entry.
pub const EXP: Experiment = Experiment {
    name: "exp_mega",
    id: "EXP-MEGA",
    title: "EXP-MEGA — mega-station sweeps (equivalence-class populations)",
    claim: "class engine: memory O(classes), outcomes identical to concrete",
    grid: Grid::Sparse,
    full_budget_secs: 15,
    run,
};

/// The universe sizes of the mega sweep: the quick sizes stay inside what
/// the concrete engine can cross-check in CI; full scale climbs to the
/// ROADMAP's n = 2^24.
fn mega_ns(scale: Scale) -> Vec<u32> {
    match scale {
        Scale::Quick => vec![1 << 14, 1 << 16],
        Scale::Full => vec![1 << 16, 1 << 18, 1 << 20, 1 << 22, 1 << 24],
    }
}

/// Concrete cross-check ceiling: above this, materializing the block
/// per-station is exactly the cost the class engine exists to avoid.
const CONCRETE_CEILING: u32 = 1 << 16;

fn run(ctx: &mut Ctx<'_>) {
    let runs = ctx.runs();
    // lint: allow(env-discipline) — opt-in CI assertion knob, read-only; documented in README.md
    let assert_classes = std::env::var("WAKEUP_ASSERT_CLASSES").is_ok();
    let cache = ConstructionCache::new();
    let mut table = Table::new([
        "protocol",
        "n",
        "k",
        "mean",
        "max",
        "slots",
        "classes",
        "reduction",
    ]);
    let mut meter = TableMeter::new();

    for &n in &mega_ns(ctx.scale()) {
        let k = n / 2;
        for proto_name in ["round_robin", "wakeup_with_s"] {
            let label = format!("EXP-MEGA {proto_name} n={n}");
            let spec = ctx
                .spec(n, runs, 12_000, &label)
                .with_classes()
                .without_per_station_detail();
            let res = run_mega_ensemble(&spec, &cache, proto_name, n, k);
            ctx.check(
                format!("{proto_name} solves at n={n}, k={k}"),
                Check::NoCensored(&res),
            );
            // The block is one equivalence class: the engine must never
            // have held more than one unit per run (deterministic, so this
            // is a hard guard at every scale).
            ctx.check(
                format!("{proto_name} block is one class at n={n}, k={k}"),
                Check::Holds(
                    res.work.peak_units == 1,
                    format!("peak_units {} (expected 1)", res.work.peak_units),
                ),
            );
            if assert_classes && n <= CONCRETE_CEILING {
                let concrete = run_mega_ensemble(
                    &ctx.spec(n, runs, 12_000, &format!("{label} concrete")),
                    &cache,
                    proto_name,
                    n,
                    k,
                );
                check_identical(ctx, proto_name, n, k, &res, &concrete);
            }
            let reduction = k as f64 / res.work.peak_units.max(1) as f64;
            meter.absorb(&res);
            ctx.row(
                "sweep",
                Record::new()
                    .with("protocol", proto_name)
                    .with("n", n)
                    .with("k", k)
                    .with("reduction", reduction)
                    .with_all(res.record()),
            );
            table.push_row([
                proto_name.to_string(),
                n.to_string(),
                k.to_string(),
                format!("{:.1}", res.mean()),
                format!("{:.0}", res.max()),
                res.work.slots.to_string(),
                res.work.peak_units.to_string(),
                format!("{reduction:.0}x"),
            ]);
        }
    }
    ctx.table("main", &table);
    ctx.work("EXP-MEGA", &meter);
    if assert_classes && ctx.failures() == 0 {
        ctx.note(
            "class-engine assertion: PASSED (one unit per block run; \
             concrete cross-checks bit-identical)",
        );
    }
}

/// One mega cell: `runs` class-engine runs of `proto_name` on the block
/// pattern for `(n, k)`. Round-robin wakes the block just after its turns
/// passed (≈ `n − k + k/2` silent slots to skip per run); `wakeup_with_s`
/// wakes at its known `s`, exercising both the round-robin track and the
/// doubling-schedule track of the combined protocol.
fn run_mega_ensemble(
    spec: &wakeup_analysis::EnsembleSpec,
    cache: &ConstructionCache,
    proto_name: &str,
    n: u32,
    k: u32,
) -> EnsembleSummary {
    match proto_name {
        "round_robin" => run_ensemble_stream(
            spec,
            |_| -> Box<dyn Protocol> { Box::new(RoundRobin::new(n)) },
            |seed| {
                // Wake at a slot past the block's first turns, so the run
                // has to wrap: latency ≈ n − s + k/2, all skipped sparsely.
                let s = u64::from(k) + (seed % 97) * 13;
                WakePattern::range(0, k, s).expect("valid block")
            },
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
                WakePattern::range(1, k + 1, s).expect("valid block")
            },
        ),
        other => unreachable!("unknown mega protocol {other}"),
    }
}

/// The observable aggregates of a classed and a concrete ensemble of the
/// same cell must agree exactly — work counters excluded (their difference
/// *is* the feature), and `max_per_station_tx` excluded because the lean
/// classed spec drops per-station detail.
fn check_identical(
    ctx: &mut Ctx<'_>,
    proto_name: &str,
    n: u32,
    k: u32,
    classed: &EnsembleSummary,
    concrete: &EnsembleSummary,
) {
    let same = classed.runs == concrete.runs
        && classed.solved == concrete.solved
        && classed.worst == concrete.worst
        && classed.mean().to_bits() == concrete.mean().to_bits()
        && classed.max().to_bits() == concrete.max().to_bits()
        && classed.energy.total_transmissions == concrete.energy.total_transmissions
        && classed.energy.total_collisions == concrete.energy.total_collisions
        && classed.work.slots == concrete.work.slots;
    ctx.check(
        format!("{proto_name} classes ≡ concrete at n={n}, k={k}"),
        Check::Holds(
            same,
            format!(
                "classed mean {} slots {} tx {} vs concrete mean {} slots {} tx {}",
                classed.mean(),
                classed.work.slots,
                classed.energy.total_transmissions,
                concrete.mean(),
                concrete.work.slots,
                concrete.energy.total_transmissions,
            ),
        ),
    );
}
