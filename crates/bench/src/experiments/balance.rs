//! EXP-BAL — §5.2/§5.3 mechanics, measured:
//!
//! * Theorem 5.1: by `t − s = 2c·|S(t)|·log n·log log n`, the set `S(t)` is
//!   well-balanced (enough S1 ∧ S2 slots exist);
//! * Lemma 5.4: windows contain slots with weighted contention in `[1/8, 2]`;
//! * Lemma 5.3: on such slots, a station is isolated with probability
//!   ≥ 1/128 (we measure the empirical isolation frequency).
//!
//! The per-seed matrix scans are independent, so they fan out on the
//! batch-cursor runner; counters fold in seed order.

use crate::experiment::{Ctx, Experiment};
use crate::{Grid, Scale};
use mac_sim::pattern::IdChoice;
use mac_sim::WakePattern;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use wakeup_analysis::{Record, Table};
use wakeup_core::waking_matrix::MatrixAnalysis;
use wakeup_core::{MatrixParams, WakingMatrix};

/// Registry entry.
pub const EXP: Experiment = Experiment {
    name: "exp_balance",
    id: "EXP-BAL",
    title: "EXP-BAL — well-balancedness, the Lemma 5.4 bracket, isolation frequency",
    claim: "S1∧S2 slots accumulate; each has bracket slots; isolation ≥ 1/128 there",
    grid: Grid::Dense,
    full_budget_secs: 60,
    run,
};

/// Counters of one seed's scan over the analysis horizon.
#[derive(Clone, Copy, Default)]
struct SeedCounts {
    s1s2: u64,
    bracket_windows: u64,
    total_windows: u64,
    bracket_slots: u64,
    isolated_bracket: u64,
    first_isolation: Option<u64>,
}

fn scan_seed(n: u32, k: u32, rows: u32, window: u32, seed: u64) -> SeedCounts {
    let mut c = SeedCounts::default();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let ids = IdChoice::Random.pick(n, k as usize, &mut rng);
    let pattern = WakePattern::uniform_window(&ids, 0, 16, &mut rng).unwrap();
    let m = WakingMatrix::new(MatrixParams::new(n).with_seed(seed));
    let analysis = MatrixAnalysis::new(&m, &pattern);
    let horizon = 2 * u64::from(m.c()) * u64::from(k) * u64::from(rows) * u64::from(window);

    for j in 0..horizon {
        if analysis.s1(j) && analysis.s2(j) {
            c.s1s2 += 1;
        }
        let wc = analysis.weighted_contention(j);
        if (0.125..=2.0).contains(&wc) && analysis.operational_count(j) > 0 {
            c.bracket_slots += 1;
            if analysis.isolated(j).is_some() {
                c.isolated_bracket += 1;
            }
        }
        if c.first_isolation.is_none() && analysis.isolated(j).is_some() {
            c.first_isolation = Some(j);
        }
    }
    // Window-level Lemma 5.4 check.
    for w_idx in 0..horizon / u64::from(window) {
        let start = w_idx * u64::from(window);
        if analysis.operational_count(start) == 0 {
            continue;
        }
        c.total_windows += 1;
        let has_bracket = (start..start + u64::from(window))
            .any(|j| (0.125..=2.0).contains(&analysis.weighted_contention(j)));
        if has_bracket {
            c.bracket_windows += 1;
        }
    }
    c
}

fn run(ctx: &mut Ctx<'_>) {
    let scale = ctx.scale();
    let n = 256u32;
    let matrix = WakingMatrix::new(MatrixParams::new(n));
    let (rows, window) = (matrix.rows(), matrix.window());
    ctx.note(format!(
        "matrix: n={n}, rows={rows}, window={window}, ℓ={}\n",
        matrix.ell()
    ));

    let mut table = Table::new([
        "k",
        "horizon 2c·k·L·W",
        "S1∧S2 slots",
        "bracket windows %",
        "isolated bracket slots %",
        "first isolation",
    ]);

    let seeds = if scale == Scale::Full { 20u64 } else { 5 };
    let seed_offset = ctx.seed();
    for k in [2u32, 4, 8, 16, 32] {
        let (per_seed, _stats) = ctx.runner(&format!("EXP-BAL k={k}")).map(seeds, |seed| {
            scan_seed(n, k, rows, window, seed_offset.wrapping_add(seed))
        });

        let mut total = SeedCounts::default();
        let mut first_isolations = Vec::new();
        for c in &per_seed {
            total.s1s2 += c.s1s2;
            total.bracket_windows += c.bracket_windows;
            total.total_windows += c.total_windows;
            total.bracket_slots += c.bracket_slots;
            total.isolated_bracket += c.isolated_bracket;
            if let Some(fi) = c.first_isolation {
                first_isolations.push(fi);
            }
        }

        let horizon =
            2 * u64::from(matrix.c()) * u64::from(k) * u64::from(rows) * u64::from(window);
        let mean_first = if first_isolations.is_empty() {
            "none".to_string()
        } else {
            format!(
                "{:.0}",
                first_isolations.iter().sum::<u64>() as f64 / first_isolations.len() as f64
            )
        };
        ctx.row(
            "sweep",
            Record::new()
                .with("n", n)
                .with("k", k)
                .with("horizon", horizon)
                .with("s1s2_slots", total.s1s2)
                .with("bracket_windows", total.bracket_windows)
                .with("total_windows", total.total_windows)
                .with("bracket_slots", total.bracket_slots)
                .with("isolated_bracket_slots", total.isolated_bracket),
        );
        table.push_row([
            k.to_string(),
            horizon.to_string(),
            total.s1s2.to_string(),
            format!(
                "{:.0}%",
                100.0 * total.bracket_windows as f64 / total.total_windows.max(1) as f64
            ),
            format!(
                "{:.1}% (≥ {:.1}% required)",
                100.0 * total.isolated_bracket as f64 / total.bracket_slots.max(1) as f64,
                100.0 / 128.0
            ),
            mean_first,
        ]);
    }
    ctx.table("main", &table);
    ctx.note("\n(bracket = weighted contention in [1/8, 2]; Lemma 5.3 promises ≥ 0.78% isolation there — measured rates are far higher because the bound is worst-case)");
}
