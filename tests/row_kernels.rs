//! Row kernels and schedule walks against the per-coin formulas they
//! replace.
//!
//! A class sweep resolves one schedule row per slot — the PRF prefix over
//! `(seed, row)`, the integer coin threshold, the family or matrix entry —
//! and tests every member against it, counting each contiguous id run with
//! a branchless loop. A station walks the other way: one id against the
//! successive sets of each family, with the seed folded once per family
//! (`OracleFamily::next_member`, `DoublingSchedule::next_position_in`).
//! Outcomes stay bit-identical only if every row and every walk answers
//! exactly like the whole per-coin path did. The oracles below are those
//! paths as they stood before rows and walks existed, kept verbatim: the
//! five-round cascade `hash4`, the float-threshold `coin`, the matrix's
//! `coin_pow2` and `KautzSingleton::transmits`; walks are checked against a
//! scan that tests one position at a time.
//!
//! The `#[ignore]`d extended grid sweeps about 2^20 ids per row and walks
//! 45 stations of a near-n schedule over a whole period; run it with
//! `cargo test --release --test row_kernels -- --ignored`.

use mac_sim::rng::derive_seed;
use mac_sim::TxRow;
use selectors::kautz_singleton::KautzSingleton;
use selectors::prf::{GapScanner, RowPrefix, SeedPrefix};
use selectors::random::RandomFamilyBuilder;
use wakeup_core::family_provider::FamilyProvider;
use wakeup_core::select_among_first::DoublingSchedule;
use wakeup_core::waking_matrix::{MatrixParams, WakingMatrix};

// ---------------------------------------------------------------------------
// The per-coin formulas, verbatim.
// ---------------------------------------------------------------------------

fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn hash4(seed: u64, a: u64, b: u64, c: u64) -> u64 {
    let mut h = mix(seed ^ 0x243F_6A88_85A3_08D3);
    h = mix(h ^ a ^ 0x1319_8A2E_0370_7344);
    h = mix(h ^ b ^ 0xA409_3822_299F_31D0);
    mix(mix(h ^ c ^ 0x082E_FA98_EC4E_6C89))
}

fn coin(seed: u64, a: u64, b: u64, c: u64, p: f64) -> bool {
    if p >= 1.0 {
        return true;
    }
    if p <= 0.0 {
        return false;
    }
    let threshold = (p * (u64::MAX as f64)) as u64;
    hash4(seed, a, b, c) <= threshold
}

fn coin_pow2(seed: u64, a: u64, b: u64, c: u64, d: u32) -> bool {
    if d == 0 {
        return true;
    }
    if d >= 64 {
        return false;
    }
    hash4(seed, a, b, c) >> (64 - d) == 0
}

/// `OracleFamily::transmits(id, j)` of an `(n, k)` family with PRF seed
/// `seed`.
fn oracle_transmits(n: u32, k: u32, seed: u64, id: u32, j: usize) -> bool {
    if k == 1 {
        return true;
    }
    id < n && coin(seed, j as u64, u64::from(id), 0, 1.0 / f64::from(k))
}

/// `WakingMatrix::member(i, j, u)`.
fn matrix_member(m: &WakingMatrix, i: u32, j: u64, u: u32) -> bool {
    if u >= m.n() {
        return false;
    }
    let col = j % m.ell();
    let d = i + m.rho(col);
    coin_pow2(m.seed(), u64::from(i), u64::from(u), col, d)
}

/// `KautzSingleton::transmits(u, j)` of a code built for `n` stations.
fn ks_transmits(ks: &KautzSingleton, n: u32, u: u32, j: usize) -> bool {
    if u >= n {
        return false;
    }
    let a = (j / ks.q() as usize) as u32;
    let v = (j % ks.q() as usize) as u32;
    ks.eval(u, a) == v
}

/// The expected `count_in(lo, hi)`: how many ids in `[lo, hi)` are members,
/// and the largest of them.
fn reference_count(lo: u32, hi: u32, member: impl Fn(u32) -> bool) -> (u64, Option<u32>) {
    (lo..hi)
        .filter(|&u| member(u))
        .fold((0, None), |(c, _), u| (c + 1, Some(u)))
}

/// The id ranges a class run can take against a universe of `n`: empty and
/// inverted ranges, single ids, ranges straddling `n` or lying past it, and
/// the whole universe.
fn ranges(n: u32) -> Vec<(u32, u32)> {
    let mut out = vec![(0, 0), (5, 5), (9, 3), (0, 1), (n - 1, n), (n, n + 1)];
    out.extend([
        (0, n),
        (1, n),
        (n / 2, n + 3),
        (n / 3, 2 * n / 3),
        (n + 2, n + 40),
    ]);
    out
}

// ---------------------------------------------------------------------------
// Checks shared by the quick and the extended grids.
// ---------------------------------------------------------------------------

/// Rows `j` of the `(n, k)` oracle family under `seed`: membership of every
/// id in `ids` (plus a few past `n`) and the counts over `ranges(n)` and over
/// `ids`.
fn check_oracle_rows(n: u32, k: u32, seed: u64, rows: &[usize], ids: (u32, u32)) {
    let fam = RandomFamilyBuilder::new(n, k).seed(seed).build_oracle();
    for &j in rows {
        let row = fam.row(j);
        let member = |u: u32| oracle_transmits(n, k, seed, u, j);
        for u in (ids.0..ids.1).chain(n..n + 3) {
            assert_eq!(
                row.contains(u),
                member(u),
                "n={n} k={k} seed={seed} j={j} u={u}"
            );
            assert_eq!(fam.transmits(u, j), member(u), "n={n} k={k} j={j} u={u}");
        }
        for (lo, hi) in ranges(n).into_iter().chain([ids]) {
            assert_eq!(
                row.count_in(lo, hi),
                reference_count(lo, hi, member),
                "n={n} k={k} seed={seed} j={j} [{lo}, {hi})"
            );
        }
    }
}

/// Entries `(i, t)` of a waking matrix: membership of every id in `ids`
/// (plus a few past `n`) and the counts over `ranges(n)` and over `ids`.
fn check_matrix_rows(m: &WakingMatrix, entries: &[(u32, u64)], ids: (u32, u32)) {
    let n = m.n();
    for &(i, t) in entries {
        let row = m.row(i, t);
        let member = |u: u32| matrix_member(m, i, t, u);
        for u in (ids.0..ids.1).chain(n..n + 3) {
            assert_eq!(row.contains(u), member(u), "n={n} i={i} t={t} u={u}");
            assert_eq!(m.member(i, t, u), member(u), "n={n} i={i} t={t} u={u}");
        }
        for (lo, hi) in ranges(n).into_iter().chain([ids]) {
            assert_eq!(
                row.count_in(lo, hi),
                reference_count(lo, hi, member),
                "n={n} i={i} t={t} [{lo}, {hi})"
            );
        }
    }
}

/// The first set in `[from, end)` of the `(n, k)` oracle family under
/// `seed` that holds `id`, and every set in the family that does, against
/// the per-coin scan.
fn check_oracle_walks(n: u32, k: u32, seed: u64, ids: impl Iterator<Item = u32>) {
    let fam = RandomFamilyBuilder::new(n, k).seed(seed).build_oracle();
    let len = fam.len();
    let mid = len / 2;
    let walks = [
        (0, len),
        (0, 0),
        (3, 3),
        (9, 2),
        (mid, mid + 17),
        (len.saturating_sub(5), len + 10),
        (len + 1, len + 5),
    ];
    for id in ids {
        let member = |j: usize| oracle_transmits(n, k, seed, id, j);
        for (from, end) in walks {
            assert_eq!(
                fam.next_member(id, from, end),
                (from..end.min(len)).find(|&j| member(j)),
                "n={n} k={k} seed={seed} id={id} [{from}, {end})"
            );
        }
        let walked: Vec<usize> = std::iter::successors(fam.next_member(id, 0, len), |&j| {
            fam.next_member(id, j + 1, len)
        })
        .collect();
        let scanned: Vec<usize> = (0..len).filter(|&j| member(j)).collect();
        assert_eq!(walked, scanned, "n={n} k={k} seed={seed} id={id}");
    }
}

/// Does `u` transmit at position `p` of the doubling schedule built from
/// `provider`, per the per-coin formulas: the family holding `p mod period`,
/// its per-`k` PRF seed, and the float coin (or the Kautz–Singleton code)?
fn schedule_member(sched: &DoublingSchedule, provider: &FamilyProvider, u: u32, p: u64) -> bool {
    let r = p % sched.period();
    let i = sched.offsets().iter().rposition(|&off| off <= r).unwrap();
    let fam = &sched.families()[i];
    let j = (r - sched.offsets()[i]) as usize;
    match *provider {
        FamilyProvider::Random { seed, .. } => oracle_transmits(
            fam.n(),
            fam.k(),
            derive_seed(seed, u64::from(fam.k())),
            u,
            j,
        ),
        FamilyProvider::KautzSingleton => {
            ks_transmits(&KautzSingleton::new(fam.n(), fam.k()), fam.n(), u, j)
        }
    }
}

/// The doubling schedule's bounded walk, `next_position` and position index
/// for station `u`, against the per-position scan: over empty and inverted
/// ranges, across each family boundary and the period wrap, and far past
/// the first pass.
fn check_schedule_walks(sched: &DoublingSchedule, provider: &FamilyProvider, u: u32) {
    let period = sched.period();
    let member = |p: u64| schedule_member(sched, provider, u, p);
    let scan = |from: u64, end: u64| (from..end).find(|&p| member(p));
    let mut walks = vec![
        (0, 0),
        (5, 5),
        (9, 3),
        (0, period),
        (period - 1, period + 2),
        (period / 2, 2 * period + 1),
        (7 * period + 1, 7 * period + 40),
    ];
    for &off in sched.offsets() {
        walks.push((off.saturating_sub(2), off + 3));
        walks.push((period + off, period + off + 1));
    }
    for (from, end) in walks {
        assert_eq!(
            sched.next_position_in(u, from, end),
            scan(from, end),
            "u={u} [{from}, {end}) (period {period})"
        );
    }
    for p in [0, 1, period - 1, period, 3 * period + period / 3] {
        // A station transmits somewhere in every window of one period, or
        // nowhere at all.
        assert_eq!(
            sched.next_position(u, p),
            scan(p, p + period),
            "u={u} p={p}"
        );
    }
    let index = sched.position_index(u);
    let indexed: Vec<u64> = (0..period)
        .filter(|&p| index.next_position(p) == Some(p))
        .collect();
    let scanned: Vec<u64> = (0..period).filter(|&p| member(p)).collect();
    assert_eq!(indexed, scanned, "u={u} index (period {period})");
    assert_eq!(
        sched.positions_in(u, 0, period).collect::<Vec<_>>(),
        scanned,
        "u={u}"
    );
}

// ---------------------------------------------------------------------------
// Quick grid.
// ---------------------------------------------------------------------------

#[test]
fn row_prefix_hash_is_the_cascade() {
    for x in 0..4_000u64 {
        let seed = derive_seed(x, 0);
        let (a, b, c) = (derive_seed(x, 1), derive_seed(x, 2), derive_seed(x, 3));
        // Small arguments too: rows, ids and columns are small integers.
        for (a, b, c) in [(a, b, c), (x % 64, x, x / 7)] {
            let h = hash4(seed, a, b, c);
            assert_eq!(RowPrefix::new(seed, a).hash(b, c), h, "x={x}");
            assert_eq!(SeedPrefix::new(seed).row(a).hash(b, c), h, "x={x}");
            assert_eq!(RowPrefix::new(seed, a).scanner(b).hash(c), h, "x={x}");
            assert_eq!(GapScanner::new(seed, a, b).hash(c), h, "x={x}");
            assert_eq!(selectors::prf::hash4(seed, a, b, c), h, "x={x}");
            for d in [0u32, 1, 3, 17, 63, 64, 90] {
                assert_eq!(
                    selectors::prf::coin_pow2(seed, a, b, c, d),
                    coin_pow2(seed, a, b, c, d),
                    "x={x} d={d}"
                );
            }
        }
    }
}

#[test]
fn oracle_rows_match_the_float_coin() {
    for (n, k, seed) in [
        (1u32, 1u32, 0u64),
        (40, 1, 7),
        (40, 2, 7),
        (64, 8, 99),
        (257, 3, 0xDEAD_BEEF),
        (1000, 7, 12),
        (1024, 1024, 5),
        (4096, 256, 1),
    ] {
        let len = RandomFamilyBuilder::new(n, k).prescribed_length();
        let rows: Vec<usize> = (0..len.min(24)).chain([len / 2, len - 1]).collect();
        check_oracle_rows(n, k, seed, &rows, (0, n));
    }
}

#[test]
fn dyn_rows_match_both_providers() {
    for n in [1u32, 17, 64, 300] {
        for k in [1u32, 2, 5, n] {
            if k > n {
                continue;
            }
            // Randomized provider: the family's PRF seed is derived from the
            // provider seed and `k`.
            let seed = 41;
            let fam = FamilyProvider::random_with_seed(seed).family(n, k);
            let sub_seed = derive_seed(seed, u64::from(k));
            // Kautz–Singleton provider.
            let ks_fam = FamilyProvider::KautzSingleton.family(n, k);
            let ks = KautzSingleton::new(n, k);
            for j in (0..fam.len().min(40)).chain([fam.len(), fam.len() + 9]) {
                let row = fam.row(j);
                let past_end = j >= fam.len();
                let member = |u: u32| !past_end && oracle_transmits(n, k, sub_seed, u, j as usize);
                for u in 0..n + 3 {
                    assert_eq!(row.contains(u), member(u), "n={n} k={k} j={j} u={u}");
                    assert_eq!(fam.member(u, j), member(u), "n={n} k={k} j={j} u={u}");
                }
                for (lo, hi) in ranges(n) {
                    assert_eq!(row.count_in(lo, hi), reference_count(lo, hi, member));
                }
            }
            for j in (0..ks_fam.len().min(60)).chain([ks_fam.len(), ks_fam.len() + 1]) {
                let row = ks_fam.row(j);
                let past_end = j >= ks_fam.len();
                let member = |u: u32| !past_end && ks_transmits(&ks, n, u, j as usize);
                for u in 0..n + 3 {
                    assert_eq!(row.contains(u), member(u), "KS n={n} k={k} j={j} u={u}");
                    assert_eq!(ks_fam.member(u, j), member(u), "KS n={n} k={k} j={j}");
                    if !past_end {
                        assert_eq!(ks.transmits(u, j as usize), member(u), "KS n={n} j={j}");
                    }
                }
                for (lo, hi) in ranges(n) {
                    assert_eq!(row.count_in(lo, hi), reference_count(lo, hi, member));
                }
            }
        }
    }
}

#[test]
fn doubling_schedule_rows_locate_the_family_set() {
    for (provider, n, top) in [
        (FamilyProvider::random_with_seed(5), 48u32, 3u32),
        (FamilyProvider::random_with_seed(5), 16, 0),
        (FamilyProvider::KautzSingleton, 20, 2),
    ] {
        let sched = DoublingSchedule::new(&provider, n, top);
        let (period, offsets) = (sched.period(), sched.offsets());
        for p in 0..2 * period + 3 {
            // The family holding position p mod period, and p's place in it.
            let r = p % period;
            let i = offsets.iter().rposition(|&off| off <= r).unwrap();
            let fam = &sched.families()[i];
            let row = sched.row(p);
            for u in 0..n + 2 {
                let expect = fam.member(u, r - offsets[i]);
                assert_eq!(row.contains(u), expect, "n={n} top={top} p={p} u={u}");
                assert_eq!(sched.transmits(u, p), expect, "n={n} top={top} p={p} u={u}");
            }
            assert_eq!(
                row.count_in(0, n),
                reference_count(0, n, |u| fam.member(u, r - offsets[i]))
            );
        }
    }
}

#[test]
fn oracle_walks_match_the_float_coin() {
    for (n, k, seed) in [
        (1u32, 1u32, 0u64),
        (40, 1, 7),
        (40, 2, 7),
        (64, 8, 99),
        (257, 3, 0xDEAD_BEEF),
        (1024, 1024, 5),
    ] {
        // Every id of the small universes, and ids past `n`.
        check_oracle_walks(n, k, seed, (0..n.min(80)).chain(n..n + 3));
    }
}

#[test]
fn schedule_walks_match_the_per_position_scan() {
    for (provider, n, top) in [
        (FamilyProvider::random_with_seed(5), 48u32, 3u32),
        (FamilyProvider::random_with_seed(5), 16, 0),
        (FamilyProvider::random_with_seed(17), 100, 6),
        (FamilyProvider::KautzSingleton, 20, 2),
    ] {
        let sched = DoublingSchedule::new(&provider, n, top);
        for u in (0..n).chain([n, n + 5]) {
            check_schedule_walks(&sched, &provider, u);
        }
    }
}

#[test]
fn matrix_rows_match_the_pow2_coin() {
    for params in [
        MatrixParams::new(1),
        MatrixParams::new(16).with_seed(3),
        MatrixParams::new(100).with_seed(0xFEED),
        MatrixParams::new(256).with_seed(9).without_rho_sweep(),
        MatrixParams::new(1 << 10).with_c(1).with_seed(77),
    ] {
        let m = WakingMatrix::new(params);
        let mut entries = Vec::new();
        for i in 1..=m.rows() {
            // Columns inside the first pass, each phase of the ρ sweep, and
            // slots past ℓ that wrap.
            for t in [
                0,
                1,
                2,
                5,
                11,
                m.ell() - 1,
                m.ell(),
                m.ell() + 3,
                5 * m.ell() + 7,
            ] {
                entries.push((i, t));
            }
        }
        check_matrix_rows(&m, &entries, (0, m.n()));
    }
}

// ---------------------------------------------------------------------------
// Extended grid (release).
// ---------------------------------------------------------------------------

#[test]
#[ignore = "slow: about 2^20 ids per row; run with --release"]
fn row_kernels_match_on_extended_grid() {
    let n = 1u32 << 20;
    for (k, seed) in [
        (1u32, 0u64),
        (2, 1),
        (2, 0xC0FFEE),
        (64, 7),
        (1 << 12, 3),
        (n, 11),
    ] {
        let len = RandomFamilyBuilder::new(n, k).prescribed_length();
        check_oracle_rows(n, k, seed, &[0, 1, len / 3, len - 1], (0, n));
    }
    for (k, seed) in [(2u32, 1u64), (64, 7), (1 << 12, 3), (n, 11)] {
        check_oracle_walks(n, k, seed, [0, 1, n / 3, n - 1, n].into_iter());
    }
    // A universe that is not a power of two, swept past its end.
    let odd = n - 3;
    check_oracle_rows(odd, 5, 21, &[0, 17], (0, odd + 3));
    for params in [
        MatrixParams::new(n).with_seed(4),
        MatrixParams::new(odd).with_seed(8).without_rho_sweep(),
    ] {
        let m = WakingMatrix::new(params);
        let entries = [
            (1, 0),
            (2, 3),
            (m.rows() / 2, m.ell() + 1),
            (m.rows(), 12_345),
        ];
        check_matrix_rows(&m, &entries, (0, m.n()));
    }
}

#[test]
#[ignore = "slow: walks 45 stations of a near-n schedule over a whole period; run with --release"]
fn schedule_walks_match_on_extended_grid() {
    // The near-n wait_and_go schedule (n = 4096, families up to k = 4096):
    // twelve families and a period of about 65 000 positions.
    let provider = FamilyProvider::random_with_seed(3);
    let sched = DoublingSchedule::new(&provider, 4096, 12);
    for u in (0..4096).step_by(97).chain([4095, 4096]) {
        check_schedule_walks(&sched, &provider, u);
    }
}
