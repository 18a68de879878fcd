//! A deterministic pseudo-random membership function.
//!
//! Oracle-represented families (and the waking matrices built on top of them
//! in `wakeup-core`) need a function
//! `member(seed, row, column, station) -> bool` with a prescribed density
//! `2^{-d}` such that *all* stations agree on it while none stores the
//! matrix. We implement it as a SplitMix64-style mixing cascade: each of the
//! inputs is diffused through the finalizer with distinct round constants,
//! then the 64-bit output is compared against a threshold.
//!
//! This mirrors exactly how the paper's probabilistic-method object is used:
//! the proof draws each entry `M_{i,j}` independently with probability
//! `2^{-(i+ρ(j))}`; we replace "independent coins" with "PRF evaluations
//! under a shared seed", which is the standard practical derandomization
//! (every station can evaluate its own entries in O(1) without
//! communication).

/// SplitMix64 finalizer (same construction as `mac_sim::rng::split_mix64`;
/// duplicated so the combinatorial crate stays dependency-free).
#[inline]
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A uniform 64-bit hash of `(seed, a, b, c)`.
///
/// Used as the source of "independent" coins: distinct argument tuples give
/// decorrelated outputs; equal tuples always give equal outputs. Defined as
/// the [`RowPrefix`] over `(seed, a)` finalized with `b` and `c` — there is
/// exactly one copy of the mixing cascade.
#[inline]
pub fn hash4(seed: u64, a: u64, b: u64, c: u64) -> u64 {
    RowPrefix::new(seed, a).hash(b, c)
}

/// A Bernoulli coin with probability exactly `2^{-d}`:
/// `true` iff the top `d` bits of the hash are all zero.
///
/// For `d = 0` the coin is always `true`; for `d ≥ 64` it is always `false`
/// (probability `2^{-64}` is rounded to zero — far below anything the
/// constructions use).
#[inline]
pub fn coin_pow2(seed: u64, a: u64, b: u64, c: u64, d: u32) -> bool {
    GapScanner::new(seed, a, b).coin(c, d)
}

/// The mixing state after folding `seed` alone — the part of the cascade
/// that every coin under one seed shares.
///
/// A walk that tests one `b` against many rows `a` (a station against the
/// successive transmission sets of a family, say) folds the seed once and
/// then pays 4 of the 5 mixing rounds per coin. [`SeedPrefix::row`] is the
/// only way to a [`RowPrefix`], so the round constants exist once.
#[derive(Clone, Copy, Debug)]
pub struct SeedPrefix {
    /// Mixing state after folding `seed`.
    state: u64,
}

impl SeedPrefix {
    /// Fold `seed`.
    #[inline]
    pub fn new(seed: u64) -> Self {
        SeedPrefix {
            state: mix(seed ^ 0x243F_6A88_85A3_08D3),
        }
    }

    /// Fold `a` as well: the [`RowPrefix`] over `(seed, a)`.
    #[inline]
    pub fn row(&self, a: u64) -> RowPrefix {
        RowPrefix {
            state: mix(self.state ^ a ^ 0x1319_8A2E_0370_7344),
        }
    }
}

/// The mixing state after folding `seed` and `a` — the part of the cascade
/// that every coin of one *row* shares.
///
/// A sweep that tests many `b` against one row (the stations of a class
/// against one transmission set, say) computes the prefix once and then
/// pays 3 of the 5 mixing rounds per coin. [`RowPrefix::hash`] is
/// **bit-identical** to [`hash4`], which is defined through it.
#[derive(Clone, Copy, Debug)]
pub struct RowPrefix {
    /// Mixing state after folding `seed` and `a`.
    state: u64,
}

impl RowPrefix {
    /// Fold `seed` and `a` — [`SeedPrefix::new`]`(seed).row(a)`. Each input
    /// is folded with a distinct additive constant so that permutations of
    /// the arguments yield unrelated outputs.
    #[inline]
    pub fn new(seed: u64, a: u64) -> Self {
        SeedPrefix::new(seed).row(a)
    }

    /// Fold `b` as well: the [`GapScanner`] for coins of the form
    /// `coin_pow2(seed, a, b, ·, ·)`.
    #[inline]
    pub fn scanner(&self, b: u64) -> GapScanner {
        GapScanner {
            prefix: mix(self.state ^ b ^ 0xA409_3822_299F_31D0),
        }
    }

    /// The full hash — equals `hash4(seed, a, b, c)` bit for bit.
    #[inline]
    pub fn hash(&self, b: u64, c: u64) -> u64 {
        self.scanner(b).hash(c)
    }
}

/// An amortized evaluator for runs of coins sharing a `(seed, a, b)`
/// prefix: jump to the next *set* position of a pseudorandom row in
/// O(expected gap) with a fraction of the per-coin hashing cost.
///
/// The cascade diffuses its four inputs sequentially, so the mixing state
/// after folding `seed`, `a` and `b` can be computed once and reused for
/// every `c`. [`GapScanner::coin`] is **bit-identical** to
/// [`coin_pow2`]`(seed, a, b, c, d)` — [`hash4`] and [`coin_pow2`] are
/// defined *in terms of* the scanner and its [`RowPrefix`], so there is a
/// single copy of the round constants — but amortized use performs 2 of the
/// 5 mixing rounds per evaluation instead of all 5: the difference between
/// a structure-aware `next_transmission` scan over a PRF row and simply
/// replaying the dense per-slot work.
///
/// The intended layout therefore puts the *scan variable* (the column /
/// slot) in the `c` position and the quantities fixed per scan (row index,
/// station) in `a` and `b`.
#[derive(Clone, Copy, Debug)]
pub struct GapScanner {
    /// Mixing state after folding `seed`, `a` and `b`.
    prefix: u64,
}

impl GapScanner {
    /// Precompute the mixing prefix for coins of the form
    /// `coin_pow2(seed, a, b, ·, ·)`.
    #[inline]
    pub fn new(seed: u64, a: u64, b: u64) -> Self {
        RowPrefix::new(seed, a).scanner(b)
    }

    /// The full hash — equals `hash4(seed, a, b, c)` bit for bit (it *is*
    /// that function's definition).
    #[inline]
    pub fn hash(&self, c: u64) -> u64 {
        mix(mix(self.prefix ^ c ^ 0x082E_FA98_EC4E_6C89))
    }

    /// The density-`2^{-d}` coin — equals `coin_pow2(seed, a, b, c, d)`
    /// bit for bit.
    #[inline]
    pub fn coin(&self, c: u64, d: u32) -> bool {
        if d == 0 {
            return true;
        }
        if d >= 64 {
            return false;
        }
        self.hash(c) >> (64 - d) == 0
    }

    /// The smallest `c ∈ [from, to)` whose coin (at exponent `density(c)`)
    /// is set, or `None` if the whole range comes up empty. Expected cost
    /// `O(min(2^d, to − from))` coin evaluations — one gap, not one row.
    #[inline]
    pub fn next_set(&self, from: u64, to: u64, mut density: impl FnMut(u64) -> u32) -> Option<u64> {
        (from..to).find(|&c| self.coin(c, density(c)))
    }
}

/// A Bernoulli coin with arbitrary probability `p ∈ [0, 1]`.
#[inline]
pub fn coin(seed: u64, a: u64, b: u64, c: u64, p: f64) -> bool {
    if p >= 1.0 {
        return true;
    }
    if p <= 0.0 {
        return false;
    }
    // Compare the hash against p·2^64 without losing precision at the top.
    let threshold = (p * (u64::MAX as f64)) as u64;
    hash4(seed, a, b, c) <= threshold
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash4_deterministic_and_argument_sensitive() {
        assert_eq!(hash4(1, 2, 3, 4), hash4(1, 2, 3, 4));
        let base = hash4(1, 2, 3, 4);
        assert_ne!(base, hash4(0, 2, 3, 4));
        assert_ne!(base, hash4(1, 3, 2, 4));
        assert_ne!(base, hash4(1, 2, 4, 3));
        assert_ne!(base, hash4(1, 2, 3, 5));
    }

    #[test]
    fn coin_pow2_extremes() {
        assert!(coin_pow2(9, 1, 2, 3, 0));
        assert!(!coin_pow2(9, 1, 2, 3, 64));
        assert!(!coin_pow2(9, 1, 2, 3, 200));
    }

    #[test]
    fn coin_pow2_density_matches_2_to_minus_d() {
        // Empirical density over many evaluations must track 2^{-d}.
        for d in [1u32, 2, 3, 5] {
            let trials = 200_000u64;
            let hits = (0..trials).filter(|&i| coin_pow2(42, i, 7, 13, d)).count() as f64;
            let expected = trials as f64 / f64::from(1u32 << d);
            let sd =
                (trials as f64 * 2f64.powi(-(d as i32)) * (1.0 - 2f64.powi(-(d as i32)))).sqrt();
            assert!(
                (hits - expected).abs() < 6.0 * sd,
                "d={d}: {hits} hits vs expected {expected} (sd {sd})"
            );
        }
    }

    #[test]
    fn coin_density_matches_p() {
        for p in [0.1f64, 0.5, 0.9] {
            let trials = 100_000u64;
            let hits = (0..trials).filter(|&i| coin(7, i, 0, 0, p)).count() as f64;
            let expected = trials as f64 * p;
            let sd = (trials as f64 * p * (1.0 - p)).sqrt();
            assert!(
                (hits - expected).abs() < 6.0 * sd,
                "p={p}: {hits} vs {expected}"
            );
        }
        assert!(coin(1, 2, 3, 4, 1.0));
        assert!(!coin(1, 2, 3, 4, 0.0));
    }

    #[test]
    fn gap_scanner_is_bit_identical_to_the_plain_coins() {
        for seed in [0u64, 7, 0xDEAD_BEEF] {
            for a in [0u64, 3, 19] {
                for b in [0u64, 11, 1 << 40] {
                    let sc = GapScanner::new(seed, a, b);
                    for c in 0..200u64 {
                        assert_eq!(sc.hash(c), hash4(seed, a, b, c));
                        for d in [0u32, 1, 4, 9, 64] {
                            assert_eq!(
                                sc.coin(c, d),
                                coin_pow2(seed, a, b, c, d),
                                "seed={seed} a={a} b={b} c={c} d={d}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn gap_scanner_next_set_finds_the_first_hit() {
        let sc = GapScanner::new(42, 2, 5);
        let d = 3u32;
        // Reference: linear scan with the plain coin.
        let reference = (0..10_000u64).find(|&c| coin_pow2(42, 2, 5, c, d));
        assert_eq!(sc.next_set(0, 10_000, |_| d), reference);
        let hit = reference.unwrap();
        // Starting past the first hit finds the next one, not the same.
        let second = sc.next_set(hit + 1, 10_000, |_| d).unwrap();
        assert!(second > hit);
        // An empty range and an all-misses range answer None.
        assert_eq!(sc.next_set(5, 5, |_| d), None);
        assert_eq!(sc.next_set(0, 10_000, |_| 64), None);
    }

    #[test]
    fn gap_scanner_expected_gap_tracks_density() {
        // Mean gap between hits at density 2^{-d} must be ≈ 2^d.
        let sc = GapScanner::new(9, 1, 2);
        for d in [2u32, 4, 6] {
            let mut hits = 0u64;
            let mut c = 0u64;
            let span = 1u64 << (d + 12);
            while let Some(h) = sc.next_set(c, span, |_| d) {
                hits += 1;
                c = h + 1;
            }
            let mean_gap = span as f64 / hits as f64;
            let expected = f64::from(1u32 << d);
            assert!(
                (mean_gap / expected - 1.0).abs() < 0.1,
                "d={d}: mean gap {mean_gap} vs 2^d {expected}"
            );
        }
    }

    #[test]
    fn different_seeds_decorrelate() {
        // Agreement fraction between two seeds at density 1/2 should be ~1/2.
        let trials = 50_000u64;
        let agree = (0..trials)
            .filter(|&i| coin_pow2(1, i, 0, 0, 1) == coin_pow2(2, i, 0, 0, 1))
            .count() as f64;
        assert!(
            (agree - trials as f64 / 2.0).abs() < 6.0 * (trials as f64 / 4.0).sqrt(),
            "agreement {agree}"
        );
    }
}
