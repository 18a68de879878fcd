//! The Komlós–Greenberg probabilistic construction of `(n,k)`-selective
//! families of size `O(k + k·log(n/k))`.
//!
//! ## Construction and constants
//!
//! Each transmission set includes each station independently with
//! probability `p = 1/k`. For a target set `X` with `k/2 ≤ |X| = x ≤ k`, one
//! random set `F` hits `X` exactly once with probability
//!
//! ```text
//! q(x) = x·p·(1-p)^{x-1} ≥ (1/2)·(1 - 1/k)^{k-1} ≥ 1/(2e)
//! ```
//!
//! so a family of `m` sets fails on `X` with probability at most
//! `(1 - 1/(2e))^m ≤ exp(-m/(2e))`. The number of target sets is at most
//! `Σ_{x=⌈k/2⌉}^{k} C(n,x)`, whose logarithm we compute exactly with
//! [`ln_choose`](crate::math::ln_choose()). Solving the union bound for failure
//! probability `δ` gives
//!
//! ```text
//! m = ⌈2e·(ln Σ C(n,x) + ln(1/δ))⌉ = O(k·log(n/k) + k + log(1/δ)),
//! ```
//!
//! matching the Komlós–Greenberg `O(k + k log(n/k))` bound with explicit
//! constants. This is the same existence argument as the paper's §3 citation
//! of \[25\]. A seeded sample of the ensemble is the executable form of that
//! existential object: with truly random coins it fails with probability at
//! most `δ`, every station evaluates the same sample from the shared seed,
//! and [`verify`](crate::verify) checks small instances exhaustively.
//!
//! ## Evaluating the length
//!
//! The sum is a log-sum-exp, `max + ln Σ exp(ln C(n,x) − max)`, taken over
//! the terms in increasing `x`. A term more than ~745.13 below the max has
//! `exp(·)` underflow to exactly `0.0` in f64, so adding it changes nothing.
//! The sizer therefore evaluates only the terms within 760 of the range's
//! mode, walking outward from it (`O(√n)` terms at most, `O(k)` for small
//! `k`), and returns the same `m`, bit for bit, as summing all `k/2 + 1`.
//!
//! `m` depends on `(n, k, δ)` alone, so a private process-wide memo keyed
//! by `(n, k, δ.to_bits())` keeps each length the sizer computed: a family
//! built per run costs a seed fold and one lookup. A
//! [`length`](RandomFamilyBuilder::length) override bypasses it.
//!
//! Two representations are built from the same coins:
//!
//! * [`RandomFamilyBuilder::build_explicit`] materializes the sets as
//!   bitsets (`O(m·n)` bits) — verifiable, cache-friendly for small `n`;
//! * [`RandomFamilyBuilder::build_oracle`] returns an [`OracleFamily`] that
//!   evaluates membership on demand via the PRF (`O(1)` memory) — identical
//!   membership answers, usable at any scale.

use crate::bitset::BitSet;
use crate::family::SelectiveFamily;
use crate::math::LnChooseRow;
use crate::prf::{RowPrefix, SeedPrefix};
use crate::verify::selective_size_range;
use std::collections::BTreeMap;
use std::ops::RangeInclusive;
use std::sync::{Mutex, PoisonError};

/// Builder for randomized `(n,k)`-selective families.
#[derive(Clone, Debug)]
pub struct RandomFamilyBuilder {
    n: u32,
    k: u32,
    seed: u64,
    delta: f64,
    length_override: Option<usize>,
}

impl RandomFamilyBuilder {
    /// A builder for an `(n,k)`-selective family (`1 ≤ k ≤ n`).
    pub fn new(n: u32, k: u32) -> Self {
        assert!(n >= 1, "n must be ≥ 1");
        assert!((1..=n).contains(&k), "k={k} outside 1..={n}");
        RandomFamilyBuilder {
            n,
            k,
            seed: 0,
            delta: 1e-9,
            length_override: None,
        }
    }

    /// Set the PRF seed (default 0). Different seeds give independent
    /// samples of the ensemble.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Set the union-bound failure probability `δ` (default `1e-9`).
    pub fn failure_probability(mut self, delta: f64) -> Self {
        assert!(delta > 0.0 && delta < 1.0, "δ must be in (0,1)");
        self.delta = delta;
        self
    }

    /// Override the computed family length (used by ablation experiments to
    /// probe the size/selectivity trade-off).
    pub fn length(mut self, m: usize) -> Self {
        self.length_override = Some(m);
        self
    }

    /// The length `m` the union bound prescribes for this `(n, k, δ)`.
    pub fn prescribed_length(&self) -> usize {
        if let Some(m) = self.length_override {
            return m;
        }
        if self.k == 1 {
            // The trivial (n,1)-selective family is the single full set.
            return 1;
        }
        static LENGTHS: Mutex<BTreeMap<(u32, u32, u64), usize>> = Mutex::new(BTreeMap::new());
        let key = (self.n, self.k, self.delta.to_bits());
        // Each update inserts one whole entry: a poisoned map is still valid.
        let lengths = || LENGTHS.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(&m) = lengths().get(&key) {
            return m;
        }
        // ln of the number of target sets, computed exactly.
        let ln_targets = ln_sum_choose(self.n, selective_size_range(self.n, self.k));
        let two_e = 2.0 * std::f64::consts::E;
        let m = two_e * (ln_targets + (1.0 / self.delta).ln());
        *lengths().entry(key).or_insert((m.ceil() as usize).max(1))
    }

    /// Membership probability `p = 1/k` of the construction.
    #[inline]
    pub fn density(&self) -> f64 {
        1.0 / f64::from(self.k)
    }

    /// Build the explicit (materialized) family: the oracle's sets, stored.
    pub fn build_explicit(&self) -> SelectiveFamily {
        self.build_oracle().materialize()
    }

    /// Build the oracle (on-demand) family. Membership answers are
    /// bit-identical to [`build_explicit`](Self::build_explicit).
    pub fn build_oracle(&self) -> OracleFamily {
        OracleFamily {
            n: self.n,
            k: self.k,
            prefix: SeedPrefix::new(self.seed),
            len: self.prescribed_length(),
            threshold: (self.density() * (u64::MAX as f64)) as u64,
        }
    }
}

/// How far below the mode term a term may lie and still be evaluated. A
/// lower term has `l − max ≤ −760`, and `exp` of that is exactly `0.0` in
/// f64 (it underflows to zero below `ln 2^−1075 ≈ −745.13`).
const UNDERFLOW_GAP: f64 = 760.0;

/// `ln Σ_{x ∈ range} C(n, x)` as the log-sum-exp `max + ln Σ exp(l(x) − max)`
/// over the terms in increasing `x`, bit for bit — but evaluating only the
/// window of terms within [`UNDERFLOW_GAP`] of the range's mode: each walk
/// away from the mode stops at its first term below that. `ln C(n, ·)` is
/// concave, and 760 below its peak it falls by more than `√(1520/n) ≥ 5e-4`
/// per step, against rounding errors of at most ~1e-4 for any `u32` universe;
/// so every term past a stop is lower still, adds exactly `0.0` to the sum
/// and cannot be the max.
fn ln_sum_choose(n: u32, range: RangeInclusive<u32>) -> f64 {
    let (lo, hi) = range.into_inner();
    let mut row = LnChooseRow::new(u64::from(n));
    let mut term = |x: u32| row.ln_choose(u64::from(x));
    let mode = (n / 2).clamp(lo, hi);
    let floor = term(mode) - UNDERFLOW_GAP;
    let mut lns: Vec<f64> = (lo..mode)
        .rev()
        .map(&mut term)
        .take_while(|&l| l >= floor)
        .collect();
    lns.reverse();
    lns.extend((mode..=hi).map(&mut term).take_while(|&l| l >= floor));
    let max_ln = lns.iter().fold(f64::NEG_INFINITY, |m, &l| m.max(l));
    let mut acc = 0.0f64;
    for &l in &lns {
        acc += (l - max_ln).exp();
    }
    max_ln + acc.ln()
}

/// An `(n,k)`-selective family represented as a PRF oracle: membership is
/// computed on demand, nothing is materialized.
///
/// Station `u < n` belongs to set `j` iff `hash4(seed, j, u, 0) ≤ threshold`,
/// where `threshold` is the f64 product `p · u64::MAX` cast to `u64` for
/// `p = 1/k`; for `k = 1` the single set is full.
#[derive(Clone, Copy, Debug)]
pub struct OracleFamily {
    n: u32,
    k: u32,
    /// The PRF seed, folded once at build time.
    prefix: SeedPrefix,
    len: usize,
    threshold: u64,
}

impl OracleFamily {
    /// Universe size `n`.
    #[inline]
    pub fn n(&self) -> u32 {
        self.n
    }

    /// Target contention bound `k`.
    #[inline]
    pub fn k(&self) -> u32 {
        self.k
    }

    /// Family length `m`.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` iff the family is empty (never: the builder emits `m ≥ 1`).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Transmission set `j`, resolved once: the PRF prefix over
    /// `(seed, j)` plus the threshold, against which any number of stations
    /// are then tested at 3 of the 5 mixing rounds each.
    #[inline]
    pub fn row(&self, j: usize) -> OracleRow {
        debug_assert!(j < self.len);
        OracleRow {
            prefix: self.prefix.row(j as u64),
            threshold: self.threshold,
            n: self.n,
            full: self.k == 1,
        }
    }

    /// Does station `id` belong to transmission set `j`?
    #[inline]
    pub fn transmits(&self, id: u32, j: usize) -> bool {
        self.row(j).contains(id)
    }

    /// The first set `j ∈ [from, end)` that holds station `id` (`end` is
    /// clipped to the family length), or `None` if no set in the range
    /// does. Answers exactly like [`transmits`](Self::transmits) at every
    /// `j` in turn, but decides the full `k = 1` set and `id ≥ n` once and
    /// walks the sets in a tight loop at 4 of the 5 mixing rounds per coin.
    #[inline]
    pub fn next_member(&self, id: u32, from: usize, end: usize) -> Option<usize> {
        let end = end.min(self.len);
        if self.k == 1 {
            return (from < end).then_some(from);
        }
        if id >= self.n {
            return None;
        }
        let b = u64::from(id);
        (from..end).find(|&j| self.prefix.row(j as u64).hash(b, 0) <= self.threshold)
    }

    /// [`verify::selects`](crate::verify::selects) from the coins: does some
    /// set hold exactly one member of `x`? Each set stops at its second.
    pub fn selects(&self, x: &[u32]) -> bool {
        (0..self.len).any(|j| {
            let row = self.row(j);
            x.iter().filter(|&&u| row.contains(u)).take(2).count() == 1
        })
    }

    /// Materialize into an explicit family (for verification).
    pub fn materialize(&self) -> SelectiveFamily {
        let sets = (0..self.len)
            .map(|j| {
                let row = self.row(j);
                BitSet::from_iter_members(self.n, (0..self.n).filter(|&u| row.contains(u)))
            })
            .collect();
        SelectiveFamily::new(self.n, self.k, sets)
    }
}

/// One transmission set of an [`OracleFamily`] (see [`OracleFamily::row`]).
#[derive(Clone, Copy, Debug)]
pub struct OracleRow {
    prefix: RowPrefix,
    threshold: u64,
    n: u32,
    /// The `k = 1` family's single set, which holds every station.
    full: bool,
}

impl OracleRow {
    /// Does station `id` belong to this set?
    #[inline]
    pub fn contains(&self, id: u32) -> bool {
        self.full || (id < self.n && self.hit(id))
    }

    /// The number of members in `[lo, hi)` and the largest of them. The
    /// range is clipped to the universe once, and the loop does not branch
    /// on the coins, so consecutive hashes overlap in the pipeline.
    #[inline]
    pub fn count_in(&self, lo: u32, hi: u32) -> (u64, Option<u32>) {
        if self.full {
            return (u64::from(hi.saturating_sub(lo)), (lo < hi).then(|| hi - 1));
        }
        let mut count = 0u64;
        let mut last = 0u32;
        for id in lo..hi.min(self.n) {
            let hit = self.hit(id);
            count += u64::from(hit);
            last = if hit { id } else { last };
        }
        (count, (count > 0).then_some(last))
    }

    /// The coin of station `id` (inside the universe).
    #[inline]
    fn hit(&self, id: u32) -> bool {
        self.prefix.hash(u64::from(id), 0) <= self.threshold
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify;

    #[test]
    fn k1_family_is_the_full_set() {
        let fam = RandomFamilyBuilder::new(10, 1).build_explicit();
        assert_eq!(fam.len(), 1);
        assert_eq!(fam.set(0).len(), 10);
        assert!(verify::selective_exhaustive(&fam).is_ok());
    }

    #[test]
    fn prescribed_length_scales_like_k_log_n_over_k() {
        // m(n, k) should grow roughly linearly in k·ln(n/k)+k.
        let m1 = RandomFamilyBuilder::new(1 << 10, 4).prescribed_length() as f64;
        let m2 = RandomFamilyBuilder::new(1 << 10, 16).prescribed_length() as f64;
        let model = |n: f64, k: f64| k * (n / k).ln() + k;
        let ratio_measured = m2 / m1;
        let ratio_model = model(1024.0, 16.0) / model(1024.0, 4.0);
        assert!(
            (ratio_measured / ratio_model - 1.0).abs() < 0.35,
            "measured growth {ratio_measured:.2} vs model {ratio_model:.2}"
        );
    }

    /// The sizer as it summed every term, kept verbatim as the oracle for
    /// the windowed [`ln_sum_choose`].
    fn reference_length(n: u32, k: u32, delta: f64) -> usize {
        use crate::math::ln_choose;
        if k == 1 {
            return 1;
        }
        let mut ln_targets = 0.0f64;
        let range = selective_size_range(n, k);
        let mut acc = 0.0f64; // log-sum-exp accumulation
        let mut max_ln = f64::NEG_INFINITY;
        let lns: Vec<f64> = range
            .map(|x| ln_choose(u64::from(n), u64::from(x)))
            .collect();
        for &l in &lns {
            max_ln = max_ln.max(l);
        }
        if max_ln > f64::NEG_INFINITY {
            for &l in &lns {
                acc += (l - max_ln).exp();
            }
            ln_targets = max_ln + acc.ln();
        }
        let two_e = 2.0 * std::f64::consts::E;
        let m = two_e * (ln_targets + (1.0 / delta).ln());
        (m.ceil() as usize).max(1)
    }

    fn assert_matches_reference(n: u32, k: u32, delta: f64) {
        let got = RandomFamilyBuilder::new(n, k)
            .failure_probability(delta)
            .prescribed_length();
        assert_eq!(got, reference_length(n, k, delta), "n={n} k={k} δ={delta}");
    }

    /// `n ∈ {2^e − 1, 2^e, 2^e + 1}` at each doubling `k = min(2^i, n)` and
    /// `k ± 1`, at `δ = 1e-9`.
    fn assert_doubling_grid_matches(exponents: RangeInclusive<u32>) {
        for e in exponents {
            for n in [(1u32 << e) - 1, 1 << e, (1 << e) + 1] {
                for i in 0..=e + 1 {
                    let k = (1u32 << i).min(n);
                    for k in [k - 1, k, k + 1] {
                        if (1..=n).contains(&k) {
                            assert_matches_reference(n, k, 1e-9);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn prescribed_length_matches_reference_on_small_universes() {
        for n in 1..=96u32 {
            for k in 1..=n {
                for delta in [1e-9, 1e-4, 0.1] {
                    assert_matches_reference(n, k, delta);
                }
            }
        }
    }

    #[test]
    fn prescribed_length_matches_reference_on_doubling_grid() {
        assert_doubling_grid_matches(8..=16);
    }

    #[test]
    #[ignore = "slow: the reference sums up to 2^23 terms; run with --release"]
    fn prescribed_length_matches_reference_on_extended_doubling_grid() {
        assert_doubling_grid_matches(17..=24);
    }

    #[test]
    fn prescribed_length_pins() {
        for (n, k, m) in [
            (4096u32, 256u32, 5300usize),
            (1 << 20, 1 << 19, 3_951_499),
            (1 << 20, 1 << 20, 3_951_499),
            (1 << 24, 1 << 24, 63_222_343),
            (1000, 7, 330),
        ] {
            assert_eq!(
                RandomFamilyBuilder::new(n, k).prescribed_length(),
                m,
                "(n={n}, k={k})"
            );
        }
    }

    #[test]
    fn small_families_verify_exhaustively() {
        for (n, k) in [(10u32, 2u32), (12, 3), (14, 4), (16, 2)] {
            let fam = RandomFamilyBuilder::new(n, k).seed(7).build_explicit();
            let rep = verify::selective_exhaustive(&fam);
            assert!(rep.is_ok(), "(n={n}, k={k}): {rep:?}");
        }
    }

    #[test]
    fn medium_families_survive_monte_carlo() {
        let fam = RandomFamilyBuilder::new(256, 16).seed(3).build_explicit();
        assert!(verify::selective_monte_carlo(&fam, 3_000, 11).is_ok());
    }

    #[test]
    fn oracle_matches_explicit_bit_for_bit() {
        let b = RandomFamilyBuilder::new(64, 8).seed(99);
        let explicit = b.build_explicit();
        let oracle = b.build_oracle();
        assert_eq!(explicit.len(), oracle.len());
        for j in 0..oracle.len() {
            for u in 0..64u32 {
                assert_eq!(
                    explicit.transmits(u, j),
                    oracle.transmits(u, j),
                    "mismatch at set {j}, station {u}"
                );
            }
        }
    }

    #[test]
    fn oracle_materialize_roundtrip() {
        let b = RandomFamilyBuilder::new(32, 4).seed(5);
        assert_eq!(b.build_explicit(), b.build_oracle().materialize());
    }

    #[test]
    fn different_seeds_differ() {
        let a = RandomFamilyBuilder::new(64, 8).seed(1).build_explicit();
        let b = RandomFamilyBuilder::new(64, 8).seed(2).build_explicit();
        assert_ne!(a, b);
    }

    #[test]
    fn length_override_is_respected() {
        let fam = RandomFamilyBuilder::new(64, 8).length(5).build_explicit();
        assert_eq!(fam.len(), 5);
    }

    #[test]
    fn length_override_bypasses_the_memo() {
        // A size no other test asks for: the override comes first, so a
        // stored override is what the plain builder would read back.
        let builder = || RandomFamilyBuilder::new(1000, 9);
        assert_eq!(builder().length(5).prescribed_length(), 5);
        assert_eq!(
            builder().prescribed_length(),
            reference_length(1000, 9, 1e-9)
        );
        // Memoized now, the size is still not served to an override.
        assert_eq!(builder().length(5).prescribed_length(), 5);
    }

    #[test]
    fn threads_sizing_one_key_agree() {
        // Both threads start sizing the same unsized key at once.
        let start = std::sync::Barrier::new(2);
        let size = || {
            start.wait();
            RandomFamilyBuilder::new(5000, 77).prescribed_length()
        };
        let (a, b) = std::thread::scope(|s| {
            let (a, b) = (s.spawn(size), s.spawn(size));
            (a.join().unwrap(), b.join().unwrap())
        });
        assert_eq!(a, b);
        assert_eq!(a, reference_length(5000, 77, 1e-9));
    }

    #[test]
    fn oracle_selects_like_the_explicit_family() {
        // The full family passes; cut to 3 sets it fails on the same target.
        for m in [None, Some(3)] {
            let mut b = RandomFamilyBuilder::new(256, 16).seed(3);
            if let Some(m) = m {
                b = b.length(m);
            }
            let explicit = verify::selective_monte_carlo(&b.build_explicit(), 3_000, 11);
            assert_eq!(explicit.is_ok(), m.is_none(), "length {m:?}: {explicit:?}");
            let oracle = b.build_oracle();
            assert_eq!(
                verify::selective_monte_carlo_by(256, 16, 3_000, 11, |x| oracle.selects(x)),
                explicit,
                "length {m:?}"
            );
        }
    }

    #[test]
    fn set_density_is_about_one_over_k() {
        let (n, k) = (512u32, 8u32);
        let fam = RandomFamilyBuilder::new(n, k).seed(13).build_explicit();
        let mean_size: f64 =
            fam.sets().iter().map(|s| f64::from(s.len())).sum::<f64>() / fam.len() as f64;
        let expected = f64::from(n) / f64::from(k);
        assert!(
            (mean_size - expected).abs() < expected * 0.2,
            "mean set size {mean_size:.1} vs expected {expected:.1}"
        );
    }
}
