//! Verification of (strong) selectivity.
//!
//! *Exhaustive* checks enumerate every target set `X` in the defining size
//! range — exponential, but feasible for the small universes used as ground
//! truth in tests (`n ≲ 24`). *Monte-Carlo* checks sample `X` uniformly from
//! the size range and are used to falsify large constructions (a falsifier,
//! not a certifier: passing means "no counterexample found").

use crate::family::SelectiveFamily;
use crate::math::for_each_subset;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// A witness that a family is **not** selective: a target set `X` in the
/// size range for which no family set intersects `X` in exactly one element.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CounterExample {
    /// The unselected target set (sorted station IDs).
    pub x: Vec<u32>,
}

/// The outcome of a verification pass.
pub type VerifyResult = Result<VerifyReport, CounterExample>;

/// Statistics of a successful verification pass.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct VerifyReport {
    /// Number of target sets checked.
    pub targets_checked: u64,
}

/// The size range `⌈k/2⌉ ..= min(k, n)` of the selectivity definition.
///
/// For `k = 1` the range degenerates to `1..=1` (the singleton sets), which
/// the trivial family `{[n]}` selects.
pub fn selective_size_range(n: u32, k: u32) -> std::ops::RangeInclusive<u32> {
    let hi = k.min(n).max(1);
    let lo = k.div_ceil(2).max(1);
    lo..=hi
}

/// Does some set of `family` intersect `x` in exactly one element?
#[inline]
pub fn selects(family: &SelectiveFamily, x: &[u32]) -> bool {
    family
        .sets()
        .iter()
        .any(|f| f.intersection_size_with_slice(x) == 1)
}

/// For every `x ∈ X`, does some set isolate exactly `x` within `X`?
pub fn strongly_selects(family: &SelectiveFamily, x: &[u32]) -> bool {
    x.iter().all(|&target| {
        family
            .sets()
            .iter()
            .any(|f| f.unique_intersection(x) == Some(target) && f.contains(target))
    })
}

/// Exhaustively verify `(n,k)`-selectivity: every `X` with
/// `k/2 ≤ |X| ≤ k` must be selected. Exponential in `n`; intended for
/// `n ≲ 24`.
pub fn selective_exhaustive(family: &SelectiveFamily) -> VerifyResult {
    let (n, k) = (family.n(), family.k());
    let mut checked = 0u64;
    for size in selective_size_range(n, k) {
        let mut counterexample = None;
        let visited = for_each_subset(n, size, |x| {
            if selects(family, x) {
                true
            } else {
                counterexample = Some(CounterExample { x: x.to_vec() });
                false
            }
        });
        checked += visited;
        if let Some(ce) = counterexample {
            return Err(ce);
        }
    }
    Ok(VerifyReport {
        targets_checked: checked,
    })
}

/// Exhaustively verify **strong** `(n,k)`-selectivity.
///
/// Strong selectivity is downward monotone in `|X|` (a set isolating `x`
/// within `X` also isolates it within any `X' ⊆ X` containing `x`), so only
/// targets of size exactly `min(k, n)` need checking.
pub fn strongly_selective_exhaustive(family: &SelectiveFamily) -> VerifyResult {
    let (n, k) = (family.n(), family.k());
    let size = k.min(n);
    let mut counterexample = None;
    let checked = for_each_subset(n, size, |x| {
        if strongly_selects(family, x) {
            true
        } else {
            counterexample = Some(CounterExample { x: x.to_vec() });
            false
        }
    });
    match counterexample {
        Some(ce) => Err(ce),
        None => Ok(VerifyReport {
            targets_checked: checked,
        }),
    }
}

/// Sample a uniform random subset of `{0,…,n-1}` of the given size.
fn random_subset<R: Rng>(n: u32, size: u32, rng: &mut R) -> Vec<u32> {
    // Partial Fisher-Yates on an index vector; fine for verification sizes.
    let mut all: Vec<u32> = (0..n).collect();
    let (shuffled, _) = all.partial_shuffle(rng, size as usize);
    let mut x = shuffled.to_vec();
    x.sort_unstable();
    x
}

/// Monte-Carlo falsification of `(n,k)`-selectivity: sample `trials` target
/// sets with sizes uniform in the defining range.
pub fn selective_monte_carlo(family: &SelectiveFamily, trials: u64, seed: u64) -> VerifyResult {
    selective_monte_carlo_by(family.n(), family.k(), trials, seed, |x| selects(family, x))
}

/// [`selective_monte_carlo`] over any representation of an `(n,k)` family:
/// the same targets, each tested by `selects` (for example
/// [`OracleFamily::selects`](crate::random::OracleFamily::selects)).
pub fn selective_monte_carlo_by(
    n: u32,
    k: u32,
    trials: u64,
    seed: u64,
    mut selects: impl FnMut(&[u32]) -> bool,
) -> VerifyResult {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let range = selective_size_range(n, k);
    let (lo, hi) = (*range.start(), *range.end());
    if lo > hi {
        // Degenerate range (k/2 > n): no target sets exist, vacuously true.
        return Ok(VerifyReport { targets_checked: 0 });
    }
    for _ in 0..trials {
        let size = rng.gen_range(lo..=hi);
        let x = random_subset(n, size, &mut rng);
        if !selects(&x) {
            return Err(CounterExample { x });
        }
    }
    Ok(VerifyReport {
        targets_checked: trials,
    })
}

/// Monte-Carlo falsification of strong `(n,k)`-selectivity.
pub fn strongly_selective_monte_carlo(
    family: &SelectiveFamily,
    trials: u64,
    seed: u64,
) -> VerifyResult {
    let (n, k) = (family.n(), family.k());
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5357_524F_4E47_214B);
    let size = k.min(n);
    for _ in 0..trials {
        let x = random_subset(n, size, &mut rng);
        if !strongly_selects(family, &x) {
            return Err(CounterExample { x });
        }
    }
    Ok(VerifyReport {
        targets_checked: trials,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitset::BitSet;

    fn fam(n: u32, k: u32, sets: &[&[u32]]) -> SelectiveFamily {
        SelectiveFamily::new(
            n,
            k,
            sets.iter()
                .map(|s| BitSet::from_iter_members(n, s.iter().copied()))
                .collect(),
        )
    }

    #[test]
    fn size_range_follows_definition() {
        assert_eq!(selective_size_range(10, 2), 1..=2);
        assert_eq!(selective_size_range(10, 4), 2..=4);
        assert_eq!(selective_size_range(10, 5), 3..=5);
        assert_eq!(selective_size_range(10, 1), 1..=1);
        // k/2 > n: the range is empty (start exceeds end).
        let degenerate = selective_size_range(3, 8);
        assert!(degenerate.is_empty());
        assert_eq!((*degenerate.start(), *degenerate.end()), (4, 3));
    }

    #[test]
    fn singletons_are_strongly_selective() {
        // The family of all singletons is (n,k)-strongly-selective for any k.
        let n = 6;
        let sets: Vec<Vec<u32>> = (0..n).map(|i| vec![i]).collect();
        let refs: Vec<&[u32]> = sets.iter().map(|s| s.as_slice()).collect();
        let f = fam(n, 3, &refs);
        assert!(selective_exhaustive(&f).is_ok());
        assert!(strongly_selective_exhaustive(&f).is_ok());
    }

    #[test]
    fn full_set_selects_singletons_only() {
        // {[n]} is (n,1)-selective (isolates singletons) but not (n,2)-…
        let f1 = fam(5, 1, &[&[0, 1, 2, 3, 4]]);
        assert!(selective_exhaustive(&f1).is_ok());
        let f2 = fam(5, 2, &[&[0, 1, 2, 3, 4]]);
        let err = selective_exhaustive(&f2).unwrap_err();
        assert_eq!(err.x.len(), 2); // first failing |X| = 2
    }

    #[test]
    fn counterexample_is_genuine() {
        // Family that always hits {0,1} twice or zero times.
        let f = fam(4, 2, &[&[0, 1], &[2, 3], &[]]);
        let err = selective_exhaustive(&f).unwrap_err();
        assert!(!selects(&f, &err.x));
    }

    #[test]
    fn strong_selectivity_strictly_stronger() {
        // F = {{0},{0,1}} selects {0,1} (via {0}) and both singletons
        // ({0} isolates 0; {0,1}∩{1}={1} isolates 1), so it is (2,2)-
        // selective; but it does NOT strongly select 1 within {0,1}.
        let f = fam(2, 2, &[&[0], &[0, 1]]);
        assert!(selective_exhaustive(&f).is_ok());
        let err = strongly_selective_exhaustive(&f).unwrap_err();
        assert_eq!(err.x, vec![0, 1]);
    }

    #[test]
    fn monte_carlo_agrees_with_exhaustive_on_good_family() {
        let n = 8;
        let sets: Vec<Vec<u32>> = (0..n).map(|i| vec![i]).collect();
        let refs: Vec<&[u32]> = sets.iter().map(|s| s.as_slice()).collect();
        let f = fam(n, 4, &refs);
        assert!(selective_exhaustive(&f).is_ok());
        assert!(selective_monte_carlo(&f, 500, 1).is_ok());
        assert!(strongly_selective_monte_carlo(&f, 200, 1).is_ok());
    }

    #[test]
    fn monte_carlo_finds_gross_violations() {
        // Empty family cannot select anything.
        let f = fam(8, 4, &[]);
        assert!(selective_monte_carlo(&f, 50, 3).is_err());
        assert!(strongly_selective_monte_carlo(&f, 50, 3).is_err());
    }

    #[test]
    fn reports_count_targets() {
        let n = 6;
        let sets: Vec<Vec<u32>> = (0..n).map(|i| vec![i]).collect();
        let refs: Vec<&[u32]> = sets.iter().map(|s| s.as_slice()).collect();
        let f = fam(n, 2, &refs);
        let rep = selective_exhaustive(&f).unwrap();
        // sizes 1 and 2: C(6,1) + C(6,2) = 6 + 15 = 21.
        assert_eq!(rep.targets_checked, 21);
    }
}
