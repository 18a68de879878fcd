//! Uniform access to `(n, 2^i)`-selective families for schedule construction.
//!
//! Both Scenario A and Scenario B algorithms consume *sequences* of
//! `(n, 2^i)`-selective families. The paper treats the families as given
//! (their existence is Komlós–Greenberg); this module lets the protocols pick
//! a concrete realization:
//!
//! * [`FamilyProvider::Random`] — the Komlós–Greenberg probabilistic
//!   construction (`selectors::random`), evaluated as a PRF oracle with
//!   `O(1)` memory: the size-optimal choice, selective w.h.p.;
//! * [`FamilyProvider::KautzSingleton`] — the explicit Reed–Solomon
//!   construction (`selectors::kautz_singleton`): deterministic and provably
//!   strongly selective, polynomially longer.
//!
//! Every provided family is wrapped in a [`DynFamily`], a cheap handle that
//! implements [`selectors::Schedule`] so it can be composed with the schedule
//! algebra.

use mac_sim::TxRow;
use selectors::kautz_singleton::{KautzSingleton, KsRow};
use selectors::random::{OracleFamily, OracleRow, RandomFamilyBuilder};
use selectors::schedule::Schedule;

/// A strategy for realizing `(n,k)`-selective families.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FamilyProvider {
    /// Komlós–Greenberg randomized construction with the given PRF seed and
    /// union-bound failure probability `δ`. Size `O(k + k·log(n/k))`.
    Random {
        /// PRF seed; per-family sub-seeds are derived from it and `k`.
        seed: u64,
        /// Union-bound failure probability used to size the family.
        delta: f64,
    },
    /// Explicit Kautz–Singleton superimposed code. Size `O(k² log² n)`,
    /// fully deterministic, *strongly* selective.
    KautzSingleton,
}

impl Default for FamilyProvider {
    /// The size-optimal randomized provider with seed 0 and `δ = 10⁻⁹`.
    fn default() -> Self {
        FamilyProvider::Random {
            seed: 0,
            delta: 1e-9,
        }
    }
}

impl FamilyProvider {
    /// A randomized provider with the given seed and default `δ = 10⁻⁹`.
    pub fn random_with_seed(seed: u64) -> Self {
        FamilyProvider::Random { seed, delta: 1e-9 }
    }

    /// Realize an `(n,k)`-selective family.
    pub fn family(&self, n: u32, k: u32) -> DynFamily {
        match *self {
            FamilyProvider::Random { seed, delta } => {
                // Decorrelate families of different k under one provider seed.
                let sub_seed = mac_sim::rng::derive_seed(seed, u64::from(k));
                let oracle = RandomFamilyBuilder::new(n, k)
                    .seed(sub_seed)
                    .failure_probability(delta)
                    .build_oracle();
                DynFamily {
                    n,
                    k,
                    inner: DynFamilyInner::Oracle(oracle),
                }
            }
            FamilyProvider::KautzSingleton => DynFamily {
                n,
                k,
                inner: DynFamilyInner::Ks(KautzSingleton::new(n, k)),
            },
        }
    }

    /// The family sequence `F₁, F₂, …, F_top` with `Fᵢ = (n, 2^i)`-selective,
    /// for `i = 1 ..= top` — the building block of `select_among_the_first`
    /// (top = `⌈log n⌉`) and `wait_and_go` (top = `⌈log k⌉`).
    ///
    /// For `top = 0` (which arises when `k = 1`) the sequence is the single
    /// trivial `(n,1)`-selective family (the full set), so the returned
    /// schedule is never empty.
    pub fn doubling_sequence(&self, n: u32, top: u32) -> Vec<DynFamily> {
        // top = 0 starts at F₀ = (n, 1); clamped in u64, so for n > 2^31
        // F₃₂ is the (n, n)-selective family.
        (u32::from(top > 0)..=top)
            .map(|i| self.family(n, (1u64 << i).min(u64::from(n)) as u32))
            .collect()
    }
}

#[derive(Clone, Debug)]
enum DynFamilyInner {
    Oracle(OracleFamily),
    Ks(KautzSingleton),
}

/// A realized `(n,k)`-selective family: a cheap, cloneable handle answering
/// membership queries in O(1), usable as a [`Schedule`].
#[derive(Clone, Debug)]
pub struct DynFamily {
    n: u32,
    k: u32,
    inner: DynFamilyInner,
}

impl DynFamily {
    /// Universe size.
    pub fn n(&self) -> u32 {
        self.n
    }

    /// Contention bound `k` the family targets.
    pub fn k(&self) -> u32 {
        self.k
    }

    /// Family length (number of transmission sets).
    pub fn len(&self) -> u64 {
        match &self.inner {
            DynFamilyInner::Oracle(o) => o.len() as u64,
            DynFamilyInner::Ks(ks) => ks.len() as u64,
        }
    }

    /// `true` iff the family has no sets (never happens for valid params).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Transmission set `j`, resolved once for testing many stations
    /// against it (the empty set past the family's end).
    #[inline]
    pub fn row(&self, j: u64) -> DynRow<'_> {
        match &self.inner {
            DynFamilyInner::Oracle(o) if (j as usize) < o.len() => {
                DynRow::Oracle(o.row(j as usize))
            }
            DynFamilyInner::Ks(ks) if (j as usize) < ks.len() => DynRow::Ks(ks.row(j as usize)),
            _ => DynRow::Empty,
        }
    }

    /// Does station `u` belong to transmission set `j`?
    #[inline]
    pub fn member(&self, u: u32, j: u64) -> bool {
        self.row(j).contains(u)
    }

    /// The first set `j ∈ [from, end)` that holds station `u` (`end` is
    /// clipped to the family length), or `None`. The randomized family walks
    /// its sets with the seed folded once ([`OracleFamily::next_member`]);
    /// the Kautz–Singleton code tests one set after the other.
    #[inline]
    pub fn next_member(&self, u: u32, from: u64, end: u64) -> Option<u64> {
        let end = end.min(self.len());
        match &self.inner {
            DynFamilyInner::Oracle(o) => o
                .next_member(u, from as usize, end as usize)
                .map(|j| j as u64),
            DynFamilyInner::Ks(ks) => (from..end).find(|&j| ks.transmits(u, j as usize)),
        }
    }

    /// Materialize into an explicit family for verification.
    pub fn materialize(&self) -> selectors::SelectiveFamily {
        match &self.inner {
            DynFamilyInner::Oracle(o) => o.materialize(),
            DynFamilyInner::Ks(ks) => ks.materialize(),
        }
    }
}

/// One transmission set of a [`DynFamily`] (see [`DynFamily::row`]).
#[derive(Clone, Copy, Debug)]
pub enum DynRow<'a> {
    /// A set of the randomized construction.
    Oracle(OracleRow),
    /// A set of the Kautz–Singleton code.
    Ks(KsRow<'a>),
    /// A position past the family's end: nobody transmits.
    Empty,
}

impl TxRow for DynRow<'_> {
    #[inline]
    fn contains(&self, u: u32) -> bool {
        match self {
            DynRow::Oracle(r) => r.contains(u),
            DynRow::Ks(r) => r.contains(u),
            DynRow::Empty => false,
        }
    }

    #[inline]
    fn count_in(&self, lo: u32, hi: u32) -> (u64, Option<u32>) {
        match self {
            DynRow::Oracle(r) => r.count_in(lo, hi),
            DynRow::Ks(r) => TxRow::count_in(r, lo, hi),
            DynRow::Empty => (0, None),
        }
    }
}

impl Schedule for DynFamily {
    fn n(&self) -> u32 {
        self.n
    }
    fn len(&self) -> Option<u64> {
        Some(self.len())
    }
    fn transmits(&self, u: u32, j: u64) -> bool {
        self.member(u, j)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use selectors::verify;

    #[test]
    fn random_provider_families_verify() {
        let p = FamilyProvider::default();
        for (n, k) in [(12u32, 2u32), (14, 4)] {
            let fam = p.family(n, k).materialize();
            assert!(
                verify::selective_exhaustive(&fam).is_ok(),
                "(n={n},k={k}) not selective"
            );
        }
    }

    #[test]
    fn ks_provider_families_verify_strongly() {
        let p = FamilyProvider::KautzSingleton;
        let fam = p.family(12, 3).materialize();
        assert!(verify::strongly_selective_exhaustive(&fam).is_ok());
    }

    #[test]
    fn doubling_sequence_shapes() {
        let p = FamilyProvider::default();
        let seq = p.doubling_sequence(64, 3);
        assert_eq!(seq.len(), 3);
        assert_eq!(seq[0].k(), 2);
        assert_eq!(seq[1].k(), 4);
        assert_eq!(seq[2].k(), 8);
        // Lengths grow with k.
        assert!(seq[0].len() < seq[2].len());
    }

    #[test]
    fn doubling_sequence_top_zero_is_trivial_family() {
        let p = FamilyProvider::default();
        let seq = p.doubling_sequence(16, 0);
        assert_eq!(seq.len(), 1);
        assert_eq!(seq[0].k(), 1);
        assert_eq!(seq[0].len(), 1);
        // The single set is the full universe.
        for u in 0..16u32 {
            assert!(seq[0].member(u, 0));
        }
    }

    #[test]
    fn doubling_sequence_clamps_k_at_n() {
        let p = FamilyProvider::default();
        let seq = p.doubling_sequence(10, 4); // 2^4 = 16 > n = 10
        assert_eq!(seq.last().unwrap().k(), 10);
    }

    #[test]
    fn doubling_sequence_reaches_n_above_2_pow_31() {
        // ⌈log n⌉ = 32: F₃₂ is the (n, n)-selective family, not F₃₁ again.
        // Kautz–Singleton, because it sizes nothing by the union bound.
        let n = (1u32 << 31) + 1;
        let top = selectors::math::log_n(u64::from(n));
        let seq = FamilyProvider::KautzSingleton.doubling_sequence(n, top);
        let ks: Vec<u32> = seq.iter().rev().take(3).map(DynFamily::k).collect();
        assert_eq!(ks, [n, 1 << 31, 1 << 30]);
    }

    #[test]
    fn different_k_get_different_seeds() {
        let p = FamilyProvider::default();
        let a = p.family(32, 4);
        let b = p.family(32, 8);
        // Membership patterns of the first set should differ somewhere.
        let differs = (0..32u32).any(|u| a.member(u, 0) != b.member(u, 0));
        assert!(differs);
    }

    #[test]
    fn dyn_family_is_a_schedule() {
        let p = FamilyProvider::default();
        let f = p.family(16, 2);
        let s: &dyn Schedule = &f;
        assert_eq!(s.n(), 16);
        assert_eq!(s.len(), Some(f.len()));
        // Out-of-range position is silent.
        assert!(!s.transmits(0, f.len() + 10));
    }
}
