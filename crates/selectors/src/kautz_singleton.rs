//! Explicit **strongly selective** families via Kautz–Singleton superimposed
//! codes (Reed–Solomon concatenated with one-hot encoding).
//!
//! ## Construction
//!
//! Choose a prime `q` and a dimension `m ≥ 1` with `q^m ≥ n` and
//! `q ≥ k·(m-1) + 1`. Identify station `u < n` with the polynomial `p_u` over
//! `GF(q)` whose coefficients are the base-`q` digits of `u` (degree `< m`).
//! The family has one transmission set per pair `(a, v) ∈ GF(q) × GF(q)`:
//!
//! ```text
//! F_{a,v} = { u : p_u(a) = v }      (q² sets)
//! ```
//!
//! ## Why it is strongly selective
//!
//! Two distinct polynomials of degree `< m` agree on at most `m-1` points.
//! Fix `X` with `|X| ≤ k` and `x ∈ X`: the evaluation points `a` where *some*
//! other `y ∈ X` collides with `x` (`p_y(a) = p_x(a)`) number at most
//! `(|X|-1)(m-1) ≤ (k-1)(m-1) < q`. Hence some point `a*` is collision-free,
//! and `F_{a*, p_x(a*)} ∩ X = {x}`. ∎
//!
//! The family size is `q² = O(k² log² n / log² k)` — polynomially larger than
//! the probabilistic `O(k log(n/k))` bound, but **fully deterministic and
//! explicitly constructible**, which the paper's open problem (§7) asks for.
//! It is the classical construction of Kautz & Singleton (1964), cited as
//! \[26\] in the paper.
//!
//! For `m = 1` (i.e. `q ≥ n`) the construction degenerates gracefully: each
//! station is a constant polynomial, and the `q` non-redundant sets are the
//! singletons — round-robin as a code.

use crate::bitset::BitSet;
use crate::family::SelectiveFamily;
use crate::math::{is_prime, next_prime};

/// An explicit `(n,k)`-strongly-selective family from a Reed–Solomon
/// superimposed code.
#[derive(Clone, Debug)]
pub struct KautzSingleton {
    n: u32,
    k: u32,
    /// Field size (prime).
    q: u32,
    /// Number of base-`q` digits (polynomial coefficients).
    m: u32,
}

impl KautzSingleton {
    /// Choose code parameters for an `(n,k)`-strongly-selective family,
    /// minimizing the family size `q²` over admissible `(q, m)` pairs.
    pub fn new(n: u32, k: u32) -> Self {
        assert!(n >= 1, "n must be ≥ 1");
        assert!((1..=n).contains(&k), "k={k} outside 1..={n}");
        let mut best: Option<(u32, u32)> = None; // (q, m)
                                                 // m = 1 requires q ≥ n; larger m trades field size for degree.
        for m in 1..=32u32 {
            // Need q^m ≥ n and q ≥ k(m-1)+1 (strict collision-count bound).
            let q_floor_size = int_root_ceil(u64::from(n), m);
            let q_floor_deg = u64::from(k) * u64::from(m - 1) + 1;
            let q = next_prime(q_floor_size.max(q_floor_deg).max(2));
            if q > u64::from(u32::MAX) {
                continue;
            }
            let q = q as u32;
            if best.map(|(bq, _)| q < bq).unwrap_or(true) {
                best = Some((q, m));
            }
            // Once q is dominated by the degree constraint, growing m only
            // increases q; stop.
            if u64::from(k) * u64::from(m) + 1 > q_floor_size {
                break;
            }
        }
        let (q, m) = best.expect("parameter search cannot fail for n ≥ 1");
        debug_assert!(is_prime(u64::from(q)));
        KautzSingleton { n, k, q, m }
    }

    /// Field size `q` (prime).
    #[inline]
    pub fn q(&self) -> u32 {
        self.q
    }

    /// Polynomial dimension `m` (number of coefficients).
    #[inline]
    pub fn m(&self) -> u32 {
        self.m
    }

    /// Family length: `q²` sets (one per `(evaluation point, value)` pair).
    #[inline]
    pub fn len(&self) -> usize {
        self.q as usize * self.q as usize
    }

    /// `true` iff the family is empty (never happens: `q ≥ 2`).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Evaluate station `u`'s polynomial at point `a` (both in `GF(q)`):
    /// Horner's rule on the base-`q` digits of `u`, most significant first.
    #[inline]
    pub fn eval(&self, u: u32, a: u32) -> u32 {
        let q = u64::from(self.q);
        // Extract digits: u = d_0 + d_1 q + d_2 q² + …
        let mut digits = [0u64; 32];
        let mut rest = u64::from(u);
        for d in digits.iter_mut().take(self.m as usize) {
            *d = rest % q;
            rest /= q;
        }
        // Horner from the highest digit.
        let mut acc = 0u64;
        for i in (0..self.m as usize).rev() {
            acc = (acc * u64::from(a) + digits[i]) % q;
        }
        acc as u32
    }

    /// Set `j`, resolved once: `j = a·q + v` decoded into its
    /// `(point, value)` pair.
    #[inline]
    pub fn row(&self, j: usize) -> KsRow<'_> {
        KsRow {
            code: self,
            a: (j / self.q as usize) as u32,
            v: (j % self.q as usize) as u32,
        }
    }

    /// Does station `u` belong to set `j` (where `j = a·q + v` encodes the
    /// `(point, value)` pair)?
    #[inline]
    pub fn transmits(&self, u: u32, j: usize) -> bool {
        self.row(j).contains(u)
    }

    /// Materialize into an explicit [`SelectiveFamily`] (it is strongly
    /// selective, hence also `(n,k)`-selective).
    pub fn materialize(&self) -> SelectiveFamily {
        let sets = (0..self.len())
            .map(|j| {
                BitSet::from_iter_members(self.n, (0..self.n).filter(|&u| self.transmits(u, j)))
            })
            .collect();
        SelectiveFamily::new(self.n, self.k, sets)
    }
}

/// One set `F_{a,v}` of a [`KautzSingleton`] family (see
/// [`KautzSingleton::row`]).
#[derive(Clone, Copy, Debug)]
pub struct KsRow<'a> {
    code: &'a KautzSingleton,
    a: u32,
    v: u32,
}

impl KsRow<'_> {
    /// Does station `u` belong to this set, i.e. `p_u(a) = v`?
    #[inline]
    pub fn contains(&self, u: u32) -> bool {
        u < self.code.n && self.code.eval(u, self.a) == self.v
    }
}

/// `⌈n^{1/m}⌉` by integer search (small inputs; exactness matters, floating
/// point does not).
fn int_root_ceil(n: u64, m: u32) -> u64 {
    if m == 1 || n <= 1 {
        return n;
    }
    let mut r = 1u64;
    while !pow_at_least(r, m, n) {
        r += 1;
    }
    r
}

/// Does `r^m ≥ n`, computed without overflow?
fn pow_at_least(r: u64, m: u32, n: u64) -> bool {
    let mut acc: u128 = 1;
    for _ in 0..m {
        acc = acc.saturating_mul(u128::from(r));
        if acc >= u128::from(n) {
            return true;
        }
    }
    acc >= u128::from(n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify;

    #[test]
    fn parameters_satisfy_constraints() {
        for (n, k) in [(16u32, 2u32), (64, 3), (256, 4), (1024, 8), (7, 7)] {
            let ks = KautzSingleton::new(n, k);
            assert!(is_prime(u64::from(ks.q())), "(n={n},k={k}) q not prime");
            assert!(
                pow_at_least(u64::from(ks.q()), ks.m(), u64::from(n)),
                "(n={n},k={k}) q^m < n"
            );
            assert!(
                ks.q() > k * (ks.m() - 1),
                "(n={n},k={k}) degree constraint violated: q={} m={}",
                ks.q(),
                ks.m()
            );
        }
    }

    #[test]
    fn strongly_selective_exhaustive_small() {
        for (n, k) in [(9u32, 2u32), (12, 3), (16, 2), (15, 4)] {
            let fam = KautzSingleton::new(n, k).materialize();
            assert!(
                verify::strongly_selective_exhaustive(&fam).is_ok(),
                "KS not strongly selective for (n={n}, k={k})"
            );
        }
    }

    #[test]
    fn also_plainly_selective() {
        for (n, k) in [(12u32, 3u32), (16, 4)] {
            let fam = KautzSingleton::new(n, k).materialize();
            assert!(verify::selective_exhaustive(&fam).is_ok(), "(n={n},k={k})");
        }
    }

    #[test]
    fn strongly_selective_monte_carlo_medium() {
        let ks = KautzSingleton::new(512, 6);
        let fam = ks.materialize();
        assert!(verify::strongly_selective_monte_carlo(&fam, 400, 17).is_ok());
    }

    #[test]
    fn eval_is_polynomial_evaluation() {
        // q = 5, m = 2: u = d0 + 5·d1 ⇒ p_u(a) = d1·a + d0 mod 5.
        let ks = KautzSingleton {
            n: 25,
            k: 2,
            q: 5,
            m: 2,
        };
        for u in 0..25u32 {
            let (d0, d1) = (u % 5, u / 5);
            for a in 0..5u32 {
                assert_eq!(ks.eval(u, a), (d1 * a + d0) % 5, "u={u} a={a}");
            }
        }
    }

    #[test]
    fn rows_partition_stations_per_evaluation_point() {
        // For each point a, the sets {F_{a,v}}_v partition the universe.
        let ks = KautzSingleton::new(30, 3);
        let q = ks.q() as usize;
        for a in 0..q {
            let mut seen = [false; 30];
            for v in 0..q {
                let j = a * q + v;
                for u in 0..30u32 {
                    if ks.transmits(u, j) {
                        assert!(!seen[u as usize], "station {u} in two sets at point {a}");
                        seen[u as usize] = true;
                    }
                }
            }
            assert!(seen.iter().all(|&s| s), "partition incomplete at point {a}");
        }
    }

    #[test]
    fn m1_degenerates_to_singletons() {
        // n small, k = n forces q ≥ n with m = 1 → sets are singletons
        // (or empty), i.e. a round-robin-like code.
        let ks = KautzSingleton::new(5, 5);
        assert_eq!(ks.m(), 1);
        let fam = ks.materialize();
        for s in fam.sets() {
            assert!(s.len() <= 1);
        }
        assert!(verify::strongly_selective_exhaustive(&fam).is_ok());
    }

    #[test]
    fn int_root_ceil_values() {
        assert_eq!(int_root_ceil(16, 2), 4);
        assert_eq!(int_root_ceil(17, 2), 5);
        assert_eq!(int_root_ceil(27, 3), 3);
        assert_eq!(int_root_ceil(28, 3), 4);
        assert_eq!(int_root_ceil(1, 5), 1);
        assert_eq!(int_root_ceil(7, 1), 7);
    }
}
