//! Small number-theoretic and combinatorial helpers.

/// `⌈log₂ x⌉` for `x ≥ 1`; `ceil_log2(1) = 0`.
///
/// This is the paper's `log x` (the paper omits floors and ceilings; we
/// always round up so that schedule lengths are sufficient).
#[inline]
pub fn ceil_log2(x: u64) -> u32 {
    assert!(x >= 1, "ceil_log2 of 0");
    64 - (x - 1).leading_zeros().min(64)
}

/// `⌊log₂ x⌋` for `x ≥ 1`.
#[inline]
pub fn floor_log2(x: u64) -> u32 {
    assert!(x >= 1, "floor_log2 of 0");
    63 - x.leading_zeros()
}

/// The paper's `log n`, made total: `max(1, ⌈log₂ n⌉)`.
///
/// Returning at least 1 keeps row counts, window lengths and family indices
/// positive for the degenerate universes `n ∈ {1, 2}`.
#[inline]
pub fn log_n(n: u64) -> u32 {
    ceil_log2(n.max(2)).max(1)
}

/// The paper's `log log n`, made total: `max(2, ⌈log₂(log n)⌉)`.
///
/// Section 5 needs windows of `log log n` *consecutive* slots over which a
/// density sweep `ρ(j) = j mod log log n` runs; a window of length < 2 would
/// degenerate the sweep, so we clamp from below at 2.
#[inline]
pub fn log_log_n(n: u64) -> u32 {
    ceil_log2(u64::from(log_n(n)).max(2)).max(2)
}

/// The smallest `x ≥ from` with `x ≡ residue (mod modulus)` — the O(1)
/// "when is this station's next round-robin turn?" primitive behind the
/// round-robin stations' hints and tile fills.
///
/// Requires `residue < modulus`.
#[inline]
pub fn next_congruent(from: u64, residue: u64, modulus: u64) -> u64 {
    debug_assert!(residue < modulus, "residue {residue} ≥ modulus {modulus}");
    let r = from % modulus;
    if r <= residue {
        from + (residue - r)
    } else {
        from + (modulus - r) + residue
    }
}

/// Deterministic primality test by trial division (sufficient for the sizes
/// used by Kautz–Singleton parameters, which are at most a few thousand).
pub fn is_prime(x: u64) -> bool {
    if x < 2 {
        return false;
    }
    if x.is_multiple_of(2) {
        return x == 2;
    }
    if x.is_multiple_of(3) {
        return x == 3;
    }
    let mut d = 5u64;
    while d.saturating_mul(d) <= x {
        if x.is_multiple_of(d) || x.is_multiple_of(d + 2) {
            return false;
        }
        d += 6;
    }
    true
}

/// The smallest prime `≥ x`.
pub fn next_prime(x: u64) -> u64 {
    let mut p = x.max(2);
    while !is_prime(p) {
        p += 1;
    }
    p
}

/// `ln C(n, k)` (natural log of the binomial coefficient).
///
/// Used to size randomized constructions from union bounds without
/// overflowing; `ln_choose(n, 0) = 0`. Small `min(k, n−k)` is summed
/// exactly; large arguments use the Stirling-series log-factorial, accurate
/// to ~1e-12 relative — summing exactly for every target-set size up to `k`
/// made family sizing `O(k²)` (≈ a minute per construction at `k = 2^17`).
/// Family sizers evaluate many `k` at one `n` through `LnChooseRow`,
/// which returns the same bits.
pub fn ln_choose(n: u64, k: u64) -> f64 {
    assert!(k <= n, "ln_choose: k={k} > n={n}");
    let k = k.min(n - k);
    if k <= EXACT_MAX {
        let mut acc = 0.0f64;
        for i in 0..k {
            acc += ((n - i) as f64).ln() - ((i + 1) as f64).ln();
        }
        return acc;
    }
    // k > 256 ⇒ all of n, k, n−k are ≥ 256, deep inside the series' range.
    ln_factorial(n) - ln_factorial(k) - ln_factorial(n - k)
}

/// Largest `min(k, n−k)` that [`ln_choose`] sums exactly.
const EXACT_MAX: u64 = 256;

/// [`ln_choose`] for one fixed `n` and many `k`, bit-identical to it but
/// cheaper per call: the exact path reads a running prefix sum (the same
/// additions in the same order), extended only as far as the queries reach,
/// and the Stirling path reuses one hoisted `ln n!`.
pub(crate) struct LnChooseRow {
    n: u64,
    /// `ln n!`, or NaN when no `k` can take the Stirling path (`n ≤ 512`).
    ln_fact_n: f64,
    /// `prefix[j] = ln C(n, j)` on the exact path.
    prefix: Vec<f64>,
}

impl LnChooseRow {
    pub(crate) fn new(n: u64) -> Self {
        LnChooseRow {
            n,
            ln_fact_n: if n > 2 * EXACT_MAX {
                ln_factorial(n)
            } else {
                f64::NAN
            },
            prefix: vec![0.0],
        }
    }

    /// `ln C(n, k)`, bit for bit.
    pub(crate) fn ln_choose(&mut self, k: u64) -> f64 {
        assert!(k <= self.n, "ln_choose: k={k} > n={}", self.n);
        let k = k.min(self.n - k);
        if k > EXACT_MAX {
            return self.ln_fact_n - ln_factorial(k) - ln_factorial(self.n - k);
        }
        while self.prefix.len() as u64 <= k {
            let i = self.prefix.len() as u64 - 1;
            let acc = self.prefix[i as usize];
            self.prefix
                .push(acc + (((self.n - i) as f64).ln() - ((i + 1) as f64).ln()));
        }
        self.prefix[k as usize]
    }
}

/// `ln(x!)` by the Stirling series with three correction terms — relative
/// error below 1e-12 for `x ≥ 256` (callers with smaller `x` take
/// [`ln_choose`]'s exact path).
fn ln_factorial(x: u64) -> f64 {
    debug_assert!(x >= 256);
    let x = x as f64;
    let ln_2pi = (2.0 * std::f64::consts::PI).ln();
    (x + 0.5) * x.ln() - x + 0.5 * ln_2pi + 1.0 / (12.0 * x) - 1.0 / (360.0 * x.powi(3))
        + 1.0 / (1260.0 * x.powi(5))
}

/// Iterator over all `k`-subsets of `{0, …, n-1}` in lexicographic order,
/// yielding each subset as a sorted `&[u32]` via a visitor to avoid
/// allocation.
///
/// Returns the number of subsets visited. The visitor may return `false` to
/// stop early (e.g. when a counterexample is found).
pub fn for_each_subset<F: FnMut(&[u32]) -> bool>(n: u32, k: u32, mut visit: F) -> u64 {
    if k > n {
        return 0;
    }
    if k == 0 {
        visit(&[]);
        return 1;
    }
    let k = k as usize;
    let mut idx: Vec<u32> = (0..k as u32).collect();
    let mut count = 0u64;
    loop {
        count += 1;
        if !visit(&idx) {
            return count;
        }
        // Advance to the next combination in lexicographic order.
        let mut i = k;
        loop {
            if i == 0 {
                return count;
            }
            i -= 1;
            if idx[i] != n - (k - i) as u32 {
                break;
            }
            if i == 0 {
                return count;
            }
        }
        idx[i] += 1;
        for j in i + 1..k {
            idx[j] = idx[j - 1] + 1;
        }
    }
}

/// Exact binomial coefficient as `u128`, saturating at `u128::MAX`.
pub fn choose(n: u64, k: u64) -> u128 {
    if k > n {
        return 0;
    }
    let k = k.min(n - k);
    let mut acc: u128 = 1;
    for i in 0..k {
        acc = acc.saturating_mul((n - i) as u128) / (i as u128 + 1);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn next_congruent_agrees_with_naive_scan() {
        for modulus in [1u64, 2, 3, 7, 16] {
            for residue in 0..modulus {
                for from in 0..60u64 {
                    let naive = (from..).find(|x| x % modulus == residue).unwrap();
                    assert_eq!(
                        next_congruent(from, residue, modulus),
                        naive,
                        "from={from} residue={residue} modulus={modulus}"
                    );
                }
            }
        }
    }

    #[test]
    fn ceil_log2_values() {
        assert_eq!(ceil_log2(1), 0);
        assert_eq!(ceil_log2(2), 1);
        assert_eq!(ceil_log2(3), 2);
        assert_eq!(ceil_log2(4), 2);
        assert_eq!(ceil_log2(5), 3);
        assert_eq!(ceil_log2(1024), 10);
        assert_eq!(ceil_log2(1025), 11);
        assert_eq!(ceil_log2(u64::MAX), 64);
    }

    #[test]
    fn floor_log2_values() {
        assert_eq!(floor_log2(1), 0);
        assert_eq!(floor_log2(2), 1);
        assert_eq!(floor_log2(3), 1);
        assert_eq!(floor_log2(4), 2);
        assert_eq!(floor_log2(1023), 9);
    }

    #[test]
    fn log_helpers_are_total_and_clamped() {
        assert_eq!(log_n(1), 1);
        assert_eq!(log_n(2), 1);
        assert_eq!(log_n(3), 2);
        assert_eq!(log_n(1024), 10);
        assert_eq!(log_log_n(1), 2);
        assert_eq!(log_log_n(4), 2);
        assert_eq!(log_log_n(1024), 4); // ceil(log2(10)) = 4
        assert_eq!(log_log_n(1 << 16), 4);
        assert_eq!(log_log_n(1 << 20), 5);
    }

    #[test]
    fn primality_small() {
        let primes: Vec<u64> = (0..30).filter(|&x| is_prime(x)).collect();
        assert_eq!(primes, vec![2, 3, 5, 7, 11, 13, 17, 19, 23, 29]);
        assert!(is_prime(7919));
        assert!(!is_prime(7917));
        assert!(!is_prime(1));
        assert!(!is_prime(0));
    }

    #[test]
    fn next_prime_values() {
        assert_eq!(next_prime(0), 2);
        assert_eq!(next_prime(2), 2);
        assert_eq!(next_prime(14), 17);
        assert_eq!(next_prime(17), 17);
        assert_eq!(next_prime(90), 97);
    }

    #[test]
    fn ln_choose_matches_exact() {
        for (n, k) in [(10u64, 3u64), (20, 10), (52, 5), (100, 2)] {
            let exact = choose(n, k) as f64;
            let approx = ln_choose(n, k).exp();
            assert!(
                (approx - exact).abs() / exact < 1e-9,
                "n={n} k={k}: {approx} vs {exact}"
            );
        }
        assert_eq!(ln_choose(5, 0), 0.0);
    }

    #[test]
    fn ln_choose_stirling_path_matches_exact_summation() {
        // Straddle the exact/Stirling switchover: the series must agree
        // with the exact O(k) summation to ~1e-12 relative.
        let exact_sum = |n: u64, k: u64| -> f64 {
            let k = k.min(n - k);
            (0..k)
                .map(|i| ((n - i) as f64).ln() - ((i + 1) as f64).ln())
                .sum()
        };
        for (n, k) in [
            (1u64 << 20, 257u64),
            (1 << 20, 4096),
            (1 << 20, 131_072),
            (1 << 20, 1 << 19),
            (600, 300),
            (100_000, 99_000),
        ] {
            let a = ln_choose(n, k);
            let b = exact_sum(n, k);
            assert!(
                (a - b).abs() / b.abs().max(1.0) < 1e-10,
                "n={n} k={k}: stirling {a} vs exact {b}"
            );
        }
        // Continuity at the boundary.
        let lo = ln_choose(1 << 20, 256);
        let hi = ln_choose(1 << 20, 257);
        assert!(hi > lo && (hi - lo) < 20.0);
    }

    #[test]
    fn ln_choose_row_is_bit_identical_to_ln_choose() {
        for n in [1u64, 2, 255, 256, 511, 512, 513, 600, 4097, 1 << 20] {
            let mut row = LnChooseRow::new(n);
            // Descending, then ascending: the prefix must give the same
            // bits however far it was extended before.
            let ks: Vec<u64> = (0..=n.min(700))
                .rev()
                .chain(n.saturating_sub(700)..=n)
                .collect();
            for k in ks {
                assert_eq!(
                    row.ln_choose(k).to_bits(),
                    ln_choose(n, k).to_bits(),
                    "n={n} k={k}"
                );
            }
        }
    }

    #[test]
    fn choose_values() {
        assert_eq!(choose(5, 2), 10);
        assert_eq!(choose(10, 0), 1);
        assert_eq!(choose(10, 10), 1);
        assert_eq!(choose(10, 11), 0);
        assert_eq!(choose(52, 5), 2_598_960);
    }

    #[test]
    fn subset_enumeration_counts() {
        for (n, k) in [(5u32, 2u32), (6, 3), (8, 1), (4, 4), (7, 0)] {
            let mut seen = Vec::new();
            let visited = for_each_subset(n, k, |s| {
                seen.push(s.to_vec());
                true
            });
            assert_eq!(visited as u128, choose(n as u64, k as u64));
            // All distinct, sorted, within range.
            for s in &seen {
                assert!(s.windows(2).all(|w| w[0] < w[1]));
                assert!(s.iter().all(|&x| x < n));
            }
            let set: std::collections::BTreeSet<_> = seen.iter().collect();
            assert_eq!(set.len(), seen.len());
        }
    }

    #[test]
    fn subset_enumeration_lexicographic_order() {
        let mut seen = Vec::new();
        for_each_subset(4, 2, |s| {
            seen.push(s.to_vec());
            true
        });
        assert_eq!(
            seen,
            vec![
                vec![0, 1],
                vec![0, 2],
                vec![0, 3],
                vec![1, 2],
                vec![1, 3],
                vec![2, 3]
            ]
        );
    }

    #[test]
    fn subset_enumeration_early_stop() {
        let mut calls = 0;
        let visited = for_each_subset(10, 3, |_| {
            calls += 1;
            calls < 5
        });
        assert_eq!(visited, 5);
        assert_eq!(calls, 5);
    }

    #[test]
    fn subset_k_greater_than_n_is_empty() {
        let visited = for_each_subset(3, 5, |_| true);
        assert_eq!(visited, 0);
    }
}
