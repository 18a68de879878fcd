//! The **waking matrix** — §5's combinatorial tool for Scenario C.
//!
//! A `(log n × ℓ)` *transmission matrix* `M`, `ℓ = 2c·n·log n·log log n`,
//! whose entries `M_{i,j} ⊆ [n]` are the transmission sets. The paper
//! (Theorem 5.2) proves by the probabilistic method that drawing each
//! membership independently with probability
//!
//! ```text
//! Prob[u ∈ M_{i,j}] = 2^{-(i + ρ(j))},     ρ(j) = j mod log log n
//! ```
//!
//! yields, with probability `1 − n^{-Ω(1)}`, a **waking matrix**: one that
//! isolates some station by the first *well-balanced* round of any admissible
//! wake-up pattern. An explicit construction is left open (§7); we realize
//! the same ensemble through a seeded PRF (`selectors::prf`), so every
//! station evaluates `u ∈ M_{i,j}` in O(1) and all stations agree on the
//! matrix without storing it. The sample is not certified at scale:
//! [`certify`](mod@crate::certify) checks it on small universes, and a run
//! that exhausts the scan surfaces as a censored sample.
//!
//! The density sweep `ρ(j)` is the key trick: within each **window** of
//! `log log n` consecutive slots, the membership probability of every row is
//! halved slot by slot, so *some* slot in the window hits the sweet spot
//! `1/8 ≤ Σᵢ |S_{i,j}| / 2^{i+ρ(j)} ≤ 2` (Lemma 5.4) regardless of how the
//! adversary distributed stations across rows — at which point a station is
//! isolated with probability ≥ 1/128 (Lemma 5.3).
//!
//! This module contains the matrix itself plus the complete §5.2 analysis
//! vocabulary (windows, `S(j)`/`S_{i,j}` occupancy, conditions **S1**/**S2**,
//! well-balancedness, isolation) and the renderings behind the paper's
//! Figures 1 and 2. The protocol driving stations over the matrix is
//! [`WakeupN`](crate::wakeup_n::WakeupN).

use mac_sim::{Slot, TxRow, WakePattern};
use selectors::math::{log_log_n, log_n};
use selectors::prf::{GapScanner, RowPrefix};

/// Parameters of a waking matrix.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MatrixParams {
    /// Universe size `n ≥ 1`.
    pub n: u32,
    /// The paper's "sufficiently large constant" `c ≥ 1` scaling both the
    /// row dwell times `m_i = c·2^i·log n·log log n` and the length
    /// `ℓ = 2c·n·log n·log log n`. Default 2 (calibrated empirically;
    /// EXP-ABL's ABL-C table measures the sensitivity to `c`).
    pub c: u32,
    /// PRF seed selecting the concrete matrix from the random ensemble.
    pub seed: u64,
    /// Enable the within-window density sweep `ρ(j)` (the paper's design).
    /// Disabling it (ablation EXP-ABL-RHO) fixes `ρ ≡ 0`, i.e. row `i`
    /// always has density `2^{-i}` — the design choice whose removal
    /// degrades Scenario C towards the `O(k log² n)` regime.
    pub rho_sweep: bool,
}

impl MatrixParams {
    /// Default parameters for universe size `n` (`c = 2`, seed 0, sweep on).
    pub fn new(n: u32) -> Self {
        MatrixParams {
            n,
            c: 2,
            seed: 0,
            rho_sweep: true,
        }
    }

    /// Disable the `ρ(j)` density sweep (ablation).
    pub fn without_rho_sweep(mut self) -> Self {
        self.rho_sweep = false;
        self
    }

    /// Set the constant `c`.
    pub fn with_c(mut self, c: u32) -> Self {
        assert!(c >= 1);
        self.c = c;
        self
    }

    /// Set the PRF seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// The waking matrix: `log n` rows × `ℓ` columns, scanned circularly,
/// entries realized by a seeded PRF.
#[derive(Clone, Debug)]
pub struct WakingMatrix {
    n: u32,
    c: u32,
    seed: u64,
    rho_sweep: bool,
    /// Number of rows, the paper's `log n` (≥ 1).
    rows: u32,
    /// Window length, the paper's `log log n` (≥ 2).
    window: u32,
    /// Matrix length `ℓ = 2c·n·log n·log log n` (a multiple of `window`).
    ell: u64,
    /// Row dwell times `m_i = c·2^i·log n·log log n`, index 0 ↔ row 1.
    dwell: Vec<u64>,
    /// Prefix sums of `dwell`: `cum[i]` = slots spent before entering row
    /// `i+1`; `cum[rows]` = total scan time.
    cum: Vec<u64>,
}

impl WakingMatrix {
    /// Build the matrix for the given parameters.
    pub fn new(params: MatrixParams) -> Self {
        let MatrixParams {
            n,
            c,
            seed,
            rho_sweep,
        } = params;
        assert!(n >= 1, "waking matrix needs n ≥ 1");
        assert!(c >= 1, "waking matrix needs c ≥ 1");
        let rows = log_n(u64::from(n));
        let window = log_log_n(u64::from(n));
        let lw = u64::from(rows) * u64::from(window);
        let ell = 2 * u64::from(c) * u64::from(n) * lw;
        let dwell: Vec<u64> = (1..=rows)
            .map(|i| u64::from(c) * (1u64 << i.min(62)) * lw)
            .collect();
        let mut cum = Vec::with_capacity(rows as usize + 1);
        let mut acc = 0u64;
        cum.push(0);
        for &m in &dwell {
            acc += m;
            cum.push(acc);
        }
        WakingMatrix {
            n,
            c,
            seed,
            rho_sweep,
            rows,
            window,
            ell,
            dwell,
            cum,
        }
    }

    /// Universe size `n`.
    pub fn n(&self) -> u32 {
        self.n
    }

    /// The constant `c`.
    pub fn c(&self) -> u32 {
        self.c
    }

    /// The PRF seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Number of rows (`log n`).
    pub fn rows(&self) -> u32 {
        self.rows
    }

    /// Window length (`log log n`).
    pub fn window(&self) -> u32 {
        self.window
    }

    /// Matrix length `ℓ`.
    pub fn ell(&self) -> u64 {
        self.ell
    }

    /// Row dwell time `m_i` (`i` is 1-based as in the paper).
    pub fn dwell(&self, i: u32) -> u64 {
        assert!(
            (1..=self.rows).contains(&i),
            "row {i} out of 1..={}",
            self.rows
        );
        self.dwell[(i - 1) as usize]
    }

    /// Total scan time `Σᵢ m_i` — after this many slots past `µ(σ)` a
    /// station has walked every row and (per the paper's protocol) stops.
    pub fn total_scan(&self) -> u64 {
        *self.cum.last().unwrap()
    }

    /// The density exponent offset `ρ(j) = j mod log log n`.
    ///
    /// `ℓ` is a multiple of the window length, so `ρ` commutes with the
    /// circular column map: `ρ(t mod ℓ) = t mod window`.
    #[inline]
    pub fn rho(&self, j: Slot) -> u32 {
        if !self.rho_sweep {
            return 0;
        }
        (j % u64::from(self.window)) as u32
    }

    /// `µ(σ) = min{l ≥ σ : l ≡ 0 (mod log log n)}` — the first window
    /// boundary at or after `σ`; stations wait until it before operating.
    #[inline]
    pub fn mu(&self, sigma: Slot) -> Slot {
        let w = u64::from(self.window);
        sigma.div_ceil(w) * w
    }

    /// The entry `M_{i,j}` (`i` 1-based; `j` any slot — reduced mod `ℓ`
    /// internally, matching the circular scan), resolved once: the PRF
    /// prefix over `(seed, i)` with the column and the density exponent
    /// `i + ρ(j)` fixed, so a whole class is tested against one slot at 3 of
    /// the 5 mixing rounds per station.
    #[inline]
    pub fn row(&self, i: u32, j: Slot) -> MatrixRow {
        debug_assert!((1..=self.rows).contains(&i));
        let col = j % self.ell;
        MatrixRow {
            prefix: RowPrefix::new(self.seed, u64::from(i)),
            col,
            d: i + self.rho(col),
            n: self.n,
        }
    }

    /// Membership test `u ∈ M_{i,j}` (`i` 1-based; `j` any slot).
    ///
    /// Probability over the ensemble: `2^{-(i + ρ(j))}`. The PRF arguments
    /// are ordered `(row, station, column)` so that the per-`(row, station)`
    /// mixing prefix can be hoisted out of column scans — see
    /// [`next_member`](Self::next_member) and [`selectors::prf::GapScanner`]
    /// — and the per-row prefix out of station sweeps ([`row`](Self::row)).
    #[inline]
    pub fn member(&self, i: u32, j: Slot, u: u32) -> bool {
        self.row(i, j).contains(u)
    }

    /// The first slot `t ∈ [from, to)` with `u ∈ M_{i, t mod ℓ}` — the
    /// structure-aware jump behind `wakeup(n)`'s sparse hints. One PRF
    /// prefix covers the whole scan, so the expected cost is
    /// `O(min(2^{i+ρ}, to − from))` cheap (2-round) coin evaluations
    /// rather than full 5-round hashes per slot.
    pub fn next_member(&self, i: u32, u: u32, from: Slot, to: Slot) -> Option<Slot> {
        debug_assert!((1..=self.rows).contains(&i));
        if u >= self.n {
            return None;
        }
        self.next_member_scanned(&self.row_scanner(i, u), i, from, to)
    }

    /// The PRF mixing prefix for scans of row `i` by station `u` —
    /// [`GapScanner::coin`]`(col, d)` equals the `member` coin for that
    /// `(row, station)` pair. Cache it across repeated
    /// [`next_member_scanned`](Self::next_member_scanned) calls within one
    /// row (stations re-queried after every polled slot do exactly this).
    #[inline]
    pub fn row_scanner(&self, i: u32, u: u32) -> GapScanner {
        GapScanner::new(self.seed, u64::from(i), u64::from(u))
    }

    /// [`next_member`](Self::next_member) with a caller-held
    /// [`row_scanner`](Self::row_scanner) — avoids re-deriving the prefix
    /// on every re-query.
    pub fn next_member_scanned(
        &self,
        scanner: &GapScanner,
        i: u32,
        from: Slot,
        to: Slot,
    ) -> Option<Slot> {
        if from >= to {
            return None;
        }
        // Column and ρ advance incrementally (ℓ is a multiple of the window
        // length, so both wrap cleanly): two divisions for the whole scan
        // instead of two per coin.
        let w = self.window;
        let mut col = from % self.ell;
        let mut rho = if self.rho_sweep {
            (col % u64::from(w)) as u32
        } else {
            0
        };
        let mut t = from;
        loop {
            if scanner.coin(col, i + rho) {
                return Some(t);
            }
            t += 1;
            if t >= to {
                return None;
            }
            col += 1;
            if col == self.ell {
                col = 0;
            }
            if self.rho_sweep {
                rho += 1;
                if rho == w {
                    rho = 0;
                }
            }
        }
    }

    /// Where global slot `t` falls on the walk that starts at `mu = µ(σ)`:
    /// the row the station dwells in and that row's global slots, or `None`
    /// off the walk (`t < mu`, or `t ≥ mu + total_scan()` once the scan is
    /// over). The walk's one mapping: `wakeup(n)`'s stations and classes,
    /// [`row_at`](Self::row_at) and [`transmits`](Self::transmits) all
    /// answer from it.
    pub fn segment(&self, mu: Slot, t: Slot) -> Option<Segment> {
        let delta = t.checked_sub(mu)?;
        // `cum` rises strictly from `cum[0] = 0`: row i covers the offsets
        // [cum[i − 1], cum[i]), so i counts the prefix sums ≤ delta.
        let row = self.cum.partition_point(|&c| c <= delta);
        let end = *self.cum.get(row)?;
        Some(Segment {
            row: row as u32,
            start: mu + self.cum[row - 1],
            end: mu + end,
        })
    }

    /// The row of a station woken at `sigma`, at global slot `t`
    /// (`None` while waiting `t < µ(σ)` or after the scan).
    pub fn row_at(&self, sigma: Slot, t: Slot) -> Option<u32> {
        self.segment(self.mu(sigma), t).map(|s| s.row)
    }

    /// Does a station woken at `sigma` transmit at global slot `t`?
    /// (The protocol's transmission predicate, stateless form.)
    pub fn transmits(&self, u: u32, sigma: Slot, t: Slot) -> bool {
        self.row_at(sigma, t).is_some_and(|i| self.member(i, t, u))
    }

    /// The window index of slot `j` (windows are `[p·W, (p+1)·W)`).
    #[inline]
    pub fn window_index(&self, j: Slot) -> u64 {
        j / u64::from(self.window)
    }
}

/// One row's dwell on a station's walk (see [`WakingMatrix::segment`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Segment {
    /// The row, 1-based.
    pub row: u32,
    /// The first global slot of the dwell.
    pub start: Slot,
    /// The first global slot after it.
    pub end: Slot,
}

/// One entry `M_{i,j}` of a [`WakingMatrix`] (see [`WakingMatrix::row`]).
#[derive(Clone, Copy, Debug)]
pub struct MatrixRow {
    prefix: RowPrefix,
    col: u64,
    d: u32,
    n: u32,
}

impl TxRow for MatrixRow {
    /// Is station `u` in `M_{i,j}`?
    #[inline]
    fn contains(&self, u: u32) -> bool {
        u < self.n && self.prefix.scanner(u64::from(u)).coin(self.col, self.d)
    }
}

// ---------------------------------------------------------------------------
// §5.2 analysis machinery.
// ---------------------------------------------------------------------------

/// The §5.2 occupancy/balance analysis of a wake-up pattern against a matrix.
///
/// All methods take *global* slots; stations are the pattern's wakers.
#[derive(Clone, Debug)]
pub struct MatrixAnalysis<'a> {
    matrix: &'a WakingMatrix,
    /// `(station, σ)` pairs.
    wakes: Vec<(u32, Slot)>,
}

impl<'a> MatrixAnalysis<'a> {
    /// Analyze `pattern` against `matrix`.
    pub fn new(matrix: &'a WakingMatrix, pattern: &WakePattern) -> Self {
        MatrixAnalysis {
            matrix,
            wakes: pattern.wakes().iter().map(|&(id, t)| (id.0, t)).collect(),
        }
    }

    /// `S(j)` with row assignments: the stations operational at slot `j`
    /// (`µ(σ) ≤ j`, scan not finished) and the row each occupies.
    pub fn occupancy(&self, j: Slot) -> Vec<(u32, u32)> {
        self.wakes
            .iter()
            .filter_map(|&(u, sigma)| self.matrix.row_at(sigma, j).map(|row| (u, row)))
            .collect()
    }

    /// Row histogram `|S_{i,j}|` for `i = 1..=rows` (index 0 ↔ row 1).
    pub fn row_sizes(&self, j: Slot) -> Vec<u32> {
        let mut sizes = vec![0u32; self.matrix.rows() as usize];
        for (_, row) in self.occupancy(j) {
            sizes[(row - 1) as usize] += 1;
        }
        sizes
    }

    /// `|S(j)|` — number of operational stations.
    pub fn operational_count(&self, j: Slot) -> usize {
        self.occupancy(j).len()
    }

    /// Condition **S1**: `Σᵢ |S_{i,j}| / 2^i ≤ log n`.
    pub fn s1(&self, j: Slot) -> bool {
        let sum: f64 = self
            .row_sizes(j)
            .iter()
            .enumerate()
            .map(|(idx, &sz)| f64::from(sz) / 2f64.powi(idx as i32 + 1))
            .sum();
        sum <= f64::from(self.matrix.rows())
    }

    /// Condition **S2**: `∃i: |S_{i,j}| ≥ 2^{i-3}`.
    pub fn s2(&self, j: Slot) -> bool {
        self.row_sizes(j)
            .iter()
            .enumerate()
            .any(|(idx, &sz)| f64::from(sz) >= 2f64.powi(idx as i32 + 1 - 3))
    }

    /// The Lemma 5.3/5.4 weighted contention `Σᵢ |S_{i,j}| / 2^{i+ρ(j)}`.
    pub fn weighted_contention(&self, j: Slot) -> f64 {
        let rho = self.matrix.rho(j % self.matrix.ell()) as i32;
        self.row_sizes(j)
            .iter()
            .enumerate()
            .map(|(idx, &sz)| f64::from(sz) / 2f64.powi(idx as i32 + 1 + rho))
            .sum()
    }

    /// The stations that transmit at slot `j`:
    /// `⋃ᵢ (S_{i,j} ∩ M_{i,j})`.
    pub fn transmitters(&self, j: Slot) -> Vec<u32> {
        let mut txs: Vec<u32> = self
            .occupancy(j)
            .into_iter()
            .filter(|&(u, row)| self.matrix.member(row, j, u))
            .map(|(u, _)| u)
            .collect();
        txs.sort_unstable();
        txs
    }

    /// Is some station **isolated** at slot `j`
    /// (`⋃ᵢ (S_{i,j} ∩ M_{i,j}) = {w}`)? Returns the isolated station.
    pub fn isolated(&self, j: Slot) -> Option<u32> {
        let txs = self.transmitters(j);
        if txs.len() == 1 {
            Some(txs[0])
        } else {
            None
        }
    }

    /// Is `S(t)` *well-balanced at time `t`* (Definition after P1): do there
    /// exist `c·|S(t)|·log n·log log n` slots `j ∈ [s, t]` satisfying both
    /// S1 and S2?
    pub fn well_balanced(&self, s: Slot, t: Slot) -> bool {
        let needed = u64::from(self.matrix.c())
            * self.operational_count(t) as u64
            * u64::from(self.matrix.rows())
            * u64::from(self.matrix.window());
        if needed == 0 {
            return true;
        }
        let mut count = 0u64;
        for j in s..=t {
            if self.s1(j) && self.s2(j) {
                count += 1;
                if count >= needed {
                    return true;
                }
            }
        }
        false
    }

    /// Property **P1**: within one window, each `S_{i,·}` is constant.
    /// Returns `true` if the property holds over the window containing `j`.
    pub fn p1_holds(&self, j: Slot) -> bool {
        let w = u64::from(self.matrix.window());
        let start = (j / w) * w;
        let reference = self.row_sizes(start);
        (start..start + w).all(|jj| self.row_sizes(jj) == reference)
    }
}

// ---------------------------------------------------------------------------
// Figure renderings.
// ---------------------------------------------------------------------------

/// Render Figure 1: the row/column walk of one station woken at `sigma`
/// (compressed: one line per row with its global-slot interval).
pub fn render_walk(matrix: &WakingMatrix, sigma: Slot) -> String {
    let mu = matrix.mu(sigma);
    let mut out = String::new();
    out.push_str(&format!(
        "station woken at σ={sigma}, waits [{sigma}, {mu}), operative at µ(σ)={mu}\n"
    ));
    out.push_str(&format!(
        "matrix: {} rows × ℓ={} columns, window={}, c={}\n",
        matrix.rows(),
        matrix.ell(),
        matrix.window(),
        matrix.c()
    ));
    let mut t = mu;
    for i in 1..=matrix.rows() {
        let m = matrix.dwell(i);
        out.push_str(&format!(
            "row {i:>2}: slots [{t}, {}) — m_{i} = {m}, density 2^-({i}+ρ(j))\n",
            t + m
        ));
        t += m;
    }
    out.push_str(&format!("scan ends at slot {t}\n"));
    out
}

/// Render Figure 2: a column snapshot — stations woken at different times
/// transmit conditionally to sets in *different rows* of the *same column*.
pub fn render_column(matrix: &WakingMatrix, pattern: &WakePattern, j: Slot) -> String {
    let analysis = MatrixAnalysis::new(matrix, pattern);
    let mut out = format!(
        "column j = {} (= slot {} mod ℓ), ρ(j) = {}\n",
        j % matrix.ell(),
        j,
        matrix.rho(j % matrix.ell())
    );
    let occupancy = analysis.occupancy(j);
    for i in 1..=matrix.rows() {
        let in_row: Vec<String> = occupancy
            .iter()
            .filter(|&&(_, row)| row == i)
            .map(|&(u, _)| {
                let tx = if matrix.member(i, j, u) { "*" } else { "" };
                format!("u{u}{tx}")
            })
            .collect();
        out.push_str(&format!(
            "row {i:>2} (p=2^-{:>2}): S_{{{i},j}} = {{{}}}\n",
            i + matrix.rho(j % matrix.ell()),
            in_row.join(", ")
        ));
    }
    out.push_str("(* = member of M_{i,j}, i.e. transmits at this slot)\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mac_sim::StationId;

    fn matrix(n: u32) -> WakingMatrix {
        WakingMatrix::new(MatrixParams::new(n))
    }

    #[test]
    fn dimensions_follow_the_formulas() {
        let m = matrix(1024);
        assert_eq!(m.rows(), 10); // log 1024
        assert_eq!(m.window(), 4); // ceil(log2 10)
        assert_eq!(m.ell(), 2 * 2 * 1024 * 10 * 4);
        assert_eq!(m.dwell(1), 2 * 2 * 10 * 4);
        assert_eq!(m.dwell(10), 2 * 1024 * 10 * 4);
        // ℓ is a multiple of the window length (ρ commutes with mod ℓ).
        assert_eq!(m.ell() % u64::from(m.window()), 0);
        // total scan = c·L·W·(2^{L+1}-2) ≈ ℓ.
        assert_eq!(m.total_scan(), 2 * 10 * 4 * (2u64.pow(11) - 2));
    }

    #[test]
    fn small_universes_are_total() {
        for n in [1u32, 2, 3, 4, 7, 8] {
            let m = matrix(n);
            assert!(m.rows() >= 1, "n={n}");
            assert!(m.window() >= 2, "n={n}");
            assert!(m.ell() > 0, "n={n}");
            // Membership is evaluable everywhere without panicking.
            let _ = m.member(1, 12345, 0);
        }
    }

    #[test]
    fn mu_is_next_window_boundary() {
        let m = matrix(1024); // window = 4
        assert_eq!(m.mu(0), 0);
        assert_eq!(m.mu(1), 4);
        assert_eq!(m.mu(3), 4);
        assert_eq!(m.mu(4), 4);
        assert_eq!(m.mu(5), 8);
        // µ(σ) − σ < window, and µ(σ) ≡ 0 mod window.
        for sigma in 0..100u64 {
            let mu = m.mu(sigma);
            assert!(mu >= sigma && mu - sigma < 4);
            assert_eq!(mu % 4, 0);
        }
    }

    #[test]
    fn rho_sweeps_within_windows() {
        let m = matrix(1024);
        for j in 0..40u64 {
            assert_eq!(m.rho(j), (j % 4) as u32);
        }
    }

    #[test]
    fn row_at_offset_walks_rows_in_order() {
        let m = matrix(64); // rows = 6
        let mu = 9u64;
        let (m1, m2) = (m.dwell(1), m.dwell(2));
        let seg = |row, start, end| Some(Segment { row, start, end });
        assert_eq!(m.segment(mu, mu - 1), None);
        assert_eq!(m.segment(mu, mu), seg(1, mu, mu + m1));
        assert_eq!(m.segment(mu, mu + m1 - 1), seg(1, mu, mu + m1));
        assert_eq!(m.segment(mu, mu + m1), seg(2, mu + m1, mu + m1 + m2));
        let end = mu + m.total_scan();
        assert_eq!(m.segment(mu, end - 1), seg(6, end - m.dwell(6), end));
        assert_eq!(m.segment(mu, end), None);
    }

    #[test]
    #[should_panic(expected = "c ≥ 1")]
    fn c_zero_is_rejected() {
        // `c` is a public field, so `with_c`'s check alone does not hold:
        // c = 0 would make ℓ = 0 and an empty scan.
        let mut p = MatrixParams::new(64);
        p.c = 0;
        let _ = WakingMatrix::new(p);
    }

    #[test]
    fn membership_density_tracks_2_to_minus_i_plus_rho() {
        let m = matrix(256); // rows = 8, window = 3
                             // Sample row 2 at columns with ρ = 0: density 1/4.
        let trials = 3000u64;
        let w = u64::from(m.window());
        let mut hits = 0u64;
        let mut total = 0u64;
        for col in (0..trials).map(|x| x * w) {
            for u in 0..m.n() {
                total += 1;
                if m.member(2, col, u) {
                    hits += 1;
                }
            }
        }
        let p = hits as f64 / total as f64;
        assert!(
            (p - 0.25).abs() < 0.01,
            "row-2 ρ=0 density {p} should be ≈ 0.25"
        );
    }

    #[test]
    fn transmits_combines_waiting_rows_and_membership() {
        let m = matrix(64);
        let sigma = 5u64;
        let mu = m.mu(sigma);
        // While waiting, never transmits.
        for t in sigma..mu {
            assert!(!m.transmits(3, sigma, t));
        }
        // After the scan, never transmits.
        assert!(!m.transmits(3, sigma, mu + m.total_scan()));
        // During the scan, transmits iff member of the current row.
        let t = mu + m.dwell(1); // first slot of row 2
        assert_eq!(m.transmits(3, sigma, t), m.member(2, t, 3));
    }

    #[test]
    fn next_member_agrees_with_a_member_scan() {
        let m = matrix(128);
        for u in [0u32, 7, 127] {
            for i in [1u32, 3, m.rows()] {
                for from in [0u64, 5, m.ell() - 3, 2 * m.ell() + 11] {
                    let to = from + 500;
                    let reference = (from..to).find(|&t| m.member(i, t, u));
                    assert_eq!(
                        m.next_member(i, u, from, to),
                        reference,
                        "i={i} u={u} from={from}"
                    );
                }
            }
        }
        // Out-of-universe stations are members of nothing.
        assert_eq!(m.next_member(1, m.n(), 0, 10_000), None);
    }

    #[test]
    fn analysis_occupancy_and_rows() {
        let m = matrix(64); // window = 3
        let pattern = WakePattern::new(vec![
            (StationId(1), 0),
            (StationId(2), 0),
            (StationId(3), 50),
        ])
        .unwrap();
        let a = MatrixAnalysis::new(&m, &pattern);
        // At slot 0: stations 1, 2 operational (µ(0)=0) in row 1; 3 not yet.
        assert_eq!(a.occupancy(0), vec![(1, 1), (2, 1)]);
        assert_eq!(a.operational_count(0), 2);
        let sizes = a.row_sizes(0);
        assert_eq!(sizes[0], 2);
        assert_eq!(sizes.iter().sum::<u32>(), 2);
        // Much later, station 3 joins in a lower row than 1 and 2 only if
        // they have advanced; at its µ(50)=51? window=3 ⇒ µ(50)=51.
        let j = 60u64;
        let occ = a.occupancy(j);
        assert_eq!(occ.len(), 3);
        let row3 = occ.iter().find(|&&(u, _)| u == 3).unwrap().1;
        let row1 = occ.iter().find(|&&(u, _)| u == 1).unwrap().1;
        assert!(row3 <= row1);
    }

    #[test]
    fn p1_row_sets_constant_within_window() {
        let m = matrix(256);
        let pattern = WakePattern::new(vec![
            (StationId(0), 0),
            (StationId(5), 2),
            (StationId(9), 7),
            (StationId(20), 13),
        ])
        .unwrap();
        let a = MatrixAnalysis::new(&m, &pattern);
        for j in [0u64, 3, 6, 9, 30, 60] {
            assert!(a.p1_holds(j), "P1 violated in window of slot {j}");
        }
    }

    #[test]
    fn weighted_contention_halves_across_window() {
        // Within one window the occupancy is constant (P1) while ρ increases,
        // so the weighted contention halves from slot to slot.
        let m = matrix(256); // window = 3
        let pattern =
            WakePattern::new((0..12u32).map(|u| (StationId(u), 0)).collect::<Vec<_>>()).unwrap();
        let a = MatrixAnalysis::new(&m, &pattern);
        let w = u64::from(m.window());
        let start = 2 * w; // an arbitrary window boundary
        let c0 = a.weighted_contention(start);
        let c1 = a.weighted_contention(start + 1);
        let c2 = a.weighted_contention(start + 2);
        assert!((c0 / c1 - 2.0).abs() < 1e-9);
        assert!((c1 / c2 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn isolation_is_exactly_one_transmitter() {
        let m = matrix(64);
        let pattern = WakePattern::new(vec![(StationId(4), 0), (StationId(9), 0)]).unwrap();
        let a = MatrixAnalysis::new(&m, &pattern);
        for j in 0..200u64 {
            let txs = a.transmitters(j);
            match a.isolated(j) {
                Some(w) => assert_eq!(txs, vec![w]),
                None => assert_ne!(txs.len(), 1),
            }
        }
    }

    #[test]
    fn well_balanced_is_reached_within_the_theorem_horizon() {
        // Theorem 5.1: t − s ≥ 2c·|S(t)|·log n·log log n ⇒ well-balanced.
        let m = matrix(64);
        let k = 3u32;
        let pattern =
            WakePattern::new((0..k).map(|u| (StationId(u * 9), 0)).collect::<Vec<_>>()).unwrap();
        let a = MatrixAnalysis::new(&m, &pattern);
        let horizon =
            2 * u64::from(m.c()) * u64::from(k) * u64::from(m.rows()) * u64::from(m.window());
        assert!(
            a.well_balanced(0, horizon),
            "S(t) not well-balanced by the Theorem 5.1 horizon {horizon}"
        );
    }

    #[test]
    fn different_seeds_give_different_matrices() {
        let a = WakingMatrix::new(MatrixParams::new(128).with_seed(1));
        let b = WakingMatrix::new(MatrixParams::new(128).with_seed(2));
        let differs =
            (0..200u64).any(|j| (0..128u32).any(|u| a.member(1, j, u) != b.member(1, j, u)));
        assert!(differs);
    }

    #[test]
    fn renders_are_nonempty_and_mention_structure() {
        let m = matrix(64);
        let walk = render_walk(&m, 7);
        assert!(walk.contains("µ(σ)"));
        assert!(walk.contains("m_1"));
        let pattern = WakePattern::new(vec![(StationId(1), 0), (StationId(2), 9)]).unwrap();
        let col = render_column(&m, &pattern, 40);
        assert!(col.contains("S_{1,j}") || col.contains("row  1") || col.contains("row 1"));
    }

    #[test]
    fn c_scales_dimensions_linearly() {
        let m1 = WakingMatrix::new(MatrixParams::new(64).with_c(1));
        let m2 = WakingMatrix::new(MatrixParams::new(64).with_c(2));
        assert_eq!(2 * m1.ell(), m2.ell());
        assert_eq!(2 * m1.dwell(3), m2.dwell(3));
    }
}
