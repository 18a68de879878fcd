//! Streaming aggregation: the [`Collector`] contract and ready-made
//! accumulators.
//!
//! The runner folds per-run items into a collector **strictly in run-index
//! order**, on the caller's thread, no matter which worker produced each
//! item or in what order the batches finished. Any deterministic
//! collector therefore produces **bit-identical** output across thread
//! counts — the floating-point folds see exactly the sequence a sequential
//! loop would feed them.
//!
//! Two accumulators cover the common ensemble needs without materializing a
//! per-run vector:
//!
//! * [`OnlineStats`] — count/mean/sd (Welford), exact min/max, 95% CI;
//! * [`P2Quantile`] — the Jain–Chlamtac P² sketch: a five-marker streaming
//!   quantile estimate in O(1) memory, exact for the first five samples.

/// Folds per-run items in run-index order.
///
/// `collect(index, item)` is called once per run index, in ascending index
/// order, on the thread that invoked [`run`](crate::Runner::run). Implementors
/// never need interior synchronization.
pub trait Collector {
    /// The per-run result produced by the job closure.
    type Item;

    /// Fold the result of run `index` into the aggregate.
    fn collect(&mut self, index: u64, item: Self::Item);
}

/// A collector that simply materializes items in index order — the bridge
/// for callers that still want a `Vec` (compat paths, small ensembles).
#[derive(Debug, Default)]
pub struct VecCollector<T> {
    /// The items, in run-index order.
    pub items: Vec<T>,
}

impl<T> VecCollector<T> {
    /// An empty collector with capacity for `n` items.
    pub fn with_capacity(n: usize) -> Self {
        VecCollector {
            items: Vec::with_capacity(n),
        }
    }
}

impl<T> Collector for VecCollector<T> {
    type Item = T;

    fn collect(&mut self, index: u64, item: T) {
        debug_assert_eq!(index as usize, self.items.len(), "indices out of order");
        self.items.push(item);
    }
}

/// `&mut C` delegates, so collectors can be passed by reference.
impl<C: Collector> Collector for &mut C {
    type Item = C::Item;

    fn collect(&mut self, index: u64, item: C::Item) {
        (**self).collect(index, item)
    }
}

/// A collector wrapping a closure; build one with [`from_fn`].
pub struct FnCollector<T, F: FnMut(u64, T)> {
    f: F,
    _marker: std::marker::PhantomData<fn(T)>,
}

/// Wrap `f` as a collector: `runner.run(n, job, from_fn(|i, x| …))`.
pub fn from_fn<T, F: FnMut(u64, T)>(f: F) -> FnCollector<T, F> {
    FnCollector {
        f,
        _marker: std::marker::PhantomData,
    }
}

impl<T, F: FnMut(u64, T)> Collector for FnCollector<T, F> {
    type Item = T;

    fn collect(&mut self, index: u64, item: T) {
        (self.f)(index, item)
    }
}

/// Streaming count/mean/variance (Welford's algorithm) with exact min/max.
///
/// Folding is order-sensitive in the last floating-point bits — which is
/// exactly why the runner replays items in a fixed order.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Default for OnlineStats {
    /// Same as [`new`](OnlineStats::new) — the min/max sentinels must be
    /// ±∞, not the zero a derived `Default` would produce.
    fn default() -> Self {
        Self::new()
    }
}

impl OnlineStats {
    /// An empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Fold one observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Sample standard deviation (Bessel-corrected; 0 for count < 2).
    pub fn sd(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            (self.m2 / (self.count - 1) as f64).sqrt()
        }
    }

    /// Minimum observation (0 when empty).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Maximum observation (0 when empty).
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Half-width of the normal-approximation 95% confidence interval of
    /// the mean (`1.96·sd/√count`; 0 for count < 2).
    pub fn ci95(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            1.96 * self.sd() / (self.count as f64).sqrt()
        }
    }
}

/// The P² streaming quantile sketch of Jain & Chlamtac (CACM 1985).
///
/// Five markers track the running `q`-quantile in O(1) memory: the extremes,
/// the target quantile and its two halves. Marker heights move by the
/// piecewise-parabolic (P²) update, falling back to linear when the parabola
/// would overshoot a neighbour. Until five observations have arrived the
/// sketch stores them verbatim and [`value`](P2Quantile::value) interpolates
/// exactly, so small ensembles lose no accuracy.
#[derive(Clone, Debug)]
pub struct P2Quantile {
    p: f64,
    /// Marker heights.
    q: [f64; 5],
    /// Marker positions (1-based counts, as in the paper).
    n: [f64; 5],
    /// Desired marker positions.
    np: [f64; 5],
    /// Desired-position increments per observation.
    dn: [f64; 5],
    count: u64,
}

impl P2Quantile {
    /// A sketch for the `p`-quantile, `0 < p < 1`.
    pub fn new(p: f64) -> Self {
        assert!(p > 0.0 && p < 1.0, "quantile must be in (0, 1)");
        P2Quantile {
            p,
            q: [0.0; 5],
            n: [1.0, 2.0, 3.0, 4.0, 5.0],
            np: [1.0, 1.0 + 2.0 * p, 1.0 + 4.0 * p, 3.0 + 2.0 * p, 5.0],
            dn: [0.0, p / 2.0, p, (1.0 + p) / 2.0, 1.0],
            count: 0,
        }
    }

    /// The tracked quantile `p`.
    pub fn p(&self) -> f64 {
        self.p
    }

    /// Number of observations folded so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Fold one observation.
    pub fn push(&mut self, x: f64) {
        if self.count < 5 {
            // Bootstrap: store verbatim, keep sorted.
            self.q[self.count as usize] = x;
            self.count += 1;
            let filled = self.count as usize;
            self.q[..filled].sort_by(|a, b| a.partial_cmp(b).expect("NaN observation"));
            return;
        }
        self.count += 1;

        // Locate the cell k with q[k] <= x < q[k+1], adjusting extremes.
        let k = if x < self.q[0] {
            self.q[0] = x;
            0
        } else if x >= self.q[4] {
            self.q[4] = x;
            3
        } else {
            // q[0] <= x < q[4]: find the marker cell.
            (1..4).find(|&i| x < self.q[i]).unwrap_or(4) - 1
        };

        // Shift positions of markers above the cell; advance desired ones.
        for i in k + 1..5 {
            self.n[i] += 1.0;
        }
        for i in 0..5 {
            self.np[i] += self.dn[i];
        }

        // Nudge the three interior markers toward their desired positions.
        for i in 1..4 {
            let d = self.np[i] - self.n[i];
            if (d >= 1.0 && self.n[i + 1] - self.n[i] > 1.0)
                || (d <= -1.0 && self.n[i - 1] - self.n[i] < -1.0)
            {
                let d = d.signum();
                let qp = self.parabolic(i, d);
                self.q[i] = if self.q[i - 1] < qp && qp < self.q[i + 1] {
                    qp
                } else {
                    self.linear(i, d)
                };
                self.n[i] += d;
            }
        }
    }

    /// The piecewise-parabolic height prediction for marker `i` moved by `d`.
    fn parabolic(&self, i: usize, d: f64) -> f64 {
        let (q, n) = (&self.q, &self.n);
        q[i] + d / (n[i + 1] - n[i - 1])
            * ((n[i] - n[i - 1] + d) * (q[i + 1] - q[i]) / (n[i + 1] - n[i])
                + (n[i + 1] - n[i] - d) * (q[i] - q[i - 1]) / (n[i] - n[i - 1]))
    }

    /// The linear fallback height prediction.
    fn linear(&self, i: usize, d: f64) -> f64 {
        let j = if d > 0.0 { i + 1 } else { i - 1 };
        self.q[i] + d * (self.q[j] - self.q[i]) / (self.n[j] - self.n[i])
    }

    /// The current quantile estimate. Exact (linear interpolation on the
    /// sorted sample) while fewer than five observations have arrived;
    /// `None` when empty.
    pub fn value(&self) -> Option<f64> {
        match self.count {
            0 => None,
            c if c < 5 => {
                let sorted = &self.q[..c as usize];
                let pos = self.p * (sorted.len() - 1) as f64;
                let lo = pos.floor() as usize;
                let hi = pos.ceil() as usize;
                let frac = pos - lo as f64;
                Some(sorted[lo] * (1.0 - frac) + sorted[hi] * frac)
            }
            _ => Some(self.q[2]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exact_quantile(values: &mut [f64], p: f64) -> f64 {
        values.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let pos = p * (values.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        let frac = pos - lo as f64;
        values[lo] * (1.0 - frac) + values[hi] * frac
    }

    #[test]
    fn online_stats_match_closed_form() {
        let mut s = OnlineStats::new();
        for x in [1.0, 2.0, 3.0, 4.0, 5.0] {
            s.push(x);
        }
        assert_eq!(s.count(), 5);
        assert_eq!(s.mean(), 3.0);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 5.0);
        assert!((s.sd() - 2.5f64.sqrt()).abs() < 1e-12);
        assert!(s.ci95() > 0.0);
    }

    #[test]
    fn empty_stats_are_zero() {
        let s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.sd(), 0.0);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 0.0);
        assert_eq!(s.ci95(), 0.0);
    }

    #[test]
    fn p2_is_exact_below_five_samples() {
        let mut sk = P2Quantile::new(0.5);
        assert_eq!(sk.value(), None);
        sk.push(10.0);
        assert_eq!(sk.value(), Some(10.0));
        sk.push(20.0);
        assert_eq!(sk.value(), Some(15.0));
        sk.push(0.0);
        assert_eq!(sk.value(), Some(10.0));
    }

    #[test]
    fn p2_tracks_the_median_of_a_uniform_stream() {
        let mut sk = P2Quantile::new(0.5);
        let mut values = Vec::new();
        let mut x = 1u64;
        for _ in 0..10_000 {
            // Deterministic pseudo-random walk (xorshift).
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let v = (x % 1_000_000) as f64 / 1000.0;
            sk.push(v);
            values.push(v);
        }
        let exact = exact_quantile(&mut values, 0.5);
        let est = sk.value().unwrap();
        assert!(
            (est - exact).abs() < 0.02 * 1000.0,
            "P² median {est} vs exact {exact}"
        );
    }

    #[test]
    fn p2_p90_on_a_skewed_stream() {
        let mut sk = P2Quantile::new(0.9);
        let mut values = Vec::new();
        for i in 0..5000u64 {
            let v = ((i * 37) % 100) as f64;
            let v = v * v; // skew
            sk.push(v);
            values.push(v);
        }
        let exact = exact_quantile(&mut values, 0.9);
        let est = sk.value().unwrap();
        assert!(
            (est - exact).abs() / exact < 0.05,
            "P² p90 {est} vs exact {exact}"
        );
    }

    #[test]
    fn vec_collector_keeps_order() {
        let mut c = VecCollector::with_capacity(3);
        c.collect(0, "a");
        c.collect(1, "b");
        c.collect(2, "c");
        assert_eq!(c.items, vec!["a", "b", "c"]);
    }
}
