//! Offline stand-in for the `rand` crate.
//!
//! This workspace builds in hermetic environments with no access to a crate
//! registry, so the few pieces of the `rand` 0.8 API that the simulator uses
//! are reimplemented here: [`RngCore`], [`Rng`] (with `gen`, `gen_bool`,
//! `gen_range`), [`SeedableRng::seed_from_u64`] and the slice helpers in
//! [`seq`]. The statistical requirements of the workspace are mild (seeded,
//! reproducible simulation draws); the implementations below are standard
//! textbook samplers over a caller-provided `u64` stream.
//!
//! Semantics note: streams are *not* bit-compatible with crates.io `rand`;
//! everything in this repository only relies on determinism under a fixed
//! seed, never on matching upstream streams.

#![forbid(unsafe_code)]

/// A source of uniformly distributed 64-bit words.
pub trait RngCore {
    /// The next 64 random bits.
    fn next_u64(&mut self) -> u64;

    /// The next 32 random bits (by default the high half of
    /// [`RngCore::next_u64`]).
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }

    // Forwarded, not defaulted: a generator with its own `next_u32` must
    // yield the same stream whether it is held by value or by reference.
    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }
}

/// Types that can be drawn uniformly from an `RngCore` (the `Standard`
/// distribution of real `rand`, collapsed into one trait).
pub trait Standard: Sized {
    /// Draw one value.
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for u64 {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Standard for u32 {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u32()
    }
}

impl Standard for bool {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Standard for f64 {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 uniform mantissa bits in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Ranges a value can be drawn uniformly from (`gen_range` argument).
pub trait SampleRange<T> {
    /// Draw one value from the range.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

/// Uniform integer in `[0, span)` by 128-bit widening multiply.
#[inline]
fn uniform_below<R: RngCore + ?Sized>(rng: &mut R, span: u64) -> u64 {
    debug_assert!(span > 0);
    ((u128::from(rng.next_u64()) * u128::from(span)) >> 64) as u64
}

macro_rules! impl_int_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "gen_range: empty range");
                let span = (self.end as u64) - (self.start as u64);
                self.start + uniform_below(rng, span) as $t
            }
        }
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "gen_range: empty range");
                let span = (hi as u64) - (lo as u64);
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                lo + uniform_below(rng, span + 1) as $t
            }
        }
    )*};
}

impl_int_range!(u8, u16, u32, u64, usize);

impl SampleRange<f64> for core::ops::Range<f64> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "gen_range: empty range");
        let u = f64::draw(rng);
        self.start + u * (self.end - self.start)
    }
}

/// The user-facing random-value interface (subset of `rand::Rng`).
pub trait Rng: RngCore {
    /// Draw a value of type `T` from its standard distribution.
    fn gen<T: Standard>(&mut self) -> T
    where
        Self: Sized,
    {
        T::draw(self)
    }

    /// `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        assert!((0.0..=1.0).contains(&p), "gen_bool: p={p} outside [0,1]");
        f64::draw(self) < p
    }

    /// A uniform value from `range`.
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T
    where
        Self: Sized,
    {
        range.sample_single(self)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Construction of RNGs from seeds (subset of `rand::SeedableRng`).
pub trait SeedableRng: Sized {
    /// Build the generator from a 64-bit seed.
    fn seed_from_u64(state: u64) -> Self;
}

/// Slice helpers (subset of `rand::seq`).
pub mod seq {
    use super::{uniform_below, RngCore};

    /// Shuffling operations on slices (subset of `rand::seq::SliceRandom`).
    pub trait SliceRandom {
        /// The element type.
        type Item;

        /// Fisher–Yates shuffle of the whole slice.
        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R);

        /// Shuffle the first `amount` elements into place; returns
        /// `(shuffled_prefix, rest)`.
        fn partial_shuffle<R: RngCore + ?Sized>(
            &mut self,
            rng: &mut R,
            amount: usize,
        ) -> (&mut [Self::Item], &mut [Self::Item]);
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = uniform_below(rng, i as u64 + 1) as usize;
                self.swap(i, j);
            }
        }

        fn partial_shuffle<R: RngCore + ?Sized>(
            &mut self,
            rng: &mut R,
            amount: usize,
        ) -> (&mut [T], &mut [T]) {
            let amount = amount.min(self.len());
            for i in 0..amount {
                let remaining = self.len() - i;
                let j = i + uniform_below(rng, remaining as u64) as usize;
                self.swap(i, j);
            }
            self.split_at_mut(amount)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::seq::SliceRandom;
    use super::*;

    struct Counter(u64);
    impl RngCore for Counter {
        fn next_u64(&mut self) -> u64 {
            // SplitMix64 so draws are well spread.
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = Counter(1);
        for _ in 0..2000 {
            let a: u64 = rng.gen_range(5..17);
            assert!((5..17).contains(&a));
            let b: u32 = rng.gen_range(3..=9);
            assert!((3..=9).contains(&b));
            let c: f64 = rng.gen_range(0.0..1.0);
            assert!((0.0..1.0).contains(&c));
            let d: usize = rng.gen_range(0..1);
            assert_eq!(d, 0);
        }
    }

    #[test]
    fn gen_bool_extremes() {
        let mut rng = Counter(2);
        assert!(!rng.gen_bool(0.0));
        assert!(rng.gen_bool(1.0));
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = Counter(3);
        let mut v: Vec<u32> = (0..50).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn partial_shuffle_prefix_is_distinct() {
        let mut rng = Counter(4);
        let mut v: Vec<u32> = (0..30).collect();
        let (prefix, rest) = v.partial_shuffle(&mut rng, 10);
        assert_eq!(prefix.len(), 10);
        assert_eq!(rest.len(), 20);
        let mut all: Vec<u32> = prefix.to_vec();
        all.extend_from_slice(rest);
        all.sort_unstable();
        assert_eq!(all, (0..30).collect::<Vec<_>>());
    }
}
