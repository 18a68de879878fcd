//! Offline stand-in for the `rand_chacha` crate: a genuine ChaCha8 keystream
//! generator implementing the local `rand` traits.
//!
//! The keystream is a faithful ChaCha permutation with 8 rounds, that is 4
//! double-rounds (Bernstein's design), keyed from a 64-bit seed expanded
//! through SplitMix64. Streams are deterministic under a fixed seed but are
//! **not** bit-compatible with crates.io `rand_chacha` (nothing in this
//! workspace depends on upstream streams).
//!
//! # Four blocks per refill
//!
//! ChaCha is counter-based: the block at counter `c` is a pure function of
//! the key and `c`, so blocks `c … c+3` can be computed side by side and
//! read in order without changing a word of the stream. A refill computes
//! four consecutive blocks in one lane loop: each lane is straight-line code
//! over 16 `u32` locals (the 4 double-rounds unrolled through a quarter-round
//! macro), and the results are stored word-major, `out[word][lane]`. LLVM's
//! loop vectorizer turns that loop into 4-wide SSE2 arithmetic on the
//! baseline x86-64 target, one block per vector lane; the refill then
//! transposes the four blocks into a 64-word buffer in stream order.
//!
//! There are no intrinsics, target flags or `unsafe` code: the portable loop
//! is what the compiler vectorizes, and the crate forbids `unsafe`. An edit
//! to the lane loop can silently lose the vectorization (a loop inside a
//! lane, or helpers over `[u32; 4]`, compile to scalar code), so check the
//! disassembly of `refill` for `xmm` arithmetic after touching it.

#![forbid(unsafe_code)]

use rand::{RngCore, SeedableRng};

/// Blocks computed per refill, one per vector lane.
const LANES: usize = 4;

/// Words in the output buffer: [`LANES`] blocks of 16 words.
const BUF_WORDS: usize = 16 * LANES;

/// ChaCha with 8 rounds (4 double-rounds) over the local `rand` traits.
#[derive(Clone, Debug)]
pub struct ChaCha8Rng {
    /// The 256-bit key, input words 4–11.
    key: [u32; 8],
    /// Block counter of the first block of the next refill, input words
    /// 12–13 (low word first); the nonce, words 14–15, is zero.
    counter: u64,
    /// Four output blocks in stream order.
    buf: [u32; BUF_WORDS],
    /// Next unread word of `buf` ([`BUF_WORDS`] = exhausted).
    cursor: usize,
}

/// One ChaCha quarter-round on four `u32` locals.
macro_rules! quarter_round {
    ($a:ident, $b:ident, $c:ident, $d:ident) => {
        $a = $a.wrapping_add($b);
        $d = ($d ^ $a).rotate_left(16);
        $c = $c.wrapping_add($d);
        $b = ($b ^ $c).rotate_left(12);
        $a = $a.wrapping_add($b);
        $d = ($d ^ $a).rotate_left(8);
        $c = $c.wrapping_add($d);
        $b = ($b ^ $c).rotate_left(7);
    };
}

/// One ChaCha double-round (a column round, then a diagonal round) on the
/// 16 state words named in input order.
macro_rules! double_round {
    ($x0:ident, $x1:ident, $x2:ident, $x3:ident, $x4:ident, $x5:ident, $x6:ident, $x7:ident,
     $x8:ident, $x9:ident, $x10:ident, $x11:ident, $x12:ident, $x13:ident, $x14:ident, $x15:ident) => {
        quarter_round!($x0, $x4, $x8, $x12);
        quarter_round!($x1, $x5, $x9, $x13);
        quarter_round!($x2, $x6, $x10, $x14);
        quarter_round!($x3, $x7, $x11, $x15);
        quarter_round!($x0, $x5, $x10, $x15);
        quarter_round!($x1, $x6, $x11, $x12);
        quarter_round!($x2, $x7, $x8, $x13);
        quarter_round!($x3, $x4, $x9, $x14);
    };
}

#[inline]
fn split_mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl ChaCha8Rng {
    /// The ChaCha "expand 32-byte k" constants.
    const SIGMA: [u32; 4] = [0x6170_7865, 0x3320_646E, 0x7962_2D32, 0x6B20_6574];

    /// Compute the blocks at `counter … counter + 3` into `buf` and rewind
    /// the cursor. Kept out of line so the draw methods stay small enough to
    /// inline into their callers' loops.
    #[inline(never)]
    #[expect(
        clippy::needless_range_loop,
        reason = "a counted lane loop with `out[word][lane]` stores is the form LLVM vectorizes"
    )]
    fn refill(&mut self) {
        let [s0, s1, s2, s3] = Self::SIGMA;
        let [k0, k1, k2, k3, k4, k5, k6, k7] = self.key;
        let mut out = [[0u32; LANES]; 16];
        // The lane loop must stay straight-line for the vectorizer: no loop
        // inside a lane, every word a local, every store `out[word][lane]`.
        for lane in 0..LANES {
            let counter = self.counter.wrapping_add(lane as u64);
            let (c0, c1) = (counter as u32, (counter >> 32) as u32);
            let (mut x0, mut x1, mut x2, mut x3) = (s0, s1, s2, s3);
            let (mut x4, mut x5, mut x6, mut x7) = (k0, k1, k2, k3);
            let (mut x8, mut x9, mut x10, mut x11) = (k4, k5, k6, k7);
            let (mut x12, mut x13, mut x14, mut x15) = (c0, c1, 0u32, 0u32);
            double_round!(x0, x1, x2, x3, x4, x5, x6, x7, x8, x9, x10, x11, x12, x13, x14, x15);
            double_round!(x0, x1, x2, x3, x4, x5, x6, x7, x8, x9, x10, x11, x12, x13, x14, x15);
            double_round!(x0, x1, x2, x3, x4, x5, x6, x7, x8, x9, x10, x11, x12, x13, x14, x15);
            double_round!(x0, x1, x2, x3, x4, x5, x6, x7, x8, x9, x10, x11, x12, x13, x14, x15);
            // Feed-forward: add the input block (the zero nonce adds nothing).
            out[0][lane] = x0.wrapping_add(s0);
            out[1][lane] = x1.wrapping_add(s1);
            out[2][lane] = x2.wrapping_add(s2);
            out[3][lane] = x3.wrapping_add(s3);
            out[4][lane] = x4.wrapping_add(k0);
            out[5][lane] = x5.wrapping_add(k1);
            out[6][lane] = x6.wrapping_add(k2);
            out[7][lane] = x7.wrapping_add(k3);
            out[8][lane] = x8.wrapping_add(k4);
            out[9][lane] = x9.wrapping_add(k5);
            out[10][lane] = x10.wrapping_add(k6);
            out[11][lane] = x11.wrapping_add(k7);
            out[12][lane] = x12.wrapping_add(c0);
            out[13][lane] = x13.wrapping_add(c1);
            out[14][lane] = x14;
            out[15][lane] = x15;
        }
        // Transpose into stream order: block `lane` fills words
        // `16 * lane .. 16 * lane + 16`.
        for (lane, block) in self.buf.chunks_exact_mut(16).enumerate() {
            for (word, lanes) in block.iter_mut().zip(&out) {
                *word = lanes[lane];
            }
        }
        self.counter = self.counter.wrapping_add(LANES as u64);
        self.cursor = 0;
    }
}

impl SeedableRng for ChaCha8Rng {
    fn seed_from_u64(seed: u64) -> Self {
        // Expand the seed into the 256-bit key via SplitMix64.
        let mut key = [0u32; 8];
        for (i, pair) in key.chunks_exact_mut(2).enumerate() {
            let w = split_mix64(seed.wrapping_add(i as u64));
            pair[0] = w as u32;
            pair[1] = (w >> 32) as u32;
        }
        ChaCha8Rng {
            key,
            counter: 0,
            buf: [0; BUF_WORDS],
            cursor: BUF_WORDS,
        }
    }
}

impl RngCore for ChaCha8Rng {
    #[inline]
    fn next_u32(&mut self) -> u32 {
        let i = if self.cursor < BUF_WORDS {
            self.cursor
        } else {
            self.refill();
            0
        };
        self.cursor = i + 1;
        self.buf[i]
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        let i = self.cursor;
        let (lo, hi) = match self.buf.get(i..i + 2) {
            Some(&[lo, hi]) => {
                self.cursor = i + 2;
                (lo, hi)
            }
            // The pair straddles the buffer edge or the buffer is spent.
            _ => (self.next_u32(), self.next_u32()),
        };
        u64::from(hi) << 32 | u64::from(lo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn deterministic_under_fixed_seed() {
        let mut a = ChaCha8Rng::seed_from_u64(7);
        let mut b = ChaCha8Rng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = ChaCha8Rng::seed_from_u64(1);
        let mut b = ChaCha8Rng::seed_from_u64(2);
        let same = (0..16).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn stream_is_roughly_balanced() {
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        let ones: u32 = (0..1024).map(|_| rng.next_u64().count_ones()).sum();
        // 1024 draws × 64 bits: expect ≈ 32768 ones.
        assert!((30000..=35000).contains(&ones), "bit bias: {ones}");
    }

    #[test]
    fn works_with_rng_trait() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let x: u64 = rng.gen_range(0..100);
        assert!(x < 100);
        let _: bool = rng.gen();
    }

    /// The scalar one-block generator: the keystream reference. Same key
    /// expansion and block counter as [`ChaCha8Rng`], one 16-word block per
    /// refill, read one word at a time.
    struct Reference {
        state: [u32; 16],
        block: [u32; 16],
        cursor: usize,
    }

    impl Reference {
        fn new(seed: u64) -> Self {
            let mut state = [0u32; 16];
            state[..4].copy_from_slice(&ChaCha8Rng::SIGMA);
            for i in 0..4 {
                let w = split_mix64(seed.wrapping_add(i as u64));
                state[4 + 2 * i] = w as u32;
                state[5 + 2 * i] = (w >> 32) as u32;
            }
            Reference {
                state,
                block: [0; 16],
                cursor: 16,
            }
        }

        fn quarter_round(s: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
            s[a] = s[a].wrapping_add(s[b]);
            s[d] = (s[d] ^ s[a]).rotate_left(16);
            s[c] = s[c].wrapping_add(s[d]);
            s[b] = (s[b] ^ s[c]).rotate_left(12);
            s[a] = s[a].wrapping_add(s[b]);
            s[d] = (s[d] ^ s[a]).rotate_left(8);
            s[c] = s[c].wrapping_add(s[d]);
            s[b] = (s[b] ^ s[c]).rotate_left(7);
        }

        fn next_u32(&mut self) -> u32 {
            if self.cursor == 16 {
                let mut x = self.state;
                for _ in 0..4 {
                    Self::quarter_round(&mut x, 0, 4, 8, 12);
                    Self::quarter_round(&mut x, 1, 5, 9, 13);
                    Self::quarter_round(&mut x, 2, 6, 10, 14);
                    Self::quarter_round(&mut x, 3, 7, 11, 15);
                    Self::quarter_round(&mut x, 0, 5, 10, 15);
                    Self::quarter_round(&mut x, 1, 6, 11, 12);
                    Self::quarter_round(&mut x, 2, 7, 8, 13);
                    Self::quarter_round(&mut x, 3, 4, 9, 14);
                }
                for (out, (&w, &s)) in self.block.iter_mut().zip(x.iter().zip(&self.state)) {
                    *out = w.wrapping_add(s);
                }
                let counter =
                    (u64::from(self.state[13]) << 32 | u64::from(self.state[12])).wrapping_add(1);
                self.state[12] = counter as u32;
                self.state[13] = (counter >> 32) as u32;
                self.cursor = 0;
            }
            self.cursor += 1;
            self.block[self.cursor - 1]
        }

        fn next_u64(&mut self) -> u64 {
            let lo = self.next_u32();
            let hi = self.next_u32();
            u64::from(hi) << 32 | u64::from(lo)
        }
    }

    /// Draw `reads` values from seed `seed` through both generators, a
    /// `next_u64` where `wide(i)` holds for read `i` and a `next_u32`
    /// elsewhere, and assert they agree read for read.
    fn assert_matches_reference(seed: u64, reads: usize, mut wide: impl FnMut(usize) -> bool) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut reference = Reference::new(seed);
        let mut word = 0usize;
        for i in 0..reads {
            if wide(i) {
                assert_eq!(
                    rng.next_u64(),
                    reference.next_u64(),
                    "seed {seed}, word {word}"
                );
                word += 2;
            } else {
                assert_eq!(
                    rng.next_u32(),
                    reference.next_u32(),
                    "seed {seed}, word {word}"
                );
                word += 1;
            }
        }
    }

    /// Mixed `next_u32`/`next_u64` reads from the bits of a SplitMix64
    /// stream: over a few hundred words every alignment meets both the
    /// 16-word block edge and the 64-word buffer edge.
    fn mixed_reads(seed: u64) -> impl FnMut(usize) -> bool {
        let mut bits = 0u64;
        move |i| {
            if i % 64 == 0 {
                bits = split_mix64(seed ^ i as u64);
            }
            bits >> (i % 64) & 1 == 1
        }
    }

    #[test]
    fn keystream_matches_the_scalar_reference() {
        for seed in [0, 1, 7, 42, u64::MAX] {
            // Even-aligned pairs end exactly on every block and buffer edge.
            assert_matches_reference(seed, 300, |_| true);
            // One word first: every pair at word 15 mod 16 straddles a
            // block edge, and at word 63 mod 64 the buffer edge.
            assert_matches_reference(seed, 300, |i| i > 0);
            assert_matches_reference(seed, 600, |_| false);
            assert_matches_reference(seed, 2000, mixed_reads(seed));
        }
    }

    /// The long-stream oracle: 8 seeds × 2^22 mixed reads (~6M words per
    /// seed). Run with `cargo test --release -p rand_chacha -- --ignored`.
    #[test]
    #[ignore = "long stream; run in release"]
    fn long_keystream_matches_the_scalar_reference() {
        for seed in 0..8 {
            assert_matches_reference(seed, 1 << 22, mixed_reads(seed));
        }
    }

    #[test]
    fn known_answers() {
        let first_words = |seed| {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            [(); 8].map(|()| rng.next_u32())
        };
        assert_eq!(
            first_words(0),
            [
                0x6BE4_6760,
                0xAB27_1350,
                0x0859_DB24,
                0x5AE4_2F93,
                0x0738_E054,
                0xFC50_E66B,
                0x1839_CB98,
                0x56D4_18A9
            ]
        );
        assert_eq!(
            first_words(7),
            [
                0x3917_48F4,
                0x3618_1C18,
                0xE563_8D7D,
                0x89C5_92FA,
                0x13D4_66A6,
                0xAFDA_30F9,
                0x8D15_E401,
                0x7D56_046A
            ]
        );
        assert_eq!(
            first_words(u64::MAX),
            [
                0xE524_ABB4,
                0x1B5E_9311,
                0xC711_4A6F,
                0xFDC0_F7AF,
                0x834A_1319,
                0xC771_4914,
                0xE15C_A4E2,
                0xACAC_F732
            ]
        );
        // An order-sensitive digest of the first 2^20 `next_u64` of seed 7.
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let digest = (0..1 << 20).fold(0u64, |h, _| {
            (h.rotate_left(5) ^ rng.next_u64()).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        });
        assert_eq!(digest, 0x2D78_C463_0593_A4AA);
    }

    #[test]
    fn a_borrowed_generator_draws_the_same_stream() {
        fn draw_u32<R: RngCore>(mut rng: R) -> u32 {
            rng.next_u32()
        }
        let mut owned = ChaCha8Rng::seed_from_u64(9);
        let mut borrowed = owned.clone();
        for _ in 0..40 {
            // `&mut ChaCha8Rng` goes through the blanket `impl RngCore for &mut R`.
            assert_eq!(owned.next_u32(), draw_u32(&mut borrowed));
        }
        assert_eq!(owned.next_u64(), borrowed.next_u64());
    }

    #[test]
    fn chacha_permutation_known_shape() {
        // The all-zero input block must not map to itself (sanity that the
        // rounds actually mix).
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let first = rng.next_u64();
        assert_ne!(first, 0);
    }
}
