//! A compact fixed-universe bitset — the representation of a transmission set
//! `F ⊆ {0, …, n-1}`.
//!
//! Transmission sets are queried in the simulator's innermost loop
//! (`does station u transmit at slot t?`), so membership is a single word
//! load plus mask. Sets also support the bulk operations that verification
//! needs (`intersection_size`, iteration).

/// A set over the fixed universe `{0, …, n-1}`, stored as packed 64-bit words.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BitSet {
    universe: u32,
    words: Vec<u64>,
}

impl BitSet {
    /// The empty set over a universe of size `n`.
    pub fn new(universe: u32) -> Self {
        BitSet {
            universe,
            words: vec![0; (universe as usize).div_ceil(64)],
        }
    }

    /// The full set `{0, …, n-1}`.
    pub fn full(universe: u32) -> Self {
        let mut s = BitSet::new(universe);
        for (i, w) in s.words.iter_mut().enumerate() {
            let lo = (i * 64) as u32;
            *w = if lo + 64 <= universe {
                u64::MAX
            } else if lo >= universe {
                0
            } else {
                (1u64 << (universe - lo)) - 1
            };
        }
        s
    }

    /// Build from an iterator of members.
    pub fn from_iter_members<I: IntoIterator<Item = u32>>(universe: u32, members: I) -> Self {
        let mut s = BitSet::new(universe);
        for m in members {
            s.insert(m);
        }
        s
    }

    /// The universe size `n`.
    #[inline]
    pub fn universe(&self) -> u32 {
        self.universe
    }

    /// Insert `x`. Panics if `x` is outside the universe.
    #[inline]
    pub fn insert(&mut self, x: u32) {
        assert!(
            x < self.universe,
            "BitSet: {x} outside universe {}",
            self.universe
        );
        self.words[(x / 64) as usize] |= 1u64 << (x % 64);
    }

    /// Remove `x` (no-op if absent). Panics if `x` is outside the universe.
    #[inline]
    pub fn remove(&mut self, x: u32) {
        assert!(
            x < self.universe,
            "BitSet: {x} outside universe {}",
            self.universe
        );
        self.words[(x / 64) as usize] &= !(1u64 << (x % 64));
    }

    /// Membership test. IDs outside the universe are simply not members.
    #[inline]
    pub fn contains(&self, x: u32) -> bool {
        if x >= self.universe {
            return false;
        }
        (self.words[(x / 64) as usize] >> (x % 64)) & 1 == 1
    }

    /// Number of members.
    pub fn len(&self) -> u32 {
        self.words.iter().map(|w| w.count_ones()).sum()
    }

    /// `true` iff the set is empty.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// `|self ∩ other|`, where both sets share a universe.
    pub fn intersection_size(&self, other: &BitSet) -> u32 {
        debug_assert_eq!(self.universe, other.universe);
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a & b).count_ones())
            .sum()
    }

    /// `|self ∩ X|` where `X` is given as a sorted slice of IDs — the hot
    /// operation of selectivity verification (`X` is small, the set wide).
    pub fn intersection_size_with_slice(&self, x: &[u32]) -> u32 {
        x.iter().filter(|&&id| self.contains(id)).count() as u32
    }

    /// If `|self ∩ X| == 1`, return the unique common element.
    pub fn unique_intersection(&self, x: &[u32]) -> Option<u32> {
        let mut found = None;
        for &id in x {
            if self.contains(id) {
                if found.is_some() {
                    return None;
                }
                found = Some(id);
            }
        }
        found
    }

    /// The smallest member `≥ from`, or `None` — a word-scan successor
    /// query over station IDs (who is in this one set), not over schedule
    /// positions (when does one station transmit).
    pub fn next_member(&self, from: u32) -> Option<u32> {
        if from >= self.universe {
            return None;
        }
        let mut w = (from / 64) as usize;
        // Mask off bits below `from` in the first word.
        let mut word = self.words[w] & (u64::MAX << (from % 64));
        loop {
            if word != 0 {
                return Some((w as u32) * 64 + word.trailing_zeros());
            }
            w += 1;
            if w >= self.words.len() {
                return None;
            }
            word = self.words[w];
        }
    }

    /// Iterate over members in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.words.iter().enumerate().flat_map(|(i, &w)| {
            let base = (i * 64) as u32;
            BitIter { word: w, base }
        })
    }

    /// Collect members into a sorted `Vec`.
    pub fn to_vec(&self) -> Vec<u32> {
        self.iter().collect()
    }
}

/// Transpose a 64×64 bit matrix in place: after the call,
/// bit `j` of `m[i]` equals bit `i` of the original `m[j]`.
///
/// This is the pivot of the word-level slot kernel: the engine gathers one
/// *column* per station (64 slots of transmit decisions packed into a word)
/// and needs one *row* per slot (64 stations packed into a word) to resolve
/// the channel with a popcount. The recursive block-swap runs in
/// `64·log₂64 / 2 = 192` word operations — independent of how many bits are
/// set.
pub fn transpose64(m: &mut [u64; 64]) {
    let mut j: u32 = 32;
    let mut mask: u64 = 0x0000_0000_FFFF_FFFF;
    while j != 0 {
        // Swap the two off-diagonal blocks of each 2j×2j tile: the high
        // bits of the low rows with the low bits of the high rows (LSB-
        // first bit numbering — bit 0 is column 0).
        let mut k: usize = 0;
        while k < 64 {
            let t = ((m[k] >> j) ^ m[k + j as usize]) & mask;
            m[k] ^= t << j;
            m[k + j as usize] ^= t;
            k = (k + j as usize + 1) & !(j as usize);
        }
        j >>= 1;
        mask ^= mask << j;
    }
}

struct BitIter {
    word: u64,
    base: u32,
}

impl Iterator for BitIter {
    type Item = u32;
    #[inline]
    fn next(&mut self) -> Option<u32> {
        if self.word == 0 {
            return None;
        }
        let tz = self.word.trailing_zeros();
        self.word &= self.word - 1;
        Some(self.base + tz)
    }
}

impl std::fmt::Debug for BitSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "BitSet{{n={}, {:?}}}", self.universe, self.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_full() {
        let e = BitSet::new(70);
        assert!(e.is_empty());
        assert_eq!(e.len(), 0);
        let f = BitSet::full(70);
        assert_eq!(f.len(), 70);
        assert!(f.contains(0));
        assert!(f.contains(69));
        assert!(!f.contains(70));
        assert!(!f.contains(1000));
    }

    #[test]
    fn full_handles_word_boundaries() {
        for n in [1u32, 63, 64, 65, 127, 128, 129] {
            let f = BitSet::full(n);
            assert_eq!(f.len(), n, "n={n}");
            assert_eq!(f.to_vec(), (0..n).collect::<Vec<_>>());
        }
    }

    #[test]
    fn insert_remove_contains() {
        let mut s = BitSet::new(100);
        s.insert(0);
        s.insert(64);
        s.insert(99);
        assert!(s.contains(0) && s.contains(64) && s.contains(99));
        assert!(!s.contains(1));
        assert_eq!(s.len(), 3);
        s.remove(64);
        assert!(!s.contains(64));
        assert_eq!(s.len(), 2);
        s.remove(64); // no-op
        assert_eq!(s.len(), 2);
    }

    #[test]
    #[should_panic(expected = "outside universe")]
    fn insert_out_of_range_panics() {
        BitSet::new(10).insert(10);
    }

    #[test]
    fn intersection_sizes() {
        let a = BitSet::from_iter_members(128, [1, 5, 64, 100]);
        let b = BitSet::from_iter_members(128, [5, 64, 101]);
        assert_eq!(a.intersection_size(&b), 2);
        assert_eq!(a.intersection_size_with_slice(&[5, 100, 127]), 2);
        assert_eq!(a.intersection_size_with_slice(&[]), 0);
    }

    #[test]
    fn unique_intersection_cases() {
        let a = BitSet::from_iter_members(32, [3, 9]);
        assert_eq!(a.unique_intersection(&[1, 3, 5]), Some(3));
        assert_eq!(a.unique_intersection(&[3, 9]), None); // two hits
        assert_eq!(a.unique_intersection(&[1, 2]), None); // zero hits
    }

    #[test]
    fn iteration_is_sorted_and_complete() {
        let members = [0u32, 1, 63, 64, 65, 127, 200];
        let s = BitSet::from_iter_members(201, members);
        assert_eq!(s.to_vec(), members.to_vec());
    }

    #[test]
    fn from_iter_members_dedups() {
        let s = BitSet::from_iter_members(10, [3, 3, 3]);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn transpose64_matches_naive() {
        // Deterministic pseudo-random matrix (splitmix64 stream).
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let mut m = [0u64; 64];
        for w in m.iter_mut() {
            *w = next();
        }
        let orig = m;
        transpose64(&mut m);
        for (i, &row) in m.iter().enumerate() {
            for (j, &orig_row) in orig.iter().enumerate() {
                assert_eq!(
                    (row >> j) & 1,
                    (orig_row >> i) & 1,
                    "bit ({i},{j}) after transpose"
                );
            }
        }
        // Involution: transposing twice restores the original.
        transpose64(&mut m);
        assert_eq!(m, orig);
    }

    #[test]
    fn transpose64_identity_and_rows() {
        // The identity matrix is its own transpose.
        let mut id = [0u64; 64];
        for (i, w) in id.iter_mut().enumerate() {
            *w = 1u64 << i;
        }
        let orig = id;
        transpose64(&mut id);
        assert_eq!(id, orig);
        // A single full row becomes a single full column.
        let mut m = [0u64; 64];
        m[3] = u64::MAX;
        transpose64(&mut m);
        for (i, w) in m.iter().enumerate() {
            assert_eq!(*w, 1u64 << 3, "row {i}");
        }
    }

    #[test]
    fn next_member_scans_across_words() {
        let members = [0u32, 1, 63, 64, 65, 127, 200];
        let s = BitSet::from_iter_members(201, members);
        assert_eq!(s.next_member(0), Some(0));
        assert_eq!(s.next_member(2), Some(63));
        assert_eq!(s.next_member(63), Some(63));
        assert_eq!(s.next_member(66), Some(127));
        assert_eq!(s.next_member(128), Some(200));
        assert_eq!(s.next_member(200), Some(200));
        assert_eq!(s.next_member(201), None);
        assert_eq!(s.next_member(5000), None);
        // Exhaustive agreement with the naive definition.
        for from in 0..=201u32 {
            let naive = members.iter().copied().find(|&m| m >= from);
            assert_eq!(s.next_member(from), naive, "from={from}");
        }
        assert_eq!(BitSet::new(100).next_member(0), None);
    }
}
