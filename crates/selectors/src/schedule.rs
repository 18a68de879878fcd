//! Schedule algebra: transmission schedules as composable values.
//!
//! A **schedule** answers "does station `u` transmit at schedule position
//! `j`?" — the pure, clock-independent object the paper's combinatorics
//! manipulates. Protocols (in `wakeup-core`) bind schedule positions to
//! global slots.
//!
//! Combinators:
//!
//! * [`FamilySchedule`] — positions walk the sets of a [`SelectiveFamily`];
//! * [`ConcatSchedule`] — `⟨F₁, F₂, …⟩`, the sequential composition used by
//!   `select_among_the_first` and `wait_and_go`;
//! * [`CycleSchedule`] — infinite cyclic repetition (`F_{j mod z}`);
//! * [`RoundRobinSchedule`] — `u` transmits at position `j` iff `j ≡ u
//!   (mod n)`, the time-division baseline.

use crate::family::SelectiveFamily;

/// A (possibly infinite) transmission schedule over universe `{0,…,n-1}`.
pub trait Schedule {
    /// Universe size.
    fn n(&self) -> u32;

    /// Length in positions; `None` for infinite schedules.
    fn len(&self) -> Option<u64>;

    /// Does station `u` transmit at position `j`?
    ///
    /// For finite schedules, positions `j ≥ len()` must return `false`.
    fn transmits(&self, u: u32, j: u64) -> bool;

    /// `true` iff the schedule has zero positions.
    fn is_empty(&self) -> bool {
        self.len() == Some(0)
    }
}

/// Extension combinators for schedules.
pub trait ScheduleExt: Schedule + Sized {
    /// Repeat this schedule cyclically forever.
    fn cycle(self) -> CycleSchedule<Self> {
        CycleSchedule::new(self)
    }
}

impl<S: Schedule + Sized> ScheduleExt for S {}

impl<S: Schedule + ?Sized> Schedule for &S {
    fn n(&self) -> u32 {
        (**self).n()
    }
    fn len(&self) -> Option<u64> {
        (**self).len()
    }
    fn transmits(&self, u: u32, j: u64) -> bool {
        (**self).transmits(u, j)
    }
}

impl<S: Schedule + ?Sized> Schedule for Box<S> {
    fn n(&self) -> u32 {
        (**self).n()
    }
    fn len(&self) -> Option<u64> {
        (**self).len()
    }
    fn transmits(&self, u: u32, j: u64) -> bool {
        (**self).transmits(u, j)
    }
}

/// A schedule walking the sets of an explicit [`SelectiveFamily`] in order.
#[derive(Clone, Debug)]
pub struct FamilySchedule {
    family: SelectiveFamily,
}

impl FamilySchedule {
    /// Wrap a family as a schedule of length `family.len()`.
    pub fn new(family: SelectiveFamily) -> Self {
        FamilySchedule { family }
    }

    /// The underlying family.
    pub fn family(&self) -> &SelectiveFamily {
        &self.family
    }
}

impl Schedule for FamilySchedule {
    fn n(&self) -> u32 {
        self.family.n()
    }
    fn len(&self) -> Option<u64> {
        Some(self.family.len() as u64)
    }
    fn transmits(&self, u: u32, j: u64) -> bool {
        (j as usize) < self.family.len() && self.family.transmits(u, j as usize)
    }
}

/// Sequential composition `⟨S₁, S₂, …⟩` of finite schedules.
#[derive(Clone, Debug)]
pub struct ConcatSchedule<S: Schedule> {
    parts: Vec<S>,
    /// Cumulative start offsets; `offsets[i]` is the first position of part i.
    offsets: Vec<u64>,
    total: u64,
    n: u32,
}

impl<S: Schedule> ConcatSchedule<S> {
    /// Concatenate finite schedules over the same universe.
    ///
    /// Panics if `parts` is empty, universes mismatch, or any part is
    /// infinite.
    pub fn new(parts: Vec<S>) -> Self {
        assert!(!parts.is_empty(), "concat of zero schedules");
        let n = parts[0].n();
        let mut offsets = Vec::with_capacity(parts.len());
        let mut total = 0u64;
        for p in &parts {
            assert_eq!(p.n(), n, "concat: universe mismatch");
            offsets.push(total);
            total += p.len().expect("concat: parts must be finite");
        }
        ConcatSchedule {
            parts,
            offsets,
            total,
            n,
        }
    }

    /// Index of the part containing position `j`, with the part-local offset.
    pub fn locate(&self, j: u64) -> Option<(usize, u64)> {
        if j >= self.total {
            return None;
        }
        // Binary search over offsets.
        let i = match self.offsets.binary_search(&j) {
            Ok(i) => i,
            Err(i) => i - 1,
        };
        Some((i, j - self.offsets[i]))
    }

    /// The start offsets of the parts (the "first transmission set of each
    /// selective family" boundaries that `wait_and_go` waits for).
    pub fn offsets(&self) -> &[u64] {
        &self.offsets
    }

    /// The parts.
    pub fn parts(&self) -> &[S] {
        &self.parts
    }
}

impl<S: Schedule> Schedule for ConcatSchedule<S> {
    fn n(&self) -> u32 {
        self.n
    }
    fn len(&self) -> Option<u64> {
        Some(self.total)
    }
    fn transmits(&self, u: u32, j: u64) -> bool {
        match self.locate(j) {
            Some((i, local)) => self.parts[i].transmits(u, local),
            None => false,
        }
    }
}

/// Infinite cyclic repetition of a finite schedule (`F_{j mod z}`).
#[derive(Clone, Debug)]
pub struct CycleSchedule<S: Schedule> {
    inner: S,
    period: u64,
}

impl<S: Schedule> CycleSchedule<S> {
    /// Repeat `inner` forever. Panics if `inner` is infinite or empty.
    pub fn new(inner: S) -> Self {
        let period = inner.len().expect("cycle: inner must be finite");
        assert!(period > 0, "cycle: inner must be non-empty");
        CycleSchedule { inner, period }
    }

    /// The period `z`.
    pub fn period(&self) -> u64 {
        self.period
    }

    /// The repeated schedule.
    pub fn inner(&self) -> &S {
        &self.inner
    }
}

impl<S: Schedule> Schedule for CycleSchedule<S> {
    fn n(&self) -> u32 {
        self.inner.n()
    }
    fn len(&self) -> Option<u64> {
        None
    }
    fn transmits(&self, u: u32, j: u64) -> bool {
        self.inner.transmits(u, j % self.period)
    }
}

/// Round-robin (time-division multiplexing): `u` transmits at position `j`
/// iff `j ≡ u (mod n)`. Infinite.
#[derive(Clone, Copy, Debug)]
pub struct RoundRobinSchedule {
    n: u32,
}

impl RoundRobinSchedule {
    /// Round-robin over `n` stations.
    pub fn new(n: u32) -> Self {
        assert!(n >= 1);
        RoundRobinSchedule { n }
    }
}

impl Schedule for RoundRobinSchedule {
    fn n(&self) -> u32 {
        self.n
    }
    fn len(&self) -> Option<u64> {
        None
    }
    fn transmits(&self, u: u32, j: u64) -> bool {
        u < self.n && j % u64::from(self.n) == u64::from(u)
    }
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
    fn family_schedule_basics() {
        let s = FamilySchedule::new(fam(4, 2, &[&[0, 1], &[2]]));
        assert_eq!(s.len(), Some(2));
        assert!(s.transmits(0, 0));
        assert!(s.transmits(1, 0));
        assert!(!s.transmits(2, 0));
        assert!(s.transmits(2, 1));
        assert!(!s.transmits(0, 5)); // past the end
        assert!(!s.is_empty());
    }

    #[test]
    fn concat_locates_positions() {
        let a = FamilySchedule::new(fam(4, 2, &[&[0], &[1]]));
        let b = FamilySchedule::new(fam(4, 2, &[&[2], &[3], &[0, 3]]));
        let c = ConcatSchedule::new(vec![a, b]);
        assert_eq!(c.len(), Some(5));
        assert_eq!(c.offsets(), &[0, 2]);
        assert_eq!(c.locate(0), Some((0, 0)));
        assert_eq!(c.locate(1), Some((0, 1)));
        assert_eq!(c.locate(2), Some((1, 0)));
        assert_eq!(c.locate(4), Some((1, 2)));
        assert_eq!(c.locate(5), None);
        assert!(c.transmits(0, 0));
        assert!(c.transmits(2, 2));
        assert!(c.transmits(3, 4));
        assert!(!c.transmits(1, 4));
        assert!(!c.transmits(0, 99));
    }

    #[test]
    #[should_panic(expected = "universe mismatch")]
    fn concat_rejects_universe_mismatch() {
        let a = FamilySchedule::new(fam(4, 2, &[&[0]]));
        let b = FamilySchedule::new(fam(5, 2, &[&[0]]));
        ConcatSchedule::new(vec![a, b]);
    }

    #[test]
    fn cycle_wraps() {
        let s = FamilySchedule::new(fam(4, 2, &[&[0], &[1]])).cycle();
        assert_eq!(s.len(), None);
        assert_eq!(s.period(), 2);
        for r in 0..5u64 {
            assert!(s.transmits(0, 2 * r));
            assert!(s.transmits(1, 2 * r + 1));
            assert!(!s.transmits(1, 2 * r));
        }
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn cycle_rejects_empty() {
        FamilySchedule::new(fam(4, 2, &[])).cycle();
    }

    #[test]
    fn round_robin_schedule() {
        let rr = RoundRobinSchedule::new(3);
        for j in 0..9u64 {
            for u in 0..3u32 {
                assert_eq!(rr.transmits(u, j), j % 3 == u64::from(u));
            }
        }
        assert!(!rr.transmits(7, 1)); // out-of-universe station
    }

    #[test]
    fn schedules_compose_through_refs_and_boxes() {
        let rr = RoundRobinSchedule::new(4);
        let r = &rr;
        assert_eq!(r.n(), 4);
        let b: Box<dyn Schedule> = Box::new(rr);
        assert_eq!(b.n(), 4);
        assert!(b.transmits(1, 1));
    }
}
