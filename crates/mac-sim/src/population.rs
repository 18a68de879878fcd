//! Equivalence-class populations: simulate many same-state stations as one
//! unit.
//!
//! The paper's deterministic protocols differ across stations only by
//! `(id, schedule row, wake slot)` — a wake batch of a million round-robin
//! stations is a million boxed objects in *identical* protocol state. The
//! concrete engine therefore pays O(k) memory and wake-time work even when
//! the whole batch could be described by one value. This module introduces
//! the abstractions that let [`Simulator::run`](crate::engine::Simulator)
//! simulate one **representative per equivalence class** with a
//! multiplicity count instead:
//!
//! * [`Members`] — a compact, run-length encoded set of station IDs (a wake
//!   batch, or the live members of a class);
//! * [`ClassStation`] — the class-aggregated counterpart of
//!   [`Station`]: it answers for *all* its members
//!   at once (weighted transmission counts, aggregate
//!   [`TxHint`]s) and **splits lazily** when
//!   feedback makes members diverge (e.g. one member succeeds and retires
//!   while the rest stay contending);
//! * [`SingletonClass`] — a weight-1 unit wrapping one concrete station:
//!   under [`PopulationMode::Classes`] a wake batch becomes the protocol's
//!   class-aggregated unit
//!   ([`Protocol::class_station`](crate::station::Protocol)), or one
//!   singleton per station when the protocol has none.
//!
//! Outcomes and transcripts are **bit-identical** across populations; only
//! the work/memory counters ([`Outcome::polls`](crate::engine::Outcome),
//! [`Outcome::peak_units`](crate::engine::Outcome)) reveal which one ran.
//! This is what makes `n = 2^24` sweeps feasible on one box: a
//! simultaneous-wake round-robin pattern is a single class, so the engine
//! holds O(classes) state instead of O(n) boxed stations.

use crate::channel::Feedback;
use crate::ids::{Slot, StationId};
use crate::rng::derive_seed;
use crate::station::{Protocol, Station, TxHint};

// ---------------------------------------------------------------------------
// Members: run-length encoded station sets
// ---------------------------------------------------------------------------

/// A set of station IDs, stored as sorted disjoint half-open runs
/// `[lo, hi)`. A contiguous mega-batch (`0..2^24` waking together) is one
/// run — O(1) memory — while arbitrary explicit batches cost one run per
/// maximal ID interval.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Members {
    /// Sorted, disjoint, non-empty, non-adjacent runs.
    runs: Vec<(u32, u32)>,
    /// Total number of IDs across runs.
    count: u64,
}

impl Members {
    /// Build from sorted, duplicate-free IDs (consecutive IDs coalesce).
    ///
    /// Panics if `ids` is unsorted or contains duplicates.
    pub fn from_sorted_ids(ids: &[StationId]) -> Self {
        let mut runs: Vec<(u32, u32)> = Vec::new();
        for &StationId(id) in ids {
            match runs.last_mut() {
                Some(&mut (_, ref mut hi)) if *hi == id => *hi = id + 1,
                Some(&mut (_, hi)) if id < hi => panic!("Members: ids unsorted or duplicated"),
                _ => runs.push((id, id + 1)),
            }
        }
        let count = ids.len() as u64;
        Members { runs, count }
    }

    /// The single run `[lo, hi)`.
    ///
    /// Panics if `lo >= hi`.
    pub fn range(lo: u32, hi: u32) -> Self {
        assert!(lo < hi, "Members::range: empty range {lo}..{hi}");
        Members {
            runs: vec![(lo, hi)],
            count: u64::from(hi - lo),
        }
    }

    /// Build directly from sorted disjoint runs (each `lo < hi`); adjacent
    /// runs coalesce so equal sets compare equal.
    pub fn from_runs(runs: Vec<(u32, u32)>) -> Self {
        let mut count = 0u64;
        let mut merged: Vec<(u32, u32)> = Vec::with_capacity(runs.len());
        for (lo, hi) in runs {
            assert!(lo < hi, "Members::from_runs: empty run {lo}..{hi}");
            count += u64::from(hi - lo);
            match merged.last_mut() {
                Some(&mut (_, ref mut p)) if *p == lo => *p = hi,
                Some(&mut (_, p)) => {
                    assert!(lo > p, "Members::from_runs: runs unsorted or overlapping");
                    merged.push((lo, hi));
                }
                None => merged.push((lo, hi)),
            }
        }
        Members {
            runs: merged,
            count,
        }
    }

    /// Number of member IDs.
    #[inline]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// `true` iff the set is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The smallest member, if any.
    pub fn first(&self) -> Option<u32> {
        self.runs.first().map(|&(lo, _)| lo)
    }

    /// The largest member, if any.
    pub fn last(&self) -> Option<u32> {
        self.runs.last().map(|&(_, hi)| hi - 1)
    }

    /// Membership test, O(log runs).
    pub fn contains(&self, id: u32) -> bool {
        let i = self.runs.partition_point(|&(_, hi)| hi <= id);
        self.runs.get(i).is_some_and(|&(lo, _)| lo <= id)
    }

    /// The smallest member `≥ x`, O(log runs).
    pub fn next_at_or_after(&self, x: u32) -> Option<u32> {
        let i = self.runs.partition_point(|&(_, hi)| hi <= x);
        self.runs.get(i).map(|&(lo, _)| lo.max(x))
    }

    /// Remove one ID (a member retiring after its own success — the lazy
    /// split of a class into "resolved" and "still contending"). Returns
    /// `false` if `id` was not a member.
    pub fn remove(&mut self, id: u32) -> bool {
        let i = self.runs.partition_point(|&(_, hi)| hi <= id);
        let Some(&(lo, hi)) = self.runs.get(i) else {
            return false;
        };
        if id < lo {
            return false;
        }
        match (id == lo, id + 1 == hi) {
            (true, true) => {
                self.runs.remove(i);
            }
            (true, false) => self.runs[i].0 = id + 1,
            (false, true) => self.runs[i].1 = id,
            (false, false) => {
                self.runs[i].1 = id;
                self.runs.insert(i + 1, (id + 1, hi));
            }
        }
        self.count -= 1;
        true
    }

    /// The runs, sorted and disjoint.
    #[inline]
    pub fn runs(&self) -> &[(u32, u32)] {
        &self.runs
    }

    /// Iterate all member IDs in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = StationId> + '_ {
        self.runs
            .iter()
            .flat_map(|&(lo, hi)| (lo..hi).map(StationId))
    }
}

// ---------------------------------------------------------------------------
// TxTally: weighted transmitter accounting for one slot
// ---------------------------------------------------------------------------

/// Accumulates the transmitters of one slot across all polled units.
///
/// Two regimes:
///
/// * **ID-collecting** (transcript recording or per-station detail on):
///   every transmitter ID is pushed individually — O(transmitters) per
///   slot, exactly like the concrete engine;
/// * **count-only** (mega runs): classes report a weighted count via
///   [`add_anonymous`](TxTally::add_anonymous); only a successful slot's
///   sole transmitter carries an ID. Collision slots at `n = 2^24` then
///   cost O(1) memory instead of materializing 2^24 IDs.
#[derive(Debug)]
pub struct TxTally {
    total: u64,
    /// The sole transmitter — valid iff `total == 1`.
    witness: Option<StationId>,
    /// Collected transmitter IDs (`Some` iff the run needs them).
    ids: Option<Vec<StationId>>,
}

impl TxTally {
    /// New tally; `collect_ids` turns on the ID-collecting regime.
    pub fn new(collect_ids: bool) -> Self {
        TxTally {
            total: 0,
            witness: None,
            ids: collect_ids.then(Vec::new),
        }
    }

    /// `true` iff transmitter IDs must be reported individually (via
    /// [`push`](TxTally::push)); classes may only use
    /// [`add_anonymous`](TxTally::add_anonymous) when this is `false`.
    #[inline]
    pub fn collect_ids(&self) -> bool {
        self.ids.is_some()
    }

    /// Record one transmitter by ID.
    pub fn push(&mut self, id: StationId) {
        self.total += 1;
        self.witness = (self.total == 1).then_some(id);
        if let Some(ids) = self.ids.as_mut() {
            ids.push(id);
        }
    }

    /// Record `count ≥ 2` transmitters without materializing their IDs.
    ///
    /// Panics in the ID-collecting regime (the caller must
    /// [`push`](TxTally::push) there) and on `count == 1` (a sole
    /// transmitter is a potential winner and must carry its ID).
    pub fn add_anonymous(&mut self, count: u64) {
        if count == 0 {
            return;
        }
        assert!(
            self.ids.is_none(),
            "TxTally: anonymous bulk add while collecting IDs"
        );
        assert!(count >= 2, "TxTally: a sole transmitter must carry its ID");
        self.total += count;
        self.witness = None;
    }

    /// Total transmitter count so far.
    #[inline]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The winner of the slot: the sole transmitter, if exactly one.
    #[inline]
    pub fn winner(&self) -> Option<StationId> {
        if self.total == 1 {
            self.witness
        } else {
            None
        }
    }

    /// The collected IDs, sorted (ID-collecting regime only).
    pub fn sorted_ids(&mut self) -> &[StationId] {
        let ids = self
            .ids
            .as_mut()
            .expect("TxTally::sorted_ids in count-only regime");
        ids.sort_unstable();
        ids
    }

    /// Reset for the next slot.
    pub fn clear(&mut self) {
        self.total = 0;
        self.witness = None;
        if let Some(ids) = self.ids.as_mut() {
            ids.clear();
        }
    }

    /// Record every member of `members` for which `transmits` holds — the
    /// standard body of a class's [`ClassStation::act`]: exact IDs in the
    /// collecting regime, a weighted count otherwise (with the sole
    /// transmitter's ID preserved, as a potential winner must carry it).
    pub fn record_members(&mut self, members: &Members, mut transmits: impl FnMut(u32) -> bool) {
        if self.collect_ids() {
            for id in members.iter() {
                if transmits(id.0) {
                    self.push(id);
                }
            }
        } else {
            let mut count = 0u64;
            let mut witness = None;
            for id in members.iter() {
                if transmits(id.0) {
                    count += 1;
                    witness = Some(id);
                }
            }
            match count {
                0 => {}
                1 => self.push(witness.expect("count == 1 has a witness")),
                _ => self.add_anonymous(count),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// ClassStation: one equivalence class of stations
// ---------------------------------------------------------------------------

/// The class-aggregated counterpart of [`Station`]: one simulation unit
/// standing in for every member of an equivalence class (stations in
/// identical protocol state, keyed by schedule structure and wake slot).
///
/// The lifecycle mirrors [`Station`]: [`wake`](ClassStation::wake) once at
/// the batch's wake slot, then [`act`](ClassStation::act) /
/// [`feedback`](ClassStation::feedback) /
/// [`next_transmission`](ClassStation::next_transmission) under exactly the
/// same slot discipline and [`TxHint`] scope contract — with every answer
/// ranging over **all** live members:
///
/// * `act` reports every member that transmits at `t` into the slot's
///   [`TxTally`] (weighted count, or individual IDs when the tally
///   collects them);
/// * `next_transmission` promises silence of the **whole class**: the hint
///   slot is the earliest slot at which *any* member may transmit;
/// * `feedback` receives what every member perceives (feedback is uniform
///   across stations — see
///   [`FeedbackModel::perceive`](crate::channel::FeedbackModel::perceive))
///   and may **split** the class when members diverge: the returned units
///   are appended to the population (already awake; they are polled and
///   re-queried from `t + 1`). A member retiring on its own success is the
///   degenerate split — the class simply drops it
///   ([`weight`](ClassStation::weight) decreases) and no new unit is born.
pub trait ClassStation {
    /// Number of live members this unit stands in for.
    fn weight(&self) -> u64;

    /// The whole class wakes at `sigma` (all members of a class share one
    /// wake slot by construction).
    fn wake(&mut self, sigma: Slot);

    /// Report every member transmitting at slot `t` into `tally`.
    fn act(&mut self, t: Slot, tally: &mut TxTally);

    /// Channel feedback for slot `t`, as every member perceives it. May
    /// return new units split off the class (they are already awake).
    /// Default: ignore, never split (oblivious classes).
    fn feedback(&mut self, t: Slot, fb: Feedback) -> Vec<Box<dyn ClassStation>> {
        let _ = (t, fb);
        Vec::new()
    }

    /// When will **any** member transmit next, looking from `after`?
    /// Same promise semantics and [`Until`](crate::station::Until) scope
    /// obligations as [`Station::next_transmission`], quantified over the
    /// class. Default: [`TxHint::Dense`].
    fn next_transmission(&mut self, after: Slot) -> TxHint {
        let _ = after;
        TxHint::Dense
    }

    /// Remove member `id` from the class (a churn crash: the member leaves
    /// exactly like a retired one, without a success). Default:
    /// [`MemberRemoval::Unsupported`] — the engine then falls back to a
    /// concrete run for churned populations, preserving correctness for
    /// class implementations that predate churn.
    fn remove_member(&mut self, id: StationId) -> MemberRemoval {
        let _ = id;
        MemberRemoval::Unsupported
    }
}

/// Result of [`ClassStation::remove_member`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MemberRemoval {
    /// `id` is not a member of this unit; try the next one.
    NotMember,
    /// `id` was removed; `emptied` is `true` when the unit's last member
    /// left (the engine replaces it with an inert [`DeadClass`]).
    Removed {
        /// `true` iff the unit now has weight 0.
        emptied: bool,
    },
    /// This class implementation cannot remove members mid-run.
    Unsupported,
}

/// An inert unit standing in for crashed members: weight 0, never
/// transmits, never splits. What a [`ClassStation`] becomes when churn
/// empties it (the class-engine analogue of replacing a crashed concrete
/// station with [`NeverTransmit`](crate::station::NeverTransmit)).
#[derive(Clone, Copy, Debug, Default)]
pub struct DeadClass;

impl ClassStation for DeadClass {
    fn weight(&self) -> u64 {
        0
    }

    fn wake(&mut self, _sigma: Slot) {}

    fn act(&mut self, _t: Slot, _tally: &mut TxTally) {}

    fn next_transmission(&mut self, _after: Slot) -> TxHint {
        TxHint::never()
    }

    fn remove_member(&mut self, _id: StationId) -> MemberRemoval {
        MemberRemoval::NotMember
    }
}

/// A weight-1 [`ClassStation`] wrapping one concrete [`Station`] — the
/// universal fallback that lets *every* protocol run under a class
/// population with bit-identical outcomes, aggregated or not.
pub struct SingletonClass {
    id: StationId,
    inner: Box<dyn Station>,
}

impl SingletonClass {
    /// Wrap station `id`.
    pub fn new(id: StationId, inner: Box<dyn Station>) -> Self {
        SingletonClass { id, inner }
    }

    /// The wrapped station's ID.
    pub fn id(&self) -> StationId {
        self.id
    }
}

impl ClassStation for SingletonClass {
    fn weight(&self) -> u64 {
        1
    }

    fn wake(&mut self, sigma: Slot) {
        self.inner.wake(sigma);
    }

    fn act(&mut self, t: Slot, tally: &mut TxTally) {
        if self.inner.act(t).is_transmit() {
            tally.push(self.id);
        }
    }

    fn feedback(&mut self, t: Slot, fb: Feedback) -> Vec<Box<dyn ClassStation>> {
        self.inner.feedback(t, fb);
        Vec::new()
    }

    fn next_transmission(&mut self, after: Slot) -> TxHint {
        self.inner.next_transmission(after)
    }

    fn remove_member(&mut self, id: StationId) -> MemberRemoval {
        if id == self.id {
            MemberRemoval::Removed { emptied: true }
        } else {
            MemberRemoval::NotMember
        }
    }
}

// ---------------------------------------------------------------------------
// Population mode: partitioning wake batches into units
// ---------------------------------------------------------------------------

/// Which population the engine simulates.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum PopulationMode {
    /// One boxed [`Station`] per woken station — the historical engine
    /// (adaptive sparse/dense), O(k) memory.
    #[default]
    Concrete,
    /// Class-aggregated units via [`Protocol::class_station`], singleton
    /// fallback per station otherwise — O(classes) memory for protocols
    /// with class support.
    Classes,
}

/// Instantiate the units covering one wake batch (all stations waking at
/// the same slot) under [`PopulationMode::Classes`]: the protocol's
/// class-aggregated unit ([`Protocol::class_station`]), or one
/// [`SingletonClass`] per station when it has none. Units are returned
/// unwoken; the engine calls [`ClassStation::wake`] as it admits them.
pub(crate) fn admit(
    protocol: &dyn Protocol,
    batch: &Members,
    run_seed: u64,
) -> Vec<Box<dyn ClassStation>> {
    match protocol.class_station(batch, run_seed) {
        Some(class) => vec![class],
        None => batch
            .iter()
            .map(|id| -> Box<dyn ClassStation> {
                Box::new(SingletonClass::new(
                    id,
                    protocol.station(id, derive_seed(run_seed, u64::from(id.0))),
                ))
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(v: &[u32]) -> Vec<StationId> {
        v.iter().copied().map(StationId).collect()
    }

    #[test]
    fn members_coalesce_consecutive_ids() {
        let m = Members::from_sorted_ids(&ids(&[0, 1, 2, 5, 7, 8]));
        assert_eq!(m.runs(), &[(0, 3), (5, 6), (7, 9)]);
        assert_eq!(m.count(), 6);
        assert_eq!(m.first(), Some(0));
        assert_eq!(m.last(), Some(8));
    }

    #[test]
    fn members_range_is_one_run() {
        let m = Members::range(10, 1 << 20);
        assert_eq!(m.runs().len(), 1);
        assert_eq!(m.count(), (1 << 20) - 10);
    }

    #[test]
    fn members_contains_and_next() {
        let m = Members::from_sorted_ids(&ids(&[2, 3, 9]));
        assert!(m.contains(2));
        assert!(m.contains(3));
        assert!(!m.contains(4));
        assert!(m.contains(9));
        assert!(!m.contains(10));
        assert_eq!(m.next_at_or_after(0), Some(2));
        assert_eq!(m.next_at_or_after(3), Some(3));
        assert_eq!(m.next_at_or_after(4), Some(9));
        assert_eq!(m.next_at_or_after(10), None);
    }

    #[test]
    fn members_remove_splits_runs() {
        let mut m = Members::range(0, 5);
        assert!(m.remove(2));
        assert_eq!(m.runs(), &[(0, 2), (3, 5)]);
        assert_eq!(m.count(), 4);
        assert!(!m.remove(2));
        assert!(m.remove(0));
        assert_eq!(m.runs(), &[(1, 2), (3, 5)]);
        assert!(m.remove(1));
        assert_eq!(m.runs(), &[(3, 5)]);
        assert!(m.remove(4));
        assert_eq!(m.runs(), &[(3, 4)]);
        assert!(m.remove(3));
        assert!(m.is_empty());
    }

    #[test]
    fn members_iter_in_order() {
        let m = Members::from_sorted_ids(&ids(&[1, 2, 7]));
        let got: Vec<StationId> = m.iter().collect();
        assert_eq!(got, ids(&[1, 2, 7]));
    }

    #[test]
    fn tally_winner_requires_sole_transmitter() {
        let mut t = TxTally::new(false);
        assert_eq!(t.winner(), None);
        t.push(StationId(4));
        assert_eq!(t.winner(), Some(StationId(4)));
        assert_eq!(t.total(), 1);
        t.add_anonymous(3);
        assert_eq!(t.winner(), None);
        assert_eq!(t.total(), 4);
        t.clear();
        assert_eq!(t.total(), 0);
    }

    #[test]
    fn tally_collects_sorted_ids() {
        let mut t = TxTally::new(true);
        t.push(StationId(9));
        t.push(StationId(2));
        assert!(t.collect_ids());
        assert_eq!(t.sorted_ids(), &ids(&[2, 9])[..]);
    }

    #[test]
    #[should_panic(expected = "anonymous bulk add while collecting IDs")]
    fn tally_rejects_anonymous_when_collecting() {
        let mut t = TxTally::new(true);
        t.add_anonymous(2);
    }

    #[test]
    #[should_panic(expected = "sole transmitter must carry its ID")]
    fn tally_rejects_anonymous_singleton() {
        let mut t = TxTally::new(false);
        t.add_anonymous(1);
    }

    #[test]
    fn singleton_remove_member_is_exact() {
        use crate::station::AlwaysTransmit;
        let mut s = SingletonClass::new(StationId(3), Box::new(AlwaysTransmit));
        assert_eq!(s.remove_member(StationId(4)), MemberRemoval::NotMember);
        assert_eq!(
            s.remove_member(StationId(3)),
            MemberRemoval::Removed { emptied: true }
        );
    }

    #[test]
    fn dead_class_is_inert() {
        let mut d = DeadClass;
        assert_eq!(d.weight(), 0);
        d.wake(0);
        let mut tally = TxTally::new(true);
        d.act(5, &mut tally);
        assert_eq!(tally.total(), 0);
        assert_eq!(d.next_transmission(0), TxHint::never());
        assert!(d.feedback(5, Feedback::Silence).is_empty());
        assert_eq!(d.remove_member(StationId(0)), MemberRemoval::NotMember);
    }
}
