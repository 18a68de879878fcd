//! `select_among_the_first` — the Scenario A component (§3).
//!
//! Only stations woken **exactly at `s`** participate; every station can
//! decide participation locally because `s` is known. Participants transmit
//! according to the sequential composition `⟨F₁, F₂, …⟩` of
//! `(n, 2^j)`-selective families for `j = 1, 2, …, ⌈log n⌉` (cycled for
//! robustness), with schedule positions counted from `s`.
//!
//! *Correctness.* The participant set `X` (stations with `σ = s`) is fixed
//! from slot `s` on and non-empty. Let `i` be such that
//! `2^{i-1} ≤ |X| ≤ 2^i`; the selectivity property of `Fᵢ` yields a slot
//! where exactly one member of `X` transmits — non-participants are silent,
//! so that slot is a success. Time: reaching and finishing `Fᵢ` costs
//! `O(Σ_{j ≤ i} 2^j log(n/2^j)) = O(|X| log(n/|X|) + |X|) ⊆ O(k log(n/k) + k)`.
//!
//! This component alone solves wake-up, since `X` is never empty, but it is
//! not optimal for `k > n/c`: walking the families costs `Θ(k)` there, while
//! round-robin needs only `n − k + 1` slots.
//! [`WakeupWithS`](crate::wakeup_with_s::WakeupWithS) interleaves it with
//! round-robin to cover the large-`k` regime.
//!
//! The module also holds the doubling schedule that Scenario B shares
//! ([`DoublingSchedule`]) and its memoized walks: per station
//! ([`PositionIndex`] and a private cache) and per class (a budgeted scan).

use crate::family_provider::{DynFamily, DynRow, FamilyProvider};
use crate::oblivious::{Gate, Oblivious};
use mac_sim::{ClassStation, Members, Protocol, Slot, Station, StationId, TxRow};
use selectors::math::log_n;
use std::sync::Arc;

/// The concatenated doubling-family schedule `⟨F₁, F₂, …⟩` shared by the
/// Scenario A and Scenario B algorithms: family `Fᵢ` is `(n, 2^i)`-selective.
///
/// Internally this is the schedule algebra's cyclic concatenation
/// `cycle(⟨F₁, …, F_top⟩)`: position lookup ([`row`](Self::row)) reuses
/// its period and family offsets. Every per-station question — the next
/// transmission, a tile of transmit bits, a period's position index — is
/// one bounded walk, [`next_position_in`](Self::next_position_in), which
/// walks each family in a tight loop instead of looking up one position
/// at a time.
#[derive(Debug)]
pub struct DoublingSchedule {
    cycle: selectors::schedule::CycleSchedule<selectors::schedule::ConcatSchedule<DynFamily>>,
    /// Per-station [`PositionIndex`] memo, shared by every station (and —
    /// when the schedule handle itself is shared through the construction
    /// cache — every *run*) holding this schedule: the `O(period)` index
    /// scan happens once per station per schedule instead of once per
    /// station per run. Keyed by station id in a `BTreeMap` so the memo has
    /// no ambient hash state (deterministic tier).
    indices: std::sync::Mutex<std::collections::BTreeMap<u32, Arc<PositionIndex>>>,
}

impl DoublingSchedule {
    /// Build from `provider` the families `F₁ … F_top` (`top = 0` degenerates
    /// to the single trivial `(n,1)` family).
    pub fn new(provider: &FamilyProvider, n: u32, top: u32) -> Self {
        use selectors::ScheduleExt;
        let families = selectors::schedule::ConcatSchedule::new(provider.doubling_sequence(n, top));
        DoublingSchedule {
            cycle: families.cycle(),
            indices: std::sync::Mutex::new(std::collections::BTreeMap::new()),
        }
    }

    /// Total period `z = z₁ + … + z_top`.
    pub fn period(&self) -> u64 {
        self.cycle.period()
    }

    /// Family start offsets within a period — the boundaries `wait_and_go`
    /// waits for.
    pub fn offsets(&self) -> &[u64] {
        self.cycle.inner().offsets()
    }

    /// The transmission set at position `p` (taken mod the period),
    /// resolved once: one modulo and one family lookup for any number of
    /// stations tested against it.
    #[inline]
    pub fn row(&self, p: u64) -> DynRow<'_> {
        match self.cycle.inner().locate(p % self.period()) {
            Some((i, local)) => self.families()[i].row(local),
            None => DynRow::Empty,
        }
    }

    /// Does station `u` transmit at position `p` (taken mod the period)?
    #[inline]
    pub fn transmits(&self, u: u32, p: u64) -> bool {
        self.row(p).contains(u)
    }

    /// The families in order.
    pub fn families(&self) -> &[DynFamily] {
        self.cycle.inner().parts()
    }

    /// Smallest position `p' ≥ p` that is a family boundary (mod period).
    pub fn next_boundary(&self, p: u64) -> u64 {
        let r = p % self.period();
        for &off in self.offsets() {
            if off >= r {
                return p + (off - r);
            }
        }
        // Wrap to the start of the next period.
        p + (self.period() - r)
    }

    /// Smallest position `q ∈ [from, end)` at which station `u` transmits
    /// (positions taken mod the period), or `None` if `u` is silent on the
    /// whole range. The one walk behind every per-station question: it
    /// crosses family boundaries and period wraps, and hands each family's
    /// stretch of the range to [`DynFamily::next_member`], which folds the
    /// family seed once and then pays 4 mixing rounds per position.
    pub fn next_position_in(&self, u: u32, from: u64, end: u64) -> Option<u64> {
        let period = self.period();
        let mut pass = from - from % period;
        let mut r = from - pass;
        while pass + r < end {
            let stop = (end - pass).min(period);
            for (fam, &off) in self.families().iter().zip(self.offsets()) {
                let fam_end = off + fam.len();
                if fam_end <= r {
                    continue;
                }
                if off >= stop {
                    break;
                }
                if let Some(j) = fam.next_member(u, r.max(off) - off, stop.min(fam_end) - off) {
                    return Some(pass + off + j);
                }
            }
            pass += period;
            r = 0;
        }
        None
    }

    /// Every position in `[from, end)` at which station `u` transmits, in
    /// increasing order — [`next_position_in`](Self::next_position_in)
    /// resumed past each hit.
    pub fn positions_in(&self, u: u32, from: u64, end: u64) -> impl Iterator<Item = u64> + '_ {
        std::iter::successors(self.next_position_in(u, from, end), move |&q| {
            self.next_position_in(u, q + 1, end)
        })
    }

    /// Smallest position `p' ≥ p` at which station `u` transmits, or `None`
    /// if `u` is in no transmission set of any family (then the cyclic
    /// schedule never selects it): the bounded walk over the rest of `p`'s
    /// pass plus one full pass. Successive queries over a run walk disjoint
    /// stretches, so the amortized cost matches one dense pass.
    pub fn next_position(&self, u: u32, p: u64) -> Option<u64> {
        let period = self.period();
        self.next_position_in(u, p, p - p % period + 2 * period)
    }

    /// Build station `u`'s [`PositionIndex`]: every position of one period at
    /// which `u` transmits, collected by the bounded walk over `[0, period)`.
    /// Queries against the index are then O(log) each (binary search +
    /// cyclic wrap), instead of [`next_position`](Self::next_position)'s
    /// linear walk — the win for runs that outlive one schedule period, such
    /// as the conflict-resolution resolvers that are re-queried after every
    /// success.
    pub fn position_index(&self, u: u32) -> PositionIndex {
        let period = self.period();
        let positions = self.positions_in(u, 0, period).collect();
        PositionIndex { positions, period }
    }

    /// Station `u`'s [`PositionIndex`] out of the schedule's interior memo:
    /// built on first request (outside the lock), shared ever after. With a
    /// cache-shared schedule handle this is what turns the per-run index
    /// scans of the conflict-resolution resolvers into a once-per-ensemble
    /// cost.
    pub fn shared_index(&self, u: u32) -> Arc<PositionIndex> {
        if let Some(idx) = self.indices.lock().unwrap().get(&u) {
            return Arc::clone(idx);
        }
        let built = Arc::new(self.position_index(u));
        let mut map = self.indices.lock().unwrap();
        // A racing builder may have inserted meanwhile; both built the same
        // deterministic index, so either handle is correct — share the one
        // that landed.
        Arc::clone(map.entry(u).or_insert(built))
    }
}

/// The family-sequence height `⌈log n⌉` of the full doubling schedule the
/// `s`-known protocols walk ([`SelectAmongFirst`],
/// [`WakeupWithS`](crate::WakeupWithS)); validates `n ≥ 1`.
pub(crate) fn full_doubling_top(n: u32) -> u32 {
    assert!(n >= 1);
    log_n(u64::from(n))
}

/// A per-station index over one period of a [`DoublingSchedule`]: the sorted
/// positions at which the station transmits. Built once (O(period)), then
/// [`next_position`](PositionIndex::next_position) answers any query in
/// O(log #positions), exactly matching the schedule's linear walk.
#[derive(Clone, Debug, Default)]
pub struct PositionIndex {
    /// Sorted transmitting positions within `[0, period)`.
    positions: Vec<u64>,
    period: u64,
}

impl PositionIndex {
    /// Smallest position `p' ≥ p` at which the indexed station transmits, or
    /// `None` if it transmits nowhere in the period (hence never — the
    /// schedule is cyclic).
    pub fn next_position(&self, p: u64) -> Option<u64> {
        let first = *self.positions.first()?;
        let r = p % self.period;
        match self.positions.partition_point(|&q| q < r) {
            i if i < self.positions.len() => Some(p + (self.positions[i] - r)),
            // Wrap: the next hit is the first position of the next period.
            _ => Some(p + (self.period - r) + first),
        }
    }
}

/// A station's memoized walk of a [`DoublingSchedule`]: the one source of
/// both its per-slot answer (`act`, via [`transmits_at`](Self::transmits_at))
/// and its hint (`next_transmission`, via [`query`](Self::query)). The
/// schedule is oblivious, so a computed hit stays the answer until the query
/// point passes it: a hinted slot is never evaluated a second time, a
/// re-query scheduled by a *different* component (the interleaved
/// round-robin turns) or by success feedback (the conflict-resolution
/// resolvers) does not re-walk toward the same far-off family hit, and dense
/// stepping pays one walk per hit instead of one membership test per slot.
///
/// Queries inside the first period walk linearly
/// ([`DoublingSchedule::next_position`]). The first query *past* one period
/// builds the station's [`PositionIndex`] — linear rescans would otherwise
/// repeat a full-period walk every cycle, which made the selective resolver
/// schedule-walk-bound — and every query thereafter is O(log) per the index.
///
/// Query points must be non-decreasing across **all** calls, `act` and hint
/// alike (the engine's clock is). A tile fill (`fill_tx_word`) must not go
/// through the memo: after a success closes a tile early, the next fill
/// starts inside the old tile, behind a memo the fill would have advanced.
#[derive(Clone, Debug, Default)]
pub(crate) struct NextPositionCache {
    /// Last linear-walk answer (`Some(None)` = provably never).
    memo: Option<Option<u64>>,
    /// Per-station index handle, adopted lazily once the run outlives one
    /// period — from the schedule's shared memo, so across runs of a
    /// cache-shared schedule only the first run pays the `O(period)` walk.
    index: Option<Arc<PositionIndex>>,
}

impl NextPositionCache {
    /// The smallest position `q ≥ q0` where `u` transmits in `schedule`,
    /// reusing the previous answer when still valid.
    pub(crate) fn query(&mut self, schedule: &DoublingSchedule, u: u32, q0: u64) -> Option<u64> {
        if let Some(idx) = &self.index {
            return idx.next_position(q0);
        }
        match self.memo {
            // A definitive "never in any period" is permanent.
            Some(None) => None,
            // A hit not yet passed: the earlier walk proved silence up to it.
            Some(Some(q)) if q >= q0 => Some(q),
            _ if q0 >= schedule.period() => {
                let idx = self.index.insert(schedule.shared_index(u));
                idx.next_position(q0)
            }
            _ => {
                let q = schedule.next_position(u, q0);
                self.memo = Some(q);
                q
            }
        }
    }

    /// Does `u` transmit at position `q`? The [`query`](Self::query) from
    /// `q`, so it advances the memo exactly as a hint query would.
    pub(crate) fn transmits_at(&mut self, schedule: &DoublingSchedule, u: u32, q: u64) -> bool {
        self.query(schedule, u, q) == Some(q)
    }
}

/// Membership-test budget per class hint query: enough to prove silence over
/// long stretches in one go for small classes, while bounding the work a
/// single [`ClassStation::next_transmission`] call can sink into a huge
/// class (the scan resumes from its high-water mark at the next query).
pub(crate) const CLASS_SCAN_BUDGET: u64 = 1 << 16;

/// Result of one [`AnyMemberScan`] query.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Scan {
    /// Some member transmits at this position (the earliest `≥ q0`).
    Hit(u64),
    /// Silence is proven for every position below this bound, which is
    /// `> q0`; the caller must re-query from the bound (window exhausted or
    /// budget spent).
    SilentBelow(u64),
    /// No member transmits at any position — a full period is silent, and
    /// the schedule is cyclic.
    Never,
}

/// Budgeted "earliest position where **any** member transmits" scanner over
/// a sequence of rows — a [`DoublingSchedule`]'s positions or a waking
/// matrix's slots — and the class-aggregated counterpart of
/// [`NextPositionCache`]. Positions are tested one by one with an
/// early-exit membership loop; a high-water mark records proven silence and
/// a memoized hit survives re-queries, so monotone query points (the
/// engine's `after` clock) never re-scan a position. Over rows that repeat,
/// a full silent period proves permanent silence.
#[derive(Clone, Debug, Default)]
pub(crate) struct AnyMemberScan {
    /// Every position `< proven` is proven transmission-free (or was a
    /// memoized hit since passed).
    proven: u64,
    /// Memoized earliest hit at or after `proven`, if found.
    hit: Option<u64>,
    /// Consecutive proven-silent positions (`≥ period` ⇒ never).
    silent_streak: u64,
    never: bool,
}

impl AnyMemberScan {
    /// Earliest position `q ∈ [q0, q_lim)` at which any member is in
    /// `row(q)`. Rows that repeat every `period` positions prove permanent
    /// silence after one silent period; rows that never repeat pass
    /// `u64::MAX`. Query points must be non-decreasing across calls. At
    /// least one new position is always completed (when the window is
    /// non-empty and unproven), so a [`Scan::SilentBelow`] bound strictly
    /// advances.
    pub(crate) fn next_hit<R: TxRow>(
        &mut self,
        row: impl Fn(u64) -> R,
        period: u64,
        members: &Members,
        q0: u64,
        q_lim: u64,
        budget: u64,
    ) -> Scan {
        if self.never || members.is_empty() {
            return Scan::Never;
        }
        if let Some(q) = self.hit {
            if q < q0 {
                self.hit = None; // query point moved past the memoized hit
            } else if q < q_lim {
                return Scan::Hit(q);
            } else {
                return Scan::SilentBelow(q_lim); // hit beyond the window
            }
        }
        let start = self.proven.max(q0);
        if start >= q_lim {
            return Scan::SilentBelow(q_lim); // window already proven silent
        }
        let mut tests = 0u64;
        let mut p = start;
        while p < q_lim {
            // Budget is honored between positions; the first position of
            // the call always completes so the silence bound advances.
            if tests >= budget && p > start {
                return Scan::SilentBelow(p);
            }
            let row = row(p);
            let mut any = false;
            'runs: for &(lo, hi) in members.runs() {
                for u in lo..hi {
                    tests += 1;
                    if row.contains(u) {
                        any = true;
                        break 'runs;
                    }
                }
            }
            if any {
                self.proven = p;
                self.hit = Some(p);
                self.silent_streak = 0;
                return Scan::Hit(p);
            }
            p += 1;
            self.proven = p;
            self.silent_streak += 1;
            if self.silent_streak >= period {
                self.never = true;
                return Scan::Never;
            }
        }
        Scan::SilentBelow(q_lim)
    }

    /// Where a query from `q0` resumes: at the memoized hit or past the
    /// proven-silent prefix.
    pub(crate) fn resume(&self, q0: u64) -> u64 {
        self.proven.max(q0)
    }

    /// A member left: the silence proven so far still holds, but the
    /// memoized hit may have been the departed member's.
    pub(crate) fn drop_hit(&mut self) {
        self.hit = None;
    }
}

/// The `select_among_the_first` protocol (Scenario A component): the
/// doubling schedule alone, behind the woken-at-`s` gate.
#[derive(Clone, Debug)]
pub struct SelectAmongFirst {
    n: u32,
    s: Slot,
    period: u64,
    expr: Arc<Oblivious>,
}

impl SelectAmongFirst {
    /// Build for `n` stations with known first-wake-up slot `s`.
    pub fn new(n: u32, s: Slot, provider: FamilyProvider) -> Self {
        let top = full_doubling_top(n);
        Self::over(n, s, Arc::new(DoublingSchedule::new(&provider, n, top)))
    }

    /// Like [`new`](Self::new), but the doubling schedule comes out of
    /// `cache` — built once per `(n, provider)` per ensemble and shared
    /// across runs.
    pub fn cached(
        n: u32,
        s: Slot,
        provider: &FamilyProvider,
        cache: &crate::cache::ConstructionCache,
    ) -> Self {
        Self::over(n, s, cache.schedule(provider, n, full_doubling_top(n)))
    }

    fn over(n: u32, s: Slot, schedule: Arc<DoublingSchedule>) -> Self {
        SelectAmongFirst {
            n,
            s,
            period: schedule.period(),
            expr: Oblivious::new(None, Some((schedule, Gate::WokeAt(s))), false),
        }
    }

    /// The known starting slot `s`.
    pub fn s(&self) -> Slot {
        self.s
    }

    /// Total length of one pass over all families.
    pub fn schedule_period(&self) -> u64 {
        self.period
    }
}

impl Protocol for SelectAmongFirst {
    fn station(&self, id: StationId, _seed: u64) -> Box<dyn Station> {
        self.expr.station(id)
    }

    fn class_station(&self, members: &Members) -> Option<Box<dyn ClassStation>> {
        Some(self.expr.class(members))
    }

    fn name(&self) -> String {
        format!("select-among-the-first(n={}, s={})", self.n, self.s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mac_sim::prelude::*;

    fn ids(v: &[u32]) -> Vec<StationId> {
        v.iter().copied().map(StationId).collect()
    }

    fn sim(n: u32) -> Simulator {
        Simulator::new(SimConfig::new(n))
    }

    #[test]
    fn solves_simultaneous_wakeups() {
        let n = 64;
        for k in [1usize, 2, 3, 5, 8, 16] {
            let p = SelectAmongFirst::new(n, 50, FamilyProvider::default());
            let chosen: Vec<StationId> = (0..k as u32).map(|i| StationId(i * 3)).collect();
            let pattern = WakePattern::simultaneous(&chosen, 50).unwrap();
            let out = sim(n).run(&p, &pattern, 0).unwrap();
            assert!(out.solved(), "k={k} failed");
        }
    }

    #[test]
    fn late_wakers_stay_silent() {
        let n = 32;
        let p = SelectAmongFirst::new(n, 10, FamilyProvider::default());
        // One station at s = 10, three latecomers.
        let pattern = WakePattern::new(vec![
            (StationId(4), 10),
            (StationId(9), 11),
            (StationId(20), 11),
            (StationId(31), 12),
        ])
        .unwrap();
        let cfg = SimConfig::new(n).with_transcript();
        let out = Simulator::new(cfg).run(&p, &pattern, 0).unwrap();
        assert!(out.solved());
        assert_eq!(out.winner, Some(StationId(4)));
        // No slot may contain a transmission from a latecomer.
        let tr = out.transcript.unwrap();
        for r in tr.records() {
            for &tx in &r.transmitters {
                assert_eq!(tx, StationId(4), "latecomer {tx} transmitted");
            }
        }
    }

    #[test]
    fn latency_grows_sublinearly_in_n_for_fixed_k() {
        // For fixed k, latency should scale like k·log(n/k) — far below n.
        let mut latencies = Vec::new();
        for n in [64u32, 256, 1024] {
            let p = SelectAmongFirst::new(n, 0, FamilyProvider::default());
            let pattern = WakePattern::simultaneous(&ids(&[1, n / 2, n - 2]), 0).unwrap();
            let out = sim(n).run(&p, &pattern, 0).unwrap();
            let lat = out.latency().expect("must solve");
            assert!(lat < u64::from(n), "latency {lat} not sublinear at n={n}");
            latencies.push(lat);
        }
    }

    #[test]
    fn requires_exact_s_to_participate() {
        // If the protocol's s is wrong (earlier than any wake), nobody
        // participates and the component never succeeds on its own.
        let n = 16;
        let p = SelectAmongFirst::new(n, 5, FamilyProvider::default());
        let pattern = WakePattern::simultaneous(&ids(&[2, 7]), 6).unwrap();
        let cfg = SimConfig::new(n).with_max_slots(500);
        let out = Simulator::new(cfg).run(&p, &pattern, 0).unwrap();
        assert!(!out.solved());
        assert_eq!(out.transmissions, 0);
    }

    #[test]
    fn deterministic_given_provider_seed() {
        let n = 64;
        let mk = || SelectAmongFirst::new(n, 0, FamilyProvider::random_with_seed(33));
        let pattern = WakePattern::simultaneous(&ids(&[0, 5, 9, 13]), 0).unwrap();
        let a = sim(n).run(&mk(), &pattern, 0).unwrap();
        let b = sim(n).run(&mk(), &pattern, 0).unwrap();
        assert_eq!(a.first_success, b.first_success);
        assert_eq!(a.winner, b.winner);
    }

    #[test]
    fn doubling_schedule_boundaries() {
        let sched = DoublingSchedule::new(&FamilyProvider::default(), 64, 3);
        assert_eq!(sched.offsets()[0], 0);
        assert_eq!(sched.families().len(), 3);
        // next_boundary at a boundary is the boundary itself.
        assert_eq!(sched.next_boundary(0), 0);
        let second = sched.offsets()[1];
        assert_eq!(sched.next_boundary(1), second.max(1));
        // Past the last family start, the next boundary is the period wrap.
        let last_off = *sched.offsets().last().unwrap();
        assert_eq!(sched.next_boundary(last_off + 1) % sched.period(), 0);
        // next_boundary is monotone and ≥ its argument.
        for p in 0..(2 * sched.period()) {
            let b = sched.next_boundary(p);
            assert!(b >= p);
            assert!(sched.offsets().contains(&(b % sched.period())));
        }
    }

    #[test]
    fn position_index_pins_the_linear_walk() {
        // The O(log) per-station index must answer exactly like the linear
        // next_position walk — for every station, across period wraps, for
        // both providers and for degenerate tops.
        for (provider, n, top) in [
            (FamilyProvider::random_with_seed(5), 48u32, 3u32),
            (FamilyProvider::random_with_seed(5), 16, 0),
            (FamilyProvider::KautzSingleton, 20, 2),
        ] {
            let sched = DoublingSchedule::new(&provider, n, top);
            let period = sched.period();
            for u in 0..n {
                let idx = sched.position_index(u);
                for p in 0..(3 * period + 2) {
                    assert_eq!(
                        idx.next_position(p),
                        sched.next_position(u, p),
                        "n={n} top={top} u={u} p={p} (period {period})"
                    );
                }
            }
        }
    }

    #[test]
    fn next_position_cache_switches_to_index_past_one_period() {
        let provider = FamilyProvider::random_with_seed(9);
        let sched = DoublingSchedule::new(&provider, 32, 3);
        let period = sched.period();
        for u in [0u32, 7, 31] {
            let mut cache = NextPositionCache::default();
            let mut q0 = 0u64;
            // Monotone queries across several periods must match the walk.
            while q0 < 4 * period {
                assert_eq!(
                    cache.query(&sched, u, q0),
                    sched.next_position(u, q0),
                    "u={u} q0={q0}"
                );
                q0 += 1 + period / 5;
            }
            assert!(
                cache.index.is_some(),
                "cache never built the index despite outliving a period"
            );
        }
    }

    #[test]
    fn works_with_kautz_singleton_provider() {
        let n = 32;
        let p = SelectAmongFirst::new(n, 0, FamilyProvider::KautzSingleton);
        let pattern = WakePattern::simultaneous(&ids(&[3, 19, 27]), 0).unwrap();
        let out = sim(n).run(&p, &pattern, 0).unwrap();
        assert!(out.solved());
    }

    #[test]
    fn any_member_scan_matches_per_station_minimum() {
        // The class scanner's answer must equal the min over members of the
        // per-station next_position, for monotone query points and any
        // budget (budget only splits the work, never changes the answer).
        let sched = DoublingSchedule::new(&FamilyProvider::random_with_seed(7), 48, 3);
        let members = Members::from_runs(vec![(3, 5), (17, 18), (40, 44)]);
        for budget in [1u64, 7, 1 << 16] {
            let mut scan = AnyMemberScan::default();
            let mut q0 = 0u64;
            while q0 < 2 * sched.period() {
                let expect = members
                    .iter()
                    .filter_map(|u| sched.next_position(u.0, q0))
                    .min();
                // Drive the budgeted scan to a definitive answer, checking
                // each SilentBelow bound strictly advances.
                let got = loop {
                    let row = |q| sched.row(q);
                    match scan.next_hit(row, sched.period(), &members, q0, u64::MAX, budget) {
                        Scan::Hit(q) => break Some(q),
                        Scan::Never => break None,
                        Scan::SilentBelow(b) => assert!(b > q0, "stalled at q0={q0}"),
                    }
                };
                assert_eq!(got, expect, "budget={budget} q0={q0}");
                q0 += 1 + sched.period() / 7;
            }
        }
    }

    #[test]
    fn class_engine_matches_concrete() {
        let n = 64u32;
        for provider in [
            FamilyProvider::random_with_seed(11),
            FamilyProvider::KautzSingleton,
        ] {
            let p = SelectAmongFirst::new(n, 20, provider);
            // A participating batch at s plus silent latecomers.
            let pattern = WakePattern::new(vec![
                (StationId(2), 20),
                (StationId(9), 20),
                (StationId(33), 20),
                (StationId(60), 20),
                (StationId(5), 21),
                (StationId(48), 23),
            ])
            .unwrap();
            let cfg = SimConfig::new(n).with_max_slots(2_000).with_transcript();
            let concrete = Simulator::new(cfg.clone()).run(&p, &pattern, 0).unwrap();
            let classed = Simulator::new(cfg.with_classes())
                .run(&p, &pattern, 0)
                .unwrap();
            assert_eq!(concrete.first_success, classed.first_success);
            assert_eq!(concrete.winner, classed.winner);
            assert_eq!(concrete.transmissions, classed.transmissions);
            assert_eq!(concrete.per_station_tx, classed.per_station_tx);
            assert_eq!(concrete.transcript, classed.transcript);
            // 3 wake slots ⇒ at most 3 class units ever live.
            assert!(classed.peak_units <= 3);
        }
    }

    #[test]
    fn lean_class_block_matches_concrete() {
        // Without per-station detail the class tallies each slot as one
        // count per id run. A block of three runs waking at s collides
        // through the sparse families until one isolates a member; every
        // counter must match the concrete engine's.
        let n = 256u32;
        let ids: Vec<StationId> = (0..40)
            .chain(100..140)
            .chain(200..n)
            .map(StationId)
            .collect();
        let pattern = WakePattern::simultaneous(&ids, 9).unwrap();
        for provider in [
            FamilyProvider::random_with_seed(4),
            FamilyProvider::KautzSingleton,
        ] {
            let p = SelectAmongFirst::new(n, 9, provider);
            let cfg = SimConfig::new(n)
                .with_max_slots(50_000)
                .without_per_station_detail();
            let concrete = Simulator::new(cfg.clone()).run(&p, &pattern, 0).unwrap();
            let classed = Simulator::new(cfg.with_classes())
                .run(&p, &pattern, 0)
                .unwrap();
            assert!(concrete.solved());
            assert!(concrete.collisions > 0);
            assert_eq!(concrete.first_success, classed.first_success);
            assert_eq!(concrete.winner, classed.winner);
            assert_eq!(concrete.transmissions, classed.transmissions);
            assert_eq!(concrete.collisions, classed.collisions);
            assert_eq!(concrete.silent_slots, classed.silent_slots);
            assert_eq!(classed.peak_units, 1);
        }
    }
}
