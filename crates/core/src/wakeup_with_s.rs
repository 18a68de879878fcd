//! `wakeup_with_s` — the complete Scenario A algorithm (§3):
//! interleave round-robin with `select_among_the_first`.
//!
//! With a global clock, interleaving is parity-based: **even** global slots
//! run round-robin (position `t/2`), **odd** global slots run
//! `select_among_the_first` (position = number of odd slots since `s`).
//! Interleaving needs no knowledge of `k` and costs a factor 2.
//!
//! The resulting worst-case time is the minimum of the two components:
//! `Θ(min{n − k + 1, k log(n/k) + k}) = Θ(k log(n/k) + 1)`, which is optimal
//! (Theorem 2.1 for `k > n/c`; Clementi–Monti–Silvestri for `k ≤ n/64`).

use crate::family_provider::FamilyProvider;
use crate::select_among_first::{
    AnyMemberScan, DoublingSchedule, NextPositionCache, Scan, CLASS_SCAN_BUDGET,
};
use mac_sim::{
    Action, ClassStation, MemberRemoval, Members, Protocol, Slot, Station, StationId, TxHint,
    TxTally, TxWord, Until,
};
use selectors::math::next_congruent;
use std::sync::Arc;

/// The Scenario A algorithm: round-robin ⊕ select-among-the-first.
#[derive(Clone, Debug)]
pub struct WakeupWithS {
    n: u32,
    s: Slot,
    schedule: Arc<DoublingSchedule>,
}

impl WakeupWithS {
    /// Build for `n` stations with known first-wake-up slot `s`.
    pub fn new(n: u32, s: Slot, provider: FamilyProvider) -> Self {
        let top = crate::select_among_first::full_doubling_top(n);
        WakeupWithS {
            n,
            s,
            schedule: Arc::new(DoublingSchedule::new(&provider, n, top)),
        }
    }

    /// Like [`new`](Self::new), but the select-among-the-first schedule
    /// comes out of `cache` — built once per `(n, provider)` per ensemble
    /// and shared across runs.
    pub fn cached(
        n: u32,
        s: Slot,
        provider: &FamilyProvider,
        cache: &crate::cache::ConstructionCache,
    ) -> Self {
        let top = crate::select_among_first::full_doubling_top(n);
        WakeupWithS {
            n,
            s,
            schedule: cache.schedule(provider, n, top),
        }
    }

    /// The known starting slot.
    pub fn s(&self) -> Slot {
        self.s
    }
}

struct WwsStation {
    id: StationId,
    n: u32,
    s: Slot,
    participates_saf: bool,
    schedule: Arc<DoublingSchedule>,
    /// Memoized SAF walk behind both `act` and the hint (see
    /// [`NextPositionCache`]).
    saf_cache: NextPositionCache,
}

impl WwsStation {
    /// Number of odd global slots in `[s, t]` minus one — the SAF schedule
    /// position of odd slot `t ≥ s`. All participants woke at `s`, so they
    /// agree on this position.
    fn saf_position(&self, t: Slot) -> u64 {
        debug_assert!(t % 2 == 1 && t >= self.s);
        let first_odd = self.s + (self.s + 1) % 2; // s if odd, s+1 if even
        debug_assert!(first_odd % 2 == 1);
        (t - first_odd) / 2
    }
}

impl Station for WwsStation {
    fn wake(&mut self, sigma: Slot) {
        self.participates_saf = sigma == self.s;
    }

    fn act(&mut self, t: Slot) -> Action {
        if t.is_multiple_of(2) {
            // Even slots: round-robin on position t/2.
            Action::from_bool((t / 2) % u64::from(self.n) == u64::from(self.id.0))
        } else if self.participates_saf && t >= self.s {
            let q = self.saf_position(t);
            Action::from_bool(self.saf_cache.transmits_at(&self.schedule, self.id.0, q))
        } else {
            Action::Listen
        }
    }

    fn next_transmission(&mut self, after: Slot) -> TxHint {
        // Round-robin component: the smallest even slot 2p ≥ after with
        // p ≡ id (mod n), computed in O(1).
        let rr_slot =
            2 * next_congruent(after.div_ceil(2), u64::from(self.id.0), u64::from(self.n));

        // Select-among-the-first component: odd slots, schedule positions
        // counted in odd slots since s.
        let saf_slot = if self.participates_saf {
            let first_odd = self.s + (self.s + 1) % 2;
            let t0 = after.max(first_odd);
            let q0 = (t0 - first_odd).div_ceil(2);
            self.saf_cache
                .query(&self.schedule, self.id.0, q0)
                .map(|q| first_odd + 2 * q)
        } else {
            None
        };

        match saf_slot {
            Some(saf) => TxHint::at(rr_slot.min(saf)),
            None => TxHint::at(rr_slot),
        }
    }

    fn fill_tx_word(&mut self, base: Slot, width: u32) -> Option<TxWord> {
        // Both components are oblivious (participation fixed at wake), so
        // the interleaved tile is an unconditional fact: round-robin parity
        // arithmetic on even slots, one bounded walk over the odd slots'
        // SAF positions — kept off the memo (a refill after an early
        // success starts inside this tile).
        let n = u64::from(self.n);
        let id = u64::from(self.id.0);
        let end = base + u64::from(width);
        let mut bits = 0u64;
        for t in (base.next_multiple_of(2)..end).step_by(2) {
            if (t / 2) % n == id {
                bits |= 1u64 << (t - base);
            }
        }
        if self.participates_saf {
            let first_odd = self.s + (self.s + 1) % 2;
            // SAF positions of the odd slots in [max(base, first_odd), end).
            let q0 = (base.max(first_odd) - first_odd).div_ceil(2);
            let q_end = end.saturating_sub(first_odd).div_ceil(2);
            for q in self.schedule.positions_in(self.id.0, q0, q_end) {
                bits |= 1u64 << (first_odd + 2 * q - base);
            }
        }
        Some(TxWord::forever(bits))
    }
}

/// One equivalence class of `wakeup_with_s` stations. A wake batch shares
/// `σ`, hence SAF participation; even slots stay O(log runs) (at most the
/// slot's round-robin owner transmits), odd slots are one
/// [`TxTally::record_members`] sweep. Hints take the minimum of the
/// round-robin bound (closed form over the member set) and a budgeted
/// [`AnyMemberScan`] over the SAF schedule, whose window is capped at the
/// round-robin bound — a proven-silent window already yields an exact
/// `At(rr_slot)` answer, and a budget stop yields a `Never(Until::Slot(…))`
/// re-query point strictly past `after`.
struct WwsClass {
    members: Members,
    n: u32,
    s: Slot,
    participates_saf: bool,
    schedule: Arc<DoublingSchedule>,
    scan: AnyMemberScan,
}

impl WwsClass {
    /// First odd global slot `≥ s` — SAF position 0.
    fn first_odd(&self) -> Slot {
        self.s + (self.s + 1) % 2
    }

    /// Smallest even slot `2p ≥ after` whose round-robin owner `p mod n` is
    /// a member — the class counterpart of the station's `next_congruent`.
    fn rr_slot(&self, after: Slot) -> Slot {
        let n = u64::from(self.n);
        let p0 = after.div_ceil(2);
        let r = (p0 % n) as u32;
        let p = match self.members.next_at_or_after(r) {
            Some(x) if u64::from(x) < n => p0 + u64::from(x - r),
            _ => {
                let m0 = self.members.first().expect("class has members");
                p0 + (n - u64::from(r)) + u64::from(m0)
            }
        };
        2 * p
    }
}

impl ClassStation for WwsClass {
    fn weight(&self) -> u64 {
        self.members.count()
    }

    fn wake(&mut self, sigma: Slot) {
        self.participates_saf = sigma == self.s;
    }

    fn act(&mut self, t: Slot, tally: &mut TxTally) {
        if t.is_multiple_of(2) {
            let owner = ((t / 2) % u64::from(self.n)) as u32;
            if self.members.contains(owner) {
                tally.push(StationId(owner));
            }
        } else if self.participates_saf && t >= self.s {
            let p = (t - self.first_odd()) / 2;
            tally.record_members(&self.members, self.schedule.row(p));
        }
    }

    fn next_transmission(&mut self, after: Slot) -> TxHint {
        let rr_slot = self.rr_slot(after);
        if !self.participates_saf {
            return TxHint::at(rr_slot);
        }
        let first_odd = self.first_odd();
        let q0 = (after.max(first_odd) - first_odd).div_ceil(2);
        // Odd slots below rr_slot are the only SAF positions that can beat
        // the round-robin turn; a window proven silent means rr_slot is it.
        let q_lim = (rr_slot.saturating_sub(first_odd)).div_ceil(2);
        match self
            .scan
            .next_hit(&self.schedule, &self.members, q0, q_lim, CLASS_SCAN_BUDGET)
        {
            Scan::Hit(q) => TxHint::at(first_odd + 2 * q),
            Scan::Never => TxHint::at(rr_slot),
            Scan::SilentBelow(b) if b >= q_lim => TxHint::at(rr_slot),
            // Budget stop inside the window: silence holds strictly past
            // `after` (b > q0 ⇒ first_odd + 2b ≥ after + 2), and the bound
            // stays below rr_slot, so the round-robin turn is not skipped.
            Scan::SilentBelow(b) => TxHint::Never(Until::Slot(first_odd + 2 * b)),
        }
    }

    fn remove_member(&mut self, id: StationId) -> MemberRemoval {
        // Both sub-schedules are per-member, so removal only shrinks the
        // set. The scan memo may describe the departed member's hits, so
        // restart it — at worst a re-proved window, never a missed turn.
        if self.members.remove(id.0) {
            self.scan = AnyMemberScan::default();
            MemberRemoval::Removed {
                emptied: self.members.is_empty(),
            }
        } else {
            MemberRemoval::NotMember
        }
    }
}

impl Protocol for WakeupWithS {
    fn station(&self, id: StationId, _seed: u64) -> Box<dyn Station> {
        Box::new(WwsStation {
            id,
            n: self.n,
            s: self.s,
            participates_saf: false,
            schedule: Arc::clone(&self.schedule),
            saf_cache: NextPositionCache::default(),
        })
    }

    fn class_station(&self, members: &Members, _run_seed: u64) -> Option<Box<dyn ClassStation>> {
        Some(Box::new(WwsClass {
            members: members.clone(),
            n: self.n,
            s: self.s,
            participates_saf: false,
            schedule: Arc::clone(&self.schedule),
            scan: AnyMemberScan::default(),
        }))
    }

    fn name(&self) -> String {
        format!("wakeup-with-s(n={}, s={})", self.n, self.s)
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
    fn solves_for_all_k_regimes() {
        let n = 64u32;
        for k in [1u32, 2, 4, 8, 16, 32, 64] {
            let p = WakeupWithS::new(n, 0, FamilyProvider::default());
            let chosen: Vec<StationId> = (0..k).map(StationId).collect();
            let pattern = WakePattern::simultaneous(&chosen, 0).unwrap();
            let out = sim(n).run(&p, &pattern, 0).unwrap();
            assert!(out.solved(), "k={k}");
        }
    }

    #[test]
    fn solves_with_late_arrivals_via_round_robin() {
        // Adversary wakes one station at s, the rest later: SAF only has the
        // first station (succeeds quickly), but even if SAF were broken,
        // round-robin on even slots guarantees completion within 2n.
        let n = 32u32;
        let p = WakeupWithS::new(n, 7, FamilyProvider::default());
        let pattern = WakePattern::staggered(&ids(&[30, 1, 16]), 7, 5).unwrap();
        let out = sim(n).run(&p, &pattern, 0).unwrap();
        assert!(out.solved());
        assert!(out.latency().unwrap() <= 2 * u64::from(n));
    }

    #[test]
    fn odd_s_even_s_alignment() {
        // The SAF position computation must agree for odd and even s.
        let n = 16u32;
        for s in [0u64, 1, 2, 3, 10, 11] {
            let p = WakeupWithS::new(n, s, FamilyProvider::default());
            let pattern = WakePattern::simultaneous(&ids(&[3, 9, 14]), s).unwrap();
            let out = sim(n).run(&p, &pattern, 0).unwrap();
            assert!(out.solved(), "s={s}");
        }
    }

    #[test]
    fn worst_case_latency_bounded_by_2n() {
        // Round-robin component: within 2n slots every station owns an even
        // slot, so any pattern solves by then.
        let n = 24u32;
        let p = WakeupWithS::new(n, 0, FamilyProvider::default());
        for seed in 0..5u64 {
            let mut rng = <rand_chacha::ChaCha8Rng as rand::SeedableRng>::seed_from_u64(seed);
            let chosen = IdChoice::Random.pick(n, 6, &mut rng);
            let pattern = WakePattern::uniform_window(&chosen, 0, 40, &mut rng).unwrap();
            let out = sim(n).run(&p, &pattern, seed).unwrap();
            assert!(out.solved());
            assert!(
                out.latency().unwrap() <= 2 * u64::from(n),
                "latency {} > 2n",
                out.latency().unwrap()
            );
        }
    }

    #[test]
    fn small_k_beats_round_robin_alone() {
        // For k = 2 on a large n, wakeup_with_s should finish much faster
        // than n/2 slots (where round-robin alone would average).
        let n = 1024u32;
        let p = WakeupWithS::new(n, 0, FamilyProvider::default());
        let pattern = WakePattern::simultaneous(&ids(&[100, 900]), 0).unwrap();
        let out = sim(n).run(&p, &pattern, 0).unwrap();
        let lat = out.latency().unwrap();
        assert!(lat < u64::from(n) / 2, "latency {lat} not sublinear");
    }

    #[test]
    fn class_engine_matches_concrete() {
        // Class aggregation must be invisible in the outcome: both parities
        // of s, participant batches and latecomers, transcript included.
        let n = 64u32;
        for s in [0u64, 7, 20] {
            let p = WakeupWithS::new(n, s, FamilyProvider::random_with_seed(3));
            let mut wakes = vec![
                (StationId(2), s),
                (StationId(9), s),
                (StationId(33), s),
                (StationId(60), s),
            ];
            wakes.push((StationId(5), s + 3));
            wakes.push((StationId(48), s + 9));
            let pattern = WakePattern::new(wakes).unwrap();
            let cfg = SimConfig::new(n).with_max_slots(2_000).with_transcript();
            let concrete = Simulator::new(cfg.clone()).run(&p, &pattern, 0).unwrap();
            let classed = Simulator::new(cfg.with_classes())
                .run(&p, &pattern, 0)
                .unwrap();
            assert_eq!(concrete.first_success, classed.first_success, "s={s}");
            assert_eq!(concrete.winner, classed.winner, "s={s}");
            assert_eq!(concrete.transmissions, classed.transmissions, "s={s}");
            assert_eq!(concrete.per_station_tx, classed.per_station_tx, "s={s}");
            assert_eq!(concrete.transcript, classed.transcript, "s={s}");
            assert!(classed.peak_units <= 3, "s={s}");
        }
    }

    #[test]
    fn class_block_wake_floor_is_one_unit() {
        // A contiguous simultaneous floor — the mega-sweep shape — is a
        // single class unit regardless of k. At even s the round-robin owner
        // of slot s wins alone; at odd s the first slot is selective, so the
        // whole class is swept against one family row (a collision) before
        // round-robin wins at s + 1. Both tally regimes: IDs collected for
        // the transcript, and counted per id run without per-station detail.
        let n = 256u32;
        for s in [4u64, 5] {
            let p = WakeupWithS::new(n, s, FamilyProvider::random_with_seed(3));
            let pattern = WakePattern::range(0, n, s).unwrap();
            let base = SimConfig::new(n).with_max_slots(4_000);
            for cfg in [
                base.clone().with_transcript(),
                base.without_per_station_detail(),
            ] {
                let concrete = Simulator::new(cfg.clone()).run(&p, &pattern, 0).unwrap();
                let classed = Simulator::new(cfg.with_classes())
                    .run(&p, &pattern, 0)
                    .unwrap();
                assert_eq!(concrete.first_success, classed.first_success, "s={s}");
                assert_eq!(concrete.winner, classed.winner, "s={s}");
                assert_eq!(concrete.transmissions, classed.transmissions, "s={s}");
                assert_eq!(concrete.collisions, classed.collisions, "s={s}");
                assert_eq!(concrete.transcript, classed.transcript, "s={s}");
                assert_eq!(classed.peak_units, 1, "s={s}");
                if s % 2 == 1 {
                    assert_eq!(classed.first_success, Some(s + 1), "s={s}");
                    assert_eq!(classed.collisions, 1, "slot {s} must collide");
                    assert!(classed.transmissions > 2, "s={s}");
                }
            }
        }
    }

    #[test]
    fn no_transmissions_before_s() {
        // Stations only act once awake; latency is measured from s.
        let n = 16u32;
        let p = WakeupWithS::new(n, 100, FamilyProvider::default());
        let pattern = WakePattern::simultaneous(&ids(&[5]), 100).unwrap();
        let cfg = SimConfig::new(n).with_transcript();
        let out = Simulator::new(cfg).run(&p, &pattern, 0).unwrap();
        let tr = out.transcript.as_ref().unwrap();
        assert!(tr.records().first().unwrap().slot >= 100);
        assert!(out.solved());
    }
}
