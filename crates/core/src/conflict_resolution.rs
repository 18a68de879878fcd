//! Full conflict resolution (Komlós & Greenberg \[25\]): **every** awake
//! station must transmit successfully, not just one.
//!
//! This is the problem of the paper's direct predecessor: "the typical
//! situation when a subset of `k` among `n` stations are awakened and have
//! messages, and all of them need to be sent (successfully) to the multiple
//! access channel as soon as possible", solved there in
//! `O(k + k·log(n/k))` by an existential non-adaptive schedule (stopped at
//! the first success, their algorithm *is* a wake-up algorithm — §1).
//!
//! [`FullResolution`] is the natural executable form built from this
//! repository's selective families: stations cycle the doubling schedule
//! `⟨F₁, …, F_top⟩` and **retire** once they hear their own message echoed
//! back ([`Feedback::Heard`] carrying their ID — every station receives a
//! successful transmission, including its sender). As stations retire, the
//! live contention `|X|` shrinks, and the family matching the shrunken size
//! keeps isolating fresh stations. Each full cycle pass retires at least one
//! station whenever `|X| ≥ 1` (some family brackets `|X|`), so everyone is
//! resolved within `O(k)` passes of length `O(k log(n/k))` in the worst
//! case — and empirically in a small constant number of passes (EXP-KG
//! regenerates the measured shape; the optimal KG construction itself is
//! existential, so it runs as a seeded sample, see `selectors::random`).
//!
//! Run under [`StopRule::AllResolved`](mac_sim::engine::StopRule) — e.g.
//! `SimConfig::new(n).until_all_resolved()` — and read
//! [`Outcome::full_resolution_latency`](mac_sim::Outcome::full_resolution_latency).
//!
//! [`RetiringRoundRobin`] is the matching baseline: plain time division with
//! retirement, resolving everyone within `n` slots of the last wake-up.

use crate::family_provider::FamilyProvider;
use crate::select_among_first::{DoublingSchedule, NextPositionCache};
use mac_sim::{
    Action, ClassStation, Feedback, MemberRemoval, Members, Protocol, Slot, Station, StationId,
    TxHint, TxTally, Until,
};
use selectors::math::{log_n, next_congruent};
use std::sync::Arc;

/// Selective-family conflict resolution with retirement on own success.
#[derive(Clone, Debug)]
pub struct FullResolution {
    n: u32,
    k: u32,
    schedule: Arc<DoublingSchedule>,
}

impl FullResolution {
    /// Build for `n` stations and contention bound `k` (the schedule runs
    /// families `F₁ … F_⌈log k⌉`, cycled).
    pub fn new(n: u32, k: u32, provider: FamilyProvider) -> Self {
        let top = Self::top(n, k);
        FullResolution {
            n,
            k,
            schedule: Arc::new(DoublingSchedule::new(&provider, n, top)),
        }
    }

    /// Like [`new`](Self::new), but the resolution schedule comes out of
    /// `cache` — built once per `(n, k, provider)` per ensemble and shared
    /// across runs, **including** the per-station position indices that the
    /// resolver's success re-queries lean on.
    pub fn cached(
        n: u32,
        k: u32,
        provider: &FamilyProvider,
        cache: &crate::cache::ConstructionCache,
    ) -> Self {
        let top = Self::top(n, k);
        FullResolution {
            n,
            k,
            schedule: cache.schedule(provider, n, top),
        }
    }

    fn top(n: u32, k: u32) -> u32 {
        assert!(n >= 1);
        assert!((1..=n).contains(&k), "k={k} outside 1..={n}");
        if k == 1 {
            0
        } else {
            log_n(u64::from(k))
        }
    }

    /// The cyclic period of the underlying schedule.
    pub fn period(&self) -> u64 {
        self.schedule.period()
    }
}

struct FullResolutionStation {
    id: StationId,
    done: bool,
    go_slot: Slot,
    schedule: Arc<DoublingSchedule>,
    /// Memoized schedule walk behind both `act` and the hint — the schedule
    /// part is oblivious, so a computed hit survives success re-queries.
    cache: NextPositionCache,
}

impl Station for FullResolutionStation {
    fn wake(&mut self, sigma: Slot) {
        // Same boundary wait as wait_and_go: keeps family participant sets
        // stable within each family execution.
        self.go_slot = self.schedule.next_boundary(sigma);
    }

    fn act(&mut self, t: Slot) -> Action {
        if self.done || t < self.go_slot {
            return Action::Listen;
        }
        Action::from_bool(self.cache.transmits_at(&self.schedule, self.id.0, t))
    }

    fn feedback(&mut self, _t: Slot, fb: Feedback) {
        if fb.is_own_success(self.id) {
            self.done = true; // message delivered: retire
        }
    }

    fn next_transmission(&mut self, after: Slot) -> TxHint {
        // Retirement is permanent; between successes the schedule walk is
        // oblivious, and only a success (our own) can change it — exactly
        // the `Until::NextSuccess` contract, which is what lets
        // Komlós–Greenberg runs skip their silent slots.
        if self.done {
            return TxHint::never();
        }
        let from = after.max(self.go_slot);
        match self.cache.query(&self.schedule, self.id.0, from) {
            Some(p) => TxHint::At(p, Until::NextSuccess),
            None => TxHint::Never(Until::NextSuccess),
        }
    }
}

impl Protocol for FullResolution {
    fn station(&self, id: StationId, _seed: u64) -> Box<dyn Station> {
        Box::new(FullResolutionStation {
            id,
            done: false,
            go_slot: 0,
            schedule: Arc::clone(&self.schedule),
            cache: NextPositionCache::default(),
        })
    }

    fn name(&self) -> String {
        format!("full-resolution(n={}, k={})", self.n, self.k)
    }
}

/// Baseline: round-robin with retirement — every awake station transmits in
/// its own turn exactly once (the time-division-multiplexing solution the
/// paper's introduction contrasts against).
#[derive(Clone, Copy, Debug)]
pub struct RetiringRoundRobin {
    n: u32,
}

impl RetiringRoundRobin {
    /// Time division over `n` stations with retirement.
    pub fn new(n: u32) -> Self {
        assert!(n >= 1);
        RetiringRoundRobin { n }
    }
}

struct RetiringRoundRobinStation {
    id: StationId,
    n: u32,
    done: bool,
}

impl Station for RetiringRoundRobinStation {
    fn wake(&mut self, _sigma: Slot) {}

    fn act(&mut self, t: Slot) -> Action {
        Action::from_bool(!self.done && t % u64::from(self.n) == u64::from(self.id.0))
    }

    fn feedback(&mut self, _t: Slot, fb: Feedback) {
        if fb.is_own_success(self.id) {
            self.done = true;
        }
    }

    fn next_transmission(&mut self, after: Slot) -> TxHint {
        if self.done {
            return TxHint::never();
        }
        TxHint::At(
            next_congruent(after, u64::from(self.id.0), u64::from(self.n)),
            Until::NextSuccess,
        )
    }
}

/// One equivalence class of retiring round-robin stations — the textbook
/// **lazy split**: all members share the oblivious `t ≡ u (mod n)` schedule
/// until one succeeds, at which point that member retires out of the RLE
/// member set ([`Members::remove`] — the degenerate split: the "resolved"
/// half needs no unit because retired stations are silent forever). State
/// stays O(runs) however many members resolve.
struct RetiringRoundRobinClass {
    members: Members,
    n: u32,
}

impl RetiringRoundRobinClass {
    /// Earliest slot `≥ after` owned by a live member.
    fn next_turn(&self, after: Slot) -> Option<Slot> {
        let first = self.members.first()?;
        let n = u64::from(self.n);
        let r = (after % n) as u32;
        Some(match self.members.next_at_or_after(r) {
            Some(x) if u64::from(x) < n => after + u64::from(x - r),
            _ => after + (n - u64::from(r)) + u64::from(first),
        })
    }
}

impl ClassStation for RetiringRoundRobinClass {
    fn weight(&self) -> u64 {
        self.members.count()
    }

    fn wake(&mut self, _sigma: Slot) {}

    fn act(&mut self, t: Slot, tally: &mut TxTally) {
        let owner = (t % u64::from(self.n)) as u32;
        if self.members.contains(owner) {
            tally.push(StationId(owner));
        }
    }

    fn feedback(&mut self, _t: Slot, fb: Feedback) -> Vec<Box<dyn ClassStation>> {
        if let Feedback::Heard(w) = fb {
            // Only the member that hears *its own* success retires.
            self.members.remove(w.0);
        }
        Vec::new()
    }

    fn next_transmission(&mut self, after: Slot) -> TxHint {
        match self.next_turn(after) {
            Some(slot) => TxHint::At(slot, Until::NextSuccess),
            None => TxHint::never(), // everyone resolved: silent forever
        }
    }

    fn remove_member(&mut self, id: StationId) -> MemberRemoval {
        // A churned member leaves the class exactly the way a retired one
        // does: out of the RLE set, silent forever.
        if self.members.remove(id.0) {
            MemberRemoval::Removed {
                emptied: self.members.is_empty(),
            }
        } else {
            MemberRemoval::NotMember
        }
    }
}

impl Protocol for RetiringRoundRobin {
    fn station(&self, id: StationId, _seed: u64) -> Box<dyn Station> {
        Box::new(RetiringRoundRobinStation {
            id,
            n: self.n,
            done: false,
        })
    }

    fn class_station(&self, members: &Members, _run_seed: u64) -> Option<Box<dyn ClassStation>> {
        Some(Box::new(RetiringRoundRobinClass {
            members: members.clone(),
            n: self.n,
        }))
    }

    fn name(&self) -> String {
        format!("retiring-round-robin(n={})", self.n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mac_sim::prelude::*;

    fn ids(v: &[u32]) -> Vec<StationId> {
        v.iter().copied().map(StationId).collect()
    }

    fn resolve_sim(n: u32) -> Simulator {
        Simulator::new(
            SimConfig::new(n)
                .with_max_slots(500_000)
                .until_all_resolved(),
        )
    }

    #[test]
    fn resolves_every_station_in_a_burst() {
        let n = 64u32;
        for k in [1u32, 2, 4, 8, 16] {
            let p = FullResolution::new(n, k, FamilyProvider::default());
            let chosen: Vec<StationId> = (0..k).map(|i| StationId(i * (n / k))).collect();
            let pattern = WakePattern::simultaneous(&chosen, 9).unwrap();
            let out = resolve_sim(n).run(&p, &pattern, 0).unwrap();
            assert_eq!(out.resolved.len(), k as usize, "k={k}");
            assert!(out.all_resolved_at.is_some(), "k={k}");
            // Every pattern station appears exactly once in `resolved`.
            for &(id, slot) in &out.resolved {
                assert!(chosen.contains(&id));
                assert!(slot >= 9);
            }
        }
    }

    #[test]
    fn resolution_order_has_no_duplicate_winners() {
        let n = 32u32;
        let p = FullResolution::new(n, 8, FamilyProvider::default());
        let chosen: Vec<StationId> = (0..8).map(|i| StationId(i * 4 + 1)).collect();
        let pattern = WakePattern::simultaneous(&chosen, 0).unwrap();
        let out = resolve_sim(n).run(&p, &pattern, 0).unwrap();
        let mut seen = std::collections::BTreeSet::new();
        for &(id, _) in &out.resolved {
            assert!(seen.insert(id), "station {id} resolved twice");
        }
    }

    #[test]
    fn retired_stations_stay_silent() {
        let n = 32u32;
        let p = FullResolution::new(n, 4, FamilyProvider::default());
        let chosen = ids(&[1, 9, 17, 25]);
        let pattern = WakePattern::simultaneous(&chosen, 0).unwrap();
        let cfg = SimConfig::new(n)
            .with_max_slots(500_000)
            .until_all_resolved()
            .with_transcript();
        let out = Simulator::new(cfg).run(&p, &pattern, 0).unwrap();
        let tr = out.transcript.unwrap();
        assert!(tr.check_invariants_multi_success().is_empty());
        // After a station's success slot, it never transmits again.
        for &(id, slot) in &out.resolved {
            for r in tr.records().iter().filter(|r| r.slot > slot) {
                assert!(
                    !r.transmitters.contains(&id),
                    "station {id} transmitted after resolving at {slot}"
                );
            }
        }
    }

    #[test]
    fn staggered_arrivals_all_resolve() {
        let n = 64u32;
        let p = FullResolution::new(n, 6, FamilyProvider::default());
        let chosen = ids(&[3, 13, 23, 33, 43, 53]);
        let pattern = WakePattern::staggered(&chosen, 5, 40).unwrap();
        let out = resolve_sim(n).run(&p, &pattern, 1).unwrap();
        assert_eq!(out.resolved.len(), 6);
        // Full resolution cannot finish before the last wake-up.
        assert!(out.all_resolved_at.unwrap() >= pattern.last_wake());
    }

    #[test]
    fn retiring_round_robin_resolves_within_n_of_last_wake() {
        let n = 48u32;
        let chosen = ids(&[0, 7, 20, 33, 47]);
        for s in [0u64, 11] {
            let pattern = WakePattern::simultaneous(&chosen, s).unwrap();
            let out = resolve_sim(n)
                .run(&RetiringRoundRobin::new(n), &pattern, 0)
                .unwrap();
            assert_eq!(out.resolved.len(), 5);
            assert!(
                out.all_resolved_at.unwrap() <= pattern.last_wake() + u64::from(n),
                "s={s}"
            );
            // Round-robin never collides.
            assert_eq!(out.collisions, 0);
        }
    }

    #[test]
    fn selective_resolution_beats_round_robin_for_small_k() {
        // k = 4 on n = 2048: retiring round-robin needs ~n slots; the
        // selective resolver should finish much sooner.
        let n = 2048u32;
        let chosen = ids(&[100, 700, 1300, 1900]);
        let pattern = WakePattern::simultaneous(&chosen, 0).unwrap();
        let sel = resolve_sim(n)
            .run(
                &FullResolution::new(n, 4, FamilyProvider::default()),
                &pattern,
                0,
            )
            .unwrap();
        let rr = resolve_sim(n)
            .run(&RetiringRoundRobin::new(n), &pattern, 0)
            .unwrap();
        let sel_t = sel.full_resolution_latency().unwrap();
        let rr_t = rr.full_resolution_latency().unwrap();
        assert!(
            sel_t < rr_t,
            "selective {sel_t} not faster than round-robin {rr_t}"
        );
    }

    #[test]
    fn retiring_class_engine_matches_concrete_with_mid_run_splits() {
        // A contiguous block of members retires one by one: every success
        // punches a hole in the RLE member set (the lazy split) and the
        // outcomes must stay bit-identical to the concrete engine.
        let n = 24u32;
        let proto = RetiringRoundRobin::new(n);
        for pattern in [
            WakePattern::range(4, 12, 2).unwrap(),
            WakePattern::staggered(&ids(&[3, 9, 10, 11, 21]), 0, 7).unwrap(),
        ] {
            let cfg = SimConfig::new(n)
                .with_max_slots(2_000)
                .until_all_resolved()
                .with_transcript();
            let concrete = Simulator::new(cfg.clone())
                .run(&proto, &pattern, 0)
                .unwrap();
            let classed = Simulator::new(cfg.with_classes())
                .run(&proto, &pattern, 0)
                .unwrap();
            assert_eq!(concrete.all_resolved_at, classed.all_resolved_at);
            assert_eq!(concrete.resolved, classed.resolved);
            assert_eq!(concrete.transmissions, classed.transmissions);
            assert_eq!(concrete.per_station_tx, classed.per_station_tx);
            assert_eq!(concrete.transcript, classed.transcript);
        }
    }

    #[test]
    fn first_success_mode_still_stops_early() {
        // The same protocol under the default stop rule behaves as a
        // wake-up algorithm (KG stopped at first success — §1).
        let n = 32u32;
        let p = FullResolution::new(n, 4, FamilyProvider::default());
        let pattern = WakePattern::simultaneous(&ids(&[2, 12, 22, 30]), 0).unwrap();
        let out = Simulator::new(SimConfig::new(n))
            .run(&p, &pattern, 0)
            .unwrap();
        assert!(out.solved());
        assert_eq!(out.resolved.len(), 1);
        assert!(out.all_resolved_at.is_none());
    }
}
