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
//! repository's selective families: wait_and_go's schedule — the doubling
//! sequence `⟨F₁, …, F_top⟩` cycled on the global clock, entered at the
//! first family boundary after the wake — with **retirement**: a station
//! falls silent for good once it hears its own message echoed back
//! ([`Feedback::Heard`](mac_sim::Feedback) carrying its ID — every station
//! receives a successful transmission, including its sender). As stations
//! retire, the live contention `|X|` shrinks, and the family matching the
//! shrunken size keeps isolating fresh stations. Each full cycle pass
//! retires at least one station whenever `|X| ≥ 1` (some family brackets
//! `|X|`), so everyone is resolved within `O(k)` passes of length
//! `O(k log(n/k))` in the worst case — and empirically in a small constant
//! number of passes (EXP-KG regenerates the measured shape; the optimal KG
//! construction itself is existential, so it runs as a seeded sample, see
//! `selectors::random`).
//!
//! Run under [`StopRule::AllResolved`](mac_sim::engine::StopRule) — e.g.
//! `SimConfig::new(n).until_all_resolved()` — and read
//! [`Outcome::full_resolution_latency`](mac_sim::Outcome::full_resolution_latency).
//!
//! [`RetiringRoundRobin`] is the matching baseline: plain time division with
//! retirement, resolving everyone within `n` slots of the last wake-up.
//!
//! Both are the retiring form of the oblivious expression
//! (`crate::oblivious`): a station changes state only at its own success,
//! a slot in which it transmitted, so its hints stay unconditional.
//! `FullResolution` fills its own tiles in closed form; `RetiringRoundRobin`
//! takes one turn per `n` slots and leaves its tiles to the engine's
//! generic fill.

use crate::family_provider::FamilyProvider;
use crate::oblivious::{Gate, Oblivious};
use crate::select_among_first::DoublingSchedule;
use crate::wait_and_go::WaitAndGo;
use mac_sim::{ClassStation, Members, Protocol, Station, StationId};
use std::sync::Arc;

/// Selective-family conflict resolution with retirement on own success.
#[derive(Clone, Debug)]
pub struct FullResolution {
    n: u32,
    k: u32,
    expr: Arc<Oblivious>,
}

impl FullResolution {
    /// Build for `n` stations and contention bound `k` (the schedule runs
    /// families `F₁ … F_⌈log k⌉`, cycled).
    pub fn new(n: u32, k: u32, provider: FamilyProvider) -> Self {
        let top = WaitAndGo::top(n, k);
        Self::over(n, k, Arc::new(DoublingSchedule::new(&provider, n, top)))
    }

    /// Like [`new`](Self::new), but the resolution schedule comes out of
    /// `cache` — built once per `(n, k, provider)` per ensemble and shared
    /// across runs, **including** the per-station position indices that
    /// long resolutions lean on.
    pub fn cached(
        n: u32,
        k: u32,
        provider: &FamilyProvider,
        cache: &crate::cache::ConstructionCache,
    ) -> Self {
        Self::over(n, k, cache.schedule(provider, n, WaitAndGo::top(n, k)))
    }

    fn over(n: u32, k: u32, schedule: Arc<DoublingSchedule>) -> Self {
        FullResolution {
            n,
            k,
            expr: Oblivious::new(None, Some((schedule, Gate::NextBoundary)), true),
        }
    }

    /// The cyclic period of the underlying schedule.
    pub fn period(&self) -> u64 {
        self.expr.schedule().expect("the doubling track").period()
    }
}

impl Protocol for FullResolution {
    fn station(&self, id: StationId, _seed: u64) -> Box<dyn Station> {
        self.expr.station(id)
    }

    fn name(&self) -> String {
        format!("full-resolution(n={}, k={})", self.n, self.k)
    }
}

/// Baseline: round-robin with retirement — every awake station transmits in
/// its own turn exactly once (the time-division-multiplexing solution the
/// paper's introduction contrasts against). Its class covers a wake batch
/// as one unit whose members retire out of the RLE member set.
#[derive(Clone, Debug)]
pub struct RetiringRoundRobin {
    n: u32,
    expr: Arc<Oblivious>,
}

impl RetiringRoundRobin {
    /// Time division over `n` stations with retirement.
    pub fn new(n: u32) -> Self {
        assert!(n >= 1);
        RetiringRoundRobin {
            n,
            expr: Oblivious::new(Some(n), None, true),
        }
    }
}

impl Protocol for RetiringRoundRobin {
    fn station(&self, id: StationId, _seed: u64) -> Box<dyn Station> {
        self.expr.station(id)
    }

    fn class_station(&self, members: &Members) -> Option<Box<dyn ClassStation>> {
        Some(self.expr.class(members))
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
        // punches a hole in the RLE member set, and the outcomes must stay
        // bit-identical to the concrete engine.
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
