//! `wakeup_with_k` — the complete Scenario B algorithm (§4):
//! interleave round-robin with `wait_and_go`.
//!
//! **Even** global slots run round-robin (position `t/2`); **odd** global
//! slots run `wait_and_go` (position `(t-1)/2`, a global anchor — all
//! stations agree on it because the clock is global). The wait-until-boundary
//! rule of `wait_and_go` is applied in position space.
//!
//! Worst-case time `Θ(min{n − k + 1, k + k log(n/k)}) = Θ(k log(n/k) + 1)`,
//! optimal by the same pair of lower bounds as Scenario A.
//!
//! **Promise violations.** If more than `k` stations wake (breaking Scenario
//! B's promise), `wait_and_go`'s selectivity guarantee evaporates, but the
//! interleaved round-robin still guarantees completion within `2n` slots —
//! the algorithm degrades instead of failing (pinned by a test below).

use crate::family_provider::FamilyProvider;
use crate::oblivious::{Gate, Oblivious};
use crate::wait_and_go::WaitAndGo;
use mac_sim::{ClassStation, Members, Protocol, Station, StationId};
use std::sync::Arc;

/// The Scenario B algorithm: round-robin ⊕ wait-and-go.
#[derive(Clone, Debug)]
pub struct WakeupWithK {
    n: u32,
    k: u32,
    period: u64,
    expr: Arc<Oblivious>,
}

impl WakeupWithK {
    /// Build for `n` stations with known contention bound `k`.
    pub fn new(n: u32, k: u32, provider: FamilyProvider) -> Self {
        Self::interleaving(n, &WaitAndGo::new(n, k, provider))
    }

    /// Like [`new`](Self::new), but the wait-and-go schedule comes out of
    /// `cache` — built once per `(n, k, provider)` per ensemble and shared
    /// across runs.
    pub fn cached(
        n: u32,
        k: u32,
        provider: &FamilyProvider,
        cache: &crate::cache::ConstructionCache,
    ) -> Self {
        Self::interleaving(n, &WaitAndGo::cached(n, k, provider, cache))
    }

    /// Round-robin over `n` on even slots, `wag`'s gated schedule on odd
    /// slots.
    fn interleaving(n: u32, wag: &WaitAndGo) -> Self {
        WakeupWithK {
            n,
            k: wag.k(),
            period: wag.period(),
            expr: Oblivious::new(
                Some(n),
                Some((Arc::clone(wag.schedule()), Gate::NextBoundary)),
                false,
            ),
        }
    }

    /// The contention bound `k`.
    pub fn k(&self) -> u32 {
        self.k
    }

    /// The cyclic period `z` of the wait-and-go component (in positions).
    pub fn period(&self) -> u64 {
        self.period
    }
}

impl Protocol for WakeupWithK {
    fn station(&self, id: StationId, _seed: u64) -> Box<dyn Station> {
        self.expr.station(id)
    }

    fn class_station(&self, members: &Members) -> Option<Box<dyn ClassStation>> {
        Some(self.expr.class(members))
    }

    fn name(&self) -> String {
        format!("wakeup-with-k(n={}, k={})", self.n, self.k)
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
    fn solves_all_k_with_simultaneous_start() {
        let n = 64u32;
        for k in [1u32, 2, 4, 8, 32, 64] {
            let p = WakeupWithK::new(n, k, FamilyProvider::default());
            let chosen: Vec<StationId> = (0..k).map(StationId).collect();
            let pattern = WakePattern::simultaneous(&chosen, 0).unwrap();
            let out = sim(n).run(&p, &pattern, 0).unwrap();
            assert!(out.solved(), "k={k}");
            assert!(out.latency().unwrap() <= 2 * u64::from(n), "k={k}");
        }
    }

    #[test]
    fn solves_adversarial_staggering() {
        let n = 128u32;
        let k = 8u32;
        let p = WakeupWithK::new(n, k, FamilyProvider::default());
        for gap in [1u64, 13, 50, 500] {
            let chosen: Vec<StationId> = (0..k).map(|i| StationId(i * 16 + 3)).collect();
            let pattern = WakePattern::staggered(&chosen, 11, gap).unwrap();
            let out = sim(n).run(&p, &pattern, 0).unwrap();
            assert!(out.solved(), "gap={gap}");
        }
    }

    #[test]
    fn promise_violation_degrades_to_round_robin_bound() {
        // Wake 4k stations: wait_and_go's guarantee is void, but the
        // interleaved round-robin must still finish within 2n slots.
        let n = 64u32;
        let p = WakeupWithK::new(n, 4, FamilyProvider::default());
        let chosen: Vec<StationId> = (0..16).map(|i| StationId(i * 4)).collect();
        let pattern = WakePattern::simultaneous(&chosen, 0).unwrap();
        let out = sim(n).run(&p, &pattern, 0).unwrap();
        assert!(out.solved());
        assert!(out.latency().unwrap() < 2 * u64::from(n));
    }

    #[test]
    fn latency_scales_with_k_not_n_for_small_k() {
        let n = 2048u32;
        let p = WakeupWithK::new(n, 2, FamilyProvider::default());
        let pattern = WakePattern::simultaneous(&ids(&[5, 1900]), 0).unwrap();
        let out = sim(n).run(&p, &pattern, 0).unwrap();
        let lat = out.latency().unwrap();
        assert!(lat < u64::from(n) / 4, "latency {lat} should be ≪ n");
    }

    #[test]
    fn no_collision_between_components() {
        // Round-robin owns even slots, wait-and-go odd slots: a transcript
        // slot can only mix transmitters from one component.
        let n = 32u32;
        let p = WakeupWithK::new(n, 4, FamilyProvider::default());
        let pattern = WakePattern::staggered(&ids(&[1, 9, 17, 25]), 0, 3).unwrap();
        let cfg = SimConfig::new(n).with_transcript();
        let out = Simulator::new(cfg).run(&p, &pattern, 0).unwrap();
        let tr = out.transcript.unwrap();
        assert!(tr.check_invariants().is_empty());
        for r in tr.records() {
            if r.slot % 2 == 0 {
                // Round-robin slot: at most one transmitter by construction.
                assert!(r.transmitters.len() <= 1, "collision on RR slot {}", r.slot);
            }
        }
    }

    #[test]
    fn works_for_k_equals_n() {
        let n = 16u32;
        let p = WakeupWithK::new(n, n, FamilyProvider::default());
        let all: Vec<StationId> = (0..n).map(StationId).collect();
        let pattern = WakePattern::simultaneous(&all, 0).unwrap();
        let out = sim(n).run(&p, &pattern, 0).unwrap();
        assert!(out.solved());
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn rejects_k_larger_than_n() {
        WakeupWithK::new(8, 9, FamilyProvider::default());
    }
}
