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
use crate::oblivious::{Gate, Oblivious};
use crate::select_among_first::{full_doubling_top, DoublingSchedule};
use mac_sim::{ClassStation, Members, Protocol, Slot, Station, StationId};
use std::sync::Arc;

/// The Scenario A algorithm: round-robin ⊕ select-among-the-first.
#[derive(Clone, Debug)]
pub struct WakeupWithS {
    n: u32,
    s: Slot,
    expr: Arc<Oblivious>,
}

impl WakeupWithS {
    /// Build for `n` stations with known first-wake-up slot `s`.
    pub fn new(n: u32, s: Slot, provider: FamilyProvider) -> Self {
        let top = full_doubling_top(n);
        Self::over(n, s, Arc::new(DoublingSchedule::new(&provider, n, top)))
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
        Self::over(n, s, cache.schedule(provider, n, full_doubling_top(n)))
    }

    fn over(n: u32, s: Slot, schedule: Arc<DoublingSchedule>) -> Self {
        WakeupWithS {
            n,
            s,
            expr: Oblivious::new(Some(n), Some((schedule, Gate::WokeAt(s))), false),
        }
    }

    /// The known starting slot.
    pub fn s(&self) -> Slot {
        self.s
    }
}

impl Protocol for WakeupWithS {
    fn station(&self, id: StationId, _seed: u64) -> Box<dyn Station> {
        self.expr.station(id)
    }

    fn class_station(&self, members: &Members) -> Option<Box<dyn ClassStation>> {
        Some(self.expr.class(members))
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
