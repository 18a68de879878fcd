//! Round-robin (time-division multiplexing), the baseline component.
//!
//! Station `u` transmits at global slot `t` iff `t ≡ u (mod n)`. There is
//! never more than one transmitter per slot, so the first slot whose owner is
//! awake solves wake-up. The paper (§3) observes:
//!
//! * for any set `X` of `k` stations waking **simultaneously**, at most
//!   `n − k` slots are wasted (their owners are in the complement of `X`),
//!   so round-robin completes within `n − k + 1` rounds — matching the
//!   Theorem 2.1 lower bound `min{k, n−k+1}` for `k > n/c`;
//! * under **staggered** wake-ups the guarantee is `n` rounds: within any
//!   window of `n` slots from `s`, the station awake at `s` gets its turn.
//!
//! Round-robin needs only the global clock and `n` — no `s`, no `k` — which
//! is why both Scenario A and Scenario B algorithms interleave with it to
//! stay optimal at large `k`.

use crate::oblivious::Oblivious;
use mac_sim::{ClassStation, Members, Protocol, Station, StationId};
use std::sync::Arc;

/// The round-robin protocol over `n` stations: the round-robin track of a
/// one-track oblivious expression, whose class covers any wake batch as a
/// single unit (at most the slot's owner transmits).
#[derive(Clone, Debug)]
pub struct RoundRobin {
    n: u32,
    expr: Arc<Oblivious>,
}

impl RoundRobin {
    /// Round-robin over `n ≥ 1` stations.
    pub fn new(n: u32) -> Self {
        assert!(n >= 1, "round-robin needs n ≥ 1");
        RoundRobin {
            n,
            expr: Oblivious::new(Some(n), None, false),
        }
    }

    /// The number of stations.
    pub fn n(&self) -> u32 {
        self.n
    }
}

impl Protocol for RoundRobin {
    fn station(&self, id: StationId, _seed: u64) -> Box<dyn Station> {
        self.expr.station(id)
    }

    fn class_station(&self, members: &Members) -> Option<Box<dyn ClassStation>> {
        Some(self.expr.class(members))
    }

    fn name(&self) -> String {
        format!("round-robin(n={})", self.n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mac_sim::prelude::*;

    fn ids(v: &[u32]) -> Vec<StationId> {
        v.iter().copied().map(StationId).collect()
    }

    #[test]
    fn never_collides() {
        let n = 16;
        let sim = Simulator::new(SimConfig::new(n).with_max_slots(64).with_transcript());
        // Wake everyone; round-robin still has ≤ 1 transmitter per slot.
        let all: Vec<StationId> = (0..n).map(StationId).collect();
        let pattern = WakePattern::simultaneous(&all, 0).unwrap();
        let out = sim.run(&RoundRobin::new(n), &pattern, 0).unwrap();
        assert!(out.solved());
        assert_eq!(out.collisions, 0);
    }

    #[test]
    fn simultaneous_start_bound_n_minus_k_plus_1() {
        // Worst simultaneous case: the k awake stations own the *last* k
        // turns of the cycle ⇒ exactly n − k silent slots then success.
        let (n, k) = (32u32, 4usize);
        let sim = Simulator::new(SimConfig::new(n).with_max_slots(100));
        let last_k: Vec<StationId> = (n - k as u32..n).map(StationId).collect();
        let pattern = WakePattern::simultaneous(&last_k, 0).unwrap();
        let out = sim.run(&RoundRobin::new(n), &pattern, 0).unwrap();
        assert_eq!(out.latency(), Some(u64::from(n) - k as u64));
        // ≤ n − k + 1 rounds counting the success slot itself:
        assert!(out.latency().unwrap() < u64::from(n) - k as u64 + 1);
    }

    #[test]
    fn dynamic_arrivals_bound_n() {
        // Under any wake pattern, success within n slots of s.
        let n = 24u32;
        let sim = Simulator::new(SimConfig::new(n).with_max_slots(u64::from(n) + 1));
        for gap in [1u64, 3, 10] {
            let pattern = WakePattern::staggered(&ids(&[5, 1, 20, 13]), 9, gap).unwrap();
            let out = sim.run(&RoundRobin::new(n), &pattern, 0).unwrap();
            assert!(out.solved(), "gap={gap}");
            assert!(out.latency().unwrap() < u64::from(n), "gap={gap}");
        }
    }

    #[test]
    fn winner_is_slot_owner() {
        let n = 8u32;
        let sim = Simulator::new(SimConfig::new(n).with_max_slots(20));
        let pattern = WakePattern::simultaneous(&ids(&[3, 6]), 0).unwrap();
        let out = sim.run(&RoundRobin::new(n), &pattern, 0).unwrap();
        assert_eq!(out.first_success, Some(3));
        assert_eq!(out.winner, Some(StationId(3)));
    }

    #[test]
    fn class_engine_matches_concrete() {
        let n = 32u32;
        let proto = RoundRobin::new(n);
        for s in [0u64, 5, 31] {
            let pattern = WakePattern::staggered(&ids(&[7, 30, 2, 19]), s, 3).unwrap();
            let cfg = SimConfig::new(n).with_max_slots(200).with_transcript();
            let concrete = Simulator::new(cfg.clone())
                .run(&proto, &pattern, 0)
                .unwrap();
            let classed = Simulator::new(cfg.with_classes())
                .run(&proto, &pattern, 0)
                .unwrap();
            assert_eq!(concrete.first_success, classed.first_success, "s={s}");
            assert_eq!(concrete.winner, classed.winner);
            assert_eq!(concrete.transmissions, classed.transmissions);
            assert_eq!(concrete.per_station_tx, classed.per_station_tx);
            assert_eq!(concrete.transcript, classed.transcript);
            // 4 stations in 3 batches-with-distinct-slots ⇒ ≤ 4 units, and
            // aggregation keeps it below the station count when batched.
            assert!(classed.peak_units <= 4);
        }
        // One mega batch: the whole floor is a single unit.
        let pattern = WakePattern::range(0, n, 3).unwrap();
        let cfg = SimConfig::new(n).with_max_slots(64).with_classes();
        let out = Simulator::new(cfg).run(&proto, &pattern, 0).unwrap();
        assert_eq!(out.peak_units, 1);
        assert!(out.solved());
    }

    #[test]
    fn k_equals_one_latency_below_n() {
        let n = 10u32;
        let sim = Simulator::new(SimConfig::new(n).with_max_slots(30));
        for s in [0u64, 1, 7, 23] {
            for id in [0u32, 4, 9] {
                let pattern = WakePattern::simultaneous(&ids(&[id]), s).unwrap();
                let out = sim.run(&RoundRobin::new(n), &pattern, 0).unwrap();
                let expected = (u64::from(id) + u64::from(n) - s % u64::from(n)) % u64::from(n);
                assert_eq!(out.latency(), Some(expected), "s={s} id={id}");
            }
        }
    }
}
