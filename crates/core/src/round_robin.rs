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

use mac_sim::{
    Action, ClassStation, MemberRemoval, Members, Protocol, Slot, Station, StationId, TxHint,
    TxTally, TxWord,
};

/// The round-robin protocol over `n` stations.
#[derive(Clone, Copy, Debug)]
pub struct RoundRobin {
    n: u32,
}

impl RoundRobin {
    /// Round-robin over `n ≥ 1` stations.
    pub fn new(n: u32) -> Self {
        assert!(n >= 1, "round-robin needs n ≥ 1");
        RoundRobin { n }
    }

    /// The number of stations.
    pub fn n(&self) -> u32 {
        self.n
    }
}

struct RoundRobinStation {
    id: StationId,
    n: u32,
}

impl Station for RoundRobinStation {
    fn wake(&mut self, _sigma: Slot) {}

    fn act(&mut self, t: Slot) -> Action {
        Action::from_bool(t % u64::from(self.n) == u64::from(self.id.0))
    }

    fn next_transmission(&mut self, after: Slot) -> TxHint {
        // The next slot ≡ id (mod n), in O(1): the schedule is oblivious,
        // so the engine can jump straight to this station's turn.
        TxHint::at(selectors::math::next_congruent(
            after,
            u64::from(self.id.0),
            u64::from(self.n),
        ))
    }

    fn fill_tx_word(&mut self, base: Slot, width: u32) -> Option<TxWord> {
        // The whole tile in closed form: bit j set iff base + j ≡ id (mod n).
        let n = u64::from(self.n);
        let mut bits = 0u64;
        let mut j = (u64::from(self.id.0) + n - base % n) % n;
        while j < u64::from(width) {
            bits |= 1u64 << j;
            j += n;
        }
        Some(TxWord::forever(bits))
    }
}

/// The round-robin bits of tile `[base, end)` for station `id` of a
/// protocol that interleaves round-robin on its even slots (slot `2p` is
/// position `p`, owned by station `p mod n`), as `fill_tx_word` plans them.
pub(crate) fn even_slot_bits(id: StationId, n: u32, base: Slot, end: Slot) -> u64 {
    let (n, id) = (u64::from(n), u64::from(id.0));
    let mut bits = 0u64;
    for t in (base.next_multiple_of(2)..end).step_by(2) {
        if (t / 2) % n == id {
            bits |= 1u64 << (t - base);
        }
    }
    bits
}

/// One equivalence class of round-robin stations: the schedule is fully
/// determined by `(t mod n)`, so a whole wake batch — any member set — is a
/// single unit. At most one member (the slot's owner) ever transmits, and
/// the class's next transmission is the earliest slot whose owner is a
/// member: O(log runs) via the RLE member set, O(1) state per class.
struct RoundRobinClass {
    members: Members,
    n: u32,
}

impl ClassStation for RoundRobinClass {
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

    fn next_transmission(&mut self, after: Slot) -> TxHint {
        let n = u64::from(self.n);
        let r = (after % n) as u32;
        // First member turn in the rest of this cycle, else wrap to the
        // smallest member's turn in the next cycle.
        let slot = match self.members.next_at_or_after(r) {
            Some(x) if u64::from(x) < n => after + u64::from(x - r),
            _ => {
                let m0 = self.members.first().expect("class has members");
                after + (n - u64::from(r)) + u64::from(m0)
            }
        };
        TxHint::at(slot)
    }

    fn remove_member(&mut self, id: StationId) -> MemberRemoval {
        // The schedule is oblivious, so dropping a member just shrinks the
        // RLE set; the remaining members' turns are unchanged.
        if self.members.remove(id.0) {
            MemberRemoval::Removed {
                emptied: self.members.is_empty(),
            }
        } else {
            MemberRemoval::NotMember
        }
    }
}

impl Protocol for RoundRobin {
    fn station(&self, id: StationId, _seed: u64) -> Box<dyn Station> {
        Box::new(RoundRobinStation { id, n: self.n })
    }

    fn class_station(&self, members: &Members, _run_seed: u64) -> Option<Box<dyn ClassStation>> {
        Some(Box::new(RoundRobinClass {
            members: members.clone(),
            n: self.n,
        }))
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
