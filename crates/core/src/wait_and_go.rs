//! `wait_and_go` — the Scenario B component (§4).
//!
//! The schedule is the fixed cyclic sequence
//! `F = ⟨F₁, F₂, …, F_{⌈log k⌉}⟩` of `(n, 2^i)`-selective families, of total
//! length `z`, indexed by the **global** clock: round `t` corresponds to
//! transmission set `F_{t mod z}`.
//!
//! The crucial rule that gives the algorithm its name: a station activated at
//! round `j` **waits** until the smallest `σ ≥ j` such that `F_{σ mod z}` is
//! the *first* transmission set of one of the selective families, and only
//! from `σ` on transmits according to `F_{t mod z}`.
//!
//! *Correctness* (§4): waiting until a family boundary guarantees that the
//! set of stations participating in any one family's execution does not
//! change during that execution. The participant sets `X₁ ⊆ X₂ ⊆ …` grow
//! with the family index; since `|Xᵢ| ≤ k`, some family `Fᵢ` with
//! `2^{i-1} ≤ |Xᵢ| ≤ 2^i` exists (possibly on a later cyclic pass), and its
//! selectivity yields a success.
//!
//! Time: one full pass costs `z = O(k + k·log(n/k))`, and waiting costs at
//! most another pass ⇒ `O(k log(n/k) + k)` from `s`.

use crate::family_provider::FamilyProvider;
use crate::oblivious::{Gate, Oblivious};
use crate::select_among_first::DoublingSchedule;
use mac_sim::{ClassStation, Members, Protocol, Station, StationId};
use selectors::math::log_n;
use std::sync::Arc;

/// The `wait_and_go` protocol (Scenario B component): the doubling schedule
/// alone, behind the next-boundary gate.
#[derive(Clone, Debug)]
pub struct WaitAndGo {
    n: u32,
    k: u32,
    expr: Arc<Oblivious>,
}

impl WaitAndGo {
    /// Build for `n` stations with known contention bound `k`.
    ///
    /// For `k = 1` the schedule degenerates to the trivial `(n,1)`-selective
    /// family (the full set): the single awake station transmits immediately.
    pub fn new(n: u32, k: u32, provider: FamilyProvider) -> Self {
        let top = Self::top(n, k);
        Self::over(n, k, Arc::new(DoublingSchedule::new(&provider, n, top)))
    }

    /// Like [`new`](Self::new), but the doubling schedule (families,
    /// offsets, per-station position indices) comes out of `cache` — built
    /// once per `(n, k, provider)` per ensemble and shared across runs.
    pub fn cached(
        n: u32,
        k: u32,
        provider: &FamilyProvider,
        cache: &crate::cache::ConstructionCache,
    ) -> Self {
        let top = Self::top(n, k);
        Self::over(n, k, cache.schedule(provider, n, top))
    }

    fn over(n: u32, k: u32, schedule: Arc<DoublingSchedule>) -> Self {
        WaitAndGo {
            n,
            k,
            expr: Oblivious::new(None, Some((schedule, Gate::NextBoundary)), false),
        }
    }

    /// The family-sequence height `⌈log k⌉` (0 for `k = 1`); validates
    /// `1 ≤ k ≤ n`.
    pub(crate) fn top(n: u32, k: u32) -> u32 {
        assert!(n >= 1);
        assert!((1..=n).contains(&k), "k={k} outside 1..={n}");
        if k == 1 {
            0
        } else {
            log_n(u64::from(k))
        }
    }

    /// The contention bound `k` the protocol was built for.
    pub fn k(&self) -> u32 {
        self.k
    }

    /// The cyclic period `z` of the schedule.
    pub fn period(&self) -> u64 {
        self.schedule().period()
    }

    /// The shared doubling schedule (family boundaries, period).
    pub fn schedule(&self) -> &Arc<DoublingSchedule> {
        self.expr.schedule().expect("the doubling track")
    }
}

impl Protocol for WaitAndGo {
    fn station(&self, id: StationId, _seed: u64) -> Box<dyn Station> {
        self.expr.station(id)
    }

    fn class_station(&self, members: &Members) -> Option<Box<dyn ClassStation>> {
        Some(self.expr.class(members))
    }

    fn name(&self) -> String {
        format!("wait-and-go(n={}, k={})", self.n, self.k)
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
    fn solves_simultaneous_within_promise() {
        let n = 64u32;
        for k in [1u32, 2, 4, 8, 16] {
            let p = WaitAndGo::new(n, k, FamilyProvider::default());
            let chosen: Vec<StationId> = (0..k).map(|i| StationId(i * (n / k))).collect();
            let pattern = WakePattern::simultaneous(&chosen, 13).unwrap();
            let out = sim(n).run(&p, &pattern, 0).unwrap();
            assert!(out.solved(), "k={k}");
        }
    }

    #[test]
    fn solves_staggered_arrivals() {
        let n = 64u32;
        let k = 8u32;
        let p = WaitAndGo::new(n, k, FamilyProvider::default());
        for gap in [1u64, 7, 33, 100] {
            let chosen: Vec<StationId> = (0..k).map(|i| StationId(i * 7)).collect();
            let pattern = WakePattern::staggered(&chosen, 5, gap).unwrap();
            let out = sim(n).run(&p, &pattern, 0).unwrap();
            assert!(out.solved(), "gap={gap}");
        }
    }

    #[test]
    fn k1_station_goes_immediately_after_boundary() {
        let n = 32u32;
        let p = WaitAndGo::new(n, 1, FamilyProvider::default());
        // Period is 1 (single full set), so every slot is a boundary:
        assert_eq!(p.period(), 1);
        let pattern = WakePattern::simultaneous(&ids(&[17]), 42).unwrap();
        let out = sim(n).run(&p, &pattern, 0).unwrap();
        assert_eq!(out.latency(), Some(0));
    }

    #[test]
    fn stations_wait_until_family_boundary() {
        let n = 64u32;
        let k = 8u32;
        let p = WaitAndGo::new(n, k, FamilyProvider::default());
        let boundaries: Vec<u64> = p.schedule().offsets().to_vec();
        // Wake a station mid-family; its first transmission may only occur
        // at or after the next boundary.
        let mid = boundaries[1] + 1; // strictly inside family 2
        let pattern = WakePattern::simultaneous(&ids(&[9]), mid).unwrap();
        let cfg = SimConfig::new(n).with_transcript();
        let out = Simulator::new(cfg).run(&p, &pattern, 0).unwrap();
        let tr = out.transcript.clone().unwrap();
        let first_tx = tr
            .records()
            .iter()
            .find(|r| !r.transmitters.is_empty())
            .expect("station must eventually transmit")
            .slot;
        let next_boundary = boundaries
            .iter()
            .copied()
            .find(|&b| b >= mid % p.period())
            .unwrap_or(p.period());
        assert!(
            first_tx >= mid - mid % p.period() + next_boundary.min(p.period()),
            "station transmitted at {first_tx} before its boundary"
        );
        assert!(out.solved());
    }

    #[test]
    fn promise_violation_may_stall_but_never_collides_into_success() {
        // Wake MORE than k stations simultaneously: correctness of the
        // component is no longer guaranteed (this is exactly why the full
        // algorithm interleaves round-robin), but the run must remain a
        // valid channel execution.
        let n = 32u32;
        let p = WaitAndGo::new(n, 2, FamilyProvider::default());
        let pattern = WakePattern::simultaneous(&ids(&(0..16).collect::<Vec<_>>()), 0).unwrap();
        let cfg = SimConfig::new(n).with_max_slots(2_000).with_transcript();
        let out = Simulator::new(cfg).run(&p, &pattern, 0).unwrap();
        let tr = out.transcript.clone().unwrap();
        assert!(tr.check_invariants().is_empty());
        // (It may or may not solve — selectivity for |X|=16 is not promised
        // by (n,2) and (n,4) families alone.)
    }

    #[test]
    fn period_matches_sum_of_family_lengths() {
        let p = WaitAndGo::new(128, 8, FamilyProvider::default());
        let total: u64 = p.schedule().families().iter().map(|f| f.len()).sum();
        assert_eq!(p.period(), total);
        assert_eq!(p.schedule().families().len(), 3); // k=8 → families 2,4,8
    }

    #[test]
    fn deterministic_with_fixed_provider_seed() {
        let n = 64u32;
        let mk = || WaitAndGo::new(n, 4, FamilyProvider::random_with_seed(7));
        let pattern = WakePattern::staggered(&ids(&[1, 20, 40, 63]), 3, 11).unwrap();
        let a = sim(n).run(&mk(), &pattern, 5).unwrap();
        let b = sim(n).run(&mk(), &pattern, 5).unwrap();
        assert_eq!(a.first_success, b.first_success);
    }
}
