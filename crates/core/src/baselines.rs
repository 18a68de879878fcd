//! Deterministic comparison baselines.
//!
//! [`LocalDoubling`] is a *behavioural stand-in* for the
//! Chlebus–Gąsieniec–Kowalski–Radzik locally-synchronized wake-up protocol
//! (`O(k log² n)`, ICALP 2005 — reference \[9\] of the paper), which De Marco &
//! Kowalski's Scenario C algorithm claims to beat by a
//! `log n / log log n`-ish factor. The original construction (radio
//! synchronizers) is a paper of its own; what EXP-CHL needs is a faithful
//! *shape*: a deterministic protocol that uses only the station's **local**
//! clock (slots since its own wake-up) and runs doubling
//! strongly-selective structures.
//!
//! Structure: on local position `p`, the station is in *epoch*
//! `i = 1, 2, …` (epoch `i` lasts `c·2^i·log²n` positions); within epoch `i`
//! it transmits with PRF-density `2^{-i}` (per-station deterministic coins
//! shared via the protocol seed). Doubling epochs make the local densities
//! of concurrently awake stations straddle the `Θ(1/|X|)` sweet spot for
//! `Ω(2^i log² n)` of the overlapping slots, which is the same mechanism the
//! `O(k log² n)` bound formalizes. The protocol is deterministic given its
//! seed, uses no global-clock information, and measurably exhibits the
//! `k·log² n` growth (EXP-CHL) — slower than `wakeup(n)`'s
//! `k log n log log n` by the factor the paper claims.

use mac_sim::{Action, Protocol, Slot, Station, StationId, TxHint, Until};
use selectors::math::log_n;
use selectors::prf::{coin_pow2, GapScanner};

/// Locally-synchronized deterministic doubling baseline (`O(k log² n)`
/// shape).
#[derive(Clone, Copy, Debug)]
pub struct LocalDoubling {
    n: u32,
    /// Epoch-length constant (default 1: epoch `i` lasts `2^i·log²n` slots).
    pub c: u32,
    seed: u64,
}

impl LocalDoubling {
    /// Build the baseline for `n` stations (seed 0, `c = 1`).
    pub fn new(n: u32) -> Self {
        assert!(n >= 1);
        LocalDoubling { n, c: 1, seed: 0 }
    }

    /// Set the schedule seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Set the epoch-length constant.
    pub fn with_c(mut self, c: u32) -> Self {
        assert!(c >= 1);
        self.c = c;
        self
    }

    /// Epoch length for epoch `i` (1-based): `c·2^i·log² n`.
    pub fn epoch_len(&self, i: u32) -> u64 {
        let log2 = u64::from(log_n(u64::from(self.n)));
        u64::from(self.c) * (1u64 << i.min(62)) * log2 * log2
    }

    /// Number of epochs before the density floor `2^{-log n}` is reached;
    /// after the last epoch the schedule cycles through it again.
    pub fn epochs(&self) -> u32 {
        log_n(u64::from(self.n))
    }
}

struct LocalDoublingStation {
    id: StationId,
    proto: LocalDoubling,
    sigma: Slot,
}

impl LocalDoublingStation {
    /// The epoch of local position `p` plus the local position at which it
    /// ends (1-based; clamped at the last epoch, whose end is `u64::MAX`).
    fn epoch_span(&self, p: u64) -> (u32, u64) {
        let mut acc = 0u64;
        for i in 1..=self.proto.epochs() {
            acc += self.proto.epoch_len(i);
            if p < acc {
                return (i, acc);
            }
        }
        (self.proto.epochs(), u64::MAX)
    }

    /// The epoch of local position `p`.
    fn epoch(&self, p: u64) -> u32 {
        self.epoch_span(p).0
    }
}

impl Station for LocalDoublingStation {
    fn wake(&mut self, sigma: Slot) {
        self.sigma = sigma;
    }

    fn act(&mut self, t: Slot) -> Action {
        let p = t - self.sigma; // LOCAL clock only
        let i = self.epoch(p);
        // Deterministic density-2^{-i} coin, keyed by the *global* slot so
        // that overlapping stations see decorrelated (but shared-seed)
        // schedules. The station itself derives t = σ + p from local data.
        // Argument order (station, epoch, slot) keeps the scan variable
        // last, matching the GapScanner prefix in `next_transmission`.
        Action::from_bool(coin_pow2(
            self.proto.seed,
            u64::from(self.id.0),
            u64::from(i),
            t,
            i,
        ))
    }

    fn next_transmission(&mut self, after: Slot) -> TxHint {
        // The schedule is an oblivious PRF coin per slot (density 2^{-i} in
        // epoch i), so the next transmission is found by jumping over the
        // pseudorandom gap — expected 2^i coins on a per-(station, epoch)
        // prefix. Deep epochs make the gap (and the worst case) large, so
        // the scan is capped: past the horizon the station answers "silent
        // until the cap" and lets the engine call back there, instead of
        // forcing the whole run dense.
        const SCAN_CAP: u64 = 1 << 16;
        let cap_end = after.saturating_add(SCAN_CAP);
        let mut t = after;
        while t < cap_end {
            // One scan segment per epoch: fixed density, one PRF prefix.
            let (i, end_local) = self.epoch_span(t - self.sigma);
            let seg_end = self.sigma.saturating_add(end_local).min(cap_end);
            let scanner = GapScanner::new(self.proto.seed, u64::from(self.id.0), u64::from(i));
            if let Some(hit) = scanner.next_set(t, seg_end, |_| i) {
                return TxHint::at(hit);
            }
            t = seg_end;
        }
        TxHint::Never(Until::Slot(cap_end))
    }
}

impl Protocol for LocalDoubling {
    fn station(&self, id: StationId, _seed: u64) -> Box<dyn Station> {
        Box::new(LocalDoublingStation {
            id,
            proto: *self,
            sigma: 0,
        })
    }

    fn name(&self) -> String {
        format!("local-doubling(n={}, c={})", self.n, self.c)
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
    fn epoch_lengths_double() {
        let p = LocalDoubling::new(256);
        assert_eq!(p.epoch_len(2), 2 * p.epoch_len(1));
        assert_eq!(p.epoch_len(5), 8 * p.epoch_len(2));
        assert_eq!(p.epochs(), 8);
    }

    #[test]
    fn solves_simultaneous_and_staggered() {
        let n = 64u32;
        let p = LocalDoubling::new(n);
        let sim = Simulator::new(SimConfig::new(n).with_max_slots(200_000));
        let pattern = WakePattern::simultaneous(&ids(&[3, 30, 60]), 0).unwrap();
        assert!(sim.run(&p, &pattern, 0).unwrap().solved());
        let pattern = WakePattern::staggered(&ids(&[3, 30, 60]), 0, 40).unwrap();
        assert!(sim.run(&p, &pattern, 0).unwrap().solved());
    }

    #[test]
    fn single_station_succeeds_in_first_epoch() {
        let n = 256u32;
        let p = LocalDoubling::new(n);
        let sim = Simulator::new(SimConfig::new(n).with_max_slots(100_000));
        let pattern = WakePattern::simultaneous(&ids(&[100]), 17).unwrap();
        let out = sim.run(&p, &pattern, 0).unwrap();
        // Density 1/2 in epoch 1 ⇒ a solo station succeeds within a few slots.
        assert!(out.latency().unwrap() < 64);
    }

    #[test]
    fn uses_only_local_clock() {
        // Shifting the whole pattern in time shifts each station's schedule
        // by exactly the same amount ⇒ identical relative behaviour is NOT
        // expected (the PRF is keyed by global slot), but the protocol must
        // still solve from any start.
        let n = 64u32;
        let p = LocalDoubling::new(n);
        let sim = Simulator::new(SimConfig::new(n).with_max_slots(200_000));
        for s in [0u64, 999, 123_456] {
            let pattern = WakePattern::simultaneous(&ids(&[5, 40]), s).unwrap();
            assert!(sim.run(&p, &pattern, 0).unwrap().solved(), "s={s}");
        }
    }

    #[test]
    fn dwell_structure_is_log_n_over_log_log_n_slower_than_wakeup_n() {
        // The structural content of the EXP-CHL comparison: the time either
        // protocol needs to *reach* contention level 2^i is the cumulative
        // dwell below it — Θ(2^i·log² n) here vs Θ(c·2^i·log n·log log n)
        // for the waking matrix. At n = 2^16 (log n = 16, log log n = 4,
        // c = 2) the ratio is log n / (c·log log n) = 2.
        use crate::waking_matrix::{MatrixParams, WakingMatrix};
        let n: u32 = 1 << 16;
        let base = LocalDoubling::new(n);
        let matrix = WakingMatrix::new(MatrixParams::new(n));
        for i in 3..=10u32 {
            let base_cum: u64 = (1..=i).map(|e| base.epoch_len(e)).sum();
            let ours_cum: u64 = (1..=i).map(|r| matrix.dwell(r)).sum();
            assert!(
                base_cum >= 2 * ours_cum,
                "epoch {i}: baseline cumulative {base_cum} vs matrix {ours_cum}"
            );
        }
    }

    #[test]
    fn slower_than_wakeup_n_on_simultaneous_bursts() {
        // Simulation form of EXP-CHL at a size where the factor is visible:
        // mean over an ensemble of simultaneous k-bursts (the hard case).
        use crate::wakeup_n::WakeupN;
        use crate::waking_matrix::MatrixParams;
        let n = 4096u32;
        let k = 16usize;
        let sim = Simulator::new(SimConfig::new(n).with_max_slots(2_000_000));
        let mut base_total = 0u64;
        let mut ours_total = 0u64;
        for seed in 0..12u64 {
            let mut rng = <rand_chacha::ChaCha8Rng as rand::SeedableRng>::seed_from_u64(seed);
            let chosen = IdChoice::Random.pick(n, k, &mut rng);
            let pattern = WakePattern::simultaneous(&chosen, 0).unwrap();
            let base = LocalDoubling::new(n).with_seed(seed);
            let ours = WakeupN::new(MatrixParams::new(n).with_seed(seed));
            base_total += sim.run(&base, &pattern, seed).unwrap().latency().unwrap();
            ours_total += sim.run(&ours, &pattern, seed).unwrap().latency().unwrap();
        }
        assert!(
            base_total > ours_total,
            "local baseline ({base_total}) unexpectedly beat wakeup(n) ({ours_total})"
        );
    }
}
