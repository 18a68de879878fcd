//! `wakeup(n)` — the Scenario C algorithm (§5): contention resolution with
//! no knowledge of `s` or `k`, in `O(k log n log log n)` slots.
//!
//! Every station is provided with the same [`WakingMatrix`]; a station `u`
//! woken at slot `σ` executes protocol `wakeup(u, σ)` (§5.1):
//!
//! ```text
//! t' ← µ(σ)                        // wait for the next window boundary
//! for i = 1 to log n:              // walk the rows top-down
//!     for t = t' to t' + m_i − 1:  // dwell m_i slots in row i
//!         j ← t mod ℓ              // circular column scan
//!         if u ∈ M_{i,j}: transmit at t
//!     t' ← t' + m_i
//! ```
//!
//! Stations woken at different times occupy different rows of the same
//! column (the paper's Figure 2); the window wait `µ(σ)` enforces property
//! P1 (row sets constant within a window), which the density sweep `ρ(j)`
//! converts into a guaranteed low-contention slot per window (Lemma 5.4).
//!
//! Theorem 5.3: success within `O(k log n log log n)` slots of `s`.
//!
//! The protocol *ends* after the last row (`i = log n`); the analysis
//! guarantees success long before. Because our matrix is a sampled ensemble
//! member rather than a certified waking matrix, a run can in principle
//! exhaust the scan; capped runs surface as censored samples in the
//! experiments.
//!
//! Where a station stands on its walk has one answer,
//! [`WakingMatrix::segment`]: slot `t` maps to its row and that row's
//! global slots, or to nothing before `µ(σ)` and after the scan. A station
//! caches its current segment with the row's PRF prefix for its id and
//! answers `act`, hints and tile fills from it; a class caches its segment
//! too, and its hint is the oblivious classes' budgeted any-member scan
//! over the row's matrix entries.

use crate::select_among_first::{AnyMemberScan, Scan, CLASS_SCAN_BUDGET};
use crate::waking_matrix::{MatrixParams, Segment, WakingMatrix};
use mac_sim::{
    Action, ClassStation, MemberRemoval, Members, Protocol, Slot, Station, StationId, TxHint,
    TxTally, TxWord, Until,
};
use selectors::prf::GapScanner;
use std::sync::Arc;

/// The Scenario C protocol `wakeup(n)`.
#[derive(Clone, Debug)]
pub struct WakeupN {
    matrix: Arc<WakingMatrix>,
}

impl WakeupN {
    /// Build from matrix parameters.
    pub fn new(params: MatrixParams) -> Self {
        WakeupN::with_matrix(Arc::new(WakingMatrix::new(params)))
    }

    /// Build over an existing (shared) matrix.
    pub fn with_matrix(matrix: Arc<WakingMatrix>) -> Self {
        WakeupN { matrix }
    }

    /// Like [`new`](Self::new), but the waking matrix comes out of `cache` —
    /// built once per parameter set per ensemble and shared across runs.
    pub fn cached(params: MatrixParams, cache: &crate::cache::ConstructionCache) -> Self {
        WakeupN::with_matrix(cache.matrix(params))
    }

    /// The shared waking matrix.
    pub fn matrix(&self) -> &Arc<WakingMatrix> {
        &self.matrix
    }
}

struct WakeupNStation {
    id: u32,
    matrix: Arc<WakingMatrix>,
    /// µ(σ), where the walk starts.
    mu: Slot,
    /// The segment the last question landed in, with the row's PRF prefix
    /// for this station (questions mostly stay in one row).
    seg: Option<(Segment, GapScanner)>,
}

impl WakeupNStation {
    /// The segment holding slot `t`, with the station's prefix of its row;
    /// `None` off the walk.
    fn segment(&mut self, t: Slot) -> Option<(Segment, GapScanner)> {
        match self.seg {
            Some(c @ (s, _)) if s.start <= t && t < s.end => Some(c),
            _ => {
                let s = self.matrix.segment(self.mu, t)?;
                self.seg = Some((s, self.matrix.row_scanner(s.row, self.id)));
                self.seg
            }
        }
    }
}

impl Station for WakeupNStation {
    fn wake(&mut self, sigma: Slot) {
        self.mu = self.matrix.mu(sigma);
    }

    fn act(&mut self, t: Slot) -> Action {
        // One coin on the cached prefix: 2 of `member`'s 5 mixing rounds.
        let tx = self.segment(t).is_some_and(|(s, scanner)| {
            self.matrix
                .next_member_scanned(&scanner, s.row, t, t + 1)
                .is_some()
        });
        Action::from_bool(tx)
    }

    fn next_transmission(&mut self, after: Slot) -> TxHint {
        // Structure-aware per-row skip: jump to the next PRF membership in
        // the *current* row only (expected O(2^{i+ρ}) cheap coins). If the
        // row has no further hit, answer "silent until the row boundary"
        // and let the engine call back there — bounded lookahead instead of
        // scanning exponentially longer later rows that a success may make
        // moot.
        let from = after.max(self.mu);
        let Some((s, scanner)) = self.segment(from) else {
            return TxHint::never(); // the scan is over: the protocol ended
        };
        match self
            .matrix
            .next_member_scanned(&scanner, s.row, from, s.end)
        {
            Some(t) => TxHint::at(t),
            None if s.row == self.matrix.rows() => TxHint::never(),
            None => TxHint::Never(Until::Slot(s.end)),
        }
    }

    fn fill_tx_word(&mut self, base: Slot, width: u32) -> Option<TxWord> {
        // The walk is oblivious, so the tile is an unconditional fact: the
        // hits of each row the tile crosses.
        let tile_end = base + u64::from(width);
        let mut bits = 0u64;
        let mut t = base.max(self.mu);
        while t < tile_end {
            let Some((s, scanner)) = self.segment(t) else {
                break; // the scan is over: silent for the rest of the tile
            };
            let end = s.end.min(tile_end);
            while let Some(hit) = self.matrix.next_member_scanned(&scanner, s.row, t, end) {
                bits |= 1u64 << (hit - base);
                t = hit + 1;
            }
            t = end;
        }
        Some(TxWord::forever(bits))
    }
}

/// One equivalence class of `wakeup(n)` stations. A wake batch shares `σ`,
/// hence `µ(σ)` and the entire walk — only the PRF membership test depends
/// on the station id, so one unit carries the whole batch and per-slot work
/// is a single [`TxTally::record_members`] sweep. The hint scans the current
/// row for **any** member hit under a membership budget; a budget stop
/// answers `Never(Until::Slot(bound))` strictly past `after`, and a hit-free
/// last row is permanent silence.
struct WakeupNClass {
    members: Members,
    matrix: Arc<WakingMatrix>,
    /// µ(σ), where the walk starts.
    mu: Slot,
    /// The segment the last question landed in.
    seg: Option<Segment>,
    scan: AnyMemberScan,
}

impl WakeupNClass {
    /// The segment holding slot `t`; `None` off the walk.
    fn segment(&mut self, t: Slot) -> Option<Segment> {
        match self.seg {
            Some(s) if s.start <= t && t < s.end => Some(s),
            _ => {
                self.seg = self.matrix.segment(self.mu, t);
                self.seg
            }
        }
    }
}

impl ClassStation for WakeupNClass {
    fn wake(&mut self, sigma: Slot) {
        self.mu = self.matrix.mu(sigma);
    }

    fn act(&mut self, t: Slot, tally: &mut TxTally) {
        if let Some(s) = self.segment(t) {
            tally.record_members(&self.members, self.matrix.row(s.row, t));
        }
    }

    fn next_transmission(&mut self, after: Slot) -> TxHint {
        // The scan resumes at its memoized hit or past its proven silence
        // and runs to the end of that slot's row; later rows are left to
        // re-queries at the boundary, as the station's lookahead is.
        let from = after.max(self.mu);
        let Some(s) = self.segment(self.scan.resume(from)) else {
            return TxHint::never(); // the scan is over: the protocol ended
        };
        let m = &self.matrix;
        let row = |t| m.row(s.row, t);
        // Rows change along the walk, so no silent stretch is silence for
        // good: the entries have no period.
        match self
            .scan
            .next_hit(row, u64::MAX, &self.members, from, s.end, CLASS_SCAN_BUDGET)
        {
            Scan::Hit(t) => TxHint::at(t),
            // A budget stop: silence holds strictly past `after`.
            Scan::SilentBelow(b) if b < s.end => TxHint::Never(Until::Slot(b)),
            _ if s.row == m.rows() => TxHint::never(),
            _ => TxHint::Never(Until::Slot(s.end)),
        }
    }

    fn remove_member(&mut self, id: StationId) -> MemberRemoval {
        // The walk is batch-shared and unaffected; only the membership
        // sweep shrinks.
        if self.members.remove(id.0) {
            self.scan.drop_hit();
            MemberRemoval::Removed {
                emptied: self.members.is_empty(),
            }
        } else {
            MemberRemoval::NotMember
        }
    }
}

impl Protocol for WakeupN {
    fn station(&self, id: StationId, _seed: u64) -> Box<dyn Station> {
        if id.0 >= self.matrix.n() {
            return Box::new(mac_sim::station::NeverTransmit); // in no M_{i,j}
        }
        Box::new(WakeupNStation {
            id: id.0,
            matrix: Arc::clone(&self.matrix),
            mu: 0,
            seg: None,
        })
    }

    fn class_station(&self, members: &Members) -> Option<Box<dyn ClassStation>> {
        Some(Box::new(WakeupNClass {
            members: members.clone(),
            matrix: Arc::clone(&self.matrix),
            mu: 0,
            seg: None,
            scan: AnyMemberScan::default(),
        }))
    }

    fn name(&self) -> String {
        format!(
            "wakeup(n={}, c={}, seed={})",
            self.matrix.n(),
            self.matrix.c(),
            self.matrix.seed()
        )
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
    fn station_follows_the_matrix_walk_exactly() {
        // The station's cached segment must agree with the stateless
        // predicate WakingMatrix::transmits on every slot.
        let p = WakeupN::new(MatrixParams::new(64).with_seed(5));
        let m = Arc::clone(p.matrix());
        let sigma = 7u64;
        let mut st = p.station(StationId(9), 0);
        st.wake(sigma);
        for t in sigma..sigma + 2_000 {
            let expected = m.transmits(9, sigma, t);
            assert_eq!(
                st.act(t).is_transmit(),
                expected,
                "divergence at t={t} (σ={sigma})"
            );
        }
    }

    #[test]
    fn solves_simultaneous_wakeups() {
        let n = 64u32;
        for k in [1usize, 2, 4, 8] {
            let p = WakeupN::new(MatrixParams::new(n));
            let chosen: Vec<StationId> = (0..k as u32)
                .map(|i| StationId(i * (n / k as u32)))
                .collect();
            let pattern = WakePattern::simultaneous(&chosen, 0).unwrap();
            let out = sim(n).run(&p, &pattern, 0).unwrap();
            assert!(out.solved(), "k={k}");
        }
    }

    #[test]
    fn solves_staggered_and_burst_arrivals() {
        let n = 128u32;
        let p = WakeupN::new(MatrixParams::new(n));
        let chosen = ids(&[3, 17, 40, 63, 90, 101, 115, 127]);
        for gap in [1u64, 9, 77] {
            let pattern = WakePattern::staggered(&chosen, 5, gap).unwrap();
            let out = sim(n).run(&p, &pattern, 0).unwrap();
            assert!(out.solved(), "staggered gap={gap}");
        }
        let pattern = WakePattern::batches(&chosen, 0, 50, &[4, 4]).unwrap();
        let out = sim(n).run(&p, &pattern, 0).unwrap();
        assert!(out.solved(), "batches");
    }

    #[test]
    fn latency_scales_with_k_log_n_log_log_n_not_n() {
        // For k = 2 on n = 1024, the bound is O(2 · 10 · 4) ≈ hundreds of
        // slots; assert we stay well below n (which round-robin would need).
        let n = 1024u32;
        let p = WakeupN::new(MatrixParams::new(n));
        let pattern = WakePattern::simultaneous(&ids(&[77, 901]), 0).unwrap();
        let out = sim(n).run(&p, &pattern, 0).unwrap();
        let lat = out.latency().expect("must solve");
        assert!(lat < u64::from(n) / 2, "latency {lat} too large");
    }

    #[test]
    fn solves_from_arbitrary_start_slots() {
        let n = 64u32;
        let p = WakeupN::new(MatrixParams::new(n));
        for s in [0u64, 1, 13, 1000, 54_321] {
            let pattern = WakePattern::simultaneous(&ids(&[2, 33, 60]), s).unwrap();
            let out = sim(n).run(&p, &pattern, 0).unwrap();
            assert!(out.solved(), "s={s}");
        }
    }

    #[test]
    fn no_transmission_during_window_wait() {
        let n = 256u32;
        let p = WakeupN::new(MatrixParams::new(n));
        let m = Arc::clone(p.matrix());
        // σ chosen strictly inside a window.
        let sigma = 1u64;
        assert!(m.mu(sigma) > sigma);
        let mut st = p.station(StationId(0), 0);
        st.wake(sigma);
        for t in sigma..m.mu(sigma) {
            assert_eq!(
                st.act(t),
                Action::Listen,
                "transmitted while waiting at {t}"
            );
        }
    }

    #[test]
    fn station_is_silent_after_its_scan() {
        let n = 4u32; // tiny matrix so the scan ends quickly
        let params = MatrixParams::new(n).with_c(1);
        let m = WakingMatrix::new(params);
        let total = m.total_scan();

        let p = WakeupN::new(params);
        let mut st = p.station(StationId(1), 0);
        st.wake(0);
        // After the scan, the station is permanently silent.
        let mut any_tx = false;
        for t in 0..total + 200 {
            if st.act(t).is_transmit() && t >= total {
                any_tx = true;
            }
        }
        assert!(!any_tx, "station transmitted after its scan");
        assert_eq!(st.next_transmission(total), TxHint::never());
    }

    #[test]
    fn stations_outside_the_universe_never_transmit() {
        // No transmission set holds an id ≥ n (`WakingMatrix::member`), so
        // act, hint and tile all say silence.
        let p = WakeupN::new(MatrixParams::new(8).with_c(1));
        let mut st = p.station(StationId(8), 0);
        st.wake(0);
        assert!((0..500).all(|t| !st.act(t).is_transmit()));
        assert_eq!(st.next_transmission(0), TxHint::never());
    }

    #[test]
    fn class_engine_matches_concrete() {
        // Batched and staggered wakes: outcomes and transcripts must be
        // bit-identical to the concrete engine.
        let n = 128u32;
        let chosen = ids(&[3, 17, 40, 63, 90, 101, 115, 127]);
        let p = WakeupN::new(MatrixParams::new(n).with_seed(9));
        for pattern in [
            WakePattern::batches(&chosen, 0, 50, &[4, 4]).unwrap(),
            WakePattern::staggered(&chosen, 5, 9).unwrap(),
        ] {
            let cfg = SimConfig::new(n).with_max_slots(5_000).with_transcript();
            let concrete = Simulator::new(cfg.clone()).run(&p, &pattern, 0).unwrap();
            let classed = Simulator::new(cfg.with_classes())
                .run(&p, &pattern, 0)
                .unwrap();
            assert_eq!(concrete.first_success, classed.first_success);
            assert_eq!(concrete.winner, classed.winner);
            assert_eq!(concrete.transmissions, classed.transmissions);
            assert_eq!(concrete.per_station_tx, classed.per_station_tx);
            assert_eq!(concrete.transcript, classed.transcript);
            assert!(classed.peak_units <= chosen.len() as u64);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let n = 128u32;
        let mk = || WakeupN::new(MatrixParams::new(n).with_seed(77));
        let pattern = WakePattern::staggered(&ids(&[5, 55, 105]), 3, 21).unwrap();
        let a = sim(n).run(&mk(), &pattern, 0).unwrap();
        let b = sim(n).run(&mk(), &pattern, 0).unwrap();
        assert_eq!(a.first_success, b.first_success);
        assert_eq!(a.winner, b.winner);
    }

    #[test]
    fn works_on_degenerate_universes() {
        for n in [1u32, 2, 3] {
            let p = WakeupN::new(MatrixParams::new(n));
            let pattern = WakePattern::simultaneous(&ids(&[0]), 0).unwrap();
            let out = sim(n).run(&p, &pattern, 0).unwrap();
            assert!(out.solved(), "n={n}");
        }
    }
}
