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
//! The paper's protocol *ends* after the last row (`i = log n`); the
//! analysis guarantees success long before. Because our matrix is a sampled
//! ensemble member rather than a certified waking matrix, a run can in
//! principle exhaust the scan; [`WakeupN::with_restart`] optionally makes
//! stations restart the walk (off by default to match the paper — capped
//! runs surface as censored samples in the experiments instead).

use crate::select_among_first::CLASS_SCAN_BUDGET;
use crate::waking_matrix::{MatrixParams, WakingMatrix};
use mac_sim::{
    Action, ClassStation, MemberRemoval, Members, Protocol, Slot, Station, StationId, TxHint,
    TxRow, TxTally, TxWord, Until,
};
use selectors::prf::GapScanner;
use std::sync::Arc;

/// The Scenario C protocol `wakeup(n)`.
#[derive(Clone, Debug)]
pub struct WakeupN {
    matrix: Arc<WakingMatrix>,
    restart: bool,
}

impl WakeupN {
    /// Build from matrix parameters.
    pub fn new(params: MatrixParams) -> Self {
        WakeupN {
            matrix: Arc::new(WakingMatrix::new(params)),
            restart: false,
        }
    }

    /// Build over an existing (shared) matrix.
    pub fn with_matrix(matrix: Arc<WakingMatrix>) -> Self {
        WakeupN {
            matrix,
            restart: false,
        }
    }

    /// Like [`new`](Self::new), but the waking matrix comes out of `cache` —
    /// built once per parameter set per ensemble and shared across runs.
    pub fn cached(params: MatrixParams, cache: &crate::cache::ConstructionCache) -> Self {
        WakeupN::with_matrix(cache.matrix(params))
    }

    /// Make stations restart the row walk after exhausting the matrix
    /// (liveness extension beyond the paper's protocol).
    pub fn with_restart(mut self, restart: bool) -> Self {
        self.restart = restart;
        self
    }

    /// The shared waking matrix.
    pub fn matrix(&self) -> &Arc<WakingMatrix> {
        &self.matrix
    }
}

struct WakeupNStation {
    id: StationId,
    matrix: Arc<WakingMatrix>,
    restart: bool,
    /// Slot at which the station becomes operative (µ(σ)).
    mu: Slot,
    /// First walk's start µ(σ) — unlike `mu`, never advanced by restarts;
    /// the anchor for the stateless hint geometry.
    mu0: Slot,
    /// Current row (1-based); rows() + 1 once the scan is done.
    row: u32,
    /// First slot after the current row's dwell.
    row_end: Slot,
    /// Cached hint-scan segment: the row the last `next_transmission`
    /// landed in, as global slots `[start, end)`, with its PRF row prefix.
    /// Queries are non-decreasing, so the cache is valid until the clock
    /// leaves the row.
    scan: Option<RowScan>,
}

/// One row's scan state (see [`WakeupNStation::scan`]).
struct RowScan {
    row: u32,
    start: Slot,
    end: Slot,
    scanner: GapScanner,
}

impl Station for WakeupNStation {
    fn wake(&mut self, sigma: Slot) {
        self.mu = self.matrix.mu(sigma);
        self.mu0 = self.mu;
        self.row = 1;
        self.row_end = self.mu + self.matrix.dwell(1);
    }

    fn act(&mut self, t: Slot) -> Action {
        if t < self.mu {
            return Action::Listen; // waiting for the window boundary
        }
        // Advance rows (amortized O(1): each row advances once).
        while t >= self.row_end {
            if self.row >= self.matrix.rows() {
                if self.restart {
                    // Re-enter the walk at the next window boundary.
                    self.mu = self.matrix.mu(self.row_end);
                    self.row = 1;
                    self.row_end = self.mu + self.matrix.dwell(1);
                    if t < self.mu {
                        return Action::Listen;
                    }
                    continue;
                }
                self.row = self.matrix.rows() + 1;
                return Action::Listen; // scan over (paper's protocol ends)
            }
            self.row += 1;
            self.row_end += self.matrix.dwell(self.row);
        }
        Action::from_bool(self.matrix.member(self.row, t, self.id.0))
    }

    fn next_transmission(&mut self, after: Slot) -> TxHint {
        // Stateless walk geometry anchored at µ(σ): the stateful `row`
        // cursor is untouched, and `act` tolerates jumps. Restart walks
        // tile contiguously (the total scan is a multiple of the window
        // length, so each walk ends exactly on the next walk's µ), which
        // makes `delta mod total` the position inside the current walk.
        let m = &self.matrix;
        let from = after.max(self.mu0);
        // Queries are non-decreasing, so the row segment and its PRF prefix
        // from the previous query usually still apply (collision re-arms
        // hit the same row over and over).
        let cached = matches!(&self.scan, Some(s) if s.start <= from && from < s.end);
        if !cached {
            let total = m.total_scan();
            let delta = from - self.mu0;
            if !self.restart && delta >= total {
                // Scan exhausted: the paper's protocol ends; the station
                // is silent forever.
                return TxHint::never();
            }
            let delta_in_walk = delta % total;
            let walk_start = from - delta_in_walk;
            let row = m
                .row_at_offset(delta_in_walk)
                .expect("delta_in_walk < total_scan has a row");
            let (row_start, row_end) = m.row_span(row);
            self.scan = Some(RowScan {
                row,
                start: walk_start + row_start,
                end: walk_start + row_end,
                scanner: m.row_scanner(row, self.id.0),
            });
        }
        let seg = self.scan.as_ref().expect("segment cached above");
        // Structure-aware per-row skip: jump to the next PRF membership in
        // the *current* row only (expected O(2^{i+ρ}) cheap coins). If the
        // row has no further hit, answer "silent until the row boundary"
        // and let the engine call back there — bounded lookahead instead of
        // scanning exponentially longer later rows that a success may make
        // moot.
        match m.next_member_scanned(&seg.scanner, seg.row, from, seg.end) {
            Some(t) => TxHint::at(t),
            None if !self.restart && seg.row == m.rows() => TxHint::never(),
            None => TxHint::Never(Until::Slot(seg.end)),
        }
    }

    fn fill_tx_word(&mut self, base: Slot, width: u32) -> Option<TxWord> {
        // The walk is oblivious (restarts included: a deterministic function
        // of σ and t), so the tile is an unconditional fact. Same stateless
        // geometry as `next_transmission`; the PRF row prefix is hoisted
        // once per row span inside the tile.
        let m = &self.matrix;
        let total = m.total_scan();
        let mut bits = 0u64;
        let mut j = 0u64;
        while j < u64::from(width) {
            let t = base + j;
            if t < self.mu0 {
                j += 1; // waiting for the window boundary
                continue;
            }
            let delta = t - self.mu0;
            if !self.restart && delta >= total {
                break; // scan over: silent for the rest of the tile
            }
            let delta_in_walk = delta % total;
            let row = m
                .row_at_offset(delta_in_walk)
                .expect("delta_in_walk < total_scan has a row");
            let (_, row_end) = m.row_span(row);
            let seg_end = (t - delta_in_walk + row_end).min(base + u64::from(width));
            let scanner = m.row_scanner(row, self.id.0);
            let mut s = t;
            while let Some(hit) = m.next_member_scanned(&scanner, row, s, seg_end) {
                bits |= 1u64 << (hit - base);
                s = hit + 1;
            }
            j = seg_end - base;
        }
        Some(TxWord::forever(bits))
    }
}

/// One equivalence class of `wakeup(n)` stations. A wake batch shares `σ`,
/// hence `µ(σ)` and the entire row-walk geometry — only the PRF membership
/// test depends on the station id, so one unit carries the whole batch and
/// per-slot work is a single [`TxTally::record_members`] sweep. Hints scan
/// the current row slot by slot for **any** member hit under a membership
/// budget; a proven-silent prefix is remembered (queries are monotone), a
/// budget stop answers `Never(Until::Slot(bound))` strictly past `after`,
/// and a hit-free final row without restart is permanent silence.
struct WakeupNClass {
    members: Members,
    matrix: Arc<WakingMatrix>,
    restart: bool,
    mu: Slot,
    mu0: Slot,
    row: u32,
    row_end: Slot,
    /// Every slot in `[mu0, proven)` is proven free of member transmissions
    /// (or was a memoized hit since passed).
    proven: Slot,
    /// Memoized earliest hit at or after `proven`, if found.
    hit: Option<Slot>,
}

impl ClassStation for WakeupNClass {
    fn wake(&mut self, sigma: Slot) {
        self.mu = self.matrix.mu(sigma);
        self.mu0 = self.mu;
        self.row = 1;
        self.row_end = self.mu + self.matrix.dwell(1);
        self.proven = self.mu;
        self.hit = None;
    }

    fn act(&mut self, t: Slot, tally: &mut TxTally) {
        if t < self.mu {
            return; // waiting for the window boundary
        }
        // Same amortized row advance as the concrete station.
        while t >= self.row_end {
            if self.row >= self.matrix.rows() {
                if self.restart {
                    self.mu = self.matrix.mu(self.row_end);
                    self.row = 1;
                    self.row_end = self.mu + self.matrix.dwell(1);
                    if t < self.mu {
                        return;
                    }
                    continue;
                }
                self.row = self.matrix.rows() + 1;
                return; // scan over (paper's protocol ends)
            }
            self.row += 1;
            self.row_end += self.matrix.dwell(self.row);
        }
        tally.record_members(&self.members, self.matrix.row(self.row, t));
    }

    fn next_transmission(&mut self, after: Slot) -> TxHint {
        let m = &self.matrix;
        let from = after.max(self.mu0);
        if let Some(h) = self.hit {
            if h >= from {
                return TxHint::at(h);
            }
            self.hit = None; // query point moved past the memoized hit
        }
        // Stateless walk geometry anchored at µ(σ), as in the concrete
        // station: restart walks tile contiguously, so `delta mod total`
        // locates the position inside the current walk.
        let start = from.max(self.proven);
        let total = m.total_scan();
        let delta = start - self.mu0;
        if !self.restart && delta >= total {
            return TxHint::never();
        }
        let delta_in_walk = delta % total;
        let walk_start = start - delta_in_walk;
        let row = m
            .row_at_offset(delta_in_walk)
            .expect("delta_in_walk < total_scan has a row");
        let (_, row_end) = m.row_span(row);
        let seg_end = walk_start + row_end;
        // Budgeted any-member scan over the rest of the current row; later
        // rows are left to re-queries at the boundary, matching the
        // concrete station's bounded per-row lookahead.
        let mut budget = CLASS_SCAN_BUDGET;
        let mut t = start;
        while t < seg_end {
            if budget == 0 && t > from {
                self.proven = t;
                return TxHint::Never(Until::Slot(t));
            }
            let entry = m.row(row, t);
            let mut any = false;
            'runs: for &(lo, hi) in self.members.runs() {
                for u in lo..hi {
                    budget = budget.saturating_sub(1);
                    if entry.contains(u) {
                        any = true;
                        break 'runs;
                    }
                }
            }
            if any {
                self.proven = t;
                self.hit = Some(t);
                return TxHint::at(t);
            }
            t += 1;
            self.proven = t;
        }
        if !self.restart && row == m.rows() {
            TxHint::never()
        } else {
            TxHint::Never(Until::Slot(seg_end))
        }
    }

    fn remove_member(&mut self, id: StationId) -> MemberRemoval {
        // Walk geometry is batch-shared and unaffected; only the membership
        // sweep shrinks. The proven-silent prefix stays valid (removal can
        // only remove transmissions), but the memoized hit may be the
        // departed member's, so drop it.
        if self.members.remove(id.0) {
            self.hit = None;
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
        Box::new(WakeupNStation {
            id,
            matrix: Arc::clone(&self.matrix),
            restart: self.restart,
            mu: 0,
            mu0: 0,
            row: 1,
            row_end: 0,
            scan: None,
        })
    }

    fn class_station(&self, members: &Members) -> Option<Box<dyn ClassStation>> {
        Some(Box::new(WakeupNClass {
            members: members.clone(),
            matrix: Arc::clone(&self.matrix),
            restart: self.restart,
            mu: 0,
            mu0: 0,
            row: 1,
            row_end: 0,
            proven: 0,
            hit: None,
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
        // The stateful station must agree with the stateless predicate
        // WakingMatrix::transmits on every slot.
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
    fn restart_keeps_station_active_after_scan() {
        let n = 4u32; // tiny matrix so the scan ends quickly
        let params = MatrixParams::new(n).with_c(1);
        let m = WakingMatrix::new(params);
        let total = m.total_scan();

        let p_norestart = WakeupN::new(params);
        let mut st = p_norestart.station(StationId(1), 0);
        st.wake(0);
        // After the scan, a non-restarting station is permanently silent.
        let mut any_tx = false;
        for t in 0..total + 200 {
            if st.act(t).is_transmit() && t >= total {
                any_tx = true;
            }
        }
        assert!(!any_tx, "non-restarting station transmitted after its scan");

        let p_restart = WakeupN::new(params).with_restart(true);
        let mut st = p_restart.station(StationId(1), 0);
        st.wake(0);
        let mut post_scan_tx = false;
        for t in 0..4 * total {
            if st.act(t).is_transmit() && t >= total {
                post_scan_tx = true;
            }
        }
        assert!(post_scan_tx, "restarting station stayed silent after scan");
    }

    #[test]
    fn class_engine_matches_concrete() {
        // Batched and staggered wakes, with and without restart: outcomes
        // and transcripts must be bit-identical to the concrete engine.
        let n = 128u32;
        let chosen = ids(&[3, 17, 40, 63, 90, 101, 115, 127]);
        for restart in [false, true] {
            let p = WakeupN::new(MatrixParams::new(n).with_seed(9)).with_restart(restart);
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
