//! Wake-up patterns: which stations wake, and when.
//!
//! The paper's adversary chooses, for each run, a set of at most `k` stations
//! and a spontaneous wake-up slot for each ("the worst-case scenario over all
//! possible patterns of spontaneous wake up times"). A [`WakePattern`] is one
//! such choice; this module also provides the standard families of patterns
//! used by the experiments:
//!
//! * [`WakePattern::simultaneous`] — all `k` stations wake at `s` (the
//!   classical Komlós–Greenberg setting, and the only pattern in which
//!   `select_among_the_first` participates);
//! * [`WakePattern::staggered`] — arithmetic wake times `s, s+g, s+2g, …`;
//! * [`WakePattern::uniform_window`] — independent uniform times in a window;
//! * [`WakePattern::batches`] — bursts of simultaneous wakers separated by
//!   gaps (models Ethernet-style load spikes);
//! * [`WakePattern::trickle`] — geometric inter-arrival times (models sparse
//!   sensor traffic).
//!
//! ID selection is factored out into [`IdChoice`] so experiments can control
//! whether the adversary picks IDs adversarially (e.g. a contiguous block is
//! bad for round-robin) or at random.

use crate::ids::{Slot, StationId};
use crate::population::Members;
use crate::rng::{derive_seed, CHURN_STREAM};
use rand::seq::SliceRandom;
use rand::Rng;

/// A contiguous block of stations `lo..hi` all waking at `slot` — the O(1)
/// building block of mega-scale patterns (see [`WakePattern::from_blocks`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WakeBlock {
    /// The common wake slot of the block.
    pub slot: Slot,
    /// First station ID of the block (inclusive).
    pub lo: u32,
    /// One past the last station ID of the block.
    pub hi: u32,
}

/// A complete wake-up pattern: the (station, wake slot) pairs of the at most
/// `k` stations that ever wake. Stations not listed never wake.
///
/// Two representations share the type: **explicit** pairs (the historical
/// form, O(k) memory) and **blocks** of contiguous IDs
/// ([`WakePattern::from_blocks`], O(blocks) memory — what makes `k = 2^24`
/// patterns fit on one box). Accessors that inherently enumerate stations
/// ([`wakes`](WakePattern::wakes), [`awake_at`](WakePattern::awake_at))
/// either panic or materialize for block patterns, as documented.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WakePattern {
    /// Explicit pairs, sorted by (slot, id); empty iff `blocks` is `Some`.
    wakes: Vec<(StationId, Slot)>,
    /// Block representation, sorted by (slot, lo); `None` for explicit
    /// patterns.
    blocks: Option<Vec<WakeBlock>>,
}

/// Errors constructing a [`WakePattern`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PatternError {
    /// The same station appears twice.
    DuplicateStation(StationId),
    /// The pattern contains no stations (the problem requires `k ≥ 1`).
    Empty,
}

impl std::fmt::Display for PatternError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PatternError::DuplicateStation(id) => {
                write!(f, "station {id} appears more than once in the wake pattern")
            }
            PatternError::Empty => write!(f, "wake pattern contains no stations"),
        }
    }
}

impl std::error::Error for PatternError {}

impl WakePattern {
    /// Build a pattern from explicit `(station, wake slot)` pairs.
    ///
    /// Pairs are sorted by wake slot (ties by ID) for deterministic engine
    /// behaviour. Fails on duplicate stations or an empty list.
    pub fn new(mut wakes: Vec<(StationId, Slot)>) -> Result<Self, PatternError> {
        if wakes.is_empty() {
            return Err(PatternError::Empty);
        }
        wakes.sort_by_key(|&(id, t)| (t, id));
        #[expect(
            clippy::disallowed_types,
            reason = "membership-only duplicate check; the set is never iterated"
        )]
        let mut seen = std::collections::HashSet::with_capacity(wakes.len());
        for &(id, _) in &wakes {
            if !seen.insert(id) {
                return Err(PatternError::DuplicateStation(id));
            }
        }
        Ok(WakePattern {
            wakes,
            blocks: None,
        })
    }

    /// Build a pattern from contiguous-ID wake blocks — O(blocks) memory,
    /// the representation for mega-scale patterns (`k = 2^24` is one
    /// block). Blocks are sorted by wake slot (ties by `lo`); empty blocks
    /// (`lo ≥ hi`) are rejected as [`PatternError::Empty`], and a station
    /// covered by two blocks is a [`PatternError::DuplicateStation`].
    pub fn from_blocks(mut blocks: Vec<WakeBlock>) -> Result<Self, PatternError> {
        if blocks.is_empty() || blocks.iter().any(|b| b.lo >= b.hi) {
            return Err(PatternError::Empty);
        }
        blocks.sort_by_key(|b| (b.slot, b.lo));
        // A station may wake only once: block ID ranges must be disjoint.
        let mut spans: Vec<(u32, u32)> = blocks.iter().map(|b| (b.lo, b.hi)).collect();
        spans.sort_unstable();
        for w in spans.windows(2) {
            if w[1].0 < w[0].1 {
                return Err(PatternError::DuplicateStation(StationId(w[1].0)));
            }
        }
        Ok(WakePattern {
            wakes: Vec::new(),
            blocks: Some(blocks),
        })
    }

    /// All stations `lo..hi` wake at slot `s` — the one-block mega pattern.
    pub fn range(lo: u32, hi: u32, s: Slot) -> Result<Self, PatternError> {
        Self::from_blocks(vec![WakeBlock { slot: s, lo, hi }])
    }

    /// All `ids` wake at the same slot `s`.
    pub fn simultaneous(ids: &[StationId], s: Slot) -> Result<Self, PatternError> {
        Self::new(ids.iter().map(|&id| (id, s)).collect())
    }

    /// Station `i` (in the given order) wakes at `s + i·gap`.
    pub fn staggered(ids: &[StationId], s: Slot, gap: Slot) -> Result<Self, PatternError> {
        Self::new(
            ids.iter()
                .enumerate()
                .map(|(i, &id)| (id, s + i as Slot * gap))
                .collect(),
        )
    }

    /// Each station wakes at an independent uniform slot in `[s, s+window)`;
    /// at least one station is forced to wake exactly at `s` so that `s`
    /// really is the first wake-up (the paper measures latency from `s`).
    pub fn uniform_window<R: Rng>(
        ids: &[StationId],
        s: Slot,
        window: Slot,
        rng: &mut R,
    ) -> Result<Self, PatternError> {
        let window = window.max(1);
        let mut wakes: Vec<(StationId, Slot)> = ids
            .iter()
            .map(|&id| (id, s + rng.gen_range(0..window)))
            .collect();
        if let Some(first) = wakes.iter_mut().min_by_key(|(_, t)| *t) {
            first.1 = s;
        }
        Self::new(wakes)
    }

    /// Bursts: `sizes[j]` stations wake simultaneously at `s + j·gap`.
    /// `ids` must contain at least `sizes.iter().sum()` stations.
    pub fn batches(
        ids: &[StationId],
        s: Slot,
        gap: Slot,
        sizes: &[usize],
    ) -> Result<Self, PatternError> {
        let total: usize = sizes.iter().sum();
        assert!(
            ids.len() >= total,
            "batches: need {total} ids, got {}",
            ids.len()
        );
        let mut wakes = Vec::with_capacity(total);
        let mut next = 0usize;
        for (j, &sz) in sizes.iter().enumerate() {
            for _ in 0..sz {
                wakes.push((ids[next], s + j as Slot * gap));
                next += 1;
            }
        }
        Self::new(wakes)
    }

    /// Trickle arrivals: the first station wakes at `s`, each next station
    /// wakes after a geometric gap with success probability `p` (expected gap
    /// `1/p` slots).
    pub fn trickle<R: Rng>(
        ids: &[StationId],
        s: Slot,
        p: f64,
        rng: &mut R,
    ) -> Result<Self, PatternError> {
        assert!(p > 0.0 && p <= 1.0, "trickle: p must be in (0, 1]");
        let mut t = s;
        let mut wakes = Vec::with_capacity(ids.len());
        for (i, &id) in ids.iter().enumerate() {
            if i > 0 {
                // Geometric(p) ≥ 1, sampled by inversion.
                let u: f64 = rng.gen_range(0.0..1.0);
                let gap = ((1.0 - u).ln() / (1.0 - p).max(f64::MIN_POSITIVE).ln()).ceil();
                let gap = if p >= 1.0 { 1 } else { gap.max(1.0) as Slot };
                t = t.saturating_add(gap);
            }
            wakes.push((id, t));
        }
        Self::new(wakes)
    }

    /// The `(station, wake slot)` pairs, sorted by wake slot then ID.
    ///
    /// # Panics
    ///
    /// Panics for block patterns, which deliberately never hold per-station
    /// pairs; use [`batches`](Self::batches) or
    /// [`materialize`](Self::materialize) instead.
    #[inline]
    pub fn wakes(&self) -> &[(StationId, Slot)] {
        assert!(
            self.blocks.is_none(),
            "wakes(): block pattern has no explicit pairs; use batches() or materialize()"
        );
        &self.wakes
    }

    /// Whether this pattern uses the O(blocks) representation.
    #[inline]
    pub fn is_blocks(&self) -> bool {
        self.blocks.is_some()
    }

    /// Number of stations that ever wake (the pattern's `k`).
    #[inline]
    pub fn k(&self) -> usize {
        match &self.blocks {
            Some(bs) => bs.iter().map(|b| (b.hi - b.lo) as usize).sum(),
            None => self.wakes.len(),
        }
    }

    /// The first slot at which some station is awake — the paper's `s`.
    #[inline]
    pub fn s(&self) -> Slot {
        match &self.blocks {
            Some(bs) => bs[0].slot,
            None => self.wakes[0].1,
        }
    }

    /// The last wake-up slot in the pattern.
    #[inline]
    pub fn last_wake(&self) -> Slot {
        match &self.blocks {
            Some(bs) => bs.last().unwrap().slot,
            None => self.wakes.iter().map(|&(_, t)| t).max().unwrap(),
        }
    }

    /// One past the largest station ID in the pattern (for `id < n` checks).
    pub fn max_id_bound(&self) -> u32 {
        match &self.blocks {
            Some(bs) => bs.iter().map(|b| b.hi).max().unwrap(),
            None => self.wakes.iter().map(|&(id, _)| id.0 + 1).max().unwrap(),
        }
    }

    /// The first waking station (in wake order) with ID `≥ n`, if any —
    /// the engine's `id < n` validation, O(pattern) for both
    /// representations.
    pub fn out_of_range(&self, n: u32) -> Option<StationId> {
        match &self.blocks {
            Some(bs) => bs.iter().find(|b| b.hi > n).map(|b| StationId(b.lo.max(n))),
            None => self.wakes.iter().map(|&(id, _)| id).find(|id| id.0 >= n),
        }
    }

    /// The wake slot of `id`, if it ever wakes.
    pub fn wake_of(&self, id: StationId) -> Option<Slot> {
        match &self.blocks {
            Some(bs) => bs
                .iter()
                .find(|b| b.lo <= id.0 && id.0 < b.hi)
                .map(|b| b.slot),
            None => self.wakes.iter().find(|&&(i, _)| i == id).map(|&(_, t)| t),
        }
    }

    /// Replace the wake slot of `id` (used by the spoiler adversary).
    /// Returns `false` if `id` is not in the pattern.
    ///
    /// # Panics
    ///
    /// Panics for block patterns (the spoiler adversary operates on explicit
    /// patterns only).
    pub fn reschedule(&mut self, id: StationId, new_slot: Slot) -> bool {
        assert!(
            self.blocks.is_none(),
            "reschedule(): unsupported on block patterns"
        );
        let Some(pos) = self.wakes.iter().position(|&(i, _)| i == id) else {
            return false;
        };
        self.wakes[pos].1 = new_slot;
        self.wakes.sort_by_key(|&(id, t)| (t, id));
        true
    }

    /// The set of stations awake at slot `t` (woken at or before `t`).
    ///
    /// For block patterns this enumerates every awake station — O(k), not
    /// O(blocks) — so it is meant for tests and small patterns only.
    pub fn awake_at(&self, t: Slot) -> Vec<StationId> {
        match &self.blocks {
            Some(bs) => {
                let mut ids: Vec<StationId> = bs
                    .iter()
                    .filter(|b| b.slot <= t)
                    .flat_map(|b| (b.lo..b.hi).map(StationId))
                    .collect();
                ids.sort_unstable();
                ids
            }
            None => self
                .wakes
                .iter()
                .filter(|&&(_, w)| w <= t)
                .map(|&(id, _)| id)
                .collect(),
        }
    }

    /// The pattern as per-slot wake batches, in ascending slot order — the
    /// class engine's view. Each batch holds the [`Members`] that wake at
    /// that slot. O(runs) memory for both representations.
    pub fn batches_by_slot(&self) -> Vec<(Slot, Members)> {
        match &self.blocks {
            Some(bs) => {
                let mut out: Vec<(Slot, Members)> = Vec::new();
                let mut i = 0;
                while i < bs.len() {
                    let slot = bs[i].slot;
                    let mut runs: Vec<(u32, u32)> = Vec::new();
                    while i < bs.len() && bs[i].slot == slot {
                        runs.push((bs[i].lo, bs[i].hi));
                        i += 1;
                    }
                    runs.sort_unstable();
                    out.push((slot, Members::from_runs(runs)));
                }
                out
            }
            None => {
                let mut out: Vec<(Slot, Members)> = Vec::new();
                let mut i = 0;
                while i < self.wakes.len() {
                    let slot = self.wakes[i].1;
                    let mut ids: Vec<StationId> = Vec::new();
                    while i < self.wakes.len() && self.wakes[i].1 == slot {
                        ids.push(self.wakes[i].0);
                        i += 1;
                    }
                    ids.sort_unstable();
                    out.push((slot, Members::from_sorted_ids(&ids)));
                }
                out
            }
        }
    }

    /// Materialize explicit `(station, wake slot)` pairs, sorted by
    /// (slot, id) — what the concrete engine iterates. O(k) memory for block
    /// patterns (documented cost of running a mega pattern concretely).
    pub fn materialize(&self) -> std::borrow::Cow<'_, [(StationId, Slot)]> {
        match &self.blocks {
            Some(bs) => {
                let mut wakes: Vec<(StationId, Slot)> = bs
                    .iter()
                    .flat_map(|b| (b.lo..b.hi).map(move |id| (StationId(id), b.slot)))
                    .collect();
                wakes.sort_by_key(|&(id, t)| (t, id));
                std::borrow::Cow::Owned(wakes)
            }
            None => std::borrow::Cow::Borrowed(&self.wakes),
        }
    }
}

/// Strategies for choosing *which* `k` of the `n` stations wake.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IdChoice {
    /// IDs `0, 1, …, k-1` (a contiguous block — adversarial for round-robin
    /// when combined with a wake just after each turn passes).
    FirstK,
    /// IDs `n-k, …, n-1` (the block round-robin reaches last).
    LastK,
    /// `k` IDs evenly spread over `[0, n)`.
    Spread,
    /// A uniformly random `k`-subset of `[0, n)`.
    Random,
}

impl IdChoice {
    /// Materialize the choice of `k` station IDs out of `n`.
    ///
    /// Panics if `k > n` (a pattern may not wake more stations than exist).
    pub fn pick<R: Rng>(self, n: u32, k: usize, rng: &mut R) -> Vec<StationId> {
        assert!(k as u64 <= n as u64, "IdChoice: k={k} > n={n}");
        match self {
            IdChoice::FirstK => (0..k as u32).map(StationId).collect(),
            IdChoice::LastK => (n - k as u32..n).map(StationId).collect(),
            IdChoice::Spread => (0..k)
                .map(|i| StationId(((i as u64 * n as u64) / k.max(1) as u64) as u32))
                .collect(),
            IdChoice::Random => {
                let mut all: Vec<u32> = (0..n).collect();
                all.shuffle(rng);
                all.truncate(k);
                all.sort_unstable();
                all.into_iter().map(StationId).collect()
            }
        }
    }
}

/// One station's scripted fate: crash at a slot, optionally re-wake later.
///
/// A crash is processed at the top of the crashed slot — the station is
/// replaced by an inert listener *before* it can transmit in that slot. A
/// station that crashes in the same slot it wakes therefore never transmits
/// at all. `rewake: None` is a permanent leave.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChurnEntry {
    /// The station this entry applies to.
    pub id: StationId,
    /// The slot at which the station crashes (clamped to its wake slot if
    /// earlier — a station cannot crash before it exists).
    pub crash: Slot,
    /// If `Some(t)`, the station re-wakes at slot `t` with a fresh protocol
    /// state (it lost everything in the crash). Must be strictly after
    /// `crash`.
    pub rewake: Option<Slot>,
}

/// Seed-driven random churn: each waking station independently crashes with
/// probability `crash_ppm` ppm, at a uniform slot within `lifetime` slots of
/// waking, and (optionally) re-wakes a fixed delay later.
///
/// Fates are a pure function of `(run_seed, station id, wake slot)` — no
/// engine-path or thread-count dependence — drawn from the dedicated
/// [`CHURN_STREAM`] so they never correlate with protocol randomness.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RandomChurn {
    /// Per-station crash probability in parts-per-million.
    pub crash_ppm: u32,
    /// Crashes land uniformly in `wake + 1 ..= wake + lifetime`.
    pub lifetime: Slot,
    /// If `Some(d)`, every crashed station re-wakes `d` slots after its
    /// crash; `None` makes every crash a permanent leave.
    pub rewake_after: Option<u64>,
}

/// Errors constructing a [`ChurnScript`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ChurnError {
    /// The same station has two scripted fates.
    DuplicateStation(StationId),
    /// A scripted re-wake is not strictly after its crash.
    RewakeNotAfterCrash(StationId),
    /// Random churn with a zero crash window.
    ZeroLifetime,
    /// Random churn with a zero re-wake delay (a station cannot re-wake in
    /// the slot it crashes).
    ZeroRewakeDelay,
}

impl std::fmt::Display for ChurnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChurnError::DuplicateStation(id) => {
                write!(f, "station {id} has more than one churn entry")
            }
            ChurnError::RewakeNotAfterCrash(id) => {
                write!(f, "station {id}: re-wake slot must be after the crash slot")
            }
            ChurnError::ZeroLifetime => write!(f, "random churn: lifetime must be ≥ 1"),
            ChurnError::ZeroRewakeDelay => {
                write!(f, "random churn: rewake_after must be ≥ 1")
            }
        }
    }
}

impl std::error::Error for ChurnError {}

/// The adversary's churn choice for a run: which stations crash when, and
/// whether they come back. The default ([`ChurnScript::none`]) is completely
/// inert and gated out of every engine hot path.
///
/// Explicit [`ChurnEntry`]s take precedence over the [`RandomChurn`] draw
/// for their station.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ChurnScript {
    /// Explicit per-station fates, sorted by ID.
    entries: Vec<ChurnEntry>,
    /// Seed-driven fate for every station without an explicit entry.
    random: Option<RandomChurn>,
}

impl ChurnScript {
    /// No churn at all — identical to not threading a script through the
    /// engine.
    #[inline]
    pub fn none() -> Self {
        ChurnScript::default()
    }

    /// A script of explicit per-station fates.
    pub fn scripted(mut entries: Vec<ChurnEntry>) -> Result<Self, ChurnError> {
        entries.sort_by_key(|e| e.id);
        for w in entries.windows(2) {
            if w[0].id == w[1].id {
                return Err(ChurnError::DuplicateStation(w[1].id));
            }
        }
        for e in &entries {
            if let Some(r) = e.rewake {
                if r <= e.crash {
                    return Err(ChurnError::RewakeNotAfterCrash(e.id));
                }
            }
        }
        Ok(ChurnScript {
            entries,
            random: None,
        })
    }

    /// Seed-driven random churn for every waking station.
    pub fn random(rc: RandomChurn) -> Result<Self, ChurnError> {
        if rc.lifetime == 0 {
            return Err(ChurnError::ZeroLifetime);
        }
        if rc.rewake_after == Some(0) {
            return Err(ChurnError::ZeroRewakeDelay);
        }
        Ok(ChurnScript {
            entries: Vec::new(),
            random: Some(rc),
        })
    }

    /// Add explicit entries on top of a random script (entries win for their
    /// station).
    pub fn with_entries(mut self, entries: Vec<ChurnEntry>) -> Result<Self, ChurnError> {
        let random = self.random.take();
        let mut s = ChurnScript::scripted(entries)?;
        s.random = random;
        Ok(s)
    }

    /// `true` iff this script can never crash anything.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty() && self.random.is_none_or(|rc| rc.crash_ppm == 0)
    }

    /// The explicit per-station entries, sorted by ID.
    #[inline]
    pub fn entries(&self) -> &[ChurnEntry] {
        &self.entries
    }

    /// The random-churn component, if any.
    #[inline]
    pub fn random_churn(&self) -> Option<RandomChurn> {
        self.random
    }

    /// The fate of station `id` waking at `wake`: `Some((crash, rewake))` if
    /// it crashes, `None` if it lives out the run.
    ///
    /// Pure in `(run_seed, id, wake)` — identical across engine paths and
    /// thread counts. Scripted crashes are clamped to the wake slot (a crash
    /// cannot precede existence) with the re-wake pushed after the clamped
    /// crash.
    pub fn fate(&self, run_seed: u64, id: StationId, wake: Slot) -> Option<(Slot, Option<Slot>)> {
        if let Ok(pos) = self.entries.binary_search_by_key(&id, |e| e.id) {
            let e = self.entries[pos];
            let crash = e.crash.max(wake);
            let rewake = e.rewake.map(|r| r.max(crash + 1));
            return Some((crash, rewake));
        }
        let rc = self.random?;
        if rc.crash_ppm == 0 {
            return None;
        }
        let h = derive_seed(derive_seed(run_seed, CHURN_STREAM), u64::from(id.0));
        if h % 1_000_000 >= u64::from(rc.crash_ppm) {
            return None;
        }
        let crash = wake + 1 + derive_seed(h, 1) % rc.lifetime;
        let rewake = rc.rewake_after.map(|d| crash + d);
        Some((crash, rewake))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn ids(v: &[u32]) -> Vec<StationId> {
        v.iter().copied().map(StationId).collect()
    }

    #[test]
    fn new_rejects_duplicates_and_empty() {
        assert_eq!(WakePattern::new(vec![]), Err(PatternError::Empty));
        let err = WakePattern::new(vec![(StationId(1), 0), (StationId(1), 3)]);
        assert_eq!(err, Err(PatternError::DuplicateStation(StationId(1))));
    }

    #[test]
    fn new_sorts_by_slot_then_id() {
        let p = WakePattern::new(vec![
            (StationId(9), 5),
            (StationId(1), 2),
            (StationId(3), 2),
        ])
        .unwrap();
        assert_eq!(
            p.wakes(),
            &[(StationId(1), 2), (StationId(3), 2), (StationId(9), 5)]
        );
        assert_eq!(p.s(), 2);
        assert_eq!(p.last_wake(), 5);
        assert_eq!(p.k(), 3);
    }

    #[test]
    fn simultaneous_all_wake_at_s() {
        let p = WakePattern::simultaneous(&ids(&[4, 2, 7]), 11).unwrap();
        assert!(p.wakes().iter().all(|&(_, t)| t == 11));
        assert_eq!(p.s(), 11);
    }

    #[test]
    fn staggered_is_arithmetic() {
        let p = WakePattern::staggered(&ids(&[0, 1, 2]), 10, 4).unwrap();
        assert_eq!(p.wake_of(StationId(0)), Some(10));
        assert_eq!(p.wake_of(StationId(1)), Some(14));
        assert_eq!(p.wake_of(StationId(2)), Some(18));
        assert_eq!(p.wake_of(StationId(9)), None);
    }

    #[test]
    fn uniform_window_pins_first_wake_to_s() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        for _ in 0..20 {
            let p = WakePattern::uniform_window(&ids(&[0, 1, 2, 3]), 100, 50, &mut rng).unwrap();
            assert_eq!(p.s(), 100);
            assert!(p.last_wake() < 150);
        }
    }

    #[test]
    fn batches_layout() {
        let p = WakePattern::batches(&ids(&[0, 1, 2, 3, 4]), 0, 10, &[2, 3]).unwrap();
        assert_eq!(p.awake_at(0), ids(&[0, 1]));
        assert_eq!(p.awake_at(9), ids(&[0, 1]));
        assert_eq!(p.awake_at(10).len(), 5);
    }

    #[test]
    fn trickle_is_strictly_increasing_with_p_one() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let p = WakePattern::trickle(&ids(&[0, 1, 2]), 5, 1.0, &mut rng).unwrap();
        assert_eq!(
            p.wakes(),
            &[(StationId(0), 5), (StationId(1), 6), (StationId(2), 7)]
        );
    }

    #[test]
    fn trickle_gaps_scale_with_inverse_p() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let p = WakePattern::trickle(&ids(&(0..50).collect::<Vec<_>>()), 0, 0.1, &mut rng).unwrap();
        let span = p.last_wake() - p.s();
        // 49 gaps of expected length 10 ⇒ span ≈ 490; allow generous slack.
        assert!(span > 150, "span {span} suspiciously small");
        assert!(span < 2000, "span {span} suspiciously large");
    }

    #[test]
    fn reschedule_moves_and_resorts() {
        let mut p = WakePattern::simultaneous(&ids(&[0, 1]), 0).unwrap();
        assert!(p.reschedule(StationId(0), 100));
        assert_eq!(p.wakes(), &[(StationId(1), 0), (StationId(0), 100)]);
        assert!(!p.reschedule(StationId(9), 5));
    }

    #[test]
    fn awake_at_respects_wake_times() {
        let p = WakePattern::staggered(&ids(&[0, 1]), 10, 5).unwrap();
        assert!(p.awake_at(9).is_empty());
        assert_eq!(p.awake_at(10), ids(&[0]));
        assert_eq!(p.awake_at(15), ids(&[0, 1]));
    }

    #[test]
    fn id_choice_first_last_spread() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        assert_eq!(IdChoice::FirstK.pick(10, 3, &mut rng), ids(&[0, 1, 2]));
        assert_eq!(IdChoice::LastK.pick(10, 3, &mut rng), ids(&[7, 8, 9]));
        let spread = IdChoice::Spread.pick(12, 4, &mut rng);
        assert_eq!(spread, ids(&[0, 3, 6, 9]));
    }

    #[test]
    fn id_choice_random_is_a_k_subset() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let picked = IdChoice::Random.pick(100, 10, &mut rng);
        assert_eq!(picked.len(), 10);
        let set: std::collections::BTreeSet<_> = picked.iter().collect();
        assert_eq!(set.len(), 10);
        assert!(picked.iter().all(|id| id.0 < 100));
    }

    #[test]
    #[should_panic(expected = "k=11 > n=10")]
    fn id_choice_panics_when_k_exceeds_n() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        IdChoice::FirstK.pick(10, 11, &mut rng);
    }

    #[test]
    fn block_pattern_accessors() {
        let p = WakePattern::range(0, 1 << 20, 7).unwrap();
        assert!(p.is_blocks());
        assert_eq!(p.k(), 1 << 20);
        assert_eq!(p.s(), 7);
        assert_eq!(p.last_wake(), 7);
        assert_eq!(p.max_id_bound(), 1 << 20);
        assert_eq!(p.wake_of(StationId(0)), Some(7));
        assert_eq!(p.wake_of(StationId((1 << 20) - 1)), Some(7));
        assert_eq!(p.wake_of(StationId(1 << 20)), None);
    }

    #[test]
    fn block_pattern_validation() {
        assert_eq!(WakePattern::from_blocks(vec![]), Err(PatternError::Empty));
        assert_eq!(
            WakePattern::range(5, 5, 0),
            Err(PatternError::Empty),
            "empty block"
        );
        let overlap = WakePattern::from_blocks(vec![
            WakeBlock {
                slot: 0,
                lo: 0,
                hi: 10,
            },
            WakeBlock {
                slot: 4,
                lo: 8,
                hi: 12,
            },
        ]);
        assert_eq!(overlap, Err(PatternError::DuplicateStation(StationId(8))));
    }

    #[test]
    #[should_panic(expected = "block pattern has no explicit pairs")]
    fn block_pattern_wakes_panics() {
        let p = WakePattern::range(0, 4, 0).unwrap();
        let _ = p.wakes();
    }

    #[test]
    fn block_pattern_batches_and_materialize_agree_with_explicit() {
        let blocks = WakePattern::from_blocks(vec![
            WakeBlock {
                slot: 3,
                lo: 6,
                hi: 9,
            },
            WakeBlock {
                slot: 0,
                lo: 0,
                hi: 2,
            },
            WakeBlock {
                slot: 0,
                lo: 4,
                hi: 6,
            },
        ])
        .unwrap();
        let explicit = WakePattern::new(
            blocks
                .materialize()
                .iter()
                .copied()
                .collect::<Vec<(StationId, Slot)>>(),
        )
        .unwrap();
        assert_eq!(blocks.batches_by_slot(), explicit.batches_by_slot());
        assert_eq!(blocks.materialize().as_ref(), explicit.wakes());
        assert_eq!(blocks.k(), explicit.k());
        assert_eq!(blocks.awake_at(0), explicit.awake_at(0));
        assert_eq!(blocks.awake_at(3), explicit.awake_at(3));
        let batches = blocks.batches_by_slot();
        assert_eq!(batches.len(), 2);
        assert_eq!(batches[0].0, 0);
        assert_eq!(batches[0].1.count(), 4);
        assert_eq!(batches[1].0, 3);
        assert_eq!(batches[1].1.count(), 3);
    }

    #[test]
    fn explicit_pattern_batches_group_by_slot() {
        let p = WakePattern::new(vec![
            (StationId(5), 2),
            (StationId(0), 0),
            (StationId(1), 0),
            (StationId(6), 2),
        ])
        .unwrap();
        let batches = p.batches_by_slot();
        assert_eq!(batches.len(), 2);
        assert_eq!(batches[0], (0, Members::range(0, 2)));
        assert_eq!(batches[1], (2, Members::range(5, 7)));
    }

    #[test]
    fn churn_none_is_empty_and_fateless() {
        let s = ChurnScript::none();
        assert!(s.is_empty());
        assert_eq!(s, ChurnScript::default());
        for id in 0..64 {
            assert_eq!(s.fate(42, StationId(id), 0), None);
        }
    }

    #[test]
    fn churn_scripted_validation() {
        let dup = ChurnScript::scripted(vec![
            ChurnEntry {
                id: StationId(1),
                crash: 5,
                rewake: None,
            },
            ChurnEntry {
                id: StationId(1),
                crash: 9,
                rewake: None,
            },
        ]);
        assert_eq!(dup, Err(ChurnError::DuplicateStation(StationId(1))));
        let bad_rewake = ChurnScript::scripted(vec![ChurnEntry {
            id: StationId(2),
            crash: 5,
            rewake: Some(5),
        }]);
        assert_eq!(
            bad_rewake,
            Err(ChurnError::RewakeNotAfterCrash(StationId(2)))
        );
        assert_eq!(
            ChurnScript::random(RandomChurn {
                crash_ppm: 1,
                lifetime: 0,
                rewake_after: None,
            }),
            Err(ChurnError::ZeroLifetime)
        );
        assert_eq!(
            ChurnScript::random(RandomChurn {
                crash_ppm: 1,
                lifetime: 10,
                rewake_after: Some(0),
            }),
            Err(ChurnError::ZeroRewakeDelay)
        );
    }

    #[test]
    fn churn_scripted_fate_clamps_to_wake() {
        let s = ChurnScript::scripted(vec![ChurnEntry {
            id: StationId(3),
            crash: 5,
            rewake: Some(6),
        }])
        .unwrap();
        assert!(!s.is_empty());
        // Wake after the scripted crash: crash clamps to the wake slot and
        // the re-wake is pushed past the clamped crash.
        assert_eq!(s.fate(0, StationId(3), 10), Some((10, Some(11))));
        // Wake before the crash: the script applies verbatim.
        assert_eq!(s.fate(0, StationId(3), 0), Some((5, Some(6))));
        // Other stations are untouched.
        assert_eq!(s.fate(0, StationId(4), 0), None);
    }

    #[test]
    fn churn_random_fate_is_pure_and_rate_bounded() {
        let rc = RandomChurn {
            crash_ppm: 500_000,
            lifetime: 100,
            rewake_after: Some(7),
        };
        let s = ChurnScript::random(rc).unwrap();
        assert!(!s.is_empty());
        let mut crashed = 0;
        for id in 0..512 {
            let a = s.fate(11, StationId(id), 20);
            let b = s.fate(11, StationId(id), 20);
            assert_eq!(a, b, "fate must be pure in (seed, id, wake)");
            if let Some((crash, rewake)) = a {
                crashed += 1;
                assert!((21..=120).contains(&crash), "crash {crash} out of window");
                assert_eq!(rewake, Some(crash + 7));
            }
        }
        // ~50% rate: strictly between never and always.
        assert!((100..412).contains(&crashed), "crashed {crashed}/512");
        // A different seed crashes a different subset.
        let other: Vec<_> = (0..512)
            .map(|id| s.fate(12, StationId(id), 20).is_some())
            .collect();
        let this: Vec<_> = (0..512)
            .map(|id| s.fate(11, StationId(id), 20).is_some())
            .collect();
        assert_ne!(this, other);
    }

    #[test]
    fn churn_zero_ppm_random_is_empty() {
        let s = ChurnScript::random(RandomChurn {
            crash_ppm: 0,
            lifetime: 10,
            rewake_after: None,
        })
        .unwrap();
        assert!(s.is_empty());
        assert_eq!(s.fate(1, StationId(0), 0), None);
    }

    #[test]
    fn churn_entries_override_random() {
        let s = ChurnScript::random(RandomChurn {
            crash_ppm: 1_000_000,
            lifetime: 50,
            rewake_after: None,
        })
        .unwrap()
        .with_entries(vec![ChurnEntry {
            id: StationId(7),
            crash: 3,
            rewake: Some(9),
        }])
        .unwrap();
        // The explicit entry wins for station 7 ...
        assert_eq!(s.fate(5, StationId(7), 0), Some((3, Some(9))));
        // ... while everyone else still gets the certain random crash.
        assert!(s.fate(5, StationId(8), 0).is_some());
    }

    #[test]
    fn adjacent_blocks_coalesce_in_batches() {
        let p = WakePattern::from_blocks(vec![
            WakeBlock {
                slot: 1,
                lo: 0,
                hi: 5,
            },
            WakeBlock {
                slot: 1,
                lo: 5,
                hi: 9,
            },
        ])
        .unwrap();
        let batches = p.batches_by_slot();
        assert_eq!(batches, vec![(1, Members::range(0, 9))]);
    }
}
