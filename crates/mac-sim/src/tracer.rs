//! Structured event tracing for the engine's hot paths.
//!
//! A [`Tracer`] receives [`TraceEvent`]s as the engine simulates: slot
//! outcomes, hint re-queries, adaptive mode switches, burst windows, class
//! splits, and heap/live-unit watermarks. The engine run loops are generic
//! over the tracer, so the default [`NoopTracer`] monomorphizes every
//! emission site away — an untraced run pays nothing for the subsystem.
//!
//! Event kinds split into two determinism tiers (the discipline the
//! machine-readable sinks already follow for wall-clock fields):
//!
//! * **Deterministic** kinds ([`TraceKind::deterministic`] — wakes, coalesced
//!   silence runs, successes, collisions, run end) describe the *channel*,
//!   which every engine resolves identically. For a fixed seed the
//!   deterministic event stream is bit-identical across
//!   [`EngineMode`](crate::engine::EngineMode)s, population modes, and — when
//!   an ensemble folds per-run traces in seed order — thread counts. Traces
//!   restricted to these kinds are diffable artifacts.
//! * **Engine** kinds (hint re-queries, mode switches, burst windows, class
//!   splits, watermarks) describe *how* a particular engine got there, and
//!   legitimately differ across engine and population modes. Writers keep
//!   them out of deterministic streams (see
//!   [`TraceFilter::deterministic`]).
//!
//! Consecutive silent slots are coalesced into single
//! [`TraceEvent::Silence`] runs *before* they reach the tracer, so a sparse
//! engine skipping a million-slot gap and a dense engine polling through it
//! emit the same one event.
//!
//! Sampling: every tracer applies its [`TraceFilter`], which combines a kind
//! mask (cheap pre-filter, consulted by the engine *before* an event is even
//! constructed) with keep-every-Nth sampling on **per-kind** counters — so a
//! torrent of silence runs cannot starve rare mode switches out of a sampled
//! stream, and a sampled stream is always a strict subsequence of the
//! unsampled one.

// Panic-free hot path: the slot loop and trace emission are total.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::indexing_slicing
)]

use crate::ids::{Slot, StationId};
use std::fmt::Write as _;

/// The kind of a [`TraceEvent`] — the unit of filtering and sampling.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TraceKind {
    /// Stations woke (deterministic).
    Wake,
    /// A run of consecutive silent slots (deterministic).
    Silence,
    /// A successful transmission (deterministic).
    Success,
    /// A collision (deterministic).
    Collision,
    /// End of run (deterministic).
    RunEnd,
    /// The engine re-queried transmission hints (engine-specific).
    HintRequery,
    /// The adaptive policy switched sparse↔dense (engine-specific).
    ModeSwitch,
    /// A dense burst window opened or grew (engine-specific).
    BurstOpen,
    /// A dense burst window closed — sparsity resumed (engine-specific).
    BurstClose,
    /// An equivalence class split off new units (engine-specific).
    ClassSplit,
    /// Heap size / live-unit high-water advanced (engine-specific).
    Watermark,
    /// The channel erased a successful transmission to silence
    /// (deterministic: faults are pure in `(run_seed, slot)`).
    FaultErasure,
    /// The channel captured a collision as one contender's success
    /// (deterministic).
    FaultCapture,
    /// A station crashed per the churn script (deterministic: fates are
    /// pure in `(run_seed, id, wake slot)`).
    ChurnCrash,
    /// A crashed station re-woke with fresh state (deterministic).
    ChurnRewake,
}

/// Number of distinct [`TraceKind`]s.
pub const KIND_COUNT: usize = 15;

impl TraceKind {
    /// Every kind, in index order.
    pub const ALL: [TraceKind; KIND_COUNT] = [
        TraceKind::Wake,
        TraceKind::Silence,
        TraceKind::Success,
        TraceKind::Collision,
        TraceKind::RunEnd,
        TraceKind::HintRequery,
        TraceKind::ModeSwitch,
        TraceKind::BurstOpen,
        TraceKind::BurstClose,
        TraceKind::ClassSplit,
        TraceKind::Watermark,
        TraceKind::FaultErasure,
        TraceKind::FaultCapture,
        TraceKind::ChurnCrash,
        TraceKind::ChurnRewake,
    ];

    /// Dense index of this kind (for per-kind counters).
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// The `ev` field value in the JSONL rendering.
    pub fn name(self) -> &'static str {
        match self {
            TraceKind::Wake => "wake",
            TraceKind::Silence => "silence",
            TraceKind::Success => "success",
            TraceKind::Collision => "collision",
            TraceKind::RunEnd => "run_end",
            TraceKind::HintRequery => "hint_requery",
            TraceKind::ModeSwitch => "mode_switch",
            TraceKind::BurstOpen => "burst_open",
            TraceKind::BurstClose => "burst_close",
            TraceKind::ClassSplit => "class_split",
            TraceKind::Watermark => "watermark",
            TraceKind::FaultErasure => "fault_erasure",
            TraceKind::FaultCapture => "fault_capture",
            TraceKind::ChurnCrash => "churn_crash",
            TraceKind::ChurnRewake => "churn_rewake",
        }
    }

    /// Look a kind up by its [`name`](TraceKind::name).
    pub fn parse(name: &str) -> Option<TraceKind> {
        TraceKind::ALL.iter().copied().find(|k| k.name() == name)
    }

    /// `true` for the channel-observable kinds whose streams are
    /// bit-identical across engines and population modes for a fixed seed.
    /// Fault and churn events qualify: faults are pure functions of
    /// `(run_seed, slot)` and churn fates of `(run_seed, id, wake)`, so
    /// every engine path sees the same events at the same slots.
    #[inline]
    pub fn deterministic(self) -> bool {
        matches!(
            self,
            TraceKind::Wake
                | TraceKind::Silence
                | TraceKind::Success
                | TraceKind::Collision
                | TraceKind::RunEnd
                | TraceKind::FaultErasure
                | TraceKind::FaultCapture
                | TraceKind::ChurnCrash
                | TraceKind::ChurnRewake
        )
    }
}

/// What opened a burst window ([`TraceEvent::BurstOpen`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BurstCause {
    /// A batch arrival with an obligation due at once.
    Wake,
    /// A streak of back-to-back sparse collision events.
    Streak,
    /// A failed re-probe doubled the window.
    Backoff,
}

impl BurstCause {
    /// Every cause, in declaration order.
    pub const ALL: [BurstCause; 3] = [BurstCause::Wake, BurstCause::Streak, BurstCause::Backoff];

    /// The `cause` field value in the JSONL rendering.
    pub fn name(self) -> &'static str {
        match self {
            BurstCause::Wake => "wake",
            BurstCause::Streak => "streak",
            BurstCause::Backoff => "backoff",
        }
    }

    /// Look a cause up by its [`name`](BurstCause::name).
    pub fn parse(name: &str) -> Option<BurstCause> {
        BurstCause::ALL.iter().copied().find(|c| c.name() == name)
    }
}

/// One engine event. All fields are integers (slots, counts, IDs) or
/// fixed names — no wall-clock, no floats — so renderings are bit-stable
/// by construction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// `stations` stations woke at `slot`.
    Wake {
        /// The wake slot.
        slot: Slot,
        /// How many stations woke this slot.
        stations: u64,
    },
    /// Slots `[slot, slot + slots)` were silent — skipped in bulk or polled
    /// individually, coalesced either way.
    Silence {
        /// First silent slot of the run.
        slot: Slot,
        /// Length of the silent run.
        slots: u64,
    },
    /// Station `winner` transmitted alone at `slot`.
    Success {
        /// The successful slot.
        slot: Slot,
        /// The sole transmitter.
        winner: StationId,
    },
    /// `contenders` stations transmitted simultaneously at `slot`.
    Collision {
        /// The collision slot.
        slot: Slot,
        /// Number of simultaneous transmitters.
        contenders: u64,
    },
    /// The run ended after covering `slots` slots.
    RunEnd {
        /// Total slots covered ([`Outcome::slots_simulated`](crate::engine::Outcome::slots_simulated)).
        slots: u64,
        /// The first successful slot, if the run solved wake-up.
        first_success: Option<Slot>,
    },
    /// The engine asked `queries` units for fresh transmission hints at
    /// `slot`.
    HintRequery {
        /// The slot the hints look from.
        slot: Slot,
        /// How many units were re-queried.
        queries: u64,
    },
    /// The engine switched execution path at `slot`.
    ModeSwitch {
        /// The slot of the switch.
        slot: Slot,
        /// `true`: sparse → dense; `false`: dense → sparse.
        dense: bool,
    },
    /// A dense burst window of `window` slots opened (or doubled on a
    /// failed re-probe) at `slot`.
    BurstOpen {
        /// The slot the window starts at.
        slot: Slot,
        /// The window length in slots.
        window: u64,
        /// What opened the window.
        cause: BurstCause,
    },
    /// The burst window closed at `slot`: a re-probe found a skippable gap.
    BurstClose {
        /// The slot sparsity resumed at.
        slot: Slot,
    },
    /// Class feedback at `slot` split `born` new units off their classes.
    ClassSplit {
        /// The feedback slot.
        slot: Slot,
        /// Number of newly created units.
        born: u64,
    },
    /// A memory high-water advanced at `slot`.
    Watermark {
        /// The slot of the new high-water.
        slot: Slot,
        /// Live heap entries (sparse event heap).
        heap: u64,
        /// Live simulation units (stations or classes).
        units: u64,
    },
    /// The channel erased `winner`'s solo transmission at `slot`.
    FaultErasure {
        /// The erased slot (recorded as silence).
        slot: Slot,
        /// The station whose success was lost.
        winner: StationId,
    },
    /// The channel captured a `contenders`-way collision at `slot` as
    /// `winner`'s success.
    FaultCapture {
        /// The captured slot (recorded as a success).
        slot: Slot,
        /// The surviving transmitter.
        winner: StationId,
        /// Ground-truth number of simultaneous transmitters.
        contenders: u64,
    },
    /// Station `id` crashed at `slot` per the churn script.
    ChurnCrash {
        /// The crash slot (the station is inert from this slot on).
        slot: Slot,
        /// The crashed station.
        id: StationId,
    },
    /// Station `id` re-woke at `slot` with fresh protocol state.
    ChurnRewake {
        /// The re-wake slot.
        slot: Slot,
        /// The re-woken station.
        id: StationId,
    },
}

impl TraceEvent {
    /// This event's kind.
    #[inline]
    pub fn kind(&self) -> TraceKind {
        match self {
            TraceEvent::Wake { .. } => TraceKind::Wake,
            TraceEvent::Silence { .. } => TraceKind::Silence,
            TraceEvent::Success { .. } => TraceKind::Success,
            TraceEvent::Collision { .. } => TraceKind::Collision,
            TraceEvent::RunEnd { .. } => TraceKind::RunEnd,
            TraceEvent::HintRequery { .. } => TraceKind::HintRequery,
            TraceEvent::ModeSwitch { .. } => TraceKind::ModeSwitch,
            TraceEvent::BurstOpen { .. } => TraceKind::BurstOpen,
            TraceEvent::BurstClose { .. } => TraceKind::BurstClose,
            TraceEvent::ClassSplit { .. } => TraceKind::ClassSplit,
            TraceEvent::Watermark { .. } => TraceKind::Watermark,
            TraceEvent::FaultErasure { .. } => TraceKind::FaultErasure,
            TraceEvent::FaultCapture { .. } => TraceKind::FaultCapture,
            TraceEvent::ChurnCrash { .. } => TraceKind::ChurnCrash,
            TraceEvent::ChurnRewake { .. } => TraceKind::ChurnRewake,
        }
    }

    /// The slot this event anchors to ([`RunEnd`](TraceEvent::RunEnd)
    /// anchors to its covered-slot count).
    pub fn slot(&self) -> Slot {
        match *self {
            TraceEvent::Wake { slot, .. }
            | TraceEvent::Silence { slot, .. }
            | TraceEvent::Success { slot, .. }
            | TraceEvent::Collision { slot, .. }
            | TraceEvent::HintRequery { slot, .. }
            | TraceEvent::ModeSwitch { slot, .. }
            | TraceEvent::BurstOpen { slot, .. }
            | TraceEvent::BurstClose { slot }
            | TraceEvent::ClassSplit { slot, .. }
            | TraceEvent::Watermark { slot, .. }
            | TraceEvent::FaultErasure { slot, .. }
            | TraceEvent::FaultCapture { slot, .. }
            | TraceEvent::ChurnCrash { slot, .. }
            | TraceEvent::ChurnRewake { slot, .. } => slot,
            TraceEvent::RunEnd { slots, .. } => slots,
        }
    }

    /// Render the JSON object *body* — `"ev":…` plus the kind's fields,
    /// without the surrounding braces, so writers can prepend context
    /// fields (run index, ensemble label) and stay valid flat JSON.
    pub fn json_fields(&self) -> String {
        let mut s = format!("\"ev\":\"{}\"", self.kind().name());
        match *self {
            TraceEvent::Wake { slot, stations } => {
                let _ = write!(s, ",\"slot\":{slot},\"stations\":{stations}");
            }
            TraceEvent::Silence { slot, slots } => {
                let _ = write!(s, ",\"slot\":{slot},\"slots\":{slots}");
            }
            TraceEvent::Success { slot, winner } => {
                let _ = write!(s, ",\"slot\":{slot},\"winner\":{}", winner.0);
            }
            TraceEvent::Collision { slot, contenders } => {
                let _ = write!(s, ",\"slot\":{slot},\"contenders\":{contenders}");
            }
            TraceEvent::RunEnd {
                slots,
                first_success,
            } => {
                let _ = write!(s, ",\"slots\":{slots},\"first_success\":");
                match first_success {
                    Some(t) => {
                        let _ = write!(s, "{t}");
                    }
                    None => s.push_str("null"),
                }
            }
            TraceEvent::HintRequery { slot, queries } => {
                let _ = write!(s, ",\"slot\":{slot},\"queries\":{queries}");
            }
            TraceEvent::ModeSwitch { slot, dense } => {
                let _ = write!(s, ",\"slot\":{slot},\"dense\":{dense}");
            }
            TraceEvent::BurstOpen {
                slot,
                window,
                cause,
            } => {
                let _ = write!(
                    s,
                    ",\"slot\":{slot},\"window\":{window},\"cause\":\"{}\"",
                    cause.name()
                );
            }
            TraceEvent::BurstClose { slot } => {
                let _ = write!(s, ",\"slot\":{slot}");
            }
            TraceEvent::ClassSplit { slot, born } => {
                let _ = write!(s, ",\"slot\":{slot},\"born\":{born}");
            }
            TraceEvent::Watermark { slot, heap, units } => {
                let _ = write!(s, ",\"slot\":{slot},\"heap\":{heap},\"units\":{units}");
            }
            TraceEvent::FaultErasure { slot, winner } => {
                let _ = write!(s, ",\"slot\":{slot},\"winner\":{}", winner.0);
            }
            TraceEvent::FaultCapture {
                slot,
                winner,
                contenders,
            } => {
                let _ = write!(
                    s,
                    ",\"slot\":{slot},\"winner\":{},\"contenders\":{contenders}",
                    winner.0
                );
            }
            TraceEvent::ChurnCrash { slot, id } => {
                let _ = write!(s, ",\"slot\":{slot},\"id\":{}", id.0);
            }
            TraceEvent::ChurnRewake { slot, id } => {
                let _ = write!(s, ",\"slot\":{slot},\"id\":{}", id.0);
            }
        }
        s
    }

    /// Render as one flat JSON object (one JSONL line, no newline).
    pub fn to_json(&self) -> String {
        format!("{{{}}}", self.json_fields())
    }
}

/// Kind mask + keep-every-Nth sampling configuration shared by all tracers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceFilter {
    mask: u32,
    every: u64,
}

impl TraceFilter {
    /// Admit every kind, unsampled.
    pub fn all() -> Self {
        TraceFilter {
            mask: (1u32 << KIND_COUNT) - 1,
            every: 1,
        }
    }

    /// Admit only the deterministic kinds (the diffable stream), unsampled.
    pub fn deterministic() -> Self {
        let mut mask = 0u32;
        for k in TraceKind::ALL {
            if k.deterministic() {
                mask |= 1 << k.index();
            }
        }
        TraceFilter { mask, every: 1 }
    }

    /// Admit only the engine-specific kinds, unsampled.
    pub fn engine_only() -> Self {
        TraceFilter {
            mask: Self::all().mask & !Self::deterministic().mask,
            every: 1,
        }
    }

    /// Keep only every `n`-th event **per kind** (`n = 0` is treated as 1).
    pub fn sample_every(mut self, n: u64) -> Self {
        self.every = n.max(1);
        self
    }

    /// The sampling stride.
    pub fn stride(&self) -> u64 {
        self.every
    }

    /// Does the mask admit `kind`? The engine consults this before even
    /// constructing an event payload.
    #[inline]
    pub fn admits(&self, kind: TraceKind) -> bool {
        self.mask & (1 << kind.index()) != 0
    }
}

impl Default for TraceFilter {
    fn default() -> Self {
        TraceFilter::all()
    }
}

/// Per-kind sampling counters (deterministic: they depend only on the event
/// stream, never on wall-clock).
#[derive(Clone, Copy, Debug, Default)]
struct SampleState {
    seen: [u64; KIND_COUNT],
}

impl SampleState {
    /// Count an event of `kind`; `true` iff it survives `filter`'s stride.
    #[inline]
    fn keep(&mut self, filter: &TraceFilter, kind: TraceKind) -> bool {
        let Some(seen) = self.seen.get_mut(kind.index()) else {
            return true;
        };
        let n = *seen;
        *seen += 1;
        n.is_multiple_of(filter.every)
    }
}

/// A sink for engine trace events.
///
/// `wants` is the hot-path gate: the engine calls it before constructing an
/// event, so a tracer that answers `false` costs one predictable branch.
/// The default implementation via [`NoopTracer`] monomorphizes both calls
/// away entirely.
pub trait Tracer {
    /// Does this tracer want events of `kind` at all?
    fn wants(&self, kind: TraceKind) -> bool;

    /// Record one event (only called after `wants(ev.kind())` was `true`).
    fn record(&mut self, ev: &TraceEvent);
}

impl<T: Tracer + ?Sized> Tracer for &mut T {
    #[inline]
    fn wants(&self, kind: TraceKind) -> bool {
        (**self).wants(kind)
    }

    #[inline]
    fn record(&mut self, ev: &TraceEvent) {
        (**self).record(ev);
    }
}

/// The default tracer: wants nothing, records nothing. Engine loops are
/// generic over the tracer, so every emission site guarded by
/// `wants(..) == false` compiles away under this type.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NoopTracer;

impl Tracer for NoopTracer {
    #[inline(always)]
    fn wants(&self, _kind: TraceKind) -> bool {
        false
    }

    #[inline(always)]
    fn record(&mut self, _ev: &TraceEvent) {}
}

/// An unbounded collecting tracer: every admitted (and sampled-in) event in
/// order. The building block for per-run trace capture in ensembles — each
/// run records into its own `RecordingTracer`, and the seed-ordered reducer
/// serializes them, which is what makes ensemble traces thread-count
/// independent.
#[derive(Clone, Debug)]
pub struct RecordingTracer {
    filter: TraceFilter,
    sample: SampleState,
    events: Vec<TraceEvent>,
}

impl RecordingTracer {
    /// Record every event of every kind.
    pub fn new() -> Self {
        Self::with_filter(TraceFilter::all())
    }

    /// Record under an explicit filter.
    pub fn with_filter(filter: TraceFilter) -> Self {
        RecordingTracer {
            filter,
            sample: SampleState::default(),
            events: Vec::new(),
        }
    }

    /// The recorded events, in emission order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Consume the tracer, yielding its events.
    pub fn into_events(self) -> Vec<TraceEvent> {
        self.events
    }
}

impl Default for RecordingTracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer for RecordingTracer {
    #[inline]
    fn wants(&self, kind: TraceKind) -> bool {
        self.filter.admits(kind)
    }

    fn record(&mut self, ev: &TraceEvent) {
        if self.sample.keep(&self.filter, ev.kind()) {
            self.events.push(*ev);
        }
    }
}

/// A transactional tracer wrapper: events are buffered and reach the inner
/// tracer only on [`flush`](BufferTracer::flush). The engine uses this for
/// runs it may abandon (the class engine's split-budget guard): an
/// abandoned attempt is [`discard`](BufferTracer::discard)ed, so the inner
/// tracer's stream shows only the run that actually produced the outcome.
///
/// Filtering and sampling stay with the inner tracer: `wants` forwards, so
/// only events the inner tracer would accept are buffered, and the flush
/// replays them through its `record` in original order.
#[derive(Debug)]
pub struct BufferTracer<'a, T: Tracer + ?Sized> {
    inner: &'a mut T,
    events: Vec<TraceEvent>,
}

impl<'a, T: Tracer + ?Sized> BufferTracer<'a, T> {
    /// Buffer events destined for `inner`.
    pub fn new(inner: &'a mut T) -> Self {
        BufferTracer {
            inner,
            events: Vec::new(),
        }
    }

    /// Commit: replay every buffered event into the inner tracer.
    pub fn flush(self) {
        for ev in &self.events {
            self.inner.record(ev);
        }
    }

    /// Abort: drop the buffered events without touching the inner tracer.
    pub fn discard(self) {}

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

impl<T: Tracer + ?Sized> Tracer for BufferTracer<'_, T> {
    #[inline]
    fn wants(&self, kind: TraceKind) -> bool {
        self.inner.wants(kind)
    }

    fn record(&mut self, ev: &TraceEvent) {
        self.events.push(*ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::Wake {
                slot: 3,
                stations: 2,
            },
            TraceEvent::Silence { slot: 4, slots: 10 },
            TraceEvent::Collision {
                slot: 14,
                contenders: 2,
            },
            TraceEvent::ModeSwitch {
                slot: 14,
                dense: true,
            },
            TraceEvent::Success {
                slot: 15,
                winner: StationId(7),
            },
            TraceEvent::RunEnd {
                slots: 13,
                first_success: Some(15),
            },
        ]
    }

    #[test]
    fn kind_index_matches_all_order() {
        for (i, k) in TraceKind::ALL.iter().enumerate() {
            assert_eq!(k.index(), i);
            assert_eq!(TraceKind::parse(k.name()), Some(*k));
        }
        assert_eq!(TraceKind::parse("nonsense"), None);
    }

    #[test]
    fn deterministic_kinds_are_the_channel_observables() {
        let det: Vec<TraceKind> = TraceKind::ALL
            .into_iter()
            .filter(|k| k.deterministic())
            .collect();
        assert_eq!(
            det,
            vec![
                TraceKind::Wake,
                TraceKind::Silence,
                TraceKind::Success,
                TraceKind::Collision,
                TraceKind::RunEnd,
                TraceKind::FaultErasure,
                TraceKind::FaultCapture,
                TraceKind::ChurnCrash,
                TraceKind::ChurnRewake,
            ]
        );
    }

    #[test]
    fn fault_and_churn_json_rendering() {
        assert_eq!(
            TraceEvent::FaultErasure {
                slot: 9,
                winner: StationId(4)
            }
            .to_json(),
            "{\"ev\":\"fault_erasure\",\"slot\":9,\"winner\":4}"
        );
        assert_eq!(
            TraceEvent::FaultCapture {
                slot: 10,
                winner: StationId(2),
                contenders: 3
            }
            .to_json(),
            "{\"ev\":\"fault_capture\",\"slot\":10,\"winner\":2,\"contenders\":3}"
        );
        assert_eq!(
            TraceEvent::ChurnCrash {
                slot: 11,
                id: StationId(5)
            }
            .to_json(),
            "{\"ev\":\"churn_crash\",\"slot\":11,\"id\":5}"
        );
        assert_eq!(
            TraceEvent::ChurnRewake {
                slot: 12,
                id: StationId(5)
            }
            .to_json(),
            "{\"ev\":\"churn_rewake\",\"slot\":12,\"id\":5}"
        );
    }

    #[test]
    fn json_rendering_is_flat_and_parsable_shape() {
        let ev = TraceEvent::Success {
            slot: 15,
            winner: StationId(7),
        };
        assert_eq!(
            ev.to_json(),
            "{\"ev\":\"success\",\"slot\":15,\"winner\":7}"
        );
        let end = TraceEvent::RunEnd {
            slots: 20,
            first_success: None,
        };
        assert_eq!(
            end.to_json(),
            "{\"ev\":\"run_end\",\"slots\":20,\"first_success\":null}"
        );
    }

    #[test]
    fn filter_masks_and_strides() {
        let det = TraceFilter::deterministic();
        assert!(det.admits(TraceKind::Silence));
        assert!(!det.admits(TraceKind::ModeSwitch));
        let eng = TraceFilter::engine_only();
        assert!(!eng.admits(TraceKind::Silence));
        assert!(eng.admits(TraceKind::ModeSwitch));
        assert_eq!(TraceFilter::all().sample_every(0).stride(), 1);
    }

    #[test]
    fn sampling_is_a_strict_subsequence_per_kind() {
        let mut full = RecordingTracer::new();
        let mut sampled = RecordingTracer::with_filter(TraceFilter::all().sample_every(2));
        let events: Vec<TraceEvent> = (0..10)
            .map(|i| TraceEvent::Collision {
                slot: i,
                contenders: 2,
            })
            .chain((0..3).map(|i| TraceEvent::ModeSwitch {
                slot: i,
                dense: true,
            }))
            .collect();
        for ev in &events {
            full.record(ev);
            sampled.record(ev);
        }
        assert_eq!(full.events().len(), 13);
        // Every 2nd per kind: 5 collisions + 2 switches.
        assert_eq!(sampled.events().len(), 7);
        // Strict subsequence of the full stream.
        let mut it = full.events().iter();
        for s in sampled.events() {
            assert!(it.any(|f| f == s), "sampled event not in order in full");
        }
    }

    #[test]
    fn buffer_tracer_flushes_or_discards() {
        let mut rec = RecordingTracer::new();
        let mut buf = BufferTracer::new(&mut rec);
        for ev in sample_events() {
            if buf.wants(ev.kind()) {
                buf.record(&ev);
            }
        }
        assert_eq!(buf.len(), 6);
        assert!(!buf.is_empty());
        buf.discard();
        assert!(rec.events().is_empty(), "discarded events leaked through");

        let mut buf = BufferTracer::new(&mut rec);
        for ev in sample_events() {
            if buf.wants(ev.kind()) {
                buf.record(&ev);
            }
        }
        buf.flush();
        assert_eq!(rec.events(), &sample_events()[..]);
    }

    #[test]
    fn buffer_tracer_forwards_inner_filter() {
        let mut det = RecordingTracer::with_filter(TraceFilter::deterministic());
        let buf = BufferTracer::new(&mut det);
        assert!(buf.wants(TraceKind::Silence));
        assert!(!buf.wants(TraceKind::ModeSwitch));
    }

    #[test]
    fn noop_tracer_wants_nothing() {
        let noop = NoopTracer;
        for k in TraceKind::ALL {
            assert!(!noop.wants(k));
        }
    }
}
