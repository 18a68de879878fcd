//! The simulator: drives stations and resolves the channel, skipping
//! provably silent slots where the protocol allows it.
//!
//! [`Simulator::run`] executes one wake-up pattern against one protocol:
//!
//! 1. stations are instantiated lazily at their wake-up slots;
//! 2. the engine picks between two execution paths:
//!    * **sparse** (the default whenever every awake station answers
//!      [`Station::next_transmission`] with a concrete hint): a min-heap of
//!      per-station due slots — hinted transmissions and hint-scope
//!      boundaries — advances time directly from event to event in
//!      `O(log k)` per event, accounting the skipped gap as silent slots
//!      without polling anyone. Hints are **epoch-scoped**
//!      ([`Until`]): each re-query bumps the
//!      station's hint epoch (stale heap entries are discarded lazily), and
//!      an event re-queries *only* the stations it invalidated — the
//!      polled stations, plus, after a successful slot, every station
//!      holding an [`Until::NextSuccess`](crate::station::Until)-scoped
//!      hint (which first receives the success feedback). This is what lets
//!      feedback-reactive protocols (retirement under
//!      [`StopRule::AllResolved`]) run sparse;
//!    * **dense** (any station answers [`TxHint::Dense`], or
//!      [`SimConfig::engine`] forces it): every awake station is polled
//!      ([`Station::act`]) every slot — the exact historical semantics;
//!
//!    [`EngineMode::Auto`] is moreover **adaptive**: when the heap has
//!    nothing to skip — a batch arrival due at once, or a *collision
//!    streak* of back-to-back sparse collision events among stations whose
//!    hints do not wait for the next success — it drops into a bounded
//!    burst window of dense stepping (the word kernel), re-probing sparsity
//!    at window expiry and at success events (with exponential backoff
//!    while the probes keep failing). Bursts thus run at dense speed while
//!    gaps keep the full sparse speedup.
//!
//!    All paths produce **identical** [`Outcome`]s and transcripts; only
//!    the work counters ([`Outcome::polls`], [`Outcome::skipped_slots`],
//!    [`Outcome::dense_steps`], [`Outcome::mode_switches`]) reveal which
//!    path — and which adaptive schedule — ran;
//! 3. each simulated slot, the channel resolves ([`SlotOutcome::resolve`])
//!    and feedback is delivered under the configured [`FeedbackModel`];
//! 4. the run ends at the **first successful slot** (the wake-up problem is
//!    solved — "once one of the active stations manages to send its message
//!    successfully on the channel, the message is heard by all other
//!    stations") or when `max_slots` slots have elapsed since `s`.
//!
//! Latency is reported as `t − s`, matching the paper's cost measure: "the
//! number of time slots between the first spontaneous wakeup and the first
//! successful transmission".
//!
//! ## Components
//!
//! One slot loop drives a run, generic over the units it steps: one
//! concrete station per woken station under [`PopulationMode::Concrete`],
//! class units under [`PopulationMode::Classes`]. A class gate, checked once
//! at run start, keeps class runs on the hint heap with its permanent dense
//! lock: they never open an adaptive burst window or run the word kernel,
//! so [`EngineMode::Bitslab`] steps them scalar-dense. The loop calls
//! private components, and each component is the only owner of its
//! decision:
//!
//! * the **run ledger** holds the outcome counters, the transcript, the
//!   resolution order and the fault counts. It is the only code that
//!   settles a busy slot (channel faults → false collision → transcript →
//!   success / collision / silence accounting and trace), the only code
//!   that accounts a silent gap, and it builds the one [`Outcome`];
//! * the **hint scheduler** owns the path a run is on (sparse, adaptive
//!   burst window, or dense for good), the epoch-stamped heap with its
//!   per-unit hint states, the stale-entry skip, the due-entry fixpoint,
//!   success-scope invalidation and the next due slot of the event horizon.
//!   Its `lock_dense` and `open_burst` are the only ways off the sparse
//!   path, and each emits its own trace events;
//! * the **churn event source** materializes every crash and re-wake of
//!   the run once and hands them out in slot order.

// Panic-free hot path: the slot loop and trace emission are total.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::indexing_slicing
)]

use crate::channel::{
    ChannelFault, ChannelModel, FaultCounts, Feedback, FeedbackModel, SlotOutcome,
};
use crate::ids::{Slot, StationId};
use crate::pattern::{ChurnScript, WakePattern};
use crate::population::{
    self, ClassStation, DeadClass, MemberRemoval, Members, PopulationMode, TxTally,
};
use crate::rng::{derive_seed, FAULT_STREAM, REWAKE_STREAM};
use crate::station::{NeverTransmit, Protocol, Station, TxHint, Until};
use crate::trace::{SlotRecord, Transcript};
use crate::tracer::{BurstCause, NoopTracer, TraceEvent, TraceKind, Tracer};
use selectors::transpose64;
use std::borrow::Cow;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::iter::Peekable;

/// When the engine ends a run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum StopRule {
    /// Stop at the first successful slot — the wake-up problem (default).
    #[default]
    FirstSuccess,
    /// Keep running until **every station of the pattern** has transmitted
    /// successfully at least once — the full conflict-resolution problem of
    /// Komlós & Greenberg (each of the `k` awake stations must deliver its
    /// message). Protocols are expected to retire stations on their own
    /// success (they hear `Feedback::Heard(self)`); the engine keeps
    /// delivering feedback on success slots in this mode — on the sparse
    /// path, success feedback goes to **every** awake station (a success is
    /// heard by all), after which every
    /// [`Until::NextSuccess`](crate::station::Until)-scoped hint is
    /// re-queried.
    AllResolved,
}

/// Which execution path the engine may take.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum EngineMode {
    /// Use the sparse slot-skipping path whenever every awake station
    /// provides a [`TxHint`], adaptively dropping to per-slot dense
    /// stepping on burst-shaped stretches where skipping yields nothing
    /// (see the module docs); falls back to dense polling permanently when
    /// any station answers [`TxHint::Dense`] (the default). A class run
    /// ([`PopulationMode::Classes`]) takes the sparse path and that fallback
    /// only: it never opens a burst window.
    #[default]
    Auto,
    /// Always poll every awake station every slot (the historical engine).
    /// Useful as a ground-truth reference and for measuring the sparse
    /// speedup.
    Dense,
    /// Force the word-level (bit-parallel) slot kernel for every simulated
    /// slot: transmit decisions are gathered as 64-slot bit columns per
    /// station ([`Station::fill_tx_word`], with a generic fill from
    /// [`Station::next_transmission`] hints for everyone else), transposed
    /// into per-slot words, and each slot resolves from a popcount —
    /// `0` → silence, `1` → success via `trailing_zeros`, `≥ 2` →
    /// collision. Outcomes, transcripts and the channel-tier trace are
    /// bit-identical to [`EngineMode::Dense`]; only the work counters
    /// ([`Outcome::word_slots`]) differ. Falls back to scalar dense polling
    /// permanently when any station answers [`TxHint::Dense`]. Under
    /// [`EngineMode::Auto`] the same kernel powers the adaptive policy's
    /// dense burst windows — from the first tile of a window opened by a
    /// collision streak, after a scalar warmup (16 dense-stepped slots) in
    /// a window opened at wake time; this mode exists to force it
    /// everywhere (benchmark baselines, equivalence tests). A class run
    /// ([`PopulationMode::Classes`]) never runs the kernel: under this mode
    /// it steps every unit scalar-dense, like [`EngineMode::Dense`].
    Bitslab,
}

/// Configuration of one simulation.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Total number of stations attached to the channel (IDs are `0..n`).
    pub n: u32,
    /// Feedback model (default: the paper's no-collision-detection model).
    pub feedback: FeedbackModel,
    /// Give up after this many slots counted from the first wake-up `s`.
    pub max_slots: u64,
    /// Record a full per-slot transcript (off by default: transcripts of
    /// long runs are large).
    pub record_transcript: bool,
    /// When to end the run (default: first success).
    pub stop: StopRule,
    /// Engine path selection (default: [`EngineMode::Auto`]).
    pub engine: EngineMode,
    /// Which population the engine simulates (default: one concrete
    /// [`Station`] per woken station; [`PopulationMode::Classes`] groups
    /// stations in identical protocol state into weighted equivalence
    /// classes — O(classes) memory, identical outcomes).
    pub population: PopulationMode,
    /// Track per-station transmission counts
    /// ([`Outcome::per_station_tx`], on by default). Turn **off** for mega
    /// runs: the table is O(k) in both engines, and with it off both
    /// engines leave it empty — outcomes stay comparable per config.
    pub per_station_detail: bool,
    /// Channel fault model ([`ChannelModel::ideal`] by default — every
    /// ground-truth [`SlotOutcome`] is delivered verbatim). Faults are
    /// drawn per slot from the run seed
    /// (`derive_seed(run_seed, FAULT_STREAM)`), so the same
    /// `(protocol, pattern, run_seed)` triple perturbs the same slots on
    /// every engine path — outcomes and the deterministic trace tier stay
    /// bit-identical across Dense/Sparse/Bitslab/Classes.
    pub channel: ChannelModel,
    /// Population churn ([`ChurnScript::none`] by default — the classical
    /// model where the awake set only grows). Crash and re-wake slots are
    /// a pure function of `(run_seed, id, wake)`, shared by every engine
    /// path. A crashed station falls permanently silent (it is replaced by
    /// an inert listener); a re-wake admits a **fresh** protocol instance
    /// of the same ID, seeded from `derive_seed(run_seed, REWAKE_STREAM)`.
    pub churn: ChurnScript,
}

impl SimConfig {
    /// A configuration for `n` stations with defaults: no collision
    /// detection, `max_slots = 64·n·(log n + 1)²` (comfortably above every
    /// upper bound proved in the paper), no transcript.
    pub fn new(n: u32) -> Self {
        let log_n = (64 - u64::from(n.max(2) - 1).leading_zeros()) as u64; // ceil(log2 n)
        SimConfig {
            n,
            feedback: FeedbackModel::NoCollisionDetection,
            max_slots: 64 * u64::from(n.max(1)) * (log_n + 1) * (log_n + 1),
            record_transcript: false,
            stop: StopRule::FirstSuccess,
            engine: EngineMode::Auto,
            population: PopulationMode::default(),
            per_station_detail: true,
            channel: ChannelModel::ideal(),
            churn: ChurnScript::none(),
        }
    }

    /// Run until every pattern station has transmitted successfully
    /// (conflict resolution à la Komlós–Greenberg) instead of stopping at
    /// the first success.
    pub fn until_all_resolved(mut self) -> Self {
        self.stop = StopRule::AllResolved;
        self
    }

    /// Set the slot cap (counted from `s`).
    pub fn with_max_slots(mut self, max_slots: u64) -> Self {
        self.max_slots = max_slots;
        self
    }

    /// Set the feedback model.
    pub fn with_feedback(mut self, feedback: FeedbackModel) -> Self {
        self.feedback = feedback;
        self
    }

    /// Enable transcript recording.
    pub fn with_transcript(mut self) -> Self {
        self.record_transcript = true;
        self
    }

    /// Select the engine path ([`EngineMode::Dense`] forces per-slot
    /// polling; [`EngineMode::Auto`] skips silent slots when possible).
    pub fn with_engine(mut self, engine: EngineMode) -> Self {
        self.engine = engine;
        self
    }

    /// Select the population ([`PopulationMode::Classes`] simulates
    /// weighted equivalence classes instead of individual stations).
    pub fn with_population(mut self, population: PopulationMode) -> Self {
        self.population = population;
        self
    }

    /// Shorthand for `with_population(PopulationMode::Classes)`.
    pub fn with_classes(self) -> Self {
        self.with_population(PopulationMode::Classes)
    }

    /// Drop per-station transmission accounting
    /// ([`Outcome::per_station_tx`] stays empty) — required for O(classes)
    /// memory at mega scale.
    pub fn without_per_station_detail(mut self) -> Self {
        self.per_station_detail = false;
        self
    }

    /// Set the channel fault model (see [`SimConfig::channel`]).
    pub fn with_channel(mut self, channel: ChannelModel) -> Self {
        self.channel = channel;
        self
    }

    /// Set the population churn script (see [`SimConfig::churn`]).
    pub fn with_churn(mut self, churn: ChurnScript) -> Self {
        self.churn = churn;
        self
    }
}

/// Errors validating a run before it starts.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimError {
    /// The pattern wakes a station with ID ≥ n.
    StationOutOfRange {
        /// The offending station.
        id: StationId,
        /// The configured number of stations.
        n: u32,
    },
    /// `n` is zero.
    NoStations,
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::StationOutOfRange { id, n } => {
                write!(f, "pattern wakes station {id} but n = {n}")
            }
            SimError::NoStations => write!(f, "configuration has n = 0 stations"),
        }
    }
}

impl std::error::Error for SimError {}

/// The result of one simulated run.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// The first wake-up slot `s` of the pattern.
    pub s: Slot,
    /// The slot of the first successful transmission, if any occurred within
    /// the cap.
    pub first_success: Option<Slot>,
    /// The station that transmitted alone at `first_success`.
    pub winner: Option<StationId>,
    /// Number of slots actually simulated (from `s`, inclusive).
    pub slots_simulated: u64,
    /// Total number of transmissions over the run (the *energy* cost).
    pub transmissions: u64,
    /// Per-station transmission counts, for stations that woke.
    pub per_station_tx: Vec<(StationId, u64)>,
    /// Number of collision slots.
    pub collisions: u64,
    /// Number of silent slots.
    pub silent_slots: u64,
    /// Number of [`Station::act`] calls made over the run — the engine's
    /// work measure. Dense runs poll every awake station every slot
    /// (`≈ slots × k`); sparse runs poll only at transmission events.
    pub polls: u64,
    /// Slots the engine advanced over in bulk (silent by the stations' own
    /// [`TxHint`] promises) instead of simulating individually. Always 0 on
    /// the dense path. Skipped slots still count into
    /// [`slots_simulated`](Outcome::slots_simulated) and
    /// [`silent_slots`](Outcome::silent_slots) so outcomes are identical
    /// across paths.
    pub skipped_slots: u64,
    /// Slots simulated by polling **every** awake station (per-slot dense
    /// stepping): all slots of an [`EngineMode::Dense`] run, plus, under
    /// [`EngineMode::Auto`], the slots the adaptive policy chose to step
    /// densely — burst windows where the sparse heap was not paying for
    /// itself, and everything after a [`TxHint::Dense`] fallback. Every
    /// simulated slot is either skipped in bulk, dense-stepped,
    /// word-resolved, or a sparse event (which polls at least one
    /// station), so `skipped_slots + dense_steps + word_slots ≤
    /// slots_simulated ≤ skipped_slots + dense_steps + word_slots + polls`.
    pub dense_steps: u64,
    /// Slots resolved by the word-level (bit-parallel) kernel: transmit
    /// bits for up to 64 slots × every awake station gathered into bitset
    /// words, transposed, and each slot settled by a popcount instead of
    /// per-station polling. All slots of an [`EngineMode::Bitslab`] run
    /// (until a [`TxHint::Dense`] fallback), plus, under
    /// [`EngineMode::Auto`], the burst-window slots the kernel stepped in
    /// place of scalar dense stepping. Disjoint from
    /// [`dense_steps`](Outcome::dense_steps).
    pub word_slots: u64,
    /// Number of sparse↔dense transitions the adaptive [`EngineMode::Auto`]
    /// policy made (0 on the pure paths: a run that never leaves the sparse
    /// path, a forced-dense run, or a permanent [`TxHint::Dense`] fallback).
    pub mode_switches: u64,
    /// Maximum number of simultaneously live simulation units over the run:
    /// awake stations under [`PopulationMode::Concrete`], equivalence
    /// classes under [`PopulationMode::Classes`]. The engine's memory
    /// measure — `k / peak_units` is the class-aggregation ratio. Like the
    /// work counters, this is **not** part of cross-engine outcome
    /// equivalence.
    pub peak_units: u64,
    /// Full transcript, if recording was enabled.
    pub transcript: Option<Transcript>,
    /// Stations that transmitted successfully at least once, with the slot
    /// of their first own success (in success order). Under
    /// [`StopRule::FirstSuccess`] this holds at most the winner.
    pub resolved: Vec<(StationId, Slot)>,
    /// Slot at which the **last** pattern station had its first success —
    /// set only under [`StopRule::AllResolved`] when everyone resolved
    /// within the cap.
    pub all_resolved_at: Option<Slot>,
    /// Channel-fault and churn event counts over the run (all zero under
    /// the default ideal channel and empty churn script). Erasure, capture
    /// and churn counts are engine-path-independent;
    /// [`FaultCounts::false_collisions`] counts only *materialized* silent
    /// slots and is therefore path-dependent, like
    /// [`polls`](Outcome::polls).
    pub faults: FaultCounts,
}

impl Outcome {
    /// Latency `t − s` of the run, the paper's cost measure. `None` when the
    /// run hit the cap without a success.
    #[inline]
    pub fn latency(&self) -> Option<u64> {
        self.first_success.map(|t| t - self.s)
    }

    /// `true` iff the wake-up problem was solved within the cap.
    #[inline]
    pub fn solved(&self) -> bool {
        self.first_success.is_some()
    }

    /// Full-resolution latency `t_all − s`: slots from the first wake-up
    /// until every pattern station had delivered its message.
    #[inline]
    pub fn full_resolution_latency(&self) -> Option<u64> {
        self.all_resolved_at.map(|t| t - self.s)
    }
}

/// What the engine does when a station's heap entry comes due.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Due {
    /// Poll the station ([`Station::act`]) — a hinted transmission slot.
    Poll,
    /// Re-query the station's hint — an [`Until::Slot`] scope boundary.
    Requery,
}

/// Per-station sparse-path bookkeeping. The hint *epoch* stamps heap
/// entries so entries superseded by a re-query are discarded lazily.
#[derive(Clone, Copy, Debug)]
struct HintState {
    epoch: u64,
    due: Due,
    success_scoped: bool,
}

impl HintState {
    fn new() -> Self {
        HintState {
            epoch: 0,
            due: Due::Poll,
            success_scoped: false,
        }
    }
}

/// A per-station claim cached by the word kernel between consecutive tiles
/// of one dense burst: the station's next transmission (if any) as learned
/// at an earlier tile base, scoped like the originating [`TxHint`]. A memo
/// is consumed ([`WordMemo::Stale`]) when its transmission slot is reached,
/// when its scope expires, or wholesale when tiles stop being contiguous.
#[derive(Clone, Copy, Debug)]
enum WordMemo {
    /// No usable claim — query the station at the next tile base.
    Stale,
    /// A normalized `next_transmission` answer: silent up to `next`
    /// (transmitting exactly there when `Some`), valid per `until`. When
    /// `until` is [`Until::Slot`], `next` is `None` or strictly before the
    /// boundary.
    Hint { next: Option<Slot>, until: Until },
}

/// The low `width` bits set (`width ≥ 64` saturates to all ones).
#[inline]
fn low_mask(width: u64) -> u64 {
    if width >= 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

// Constants of the adaptive `EngineMode::Auto` policy. Outcomes never
// depend on these — they steer only *which path* simulates each slot, so a
// mistuned constant costs time, not correctness.

/// Minimum skippable gap (in slots) a re-probe must see ahead to resume the
/// sparse path; anything closer and the heap would be churning again within
/// a few slots. Also the wake-time burst test (a batch arrival whose
/// earliest obligation is due within this gap has nothing to skip) and
/// both measures of a collision streak: this many sparse collision events
/// in a row, each closer than this to the previous one.
const RESUME_GAP: u64 = 4;
/// Minimum dense burst-window length in slots — long enough to amortize the
/// k hint queries a re-probe costs.
const BURST_FLOOR: u64 = 64;
/// Scalar-dense slots a wake-time burst window must survive before the
/// word kernel takes over ([`EngineMode::Auto`] only). Bursts that resolve
/// within a handful of slots — the no-skip adversarial shape — never pay
/// for a tile fill they cannot amortize; bursts that outlive the warmup
/// switch to word-level stepping for the remainder of the window. A window
/// opened by a collision streak runs the kernel from its first tile: the
/// streak already shows a contention stretch, not a few-slot burst.
/// [`EngineMode::Bitslab`] ignores this and always runs the kernel.
const KERNEL_WARMUP: u64 = 16;

/// The adaptive sparse↔dense policy of [`EngineMode::Auto`]: the collision
/// streak that takes the sparse path into a burst window, and the window.
#[derive(Clone, Copy, Debug, Default)]
struct Adaptive {
    /// Sparse collision events in a row, each closer than `RESUME_GAP`
    /// slots to the previous one, none polling a unit whose re-armed hint
    /// is [`Until::NextSuccess`]-scoped.
    streak: u64,
    /// The slot of the streak's last collision event.
    streak_at: Slot,
    /// Current dense burst-window length in slots (doubled while re-probes
    /// keep failing, reset when a probe finds a skippable gap).
    burst_len: u64,
    /// Slots left in the active burst window (meaningful in dense stepping).
    burst_remaining: u64,
    /// Scalar-dense slots each window of the active burst steps before the
    /// word kernel takes over: `KERNEL_WARMUP` after a wake-time opening,
    /// 0 after a streak.
    warmup: u64,
}

impl Adaptive {
    /// Account one sparse transmission event at `t` that ended in no
    /// success: `contended` when it was a collision and every unit it
    /// polled re-armed a hint that does not wait for the next success.
    /// Returns `true` when the event completes a streak of `RESUME_GAP` —
    /// the heap has had nothing to skip, so open a burst window.
    fn streak_event(&mut self, t: Slot, contended: bool) -> bool {
        if !contended {
            self.streak = 0;
            return false;
        }
        let chained = self.streak > 0 && t < self.streak_at + RESUME_GAP;
        self.streak = if chained { self.streak + 1 } else { 1 };
        self.streak_at = t;
        self.streak >= RESUME_GAP
    }

    /// Start a dense burst window sized to the floor — long enough to
    /// amortize the k hint queries a re-probe costs — with the scalar
    /// warmup `cause` calls for.
    fn start_burst(&mut self, awake: usize, cause: BurstCause) {
        self.burst_len = (4 * awake as u64).max(BURST_FLOOR);
        self.burst_remaining = self.burst_len;
        self.warmup = if cause == BurstCause::Wake {
            KERNEL_WARMUP
        } else {
            0
        };
        self.streak = 0;
    }

    /// A re-probe failed (no skippable gap ahead): stay dense for a doubled
    /// window, capped so sparsity is still re-tested periodically.
    fn backoff(&mut self, awake: usize) {
        let cap = (64 * awake as u64).max(64 * BURST_FLOOR);
        self.burst_len = (self.burst_len * 2).clamp(BURST_FLOOR, cap);
        self.burst_remaining = self.burst_len;
    }

    /// Has the active burst window survived its scalar warmup? The word
    /// kernel only takes over once `warmup` slots of the window have been
    /// dense-stepped — a burst that resolves faster never pays for a tile
    /// fill it cannot amortize.
    fn kernel_warm(&self) -> bool {
        self.burst_len.saturating_sub(self.burst_remaining) >= self.warmup
    }

    /// A re-probe succeeded: back to the sparse path (the streak was reset
    /// when the burst opened).
    fn resume_sparse(&mut self) {
        self.burst_len = 0;
        self.burst_remaining = 0;
    }
}

/// Engine-side trace emission helper, generic over the tracer so the
/// default [`NoopTracer`] path monomorphizes to nothing. Its one piece of
/// state is the silence coalescer: consecutive silent slots — whether
/// skipped in bulk by the sparse path or polled one by one by the dense
/// path — accumulate into a single pending run, flushed ahead of the next
/// deterministic event. That is what makes the deterministic event stream
/// (wakes, silence runs, successes, collisions, run end) bit-identical
/// across engine and population modes.
struct TraceCtx<'a, T: Tracer + ?Sized> {
    tracer: &'a mut T,
    silent_from: Slot,
    silent_len: u64,
}

impl<'a, T: Tracer + ?Sized> TraceCtx<'a, T> {
    fn new(tracer: &'a mut T) -> Self {
        TraceCtx {
            tracer,
            silent_from: 0,
            silent_len: 0,
        }
    }

    /// Hot-path gate, forwarded so emission sites can skip payload work.
    #[inline]
    fn wants(&self, kind: TraceKind) -> bool {
        self.tracer.wants(kind)
    }

    /// Account `count` silent slots starting at `from` (merged into the
    /// pending run when contiguous).
    #[inline]
    fn silence(&mut self, from: Slot, count: u64) {
        if count == 0 || !self.tracer.wants(TraceKind::Silence) {
            return;
        }
        if self.silent_len > 0 && self.silent_from + self.silent_len == from {
            self.silent_len += count;
        } else {
            self.flush_silence();
            self.silent_from = from;
            self.silent_len = count;
        }
    }

    fn flush_silence(&mut self) {
        if self.silent_len > 0 {
            self.tracer.record(&TraceEvent::Silence {
                slot: self.silent_from,
                slots: self.silent_len,
            });
            self.silent_len = 0;
        }
    }

    /// Final event of every run; also flushes any trailing silence.
    fn run_end(&mut self, slots: u64, first_success: Option<Slot>) {
        self.flush_silence();
        if self.tracer.wants(TraceKind::RunEnd) {
            self.tracer.record(&TraceEvent::RunEnd {
                slots,
                first_success,
            });
        }
    }

    /// Emit `ev` if the tracer wants it. A channel event (the
    /// deterministic tier) first flushes the pending silence run; an engine
    /// event never does — it lives on the non-deterministic tier and may
    /// interleave differently per path.
    #[inline]
    fn emit(&mut self, ev: TraceEvent) {
        if self.tracer.wants(ev.kind()) {
            if ev.kind().deterministic() {
                self.flush_silence();
            }
            self.tracer.record(&ev);
        }
    }
}

/// Which work counter a simulated slot is charged to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Via {
    /// Advanced over in bulk — a sparse gap ([`Outcome::skipped_slots`]).
    Skip,
    /// A sparse event that polled exactly its due units (no path counter).
    Event,
    /// Polled by dense stepping ([`Outcome::dense_steps`]).
    Dense,
    /// Resolved by the word kernel ([`Outcome::word_slots`]).
    Word,
}

/// What the floor hears from one settled busy slot.
#[derive(Clone, Copy, Debug)]
enum Settled {
    /// A success under [`StopRule::FirstSuccess`]: the run ends here and no
    /// feedback is delivered.
    Stop,
    /// A success under [`StopRule::AllResolved`]: every unit hears it.
    Success(Feedback),
    /// Silence or a collision: the polled units hear it on the sparse path,
    /// the transmitters in a word tile, everyone when stepping densely.
    NoSuccess(Feedback),
}

/// The run ledger: the [`Outcome`] under construction (counters,
/// transcript, resolution order, fault counts) and the trace context.
/// Every slot a run simulates is accounted here — busy slots by
/// [`settle`](Ledger::settle), silent gaps by [`silence`](Ledger::silence)
/// — and [`finish`](Ledger::finish) hands out the one `Outcome`.
struct Ledger<'t, T: Tracer + ?Sized> {
    out: Outcome,
    trace: TraceCtx<'t, T>,
    channel: ChannelModel,
    feedback: FeedbackModel,
    stop: StopRule,
    max_slots: u64,
    /// Channel-fault draws are keyed by `(fault_seed, slot)`, so every
    /// engine path perturbs the same slots; under the ideal channel no draw
    /// is made.
    fault_seed: u64,
    /// False collisions are heard only under collision detection.
    mishear_armed: bool,
    /// Pattern stations: a run under [`StopRule::AllResolved`] ends when
    /// this many have resolved.
    stations: usize,
    /// Trace watermarks (only advanced when a tracer wants them).
    wm_heap: u64,
    wm_units: u64,
}

impl<'t, T: Tracer + ?Sized> Ledger<'t, T> {
    fn new(cfg: &SimConfig, s: Slot, stations: usize, run_seed: u64, tracer: &'t mut T) -> Self {
        Ledger {
            out: Outcome {
                s,
                first_success: None,
                winner: None,
                slots_simulated: 0,
                transmissions: 0,
                per_station_tx: Vec::new(),
                collisions: 0,
                silent_slots: 0,
                polls: 0,
                skipped_slots: 0,
                dense_steps: 0,
                word_slots: 0,
                mode_switches: 0,
                peak_units: 0,
                transcript: cfg.record_transcript.then(Transcript::new),
                resolved: Vec::new(),
                all_resolved_at: None,
                faults: FaultCounts::default(),
            },
            trace: TraceCtx::new(tracer),
            channel: cfg.channel,
            feedback: cfg.feedback,
            stop: cfg.stop,
            max_slots: cfg.max_slots,
            fault_seed: derive_seed(run_seed, FAULT_STREAM),
            mishear_armed: cfg.channel.false_collision_ppm > 0
                && cfg.feedback == FeedbackModel::CollisionDetection,
            stations,
            wm_heap: 0,
            wm_units: 0,
        }
    }

    #[inline]
    fn running(&self) -> bool {
        self.out.slots_simulated < self.max_slots
    }

    #[inline]
    fn remaining(&self) -> u64 {
        self.max_slots - self.out.slots_simulated
    }

    #[inline]
    fn charge(&mut self, via: Via, slots: u64) {
        self.out.slots_simulated += slots;
        match via {
            Via::Skip => self.out.skipped_slots += slots,
            Via::Event => {}
            Via::Dense => self.out.dense_steps += slots,
            Via::Word => self.out.word_slots += slots,
        }
    }

    /// Account `count` silent slots starting at `from`, charged to `via`.
    fn silence(&mut self, from: Slot, count: u64, via: Via) {
        self.trace.silence(from, count);
        self.charge(via, count);
        self.out.silent_slots += count;
        if let Some(tr) = self.out.transcript.as_mut() {
            for slot in from..from + count {
                tr.push(SlotRecord {
                    slot,
                    transmitters: Vec::new(),
                    outcome: SlotOutcome::Silence,
                });
            }
        }
    }

    /// Skip the provably silent gap from `t` to the next sparse `event`,
    /// respecting the cap. Silence cannot void any scope: NextSuccess hints
    /// survive (no transmission ⇒ no success) and `Slot(t')` boundaries are
    /// themselves heap entries. With no event pending no station will
    /// transmit again — not even a success that could void a
    /// NextSuccess-scoped hint can occur — so the rest of the run is
    /// skipped and `None` returned; otherwise the new clock.
    fn skip_to(&mut self, t: Slot, event: Option<Slot>) -> Option<Slot> {
        let take = event.map_or(self.remaining(), |e| (e - t).min(self.remaining()));
        self.silence(t, take, Via::Skip);
        event.map(|_| t + take)
    }

    /// Settle one busy slot from the ground truth of its `contenders`
    /// transmitters: apply the channel faults, draw a false collision,
    /// transcribe, count and trace the effective outcome, and record a
    /// success. Returns what the floor hears — one feedback value per slot,
    /// the same for every station.
    fn settle(&mut self, t: Slot, truth: SlotOutcome, contenders: u64, via: Via) -> Settled {
        let transmitters = self.out.transcript.is_some().then(|| match &truth {
            SlotOutcome::Silence => Vec::new(),
            SlotOutcome::Success(w) => vec![*w],
            SlotOutcome::Collision(ids) => ids.clone(),
        });
        let outcome = self.apply_channel(t, truth);
        self.out.transmissions += contenders;
        self.charge(via, 1);
        let mishear = self.mishear_armed
            && outcome == SlotOutcome::Silence
            && self.channel.mishears_silence(self.fault_seed, t);
        if mishear {
            self.out.faults.false_collisions += 1;
        }
        let fb = if mishear {
            Feedback::Noise
        } else {
            self.feedback.perceive(&outcome)
        };
        let heard = match &outcome {
            SlotOutcome::Success(w) => {
                self.trace.emit(TraceEvent::Success {
                    slot: t,
                    winner: *w,
                });
                if self.out.first_success.is_none() {
                    self.out.first_success = Some(t);
                    self.out.winner = Some(*w);
                }
                if !self.out.resolved.iter().any(|&(id, _)| id == *w) {
                    self.out.resolved.push((*w, t));
                }
                match self.stop {
                    StopRule::FirstSuccess => Settled::Stop,
                    StopRule::AllResolved => Settled::Success(fb),
                }
            }
            SlotOutcome::Collision(_) => {
                self.out.collisions += 1;
                self.trace.emit(TraceEvent::Collision {
                    slot: t,
                    contenders,
                });
                Settled::NoSuccess(fb)
            }
            SlotOutcome::Silence => {
                self.out.silent_slots += 1;
                self.trace.silence(t, 1);
                Settled::NoSuccess(fb)
            }
        };
        if let (Some(tr), Some(transmitters)) = (self.out.transcript.as_mut(), transmitters) {
            tr.push(SlotRecord {
                slot: t,
                transmitters,
                outcome,
            });
        }
        heard
    }

    /// Apply the channel-fault model to one resolved slot: returns the
    /// *effective* outcome heard on the channel, counting and tracing any
    /// fault. Under the default ideal channel `truth` passes through
    /// untouched (and no fault draw is made).
    fn apply_channel(&mut self, t: Slot, truth: SlotOutcome) -> SlotOutcome {
        let (effective, fault) = self.channel.apply(self.fault_seed, t, truth);
        match fault {
            Some(ChannelFault::Erasure { winner }) => {
                self.out.faults.erasures += 1;
                self.trace
                    .emit(TraceEvent::FaultErasure { slot: t, winner });
            }
            Some(ChannelFault::Capture { winner, contenders }) => {
                self.out.faults.captures += 1;
                self.trace.emit(TraceEvent::FaultCapture {
                    slot: t,
                    winner,
                    contenders: contenders.len() as u64,
                });
            }
            None => {}
        }
        effective
    }

    /// After the floor heard a success at `t` under
    /// [`StopRule::AllResolved`]: has every pattern station resolved, with
    /// no arrival pending? Records the slot when so.
    fn all_resolved(&mut self, t: Slot, arrivals_pending: bool) -> bool {
        let done = self.out.resolved.len() == self.stations && !arrivals_pending;
        if done {
            self.out.all_resolved_at = Some(t);
        }
        done
    }

    /// Account the live units after admissions at `t`, and trace a new
    /// heap or unit high-water mark.
    fn watermark(&mut self, t: Slot, heap: usize, units: usize) {
        self.out.peak_units = self.out.peak_units.max(units as u64);
        if self.trace.wants(TraceKind::Watermark) {
            let (h, u) = (heap as u64, units as u64);
            if h > self.wm_heap || u > self.wm_units {
                self.wm_heap = self.wm_heap.max(h);
                self.wm_units = self.wm_units.max(u);
                self.trace.emit(TraceEvent::Watermark {
                    slot: t,
                    heap: self.wm_heap,
                    units: self.wm_units,
                });
            }
        }
    }

    fn crashed(&mut self, slot: Slot, id: StationId) {
        self.out.faults.churn_crashes += 1;
        self.trace.emit(TraceEvent::ChurnCrash { slot, id });
    }

    fn rewoke(&mut self, slot: Slot, id: StationId) {
        self.out.faults.churn_rewakes += 1;
        self.trace.emit(TraceEvent::ChurnRewake { slot, id });
    }

    /// End the run: trace its end and hand out the outcome.
    fn finish(mut self, per_station_tx: Vec<(StationId, u64)>) -> Outcome {
        self.trace
            .run_end(self.out.slots_simulated, self.out.first_success);
        self.out.per_station_tx = per_station_tx;
        self.out
    }
}

/// Which path simulates the next slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Path {
    /// Hints drive the clock: the heap jumps from event to event.
    Sparse,
    /// An adaptive dense burst window ([`EngineMode::Auto`] only), re-probed
    /// at expiry and at successes.
    Burst,
    /// Dense for good: forced by the engine mode, or some unit answered
    /// [`TxHint::Dense`] (or a malformed scope).
    Locked,
}

/// The hint scheduler of the sparse path. A hint's source is a unit — a
/// station or a whole class, under the same scope semantics — identified
/// by its index in the loop's unit list.
struct Hints {
    /// The path the run is on.
    path: Path,
    /// Min-heap of (due slot, unit index, hint epoch). A unit has at most
    /// one *live* entry: re-querying bumps its hint epoch, and entries
    /// whose epoch is stale are discarded lazily. Units with an
    /// unconditional `Never` hint have no entry.
    heap: BinaryHeap<Reverse<(Slot, usize, u64)>>,
    /// Per-unit hint bookkeeping, parallel to the unit list.
    states: Vec<HintState>,
    /// Units holding an Until::NextSuccess-scoped hint (may contain stale
    /// entries; the `success_scoped` flag is authoritative).
    scoped: Vec<usize>,
    /// Units whose transmission came due at the current event.
    polled: Vec<usize>,
    /// Units to re-query next.
    requery: Vec<usize>,
}

impl Hints {
    /// Sparse under [`EngineMode::Auto`], dense for good otherwise; room
    /// for `units` units.
    fn new(engine: EngineMode, units: usize) -> Self {
        let path = if engine == EngineMode::Auto {
            Path::Sparse
        } else {
            Path::Locked
        };
        Hints {
            path,
            heap: BinaryHeap::with_capacity(if path == Path::Sparse { units } else { 0 }),
            states: Vec::with_capacity(units),
            scoped: Vec::new(),
            polled: Vec::new(),
            requery: Vec::new(),
        }
    }

    #[inline]
    fn sparse(&self) -> bool {
        self.path == Path::Sparse
    }

    /// Bookkeeping for a newly admitted unit at `t`: on the sparse path,
    /// install its hint (`query` runs only there), locking the dense path
    /// when the answer forces it. Returns the installed due slot.
    fn admit<T: Tracer + ?Sized>(
        &mut self,
        t: Slot,
        trace: &mut TraceCtx<'_, T>,
        query: impl FnOnce() -> TxHint,
    ) -> Option<Slot> {
        self.states.push(HintState::new());
        if !self.sparse() {
            return None;
        }
        let idx = self.states.len() - 1;
        self.install(idx, t, query()).unwrap_or_else(|()| {
            self.lock_dense(t, trace);
            None
        })
    }

    /// Install a fresh `hint` for unit `idx` looking from `after`: bump the
    /// hint epoch (superseding any live heap entry), push the new heap entry
    /// and update scope flags. Returns the due slot of the installed entry
    /// (`None` for an unconditional silence promise), or `Err(())` when the
    /// answer ([`TxHint::Dense`] or a malformed scope boundary) forces the
    /// dense path.
    fn install(&mut self, idx: usize, after: Slot, hint: TxHint) -> Result<Option<Slot>, ()> {
        let st = self.states.get_mut(idx).ok_or(())?;
        st.epoch += 1; // supersede any live heap entry
        let was_scoped = st.success_scoped;
        let (entry, now_scoped) = match hint {
            TxHint::Dense => return Err(()),
            TxHint::At(slot, until) => {
                let slot = slot.max(after);
                match until {
                    Until::Forever => (Some((Due::Poll, slot)), false),
                    Until::NextSuccess => (Some((Due::Poll, slot)), true),
                    // A validity boundary at or before `after` carries no
                    // silence claim at all: fall back to dense rather than
                    // trust it (correctness first).
                    Until::Slot(tb) if tb <= after => return Err(()),
                    Until::Slot(tb) if slot < tb => (Some((Due::Poll, slot)), false),
                    Until::Slot(tb) => (Some((Due::Requery, tb)), false),
                }
            }
            TxHint::Never(until) => match until {
                Until::Forever => (None, false),
                Until::NextSuccess => (None, true),
                Until::Slot(tb) if tb <= after => return Err(()),
                Until::Slot(tb) => (Some((Due::Requery, tb)), false),
            },
        };
        st.success_scoped = now_scoped;
        if now_scoped && !was_scoped {
            self.scoped.push(idx);
        }
        let due_slot = entry.map(|(_, slot)| slot);
        if let Some((due, slot)) = entry {
            st.due = due;
            self.heap.push(Reverse((slot, idx, st.epoch)));
        }
        Ok(due_slot)
    }

    /// Re-query every unit in `requery` through `query` and install the
    /// answers, all looking from `after`; stops at the first answer that
    /// forces the dense path.
    fn rearm<T: Tracer + ?Sized>(
        &mut self,
        after: Slot,
        trace: &mut TraceCtx<'_, T>,
        mut query: impl FnMut(usize) -> TxHint,
    ) -> Result<(), ()> {
        trace.emit(TraceEvent::HintRequery {
            slot: after,
            queries: self.requery.len() as u64,
        });
        let requery = std::mem::take(&mut self.requery);
        let armed = requery
            .iter()
            .try_for_each(|&idx| self.install(idx, after, query(idx)).map(drop));
        self.requery = requery;
        armed
    }

    /// Supersede unit `idx`'s live entry without installing a new one (a
    /// crashed station turned inert listener).
    fn supersede(&mut self, idx: usize) {
        if let Some(st) = self.states.get_mut(idx) {
            st.epoch += 1;
            st.success_scoped = false;
        }
    }

    /// Discard the heap and the success-scope bookkeeping (a later
    /// re-probe rebuilds both from fresh hints).
    fn reset(&mut self) {
        self.heap.clear();
        for st in self.states.iter_mut() {
            st.success_scoped = false;
        }
        self.scoped.clear();
    }

    /// The earliest live due slot: heap entries superseded by a newer hint
    /// epoch are dropped first.
    fn next_due(&mut self) -> Option<Slot> {
        while let Some(&Reverse((slot, idx, epoch))) = self.heap.peek() {
            if self.states.get(idx).is_some_and(|st| st.epoch == epoch) {
                return Some(slot);
            }
            self.heap.pop();
        }
        None
    }

    /// The next sparse event: the earliest live due entry, `arrival` or
    /// `churn` slot. Churn is processed at the loop top, so its slots must
    /// be landed on exactly — never skipped over.
    fn horizon(&mut self, arrival: Option<Slot>, churn: Option<Slot>) -> Option<Slot> {
        [self.next_due(), arrival, churn]
            .into_iter()
            .flatten()
            .min()
    }

    /// Serve the entries due at `t`: transmissions collect in `polled`,
    /// scope boundaries are re-queried through `query`. A re-query may
    /// install a hint due at `t` again (a boundary answering "transmitting
    /// right now"), so this iterates to a fixpoint. `Err(())` when a
    /// re-query forces the dense path.
    fn serve<T: Tracer + ?Sized>(
        &mut self,
        t: Slot,
        trace: &mut TraceCtx<'_, T>,
        mut query: impl FnMut(usize) -> TxHint,
    ) -> Result<(), ()> {
        self.polled.clear();
        loop {
            self.requery.clear();
            while let Some(&Reverse((slot, idx, epoch))) = self.heap.peek() {
                if slot != t {
                    break;
                }
                self.heap.pop();
                match self.states.get(idx) {
                    Some(st) if st.epoch == epoch => match st.due {
                        Due::Poll => self.polled.push(idx),
                        Due::Requery => self.requery.push(idx),
                    },
                    _ => {} // stale entry
                }
            }
            if self.requery.is_empty() {
                return Ok(());
            }
            self.rearm(t, trace, &mut query)?;
        }
    }

    /// Queue the units a success invalidated: every live
    /// NextSuccess-scoped one, plus the polled ones (their entries were
    /// consumed), in index order.
    fn requery_after_success(&mut self) {
        self.requery.clear();
        for idx in self.scoped.drain(..) {
            if let Some(st) = self.states.get_mut(idx) {
                if st.success_scoped {
                    st.success_scoped = false;
                    self.requery.push(idx);
                }
            }
        }
        self.requery.extend_from_slice(&self.polled);
        self.requery.sort_unstable();
        self.requery.dedup();
    }

    /// Queue exactly the polled units (their entries were consumed; a
    /// silence or collision invalidates nothing else).
    fn requery_polled(&mut self) {
        self.requery.clear();
        self.requery.extend_from_slice(&self.polled);
    }

    /// Leave the hint path for good at `slot`: some unit answered
    /// [`TxHint::Dense`] or a malformed scope, or the word kernel cannot
    /// plan for it. Leaving the sparse path this way is traced as a mode
    /// switch but, unlike the adaptive switches, not counted in
    /// [`Outcome::mode_switches`].
    fn lock_dense<T: Tracer + ?Sized>(&mut self, slot: Slot, trace: &mut TraceCtx<'_, T>) {
        if self.sparse() {
            trace.emit(TraceEvent::ModeSwitch { slot, dense: true });
        }
        self.path = Path::Locked;
        self.heap.clear();
    }

    /// Does any unit polled at the current event hold an
    /// [`Until::NextSuccess`]-scoped hint? Such a unit is waiting for the
    /// next success — a feedback-driven resolver — and keeps its collision
    /// out of a streak.
    fn polled_success_scoped(&self) -> bool {
        self.polled
            .iter()
            .any(|&idx| self.states.get(idx).is_some_and(|st| st.success_scoped))
    }

    /// Drop from the sparse path into an adaptive dense burst window at
    /// `slot`, sized for `units` awake units, for `cause`.
    fn open_burst<T: Tracer + ?Sized>(
        &mut self,
        slot: Slot,
        units: usize,
        cause: BurstCause,
        policy: &mut Adaptive,
        ledger: &mut Ledger<'_, T>,
    ) {
        self.path = Path::Burst;
        ledger.out.mode_switches += 1;
        policy.start_burst(units, cause);
        ledger
            .trace
            .emit(TraceEvent::ModeSwitch { slot, dense: true });
        ledger.trace.emit(TraceEvent::BurstOpen {
            slot,
            window: policy.burst_len,
            cause,
        });
        self.reset();
    }
}

/// Churn as an event source: every crash and re-wake of the run,
/// materialized once from the pattern (a pure function of
/// `(run_seed, id, wake)` — engine-path-independent) and handed out in
/// slot order. The loop processes churn at the top of a slot, so every
/// path lands on exactly these slots.
struct ChurnEvents {
    crashes: Peekable<std::vec::IntoIter<(Slot, StationId)>>,
    rewakes: Peekable<std::vec::IntoIter<(Slot, StationId)>>,
    /// Seed stream of re-woken instances.
    rewake_seed: u64,
}

impl ChurnEvents {
    fn new(
        script: &ChurnScript,
        run_seed: u64,
        wakes: impl Iterator<Item = (StationId, Slot)>,
    ) -> Self {
        let mut crashes = Vec::new();
        let mut rewakes = Vec::new();
        if !script.is_empty() {
            for (id, sigma) in wakes {
                if let Some((crash, rewake)) = script.fate(run_seed, id, sigma) {
                    crashes.push((crash, id));
                    if let Some(r) = rewake {
                        rewakes.push((r, id));
                    }
                }
            }
            crashes.sort_unstable();
            rewakes.sort_unstable();
        }
        ChurnEvents {
            crashes: crashes.into_iter().peekable(),
            rewakes: rewakes.into_iter().peekable(),
            rewake_seed: derive_seed(run_seed, REWAKE_STREAM),
        }
    }

    /// Take the next crash due at or before `t`.
    fn crash_due(&mut self, t: Slot) -> Option<(Slot, StationId)> {
        self.crashes.next_if(|&(slot, _)| slot <= t)
    }

    /// Take the next re-wake due at or before `t`.
    fn rewake_due(&mut self, t: Slot) -> Option<(Slot, StationId)> {
        self.rewakes.next_if(|&(slot, _)| slot <= t)
    }

    /// The earliest pending churn slot — the loop must land on it exactly,
    /// never skip or tile over it.
    fn next_slot(&mut self) -> Option<Slot> {
        let crash = self.crashes.peek().map(|&(slot, _)| slot);
        let rewake = self.rewakes.peek().map(|&(slot, _)| slot);
        crash.into_iter().chain(rewake).min()
    }
}

/// Per-station transmission counts of a class run, in wake order (detail
/// mode only — the table is O(k) by nature).
#[derive(Default)]
struct TxDetail {
    rows: Vec<(StationId, u64)>,
    #[expect(
        clippy::disallowed_types,
        reason = "lookup-only index into the wake-ordered rows; never iterated"
    )]
    index: std::collections::HashMap<StationId, usize>,
}

impl TxDetail {
    /// Give `id` a row unless it has one (a re-woken station keeps
    /// accumulating into its original row).
    fn add(&mut self, id: StationId) {
        let rows = &mut self.rows;
        self.index.entry(id).or_insert_with(|| {
            rows.push((id, 0));
            rows.len() - 1
        });
    }

    /// Count one transmission of every station in `ids`.
    fn count(&mut self, ids: &[StationId]) {
        for id in ids {
            if let Some(row) = self.index.get(id).and_then(|&i| self.rows.get_mut(i)) {
                row.1 += 1;
            }
        }
    }
}

/// The units one run steps: concrete [`Stations`] or class units
/// ([`Classes`]). The slot loop ([`Simulator::simulate`]) is generic over
/// them, so each population compiles to a loop of its own, with no dispatch
/// between the two. Units are indexed in admission order, in step with the
/// hint scheduler's per-unit states, and never removed (a crash leaves an
/// inert unit in place), so indices stay stable.
trait Units<'a> {
    /// Live units.
    fn len(&self) -> usize;

    /// Every pattern station with its wake slot (the churn script's input).
    fn wakes(&self) -> impl Iterator<Item = (StationId, Slot)> + '_;

    /// The wake slot of the next arrival not yet admitted.
    fn next_arrival(&self) -> Option<Slot>;

    /// Admit the next arrival at `t`, woken at its own wake slot, as new
    /// units at the end of the list. Returns how many of its stations the
    /// caller still has to trace as woken: a class batch traces its own wake
    /// ahead of its units' hints, while concrete stations are traced
    /// together once the slot's arrivals are in.
    fn admit_next<T: Tracer + ?Sized>(&mut self, t: Slot, trace: &mut TraceCtx<'_, T>) -> u64;

    /// Re-wake crashed station `id` at `slot` as a fresh instance seeded
    /// from `seed`, as new units at the end of the list.
    fn rewake(&mut self, id: StationId, slot: Slot, seed: u64);

    /// Crash station `id`: a concrete station turns into an inert listener,
    /// a class drops the member (and turns inert once emptied). Returns the
    /// index of the unit that still held `id`, if any.
    fn crash(&mut self, id: StationId) -> Option<usize>;

    /// A fresh hint from unit `idx`, looking from `after`.
    fn hint(&mut self, idx: usize, after: Slot) -> TxHint;

    /// Poll the units `who` (every unit for `None`) at `t`: the slot's
    /// ground truth and its number of transmitters.
    fn poll(&mut self, t: Slot, who: Option<&[usize]>) -> (SlotOutcome, u64);

    /// Deliver the feedback `fb` of slot `t` to the units `who` (every unit
    /// for `None`).
    fn feedback(&mut self, t: Slot, fb: Feedback, who: Option<&[usize]>);

    /// The class gate: the concrete stations, which the adaptive policy and
    /// the word kernel step, or `None` for class units, which take the hint
    /// heap with its permanent dense lock only.
    fn stations(&mut self) -> Option<&mut Stations<'a>>;

    /// Per-station transmission counts in wake order, empty without
    /// per-station `detail`.
    fn per_station_tx(self, detail: bool) -> Vec<(StationId, u64)>;
}

/// Apply `f` to the units `who` of `units` (every unit for `None`).
#[inline]
fn each<X>(units: &mut [X], who: Option<&[usize]>, mut f: impl FnMut(&mut X)) {
    match who {
        None => units.iter_mut().for_each(f),
        Some(idxs) => {
            for &idx in idxs {
                if let Some(unit) = units.get_mut(idx) {
                    f(unit);
                }
            }
        }
    }
}

/// Concrete stations: one boxed [`Station`] per woken station, with its
/// transmission count. Block patterns are materialized up front (O(k) — the
/// documented cost of running a mega pattern concretely).
struct Stations<'a> {
    protocol: &'a dyn Protocol,
    run_seed: u64,
    /// Every wake, sorted by (slot, id).
    wakes: Cow<'a, [(StationId, Slot)]>,
    /// Index of the next arrival in `wakes`.
    next_wake: usize,
    /// (id, station, transmission count), in admission order.
    awake: Vec<(StationId, Box<dyn Station>, u64)>,
    /// The transmitters of the slot being resolved.
    transmitters: Vec<StationId>,
}

impl<'a> Units<'a> for Stations<'a> {
    #[inline]
    fn len(&self) -> usize {
        self.awake.len()
    }

    fn wakes(&self) -> impl Iterator<Item = (StationId, Slot)> + '_ {
        self.wakes.iter().copied()
    }

    #[inline]
    fn next_arrival(&self) -> Option<Slot> {
        self.wakes.get(self.next_wake).map(|&(_, sigma)| sigma)
    }

    fn admit_next<T: Tracer + ?Sized>(&mut self, _t: Slot, _trace: &mut TraceCtx<'_, T>) -> u64 {
        let Some(&(id, sigma)) = self.wakes.get(self.next_wake) else {
            return 0;
        };
        self.next_wake += 1;
        let seed = derive_seed(self.run_seed, u64::from(id.0));
        let mut station = self.protocol.station(id, seed);
        station.wake(sigma);
        self.awake.push((id, station, 0));
        1
    }

    fn rewake(&mut self, id: StationId, slot: Slot, seed: u64) {
        let mut station = self
            .protocol
            .station(id, derive_seed(seed, u64::from(id.0)));
        station.wake(slot);
        self.awake.push((id, station, 0));
    }

    fn crash(&mut self, id: StationId) -> Option<usize> {
        let idx = self.awake.iter().rposition(|(aid, _, _)| *aid == id)?;
        if let Some(entry) = self.awake.get_mut(idx) {
            entry.1 = Box::new(NeverTransmit);
        }
        Some(idx)
    }

    #[inline]
    fn hint(&mut self, idx: usize, after: Slot) -> TxHint {
        self.awake
            .get_mut(idx)
            .map_or(TxHint::Dense, |(_, station, _)| {
                station.next_transmission(after)
            })
    }

    #[inline]
    fn poll(&mut self, t: Slot, who: Option<&[usize]>) -> (SlotOutcome, u64) {
        let transmitters = &mut self.transmitters;
        transmitters.clear();
        each(&mut self.awake, who, |(id, station, tx_count)| {
            if station.act(t).is_transmit() {
                transmitters.push(*id);
                *tx_count += 1;
            }
        });
        let count = transmitters.len() as u64;
        (SlotOutcome::resolve(transmitters.clone()), count)
    }

    #[inline]
    fn feedback(&mut self, t: Slot, fb: Feedback, who: Option<&[usize]>) {
        each(&mut self.awake, who, |(_, station, _)| {
            station.feedback(t, fb)
        });
    }

    fn stations(&mut self) -> Option<&mut Stations<'a>> {
        Some(self)
    }

    fn per_station_tx(self, detail: bool) -> Vec<(StationId, u64)> {
        if !detail {
            Vec::new()
        } else if self.awake.len() == self.next_wake {
            // No re-wake fired, so every ID is in `awake` once.
            self.awake.iter().map(|(id, _, tx)| (*id, *tx)).collect()
        } else {
            // Re-wakes duplicate IDs in `awake`: merge each ID's counts
            // into its first occurrence (wake order), found by index.
            let mut merged: Vec<(StationId, u64)> = Vec::with_capacity(self.awake.len());
            let mut first: BTreeMap<StationId, usize> = BTreeMap::new();
            for (id, _, tx) in &self.awake {
                let row = *first.entry(*id).or_insert_with(|| {
                    merged.push((*id, 0));
                    merged.len() - 1
                });
                if let Some((_, count)) = merged.get_mut(row) {
                    *count += tx;
                }
            }
            merged
        }
    }
}

/// Class units: each wake batch runs as the protocol's class unit, or as
/// one singleton per station when it has none ([`population::admit`]).
/// Memory is O(live units): nothing is sized by the pattern's station
/// count unless per-station detail asks for its table.
struct Classes<'a> {
    protocol: &'a dyn Protocol,
    run_seed: u64,
    /// The pattern's wake batches, in slot order.
    batches: Vec<(Slot, Members)>,
    /// Index of the next arrival in `batches`.
    next_batch: usize,
    units: Vec<Box<dyn ClassStation>>,
    /// The transmitters of the slot being resolved.
    tally: TxTally,
    /// Per-station transmission counts, with per-station detail on.
    detail: Option<TxDetail>,
}

impl<'a> Classes<'a> {
    fn new(
        protocol: &'a dyn Protocol,
        pattern: &WakePattern,
        run_seed: u64,
        cfg: &SimConfig,
    ) -> Self {
        let detail = cfg.per_station_detail;
        Classes {
            protocol,
            run_seed,
            batches: pattern.batches_by_slot(),
            next_batch: 0,
            units: Vec::new(),
            // Transcripts and per-station detail need individual
            // transmitter IDs — as does capture, whose winner is drawn from
            // the contender list; mega runs use weighted counts only.
            tally: TxTally::new(detail || cfg.record_transcript || cfg.channel.capture_ppm > 0),
            detail: detail.then(TxDetail::default),
        }
    }
}

impl<'a> Units<'a> for Classes<'a> {
    #[inline]
    fn len(&self) -> usize {
        self.units.len()
    }

    fn wakes(&self) -> impl Iterator<Item = (StationId, Slot)> + '_ {
        self.batches
            .iter()
            .flat_map(|(sigma, members)| members.iter().map(move |id| (id, *sigma)))
    }

    #[inline]
    fn next_arrival(&self) -> Option<Slot> {
        self.batches.get(self.next_batch).map(|&(sigma, _)| sigma)
    }

    fn admit_next<T: Tracer + ?Sized>(&mut self, t: Slot, trace: &mut TraceCtx<'_, T>) -> u64 {
        let Some((sigma, members)) = self.batches.get(self.next_batch) else {
            return 0;
        };
        self.next_batch += 1;
        trace.emit(TraceEvent::Wake {
            slot: t,
            stations: members.count(),
        });
        if let Some(detail) = self.detail.as_mut() {
            for id in members.iter() {
                detail.add(id);
            }
        }
        for mut unit in population::admit(self.protocol, members, self.run_seed) {
            unit.wake(*sigma);
            self.units.push(unit);
        }
        0
    }

    fn rewake(&mut self, id: StationId, slot: Slot, seed: u64) {
        // A fresh single-member unit; its transmissions accumulate into the
        // station's original detail row.
        if let Some(detail) = self.detail.as_mut() {
            detail.add(id);
        }
        for mut unit in population::admit(self.protocol, &Members::from_sorted_ids(&[id]), seed) {
            unit.wake(slot);
            self.units.push(unit);
        }
    }

    fn crash(&mut self, id: StationId) -> Option<usize> {
        self.units
            .iter_mut()
            .enumerate()
            .find_map(|(idx, unit)| match unit.remove_member(id) {
                MemberRemoval::NotMember => None,
                MemberRemoval::Removed { emptied } => {
                    if emptied {
                        *unit = Box::new(DeadClass);
                    }
                    Some(idx)
                }
            })
    }

    #[inline]
    fn hint(&mut self, idx: usize, after: Slot) -> TxHint {
        self.units
            .get_mut(idx)
            .map_or(TxHint::Dense, |unit| unit.next_transmission(after))
    }

    fn poll(&mut self, t: Slot, who: Option<&[usize]>) -> (SlotOutcome, u64) {
        let tally = &mut self.tally;
        tally.clear();
        each(&mut self.units, who, |unit| unit.act(t, tally));
        // Exact IDs in the collecting regime (identical to the concrete
        // `SlotOutcome::resolve`), weighted counts otherwise: collision IDs
        // are not materialized — O(1) memory at mega scale; the sole
        // transmitter of a success always carries its ID.
        let truth = if tally.collect_ids() {
            let ids = tally.sorted_ids();
            if let Some(detail) = self.detail.as_mut() {
                detail.count(ids);
            }
            SlotOutcome::resolve(ids.to_vec())
        } else {
            match tally.winner() {
                Some(w) => SlotOutcome::Success(w),
                None if tally.total() == 0 => SlotOutcome::Silence,
                None => SlotOutcome::Collision(Vec::new()),
            }
        };
        (truth, tally.total())
    }

    fn feedback(&mut self, t: Slot, fb: Feedback, who: Option<&[usize]>) {
        each(&mut self.units, who, |unit| unit.feedback(t, fb));
    }

    fn stations(&mut self) -> Option<&mut Stations<'a>> {
        None
    }

    fn per_station_tx(self, _detail: bool) -> Vec<(StationId, u64)> {
        self.detail.map_or_else(Vec::new, |detail| detail.rows)
    }
}

/// The simulator. Stateless between runs; holds only the configuration.
#[derive(Clone, Debug)]
pub struct Simulator {
    cfg: SimConfig,
}

impl Simulator {
    /// Create a simulator with the given configuration.
    pub fn new(cfg: SimConfig) -> Self {
        Simulator { cfg }
    }

    /// The configuration.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Run `protocol` against `pattern`.
    ///
    /// `run_seed` determinizes every random choice: per-station seeds are
    /// derived as `derive_seed(run_seed, id)`, so the same
    /// `(protocol, pattern, run_seed)` triple always reproduces the same run.
    ///
    /// The run steps one concrete station per woken station, or class units
    /// under [`PopulationMode::Classes`] (identical outcomes, memory
    /// O(classes)).
    pub fn run(
        &self,
        protocol: &dyn Protocol,
        pattern: &WakePattern,
        run_seed: u64,
    ) -> Result<Outcome, SimError> {
        // Monomorphized over NoopTracer: every trace emission site compiles
        // away, so the untraced path pays nothing for the subsystem.
        self.run_traced_impl(protocol, pattern, run_seed, &mut NoopTracer)
    }

    /// [`run`](Simulator::run) with a [`Tracer`] attached: structured
    /// [`TraceEvent`]s are emitted from the engine hot paths as the run
    /// executes. The returned [`Outcome`] (and transcript) is bit-identical
    /// to the untraced run — tracing observes, never steers.
    pub fn run_traced(
        &self,
        protocol: &dyn Protocol,
        pattern: &WakePattern,
        run_seed: u64,
        tracer: &mut dyn Tracer,
    ) -> Result<Outcome, SimError> {
        self.run_traced_impl(protocol, pattern, run_seed, tracer)
    }

    /// Validate the run, then step the population's units.
    fn run_traced_impl<T: Tracer + ?Sized>(
        &self,
        protocol: &dyn Protocol,
        pattern: &WakePattern,
        run_seed: u64,
        tracer: &mut T,
    ) -> Result<Outcome, SimError> {
        if self.cfg.n == 0 {
            return Err(SimError::NoStations);
        }
        if let Some(id) = pattern.out_of_range(self.cfg.n) {
            return Err(SimError::StationOutOfRange { id, n: self.cfg.n });
        }
        Ok(match self.cfg.population {
            PopulationMode::Concrete => {
                let units = Stations {
                    protocol,
                    run_seed,
                    wakes: pattern.materialize(),
                    next_wake: 0,
                    awake: Vec::new(),
                    transmitters: Vec::new(),
                };
                self.simulate(units, pattern, run_seed, tracer)
            }
            PopulationMode::Classes => {
                let units = Classes::new(protocol, pattern, run_seed, &self.cfg);
                self.simulate(units, pattern, run_seed, tracer)
            }
        })
    }

    /// The slot loop, generic over the [`Units`] it steps. Concrete
    /// stations take every path: the sparse hint heap, adaptive burst
    /// windows, scalar dense stepping and the word kernel. The class gate
    /// ([`Units::stations`]), checked once at run start, keeps class units
    /// on the hint heap with its permanent dense lock: they never open a
    /// burst window or run the kernel, and [`EngineMode::Bitslab`] steps
    /// them scalar-dense.
    fn simulate<'a, U: Units<'a>, T: Tracer + ?Sized>(
        &self,
        mut units: U,
        pattern: &WakePattern,
        run_seed: u64,
        tracer: &mut T,
    ) -> Outcome {
        let hybrid = units.stations().is_some(); // the class gate
        let mut ledger = Ledger::new(&self.cfg, pattern.s(), pattern.k(), run_seed, tracer);
        let mut churn = ChurnEvents::new(&self.cfg.churn, run_seed, units.wakes());

        // Sparse under Auto until any unit answers TxHint::Dense (or a
        // malformed scope), which locks dense polling permanently, or until
        // the adaptive policy drops into a dense burst window (from which a
        // re-probe can return to sparse).
        let mut hints = Hints::new(self.cfg.engine, if hybrid { pattern.k() } else { 0 });
        let mut policy = Adaptive::default();
        // Word-kernel state (EngineMode::Bitslab always; Auto burst windows
        // until a TxHint::Dense answer): per-station claim memos reusable
        // across consecutive tiles, per-tile fill plumbing, and the slot the
        // memos are coherent from. `kernel_dead` records a station that the
        // kernel cannot plan for (TxHint::Dense or a malformed scope) — the
        // engine then steps scalar dense, exactly like the sparse path's
        // permanent dense lock.
        let mut kernel_dead = false;
        let mut word_memos: Vec<WordMemo> = Vec::new();
        let mut word_generic: Vec<bool> = Vec::new();
        let mut word_cols: Vec<u64> = Vec::new();
        let mut word_blocks: Vec<[u64; 64]> = Vec::new();
        let mut word_tx_idx: Vec<usize> = Vec::new();
        let mut word_cont: Slot = Slot::MAX;
        // Tile-width ramp: a fresh kernel engagement starts with a narrow
        // tile and doubles on every contiguous follow-up, so a run that ends
        // a handful of slots into a burst never pays for a full 64-slot fill
        // (the overshoot is bounded by the width of the last tile), while a
        // long burst reaches full-word tiles after three doublings.
        const WORD_RAMP_SEED: u64 = 8;
        let mut word_ramp: u64 = WORD_RAMP_SEED;

        let mut t = pattern.s();
        'slots: while ledger.running() {
            // Admit the arrivals due at or before t.
            let batch_start = units.len();
            let mut woken = 0;
            while units.next_arrival().is_some_and(|sigma| sigma <= t) {
                let first = units.len();
                woken += units.admit_next(t, &mut ledger.trace);
                for idx in first..units.len() {
                    let due = hints.admit(t, &mut ledger.trace, || units.hint(idx, t));
                    // Wake-time burst detection, short-circuited: a *batch*
                    // arrival (≥ 2 stations this slot) whose member is due
                    // immediately has nothing to skip — drop straight into
                    // dense stepping instead of paying hint queries for the
                    // rest of the batch.
                    if hybrid
                        && due.is_some_and(|due| due <= t + 1)
                        && (idx > batch_start || units.next_arrival().is_some_and(|w| w <= t))
                    {
                        hints.open_burst(t, idx + 1, BurstCause::Wake, &mut policy, &mut ledger);
                    }
                }
            }
            if woken > 0 {
                ledger.trace.emit(TraceEvent::Wake {
                    slot: t,
                    stations: woken,
                });
            }
            // Crash stations fated to die at or before t: the unit turns
            // inert (or drops the member) in place — no dead-flag checks on
            // the hot paths — and its hint is superseded or, on the sparse
            // path, re-armed from t.
            while let Some((cslot, cid)) = churn.crash_due(t) {
                if let Some(idx) = units.crash(cid) {
                    if let Some(memo) = word_memos.get_mut(idx) {
                        *memo = WordMemo::Stale;
                    }
                    if !hints.sparse() {
                        hints.supersede(idx);
                    } else if hints.install(idx, t, units.hint(idx, t)).is_err() {
                        hints.lock_dense(t, &mut ledger.trace);
                    }
                }
                // Counted even when no unit holds the station any more (it
                // retired out of its class), as a concrete run counts it.
                ledger.crashed(cslot, cid);
            }
            // Re-wake crashed stations fated to return at or before t, as
            // fresh protocol instances under the re-wake seed stream (the
            // old instance's state died with it).
            while let Some((rslot, rid)) = churn.rewake_due(t) {
                let first = units.len();
                units.rewake(rid, rslot, churn.rewake_seed);
                for idx in first..units.len() {
                    hints.admit(t, &mut ledger.trace, || units.hint(idx, t));
                }
                ledger.rewoke(rslot, rid);
            }
            ledger.watermark(t, hints.heap.len(), units.len());
            // Full-batch burst test: after a batch arrival, if the earliest
            // live obligation in the heap is due within RESUME_GAP slots,
            // the heap has nothing to skip right now — run the burst dense.
            if hybrid
                && hints.sparse()
                && units.len() - batch_start >= 2
                && hints.next_due().is_some_and(|due| due < t + RESUME_GAP)
            {
                hints.open_burst(t, units.len(), BurstCause::Wake, &mut policy, &mut ledger);
            }

            if hints.sparse() {
                let event = hints.horizon(units.next_arrival(), churn.next_slot());
                debug_assert!(
                    event.is_none_or(|e| e >= t),
                    "event {event:?} behind clock {t}"
                );
                if event != Some(t) {
                    match ledger.skip_to(t, event) {
                        Some(next) => {
                            t = next;
                            continue 'slots; // re-checks the cap / wakes arrivals
                        }
                        None => break 'slots,
                    }
                }

                // Event at t: serve the due entries.
                if hints
                    .serve(t, &mut ledger.trace, |idx| units.hint(idx, t))
                    .is_err()
                {
                    hints.lock_dense(t, &mut ledger.trace);
                    continue 'slots; // dense path simulates slot t itself
                }
                if hints.polled.is_empty() {
                    // Pure re-query event: nobody claimed a transmission at
                    // t after all, so the slot joins the next silent gap
                    // instead of being simulated individually.
                    continue 'slots;
                }

                // Transmission event at t: poll exactly the scheduled units
                // (everyone else is silent by promise).
                ledger.out.polls += hints.polled.len() as u64;
                let (truth, contenders) = units.poll(t, Some(&hints.polled));
                match ledger.settle(t, truth, contenders, Via::Event) {
                    Settled::Stop => break 'slots, // matches dense: no feedback delivered
                    Settled::Success(fb) => {
                        // AllResolved: a success is heard by every station,
                        // so feedback goes to the whole floor (matching
                        // dense).
                        units.feedback(t, fb, None);
                        if ledger.all_resolved(t, units.next_arrival().is_some()) {
                            break 'slots;
                        }
                        // The success event invalidates every
                        // NextSuccess-scoped hint; re-query exactly those
                        // units (plus the polled ones) from t + 1.
                        hints.requery_after_success();
                        if hints
                            .rearm(t + 1, &mut ledger.trace, |idx| units.hint(idx, t + 1))
                            .is_err()
                        {
                            hints.lock_dense(t + 1, &mut ledger.trace);
                        }
                        // A success breaks the collision streak.
                        policy.streak = 0;
                    }
                    Settled::NoSuccess(fb) => {
                        // Non-success feedback goes only to the polled
                        // units: Forever-scoped ones are oblivious,
                        // NextSuccess-scoped ones must ignore anything but
                        // a success, by contract.
                        units.feedback(t, fb, Some(&hints.polled));
                        // Re-arm the polled units' hints (their entries were
                        // consumed); nothing else was invalidated.
                        hints.requery_polled();
                        let rearmed =
                            hints.rearm(t + 1, &mut ledger.trace, |idx| units.hint(idx, t + 1));
                        if rearmed.is_err() {
                            hints.lock_dense(t + 1, &mut ledger.trace);
                        } else if hybrid {
                            // Back-to-back collisions among stations that
                            // are not waiting for the next success: the
                            // heap has nothing to skip until one of them
                            // wins, so a streak of them goes to the kernel.
                            let contended = contenders >= 2 && !hints.polled_success_scoped();
                            if policy.streak_event(t, contended) {
                                hints.open_burst(
                                    t + 1,
                                    units.len(),
                                    BurstCause::Streak,
                                    &mut policy,
                                    &mut ledger,
                                );
                            }
                        }
                    }
                }
                t += 1;
                continue 'slots;
            }

            // Dense stepping. When the word kernel is live — always under
            // EngineMode::Bitslab, and in Auto burst windows that survived
            // their scalar warmup, until a TxHint::Dense answer; never for
            // class units — whole tiles of up to 64 slots are resolved by
            // popcount over transposed per-station bit columns,
            // materializing feedback/trace only on real channel events.
            // Otherwise one scalar slot is polled. Both converge on the
            // shared adaptive tail below.
            let kernel_live = !kernel_dead
                && match self.cfg.engine {
                    EngineMode::Bitslab => true,
                    EngineMode::Auto => hints.path == Path::Burst && policy.kernel_warm(),
                    EngineMode::Dense => false,
                };
            let mut stepped = 1u64; // slots consumed by this iteration
            let mut step_success = false;
            let mut ran_tile = false;
            if let Some(st) = units.stations().filter(|_| kernel_live) {
                // Tile horizon: the ramp width, then stop at the next
                // arrival (the wake loop at the top of 'slots admits
                // batches), at the next churn event (processed at the loop
                // top too), the slot cap, and — under Auto — the burst
                // window's own expiry.
                word_ramp = if word_cont == t {
                    (word_ramp * 2).min(64)
                } else {
                    WORD_RAMP_SEED
                };
                let mut tile_h = t + word_ramp;
                if let Some(sigma) = st.next_arrival() {
                    tile_h = tile_h.min(sigma);
                }
                if let Some(churn_slot) = churn.next_slot() {
                    tile_h = tile_h.min(churn_slot);
                }
                tile_h = tile_h.min(t + ledger.remaining());
                if self.cfg.engine == EngineMode::Auto {
                    tile_h = tile_h.min(t + policy.burst_remaining.max(1));
                }

                // Memos are claims carried over from earlier tiles; they
                // are coherent only when this tile starts exactly where the
                // previous one ended (no sparse interlude, no re-probe).
                if word_cont != t {
                    word_memos.clear();
                }
                word_memos.resize(st.awake.len(), WordMemo::Stale);
                word_generic.clear();
                word_generic.resize(st.awake.len(), false);
                word_cols.clear();
                word_cols.resize(st.awake.len(), 0);

                // Fill one column of transmit bits per station. Each claim
                // is scoped per the TxHint obligations, and `tile_h` shrinks
                // to the first slot not covered by some station's claim —
                // one query per station per tile, never a lookahead (the
                // `after` arguments of `next_transmission` must stay
                // non-decreasing even if a mid-tile success re-probes).
                let mut fill_err = false;
                let columns = word_cols.iter_mut().zip(word_generic.iter_mut());
                for (((_, station, _), memo), (col, generic)) in
                    st.awake.iter_mut().zip(word_memos.iter_mut()).zip(columns)
                {
                    // A still-valid claim from a previous tile?
                    let memo_claim = match *memo {
                        WordMemo::Hint { next, until } => {
                            let live = !matches!(until, Until::Slot(tb) if tb <= t);
                            debug_assert!(
                                next.is_none_or(|p| p >= t),
                                "stale word memo: next={next:?} at tile base {t}"
                            );
                            live.then_some((next, until))
                        }
                        WordMemo::Stale => None,
                    };
                    let (next, until) = match memo_claim {
                        Some(claim) => claim,
                        None => {
                            // Protocol-level batch fill first…
                            if let Some(w) = station.fill_tx_word(t, (tile_h - t) as u32) {
                                let (mask, horizon) = match w.until {
                                    Until::Slot(tb) if tb <= t => {
                                        fill_err = true;
                                        break;
                                    }
                                    Until::Slot(tb) => (low_mask(tb - t), tb),
                                    Until::Forever | Until::NextSuccess => (u64::MAX, t + 64),
                                };
                                *col = w.bits & mask;
                                tile_h = tile_h.min(horizon);
                                continue;
                            }
                            // …generic per-station fill from the hint protocol.
                            let (next, until) = match station.next_transmission(t) {
                                TxHint::Dense => {
                                    fill_err = true;
                                    break;
                                }
                                TxHint::At(p, until) => (Some(p.max(t)), until),
                                TxHint::Never(until) => (None, until),
                            };
                            match until {
                                Until::Slot(tb) if tb <= t => {
                                    fill_err = true;
                                    break;
                                }
                                // Scope boundary before the claimed
                                // transmission: only the silence up to `tb`
                                // is usable.
                                Until::Slot(tb) => (next.filter(|&p| p < tb), until),
                                Until::Forever | Until::NextSuccess => (next, until),
                            }
                        }
                    };
                    *generic = true;
                    *memo = WordMemo::Hint { next, until };
                    match next {
                        Some(p) => {
                            if p - t < 64 {
                                *col = 1u64 << (p - t);
                            }
                            // Nothing is claimed past the transmission.
                            tile_h = tile_h.min(p + 1);
                        }
                        None => {
                            if let Until::Slot(tb) = until {
                                tile_h = tile_h.min(tb);
                            }
                        }
                    }
                }

                if fill_err {
                    // Same permanent lock as a TxHint::Dense answer on the
                    // sparse path: scalar dense polling from here on.
                    hints.lock_dense(t, &mut ledger.trace);
                    kernel_dead = true;
                } else {
                    ran_tile = true;
                    let w = (tile_h - t) as usize;
                    debug_assert!(0 < w && w <= 64, "tile width {w}");
                    let wmask = low_mask(w as u64);
                    // Transpose station-major columns into slot-major rows:
                    // after transposing each 64-station block, word `j` of a
                    // block holds that block's transmit bits for slot t + j.
                    word_blocks.clear();
                    word_blocks.resize(st.awake.len().div_ceil(64), [0u64; 64]);
                    for (blk, cols) in word_blocks.iter_mut().zip(word_cols.chunks(64)) {
                        for (row, &col) in blk.iter_mut().zip(cols) {
                            *row = col & wmask;
                        }
                        transpose64(blk);
                    }

                    let mut tile_end = t + w as u64;
                    let mut silent_from = t;
                    let mut silent_run = 0u64;
                    'tile: for j in 0..w {
                        let slot = t + j as u64;
                        let row = |blk: &[u64; 64]| blk.get(j).copied().unwrap_or(0);
                        if word_blocks.iter().all(|blk| row(blk) == 0) {
                            if silent_run == 0 {
                                silent_from = slot;
                            }
                            silent_run += 1;
                            continue 'tile;
                        }
                        // A real channel event: flush the silent prefix,
                        // then materialize exactly this slot.
                        if silent_run > 0 {
                            ledger.silence(silent_from, silent_run, Via::Word);
                            silent_run = 0;
                        }
                        st.transmitters.clear();
                        word_tx_idx.clear();
                        for (b, blk) in word_blocks.iter().enumerate() {
                            let mut bits = row(blk);
                            while bits != 0 {
                                word_tx_idx.push(b * 64 + bits.trailing_zeros() as usize);
                                bits &= bits - 1;
                            }
                        }
                        for &idx in &word_tx_idx {
                            let Some((id, station, tx_count)) = st.awake.get_mut(idx) else {
                                continue;
                            };
                            if word_generic.get(idx) == Some(&true) {
                                // The generic fill promised a transmission
                                // here: give the station its act() call
                                // (the sparse path's lifecycle) and consume
                                // the claim.
                                ledger.out.polls += 1;
                                let acted = station.act(slot).is_transmit();
                                debug_assert!(acted, "hinted transmission at {slot} not acted on");
                                let _ = acted;
                                if let Some(memo) = word_memos.get_mut(idx) {
                                    *memo = WordMemo::Stale;
                                }
                            }
                            st.transmitters.push(*id);
                            *tx_count += 1;
                        }
                        let truth = SlotOutcome::resolve(st.transmitters.clone());
                        let contenders = st.transmitters.len() as u64;
                        match ledger.settle(slot, truth, contenders, Via::Word) {
                            Settled::Stop => break 'slots, // matches scalar: no feedback
                            Settled::Success(fb) => {
                                step_success = true;
                                // AllResolved: the success is heard by the
                                // whole floor (matching both scalar paths).
                                st.feedback(slot, fb, None);
                                if ledger.all_resolved(slot, st.next_arrival().is_some()) {
                                    break 'slots;
                                }
                                // The success voids every NextSuccess-scoped
                                // claim; close the tile so the next one
                                // refills from slot + 1.
                                for m in word_memos.iter_mut() {
                                    if let WordMemo::Hint {
                                        until: Until::NextSuccess,
                                        ..
                                    } = m
                                    {
                                        *m = WordMemo::Stale;
                                    }
                                }
                                tile_end = slot + 1;
                                break 'tile;
                            }
                            Settled::NoSuccess(fb) => {
                                // Non-success feedback goes only to the
                                // transmitters (the sparse-path contract;
                                // everyone else ignores it by scope). A
                                // silence here is an erased success.
                                st.feedback(slot, fb, Some(&word_tx_idx));
                            }
                        }
                    }
                    if silent_run > 0 {
                        ledger.silence(silent_from, silent_run, Via::Word);
                    }
                    stepped = tile_end - t;
                    t = tile_end;
                    word_cont = tile_end;
                }
            }
            if !ran_tile {
                // Scalar dense slot: poll every awake unit, then deliver
                // feedback to every awake unit.
                ledger.out.polls += units.len() as u64;
                let (truth, contenders) = units.poll(t, None);
                let fb = match ledger.settle(t, truth, contenders, Via::Dense) {
                    Settled::Stop => break 'slots,
                    Settled::Success(fb) => {
                        step_success = true;
                        fb
                    }
                    Settled::NoSuccess(fb) => fb,
                };
                units.feedback(t, fb, None);
                // The final feedback lets the last winner learn of its own
                // success before the run stops.
                if step_success && ledger.all_resolved(t, units.next_arrival().is_some()) {
                    break 'slots;
                }
                t += 1;
            }

            // Adaptive burst window bookkeeping (only in a burst window —
            // never when dense is locked by EngineMode::Dense /
            // EngineMode::Bitslab or a TxHint::Dense answer): at window
            // expiry — and early at success events, which reshape the hint
            // landscape (retirement) — re-probe whether sparsity pays again.
            if hints.path == Path::Burst {
                policy.burst_remaining = policy.burst_remaining.saturating_sub(stepped);
                if policy.burst_remaining == 0 || step_success {
                    // Re-query every awake unit for a fresh hint from t.
                    hints.reset();
                    hints.requery.clear();
                    hints.requery.extend(0..units.len());
                    if hints
                        .rearm(t, &mut ledger.trace, |idx| units.hint(idx, t))
                        .is_err()
                    {
                        hints.lock_dense(t, &mut ledger.trace);
                        continue 'slots;
                    }
                    let event = hints.horizon(units.next_arrival(), None);
                    // Resume sparse only when there is an actual gap to
                    // skip (or provable silence to the cap).
                    if event.is_none_or(|e| e >= t + RESUME_GAP) {
                        hints.path = Path::Sparse;
                        ledger.out.mode_switches += 1;
                        policy.resume_sparse();
                        ledger.trace.emit(TraceEvent::BurstClose { slot: t });
                        ledger.trace.emit(TraceEvent::ModeSwitch {
                            slot: t,
                            dense: false,
                        });
                    } else {
                        policy.backoff(units.len());
                        hints.heap.clear();
                        ledger.trace.emit(TraceEvent::BurstOpen {
                            slot: t,
                            window: policy.burst_len,
                            cause: BurstCause::Backoff,
                        });
                    }
                }
            }
        }

        ledger.finish(units.per_station_tx(self.cfg.per_station_detail))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::station::{Action, AlwaysTransmit, FnProtocol, NeverTransmit, TxHint};

    struct ConstProtocol<S: Station + Clone + 'static>(S);
    impl<S: Station + Clone + 'static> Protocol for ConstProtocol<S> {
        fn station(&self, _id: StationId, _seed: u64) -> Box<dyn Station> {
            Box::new(self.0.clone())
        }
        fn name(&self) -> String {
            "const".into()
        }
    }

    fn ids(v: &[u32]) -> Vec<StationId> {
        v.iter().copied().map(StationId).collect()
    }

    #[test]
    fn single_always_transmitter_succeeds_immediately() {
        let cfg = SimConfig::new(4).with_max_slots(10);
        let pattern = WakePattern::simultaneous(&ids(&[2]), 7).unwrap();
        let out = Simulator::new(cfg)
            .run(&ConstProtocol(AlwaysTransmit), &pattern, 0)
            .unwrap();
        assert_eq!(out.first_success, Some(7));
        assert_eq!(out.winner, Some(StationId(2)));
        assert_eq!(out.latency(), Some(0));
        assert_eq!(out.transmissions, 1);
        assert!(out.solved());
    }

    #[test]
    fn two_always_transmitters_collide_forever() {
        let cfg = SimConfig::new(4).with_max_slots(50).with_transcript();
        let pattern = WakePattern::simultaneous(&ids(&[0, 1]), 0).unwrap();
        let out = Simulator::new(cfg)
            .run(&ConstProtocol(AlwaysTransmit), &pattern, 0)
            .unwrap();
        assert_eq!(out.first_success, None);
        assert!(!out.solved());
        assert_eq!(out.collisions, 50);
        assert_eq!(out.slots_simulated, 50);
        assert_eq!(out.transmissions, 100);
        let tr = out.transcript.unwrap();
        assert_eq!(tr.ascii_strip(), "x".repeat(50));
        assert!(tr.check_invariants().is_empty());
    }

    #[test]
    fn pure_listeners_never_succeed() {
        let cfg = SimConfig::new(4).with_max_slots(20);
        let pattern = WakePattern::simultaneous(&ids(&[0, 3]), 5).unwrap();
        let out = Simulator::new(cfg)
            .run(&ConstProtocol(NeverTransmit), &pattern, 0)
            .unwrap();
        assert_eq!(out.first_success, None);
        assert_eq!(out.silent_slots, 20);
        assert_eq!(out.transmissions, 0);
    }

    #[test]
    fn staggered_wake_breaks_symmetry() {
        // Both stations always transmit, but the second wakes 3 slots later:
        // the first is alone on the channel at its wake slot.
        let cfg = SimConfig::new(4).with_max_slots(50);
        let pattern = WakePattern::staggered(&ids(&[0, 1]), 10, 3).unwrap();
        let out = Simulator::new(cfg)
            .run(&ConstProtocol(AlwaysTransmit), &pattern, 0)
            .unwrap();
        assert_eq!(out.first_success, Some(10));
        assert_eq!(out.winner, Some(StationId(0)));
    }

    #[test]
    fn run_stops_exactly_at_first_success() {
        // Round-robin over 4 stations: stations 1 and 2 wake at slot 0;
        // slot 1 belongs to station 1 ⇒ success at slot 1, latency 1.
        let p = FnProtocol::new("rr4", |id: StationId, _s, _sig, t: Slot| {
            t % 4 == id.0 as u64
        });
        let cfg = SimConfig::new(4).with_max_slots(50).with_transcript();
        let pattern = WakePattern::simultaneous(&ids(&[1, 2]), 0).unwrap();
        let out = Simulator::new(cfg).run(&p, &pattern, 0).unwrap();
        assert_eq!(out.first_success, Some(1));
        assert_eq!(out.winner, Some(StationId(1)));
        let tr = out.transcript.unwrap();
        assert_eq!(tr.len(), 2); // slot 0 (silence), slot 1 (success)
        assert!(tr.check_invariants().is_empty());
        assert_eq!(tr.ascii_strip(), ".!");
    }

    #[test]
    fn validates_station_range() {
        let cfg = SimConfig::new(4);
        let pattern = WakePattern::simultaneous(&ids(&[7]), 0).unwrap();
        let err = Simulator::new(cfg)
            .run(&ConstProtocol(AlwaysTransmit), &pattern, 0)
            .unwrap_err();
        assert_eq!(
            err,
            SimError::StationOutOfRange {
                id: StationId(7),
                n: 4
            }
        );
    }

    #[test]
    fn validates_nonzero_n() {
        let cfg = SimConfig::new(0);
        let pattern = WakePattern::simultaneous(&ids(&[0]), 0).unwrap();
        let err = Simulator::new(cfg)
            .run(&ConstProtocol(AlwaysTransmit), &pattern, 0)
            .unwrap_err();
        assert_eq!(err, SimError::NoStations);
    }

    #[test]
    fn latency_is_measured_from_s_not_zero() {
        let p = FnProtocol::new("rr8", |id: StationId, _s, _sig, t: Slot| {
            t % 8 == id.0 as u64
        });
        let cfg = SimConfig::new(8).with_max_slots(100);
        // Station 2 wakes at slot 11; its turn comes at t=18 (18 % 8 == 2).
        let pattern = WakePattern::simultaneous(&ids(&[2]), 11).unwrap();
        let out = Simulator::new(cfg).run(&p, &pattern, 0).unwrap();
        assert_eq!(out.s, 11);
        assert_eq!(out.first_success, Some(18));
        assert_eq!(out.latency(), Some(7));
    }

    #[test]
    fn per_station_tx_counts_are_tracked() {
        let p = FnProtocol::new("odd-even", |id: StationId, _s, _sig, t: Slot| {
            // Station 0 transmits on even slots, station 1 on odd slots —
            // but both wake at 0, so slot 0 is a solo success by station 0.
            (t % 2) == id.0 as u64
        });
        let cfg = SimConfig::new(2).with_max_slots(10);
        let pattern = WakePattern::simultaneous(&ids(&[0, 1]), 0).unwrap();
        let out = Simulator::new(cfg).run(&p, &pattern, 0).unwrap();
        assert_eq!(out.first_success, Some(0));
        assert_eq!(
            out.per_station_tx,
            vec![(StationId(0), 1), (StationId(1), 0)]
        );
    }

    #[test]
    fn deterministic_across_reruns() {
        let p = FnProtocol::new("prf", |id: StationId, seed, _sig, t: Slot| {
            // Pseudo-random schedule driven by the per-station seed.
            crate::rng::derive_seed(seed, t) % 3 == u64::from(id.0) % 3
        });
        let cfg = SimConfig::new(16).with_max_slots(500);
        let pattern = WakePattern::staggered(&ids(&[3, 7, 11]), 5, 2).unwrap();
        let sim = Simulator::new(cfg);
        let a = sim.run(&p, &pattern, 999).unwrap();
        let b = sim.run(&p, &pattern, 999).unwrap();
        assert_eq!(a.first_success, b.first_success);
        assert_eq!(a.transmissions, b.transmissions);
        // A different run seed gives different per-station seeds.
        let c = sim.run(&p, &pattern, 1000).unwrap();
        // (Very likely different; if equal, the schedules coincided — accept
        // either but ensure the run completed.)
        assert!(c.slots_simulated > 0);
    }

    #[test]
    fn default_config_cap_scales_with_n() {
        let small = SimConfig::new(16).max_slots;
        let large = SimConfig::new(1024).max_slots;
        assert!(large > small);
        // Cap must dominate the paper's worst bound O(k log n log log n) ≤
        // O(n log n log log n): for n = 1024, that's ≈ 1024·10·4 ≈ 41k.
        assert!(large > 41_000);
    }

    #[test]
    fn feedback_is_delivered_under_the_configured_model() {
        use crate::channel::Feedback;
        use std::cell::RefCell;
        use std::rc::Rc;

        // A listener that records what it perceives.
        struct Recorder {
            log: Rc<RefCell<Vec<Feedback>>>,
        }
        impl Station for Recorder {
            fn wake(&mut self, _s: Slot) {}
            fn act(&mut self, _t: Slot) -> Action {
                Action::Listen
            }
            fn feedback(&mut self, _t: Slot, fb: Feedback) {
                self.log.borrow_mut().push(fb);
            }
        }
        struct P {
            log: Rc<RefCell<Vec<Feedback>>>,
        }
        impl Protocol for P {
            fn station(&self, id: StationId, _seed: u64) -> Box<dyn Station> {
                if id.0 == 0 {
                    Box::new(Recorder {
                        log: Rc::clone(&self.log),
                    })
                } else {
                    Box::new(AlwaysTransmit)
                }
            }
            fn name(&self) -> String {
                "recorder".into()
            }
        }

        // Two always-transmitters collide; the recorder should hear Noise
        // under CD and Silence under no-CD.
        for (model, expected) in [
            (FeedbackModel::CollisionDetection, Feedback::Noise),
            (FeedbackModel::NoCollisionDetection, Feedback::Silence),
        ] {
            let log = Rc::new(RefCell::new(Vec::new()));
            let p = P {
                log: Rc::clone(&log),
            };
            let cfg = SimConfig::new(4).with_max_slots(3).with_feedback(model);
            let pattern = WakePattern::simultaneous(&ids(&[0, 1, 2]), 0).unwrap();
            let out = Simulator::new(cfg).run(&p, &pattern, 0).unwrap();
            assert!(!out.solved());
            assert_eq!(&*log.borrow(), &vec![expected; 3]);
        }
    }

    // -----------------------------------------------------------------
    // StopRule::AllResolved (full conflict resolution support).
    // -----------------------------------------------------------------

    /// Round-robin with retirement: transmit on own turn until the station
    /// hears its own message back.
    struct RetiringRr {
        n: u32,
    }
    struct RetiringRrStation {
        id: StationId,
        n: u32,
        done: bool,
    }
    impl Station for RetiringRrStation {
        fn wake(&mut self, _s: Slot) {}
        fn act(&mut self, t: Slot) -> Action {
            Action::from_bool(!self.done && t % u64::from(self.n) == u64::from(self.id.0))
        }
        fn feedback(&mut self, _t: Slot, fb: crate::channel::Feedback) {
            if fb == crate::channel::Feedback::Heard(self.id) {
                self.done = true;
            }
        }
    }
    impl Protocol for RetiringRr {
        fn station(&self, id: StationId, _seed: u64) -> Box<dyn Station> {
            Box::new(RetiringRrStation {
                id,
                n: self.n,
                done: false,
            })
        }
        fn name(&self) -> String {
            "retiring-rr".into()
        }
    }

    #[test]
    fn all_resolved_runs_past_first_success() {
        let n = 8u32;
        let cfg = SimConfig::new(n).until_all_resolved().with_transcript();
        let pattern = WakePattern::simultaneous(&ids(&[1, 4, 6]), 0).unwrap();
        let out = Simulator::new(cfg)
            .run(&RetiringRr { n }, &pattern, 0)
            .unwrap();
        // First success at slot 1 (station 1), but the run continues.
        assert_eq!(out.first_success, Some(1));
        assert_eq!(out.winner, Some(StationId(1)));
        assert_eq!(out.resolved.len(), 3);
        assert_eq!(out.all_resolved_at, Some(6)); // station 6's turn
        assert_eq!(out.full_resolution_latency(), Some(6));
        // Resolution order follows the turns: 1, 4, 6.
        assert_eq!(
            out.resolved,
            vec![(StationId(1), 1), (StationId(4), 4), (StationId(6), 6)]
        );
        let tr = out.transcript.unwrap();
        assert!(tr.check_invariants_multi_success().is_empty());
        assert_eq!(tr.successes().len(), 3);
    }

    #[test]
    fn all_resolved_waits_for_late_wakers() {
        let n = 8u32;
        let cfg = SimConfig::new(n).until_all_resolved();
        // Station 2 wakes long after station 1 resolved.
        let pattern = WakePattern::new(vec![(StationId(1), 0), (StationId(2), 20)]).unwrap();
        let out = Simulator::new(cfg)
            .run(&RetiringRr { n }, &pattern, 0)
            .unwrap();
        assert_eq!(out.resolved.len(), 2);
        // Station 2's first turn at/after slot 20 is slot 26 (26 % 8 == 2).
        assert_eq!(out.all_resolved_at, Some(26));
    }

    #[test]
    fn all_resolved_censors_if_somebody_never_succeeds() {
        let n = 4u32;
        let cfg = SimConfig::new(n).with_max_slots(100).until_all_resolved();
        // Two always-transmitters collide forever after both awake; the
        // staggered start resolves only the first.
        let pattern = WakePattern::simultaneous(&ids(&[0, 1]), 0).unwrap();
        let out = Simulator::new(cfg)
            .run(&ConstProtocol(AlwaysTransmit), &pattern, 0)
            .unwrap();
        assert!(out.all_resolved_at.is_none());
        assert!(out.resolved.is_empty());
        assert_eq!(out.slots_simulated, 100);
    }

    // -----------------------------------------------------------------
    // Sparse slot-skipping path.
    // -----------------------------------------------------------------

    /// A station that transmits every `period` slots starting at `phase`,
    /// and (optionally) advertises that schedule through `next_transmission`.
    struct Pulse {
        period: u64,
        phase: u64,
        hinted: bool,
    }
    struct PulseStation {
        period: u64,
        phase: u64,
        hinted: bool,
    }
    impl Station for PulseStation {
        fn wake(&mut self, _s: Slot) {}
        fn act(&mut self, t: Slot) -> Action {
            Action::from_bool(t % self.period == self.phase)
        }
        fn next_transmission(&mut self, after: Slot) -> TxHint {
            if !self.hinted {
                return TxHint::Dense;
            }
            let r = after % self.period;
            let next = if r <= self.phase {
                after + (self.phase - r)
            } else {
                after + (self.period - r) + self.phase
            };
            TxHint::at(next)
        }
    }
    impl Protocol for Pulse {
        fn station(&self, _id: StationId, _seed: u64) -> Box<dyn Station> {
            Box::new(PulseStation {
                period: self.period,
                phase: self.phase,
                hinted: self.hinted,
            })
        }
        fn name(&self) -> String {
            "pulse".into()
        }
    }

    #[test]
    fn sparse_and_dense_agree_and_sparse_skips() {
        // One station pulsing every 997 slots: the sparse engine should jump
        // straight to the pulse while the dense engine polls every slot.
        let p = Pulse {
            period: 997,
            phase: 500,
            hinted: true,
        };
        let pattern = WakePattern::simultaneous(&ids(&[3]), 7).unwrap();
        let auto = Simulator::new(SimConfig::new(8).with_transcript())
            .run(&p, &pattern, 0)
            .unwrap();
        let dense = Simulator::new(
            SimConfig::new(8)
                .with_transcript()
                .with_engine(EngineMode::Dense),
        )
        .run(&p, &pattern, 0)
        .unwrap();
        assert_eq!(auto.first_success, Some(500));
        assert_eq!(auto.first_success, dense.first_success);
        assert_eq!(auto.winner, dense.winner);
        assert_eq!(auto.slots_simulated, dense.slots_simulated);
        assert_eq!(auto.silent_slots, dense.silent_slots);
        assert_eq!(auto.transmissions, dense.transmissions);
        assert_eq!(auto.transcript, dense.transcript);
        // Work accounting: dense polled each of the 494 slots, sparse once.
        assert_eq!(dense.polls, dense.slots_simulated);
        assert_eq!(dense.skipped_slots, 0);
        assert_eq!(auto.polls, 1);
        assert_eq!(auto.skipped_slots, auto.slots_simulated - 1);
    }

    #[test]
    fn unhinted_station_forces_dense_path() {
        let p = Pulse {
            period: 13,
            phase: 4,
            hinted: false,
        };
        let pattern = WakePattern::simultaneous(&ids(&[0]), 0).unwrap();
        let out = Simulator::new(SimConfig::new(4))
            .run(&p, &pattern, 0)
            .unwrap();
        assert_eq!(out.first_success, Some(4));
        assert_eq!(out.skipped_slots, 0);
        assert_eq!(out.polls, out.slots_simulated);
    }

    #[test]
    fn sparse_skip_to_hinted_slot_respects_max_slots() {
        // The station's next pulse lies far beyond the cap: the engine must
        // stop exactly at the cap, not overshoot it while skipping.
        let p = Pulse {
            period: 1_000_000,
            phase: 999_999,
            hinted: true,
        };
        let pattern = WakePattern::simultaneous(&ids(&[1]), 0).unwrap();
        let out = Simulator::new(SimConfig::new(4).with_max_slots(75))
            .run(&p, &pattern, 0)
            .unwrap();
        assert!(!out.solved());
        assert_eq!(out.slots_simulated, 75);
        assert_eq!(out.silent_slots, 75);
        assert_eq!(out.skipped_slots, 75);
        assert_eq!(out.polls, 0);
    }

    #[test]
    fn sparse_skip_to_next_wake_respects_max_slots() {
        // Regression for the fast-forward overshoot: a silent early station
        // plus an arrival far past the cap must not push slots_simulated
        // beyond max_slots.
        let pattern = WakePattern::new(vec![(StationId(0), 0), (StationId(1), 10_000)]).unwrap();
        let out = Simulator::new(SimConfig::new(4).with_max_slots(50))
            .run(&ConstProtocol(NeverTransmit), &pattern, 0)
            .unwrap();
        assert!(!out.solved());
        assert_eq!(out.slots_simulated, 50);
        assert_eq!(out.silent_slots, 50);
        // Dense reference: identical outcome, maximal polling.
        let dense = Simulator::new(
            SimConfig::new(4)
                .with_max_slots(50)
                .with_engine(EngineMode::Dense),
        )
        .run(&ConstProtocol(NeverTransmit), &pattern, 0)
        .unwrap();
        assert_eq!(dense.slots_simulated, 50);
        assert_eq!(dense.silent_slots, 50);
        assert_eq!(dense.polls, 50);
        assert_eq!(out.polls, 0);
    }

    #[test]
    fn never_hints_fast_forward_to_cap() {
        // All-listener runs collapse to a single bulk skip.
        let pattern = WakePattern::simultaneous(&ids(&[0, 3]), 5).unwrap();
        let out = Simulator::new(SimConfig::new(4).with_max_slots(1_000_000))
            .run(&ConstProtocol(NeverTransmit), &pattern, 0)
            .unwrap();
        assert_eq!(out.silent_slots, 1_000_000);
        assert_eq!(out.skipped_slots, 1_000_000);
        assert_eq!(out.polls, 0);
    }

    #[test]
    fn sparse_transcript_is_contiguous_and_valid() {
        let p = Pulse {
            period: 37,
            phase: 11,
            hinted: true,
        };
        let pattern = WakePattern::simultaneous(&ids(&[2]), 3).unwrap();
        let out = Simulator::new(SimConfig::new(4).with_transcript())
            .run(&p, &pattern, 0)
            .unwrap();
        let tr = out.transcript.unwrap();
        assert!(tr.check_invariants().is_empty());
        assert_eq!(tr.records().first().unwrap().slot, 3);
        assert_eq!(tr.records().last().unwrap().slot, 11);
    }

    #[test]
    fn late_sparse_arrivals_are_woken_exactly_on_time() {
        // Two pulse stations with different phases and a late waker: the
        // sparse engine must wake the second station at its sigma (not skip
        // past it) so its first pulse is on schedule.
        struct TwoPhase;
        impl Protocol for TwoPhase {
            fn station(&self, id: StationId, _seed: u64) -> Box<dyn Station> {
                Box::new(PulseStation {
                    period: 100,
                    phase: u64::from(id.0) * 50,
                    hinted: true,
                })
            }
            fn name(&self) -> String {
                "two-phase".into()
            }
        }
        // Station 1 (phase 50) wakes at 40; station 0 (phase 0) wakes at 0
        // but its pulses at 0, 100, … collide with nobody, so slot 0 wins.
        let pattern = WakePattern::new(vec![(StationId(0), 1), (StationId(1), 40)]).unwrap();
        let out = Simulator::new(SimConfig::new(4))
            .run(&TwoPhase, &pattern, 0)
            .unwrap();
        // Station 1's first pulse at 50 vs station 0's next pulse at 100.
        assert_eq!(out.first_success, Some(50));
        assert_eq!(out.winner, Some(StationId(1)));
    }

    // -----------------------------------------------------------------
    // Epoch-scoped hints: NextSuccess and Slot validity.
    // -----------------------------------------------------------------

    use crate::station::Until;

    /// Retiring round-robin that also advertises its schedule with
    /// success-scoped hints — the shape of the Komlós–Greenberg resolvers.
    struct HintedRetiringRr {
        n: u32,
    }
    struct HintedRetiringRrStation {
        id: StationId,
        n: u32,
        done: bool,
    }
    impl Station for HintedRetiringRrStation {
        fn wake(&mut self, _s: Slot) {}
        fn act(&mut self, t: Slot) -> Action {
            Action::from_bool(!self.done && t % u64::from(self.n) == u64::from(self.id.0))
        }
        fn feedback(&mut self, _t: Slot, fb: crate::channel::Feedback) {
            if fb.is_own_success(self.id) {
                self.done = true;
            }
        }
        fn next_transmission(&mut self, after: Slot) -> TxHint {
            if self.done {
                return TxHint::never();
            }
            let n = u64::from(self.n);
            let r = after % n;
            let turn = after + (u64::from(self.id.0) + n - r) % n;
            TxHint::At(turn, Until::NextSuccess)
        }
    }
    impl Protocol for HintedRetiringRr {
        fn station(&self, id: StationId, _seed: u64) -> Box<dyn Station> {
            Box::new(HintedRetiringRrStation {
                id,
                n: self.n,
                done: false,
            })
        }
        fn name(&self) -> String {
            "hinted-retiring-rr".into()
        }
    }

    #[test]
    fn all_resolved_runs_sparse_with_success_scoped_hints() {
        let n = 128u32;
        let pattern = WakePattern::simultaneous(&ids(&[5, 70, 126]), 3).unwrap();
        let mk = |mode| {
            Simulator::new(
                SimConfig::new(n)
                    .until_all_resolved()
                    .with_transcript()
                    .with_engine(mode),
            )
            .run(&HintedRetiringRr { n }, &pattern, 0)
            .unwrap()
        };
        let auto = mk(EngineMode::Auto);
        let dense = mk(EngineMode::Dense);
        assert_eq!(auto.first_success, dense.first_success);
        assert_eq!(auto.resolved, dense.resolved);
        assert_eq!(auto.all_resolved_at, dense.all_resolved_at);
        assert_eq!(auto.transcript, dense.transcript);
        assert_eq!(auto.transmissions, dense.transmissions);
        assert_eq!(auto.slots_simulated, dense.slots_simulated);
        // The sparse path carried the run: all long silent gaps between the
        // turns were skipped and polling collapsed versus dense. (The
        // adaptive policy may dense-step the first contested slots — station
        // 5's turn is two slots after the batch wake — before the success
        // re-probe resumes sparse; the work counters account for it.)
        assert!(auto.skipped_slots > 0, "sparse path did not engage");
        assert!(dense.polls > 10 * auto.polls);
        let stepped = auto.skipped_slots + auto.dense_steps + auto.word_slots;
        assert!(stepped <= auto.slots_simulated);
        assert!(stepped + auto.polls >= auto.slots_simulated);
    }

    /// A station that stays silent until it hears *any* success, then
    /// transmits `delay` slots after it — feedback-reactive behaviour that
    /// is expressible sparsely only through `Until::NextSuccess`.
    struct EchoChaser {
        delay: u64,
    }
    struct EchoChaserStation {
        id: StationId,
        delay: u64,
        fire_at: Option<Slot>,
        done: bool,
    }
    impl Station for EchoChaserStation {
        fn wake(&mut self, _s: Slot) {}
        fn act(&mut self, t: Slot) -> Action {
            Action::from_bool(!self.done && self.fire_at == Some(t))
        }
        fn feedback(&mut self, t: Slot, fb: crate::channel::Feedback) {
            if fb.is_own_success(self.id) {
                self.done = true;
            } else if matches!(fb, crate::channel::Feedback::Heard(_)) && self.fire_at.is_none() {
                self.fire_at = Some(t + self.delay);
            }
        }
        fn next_transmission(&mut self, after: Slot) -> TxHint {
            if self.done {
                return TxHint::never();
            }
            match self.fire_at {
                Some(f) => TxHint::At(f.max(after), Until::NextSuccess),
                None => TxHint::Never(Until::NextSuccess),
            }
        }
    }
    impl Protocol for EchoChaser {
        fn station(&self, id: StationId, _seed: u64) -> Box<dyn Station> {
            if id.0 == 0 {
                // Station 0 paces the run: retiring round-robin over 16.
                Box::new(HintedRetiringRrStation {
                    id,
                    n: 16,
                    done: false,
                })
            } else {
                Box::new(EchoChaserStation {
                    id,
                    delay: self.delay,
                    fire_at: None,
                    done: false,
                })
            }
        }
        fn name(&self) -> String {
            "echo-chaser".into()
        }
    }

    #[test]
    fn never_next_success_hints_are_requeried_after_a_success() {
        // Station 0 succeeds at its round-robin turn (slot 16); station 9
        // reacts to that success and fires `delay` slots later. The sparse
        // engine must wake station 9's hint exactly once — at the success —
        // and still match the dense run bit for bit.
        let pattern = WakePattern::simultaneous(&ids(&[0, 9]), 1).unwrap();
        let mk = |mode| {
            Simulator::new(
                SimConfig::new(16)
                    .until_all_resolved()
                    .with_transcript()
                    .with_engine(mode),
            )
            .run(&EchoChaser { delay: 7 }, &pattern, 0)
            .unwrap()
        };
        let auto = mk(EngineMode::Auto);
        let dense = mk(EngineMode::Dense);
        assert_eq!(auto.resolved, dense.resolved);
        assert_eq!(auto.all_resolved_at, dense.all_resolved_at);
        assert_eq!(auto.transcript, dense.transcript);
        assert_eq!(auto.resolved.len(), 2);
        // Success at 16, echo at 23.
        assert_eq!(auto.all_resolved_at, Some(23));
        assert!(auto.skipped_slots > 0);
        assert!(auto.polls < dense.polls);
    }

    /// A pulse station that only reveals its schedule one bounded horizon
    /// at a time (`Until::Slot` re-query callbacks).
    struct ChunkedPulse {
        period: u64,
        phase: u64,
        horizon: u64,
    }
    impl Station for ChunkedPulse {
        fn wake(&mut self, _s: Slot) {}
        fn act(&mut self, t: Slot) -> Action {
            Action::from_bool(t % self.period == self.phase)
        }
        fn next_transmission(&mut self, after: Slot) -> TxHint {
            let r = after % self.period;
            let next = if r <= self.phase {
                after + (self.phase - r)
            } else {
                after + (self.period - r) + self.phase
            };
            let boundary = after + self.horizon;
            if next < boundary {
                TxHint::At(next, Until::Slot(boundary))
            } else {
                TxHint::Never(Until::Slot(boundary))
            }
        }
    }
    struct ChunkedPulseProtocol {
        period: u64,
        phase: u64,
        horizon: u64,
    }
    impl Protocol for ChunkedPulseProtocol {
        fn station(&self, _id: StationId, _seed: u64) -> Box<dyn Station> {
            Box::new(ChunkedPulse {
                period: self.period,
                phase: self.phase,
                horizon: self.horizon,
            })
        }
        fn name(&self) -> String {
            "chunked-pulse".into()
        }
    }

    #[test]
    fn slot_scoped_hints_requery_at_the_boundary() {
        // Pulse at slot 900 revealed through horizon-100 windows: the
        // engine re-queries at 100, 200, …, then polls exactly once at 900.
        let p = ChunkedPulseProtocol {
            period: 1000,
            phase: 900,
            horizon: 100,
        };
        let pattern = WakePattern::simultaneous(&ids(&[2]), 0).unwrap();
        let auto = Simulator::new(SimConfig::new(4).with_transcript())
            .run(&p, &pattern, 0)
            .unwrap();
        let dense = Simulator::new(
            SimConfig::new(4)
                .with_transcript()
                .with_engine(EngineMode::Dense),
        )
        .run(&p, &pattern, 0)
        .unwrap();
        assert_eq!(auto.first_success, Some(900));
        assert_eq!(auto.first_success, dense.first_success);
        assert_eq!(auto.transcript, dense.transcript);
        assert_eq!(auto.slots_simulated, dense.slots_simulated);
        assert_eq!(auto.polls, 1); // re-queries are not polls
        assert_eq!(auto.skipped_slots, auto.slots_simulated - 1);
    }

    #[test]
    fn slot_scoped_hints_respect_the_cap_between_boundaries() {
        let p = ChunkedPulseProtocol {
            period: 1_000_000,
            phase: 999_999,
            horizon: 64,
        };
        let pattern = WakePattern::simultaneous(&ids(&[0]), 0).unwrap();
        let out = Simulator::new(SimConfig::new(4).with_max_slots(200))
            .run(&p, &pattern, 0)
            .unwrap();
        assert!(!out.solved());
        assert_eq!(out.slots_simulated, 200);
        assert_eq!(out.silent_slots, 200);
        assert_eq!(out.polls, 0);
    }

    /// A hint whose validity boundary is not in the future — malformed; the
    /// engine must fall back to dense polling rather than trust it.
    #[derive(Clone)]
    struct StuckBoundary;
    impl Station for StuckBoundary {
        fn wake(&mut self, _s: Slot) {}
        fn act(&mut self, t: Slot) -> Action {
            Action::from_bool(t % 5 == 3)
        }
        fn next_transmission(&mut self, after: Slot) -> TxHint {
            TxHint::Never(Until::Slot(after)) // claims nothing
        }
    }

    #[test]
    fn malformed_slot_scope_forces_dense() {
        let out = Simulator::new(SimConfig::new(4))
            .run(
                &ConstProtocol(StuckBoundary),
                &WakePattern::simultaneous(&ids(&[1]), 0).unwrap(),
                0,
            )
            .unwrap();
        assert_eq!(out.first_success, Some(3));
        assert_eq!(out.skipped_slots, 0);
        assert_eq!(out.polls, out.slots_simulated);
    }

    #[test]
    fn first_success_mode_records_single_resolution() {
        let n = 8u32;
        let pattern = WakePattern::simultaneous(&ids(&[3, 5]), 0).unwrap();
        let out = Simulator::new(SimConfig::new(n).with_max_slots(50))
            .run(&RetiringRr { n }, &pattern, 0)
            .unwrap();
        assert_eq!(out.resolved, vec![(StationId(3), 3)]);
        assert!(out.all_resolved_at.is_none());
    }
}
