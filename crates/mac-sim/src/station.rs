//! Station behaviour ([`Station`]) and protocol factories ([`Protocol`]).
//!
//! A *protocol* in the sense of the paper is "a collection of n transmission
//! schedules, one for each station" — here a [`Protocol`] is a factory that
//! instantiates the per-station behaviour for any ID. The engine creates a
//! [`Station`] lazily when its wake-up slot arrives and then drives it slot
//! by slot.
//!
//! All of the paper's deterministic algorithms are *oblivious*: the decision
//! to transmit at global slot `t` depends only on `(id, n, σ, t)` and never on
//! channel feedback. Such protocols ignore [`Station::feedback`]. Randomized
//! protocols (§6) additionally consume the per-station seed handed to
//! [`Protocol::station`].

use crate::channel::Feedback;
use crate::ids::{Slot, StationId};
use crate::population::{ClassStation, Members};

/// The *validity scope* of a [`TxHint`] — until when the promise holds.
///
/// PR 1's hints were unconditional ("valid forever"), which locked every
/// feedback-reactive protocol out of the sparse engine. Epoch-scoped hints
/// fix that: a station states *how long* its answer can be trusted, and the
/// engine re-queries exactly the stations whose scope an event invalidated.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Until {
    /// Unconditional: the hint holds for the rest of the run regardless of
    /// channel events. Oblivious schedules (a function of `(id, σ, t)` and
    /// protocol parameters) may use this scope, and so may a schedule that
    /// changes only at slots where the station itself transmits (its own
    /// success, a spent energy budget): the engine polls the station there
    /// and re-queries it after the slot's feedback.
    Forever,
    /// Valid until the next **successful** slot. After any success at slot
    /// `t' ≥ after`, the hint is void and the engine re-queries the station
    /// with `after = t' + 1` — having first delivered the success feedback
    /// ([`Feedback::Heard`](crate::channel::Feedback)), so the
    /// station answers from its post-success state. This is the scope for
    /// protocols that react to **other** stations' successes: between
    /// successes their schedule is oblivious. (Retirement on the station's
    /// own success needs only [`Until::Forever`].)
    NextSuccess,
    /// Valid for slots in `[after, t)` only; the engine re-queries the
    /// station at slot `t` (a pure "call me back" — the boundary itself
    /// involves no feedback). The claim over `[after, t)` is
    /// **unconditional**: like [`Until::Forever`], it must hold regardless
    /// of any feedback (including successes) delivered meanwhile — a
    /// station that reschedules on success feedback must use
    /// [`Until::NextSuccess`] instead. Use `Slot` to bound
    /// hint-computation work: a station that has proven silence over a
    /// horizon but not located its next transmission can answer
    /// [`TxHint::Never(Until::Slot(t))`](TxHint::Never) instead of falling
    /// back to [`TxHint::Dense`]. Must satisfy `t > after`.
    Slot(Slot),
}

/// A station's answer to "when will you transmit next?" — the contract that
/// lets the engine skip provably silent slots (the sparse engine path).
///
/// Every concrete hint carries an [`Until`] scope saying how long the
/// promise holds. See [`Station::next_transmission`] for the exact
/// obligations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TxHint {
    /// No hint: poll me every slot. Randomized stations (whose RNG stream
    /// advances per [`Station::act`] call) and stations reacting to
    /// feedback other than successes must return this.
    Dense,
    /// The station's next transmission is at exactly this slot; it is
    /// guaranteed silent at every slot in `[after, slot)` — as long as the
    /// scope holds. (`At(slot, Until::Slot(t))` with `slot ≥ t` promises
    /// nothing about `slot` itself and degenerates to
    /// `Never(Until::Slot(t))`.)
    At(Slot, Until),
    /// The station will not transmit at any slot `≥ after` while the scope
    /// holds (finished schedule, never participates, retired after its own
    /// success, or — with [`Until::Slot`] — silent over a proven horizon).
    Never(Until),
}

impl TxHint {
    /// An unconditional "next transmission at `slot`" —
    /// `TxHint::At(slot, Until::Forever)`.
    #[inline]
    pub fn at(slot: Slot) -> Self {
        TxHint::At(slot, Until::Forever)
    }

    /// An unconditional "never again" — `TxHint::Never(Until::Forever)`.
    #[inline]
    pub fn never() -> Self {
        TxHint::Never(Until::Forever)
    }
}

/// One 64-slot tile of planned transmissions for a single station — the
/// batch counterpart of [`TxHint`], consumed by the engine's word-level
/// (bit-parallel) slot kernel.
///
/// Bit `j` of `bits` set means "I transmit at slot `base + j`" for the tile
/// base passed to [`Station::fill_tx_word`]; a clear bit means "I listen".
/// The claim is scoped by `until` with exactly the [`TxHint`] obligations:
///
/// * [`Until::Forever`] — the word is an oblivious fact; every bit holds
///   unconditionally.
/// * [`Until::NextSuccess`] — every bit holds until the next successful
///   slot; after a success the engine discards the unconsumed remainder of
///   the tile and asks again. A station that retires on its own success
///   uses this scope for its words even where its hints are
///   [`Until::Forever`]: a word may plan past that success.
/// * [`Until::Slot(t)`](Until::Slot) — only bits for slots `< t` are
///   claimed (and hold unconditionally over `[base, t)`); the engine
///   ignores bits at positions `≥ t - base` and re-queries at `t`. Must
///   satisfy `t > base`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TxWord {
    /// Transmit decisions for slots `base + 0 … base + 63`, LSB first.
    pub bits: u64,
    /// How long the decisions can be trusted (see [`TxHint`] scopes).
    pub until: Until,
}

impl TxWord {
    /// An unconditional word — `until: Until::Forever`.
    #[inline]
    pub fn forever(bits: u64) -> Self {
        TxWord {
            bits,
            until: Until::Forever,
        }
    }
}

/// A station's decision for one slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Action {
    /// Transmit a message in this slot.
    Transmit,
    /// Listen to the channel in this slot.
    Listen,
}

impl Action {
    /// Convenience: `true` ↦ [`Action::Transmit`].
    #[inline]
    pub fn from_bool(transmit: bool) -> Self {
        if transmit {
            Action::Transmit
        } else {
            Action::Listen
        }
    }

    /// `true` iff this is [`Action::Transmit`].
    #[inline]
    pub fn is_transmit(self) -> bool {
        matches!(self, Action::Transmit)
    }
}

/// The behaviour of one station, driven by the engine.
///
/// Lifecycle (all slots are global round numbers):
///
/// 1. [`wake`](Station::wake) is called exactly once, at the station's
///    spontaneous wake-up slot `σ`.
/// 2. For every slot `t ≥ σ` until the run ends, [`act`](Station::act) is
///    called exactly once; returning [`Action::Transmit`] puts the station on
///    the channel for that slot.
/// 3. After the channel resolves, [`feedback`](Station::feedback) delivers
///    what this station perceived (model-dependent).
pub trait Station {
    /// The station spontaneously wakes up at global slot `sigma`.
    fn wake(&mut self, sigma: Slot);

    /// Decide the action for global slot `t` (`t ≥ σ`; called exactly once
    /// per slot, in increasing slot order).
    fn act(&mut self, t: Slot) -> Action;

    /// Channel feedback for slot `t`, as perceived under the configured
    /// feedback model. Default: ignore (oblivious protocols).
    fn feedback(&mut self, t: Slot, fb: Feedback) {
        let _ = (t, fb);
    }

    /// When will this station transmit next, looking from slot `after`
    /// (inclusive)? The engine uses the answer to *skip* slots in which no
    /// station transmits, turning per-slot polling into per-event work.
    ///
    /// Returning anything other than [`TxHint::Dense`] is a **promise**,
    /// scoped by the hint's [`Until`]:
    ///
    /// * [`TxHint::At(t, u)`](TxHint::At) — while `u` holds, `act` would
    ///   return [`Action::Transmit`] at slot `t` and [`Action::Listen`] at
    ///   every slot in `[after, t)`;
    /// * [`TxHint::Never(u)`](TxHint::Never) — while `u` holds, `act` would
    ///   return [`Action::Listen`] at every slot `≥ after`.
    ///
    /// **What invalidates a hint, and who must re-answer:**
    ///
    /// | scope | invalidated by | engine's follow-up |
    /// |-------|----------------|--------------------|
    /// | [`Until::Forever`] | nothing (you change only where you transmit) | re-query only after polling you |
    /// | [`Until::NextSuccess`] | any successful slot `t'` | success feedback is delivered, then you are re-queried at `t' + 1` |
    /// | [`Until::Slot(t)`](Until::Slot) | the clock reaching `t` | you are re-queried at `t` |
    ///
    /// Obligations taken on by answering with a scope:
    ///
    /// * [`Until::Forever`] — the schedule is *oblivious* (a pure function
    ///   of `(id, σ, t)` and protocol parameters, insensitive to feedback),
    ///   or it changes only at slots where the station itself transmits:
    ///   its own success (retirement), a spent energy budget. The engine
    ///   polls a station at every slot it transmits in and re-queries it
    ///   after that slot's feedback, so such a change never outlives a
    ///   hint.
    /// * [`Until::NextSuccess`] — the schedule may change **only** in
    ///   response to success feedback
    ///   ([`Feedback::Heard`](crate::channel::Feedback)); silence and
    ///   noise feedback must leave future actions unchanged, because the
    ///   sparse engine delivers non-success feedback only to stations it
    ///   polled. Between successes the schedule must be oblivious.
    /// * [`Until::Slot(t)`](Until::Slot) — the silence claim covers exactly
    ///   `[after, t)` and is **unconditional over that window**: feedback
    ///   delivered meanwhile (success broadcasts included) must not change
    ///   the station's actions before `t` — success-reactive stations must
    ///   use [`Until::NextSuccess`]; `t > after` is required (a violation
    ///   forces the dense
    ///   path — correctness first).
    ///
    /// All hint-giving stations must tolerate `act` **not** being called on
    /// slots where they listen — the sparse engine only polls a station at
    /// its hinted slots — and must tolerate arbitrary forward jumps of `t`
    /// across `act` calls (stateful row/epoch cursors are fine if they
    /// re-synchronize from `t`). Queries are non-decreasing in `after`, so
    /// `&mut self` may cache scan cursors. If **any** awake station answers
    /// [`TxHint::Dense`], the whole run falls back to dense per-slot
    /// polling.
    ///
    /// The default is [`TxHint::Dense`], which preserves exact historical
    /// behaviour for every existing station.
    fn next_transmission(&mut self, after: Slot) -> TxHint {
        let _ = after;
        TxHint::Dense
    }

    /// Plan one tile `[base, base + width)` at once (`1 ≤ width ≤ 64`): bit
    /// `j` of the returned word set iff `act(base + j)` would transmit — the
    /// batch counterpart of
    /// [`next_transmission`](Station::next_transmission), used by the
    /// engine's word-level slot kernel.
    ///
    /// The engine consumes only bits `j < width`; positions `≥ width` may be
    /// filled or left clear, whichever is cheaper. `width` is a work bound,
    /// not a semantic one — the engine narrows it when a run is young (the
    /// tile ramp) or an arrival/window boundary is near, so implementations
    /// should cap their per-slot scan at `base + width` rather than always
    /// paying for a full word. [`TxWord::until`] horizons are still absolute
    /// slots and may lie beyond the tile.
    ///
    /// Returning `Some` is a promise scoped by [`TxWord::until`] with the
    /// same obligations as the matching [`TxHint`] scope (see the table
    /// above). Additionally, a station that answers here must tolerate
    /// [`act`](Station::act) **never** being called for slots the word
    /// covers — the kernel derives transmissions from the bits and only
    /// polls stations through the scalar paths. Feedback delivery is
    /// unchanged: the kernel delivers success feedback exactly as the
    /// sparse engine does, and [`Until::NextSuccess`] words are re-queried
    /// after it.
    ///
    /// **Refills.** `base` never decreases across calls, but tiles may
    /// overlap: a success closes the current tile early (the engine settles
    /// slots in order and stops at the success), and the next fill starts
    /// at the slot after it — inside the old tile. Later `act` and
    /// `next_transmission` calls may likewise look from slots the word
    /// already covered. A fill must therefore not advance any state those
    /// calls rely on (a memoized next transmission, a scan cursor): compute
    /// the word beside that state, not through it.
    ///
    /// The default `None` routes the station through the kernel's generic
    /// fill, which assembles the word from `next_transmission` hints — so
    /// every hint-giving station runs under the kernel without implementing
    /// this, and protocol-specific implementations are purely an
    /// optimization (one schedule walk per tile instead of one hint query
    /// per event).
    fn fill_tx_word(&mut self, base: Slot, width: u32) -> Option<TxWord> {
        let _ = (base, width);
        None
    }
}

/// A factory for per-station behaviour: "a collection of `n` transmission
/// schedules, one for each station".
///
/// `seed` is a per-run, per-station deterministic seed (derived by the engine
/// from the run seed and the station ID); deterministic protocols ignore it.
pub trait Protocol {
    /// Instantiate the behaviour of station `id`.
    fn station(&self, id: StationId, seed: u64) -> Box<dyn Station>;

    /// Human-readable protocol name (used in tables and transcripts).
    fn name(&self) -> String;

    /// Instantiate one class-aggregated unit covering the whole wake batch
    /// `members` (stations waking at the same slot), or `None` if this
    /// protocol has no class-aggregated form — the engine then falls back
    /// to one [`SingletonClass`](crate::population::SingletonClass) per
    /// station, with identical outcomes.
    ///
    /// Implementations must make the returned unit behave exactly like the
    /// per-member [`station`](Protocol::station)s it stands in for (see
    /// [`ClassStation`]).
    fn class_station(&self, members: &Members) -> Option<Box<dyn ClassStation>> {
        let _ = members;
        None
    }
}

impl<P: Protocol + ?Sized> Protocol for &P {
    fn station(&self, id: StationId, seed: u64) -> Box<dyn Station> {
        (**self).station(id, seed)
    }
    fn name(&self) -> String {
        (**self).name()
    }
    fn class_station(&self, members: &Members) -> Option<Box<dyn ClassStation>> {
        (**self).class_station(members)
    }
}

impl<P: Protocol + ?Sized> Protocol for Box<P> {
    fn station(&self, id: StationId, seed: u64) -> Box<dyn Station> {
        (**self).station(id, seed)
    }
    fn name(&self) -> String {
        (**self).name()
    }
    fn class_station(&self, members: &Members) -> Option<Box<dyn ClassStation>> {
        (**self).class_station(members)
    }
}

// ---------------------------------------------------------------------------
// Adapter stations (useful for tests, baselines and composition).
// ---------------------------------------------------------------------------

/// A station that transmits in every slot once awake.
///
/// With `k = 1` this is the optimal protocol; with `k ≥ 2` simultaneous
/// wakers it never succeeds — tests use it to pin collision semantics.
#[derive(Clone, Copy, Debug, Default)]
pub struct AlwaysTransmit;

impl Station for AlwaysTransmit {
    fn wake(&mut self, _sigma: Slot) {}
    fn act(&mut self, _t: Slot) -> Action {
        Action::Transmit
    }
    fn next_transmission(&mut self, after: Slot) -> TxHint {
        TxHint::at(after)
    }
}

/// A station that never transmits (pure listener).
#[derive(Clone, Copy, Debug, Default)]
pub struct NeverTransmit;

impl Station for NeverTransmit {
    fn wake(&mut self, _sigma: Slot) {}
    fn act(&mut self, _t: Slot) -> Action {
        Action::Listen
    }
    fn next_transmission(&mut self, _after: Slot) -> TxHint {
        TxHint::never()
    }
}

/// An oblivious station driven by a predicate on `(σ, t)`.
///
/// This is the bridge between *transmission schedules* (pure functions, the
/// object the paper's combinatorics talks about) and engine-driven stations.
pub struct ObliviousStation<F: FnMut(Slot, Slot) -> bool> {
    sigma: Slot,
    decide: F,
}

impl<F: FnMut(Slot, Slot) -> bool> ObliviousStation<F> {
    /// Create a station whose action at global slot `t` is
    /// `decide(sigma, t)`.
    pub fn new(decide: F) -> Self {
        ObliviousStation { sigma: 0, decide }
    }
}

impl<F: FnMut(Slot, Slot) -> bool> Station for ObliviousStation<F> {
    fn wake(&mut self, sigma: Slot) {
        self.sigma = sigma;
    }
    fn act(&mut self, t: Slot) -> Action {
        Action::from_bool((self.decide)(self.sigma, t))
    }
}

/// A protocol built from a plain function `f(id, n_seed, σ, t) -> transmit?`.
///
/// Useful in tests and for wrapping schedule objects without a bespoke type.
pub struct FnProtocol<F>
where
    F: Fn(StationId, u64, Slot, Slot) -> bool + Sync,
{
    name: String,
    f: std::sync::Arc<F>,
}

impl<F> FnProtocol<F>
where
    F: Fn(StationId, u64, Slot, Slot) -> bool + Sync + Send + 'static,
{
    /// Wrap `f(id, seed, sigma, t)` as a protocol named `name`.
    pub fn new(name: impl Into<String>, f: F) -> Self {
        FnProtocol {
            name: name.into(),
            f: std::sync::Arc::new(f),
        }
    }
}

impl<F> Protocol for FnProtocol<F>
where
    F: Fn(StationId, u64, Slot, Slot) -> bool + Sync + Send + 'static,
{
    fn station(&self, id: StationId, seed: u64) -> Box<dyn Station> {
        let f = std::sync::Arc::clone(&self.f);
        Box::new(ObliviousStation::new(move |sigma, t| f(id, seed, sigma, t)))
    }

    fn name(&self) -> String {
        self.name.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn action_from_bool() {
        assert_eq!(Action::from_bool(true), Action::Transmit);
        assert_eq!(Action::from_bool(false), Action::Listen);
        assert!(Action::Transmit.is_transmit());
        assert!(!Action::Listen.is_transmit());
    }

    #[test]
    fn always_and_never() {
        let mut a = AlwaysTransmit;
        let mut n = NeverTransmit;
        a.wake(5);
        n.wake(5);
        for t in 5..10 {
            assert_eq!(a.act(t), Action::Transmit);
            assert_eq!(n.act(t), Action::Listen);
        }
    }

    #[test]
    fn oblivious_station_sees_its_wake_slot() {
        // Transmit exactly `3` slots after waking.
        let mut s = ObliviousStation::new(|sigma, t| t == sigma + 3);
        s.wake(10);
        assert_eq!(s.act(10), Action::Listen);
        assert_eq!(s.act(12), Action::Listen);
        assert_eq!(s.act(13), Action::Transmit);
        assert_eq!(s.act(14), Action::Listen);
    }

    #[test]
    fn fn_protocol_constructs_station_per_id() {
        let p = FnProtocol::new("diag", |id: StationId, _seed, _sigma, t: Slot| {
            t % 4 == id.0 as u64
        });
        assert_eq!(p.name(), "diag");
        let mut s2 = p.station(StationId(2), 0);
        s2.wake(0);
        assert_eq!(s2.act(0), Action::Listen);
        assert_eq!(s2.act(2), Action::Transmit);
        assert_eq!(s2.act(6), Action::Transmit);
        assert_eq!(s2.act(7), Action::Listen);
    }

    #[test]
    fn protocol_is_usable_through_references_and_boxes() {
        fn takes_protocol(p: impl Protocol) -> String {
            p.name()
        }
        let p = FnProtocol::new("x", |_, _, _, _| false);
        assert_eq!(takes_protocol(&p), "x");
        let b: Box<dyn Protocol> = Box::new(p);
        assert_eq!(takes_protocol(&b), "x");
        assert_eq!(takes_protocol(b), "x");
    }
}
