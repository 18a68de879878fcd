//! One expression for the paper's oblivious deterministic protocols (§3–§4),
//! and for the two full-resolution resolvers built on them (§1).
//!
//! The Scenario A and B algorithms compose three oblivious pieces:
//! round-robin over `n`, the doubling sequence `⟨F₁, F₂, …⟩` of
//! `(n, 2^i)`-selective families ([`DoublingSchedule`]) behind a gate fixed
//! at wake, and the global-clock even/odd interleave that §3 calls "a very
//! easy operation". An [`Oblivious`] expression holds up to two tracks, and
//! a retirement rule:
//!
//! | protocol | round-robin track | doubling track | gate | retires |
//! |---|---|---|---|---|
//! | `RoundRobin` | every slot | — | — | — |
//! | `SelectAmongFirst` | — | every slot | [`Gate::WokeAt`] `s` | — |
//! | `WaitAndGo` | — | every slot | [`Gate::NextBoundary`] | — |
//! | `WakeupWithS` | slot `2p` | slot `2p + 1` | [`Gate::WokeAt`] `s` | — |
//! | `WakeupWithK` | slot `2p` | slot `2p + 1` | [`Gate::NextBoundary`] | — |
//! | `FullResolution` | — | every slot | [`Gate::NextBoundary`] | on its own success |
//! | `RetiringRoundRobin` | every slot | — | — | on its own success |
//!
//! A track alone runs on every slot: its position `p` is slot `p`. Two
//! tracks interleave: round-robin position `p` is slot `2p`, and doubling
//! position `p` is slot `2p + 1`. Round-robin position `p` belongs to
//! station `p mod n`. At wake σ the gate fixes whether a station walks the
//! doubling track, the first track position at which it may transmit, and
//! the track position at which the schedule starts counting (its origin).
//!
//! A retiring station goes silent for good once it hears its own success
//! (`Feedback::Heard` naming it). That is the only feedback any station
//! reacts to, and it falls in a slot where the station transmitted, which
//! the engine polls and re-queries: so every hint, retiring or not, keeps
//! the [`Until::Forever`] scope. A retiring doubling-track station fills
//! its tiles in closed form, scoped [`Until::NextSuccess`] (its bits past
//! its own success no longer hold); a retiring round-robin station leaves
//! them to the engine's generic fill.
//!
//! This module is the only place where slots map to positions. One
//! [`Station`] answers `act`, its hint and its tile fill for every
//! expression (wrapped, for a retiring doubling track, in one that carries
//! its last fill), and one [`ClassStation`] does the same for a wake batch.

use crate::select_among_first::{
    AnyMemberScan, DoublingSchedule, NextPositionCache, Scan, CLASS_SCAN_BUDGET,
};
use mac_sim::{
    Action, ClassStation, Feedback, MemberRemoval, Members, Slot, Station, StationId, TxHint,
    TxTally, TxWord, Until,
};
use selectors::math::next_congruent;
use std::sync::Arc;

/// Which stations walk the doubling track, decided at each wake slot σ.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Gate {
    /// Only stations woken at `s` take part, and the schedule counts from
    /// the track's first position at or after slot `s` (§3).
    WokeAt(Slot),
    /// Every station takes part from the first family boundary at or after
    /// its wake, and the schedule follows the global clock (§4).
    NextBoundary,
}

/// The slots a track owns.
#[derive(Clone, Copy, Debug)]
enum Track {
    /// Every slot: position `p` is slot `p`.
    Alone,
    /// Even slots: position `p` is slot `2p`.
    Even,
    /// Odd slots: position `p` is slot `2p + 1`.
    Odd,
}

impl Track {
    /// The slot of position `p`.
    #[inline]
    fn slot(self, p: u64) -> Slot {
        match self {
            Track::Alone => p,
            Track::Even => 2 * p,
            Track::Odd => 2 * p + 1,
        }
    }

    /// The position at slot `t`, if the track owns `t`.
    #[inline]
    fn position(self, t: Slot) -> Option<u64> {
        match self {
            Track::Alone => Some(t),
            Track::Even => t.is_multiple_of(2).then_some(t / 2),
            Track::Odd => (!t.is_multiple_of(2)).then_some(t / 2),
        }
    }

    /// The first position whose slot is `≥ t`.
    #[inline]
    fn first_from(self, t: Slot) -> u64 {
        match self {
            Track::Alone => t,
            Track::Even => t.div_ceil(2),
            Track::Odd => t / 2,
        }
    }
}

/// The doubling track: the shared schedule, its gate and its slots.
#[derive(Debug)]
struct Doubling {
    schedule: Arc<DoublingSchedule>,
    gate: Gate,
    track: Track,
    /// The track position the schedule counts from: the first one at or
    /// after `s` for [`Gate::WokeAt`], 0 for [`Gate::NextBoundary`].
    origin: u64,
}

impl Doubling {
    /// The slot of schedule position `q`.
    #[inline]
    fn slot(&self, q: u64) -> Slot {
        self.track.slot(q + self.origin)
    }
}

/// An oblivious schedule of up to two tracks, with or without retirement
/// (see the module docs).
#[derive(Debug)]
pub(crate) struct Oblivious {
    /// Round-robin over `n` stations, and its slots.
    round_robin: Option<(u32, Track)>,
    doubling: Option<Doubling>,
    /// Does a station go silent for good once it hears its own success?
    retiring: bool,
}

impl Oblivious {
    /// Round-robin over `n` stations and the gated doubling schedule,
    /// either alone or (given both) interleaved; `retiring` stations go
    /// silent for good at their own success.
    pub(crate) fn new(
        n: Option<u32>,
        doubling: Option<(Arc<DoublingSchedule>, Gate)>,
        retiring: bool,
    ) -> Arc<Self> {
        let (even, odd) = match (n, &doubling) {
            (Some(_), Some(_)) => (Track::Even, Track::Odd),
            _ => (Track::Alone, Track::Alone),
        };
        let doubling = doubling.map(|(schedule, gate)| {
            let origin = match gate {
                Gate::WokeAt(s) => odd.first_from(s),
                Gate::NextBoundary => 0,
            };
            Doubling {
                schedule,
                gate,
                track: odd,
                origin,
            }
        });
        Arc::new(Oblivious {
            round_robin: n.map(|n| (n, even)),
            doubling,
            retiring,
        })
    }

    /// The doubling track's schedule, if the expression has that track.
    pub(crate) fn schedule(&self) -> Option<&Arc<DoublingSchedule>> {
        self.doubling.as_ref().map(|d| &d.schedule)
    }

    /// Station `id` of this expression.
    pub(crate) fn station(self: &Arc<Self>, id: StationId) -> Box<dyn Station> {
        let station = TrackStation {
            id: id.0,
            retiring: self.retiring,
            retired: false,
            go: None,
            expr: Arc::clone(self),
            cache: NextPositionCache::default(),
        };
        if self.retiring && self.round_robin.is_none() {
            Box::new(CarryingStation {
                station,
                end: 0,
                bits: 0,
            })
        } else {
            Box::new(station)
        }
    }

    /// The wake batch `members` of this expression as one class unit.
    pub(crate) fn class(self: &Arc<Self>, members: &Members) -> Box<dyn ClassStation> {
        Box::new(TrackClass {
            members: members.clone(),
            go: None,
            expr: Arc::clone(self),
            scan: AnyMemberScan::default(),
        })
    }

    /// The first doubling-track position at which a station woken at
    /// `sigma` may transmit, if it walks that track.
    fn go(&self, sigma: Slot) -> Option<u64> {
        let d = self.doubling.as_ref()?;
        match d.gate {
            Gate::WokeAt(s) => (sigma == s).then_some(d.origin),
            Gate::NextBoundary => Some(d.schedule.next_boundary(d.track.first_from(sigma))),
        }
    }

    /// The station whose round-robin turn slot `t` is, if that track owns
    /// `t`.
    #[inline]
    fn owner(&self, t: Slot) -> Option<u32> {
        let (n, track) = self.round_robin?;
        track.position(t).map(|p| (p % u64::from(n)) as u32)
    }

    /// The schedule position at slot `t` of a station that may transmit
    /// from doubling-track position `go` on, if the track owns `t` and the
    /// station walks it there.
    #[inline]
    fn walk_at(&self, t: Slot, go: Option<u64>) -> Option<(&Doubling, u64)> {
        let (d, go) = (self.doubling.as_ref()?, go?);
        let p = d.track.position(t).filter(|&p| p >= go)?;
        Some((d, p - d.origin))
    }

    /// The schedule position of the first slot `≥ t` at which a station
    /// that may transmit from doubling-track position `go` on walks the
    /// track.
    #[inline]
    fn walk_from(&self, t: Slot, go: Option<u64>) -> Option<(&Doubling, u64)> {
        let d = self.doubling.as_ref()?;
        Some((d, d.track.first_from(t).max(go?) - d.origin))
    }
}

/// The first position `≥ p` whose round-robin owner `p mod n` is in
/// `members`, or `None` if `members` is empty: the next member turn in
/// the rest of this cycle, else the smallest member's turn in the next.
pub(crate) fn next_member_turn(members: &Members, n: u32, p: u64) -> Option<u64> {
    let first = members.first()?;
    let n = u64::from(n);
    let r = p % n;
    Some(match members.next_at_or_after(r as u32) {
        Some(x) if u64::from(x) < n => p + (u64::from(x) - r),
        _ => p + (n - r) + u64::from(first),
    })
}

/// The earlier of two candidate slots as an unconditional hint.
fn earliest(a: Option<Slot>, b: Option<Slot>) -> TxHint {
    match a.into_iter().chain(b).min() {
        Some(t) => TxHint::at(t),
        None => TxHint::never(),
    }
}

/// One station of an [`Oblivious`] expression. Its doubling walk is
/// memoized in a [`NextPositionCache`], the one source of its `act` and
/// its hint; a tile fill walks beside the memo (see
/// [`Station::fill_tx_word`] on refills).
struct TrackStation {
    id: u32,
    /// The expression's retirement rule.
    retiring: bool,
    /// Set once a retiring station hears its own success: silent for good.
    retired: bool,
    /// The first doubling-track position at which the station may
    /// transmit, fixed at wake; `None` if it never walks that track.
    go: Option<u64>,
    expr: Arc<Oblivious>,
    cache: NextPositionCache,
}

impl TrackStation {
    /// The station's transmissions over slots `[from, to)`, bit `j`
    /// standing for slot `base + j` (`base ≤ from`, `to ≤ base + 64`):
    /// round-robin turns in closed form, one bounded walk over the
    /// doubling positions.
    fn bits(&self, base: Slot, from: Slot, to: Slot) -> u64 {
        let mut bits = 0u64;
        if let Some((n, track)) = self.expr.round_robin {
            let (n, id) = (u64::from(n), u64::from(self.id));
            let mut p = next_congruent(track.first_from(from), id, n);
            while track.slot(p) < to {
                bits |= 1u64 << (track.slot(p) - base);
                p += n;
            }
        }
        if let Some((d, q0)) = self.expr.walk_from(from, self.go) {
            let q1 = d.track.first_from(to).saturating_sub(d.origin);
            for q in d.schedule.positions_in(self.id, q0, q1) {
                bits |= 1u64 << (d.slot(q) - base);
            }
        }
        bits
    }
}

impl Station for TrackStation {
    fn wake(&mut self, sigma: Slot) {
        self.go = self.expr.go(sigma);
    }

    fn act(&mut self, t: Slot) -> Action {
        if self.retired {
            return Action::Listen;
        }
        if let Some(owner) = self.expr.owner(t) {
            return Action::from_bool(owner == self.id);
        }
        match self.expr.walk_at(t, self.go) {
            Some((d, q)) => Action::from_bool(self.cache.transmits_at(&d.schedule, self.id, q)),
            None => Action::Listen,
        }
    }

    fn feedback(&mut self, _t: Slot, fb: Feedback) {
        if self.retiring && fb.is_own_success(StationId(self.id)) {
            self.retired = true;
        }
    }

    fn next_transmission(&mut self, after: Slot) -> TxHint {
        if self.retired {
            return TxHint::never();
        }
        let turn = self.expr.round_robin.map(|(n, track)| {
            let p = next_congruent(track.first_from(after), u64::from(self.id), u64::from(n));
            track.slot(p)
        });
        let walk = self.expr.walk_from(after, self.go).and_then(|(d, q0)| {
            let q = self.cache.query(&d.schedule, self.id, q0)?;
            Some(d.slot(q))
        });
        earliest(turn, walk)
    }

    fn fill_tx_word(&mut self, base: Slot, width: u32) -> Option<TxWord> {
        // A retiring round-robin station transmits once per `n` slots: its
        // hint stays claimed in the engine's word memo across the tiles
        // that successes close, where a word would be refilled at each.
        if self.retiring {
            return None;
        }
        // Every track is oblivious and the gate is fixed at wake, so the
        // tile is an unconditional fact.
        let end = base + u64::from(width);
        Some(TxWord::forever(self.bits(base, base, end)))
    }
}

/// The station of a retiring doubling track, which transmits many times
/// per tile and so fills its own. Every success closes a tile and the
/// refill starts inside the old one, so the last fill's bits answer the
/// overlap and only slots past `end` are walked: each slot once per
/// station per run. Bit `63 − i` of `bits` is the station's transmission
/// at slot `end − 1 − i`.
struct CarryingStation {
    station: TrackStation,
    end: Slot,
    bits: u64,
}

impl Station for CarryingStation {
    fn wake(&mut self, sigma: Slot) {
        self.station.wake(sigma);
    }

    fn act(&mut self, t: Slot) -> Action {
        self.station.act(t)
    }

    fn feedback(&mut self, t: Slot, fb: Feedback) {
        self.station.feedback(t, fb);
    }

    fn next_transmission(&mut self, after: Slot) -> TxHint {
        self.station.next_transmission(after)
    }

    fn fill_tx_word(&mut self, base: Slot, width: u32) -> Option<TxWord> {
        if self.station.retired {
            return Some(TxWord::forever(0));
        }
        let end = base + u64::from(width);
        // `base` never decreases, so a base below the last fill's end lies
        // inside that fill.
        let (mut bits, from) = if base < self.end {
            (self.bits >> (base + 64 - self.end), self.end)
        } else {
            (0, base)
        };
        if from < end {
            bits |= self.station.bits(base, from, end);
        }
        self.end = end.max(from);
        self.bits = bits << (64 - (self.end - base));
        // Its bits past the station's own success no longer hold.
        Some(TxWord {
            bits,
            until: Until::NextSuccess,
        })
    }
}

/// One wake batch of an [`Oblivious`] expression as a single class unit:
/// the members share σ, hence the gate's answer. A round-robin slot is
/// O(log runs) (at most its owner transmits), a doubling slot one
/// [`TxTally::record_members`] sweep. The hint is the earlier of the
/// members' next round-robin turn and a budgeted [`AnyMemberScan`] of the
/// doubling track capped at that turn: a window proven silent yields the
/// turn itself, and a budget stop yields a `Never(Until::Slot(…))`
/// re-query point strictly past `after`. A retiring member that hears its
/// own success leaves the member set, as a churned one does.
struct TrackClass {
    members: Members,
    go: Option<u64>,
    expr: Arc<Oblivious>,
    scan: AnyMemberScan,
}

impl ClassStation for TrackClass {
    fn wake(&mut self, sigma: Slot) {
        self.go = self.expr.go(sigma);
    }

    fn act(&mut self, t: Slot, tally: &mut TxTally) {
        if let Some(owner) = self.expr.owner(t) {
            if self.members.contains(owner) {
                tally.push(StationId(owner));
            }
        } else if let Some((d, q)) = self.expr.walk_at(t, self.go) {
            tally.record_members(&self.members, d.schedule.row(q));
        }
    }

    fn next_transmission(&mut self, after: Slot) -> TxHint {
        let turn = self.expr.round_robin.and_then(|(n, track)| {
            next_member_turn(&self.members, n, track.first_from(after)).map(|p| track.slot(p))
        });
        let Some((d, q0)) = self.expr.walk_from(after, self.go) else {
            return earliest(turn, None);
        };
        // Only doubling slots below the round-robin turn can beat it.
        let q_lim = turn.map_or(u64::MAX, |t| d.track.first_from(t).saturating_sub(d.origin));
        let (row, period) = (|q| d.schedule.row(q), d.schedule.period());
        match self
            .scan
            .next_hit(row, period, &self.members, q0, q_lim, CLASS_SCAN_BUDGET)
        {
            Scan::Hit(q) => TxHint::at(d.slot(q)),
            // Budget stop inside the window: silence holds strictly past
            // `after` (b > q0), and the bound stays below the turn.
            Scan::SilentBelow(b) if b < q_lim => TxHint::Never(Until::Slot(d.slot(b))),
            Scan::SilentBelow(_) | Scan::Never => earliest(turn, None),
        }
    }

    fn feedback(&mut self, _t: Slot, fb: Feedback) {
        // Only the member that hears its own success retires, and it
        // leaves the class as a churned member does.
        if let (true, Feedback::Heard(w)) = (self.expr.retiring, fb) {
            self.remove_member(w);
        }
    }

    fn remove_member(&mut self, id: StationId) -> MemberRemoval {
        // Both tracks are per-member, so removal only shrinks the set. The
        // scan memo may describe the departed member's hits, so restart it
        // — at worst a re-proved window, never a missed turn.
        if self.members.remove(id.0) {
            self.scan = AnyMemberScan::default();
            MemberRemoval::Removed {
                emptied: self.members.is_empty(),
            }
        } else {
            MemberRemoval::NotMember
        }
    }
}
