//! # mac-sim — a slot-synchronous multiple access channel simulator
//!
//! This crate implements, from scratch, the communication model that underlies
//! De Marco & Kowalski, *"Contention Resolution in a Non-Synchronized Multiple
//! Access Channel"* (IPDPS 2013) and the classical multiple-access-channel
//! literature (Aloha, Ethernet, packet radio):
//!
//! * time is divided into **slots**, synchronously visible to all stations
//!   (the *globally synchronous* model: every station can read the global
//!   round number);
//! * `n` stations with unique IDs from `{0, …, n-1}` share one channel;
//! * in each slot a station either **transmits** or **listens**;
//! * a slot is **successful** iff *exactly one* station transmits — then every
//!   station receives the message;
//! * if two or more stations transmit, the transmissions **collide** and are
//!   all lost. Under the paper's feedback model (no collision detection) a
//!   collision is indistinguishable from silence; an optional
//!   collision-detection model is also provided for baselines and ablations;
//! * stations **wake up spontaneously and independently** at arbitrary slots
//!   (the wake-up pattern is chosen by an adversary); at most `k ≤ n`
//!   stations ever wake.
//!
//! The **wake-up / contention-resolution problem** is solved at the first
//! slot `t ≥ s` (where `s` is the earliest wake-up) in which exactly one
//! awake station transmits. The cost of a run is the **latency** `t − s`.
//!
//! ## Crate layout
//!
//! * [`ids`] — [`StationId`] and [`Slot`] newtypes/aliases.
//! * [`channel`] — channel resolution and the two feedback models.
//! * [`station`] — the [`Station`] behaviour trait and the [`Protocol`]
//!   factory trait, plus simple adapter stations.
//! * [`engine`] — the simulator main loop ([`Simulator`]), configuration and
//!   [`Outcome`]s.
//! * [`pattern`] — wake-up pattern type and adversarial generators.
//! * [`adversary`] — a schedule-agnostic greedy *spoiler* that searches for
//!   bad wake-up patterns against a concrete protocol.
//! * [`trace`] — per-slot transcripts and model-invariant checkers.
//! * [`tracer`] — structured engine event tracing ([`Tracer`],
//!   [`TraceEvent`]): slot outcomes, mode switches, class splits, streamed
//!   or ring-buffered, compiled away by default.
//! * [`metrics`] — latency / energy (transmission-count) accounting.
//! * [`rng`] — small deterministic mixing utilities for reproducible seeding.
//!
//! ## Quick example
//!
//! ```
//! use mac_sim::prelude::*;
//!
//! /// A protocol where station `id` transmits iff `t % n == id` (round robin).
//! struct RoundRobin { n: u32 }
//! struct RoundRobinStation { id: StationId, n: u32 }
//!
//! impl Station for RoundRobinStation {
//!     fn wake(&mut self, _sigma: Slot) {}
//!     fn act(&mut self, t: Slot) -> Action {
//!         if t % self.n as Slot == self.id.0 as Slot { Action::Transmit } else { Action::Listen }
//!     }
//! }
//! impl Protocol for RoundRobin {
//!     fn station(&self, id: StationId, _seed: u64) -> Box<dyn Station> {
//!         Box::new(RoundRobinStation { id, n: self.n })
//!     }
//!     fn name(&self) -> String { "round-robin".into() }
//! }
//!
//! let cfg = SimConfig::new(8).with_max_slots(100);
//! let pattern = WakePattern::simultaneous(&[StationId(3), StationId(5)], 10).unwrap();
//! let outcome = Simulator::new(cfg).run(&RoundRobin { n: 8 }, &pattern, 0xDEADBEEF).unwrap();
//! assert_eq!(outcome.s, 10);
//! assert!(outcome.first_success.is_some());
//! // station 3's turn comes at slot 11 (11 % 8 == 3), alone on the channel:
//! assert_eq!(outcome.first_success.unwrap(), 11);
//! assert_eq!(outcome.latency(), Some(1));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Determinism rules (clippy.toml): no RandomState maps, clock or env reads,
// and no printing; a site that must break one carries an item-level expect.
#![warn(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    clippy::print_stdout,
    clippy::print_stderr,
    clippy::dbg_macro
)]

pub mod adversary;
pub mod channel;
pub mod engine;
pub mod ids;
pub mod metrics;
pub mod pattern;
pub mod population;
pub mod rng;
pub mod station;
pub mod trace;
pub mod tracer;

pub use adversary::{SpoiledPattern, SpoilerSearch};
pub use channel::{ChannelFault, ChannelModel, FaultCounts, Feedback, FeedbackModel, SlotOutcome};
pub use engine::{EngineMode, Outcome, SimConfig, SimError, Simulator};
pub use ids::{Slot, StationId};
pub use pattern::{ChurnEntry, ChurnError, ChurnScript, RandomChurn, WakeBlock, WakePattern};
pub use population::{
    ClassStation, DeadClass, MemberRemoval, Members, PopulationMode, SingletonClass, TxRow, TxTally,
};
pub use station::{Action, Protocol, Station, TxHint, TxWord, Until};
pub use trace::Transcript;
pub use tracer::{
    BufferTracer, BurstCause, NoopTracer, RecordingTracer, TraceEvent, TraceFilter, TraceKind,
    Tracer,
};

/// Convenient glob import for downstream crates and examples.
pub mod prelude {
    pub use crate::adversary::{SpoiledPattern, SpoilerSearch};
    pub use crate::channel::{
        ChannelFault, ChannelModel, FaultCounts, Feedback, FeedbackModel, SlotOutcome,
    };
    pub use crate::engine::{EngineMode, Outcome, SimConfig, SimError, Simulator};
    pub use crate::ids::{Slot, StationId};
    pub use crate::metrics::{EnergyStats, LatencySample, OutcomeDigest};
    pub use crate::pattern::{
        ChurnEntry, ChurnError, ChurnScript, IdChoice, RandomChurn, WakeBlock, WakePattern,
    };
    pub use crate::population::{
        ClassStation, DeadClass, MemberRemoval, Members, PopulationMode, SingletonClass, TxRow,
        TxTally,
    };
    pub use crate::station::{Action, Protocol, Station, TxHint, TxWord, Until};
    pub use crate::trace::Transcript;
    pub use crate::tracer::{
        BufferTracer, BurstCause, NoopTracer, RecordingTracer, TraceEvent, TraceFilter, TraceKind,
        Tracer,
    };
}
