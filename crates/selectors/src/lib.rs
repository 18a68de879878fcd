//! # selectors — combinatorial selection structures for multiple access channels
//!
//! Deterministic contention resolution on a multiple access channel is built
//! on *selective families* (De Marco & Kowalski 2013, §3; Komlós & Greenberg
//! 1985; Clementi–Monti–Silvestri 2003). This crate implements the
//! combinatorial layer from scratch:
//!
//! * [`bitset`] — a compact fixed-universe bitset (the representation of a
//!   *transmission set* `F ⊆ [n]`);
//! * [`family`] — [`SelectiveFamily`]: an ordered list of transmission sets
//!   with its `(n, k)` parameters;
//! * [`random`] — the Komlós–Greenberg probabilistic construction of
//!   `(n,k)`-selective families of size `O(k + k·log(n/k))`, with explicit
//!   union-bound constants, in both explicit (materialized) and oracle
//!   (seeded PRF, O(1) memory) representations;
//! * [`greedy`] — an exact greedy set-cover construction for small `n`
//!   (ground truth for tests);
//! * [`kautz_singleton`] — explicit *strongly* selective families via
//!   Reed–Solomon superimposed codes (Kautz & Singleton 1964), size
//!   `O(k² log² n)`, fully deterministic;
//! * [`bitsplit`] — the folklore explicit `(n,2)`-selective family of size
//!   `2⌈log n⌉ + 1`;
//! * [`verify`] — exhaustive and Monte-Carlo verification of (strong)
//!   selectivity;
//! * [`schedule`] — schedule algebra: families as schedules, concatenation
//!   and cyclic repetition, and round-robin;
//! * [`prf`] — the deterministic pseudo-random membership function behind
//!   oracle families and waking matrices;
//! * [`math`] — small number-theoretic and combinatorial helpers
//!   (`ceil_log2`, primality, `k`-subset enumeration).
//!
//! ## Definition
//!
//! Given `n` and `2 ≤ k ≤ n`, an **(n,k)-selective family** is a family `F`
//! of subsets of `[n]` such that for every `X ⊆ [n]` with
//! `k/2 ≤ |X| ≤ k` there exists `F ∈ F` with `|X ∩ F| = 1`.
//! A family is **(n,k)-strongly selective** if for every `X` with `|X| ≤ k`
//! and every `x ∈ X` there exists `F` with `X ∩ F = {x}`.
//!
//! The station universe here is plain `u32` IDs `0..n`; the simulation layer
//! (`mac-sim`) wraps them in `StationId`.
//!
//! ```
//! use selectors::prelude::*;
//!
//! // An explicit, randomly constructed (64, 8)-selective family…
//! let fam = RandomFamilyBuilder::new(64, 8).seed(42).build_explicit();
//! // …verified by Monte-Carlo sampling of target sets X:
//! let report = verify::selective_monte_carlo(&fam, 2_000, 7);
//! assert!(report.is_ok(), "{report:?}");
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

pub mod bitset;
pub mod bitsplit;
pub mod family;
pub mod greedy;
pub mod kautz_singleton;
pub mod math;
pub mod prf;
pub mod random;
pub mod schedule;
pub mod verify;

pub use bitset::{transpose64, BitSet};
pub use family::SelectiveFamily;
pub use random::RandomFamilyBuilder;
pub use schedule::{Schedule, ScheduleExt};

/// Convenient glob import.
pub mod prelude {
    pub use crate::bitset::{transpose64, BitSet};
    pub use crate::bitsplit::bitsplit_family;
    pub use crate::family::SelectiveFamily;
    pub use crate::greedy::GreedyBuilder;
    pub use crate::kautz_singleton::KautzSingleton;
    pub use crate::random::{OracleFamily, RandomFamilyBuilder};
    pub use crate::schedule::{
        ConcatSchedule, CycleSchedule, FamilySchedule, Schedule, ScheduleExt,
    };
    pub use crate::verify;
}
