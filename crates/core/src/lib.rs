//! # wakeup-core — the De Marco–Kowalski contention-resolution algorithms
//!
//! This crate implements the primary contribution of De Marco & Kowalski,
//! *"Contention Resolution in a Non-Synchronized Multiple Access Channel"*
//! (IPDPS 2013): deterministic wake-up protocols for a multiple access
//! channel without collision detection, where up to `k` of `n` stations wake
//! up at adversarially chosen times, under three knowledge scenarios:
//!
//! | Scenario | Known to stations | Algorithm | Bound |
//! |----------|-------------------|-----------|-------|
//! | A | `n`, `s` (first wake-up slot) | [`WakeupWithS`] = round-robin ⊕ [`SelectAmongFirst`] | `Θ(k log(n/k) + 1)` |
//! | B | `n`, `k` | [`WakeupWithK`] = round-robin ⊕ [`WaitAndGo`] | `Θ(k log(n/k) + 1)` |
//! | C | `n` only | [`WakeupN`] over a [`WakingMatrix`] | `O(k log n log log n)` |
//!
//! (`⊕` is the odd/even slot interleaving of §3: with a global clock, run one
//! component on even slots and the other on odd slots.)
//!
//! Additional contents:
//!
//! * [`round_robin`] — the time-division baseline (optimal for `k > n/c`);
//! * [`waking_matrix`] — §5's combinatorial tool: the `(log n × ℓ)`
//!   transmission matrix with membership probability `2^{-(i+ρ(j))}`,
//!   realized as a seeded PRF oracle, plus the full §5.2 analysis machinery
//!   (windows, `S_{i,j}` partitions, well-balancedness S1/S2, isolation);
//! * [`randomized`] — §6: the Jurdziński–Stachowiak *Repeated Probability
//!   Decrease* protocol (`O(log n)` expected), its `k`-aware variant
//!   (`O(log k)`), and classical baselines (slotted ALOHA, binary
//!   exponential backoff);
//! * [`baselines`] — a locally-synchronized deterministic stand-in for the
//!   Chlebus–Gąsieniec–Kowalski–Radzik `O(k log² n)` comparison point;
//! * [`conflict_resolution`] — the Komlós–Greenberg predecessor problem
//!   (*every* awake station must transmit successfully), built from the
//!   same selective families with retirement on own success;
//! * [`lower_bound`] — Theorem 2.1's swap-chain adversary, executable
//!   against any oblivious schedule;
//! * [`scenario`] — a unified facade selecting the right algorithm per
//!   knowledge scenario.
//!
//! ```
//! use mac_sim::prelude::*;
//! use wakeup_core::prelude::*;
//!
//! // Scenario B: n = 64 stations, at most k = 4 wake up; staggered arrivals.
//! let n = 64;
//! let protocol = WakeupWithK::new(n, 4, FamilyProvider::default());
//! let ids: Vec<StationId> = [3u32, 17, 40, 63].map(StationId).into();
//! let pattern = WakePattern::staggered(&ids, 100, 7).unwrap();
//! let sim = Simulator::new(SimConfig::new(n));
//! let out = sim.run(&protocol, &pattern, 1).unwrap();
//! assert!(out.solved());
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

pub mod baselines;
pub mod cache;
pub mod certify;
pub mod conflict_resolution;
pub mod energy;
pub mod family_provider;
pub mod lower_bound;
mod oblivious;
pub mod randomized;
pub mod round_robin;
pub mod scenario;
pub mod select_among_first;
pub mod wait_and_go;
pub mod wakeup_n;
pub mod wakeup_with_k;
pub mod wakeup_with_s;
pub mod waking_matrix;

pub use cache::ConstructionCache;
pub use certify::{certify, search_certified_seed, Certificate, CertifyConfig};
pub use conflict_resolution::{FullResolution, RetiringRoundRobin};
pub use energy::EnergyCapped;
pub use family_provider::{DynFamily, FamilyProvider};
pub use round_robin::RoundRobin;
pub use scenario::{scenario_protocol, Scenario};
pub use select_among_first::{DoublingSchedule, PositionIndex, SelectAmongFirst};
pub use wait_and_go::WaitAndGo;
pub use wakeup_n::WakeupN;
pub use wakeup_with_k::WakeupWithK;
pub use wakeup_with_s::WakeupWithS;
pub use waking_matrix::{MatrixParams, WakingMatrix};

/// Convenient glob import.
pub mod prelude {
    pub use crate::baselines::LocalDoubling;
    pub use crate::cache::ConstructionCache;
    pub use crate::certify::{certify, search_certified_seed, Certificate, CertifyConfig};
    pub use crate::conflict_resolution::{FullResolution, RetiringRoundRobin};
    pub use crate::energy::EnergyCapped;
    pub use crate::family_provider::{DynFamily, FamilyProvider};
    pub use crate::lower_bound::SwapChainAdversary;
    pub use crate::randomized::{Aloha, BinaryExponentialBackoff, Rpd, RpdK};
    pub use crate::round_robin::RoundRobin;
    pub use crate::scenario::{scenario_protocol, Scenario};
    pub use crate::select_among_first::SelectAmongFirst;
    pub use crate::wait_and_go::WaitAndGo;
    pub use crate::wakeup_n::WakeupN;
    pub use crate::wakeup_with_k::WakeupWithK;
    pub use crate::wakeup_with_s::WakeupWithS;
    pub use crate::waking_matrix::{MatrixParams, WakingMatrix};
}
