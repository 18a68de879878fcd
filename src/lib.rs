//! # mac-wakeup — contention resolution on a non-synchronized multiple access channel
//!
//! A full Rust reproduction of De Marco & Kowalski, *"Contention Resolution
//! in a Non-Synchronized Multiple Access Channel"* (IEEE IPDPS 2013): the
//! channel model, the combinatorial machinery (selective families, waking
//! matrices), the three deterministic wake-up algorithms, the §6 randomized
//! protocols, the Theorem 2.1 lower-bound adversary, and the measurement
//! harness that regenerates every quantitative claim of the paper.
//!
//! This crate is a facade: it re-exports the five member crates.
//!
//! | crate | contents |
//! |-------|----------|
//! | [`mac_sim`] | slot-synchronous channel simulator, wake patterns, adversaries |
//! | [`selectors`] | selective families, Kautz–Singleton codes, schedule algebra |
//! | [`wakeup_core`] | the paper's algorithms and the waking matrix |
//! | [`wakeup_analysis`] | ensembles, statistics, model-shape fitting, tables |
//! | [`wakeup_runner`] | batch-cursor ensemble execution, streaming accumulators |
//!
//! ## Quickstart
//!
//! ```
//! use mac_wakeup::prelude::*;
//!
//! // 64 stations; nobody knows when others wake or how many will (Scenario C).
//! let n = 64;
//! let protocol = WakeupN::new(MatrixParams::new(n));
//!
//! // Adversary wakes three stations at staggered times.
//! let ids: Vec<StationId> = [5u32, 23, 47].map(StationId).into();
//! let pattern = WakePattern::staggered(&ids, 100, 9).unwrap();
//!
//! let outcome = Simulator::new(SimConfig::new(n))
//!     .run(&protocol, &pattern, 0)
//!     .unwrap();
//! assert!(outcome.solved());
//! println!(
//!     "station {} transmitted alone {} slots after the first wake-up",
//!     outcome.winner.unwrap(),
//!     outcome.latency().unwrap()
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Determinism rules (clippy.toml): no clock or env reads and no printing; a
// site that must break one carries an item-level expect.
#![warn(
    clippy::disallowed_methods,
    clippy::print_stdout,
    clippy::print_stderr,
    clippy::dbg_macro
)]

pub use mac_sim;
pub use selectors;
pub use wakeup_analysis;
pub use wakeup_core;
pub use wakeup_runner;

/// One-stop imports: the simulator, the paper's protocols and the analysis
/// tools.
pub mod prelude {
    pub use mac_sim::prelude::*;
    pub use selectors::prelude::*;
    pub use wakeup_analysis::prelude::*;
    pub use wakeup_core::prelude::*;
}
