//! # wakeup-analysis — measurement harness for the reproduction experiments
//!
//! Tools to turn simulator runs into the tables of the experiment registry
//! (README, "Experiments: the `wakeup` driver"):
//!
//! * [`ensemble`] — a multi-seed experiment runner pairing a protocol
//!   factory with a wake-pattern generator, executed on the
//!   [`wakeup_runner`] work-stealing pool with deterministic (seed-ordered)
//!   streaming aggregation;
//! * [`stats`] — summary statistics (mean/sd/median/quantiles/max, normal
//!   95% confidence intervals) over latency samples;
//! * [`fit`] — least-squares fits of measured latency against the paper's
//!   model shapes (`k·log(n/k)+1`, `k·log n·log log n`, `k·log² n`,
//!   `log n`, `log k`, `n−k+1`) with `R²`, used to check *shape* agreement
//!   rather than absolute constants — against the mean or the P² p90 curve
//!   ([`fit::Metric`]);
//! * [`table`] — Markdown and CSV rendering of experiment tables;
//! * [`serial`] — dependency-free machine-readable records
//!   ([`serial::Value`], [`serial::Record`]) with JSON / CSV renderings,
//!   the payload type of the experiment sinks
//!   ([`EnsembleSummary::record`], [`WorkStats::record`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ensemble;
pub mod fit;
pub mod serial;
pub mod stats;
pub mod table;

pub use ensemble::{
    run_ensemble, run_ensemble_cached, run_ensemble_chunked, run_ensemble_stream,
    run_ensemble_stream_cached, EnsembleResult, EnsembleSpec, EnsembleSummary, TraceSpec,
    WorkStats,
};
pub use fit::{fit_model, fit_model_by, rank_models_by, FitResult, Metric, Model, SweepPoint};
pub use serial::{Record, Value};
pub use stats::Summary;
pub use table::Table;

/// Convenient glob import.
pub mod prelude {
    pub use crate::ensemble::{
        run_ensemble, run_ensemble_cached, run_ensemble_chunked, run_ensemble_stream,
        run_ensemble_stream_cached, EnsembleResult, EnsembleSpec, EnsembleSummary, TraceSpec,
        WorkStats,
    };
    pub use crate::fit::{
        fit_model, fit_model_by, rank_models_by, FitResult, Metric, Model, SweepPoint,
    };
    pub use crate::serial::{Record, Value};
    pub use crate::stats::Summary;
    pub use crate::table::Table;
}
