//! Optional live progress/throughput reporting for long sweeps.
//!
//! The runner's reducer loop ticks the internal meter while it waits for
//! results; the meter formats a one-line update at most once per configured
//! interval and hands it to the [`ProgressSink`] the caller plugged in:
//!
//! ```text
//! [runner] 412000/1048576 runs (39.3%) | 183402 runs/s
//! ```
//!
//! The default sink is [`StderrProgress`] (tables on stdout stay
//! machine-readable); experiment drivers route the lines through their
//! output sink instead so progress ends up wherever the operator is looking
//! — and never inside a machine-readable data stream.

use std::sync::Arc;
use std::time::{Duration, Instant};

/// Destination for progress lines. Implementations must be cheap and
/// non-blocking-ish: lines arrive from the reducer thread mid-run.
pub trait ProgressSink: Send + Sync {
    /// Deliver one formatted progress line (no trailing newline).
    fn progress_line(&self, line: &str);
}

/// The default sink: one line per update on stderr.
#[derive(Clone, Copy, Debug, Default)]
pub struct StderrProgress;

impl ProgressSink for StderrProgress {
    #[expect(clippy::print_stderr, reason = "the default progress sink is stderr")]
    fn progress_line(&self, line: &str) {
        eprintln!("{line}");
    }
}

/// Configuration of live progress reporting.
#[derive(Clone)]
pub struct Progress {
    /// Minimum interval between updates.
    pub every: Duration,
    /// Label prefixed to each line (e.g. the experiment table's name).
    pub label: String,
    /// Where the formatted lines go (default: stderr).
    sink: Arc<dyn ProgressSink>,
}

impl std::fmt::Debug for Progress {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Progress")
            .field("every", &self.every)
            .field("label", &self.label)
            .finish_non_exhaustive()
    }
}

impl Progress {
    /// Report roughly every `every`, labelled `label`, to stderr.
    pub fn new(every: Duration, label: impl Into<String>) -> Self {
        Progress {
            every,
            label: label.into(),
            sink: Arc::new(StderrProgress),
        }
    }

    /// Route the lines to `sink` instead of stderr.
    pub fn with_sink(mut self, sink: Arc<dyn ProgressSink>) -> Self {
        self.sink = sink;
        self
    }

    /// Deliver one line through the configured sink.
    pub(crate) fn emit(&self, line: &str) {
        self.sink.progress_line(line);
    }
}

/// Internal throttle around a [`Progress`] spec.
pub(crate) struct ProgressMeter {
    spec: Progress,
    started: Instant,
    last: Instant,
}

#[expect(
    clippy::disallowed_methods,
    reason = "the progress throttle reads the clock; lines never reach artifacts"
)]
impl ProgressMeter {
    pub(crate) fn new(spec: Progress) -> Self {
        let now = Instant::now();
        ProgressMeter {
            spec,
            started: now,
            last: now,
        }
    }

    /// Emit an update if the interval elapsed.
    pub(crate) fn tick(&mut self, done: u64, total: u64) {
        if self.last.elapsed() < self.spec.every {
            return;
        }
        self.last = Instant::now();
        let secs = self.started.elapsed().as_secs_f64().max(1e-9);
        self.spec.emit(&format!(
            "[{}] {done}/{total} runs ({:.1}%) | {:.0} runs/s",
            self.spec.label,
            100.0 * done as f64 / total.max(1) as f64,
            done as f64 / secs,
        ));
    }
}
