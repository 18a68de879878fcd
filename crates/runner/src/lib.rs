//! # wakeup-runner — batch-cursor ensemble execution with deterministic
//! streaming aggregation
//!
//! The sparse simulation engine made single protocol runs cheap enough that
//! *scheduling*, not simulation, dominates ensemble wall-clock: static
//! chunk-per-thread scheduling strands whole chunks of expensive runs on one
//! thread while the others idle. This crate replaces it with a small,
//! dependency-free execution subsystem:
//!
//! * **One batch cursor** ([`Runner::run`]): run indices `[0, runs)` are cut
//!   into contiguous *batches* of `max(1, runs / (8·threads))` runs, about
//!   eight per worker, and every worker claims the next batch from one
//!   shared atomic counter (chunk self-scheduling). Batches therefore start
//!   in index order, a worker that draws cheap runs simply claims more, and
//!   dispatch costs one `fetch_add` per batch — enough batches to balance
//!   skewed run costs, few enough that channel traffic amortizes even when
//!   one sparse run costs microseconds. No run executes before the workers
//!   start.
//! * **Deterministic streaming reduction** ([`collect`]): workers ship
//!   completed batches to the caller's thread, where a reorder buffer
//!   replays them into a [`Collector`] **strictly in run-index order**.
//!   Output is therefore bit-identical across thread counts and schedules
//!   — including floating-point folds. The reorder buffer holds whole batch
//!   payloads; a call has fewer than `16·threads` batches (at most
//!   `8·threads + 1` once `runs ≥ 64·threads²`), so one payload can carry
//!   `runs / (8·threads)` items.
//! * **Throughput reporting** ([`progress`]): optional live `runs/s` lines
//!   for long sweeps, delivered through a pluggable [`ProgressSink`]
//!   (stderr by default — experiment drivers route them through their
//!   output sink), plus a [`RunStats`] summary (elapsed, batches,
//!   per-worker run counts) on every run.
//!
//! ```
//! use wakeup_runner::{collect::from_fn, OnlineStats, Runner};
//!
//! let mut stats = OnlineStats::new();
//! let rs = Runner::new().with_threads(4).run(
//!     1000,
//!     |i| (i as f64).sqrt(),       // any Fn(u64) -> T + Sync
//!     from_fn(|_i, x: f64| stats.push(x)),
//! );
//! assert_eq!(stats.count(), 1000);
//! assert_eq!(rs.runs, 1000);
//! ```
//!
//! Structured accumulators ([`OnlineStats`], [`P2Quantile`],
//! [`VecCollector`]) and custom [`Collector`] implementations plug in the
//! same way — pass them by `&mut` to keep ownership.

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

pub mod collect;
pub mod progress;

pub use collect::{Collector, OnlineStats, P2Quantile, VecCollector};
pub use progress::{Progress, ProgressSink, StderrProgress};

use progress::ProgressMeter;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Per-worker execution breakdown.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Runs executed by this worker.
    pub runs: u64,
}

/// Scoped monotonic phase timers of one [`Runner::run`]. All three are
/// wall-clock durations measured on the calling thread; `reduction` is
/// cumulative time *inside* the caller's fold/collector code, so
/// `simulation − reduction` approximates how long the reducer merely waited
/// on workers.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseTimes {
    /// Setup: thread count and batch-size choice, before the first run
    /// starts.
    pub construction: Duration,
    /// The execution phase: from first dispatched batch until every batch
    /// is folded (workers joined / inline loop done).
    pub simulation: Duration,
    /// Cumulative time spent replaying batch payloads into the caller's
    /// collector, on this thread (a subset of `simulation`).
    pub reduction: Duration,
}

/// Execution statistics of one [`Runner::run`].
#[derive(Clone, Debug, Default)]
pub struct RunStats {
    /// Total runs executed.
    pub runs: u64,
    /// Worker threads used (1 ⇒ ran inline).
    pub threads: usize,
    /// Runs per batch.
    pub batch: u64,
    /// Number of batches dispatched.
    pub batches: u64,
    /// Always 0: workers claim batches from one cursor and never steal.
    /// Kept only because the benchmark package (`perfbench/`) reads it; the
    /// next change to the benchmark retires it.
    pub steals: u64,
    /// Always 0: no run executes before the workers start. Kept only
    /// because the benchmark package (`perfbench/`) reads it; the next
    /// change to the benchmark retires it.
    pub calibration_runs: u64,
    /// Per-worker breakdown (runs executed).
    pub workers: Vec<WorkerStats>,
    /// High-water occupancy (in batches) of the reducer's reorder buffer.
    pub reorder_peak: u64,
    /// Construction / simulation / reduction phase timers.
    pub phases: PhaseTimes,
    /// Wall-clock duration of the whole call.
    pub elapsed: Duration,
}

impl RunStats {
    /// Overall throughput in runs per second.
    pub fn runs_per_sec(&self) -> f64 {
        self.runs as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }

    /// Compact one-line rendering (for experiment footers and logs).
    pub fn render(&self) -> String {
        format!(
            "{} runs in {:.2?} ({:.0} runs/s) | {} threads, batch {}, {} batches",
            self.runs,
            self.elapsed,
            self.runs_per_sec(),
            self.threads,
            self.batch,
            self.batches
        )
    }

    /// One-line phase breakdown (construction / simulation / reduction,
    /// plus the reorder-buffer high-water).
    pub fn render_phases(&self) -> String {
        let p = &self.phases;
        format!(
            "phases: construction {:.2?} | simulation {:.2?} | reduction {:.2?} | reorder peak {} batches",
            p.construction, p.simulation, p.reduction, self.reorder_peak
        )
    }

    /// Multi-line per-worker breakdown, one `worker i: …` line each (empty
    /// string when no per-worker data was collected).
    pub fn render_workers(&self) -> String {
        self.workers
            .iter()
            .enumerate()
            .map(|(i, w)| format!("worker {i}: {} runs", w.runs))
            .collect::<Vec<_>>()
            .join("\n")
    }
}

/// The ensemble runner. Cheap to build; configuration is plain data and a
/// `Runner` can be reused across calls.
#[derive(Clone, Debug, Default)]
pub struct Runner {
    threads: Option<usize>,
    progress: Option<Progress>,
}

impl Runner {
    /// A runner with defaults: available parallelism, no progress output.
    pub fn new() -> Self {
        Runner::default()
    }

    /// Use `threads` workers. Zero is clamped to one — a directly
    /// constructed "no threads" request still runs (inline).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Enable live progress reporting.
    pub fn with_progress(mut self, progress: Progress) -> Self {
        self.progress = Some(progress);
        self
    }

    fn resolved_threads(&self) -> usize {
        self.threads
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|p| p.get())
                    .unwrap_or(4)
            })
            .max(1)
    }

    /// Execute `job(i)` for every `i ∈ [0, runs)` across the worker pool and
    /// fold the results into `collector` **in index order** (see
    /// [`collect`] for the determinism contract). Returns execution
    /// statistics.
    ///
    /// `job` must be pure up to its index argument: it is called exactly
    /// once per index, on an unspecified thread.
    pub fn run<T, J, C>(&self, runs: u64, job: J, mut collector: C) -> RunStats
    where
        T: Send,
        J: Fn(u64) -> T + Sync,
        C: Collector<Item = T>,
    {
        self.run_batched(
            runs,
            |range| range.map(&job).collect::<Vec<T>>(),
            |start, items| {
                for (off, item) in items.into_iter().enumerate() {
                    collector.collect(start + off as u64, item);
                }
            },
        )
    }

    /// Like [`run`](Self::run), but each worker **pre-folds** its batch into
    /// one partial aggregate `A` before shipping: `zero()` seeds the batch
    /// partial and `fold(&mut a, i, job(i))` absorbs each run, on the worker
    /// thread. The reducer then hands the partials to `collector` in index
    /// order (one `collect(start, partial)` per batch, `start` the batch's
    /// first run index, batch boundaries unspecified).
    ///
    /// This moves reduction work off the fold thread and shrinks channel
    /// traffic and the reorder buffer from O(batch) items to one partial per
    /// batch — the pipelined path for million-run streaming sweeps.
    ///
    /// **Determinism contract**: aggregates stay bit-identical across thread
    /// counts iff merging per-batch partials in index order is insensitive
    /// to where the batch boundaries fall. Integer sums, counts, minima and
    /// maxima qualify; floating-point accumulations do **not** — keep the
    /// raw observations (or integer encodings) in the partial and replay
    /// them in the collector, where fold order is total again.
    pub fn run_folded<T, A, J, Z, F, C>(
        &self,
        runs: u64,
        job: J,
        zero: Z,
        fold: F,
        mut collector: C,
    ) -> RunStats
    where
        A: Send,
        J: Fn(u64) -> T + Sync,
        Z: Fn() -> A + Sync,
        F: Fn(&mut A, u64, T) + Sync,
        C: Collector<Item = A>,
    {
        self.run_batched(
            runs,
            |range| {
                let mut a = zero();
                for i in range {
                    fold(&mut a, i, job(i));
                }
                a
            },
            |start, partial| collector.collect(start, partial),
        )
    }

    /// The batch-granular core behind [`run`](Self::run) and
    /// [`run_folded`](Self::run_folded): workers claim batches of
    /// `max(1, runs / (8·threads))` indices from one shared cursor and turn
    /// each index range into one shipped payload `R` via `make_batch`;
    /// `fold_batch` replays the payloads on this thread in ascending range
    /// order.
    #[expect(
        clippy::disallowed_methods,
        reason = "phase timers: wall-clock goes to RunStats and the exec sidecar only"
    )]
    fn run_batched<R, MB, FB>(&self, runs: u64, make_batch: MB, mut fold_batch: FB) -> RunStats
    where
        R: Send,
        MB: Fn(std::ops::Range<u64>) -> R + Sync,
        FB: FnMut(u64, R),
    {
        let started = Instant::now();
        let mut stats = RunStats {
            runs,
            threads: 1,
            ..RunStats::default()
        };
        if runs == 0 {
            stats.elapsed = started.elapsed();
            self.report_done(&stats);
            return stats;
        }
        let mut meter = self.progress.clone().map(ProgressMeter::new);
        let mut reduction = Duration::ZERO;
        let threads = self
            .resolved_threads()
            .min(usize::try_from(runs).unwrap_or(usize::MAX));
        let batch = (runs / (8 * threads as u64)).max(1);
        stats.threads = threads;
        stats.batch = batch;
        stats.batches = runs.div_ceil(batch);

        if threads == 1 {
            // Inline fast path: no workers, no channel, same fold order.
            stats.phases.construction = started.elapsed();
            let sim_t0 = Instant::now();
            let mut i = 0;
            while i < runs {
                let end = runs.min(i + batch);
                let payload = make_batch(i..end);
                let fold_t0 = Instant::now();
                fold_batch(i, payload);
                reduction += fold_t0.elapsed();
                i = end;
                if let Some(m) = meter.as_mut() {
                    m.tick(i, runs);
                }
            }
            stats.workers = vec![WorkerStats { runs }];
            stats.phases.simulation = sim_t0.elapsed();
            stats.phases.reduction = reduction;
            stats.elapsed = started.elapsed();
            self.report_done(&stats);
            return stats;
        }

        stats.phases.construction = started.elapsed();
        let sim_t0 = Instant::now();
        let mut reorder_peak = 0u64;
        // Batch `j` covers `j·batch .. min(runs, (j+1)·batch)`, and each
        // worker claims the lowest unclaimed `j`: batches start in index
        // order, so the reorder buffer only holds batches that overtook a
        // slower one still running.
        let cursor = AtomicU64::new(0);
        let worker_runs: Vec<AtomicU64> = (0..threads).map(|_| AtomicU64::new(0)).collect();
        let (tx, rx) = mpsc::channel::<(u64, u64, R)>();

        std::thread::scope(|scope| {
            for my_runs in &worker_runs {
                let tx = tx.clone();
                let (cursor, make_batch) = (&cursor, &make_batch);
                scope.spawn(move || loop {
                    let start = cursor.fetch_add(1, Ordering::Relaxed).saturating_mul(batch);
                    if start >= runs {
                        return;
                    }
                    let count = batch.min(runs - start);
                    let payload = make_batch(start..start + count);
                    my_runs.fetch_add(count, Ordering::Relaxed);
                    if tx.send((start, count, payload)).is_err() {
                        return; // reducer gone (panic unwinding)
                    }
                });
            }
            drop(tx);
            // Owned by this closure: if the collector (caller code, run
            // here) panics, the unwind drops the receiver before the scope
            // joins, so each worker stops at its next send. A panicking
            // worker drops its sender; the others drain the cursor and exit,
            // the channel disconnects, and the scope re-raises the panic.
            let rx = rx;

            // Reduce on this thread: replay batch payloads in index order.
            let mut pending: BTreeMap<u64, (u64, R)> = BTreeMap::new();
            let mut expected = 0;
            while expected < runs {
                match rx.recv_timeout(Duration::from_millis(50)) {
                    Ok((start, count, payload)) => {
                        pending.insert(start, (count, payload));
                        reorder_peak = reorder_peak.max(pending.len() as u64);
                        let fold_t0 = Instant::now();
                        while let Some((count, payload)) = pending.remove(&expected) {
                            fold_batch(expected, payload);
                            expected += count;
                        }
                        reduction += fold_t0.elapsed();
                    }
                    Err(mpsc::RecvTimeoutError::Timeout) => {}
                    Err(mpsc::RecvTimeoutError::Disconnected) => break,
                }
                if let Some(m) = meter.as_mut() {
                    let done = worker_runs.iter().map(|r| r.load(Ordering::Relaxed)).sum();
                    m.tick(done, runs);
                }
            }
        });

        stats.phases.simulation = sim_t0.elapsed();
        stats.phases.reduction = reduction;
        stats.reorder_peak = reorder_peak;
        stats.workers = worker_runs
            .into_iter()
            .map(|runs| WorkerStats {
                runs: runs.into_inner(),
            })
            .collect();
        stats.elapsed = started.elapsed();
        self.report_done(&stats);
        stats
    }

    /// Final progress lines for runs with progress enabled. The first line
    /// is the guaranteed 100 % meter line (sweeps faster than the meter's
    /// `every` interval never tick the throttled meter, so completion is
    /// reported here unconditionally); then the [`RunStats::render`]
    /// summary, the phase timers, and the per-worker breakdown.
    fn report_done(&self, stats: &RunStats) {
        if let Some(p) = &self.progress {
            p.emit(&format!(
                "[{}] {}/{} runs (100.0%) | {:.0} runs/s",
                p.label,
                stats.runs,
                stats.runs,
                stats.runs_per_sec()
            ));
            p.emit(&format!("[{}] {}", p.label, stats.render_phases()));
            for line in stats.render_workers().lines() {
                p.emit(&format!("[{}] {line}", p.label));
            }
            p.emit(&format!("[{}] done: {}", p.label, stats.render()));
        }
    }

    /// Convenience: run `job` over `[0, runs)` and return the results as a
    /// `Vec` in index order.
    pub fn map<T, J>(&self, runs: u64, job: J) -> (Vec<T>, RunStats)
    where
        T: Send,
        J: Fn(u64) -> T + Sync,
    {
        let mut out = VecCollector::with_capacity(usize::try_from(runs).unwrap_or(0));
        let stats = self.run(runs, job, &mut out);
        (out.items, stats)
    }
}
