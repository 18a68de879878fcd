//! # wakeup-runner — work-stealing ensemble execution with deterministic
//! streaming aggregation
//!
//! The sparse simulation engine made single protocol runs cheap enough that
//! *scheduling*, not simulation, dominates ensemble wall-clock: static
//! chunk-per-thread scheduling strands whole chunks of expensive runs on one
//! thread while the others idle. This crate replaces it with a small,
//! dependency-free execution subsystem:
//!
//! * **Sharded job queue** ([`queue`]): run indices `[0, runs)` are split
//!   into contiguous *batches*; each worker drains its own deque
//!   front-to-back and steals from the back of the fullest shard when dry.
//!   Batch size is auto-tuned by a short calibration pass so that dispatch
//!   and channel traffic amortize even when one sparse run costs
//!   microseconds.
//! * **Deterministic streaming reduction** ([`collect`]): workers ship
//!   completed batches to the caller's thread, where a reorder buffer
//!   replays them into a [`Collector`] **strictly in run-index order**.
//!   Output is therefore bit-identical across thread counts and steal
//!   interleavings — including floating-point folds. An admission window
//!   (workers pause before executing batches more than `32·threads`
//!   batches past the fold frontier) hard-bounds the reorder buffer, so
//!   memory stays O(threads·batch) even when one slow batch stalls the
//!   frontier — never O(runs).
//! * **Throughput reporting** ([`progress`]): optional live `runs/s` lines
//!   for long sweeps, delivered through a pluggable [`ProgressSink`]
//!   (stderr by default — experiment drivers route them through their
//!   output sink), plus a [`RunStats`] summary (elapsed, batches, steals,
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

pub mod collect;
pub mod progress;
pub mod queue;

pub use collect::{Collector, OnlineStats, P2Quantile, VecCollector};
pub use progress::{Progress, ProgressSink, StderrProgress};
pub use queue::{Placement, WorkerQueueStats};

use progress::ProgressMeter;
use queue::BatchQueue;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// How batch sizes are chosen.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BatchSize {
    /// Time a few leading runs inline, then size batches to roughly the
    /// given wall-clock target each (the default, 2 ms). Cheap sparse runs
    /// get large batches; expensive runs get small ones.
    Auto(Duration),
    /// A fixed number of runs per batch (clamped to ≥ 1). `Fixed(1)`
    /// maximizes steal interleavings — useful in scheduling tests.
    Fixed(u64),
}

impl Default for BatchSize {
    fn default() -> Self {
        BatchSize::Auto(Duration::from_millis(2))
    }
}

/// Leading runs executed inline to calibrate [`BatchSize::Auto`].
const CALIBRATION_RUNS: u64 = 4;

/// Per-worker execution breakdown: runs executed plus the worker's
/// scheduling counters from the sharded queue.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Runs executed by this worker in the parallel phase.
    pub runs: u64,
    /// Successful steals performed by this worker.
    pub steals: u64,
    /// Steal scans that found nothing to take.
    pub fail_scans: u64,
    /// High-water batch depth of this worker's own shard.
    pub queue_depth_hw: u64,
}

/// Scoped monotonic phase timers of one [`Runner::run`]. All four are
/// wall-clock durations measured on the calling thread; `reduction` is
/// cumulative time *inside* the caller's fold/collector code, so
/// `simulation − reduction` approximates how long the reducer merely waited
/// on workers.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseTimes {
    /// Setup: batch-size choice and queue construction, before the
    /// parallel phase starts — excluding `calibration`.
    pub construction: Duration,
    /// The inline calibration loop of [`BatchSize::Auto`]: its runs are real
    /// simulations (and folds), executed before the parallel phase.
    pub calibration: Duration,
    /// The execution phase: from first dispatched batch until every batch
    /// is folded (workers joined / inline loop done).
    pub simulation: Duration,
    /// Cumulative time spent replaying batch payloads into the caller's
    /// collector, on this thread (a subset of `calibration + simulation`).
    pub reduction: Duration,
}

/// Execution statistics of one [`Runner::run`].
#[derive(Clone, Debug, Default)]
pub struct RunStats {
    /// Total runs executed (calibration included).
    pub runs: u64,
    /// Worker threads used for the parallel phase (1 ⇒ ran inline).
    pub threads: usize,
    /// Batch size used for the parallel phase.
    pub batch: u64,
    /// Number of batches dispatched (excluding calibration).
    pub batches: u64,
    /// Number of successful steals.
    pub steals: u64,
    /// Runs executed inline for batch-size calibration.
    pub calibration_runs: u64,
    /// Runs executed by each worker in the parallel phase.
    pub worker_runs: Vec<u64>,
    /// Per-worker breakdown (runs, steals, fail scans, queue depth
    /// high-water); aligned with `worker_runs`.
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
            "{} runs in {:.2?} ({:.0} runs/s) | {} threads, batch {}, {} batches, {} steals",
            self.runs,
            self.elapsed,
            self.runs_per_sec(),
            self.threads,
            self.batch,
            self.batches,
            self.steals
        )
    }

    /// One-line phase breakdown (construction / calibration / simulation /
    /// reduction, plus the reorder-buffer high-water).
    pub fn render_phases(&self) -> String {
        let p = &self.phases;
        format!(
            "phases: construction {:.2?} | calibration {:.2?} | simulation {:.2?} | reduction {:.2?} | reorder peak {} batches",
            p.construction, p.calibration, p.simulation, p.reduction, self.reorder_peak
        )
    }

    /// Multi-line per-worker breakdown, one `worker i: …` line each (empty
    /// string when no per-worker data was collected).
    pub fn render_workers(&self) -> String {
        self.workers
            .iter()
            .enumerate()
            .map(|(i, w)| {
                format!(
                    "worker {i}: {} runs, {} steals, {} fail-scans, depth hw {}",
                    w.runs, w.steals, w.fail_scans, w.queue_depth_hw
                )
            })
            .collect::<Vec<_>>()
            .join("\n")
    }
}

/// The work-stealing ensemble runner. Cheap to build; configuration is
/// plain data and a `Runner` can be reused across calls.
#[derive(Clone, Debug, Default)]
pub struct Runner {
    threads: Option<usize>,
    batch: BatchSize,
    placement: Placement,
    progress: Option<Progress>,
}

impl Runner {
    /// A runner with defaults: available parallelism, auto-tuned batches,
    /// interleaved placement, no progress output.
    pub fn new() -> Self {
        Runner::default()
    }

    /// Use `threads` workers. Zero is clamped to one — a directly
    /// constructed "no threads" request still runs (inline).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Choose the batch-size policy.
    pub fn with_batch(mut self, batch: BatchSize) -> Self {
        self.batch = batch;
        self
    }

    /// Choose the initial batch placement ([`Placement::Packed`] forces
    /// every non-zero worker to steal — a scheduling stress mode).
    pub fn with_placement(mut self, placement: Placement) -> Self {
        self.placement = placement;
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
    /// [`run_folded`](Self::run_folded): workers turn whole index ranges
    /// into one shipped payload `R` via `make_batch`, and `fold_batch`
    /// replays the payloads on this thread in ascending range order.
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

        // Calibration / batch-size choice. Calibration runs are real runs:
        // they execute indices 0.. inline (one single-run batch each, so
        // per-run cost is observable) and fold first — order is unaffected.
        let mut next = 0u64;
        let batch = match self.batch {
            BatchSize::Fixed(b) => b.max(1),
            BatchSize::Auto(target) => {
                let calib = CALIBRATION_RUNS.min(runs);
                let t0 = Instant::now();
                while next < calib {
                    let payload = make_batch(next..next + 1);
                    let fold_t0 = Instant::now();
                    fold_batch(next, payload);
                    reduction += fold_t0.elapsed();
                    next += 1;
                    // Small ensembles of expensive runs live entirely in
                    // this loop — keep reporting.
                    if let Some(m) = meter.as_mut() {
                        m.tick(next, runs, 0);
                    }
                }
                stats.calibration_runs = calib;
                stats.phases.calibration = t0.elapsed();
                let per_run =
                    (stats.phases.calibration.as_nanos() / u128::from(calib.max(1))).max(1);
                let by_time = (target.as_nanos() / per_run).clamp(1, u64::MAX as u128) as u64;
                // Keep enough batches around for stealing to balance load:
                // at least ~8 per worker when the workload allows it.
                let threads = self.resolved_threads() as u64;
                let for_balance = ((runs - next) / (threads * 8)).max(1);
                by_time.min(for_balance)
            }
        };
        stats.batch = batch;

        let remaining = next..runs;
        let threads = self
            .resolved_threads()
            .min(usize::try_from(remaining.end - remaining.start).unwrap_or(usize::MAX))
            .max(1);
        stats.threads = threads;

        if threads == 1 {
            // Inline fast path: no workers, no channel, same fold order.
            stats.phases.construction = started.elapsed().saturating_sub(stats.phases.calibration);
            let sim_t0 = Instant::now();
            let mut i = remaining.start;
            while i < remaining.end {
                let end = remaining.end.min(i + batch);
                let payload = make_batch(i..end);
                let fold_t0 = Instant::now();
                fold_batch(i, payload);
                reduction += fold_t0.elapsed();
                i = end;
                if let Some(m) = meter.as_mut() {
                    m.tick(i, runs, 0);
                }
            }
            stats.batches = runs.saturating_sub(next).div_ceil(batch);
            stats.worker_runs = vec![runs - next];
            stats.workers = vec![WorkerStats {
                runs: runs - next,
                ..WorkerStats::default()
            }];
            stats.phases.simulation = sim_t0.elapsed();
            stats.phases.reduction = reduction;
            stats.elapsed = started.elapsed();
            self.report_done(&stats);
            return stats;
        }

        let queue = BatchQueue::new(remaining.clone(), batch, threads, self.placement);
        stats.batches = (remaining.end - remaining.start).div_ceil(batch);
        stats.phases.construction = started.elapsed().saturating_sub(stats.phases.calibration);
        let sim_t0 = Instant::now();
        let mut reorder_peak = 0u64;
        let done = AtomicU64::new(next);
        let worker_runs: Vec<AtomicU64> = (0..threads).map(|_| AtomicU64::new(0)).collect();
        let (tx, rx) = mpsc::channel::<(u64, u64, R)>();

        // Admission window: workers may not *execute* a batch starting more
        // than `window` indices past the reducer's fold frontier. This is
        // the hard memory bound on the reorder buffer — without it, one
        // pathologically slow batch would stall the frontier while every
        // other worker drains the whole range into `pending` (O(runs)
        // digests). Deadlock-free: a parked worker holds a batch beyond the
        // window, so every batch at or below the window is either running
        // on some worker, queued in a shard whose owner will reach it
        // front-to-back, or already folded — the frontier therefore keeps
        // advancing and wakes the parked workers.
        let frontier = AtomicU64::new(next);
        let window = batch.saturating_mul(32 * threads as u64);
        // Set when any worker unwinds: a dead worker's batch never folds,
        // so the frontier would freeze and parked workers would sleep
        // forever waiting on it. The flag lets them bail out instead; the
        // scope then re-raises the original panic.
        let poisoned = AtomicBool::new(false);

        /// Sets the flag from `Drop` iff the thread is unwinding.
        struct PanicFlag<'a>(&'a AtomicBool);
        impl Drop for PanicFlag<'_> {
            fn drop(&mut self) {
                if std::thread::panicking() {
                    self.0.store(true, Ordering::Release);
                }
            }
        }

        std::thread::scope(|scope| {
            for (me, my_runs) in worker_runs.iter().enumerate() {
                let tx = tx.clone();
                let queue = &queue;
                let make_batch = &make_batch;
                let done = &done;
                let frontier = &frontier;
                let poisoned = &poisoned;
                scope.spawn(move || {
                    let _flag = PanicFlag(poisoned);
                    while let Some(range) = queue.pop(me) {
                        while range.start > frontier.load(Ordering::Acquire).saturating_add(window)
                        {
                            if poisoned.load(Ordering::Acquire) {
                                return;
                            }
                            std::thread::sleep(Duration::from_millis(1));
                        }
                        let start = range.start;
                        let count = range.end - range.start;
                        let payload = make_batch(range);
                        done.fetch_add(count, Ordering::Relaxed);
                        my_runs.fetch_add(count, Ordering::Relaxed);
                        if tx.send((start, count, payload)).is_err() {
                            return; // reducer gone (panic unwinding)
                        }
                    }
                });
            }
            drop(tx);

            // The reducer can panic too (the collector is caller code, and
            // it runs here). Parked workers watch `poisoned`, so the same
            // guard must cover this thread's unwind — otherwise the scope
            // would block forever joining a worker parked on a frontier
            // that can no longer advance.
            let _reducer_flag = PanicFlag(&poisoned);

            // Reduce on this thread: replay batch payloads in index order.
            let mut pending: BTreeMap<u64, (u64, R)> = BTreeMap::new();
            let mut expected = next;
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
                        frontier.store(expected, Ordering::Release);
                    }
                    Err(mpsc::RecvTimeoutError::Timeout) => {}
                    Err(mpsc::RecvTimeoutError::Disconnected) => break,
                }
                if let Some(m) = meter.as_mut() {
                    m.tick(done.load(Ordering::Relaxed), runs, queue.steals());
                }
            }
        });

        stats.phases.simulation = sim_t0.elapsed();
        stats.phases.reduction = reduction;
        stats.reorder_peak = reorder_peak;
        stats.steals = queue.steals();
        stats.worker_runs = worker_runs.into_iter().map(|c| c.into_inner()).collect();
        stats.workers = queue
            .worker_stats()
            .into_iter()
            .zip(stats.worker_runs.iter())
            .map(|(q, &runs)| WorkerStats {
                runs,
                steals: q.steals,
                fail_scans: q.fail_scans,
                queue_depth_hw: q.queue_depth_hw,
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
                "[{}] {}/{} runs (100.0%) | {:.0} runs/s | {} steals",
                p.label,
                stats.runs,
                stats.runs,
                stats.runs_per_sec(),
                stats.steals
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
