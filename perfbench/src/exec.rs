//! Running one cell: the end-to-end path (`run_ensemble_stream`, or the
//! runner directly for full-resolution cells, which `EnsembleSpec` cannot
//! express), and the instrumented path of the traced run, which times each
//! call into `core` and `mac_sim` from inside the job and the digest fold
//! around it.

use crate::workloads::{Cell, Stop};
use mac_sim::metrics::{EnergyStats, OutcomeDigest};
use mac_sim::{EngineMode, FaultCounts, Simulator};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};
use wakeup_analysis::ensemble::EnsembleSummary;
use wakeup_analysis::{run_ensemble_stream, run_ensemble_stream_cached, TraceSpec, WorkStats};
use wakeup_core::ConstructionCache;
use wakeup_runner::collect::from_fn;
use wakeup_runner::{OnlineStats, P2Quantile, RunStats, Runner};

/// A cell's outcome aggregate: what the committed reference pins. Work
/// counters (polls, skips, dense/word slots, units) are left out because an
/// engine change may legitimately move them; so are false collisions, which
/// depend on the engine path.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Agg {
    pub runs: u64,
    pub solved: u64,
    pub mean_bits: u64,
    pub max_bits: u64,
    pub worst: u64,
    pub slots: u64,
    pub transmissions: u64,
    pub collisions: u64,
    pub max_station_tx: u64,
    pub faults: FaultCounts,
    /// Full-resolution cells: runs that resolved everyone, and the sum of
    /// their full-resolution latencies.
    pub all_resolved: Option<(u64, u64)>,
}

impl Agg {
    fn from_summary(s: &EnsembleSummary) -> Agg {
        Agg {
            runs: s.runs,
            solved: s.solved,
            mean_bits: s.mean().to_bits(),
            max_bits: s.max().to_bits(),
            worst: s.worst,
            slots: s.work.slots,
            transmissions: s.energy.total_transmissions,
            collisions: s.energy.total_collisions,
            max_station_tx: s.energy.max_per_station,
            faults: s.faults,
            all_resolved: None,
        }
    }

    /// The canonical one-line form stored in the reference files.
    pub fn line(&self) -> String {
        let f = &self.faults;
        let mut s = format!(
            "runs={} solved={} mean={:016x} max={:016x} worst={} slots={} tx={} coll={} \
             maxtx={} erased={} captured={} crashed={} rewoken={}",
            self.runs,
            self.solved,
            self.mean_bits,
            self.max_bits,
            self.worst,
            self.slots,
            self.transmissions,
            self.collisions,
            self.max_station_tx,
            f.erasures,
            f.captures,
            f.churn_crashes,
            f.churn_rewakes
        );
        if let Some((c, sum)) = self.all_resolved {
            s.push_str(&format!(" resolved={c} resolved_sum={sum}"));
        }
        s
    }
}

/// Busy time of the layers called from inside the job, summed over runs
/// (thread-seconds: the two workers overlap).
#[derive(Clone, Debug, Default)]
pub struct JobTimes {
    pub construct: Duration,
    pub engine: Duration,
    pub digest: Duration,
    /// The digest fold outside the job: each run's worker-side pre-fold and
    /// each batch's seed-ordered merge into the summary.
    pub fold: Duration,
    /// Whole job closures, including pattern hand-over and drops.
    pub busy: Duration,
    /// Job time of the runner's inline calibration runs.
    pub calibration_busy: Duration,
    /// Per-run engine time, microseconds.
    pub run_us: Vec<f64>,
}

impl JobTimes {
    pub fn merge(&mut self, o: JobTimes) {
        self.construct += o.construct;
        self.engine += o.engine;
        self.digest += o.digest;
        self.fold += o.fold;
        self.busy += o.busy;
        self.calibration_busy += o.calibration_busy;
        self.run_us.extend(o.run_us);
    }
}

/// Everything one execution of a cell reports.
#[derive(Debug)]
pub struct CellRun {
    /// The cell's summary, folded as `run_ensemble_stream` folds it; its
    /// `exec` holds the runner's `RunStats`.
    pub summary: EnsembleSummary,
    /// `None` when a run errored (the cell then counts as failed).
    pub agg: Option<Agg>,
    pub times: JobTimes,
    /// Wall-clock of the runner call, on the calling thread.
    pub wall: Duration,
}

/// The runner's inline calibration covers this many leading runs (the
/// runner's `CALIBRATION_RUNS`; only used to split job time for reporting).
const CALIBRATION_RUNS: u64 = 4;

/// One run's result as the job hands it to the fold.
struct JobOut {
    digest: Result<(OutcomeDigest, Option<u64>), ()>,
    construct: Duration,
    engine: Duration,
    digest_t: Duration,
    busy: Duration,
}

/// Worker-side pre-fold of a batch: the fields `run_ensemble_stream`
/// pre-folds, plus errors, full-resolution totals and layer times.
#[derive(Default)]
struct Partial {
    errors: u64,
    runs: u64,
    solved: u64,
    worst: u64,
    energy: EnergyStats,
    work: WorkStats,
    faults: FaultCounts,
    solved_latencies: Vec<u64>,
    /// Runs that resolved everyone, and the sum of those latencies.
    all_resolved: (u64, u64),
    times: JobTimes,
}

impl Partial {
    fn absorb(&mut self, i: u64, j: JobOut) {
        let t0 = Instant::now();
        match j.digest {
            Err(()) => self.errors += 1,
            Ok((d, full)) => {
                self.runs += 1;
                if let Some(l) = d.sample.solved() {
                    self.solved += 1;
                    self.solved_latencies.push(l);
                }
                self.worst = self.worst.max(d.sample.pessimistic());
                self.energy.absorb_digest(&d);
                self.work.absorb_digest(&d);
                self.faults.merge(&d.faults);
                if let Some(l) = full {
                    self.all_resolved.0 += 1;
                    self.all_resolved.1 += l;
                }
            }
        }
        let t = &mut self.times;
        t.fold += t0.elapsed();
        t.construct += j.construct;
        t.engine += j.engine;
        t.digest += j.digest_t;
        t.busy += j.busy;
        if i < CALIBRATION_RUNS {
            t.calibration_busy += j.busy;
        }
        t.run_us.push(j.engine.as_secs_f64() * 1e6);
    }

    /// Merge into `s` in seed order, as `EnsembleSummary` merges a stream
    /// partial: integer aggregates associatively, solved latencies replayed
    /// into the running statistics and the three quantile sketches.
    fn merge_into(self, s: &mut EnsembleSummary) {
        s.runs += self.runs;
        s.solved += self.solved;
        s.worst = s.worst.max(self.worst);
        s.energy.merge(&self.energy);
        s.work.merge(&self.work);
        s.faults.merge(&self.faults);
        for l in self.solved_latencies {
            let l = l as f64;
            s.latency.push(l);
            s.sketch_p50.push(l);
            s.sketch_p90.push(l);
            s.sketch_p99.push(l);
        }
    }
}

fn empty_summary() -> EnsembleSummary {
    EnsembleSummary {
        runs: 0,
        solved: 0,
        latency: OnlineStats::new(),
        sketch_p50: P2Quantile::new(0.5),
        sketch_p90: P2Quantile::new(0.9),
        sketch_p99: P2Quantile::new(0.99),
        worst: 0,
        energy: EnergyStats::new(),
        work: WorkStats::default(),
        faults: FaultCounts::default(),
        exec: RunStats::default(),
    }
}

fn elapsed_since(t: &mut Instant) -> Duration {
    let now = Instant::now();
    let d = now - *t;
    *t = now;
    d
}

/// Run a cell on the work-stealing runner with a job written here, so the
/// time of each layer call can be taken inside the job; the digests fold
/// into an `EnsembleSummary` as `run_ensemble_stream` folds them. The clock
/// readings cost well under a microsecond per run; the end-to-end path uses
/// this only for full-resolution cells, whose runs take far longer.
pub fn run_direct(
    cell: &Cell,
    cache: &ConstructionCache,
    engine: EngineMode,
    threads: usize,
) -> CellRun {
    let sim = Simulator::new(cell.sim_config(engine));
    let all = cell.stop == Stop::AllResolved;
    let job = |i: u64| {
        let seed = cell.base_seed.wrapping_add(i);
        let start = Instant::now();
        let mut t = start;
        let protocol = cell.protocol(cache, i, seed);
        let construct = elapsed_since(&mut t);
        let pattern = cell.pattern(i);
        elapsed_since(&mut t);
        let out = sim.run(protocol.as_ref(), &pattern, seed);
        let engine = elapsed_since(&mut t);
        let digest = out
            .as_ref()
            .map(|o| {
                let full = if all {
                    o.full_resolution_latency()
                } else {
                    None
                };
                (OutcomeDigest::of(o), full)
            })
            .map_err(|_| ());
        let digest_t = elapsed_since(&mut t);
        drop((out, pattern, protocol));
        let busy = start.elapsed();
        JobOut {
            digest,
            construct,
            engine,
            digest_t,
            busy,
        }
    };
    let mut summary = empty_summary();
    let mut errors = 0u64;
    let mut resolved = (0u64, 0u64);
    let mut times = JobTimes::default();
    let t0 = Instant::now();
    let stats = Runner::new().with_threads(threads).run_folded(
        cell.runs(),
        job,
        Partial::default,
        |p: &mut Partial, i, j| p.absorb(i, j),
        from_fn(|_start, mut p: Partial| {
            let t = Instant::now();
            errors += p.errors;
            resolved.0 += p.all_resolved.0;
            resolved.1 += p.all_resolved.1;
            times.merge(std::mem::take(&mut p.times));
            p.merge_into(&mut summary);
            times.fold += t.elapsed();
        }),
    );
    let wall = t0.elapsed();
    summary.exec = stats;
    let agg = (errors == 0).then(|| Agg {
        all_resolved: all.then_some(resolved),
        ..Agg::from_summary(&summary)
    });
    CellRun {
        summary,
        agg,
        times,
        wall,
    }
}

/// The end-to-end path: first-success cells go through `EnsembleSpec` +
/// `run_ensemble_stream` (cached when the cell shares the workload cache),
/// as every registry experiment does; full-resolution cells through the
/// runner directly, as the full-resolution experiment does (they ignore
/// `trace`). `None` when a run errored.
pub fn run_e2e(
    cell: &Cell,
    cache: &ConstructionCache,
    threads: usize,
    trace: Option<TraceSpec>,
) -> Option<(Agg, u64)> {
    catch_unwind(AssertUnwindSafe(|| {
        if cell.stop == Stop::AllResolved {
            let r = run_direct(cell, cache, EngineMode::Auto, threads);
            return r.agg.map(|a| (a, r.summary.work.slots));
        }
        let mut spec = cell.spec(threads);
        if let Some(t) = trace {
            spec = spec.with_trace(t);
        }
        let pattern_for = |seed: u64| cell.pattern(seed.wrapping_sub(cell.base_seed));
        let summary = if cell.cached {
            run_ensemble_stream_cached(
                &spec,
                cache,
                |cache, seed| cell.protocol(cache, seed.wrapping_sub(cell.base_seed), seed),
                pattern_for,
            )
        } else {
            let none = ConstructionCache::new();
            run_ensemble_stream(
                &spec,
                |seed| cell.protocol(&none, seed.wrapping_sub(cell.base_seed), seed),
                pattern_for,
            )
        };
        Some((Agg::from_summary(&summary), summary.work.slots))
    }))
    .ok()
    .flatten()
}
