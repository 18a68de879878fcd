//! Multi-seed, multi-threaded experiment ensembles.
//!
//! An ensemble pairs a *protocol factory* with a *pattern generator*, both
//! keyed by a run seed, and executes `runs` independent simulations. Since
//! the sparse engine made single runs cheap, scheduling is the bottleneck,
//! so execution rides on [`wakeup_runner`]'s work-stealing pool: short runs
//! are batched per worker (batch size auto-calibrated), idle workers steal,
//! and per-run results are folded **in seed order** on the caller's thread —
//! so every aggregate is bit-identical across thread counts.
//!
//! Two aggregation styles:
//!
//! * [`run_ensemble`] — materializes one [`LatencySample`] per run
//!   ([`EnsembleResult`]), for experiments that post-process samples;
//! * [`run_ensemble_stream`] — streaming accumulators only
//!   ([`EnsembleSummary`]: Welford stats, P² quantile sketches, energy and
//!   work counters), so million-run sweeps never hold per-run results —
//!   transient memory is the reorder buffer, O(threads·batch) digests.
//!
//! [`run_ensemble_chunked`] preserves the pre-runner chunk-per-thread
//! scheduling as a reference: tests pin the runner's output to it
//! bit-for-bit and the `runner_throughput` bench measures the speedup
//! against it.
//!
//! Factories are indexed rather than shared so that deterministic protocols
//! can vary their combinatorial seed per run (a fixed deterministic protocol
//! on a fixed pattern would measure the same run `R` times).

use mac_sim::metrics::{EnergyStats, LatencySample, OutcomeDigest};
use mac_sim::tracer::{RecordingTracer, TraceFilter};
use mac_sim::{
    ChannelModel, ChurnScript, EngineMode, FaultCounts, FeedbackModel, PopulationMode, Protocol,
    SimConfig, Simulator, WakePattern,
};
use std::fmt;
use std::io::Write;
use std::sync::{Arc, Mutex};
use std::time::Duration;
use wakeup_core::ConstructionCache;
use wakeup_runner::collect::from_fn;
use wakeup_runner::{OnlineStats, P2Quantile, Progress, RunStats, Runner};

/// Structured-trace capture for an ensemble: which events to keep and
/// where the JSONL lines go.
///
/// Each run records its admitted events into a private in-memory buffer on
/// the worker that executes it; the serialized lines (the run index, then
/// [`TraceEvent::json_fields`](mac_sim::tracer::TraceEvent::json_fields):
/// `{"run":3,"ev":…}`) are then written to `sink` by the seed-ordered
/// reducer on the calling thread. The resulting byte stream is therefore
/// **bit-identical across thread counts**: scheduling decides only who
/// records, never the order lines land.
///
/// Per-kind sampling (see [`TraceFilter::sample_every`]) restarts at every
/// run, so the stream is the concatenation of the runs' individual
/// streams regardless of batching.
#[derive(Clone)]
pub struct TraceSpec {
    /// Event admission mask and per-kind sampling stride.
    pub filter: TraceFilter,
    /// Shared line sink (a file, a `Vec<u8>`, …). Locked only by the
    /// reducer, once per batch.
    pub sink: Arc<Mutex<dyn Write + Send>>,
    /// Optional sidecar for **non-deterministic** execution records (one
    /// `{"record":"ensemble",…}` line per ensemble plus one
    /// `{"record":"worker",…}` line per worker: wall-clock phase timers,
    /// steals, queue high-waters). Segregated from `sink` so the trace
    /// stream itself stays diffable across machines and thread counts.
    pub exec: Option<Arc<Mutex<dyn Write + Send>>>,
    /// Ensemble ordinal shared across clones — tags exec records when one
    /// sidecar collects several ensembles (a whole experiment sweep).
    seq: Arc<std::sync::atomic::AtomicU64>,
}

impl TraceSpec {
    /// Trace into an existing shared sink.
    pub fn new(filter: TraceFilter, sink: Arc<Mutex<dyn Write + Send>>) -> Self {
        TraceSpec {
            filter,
            sink,
            exec: None,
            seq: Arc::new(std::sync::atomic::AtomicU64::new(0)),
        }
    }

    /// Trace into a newly-wrapped writer.
    pub fn to_writer<W: Write + Send + 'static>(filter: TraceFilter, out: W) -> Self {
        Self::new(filter, Arc::new(Mutex::new(out)))
    }

    /// Also write per-ensemble execution records (wall-clock tier) to a
    /// separate sidecar sink.
    pub fn with_exec_sink(mut self, exec: Arc<Mutex<dyn Write + Send>>) -> Self {
        self.exec = Some(exec);
        self
    }
}

impl fmt::Debug for TraceSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TraceSpec")
            .field("filter", &self.filter)
            .field("sink", &"<dyn Write>")
            .field("exec", &self.exec.as_ref().map(|_| "<dyn Write>"))
            .finish()
    }
}

/// Parameters of an ensemble run.
#[derive(Clone, Debug)]
pub struct EnsembleSpec {
    /// Universe size.
    pub n: u32,
    /// Number of independent runs.
    pub runs: u64,
    /// Slot cap per run (`None`: the simulator default for `n`).
    pub max_slots: Option<u64>,
    /// Channel feedback model.
    pub feedback: FeedbackModel,
    /// Channel fault model (default [`ChannelModel::ideal`] — no faults,
    /// bit-identical to a spec built before fault injection existed).
    pub channel: ChannelModel,
    /// Station churn script (default [`ChurnScript::none`]).
    pub churn: ChurnScript,
    /// Base seed; run `i` uses seed `base_seed.wrapping_add(i)` (wrapping,
    /// so a base seed near `u64::MAX` is valid and cannot overflow).
    pub base_seed: u64,
    /// Worker threads (default: available parallelism). Zero is treated as
    /// one — the run path clamps, not just [`with_threads`](Self::with_threads).
    pub threads: usize,
    /// Engine path ([`EngineMode::Auto`] skips silent slots when the
    /// protocol allows; [`EngineMode::Dense`] forces per-slot polling, e.g.
    /// for speedup measurements).
    pub engine: EngineMode,
    /// Station representation ([`PopulationMode::Concrete`] boxes one
    /// station per id; [`PopulationMode::Classes`] aggregates wake batches
    /// into equivalence classes — memory O(classes), the mega-n path).
    pub population: PopulationMode,
    /// Materialize per-station transmission counts (`Outcome::per_station_tx`).
    /// Off for mega-n sweeps where an O(n) vector per run defeats the
    /// class engine's O(classes) memory.
    pub per_station_detail: bool,
    /// Live progress reporting for long sweeps (`None`: silent).
    pub progress: Option<Progress>,
    /// Structured-trace capture (`None`: untraced — the zero-cost
    /// [`NoopTracer`](mac_sim::tracer::NoopTracer) path). Honored by
    /// [`run_ensemble`] and [`run_ensemble_stream`]; the chunked reference
    /// scheduler ignores it.
    pub trace: Option<TraceSpec>,
}

impl EnsembleSpec {
    /// A spec with `runs` runs on `n` stations and sensible defaults.
    pub fn new(n: u32, runs: u64) -> Self {
        EnsembleSpec {
            n,
            runs,
            max_slots: None,
            feedback: FeedbackModel::NoCollisionDetection,
            channel: ChannelModel::ideal(),
            churn: ChurnScript::none(),
            base_seed: 0,
            threads: std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(4),
            engine: EngineMode::Auto,
            population: PopulationMode::default(),
            per_station_detail: true,
            progress: None,
            trace: None,
        }
    }

    /// Override the per-run slot cap.
    pub fn with_max_slots(mut self, cap: u64) -> Self {
        self.max_slots = Some(cap);
        self
    }

    /// Override the base seed.
    pub fn with_base_seed(mut self, seed: u64) -> Self {
        self.base_seed = seed;
        self
    }

    /// Override the feedback model.
    pub fn with_feedback(mut self, fb: FeedbackModel) -> Self {
        self.feedback = fb;
        self
    }

    /// Inject channel faults (erasure / false collision / capture).
    pub fn with_channel(mut self, channel: ChannelModel) -> Self {
        self.channel = channel;
        self
    }

    /// Inject station churn (crashes and re-wakes).
    pub fn with_churn(mut self, churn: ChurnScript) -> Self {
        self.churn = churn;
        self
    }

    /// Override the worker-thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Override the engine path.
    pub fn with_engine(mut self, engine: EngineMode) -> Self {
        self.engine = engine;
        self
    }

    /// Override the station representation.
    pub fn with_population(mut self, population: PopulationMode) -> Self {
        self.population = population;
        self
    }

    /// Aggregate wake batches into equivalence classes
    /// ([`PopulationMode::Classes`]).
    pub fn with_classes(mut self) -> Self {
        self.population = PopulationMode::Classes;
        self
    }

    /// Skip per-station transmission counts — required for mega-n class
    /// sweeps to keep per-run memory O(classes).
    pub fn without_per_station_detail(mut self) -> Self {
        self.per_station_detail = false;
        self
    }

    /// Report progress (runs/s, steals) to stderr roughly every `every`.
    pub fn with_progress(mut self, every: Duration, label: impl Into<String>) -> Self {
        self.progress = Some(Progress::new(every, label));
        self
    }

    /// Attach a fully-built [`Progress`] spec — the way to keep a custom
    /// [`ProgressSink`](wakeup_runner::ProgressSink) routing (plain
    /// [`with_progress`](Self::with_progress) reports to stderr).
    pub fn with_progress_spec(mut self, progress: Progress) -> Self {
        self.progress = Some(progress);
        self
    }

    /// Capture structured trace events into `trace.sink` (see
    /// [`TraceSpec`] for the determinism contract).
    pub fn with_trace(mut self, trace: TraceSpec) -> Self {
        self.trace = Some(trace);
        self
    }

    /// The seed of run `i` (wrapping — see [`base_seed`](Self::base_seed)).
    pub fn seed_of(&self, i: u64) -> u64 {
        self.base_seed.wrapping_add(i)
    }

    fn sim_config(&self) -> SimConfig {
        let mut cfg = SimConfig::new(self.n)
            .with_feedback(self.feedback)
            .with_engine(self.engine)
            .with_population(self.population)
            .with_channel(self.channel)
            .with_churn(self.churn.clone());
        if let Some(cap) = self.max_slots {
            cfg = cfg.with_max_slots(cap);
        }
        if !self.per_station_detail {
            cfg = cfg.without_per_station_detail();
        }
        cfg
    }

    fn runner(&self) -> Runner {
        let mut runner = Runner::new().with_threads(self.threads.max(1));
        if let Some(p) = &self.progress {
            runner = runner.with_progress(p.clone());
        }
        runner
    }
}

/// Aggregated engine-work counters over an ensemble — the measurement
/// behind the dense-vs-sparse speedup claims. Slots tell how much simulated
/// time was covered; polls tell how much work the engine actually did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkStats {
    /// Total slots covered (`Outcome::slots_simulated` summed over runs).
    pub slots: u64,
    /// Total `Station::act` calls (`Outcome::polls` summed over runs).
    pub polls: u64,
    /// Total slots skipped in bulk by the sparse engine
    /// (`Outcome::skipped_slots` summed over runs).
    pub skipped: u64,
    /// Total slots stepped densely — every awake station polled —
    /// (`Outcome::dense_steps` summed over runs): the adaptive engine's
    /// burst windows plus any dense-locked stretches.
    pub dense_steps: u64,
    /// Total slots resolved by the bit-parallel word kernel
    /// (`Outcome::word_slots` summed over runs): dense/burst tiles of up to
    /// 64 slots settled by popcount instead of per-station polling.
    pub word_slots: u64,
    /// Total sparse↔dense transitions of the adaptive engine policy
    /// (`Outcome::mode_switches` summed over runs).
    pub mode_switches: u64,
    /// Maximum simultaneous simulation units of any single run
    /// (`Outcome::peak_units` maxed over runs) — the memory proxy of the
    /// class-aggregated engine: `k` under concrete populations, the class
    /// count under [`PopulationMode::Classes`].
    pub peak_units: u64,
}

impl WorkStats {
    /// Fold one outcome into the counters.
    pub fn absorb(&mut self, out: &mac_sim::Outcome) {
        self.slots += out.slots_simulated;
        self.polls += out.polls;
        self.skipped += out.skipped_slots;
        self.dense_steps += out.dense_steps;
        self.word_slots += out.word_slots;
        self.mode_switches += out.mode_switches;
        self.peak_units = self.peak_units.max(out.peak_units);
    }

    /// Fold one outcome digest into the counters.
    pub fn absorb_digest(&mut self, d: &OutcomeDigest) {
        self.slots += d.slots;
        self.polls += d.polls;
        self.skipped += d.skipped;
        self.dense_steps += d.dense_steps;
        self.word_slots += d.word_slots;
        self.mode_switches += d.mode_switches;
        self.peak_units = self.peak_units.max(d.peak_units);
    }

    /// Merge another accumulator (e.g. per-ensemble stats into a per-table
    /// total). All fields are associative (sums and a max), so partial
    /// accumulators merge in any grouping without changing the result.
    pub fn merge(&mut self, other: &WorkStats) {
        self.slots += other.slots;
        self.polls += other.polls;
        self.skipped += other.skipped;
        self.dense_steps += other.dense_steps;
        self.word_slots += other.word_slots;
        self.mode_switches += other.mode_switches;
        self.peak_units = self.peak_units.max(other.peak_units);
    }

    /// Polls per covered slot — `≈ k` on the dense path, `≪ 1` when the
    /// sparse engine is skipping well.
    pub fn polls_per_slot(&self) -> f64 {
        if self.slots == 0 {
            0.0
        } else {
            self.polls as f64 / self.slots as f64
        }
    }

    /// Fraction of covered slots that were skipped in bulk.
    pub fn skip_fraction(&self) -> f64 {
        if self.slots == 0 {
            0.0
        } else {
            self.skipped as f64 / self.slots as f64
        }
    }

    /// Compact one-line rendering for per-table footers.
    pub fn render(&self) -> String {
        format!(
            "slots {} | polls {} ({:.4} polls/slot) | skipped {} ({:.1}% skip) | dense-stepped {} | word-kernel {} ({} switches)",
            self.slots,
            self.polls,
            self.polls_per_slot(),
            self.skipped,
            100.0 * self.skip_fraction(),
            self.dense_steps,
            self.word_slots,
            self.mode_switches,
        )
    }

    /// The counters as a machine-readable [`Record`](crate::serial::Record)
    /// with stable field names (`slots`, `polls`, `skipped`, `dense_steps`,
    /// `word_slots`, `mode_switches`, `peak_units`). Deterministic: all fold
    /// in seed order.
    pub fn record(&self) -> crate::serial::Record {
        crate::serial::Record::new()
            .with("slots", self.slots)
            .with("polls", self.polls)
            .with("skipped", self.skipped)
            .with("dense_steps", self.dense_steps)
            .with("word_slots", self.word_slots)
            .with("mode_switches", self.mode_switches)
            .with("peak_units", self.peak_units)
    }
}

/// Aggregated results of an ensemble.
#[derive(Clone, Debug)]
pub struct EnsembleResult {
    /// One latency sample per run, in run order.
    pub samples: Vec<LatencySample>,
    /// Energy (transmission) statistics over all runs.
    pub energy: EnergyStats,
    /// Engine-work counters (slots vs polls vs skipped) over all runs.
    pub work: WorkStats,
}

impl EnsembleResult {
    /// Latencies of the solved runs.
    pub fn solved_latencies(&self) -> Vec<u64> {
        self.samples.iter().filter_map(|s| s.solved()).collect()
    }

    /// Number of censored (cap-hit) runs.
    pub fn censored(&self) -> usize {
        self.samples.len() - self.solved_latencies().len()
    }

    /// Worst observed latency, counting censored runs pessimistically.
    pub fn worst(&self) -> u64 {
        self.samples
            .iter()
            .map(|s| s.pessimistic())
            .max()
            .unwrap_or(0)
    }

    /// Summary statistics of the solved latencies.
    pub fn summary(&self) -> Option<crate::stats::Summary> {
        crate::stats::Summary::of_u64(&self.solved_latencies())
    }
}

/// Streaming aggregate of an ensemble: everything the experiment tables
/// report, with no per-run sample vector — the only per-ensemble memory
/// is the runner's O(threads·batch) reorder buffer.
///
/// Latency statistics cover **solved** runs (matching
/// [`EnsembleResult::summary`]); [`worst`](Self::worst) additionally counts
/// censored runs pessimistically. Median/p90/p99 come from P² sketches:
/// exact below five solved runs, a tightly-tracking estimate above.
#[derive(Clone, Debug)]
pub struct EnsembleSummary {
    /// Number of runs executed.
    pub runs: u64,
    /// Number of runs that solved wake-up within the cap.
    pub solved: u64,
    /// Streaming statistics (mean/sd/min/max/CI) of the solved latencies.
    pub latency: OnlineStats,
    /// P² sketch of the solved-latency median.
    pub sketch_p50: P2Quantile,
    /// P² sketch of the solved-latency 90th percentile.
    pub sketch_p90: P2Quantile,
    /// P² sketch of the solved-latency 99th percentile.
    pub sketch_p99: P2Quantile,
    /// Worst latency including censored runs (their censoring bound).
    pub worst: u64,
    /// Energy (transmission) statistics over all runs.
    pub energy: EnergyStats,
    /// Engine-work counters over all runs.
    pub work: WorkStats,
    /// Channel-fault and churn event totals over all runs (all zero for
    /// an ideal channel without churn).
    pub faults: FaultCounts,
    /// Execution statistics of the runner (throughput, steals, batches).
    pub exec: RunStats,
}

impl EnsembleSummary {
    fn empty() -> Self {
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

    /// Fold one worker pre-folded batch partial, in seed order. Integer
    /// aggregates merge associatively; the solved latencies replay here one
    /// by one, so the floating-point accumulators see exactly the sequence
    /// a sequential run would feed them — bit-identical across thread
    /// counts and batch boundaries.
    fn absorb_partial(&mut self, p: StreamPartial) {
        self.runs += p.runs;
        self.solved += p.solved;
        self.worst = self.worst.max(p.worst);
        self.energy.merge(&p.energy);
        self.work.merge(&p.work);
        self.faults.merge(&p.faults);
        for l in p.solved_latencies {
            let l = l as f64;
            self.latency.push(l);
            self.sketch_p50.push(l);
            self.sketch_p90.push(l);
            self.sketch_p99.push(l);
        }
    }

    /// Number of censored (cap-hit) runs.
    pub fn censored(&self) -> u64 {
        self.runs - self.solved
    }

    /// Mean solved latency (0 when nothing solved).
    pub fn mean(&self) -> f64 {
        self.latency.mean()
    }

    /// Maximum solved latency (0 when nothing solved).
    pub fn max(&self) -> f64 {
        self.latency.max()
    }

    /// Half-width of the 95% CI of the mean.
    pub fn ci95(&self) -> f64 {
        self.latency.ci95()
    }

    /// Median solved latency (P² estimate; 0 when nothing solved).
    pub fn median(&self) -> f64 {
        self.sketch_p50.value().unwrap_or(0.0)
    }

    /// 90th-percentile solved latency (P² estimate; 0 when nothing solved).
    pub fn p90(&self) -> f64 {
        self.sketch_p90.value().unwrap_or(0.0)
    }

    /// 99th-percentile solved latency (P² estimate; 0 when nothing solved).
    pub fn p99(&self) -> f64 {
        self.sketch_p99.value().unwrap_or(0.0)
    }

    /// The summary as a machine-readable
    /// [`Record`](crate::serial::Record) with stable field names — the
    /// per-point payload of the experiment sinks' sweep rows.
    ///
    /// Only **deterministic** aggregates are included (everything folds in
    /// seed order, so each field is bit-identical across thread counts); the
    /// wall-clock execution stats in [`exec`](Self::exec) are deliberately
    /// left out so machine output can be diffed across runs and machines.
    ///
    /// When **no** run solved, the solved-latency statistics are emitted as
    /// `NaN` (JSON `null`, CSV `NaN`) rather than their 0.0 accessor
    /// defaults — a fully-censored cell must not read as zero latency.
    /// `worst` stays numeric: it counts censored runs pessimistically.
    pub fn record(&self) -> crate::serial::Record {
        let lat = |v: f64| if self.solved > 0 { v } else { f64::NAN };
        crate::serial::Record::new()
            .with("runs", self.runs)
            .with("solved", self.solved)
            .with("censored", self.censored())
            .with("mean", lat(self.mean()))
            .with("ci95", lat(self.ci95()))
            .with("median", lat(self.median()))
            .with("p90", lat(self.p90()))
            .with("p99", lat(self.p99()))
            .with("max", lat(self.max()))
            .with("worst", self.worst)
            .with("mean_transmissions", self.energy.mean_transmissions())
            .with("mean_collisions", self.energy.mean_collisions())
            .with("max_per_station_tx", self.energy.max_per_station)
            .with("slots", self.work.slots)
            .with("polls", self.work.polls)
            .with("skipped", self.work.skipped)
            .with("dense_steps", self.work.dense_steps)
            .with("word_slots", self.work.word_slots)
            .with("mode_switches", self.work.mode_switches)
            .with("peak_units", self.work.peak_units)
    }
}

/// Execute one run, serializing its trace (if any) into run-tagged JSONL
/// bytes on the worker. Serialization is the parallel part; only the final
/// ordered append to the shared sink is left to the reducer.
fn run_one(
    sim: &Simulator,
    trace: Option<&TraceSpec>,
    i: u64,
    seed: u64,
    protocol: &dyn Protocol,
    pattern: &WakePattern,
) -> (OutcomeDigest, Vec<u8>) {
    let Some(ts) = trace else {
        let outcome = sim
            .run(protocol, pattern, seed)
            .expect("ensemble run failed validation");
        return (OutcomeDigest::of(&outcome), Vec::new());
    };
    let mut rec = RecordingTracer::with_filter(ts.filter);
    let outcome = sim
        .run_traced(protocol, pattern, seed, &mut rec)
        .expect("ensemble run failed validation");
    let mut buf = Vec::new();
    for ev in rec.events() {
        writeln!(buf, "{{\"run\":{i},{}}}", ev.json_fields())
            .expect("writing to a Vec cannot fail");
    }
    (OutcomeDigest::of(&outcome), buf)
}

/// Append one run's serialized trace lines to the shared sink. Called only
/// from the seed-ordered reducer, so lines land in run order.
fn flush_trace(trace: Option<&TraceSpec>, bytes: &[u8]) {
    if bytes.is_empty() {
        return;
    }
    if let Some(ts) = trace {
        ts.sink
            .lock()
            .expect("trace sink poisoned")
            .write_all(bytes)
            .expect("trace sink write failed");
    }
}

/// Write one ensemble's execution records (the non-deterministic tier:
/// wall-clock phase timers, per-worker counters) to the trace sidecar, if
/// one is configured. One flat JSON object per line, parseable by
/// [`parse_json_object`](crate::serial::parse_json_object).
fn flush_exec(spec: &EnsembleSpec, stats: &RunStats) {
    let Some(ts) = &spec.trace else { return };
    let Some(exec) = &ts.exec else { return };
    let seq = ts.seq.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let label = spec
        .progress
        .as_ref()
        .map(|p| p.label.as_str())
        .unwrap_or("");
    let mut buf = Vec::new();
    let head = crate::serial::Record::new()
        .with("record", "ensemble")
        .with("ensemble", seq)
        .with("label", label)
        .with("n", spec.n)
        .with("runs", stats.runs)
        .with("threads", stats.threads as u64)
        .with("batch", stats.batch)
        .with("batches", stats.batches)
        .with("steals", stats.steals)
        .with("calibration_runs", stats.calibration_runs)
        .with("reorder_peak", stats.reorder_peak)
        .with("elapsed_us", stats.elapsed.as_micros() as u64)
        .with(
            "construction_us",
            stats.phases.construction.as_micros() as u64,
        )
        .with(
            "calibration_us",
            stats.phases.calibration.as_micros() as u64,
        )
        .with("simulation_us", stats.phases.simulation.as_micros() as u64)
        .with("reduction_us", stats.phases.reduction.as_micros() as u64);
    writeln!(buf, "{}", head.to_json()).expect("writing to a Vec cannot fail");
    for (i, w) in stats.workers.iter().enumerate() {
        let row = crate::serial::Record::new()
            .with("record", "worker")
            .with("ensemble", seq)
            .with("worker", i as u64)
            .with("runs", w.runs)
            .with("steals", w.steals)
            .with("fail_scans", w.fail_scans)
            .with("queue_depth_hw", w.queue_depth_hw);
        writeln!(buf, "{}", row.to_json()).expect("writing to a Vec cannot fail");
    }
    exec.lock()
        .expect("exec sidecar poisoned")
        .write_all(&buf)
        .expect("exec sidecar write failed");
}

/// Execute the ensemble's runs on the work-stealing pool, folding digests
/// into `fold` in seed order.
fn execute<P, G, F>(spec: &EnsembleSpec, protocol_for: P, pattern_for: G, mut fold: F) -> RunStats
where
    P: Fn(u64) -> Box<dyn Protocol> + Sync,
    G: Fn(u64) -> WakePattern + Sync,
    F: FnMut(u64, OutcomeDigest),
{
    let sim = Simulator::new(spec.sim_config());
    let trace = spec.trace.as_ref();
    let stats = spec.runner().run(
        spec.runs,
        |i| {
            let seed = spec.seed_of(i);
            let protocol = protocol_for(seed);
            let pattern = pattern_for(seed);
            run_one(&sim, trace, i, seed, protocol.as_ref(), &pattern)
        },
        from_fn(|i, (d, bytes): (OutcomeDigest, Vec<u8>)| {
            flush_trace(trace, &bytes);
            fold(i, d);
        }),
    );
    flush_exec(spec, &stats);
    stats
}

/// Run an ensemble: run `i ∈ [0, spec.runs)` simulates
/// `protocol_for(seed)` against `pattern_for(seed)` where
/// `seed = spec.base_seed.wrapping_add(i)`, materializing one latency
/// sample per run.
///
/// Panics if any run fails validation (a bug in the generator, not a
/// measurement outcome).
pub fn run_ensemble<P, G>(spec: &EnsembleSpec, protocol_for: P, pattern_for: G) -> EnsembleResult
where
    P: Fn(u64) -> Box<dyn Protocol> + Sync,
    G: Fn(u64) -> WakePattern + Sync,
{
    let mut samples = Vec::with_capacity(usize::try_from(spec.runs).unwrap_or(0));
    let mut energy = EnergyStats::new();
    let mut work = WorkStats::default();
    execute(spec, protocol_for, pattern_for, |_, d| {
        samples.push(d.sample);
        energy.absorb_digest(&d);
        work.absorb_digest(&d);
    });
    EnsembleResult {
        samples,
        energy,
        work,
    }
}

/// Worker-side pre-fold of one batch of digests (the payload of
/// [`Runner::run_folded`]): everything that merges associatively — integer
/// sums, counts, maxima — is reduced on the worker, and only the solved
/// latencies (needed verbatim by the order-sensitive floating-point
/// accumulators) ride along, in seed order. A shipped batch therefore
/// weighs O(1) + one `u64` per solved run instead of one full
/// [`OutcomeDigest`] per run.
#[derive(Debug, Default)]
struct StreamPartial {
    runs: u64,
    solved: u64,
    worst: u64,
    energy: EnergyStats,
    work: WorkStats,
    faults: FaultCounts,
    solved_latencies: Vec<u64>,
    /// Run-tagged trace lines of this batch, in seed order (empty when the
    /// ensemble is untraced).
    trace: Vec<u8>,
}

impl StreamPartial {
    fn absorb(&mut self, d: &OutcomeDigest, trace: &[u8]) {
        self.runs += 1;
        if let Some(l) = d.sample.solved() {
            self.solved += 1;
            self.solved_latencies.push(l);
        }
        self.worst = self.worst.max(d.sample.pessimistic());
        self.energy.absorb_digest(d);
        self.work.absorb_digest(d);
        self.faults.merge(&d.faults);
        self.trace.extend_from_slice(trace);
    }
}

/// Run an ensemble with streaming aggregation only: no per-run results
/// are materialized, suitable
/// for million-run sweeps. Same execution and seed derivation as
/// [`run_ensemble`], but reduction is **pipelined**: each worker pre-folds
/// its batch into a partial fold ([`Runner::run_folded`]), and this
/// thread merges the partials in seed order — associatively for the integer
/// counters, by in-order replay for the floating-point latency statistics.
/// Aggregates are bit-identical across thread counts and batch boundaries.
pub fn run_ensemble_stream<P, G>(
    spec: &EnsembleSpec,
    protocol_for: P,
    pattern_for: G,
) -> EnsembleSummary
where
    P: Fn(u64) -> Box<dyn Protocol> + Sync,
    G: Fn(u64) -> WakePattern + Sync,
{
    let mut summary = EnsembleSummary::empty();
    // `summary` is only borrowed inside the fold, so aggregate into a local
    // and move the stats in afterwards.
    let exec = {
        let s = &mut summary;
        let sim = Simulator::new(spec.sim_config());
        let trace = spec.trace.as_ref();
        spec.runner().run_folded(
            spec.runs,
            |i| {
                let seed = spec.seed_of(i);
                let protocol = protocol_for(seed);
                let pattern = pattern_for(seed);
                run_one(&sim, trace, i, seed, protocol.as_ref(), &pattern)
            },
            StreamPartial::default,
            |p, _i, (d, bytes): (OutcomeDigest, Vec<u8>)| p.absorb(&d, &bytes),
            from_fn(|_start, p: StreamPartial| {
                flush_trace(trace, &p.trace);
                s.absorb_partial(p);
            }),
        )
    };
    flush_exec(spec, &exec);
    summary.exec = exec;
    summary
}

/// [`run_ensemble`] with an ensemble-wide [`ConstructionCache`]: the
/// factory receives the cache next to the run seed, so seed-independent
/// structure (selective families, doubling schedules and their per-station
/// position indices, waking matrices) is built **once per ensemble** and
/// shared read-only across runs and work-stealing workers, while per-run
/// state stays in the stations. Outcomes are bit-identical to the uncached
/// path — the cache holds only immutable structure.
pub fn run_ensemble_cached<P, G>(
    spec: &EnsembleSpec,
    cache: &ConstructionCache,
    protocol_for: P,
    pattern_for: G,
) -> EnsembleResult
where
    P: Fn(&ConstructionCache, u64) -> Box<dyn Protocol> + Sync,
    G: Fn(u64) -> WakePattern + Sync,
{
    run_ensemble(spec, |seed| protocol_for(cache, seed), pattern_for)
}

/// [`run_ensemble_stream`] with an ensemble-wide [`ConstructionCache`] —
/// see [`run_ensemble_cached`] for the sharing contract.
pub fn run_ensemble_stream_cached<P, G>(
    spec: &EnsembleSpec,
    cache: &ConstructionCache,
    protocol_for: P,
    pattern_for: G,
) -> EnsembleSummary
where
    P: Fn(&ConstructionCache, u64) -> Box<dyn Protocol> + Sync,
    G: Fn(u64) -> WakePattern + Sync,
{
    run_ensemble_stream(spec, |seed| protocol_for(cache, seed), pattern_for)
}

/// The pre-runner scheduling: split the seed range into one static
/// contiguous chunk per thread (`std::thread::scope`, no stealing, full
/// result materialization). Kept as the baseline the work-stealing runner
/// is benchmarked against (`benches/runner.rs`) and as an independent
/// reference implementation for determinism tests. Produces exactly the
/// same [`EnsembleResult`] as [`run_ensemble`].
pub fn run_ensemble_chunked<P, G>(
    spec: &EnsembleSpec,
    protocol_for: P,
    pattern_for: G,
) -> EnsembleResult
where
    P: Fn(u64) -> Box<dyn Protocol> + Sync,
    G: Fn(u64) -> WakePattern + Sync,
{
    let cfg = spec.sim_config();
    let runs: Vec<u64> = (0..spec.runs).map(|i| spec.seed_of(i)).collect();
    let threads = spec.threads.max(1).min(runs.len().max(1));
    let chunk = runs.len().div_ceil(threads);
    let mut results: Vec<Option<(LatencySample, mac_sim::Outcome)>> = vec![None; runs.len()];

    std::thread::scope(|scope| {
        for (seeds, out_chunk) in runs.chunks(chunk).zip(results.chunks_mut(chunk)) {
            let cfg = cfg.clone();
            let protocol_for = &protocol_for;
            let pattern_for = &pattern_for;
            scope.spawn(move || {
                let sim = Simulator::new(cfg);
                for (seed, slot) in seeds.iter().zip(out_chunk.iter_mut()) {
                    let protocol = protocol_for(*seed);
                    let pattern = pattern_for(*seed);
                    let outcome = sim
                        .run(protocol.as_ref(), &pattern, *seed)
                        .expect("ensemble run failed validation");
                    *slot = Some((LatencySample::from_outcome(&outcome), outcome));
                }
            });
        }
    });

    let mut samples = Vec::with_capacity(runs.len());
    let mut energy = EnergyStats::new();
    let mut work = WorkStats::default();
    for r in results.into_iter() {
        let (sample, outcome) = r.expect("worker thread left a hole");
        samples.push(sample);
        energy.absorb(&outcome);
        work.absorb(&outcome);
    }
    EnsembleResult {
        samples,
        energy,
        work,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mac_sim::pattern::IdChoice;
    use mac_sim::StationId;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use wakeup_core::prelude::*;

    fn k_pattern(n: u32, k: usize, seed: u64) -> WakePattern {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let ids = IdChoice::Random.pick(n, k, &mut rng);
        WakePattern::uniform_window(&ids, 0, 16, &mut rng).unwrap()
    }

    #[test]
    fn ensemble_runs_and_aggregates() {
        let n = 64u32;
        let spec = EnsembleSpec::new(n, 16).with_threads(4);
        let res = run_ensemble(
            &spec,
            |seed| Box::new(WakeupN::new(MatrixParams::new(n).with_seed(seed))),
            |seed| k_pattern(n, 4, seed),
        );
        assert_eq!(res.samples.len(), 16);
        assert_eq!(res.censored(), 0, "wakeup(n) should solve all runs");
        let summary = res.summary().unwrap();
        assert_eq!(summary.count, 16);
        assert!(summary.max >= summary.median);
        assert!(res.energy.runs == 16);
        assert!(res.energy.total_transmissions > 0);
    }

    #[test]
    fn class_population_ensemble_matches_concrete() {
        // Ensemble plumbing for the class engine: same samples/energy, and
        // peak_units drops to the class count (one unit per wake batch here)
        // while the concrete path carries one unit per station.
        let n = 128u32;
        let spec = EnsembleSpec::new(n, 12).with_threads(3);
        let pattern = |seed: u64| WakePattern::range(0, n / 2, seed % 8).unwrap();
        let concrete = run_ensemble(&spec, |_| Box::new(RoundRobin::new(n)), pattern);
        let classed = run_ensemble(
            &spec.clone().with_classes(),
            |_| Box::new(RoundRobin::new(n)),
            pattern,
        );
        assert_eq!(concrete.samples, classed.samples);
        assert_eq!(concrete.energy, classed.energy);
        assert_eq!(concrete.work.slots, classed.work.slots);
        assert_eq!(concrete.work.peak_units, u64::from(n) / 2);
        assert_eq!(classed.work.peak_units, 1);
        // And without per-station detail the aggregates still match, except
        // the per-station maximum that detail-off deliberately drops.
        let lean = run_ensemble(
            &spec.clone().with_classes().without_per_station_detail(),
            |_| Box::new(RoundRobin::new(n)),
            pattern,
        );
        assert_eq!(lean.samples, classed.samples);
        assert_eq!(
            lean.energy.total_transmissions,
            classed.energy.total_transmissions
        );
        assert_eq!(lean.energy.max_per_station, 0);
    }

    #[test]
    fn work_stats_track_sparse_savings() {
        // Round-robin gives O(1) hints, so the sparse engine polls far less
        // than once per slot, while a dense run polls k times per slot.
        use mac_sim::EngineMode;
        let n = 256u32;
        let spec = EnsembleSpec::new(n, 8).with_threads(2);
        let sparse = run_ensemble(
            &spec,
            |_| Box::new(RoundRobin::new(n)),
            |seed| k_pattern(n, 6, seed),
        );
        let dense = run_ensemble(
            &spec.clone().with_engine(EngineMode::Dense),
            |_| Box::new(RoundRobin::new(n)),
            |seed| k_pattern(n, 6, seed),
        );
        assert_eq!(sparse.samples, dense.samples, "outcomes must be identical");
        assert_eq!(
            sparse.work.slots, dense.work.slots,
            "paths must cover the same slots"
        );
        assert!(sparse.work.skipped > 0);
        assert_eq!(dense.work.skipped, 0);
        assert!(
            sparse.work.polls * 10 < dense.work.polls,
            "sparse polls {} not ≪ dense polls {}",
            sparse.work.polls,
            dense.work.polls
        );
        assert!(sparse.work.polls_per_slot() < 1.0);
        assert!(sparse.work.skip_fraction() > 0.5);
    }

    #[test]
    fn ensemble_is_deterministic_given_base_seed() {
        let n = 32u32;
        let spec = EnsembleSpec::new(n, 8).with_base_seed(99).with_threads(2);
        let run = || {
            run_ensemble(
                &spec,
                |seed| {
                    Box::new(WakeupWithK::new(
                        n,
                        4,
                        FamilyProvider::random_with_seed(seed),
                    ))
                },
                |seed| k_pattern(n, 4, seed),
            )
        };
        let a = run();
        let b = run();
        assert_eq!(a.samples, b.samples);
    }

    #[test]
    fn different_base_seeds_differ() {
        let n = 32u32;
        let mk = |base: u64| {
            run_ensemble(
                &EnsembleSpec::new(n, 8).with_base_seed(base),
                |seed| Box::new(WakeupN::new(MatrixParams::new(n).with_seed(seed))),
                |seed| k_pattern(n, 3, seed),
            )
        };
        let a = mk(0);
        let b = mk(1_000_000);
        // Extremely likely to differ somewhere.
        assert_ne!(a.samples, b.samples);
    }

    #[test]
    fn censored_runs_are_counted() {
        // A protocol that never transmits gets censored on every run.
        struct Silent;
        struct SilentStation;
        impl mac_sim::Station for SilentStation {
            fn wake(&mut self, _s: mac_sim::Slot) {}
            fn act(&mut self, _t: mac_sim::Slot) -> mac_sim::Action {
                mac_sim::Action::Listen
            }
        }
        impl mac_sim::Protocol for Silent {
            fn station(&self, _id: StationId, _seed: u64) -> Box<dyn mac_sim::Station> {
                Box::new(SilentStation)
            }
            fn name(&self) -> String {
                "silent".into()
            }
        }
        let spec = EnsembleSpec::new(8, 4).with_max_slots(50);
        let res = run_ensemble(&spec, |_| Box::new(Silent), |seed| k_pattern(8, 2, seed));
        assert_eq!(res.censored(), 4);
        assert!(res.summary().is_none());
        assert_eq!(res.worst(), 50);
        // Streaming view agrees on censoring and the pessimistic worst.
        let s = run_ensemble_stream(&spec, |_| Box::new(Silent), |seed| k_pattern(8, 2, seed));
        assert_eq!(s.censored(), 4);
        assert_eq!(s.solved, 0);
        assert_eq!(s.worst, 50);
        assert_eq!(s.mean(), 0.0);
        // Machine rows must not read the censored-everything case as zero
        // latency: the record renders the solved-latency stats as null.
        let json = s.record().to_json();
        assert!(json.contains("\"mean\":null"), "{json}");
        assert!(json.contains("\"p90\":null"), "{json}");
        assert!(json.contains("\"worst\":50"), "{json}");
    }

    #[test]
    fn single_thread_matches_multi_thread() {
        let n = 32u32;
        let mk = |threads: usize| {
            run_ensemble(
                &EnsembleSpec::new(n, 10).with_threads(threads),
                |seed| Box::new(WakeupN::new(MatrixParams::new(n).with_seed(seed))),
                |seed| k_pattern(n, 3, seed),
            )
        };
        assert_eq!(mk(1).samples, mk(8).samples);
    }

    #[test]
    fn runner_matches_chunked_reference_bit_for_bit() {
        // The work-stealing path must reproduce the legacy chunked
        // scheduler exactly — samples, energy and work counters — for any
        // thread count.
        let n = 64u32;
        let mk_spec = |threads: usize| {
            EnsembleSpec::new(n, 24)
                .with_base_seed(42)
                .with_threads(threads)
        };
        let reference = run_ensemble_chunked(
            &mk_spec(1),
            |seed| Box::new(WakeupN::new(MatrixParams::new(n).with_seed(seed))),
            |seed| k_pattern(n, 4, seed),
        );
        for threads in [1usize, 2, 8] {
            let stealing = run_ensemble(
                &mk_spec(threads),
                |seed| Box::new(WakeupN::new(MatrixParams::new(n).with_seed(seed))),
                |seed| k_pattern(n, 4, seed),
            );
            assert_eq!(stealing.samples, reference.samples, "threads={threads}");
            assert_eq!(stealing.energy, reference.energy, "threads={threads}");
            assert_eq!(stealing.work, reference.work, "threads={threads}");
        }
    }

    #[test]
    fn stream_summary_matches_materialized_summary() {
        let n = 64u32;
        let spec = EnsembleSpec::new(n, 32).with_base_seed(7).with_threads(4);
        let full = run_ensemble(
            &spec,
            |_| Box::new(RoundRobin::new(n)),
            |seed| k_pattern(n, 5, seed),
        );
        let stream = run_ensemble_stream(
            &spec,
            |_| Box::new(RoundRobin::new(n)),
            |seed| k_pattern(n, 5, seed),
        );
        let summary = full.summary().unwrap();
        assert_eq!(stream.runs, 32);
        assert_eq!(stream.solved as usize, summary.count);
        assert!((stream.mean() - summary.mean).abs() < 1e-9);
        assert_eq!(stream.max(), summary.max);
        assert!((stream.ci95() - summary.ci95()).abs() < 1e-9);
        assert_eq!(stream.worst, full.worst());
        assert_eq!(stream.energy, full.energy);
        assert_eq!(stream.work, full.work);
        // P² percentiles track the exact ones on a 32-run ensemble.
        let spread = (summary.max - summary.min).max(1.0);
        assert!((stream.median() - summary.median).abs() <= 0.1 * spread);
        assert!((stream.p90() - summary.p90).abs() <= 0.15 * spread);
    }

    #[test]
    fn stream_is_bit_identical_across_thread_counts() {
        let n = 64u32;
        let mk = |threads: usize| {
            run_ensemble_stream(
                &EnsembleSpec::new(n, 20).with_threads(threads),
                |seed| Box::new(WakeupN::new(MatrixParams::new(n).with_seed(seed))),
                |seed| k_pattern(n, 4, seed),
            )
        };
        let a = mk(1);
        for threads in [2usize, 8] {
            let b = mk(threads);
            assert_eq!(a.mean().to_bits(), b.mean().to_bits());
            assert_eq!(a.ci95().to_bits(), b.ci95().to_bits());
            assert_eq!(a.median().to_bits(), b.median().to_bits());
            assert_eq!(a.p90().to_bits(), b.p90().to_bits());
            assert_eq!(a.work, b.work);
        }
    }

    #[test]
    fn zero_threads_spec_runs_instead_of_panicking() {
        // Regression: a directly-constructed spec with threads: 0 used to
        // divide by zero in the chunk computation.
        let n = 16u32;
        let spec = EnsembleSpec {
            threads: 0,
            ..EnsembleSpec::new(n, 4)
        };
        let res = run_ensemble(
            &spec,
            |_| Box::new(RoundRobin::new(n)),
            |seed| k_pattern(n, 2, seed),
        );
        assert_eq!(res.samples.len(), 4);
        let chunked = run_ensemble_chunked(
            &spec,
            |_| Box::new(RoundRobin::new(n)),
            |seed| k_pattern(n, 2, seed),
        );
        assert_eq!(chunked.samples, res.samples);
    }

    #[test]
    fn base_seed_near_max_wraps_instead_of_overflowing() {
        // Regression: `base_seed + i` overflowed (panic in debug) for base
        // seeds near u64::MAX; seeds now wrap.
        let n = 16u32;
        let spec = EnsembleSpec::new(n, 8).with_base_seed(u64::MAX - 2);
        assert_eq!(spec.seed_of(2), u64::MAX);
        assert_eq!(spec.seed_of(3), 0);
        assert_eq!(spec.seed_of(5), 2);
        let res = run_ensemble(
            &spec,
            |seed| Box::new(WakeupN::new(MatrixParams::new(n).with_seed(seed))),
            |seed| k_pattern(n, 3, seed),
        );
        assert_eq!(res.samples.len(), 8);
    }

    #[test]
    fn cached_ensemble_matches_uncached_bit_for_bit() {
        // The construction cache may only change *where* structure is
        // built, never what the runs observe: samples, energy and work
        // counters must be identical, across thread counts.
        let n = 64u32;
        let provider = FamilyProvider::random_with_seed(5);
        let mk_spec = |threads| {
            EnsembleSpec::new(n, 16)
                .with_base_seed(3)
                .with_threads(threads)
        };
        let plain = run_ensemble(
            &mk_spec(1),
            |_| Box::new(WakeupWithK::new(n, 6, provider)),
            |seed| k_pattern(n, 6, seed),
        );
        for threads in [1usize, 4] {
            let cache = wakeup_core::ConstructionCache::new();
            let cached = run_ensemble_cached(
                &mk_spec(threads),
                &cache,
                |c, _| Box::new(WakeupWithK::cached(n, 6, &provider, c)),
                |seed| k_pattern(n, 6, seed),
            );
            assert_eq!(plain.samples, cached.samples, "threads={threads}");
            assert_eq!(plain.energy, cached.energy, "threads={threads}");
            assert_eq!(plain.work, cached.work, "threads={threads}");
            assert!(!cache.is_empty(), "cache was never populated");
        }
    }

    /// A trace spec writing into a shared byte buffer, plus the handle to
    /// read the bytes back after the ensemble completes.
    fn vec_trace(filter: mac_sim::tracer::TraceFilter) -> (TraceSpec, Arc<Mutex<Vec<u8>>>) {
        let buf: Arc<Mutex<Vec<u8>>> = Arc::new(Mutex::new(Vec::new()));
        let sink: Arc<Mutex<dyn Write + Send>> = buf.clone();
        (TraceSpec::new(filter, sink), buf)
    }

    #[test]
    fn ensemble_trace_bytes_bit_identical_across_thread_counts() {
        use mac_sim::tracer::TraceFilter;
        let n = 64u32;
        let mk = |threads: usize, stream: bool| {
            let (trace, buf) = vec_trace(TraceFilter::all());
            let spec = EnsembleSpec::new(n, 24)
                .with_base_seed(11)
                .with_threads(threads)
                .with_trace(trace);
            if stream {
                run_ensemble_stream(
                    &spec,
                    |_| Box::new(RoundRobin::new(n)),
                    |seed| k_pattern(n, 4, seed),
                );
            } else {
                run_ensemble(
                    &spec,
                    |_| Box::new(RoundRobin::new(n)),
                    |seed| k_pattern(n, 4, seed),
                );
            }
            let bytes = buf.lock().unwrap().clone();
            bytes
        };
        let reference = mk(1, true);
        assert!(!reference.is_empty(), "traced ensemble produced no lines");
        let text = String::from_utf8(reference.clone()).unwrap();
        assert!(text.lines().count() > 24, "expected events for every run");
        assert!(text.lines().all(|l| l.starts_with("{\"run\":")), "{text}");
        assert!(text.contains("\"run\":23,"), "last run missing from trace");
        for threads in [2usize, 4] {
            assert_eq!(mk(threads, true), reference, "stream, threads={threads}");
        }
        // The materializing path serializes the identical byte stream.
        for threads in [1usize, 4] {
            assert_eq!(
                mk(threads, false),
                reference,
                "materialized, threads={threads}"
            );
        }
    }

    #[test]
    fn ensemble_trace_deterministic_tier_identical_across_engines() {
        use mac_sim::tracer::TraceFilter;
        let n = 64u32;
        let mk = |engine: EngineMode, population: PopulationMode| {
            let (trace, buf) = vec_trace(TraceFilter::deterministic());
            let spec = EnsembleSpec::new(n, 12)
                .with_threads(3)
                .with_engine(engine)
                .with_population(population)
                .with_trace(trace);
            run_ensemble_stream(
                &spec,
                |_| Box::new(RoundRobin::new(n)),
                |seed| k_pattern(n, 5, seed),
            );
            let bytes = buf.lock().unwrap().clone();
            bytes
        };
        let dense = mk(EngineMode::Dense, PopulationMode::Concrete);
        assert!(!dense.is_empty());
        assert_eq!(mk(EngineMode::Auto, PopulationMode::Concrete), dense);
        assert_eq!(mk(EngineMode::Auto, PopulationMode::Classes), dense);
    }

    #[test]
    fn exec_sidecar_records_ensemble_and_worker_lines() {
        use mac_sim::tracer::TraceFilter;
        let n = 64u32;
        let (trace, _events) = vec_trace(TraceFilter::deterministic());
        let exec_buf: Arc<Mutex<Vec<u8>>> = Arc::new(Mutex::new(Vec::new()));
        let exec_sink: Arc<Mutex<dyn Write + Send>> = exec_buf.clone();
        let trace = trace.with_exec_sink(exec_sink);
        let spec = EnsembleSpec::new(n, 64)
            .with_threads(3)
            .with_trace(trace.clone());
        run_ensemble_stream(
            &spec,
            |_| Box::new(RoundRobin::new(n)),
            |seed| k_pattern(n, 4, seed),
        );
        // Second ensemble on the same sidecar gets the next ordinal.
        run_ensemble(
            &spec,
            |_| Box::new(RoundRobin::new(n)),
            |seed| k_pattern(n, 4, seed),
        );
        let text = String::from_utf8(exec_buf.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        let heads: Vec<&&str> = lines
            .iter()
            .filter(|l| l.contains("\"record\":\"ensemble\""))
            .collect();
        assert_eq!(heads.len(), 2, "{text}");
        assert!(heads[0].contains("\"ensemble\":0,"));
        assert!(heads[1].contains("\"ensemble\":1,"));
        assert!(heads[0].contains("\"threads\":3"));
        let workers = lines
            .iter()
            .filter(|l| l.contains("\"record\":\"worker\""))
            .count();
        assert_eq!(workers, 6, "3 workers per ensemble: {text}");
        // Every line parses back as a flat record.
        for l in &lines {
            crate::serial::parse_json_object(l).unwrap();
        }
    }

    #[test]
    fn tracing_does_not_perturb_ensemble_aggregates() {
        use mac_sim::tracer::TraceFilter;
        let n = 64u32;
        let spec = EnsembleSpec::new(n, 16).with_base_seed(5).with_threads(4);
        let plain = run_ensemble_stream(
            &spec,
            |_| Box::new(RoundRobin::new(n)),
            |seed| k_pattern(n, 4, seed),
        );
        let (trace, _buf) = vec_trace(TraceFilter::all());
        let traced = run_ensemble_stream(
            &spec.clone().with_trace(trace),
            |_| Box::new(RoundRobin::new(n)),
            |seed| k_pattern(n, 4, seed),
        );
        assert_eq!(plain.runs, traced.runs);
        assert_eq!(plain.solved, traced.solved);
        assert_eq!(plain.mean().to_bits(), traced.mean().to_bits());
        assert_eq!(plain.work, traced.work);
        assert_eq!(plain.energy, traced.energy);
    }

    #[test]
    fn runs_zero_yields_empty_result() {
        let spec = EnsembleSpec::new(16, 0);
        let res = run_ensemble(
            &spec,
            |_| Box::new(RoundRobin::new(16)),
            |seed| k_pattern(16, 2, seed),
        );
        assert!(res.samples.is_empty());
        assert!(res.summary().is_none());
        let s = run_ensemble_stream(
            &spec,
            |_| Box::new(RoundRobin::new(16)),
            |seed| k_pattern(16, 2, seed),
        );
        assert_eq!(s.runs, 0);
        // Empty-summary accessors must not divide by zero.
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.median(), 0.0);
        assert_eq!(s.p90(), 0.0);
        assert_eq!(s.censored(), 0);
    }
}
