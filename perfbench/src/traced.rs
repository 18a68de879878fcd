//! The traced run: an instrumented replica of the end-to-end pass that
//! attributes its wall-clock to the layers, plus probes that re-run cells
//! under forced engine modes, concrete populations and structured tracing.
//!
//! Attribution works in *capacity*: pass wall-clock × worker threads. Job
//! spans (taken inside the job closure around the calls into `core`,
//! `Simulator::run` and `OutcomeDigest::of`) and fold spans (the digest
//! fold into the `EnsembleSummary`) are thread-seconds; the runner owns the
//! rest of the capacity inside its calls (dispatch, calibration gaps, idle
//! tails); a segment on the calling thread outside the runner
//! (serialization, checks) holds every worker idle, so it costs its
//! duration × threads. `unattributed` is what no span covers, so the
//! shares sum to one.

use crate::exec::{self, Agg, CellRun, JobTimes};
use crate::workloads::{Cell, Stop};
use crate::{metric, Metric, Reference};
use mac_sim::{EngineMode, FaultCounts, PopulationMode, TraceFilter};
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use wakeup_analysis::{Record, TraceSpec, WorkStats};
use wakeup_core::ConstructionCache;

/// Concrete twins are run for class cells up to this universe size.
const TWIN_MAX_N: u32 = 1 << 16;
/// Leading runs of a class cell re-run as its concrete twin.
const TWIN_RUNS: u64 = 64;

/// Per-cell sums over the instrumented passes.
#[derive(Default)]
struct CellAcc {
    wall: Duration,
    serial: Duration,
    times: JobTimes,
    batches: u64,
    steals: u64,
    calibration_runs: u64,
    reorder_peak: u64,
    runner_construction: Duration,
    /// Deterministic: identical on every pass, kept from the last one.
    work: WorkStats,
    faults: FaultCounts,
}

impl CellAcc {
    fn absorb(&mut self, r: CellRun) {
        self.wall += r.wall;
        self.times.merge(r.times);
        let stats = &r.summary.exec;
        self.batches += stats.batches;
        self.steals += stats.steals;
        self.calibration_runs += stats.calibration_runs;
        self.reorder_peak = self.reorder_peak.max(stats.reorder_peak);
        self.runner_construction += stats.phases.construction;
        self.work = r.summary.work;
        self.faults = r.summary.faults;
    }
}

/// A `Write` sink that only counts bytes.
struct CountingSink(Arc<AtomicU64>);

impl Write for CountingSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.fetch_add(buf.len() as u64, Ordering::Relaxed);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let i = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[i]
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Counts of checked operations.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

pub fn run(
    workload: &str,
    seed: u64,
    seconds: f64,
    cells: &[Cell],
    cache: &ConstructionCache,
    reference: &Reference,
) -> (Vec<Metric>, u64, u64) {
    let threads = crate::threads();
    let t = threads as f64;
    let mut tally = Tally::default();

    // Instrumented passes.
    let mut acc: Vec<CellAcc> = cells.iter().map(|_| CellAcc::default()).collect();
    let mut pass_wall = Duration::ZERO;
    let mut passes = 0u32;
    let budget = Duration::from_secs_f64(seconds);
    let started = Instant::now();
    while passes == 0 || started.elapsed() < budget {
        let t_pass = Instant::now();
        for (cell, a) in cells.iter().zip(acc.iter_mut()) {
            let r = exec::run_direct(cell, cache, EngineMode::Auto, threads);
            tally.check(r.agg.as_ref().is_some_and(|g| reference.matches(cell, g)));
            let t_serial = Instant::now();
            std::hint::black_box(r.summary.record().to_json());
            a.serial += t_serial.elapsed();
            a.absorb(r);
        }
        pass_wall += t_pass.elapsed();
        passes += 1;
    }
    let p = f64::from(passes);
    let per_pass = |d: Duration| secs(d) / p;

    // Fault layer: a faulty cell's engine time beyond its ideal twin's.
    let engine_of = |name: &str| {
        cells
            .iter()
            .position(|c| c.name == name)
            .map(|i| per_pass(acc[i].times.engine))
    };
    let mut channel = 0.0;
    for (cell, a) in cells.iter().zip(&acc) {
        if let Some(base) = cell.name.strip_suffix(" faults").and_then(engine_of) {
            let own = per_pass(a.times.engine);
            channel += (own - base).clamp(0.0, own);
        }
    }

    let sum = |f: &dyn Fn(&CellAcc) -> Duration| acc.iter().map(|a| per_pass(f(a))).sum::<f64>();
    let capacity = per_pass(pass_wall) * t;
    let core = sum(&|a| a.times.construct);
    let engine_all = sum(&|a| a.times.engine);
    let digest = sum(&|a| a.times.digest);
    let fold = sum(&|a| a.times.fold);
    let serial = sum(&|a| a.serial);
    let busy = sum(&|a| a.times.busy);
    let runner_wall = sum(&|a| a.wall);
    let runner = runner_wall * t - busy - fold;
    let engine = engine_all - channel;
    let analysis = digest + fold + serial * t;
    let unattributed = capacity - (core + engine + channel + runner + analysis);
    let layers = [
        ("core", core),
        ("mac_sim.engine", engine),
        ("mac_sim.channel", channel),
        ("runner", runner),
        ("analysis", analysis),
        ("unattributed", unattributed),
    ];

    let mut work = WorkStats::default();
    let mut faults = FaultCounts::default();
    for a in &acc {
        work.merge(&a.work);
        faults.merge(&a.faults);
    }
    let mut run_us: Vec<f64> = acc
        .iter()
        .flat_map(|a| a.times.run_us.iter().copied())
        .collect();
    run_us.sort_by(f64::total_cmp);

    let ensembles: Vec<Record> = cells
        .iter()
        .zip(&acc)
        .map(|(c, a)| {
            Record::new()
                .with("cell", c.name.as_str())
                .with("runs", c.runs())
                .with("wall_s", per_pass(a.wall))
                .with("busy_s", per_pass(a.times.busy))
                .with("construct_s", per_pass(a.times.construct))
                .with("engine_s", per_pass(a.times.engine))
                .with("digest_s", per_pass(a.times.digest))
                .with("fold_s", per_pass(a.times.fold))
                .with(
                    "runner_overhead_s",
                    per_pass(a.wall) * t - per_pass(a.times.busy) - per_pass(a.times.fold),
                )
                .with("runner_construction_s", per_pass(a.runner_construction))
                .with("calibration_runs", a.calibration_runs / u64::from(passes))
                .with("calibration_busy_s", per_pass(a.times.calibration_busy))
                .with("batches", a.batches / u64::from(passes))
                .with("steals", a.steals as f64 / p)
                .with("slots", a.work.slots)
                .with("polls", a.work.polls)
        })
        .collect();

    // Probes.
    // Only the burst cells can afford per-slot polling of every awake
    // station under forced `Dense`.
    let (modes, dense_s, bitslab_s, regret) = if workload == "burst-resolve" {
        forced_modes(cells, &acc, cache, threads, passes, reference, &mut tally)
    } else {
        (Vec::new(), 0.0, 0.0, 0.0)
    };
    let (twins, classes_ratio) = class_twins(cells, cache, threads, &mut tally);
    let (tracer_s, tracer_bytes) = tracer_probe(cells, cache, threads, reference, &mut tally);

    let core_share = core / capacity;
    let metrics = vec![
        metric("core.construct_s", core, "s"),
        metric("core.construct_share", core_share, "fraction"),
        metric("core.cache_entries", cache.len() as f64, "count"),
        metric("mac_sim.engine_s", engine, "s"),
        metric("mac_sim.engine.run_us_p50", quantile(&run_us, 0.5), "us"),
        metric("mac_sim.engine.run_us_p99", quantile(&run_us, 0.99), "us"),
        metric("mac_sim.engine.slots", work.slots as f64, "count"),
        metric("mac_sim.engine.polls", work.polls as f64, "count"),
        metric("mac_sim.engine.skipped", work.skipped as f64, "count"),
        metric(
            "mac_sim.engine.dense_steps",
            work.dense_steps as f64,
            "count",
        ),
        metric("mac_sim.engine.word_slots", work.word_slots as f64, "count"),
        metric(
            "mac_sim.engine.mode_switches",
            work.mode_switches as f64,
            "count",
        ),
        metric("mac_sim.engine.peak_units", work.peak_units as f64, "count"),
        metric(
            "mac_sim.engine.polls_per_slot",
            work.polls_per_slot(),
            "ratio",
        ),
        metric("mac_sim.engine.skip_frac", work.skip_fraction(), "fraction"),
        metric("mac_sim.engine.forced_dense_s", dense_s, "s"),
        metric("mac_sim.engine.forced_bitslab_s", bitslab_s, "s"),
        metric("mac_sim.engine.auto_regret", regret, "ratio"),
        metric(
            "mac_sim.engine.classes_over_concrete",
            classes_ratio,
            "ratio",
        ),
        metric("mac_sim.channel.fault_s", channel, "s"),
        metric("mac_sim.channel.erasures", faults.erasures as f64, "count"),
        metric("mac_sim.channel.captures", faults.captures as f64, "count"),
        metric(
            "mac_sim.channel.churn_crashes",
            faults.churn_crashes as f64,
            "count",
        ),
        metric(
            "mac_sim.channel.churn_rewakes",
            faults.churn_rewakes as f64,
            "count",
        ),
        metric("runner.overhead_s", runner, "s"),
        metric("runner.util", busy / (runner_wall * t), "fraction"),
        metric(
            "runner.batches",
            sum_u64(&acc, |a| a.batches) as f64 / p,
            "count",
        ),
        metric(
            "runner.steals",
            sum_u64(&acc, |a| a.steals) as f64 / p,
            "count",
        ),
        metric(
            "runner.calibration_runs",
            sum_u64(&acc, |a| a.calibration_runs) as f64 / p,
            "count",
        ),
        metric(
            "runner.reorder_peak",
            acc.iter().map(|a| a.reorder_peak).max().unwrap_or(0) as f64,
            "count",
        ),
        metric("analysis.digest_s", digest, "s"),
        metric("analysis.serial_s", serial, "s"),
        metric("mac_sim.tracer.overhead_s", tracer_s, "s"),
        metric("mac_sim.tracer.bytes", tracer_bytes as f64, "count"),
    ];

    eprintln!(
        "perfbench: traced {passes} passes, {:.4} s per pass, capacity {:.4} thread-s",
        per_pass(pass_wall),
        capacity
    );
    for (name, s) in &layers {
        eprintln!(
            "  layer {name:<18} {s:>10.4} thread-s  {:>6.1}%",
            100.0 * s / capacity
        );
    }

    let mut file = String::new();
    file.push_str(&format!(
        "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"input_set\": {}, \"threads\": {threads}, \
         \"passes\": {passes}, \"pass_wall_s\": {:?}, \"capacity_s\": {capacity:?},\n",
        seed % crate::workloads::SEED_CLASSES,
        per_pass(pass_wall)
    ));
    file.push_str(
        "\"note\": \"seconds are per pass; capacity = pass wall-clock x threads; layer self \
         times are thread-seconds and their shares sum to 1 with unattributed; ratios: \
         auto_regret = sum of Auto engine time / sum of each cell's best forced mode \
         (Dense or Bitslab), classes_over_concrete = class engine time / concrete engine \
         time on the same leading runs; 0 = not measured on this workload\",\n",
    );
    file.push_str("\"layers\": [\n");
    let rows: Vec<String> = layers
        .iter()
        .map(|(name, s)| {
            Record::new()
                .with("layer", *name)
                .with("self_s", *s)
                .with("share", s / capacity)
                .to_json()
        })
        .collect();
    file.push_str(&rows.join(",\n"));
    file.push_str("\n],\n\"metrics\": {");
    let ms: Vec<String> = metrics
        .iter()
        .map(|m| format!("\"{}\": {:?}", m.name, m.value))
        .collect();
    file.push_str(&ms.join(", "));
    file.push_str("},\n");
    for (key, rows) in [
        ("ensembles", &ensembles),
        ("modes", &modes),
        ("twins", &twins),
    ] {
        let rows: Vec<String> = rows.iter().map(Record::to_json).collect();
        file.push_str(&format!("\"{key}\": [\n{}\n],\n", rows.join(",\n")));
    }
    file.push_str(&format!(
        "\"checks\": {{\"attempted\": {}, \"failed\": {}}}}}\n",
        tally.attempted, tally.failed
    ));
    let dir = format!("{}/out", env!("CARGO_MANIFEST_DIR"));
    let path = format!("{dir}/{workload}.layers.json");
    match std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&path, file)) {
        Ok(()) => eprintln!("perfbench: wrote {path}"),
        Err(e) => {
            eprintln!("perfbench: writing {path} failed: {e}");
            tally.failed += 1;
        }
    }
    (metrics, tally.attempted, tally.failed)
}

fn sum_u64(acc: &[CellAcc], f: impl Fn(&CellAcc) -> u64) -> u64 {
    acc.iter().map(f).sum()
}

/// Re-run every concrete cell under forced `Dense` and `Bitslab`, check
/// both against the reference, and compare engine times with `Auto`'s.
fn forced_modes(
    cells: &[Cell],
    acc: &[CellAcc],
    cache: &ConstructionCache,
    threads: usize,
    passes: u32,
    reference: &Reference,
    tally: &mut Tally,
) -> (Vec<Record>, f64, f64, f64) {
    let mut rows = Vec::new();
    let (mut dense_s, mut bitslab_s, mut auto_s, mut best_s) = (0.0, 0.0, 0.0, 0.0);
    for (cell, a) in cells.iter().zip(acc) {
        if cell.population != PopulationMode::Concrete {
            continue;
        }
        let auto = secs(a.times.engine) / f64::from(passes);
        let dense = exec::run_direct(cell, cache, EngineMode::Dense, threads);
        let bitslab = exec::run_direct(cell, cache, EngineMode::Bitslab, threads);
        let ok = |r: &CellRun| r.agg.as_ref().is_some_and(|g| reference.matches(cell, g));
        let (dense_ok, bitslab_ok) = (ok(&dense), ok(&bitslab));
        tally.check(dense_ok);
        tally.check(bitslab_ok);
        let (d, b) = (secs(dense.times.engine), secs(bitslab.times.engine));
        let best = d.min(b);
        dense_s += d;
        bitslab_s += b;
        auto_s += auto;
        best_s += best;
        rows.push(
            Record::new()
                .with("cell", cell.name.as_str())
                .with("auto_s", auto)
                .with("dense_s", d)
                .with("bitslab_s", b)
                .with("best_forced", if d <= b { "dense" } else { "bitslab" })
                .with("auto_over_best", auto / best)
                .with("dense_ok", dense_ok)
                .with("bitslab_ok", bitslab_ok),
        );
    }
    (rows, dense_s, bitslab_s, auto_s / best_s)
}

/// Re-run the leading runs of every class cell with `n ≤ TWIN_MAX_N` under
/// the concrete population; outcomes must be identical.
fn class_twins(
    cells: &[Cell],
    cache: &ConstructionCache,
    threads: usize,
    tally: &mut Tally,
) -> (Vec<Record>, f64) {
    let mut rows = Vec::new();
    let (mut classes_s, mut concrete_s) = (0.0, 0.0);
    for cell in cells {
        if cell.population != PopulationMode::Classes || cell.n > TWIN_MAX_N {
            continue;
        }
        let runs = cell.runs().min(TWIN_RUNS);
        let classed = exec::run_direct(
            &cell.twin(PopulationMode::Classes, runs),
            cache,
            EngineMode::Auto,
            threads,
        );
        let concrete = exec::run_direct(
            &cell.twin(PopulationMode::Concrete, runs),
            cache,
            EngineMode::Auto,
            threads,
        );
        let same = classed.agg.is_some() && classed.agg == concrete.agg;
        tally.check(same);
        let (c, k) = (secs(classed.times.engine), secs(concrete.times.engine));
        classes_s += c;
        concrete_s += k;
        rows.push(
            Record::new()
                .with("cell", cell.name.as_str())
                .with("runs", runs)
                .with("classes_s", c)
                .with("concrete_s", k)
                .with("classes_over_concrete", c / k)
                .with("classes_peak_units", classed.summary.work.peak_units)
                .with("concrete_peak_units", concrete.summary.work.peak_units)
                .with("identical", same),
        );
    }
    let ratio = if concrete_s > 0.0 {
        classes_s / concrete_s
    } else {
        0.0
    };
    (rows, ratio)
}

/// Rounds of the tracer probe; each cell keeps its fastest untraced and
/// fastest traced ensemble, so one slow round does not read as overhead.
const TRACER_ROUNDS: usize = 3;

/// Run every first-success cell through `run_ensemble_stream` untraced and
/// with a full structured trace into a byte counter; traced outcomes must
/// match the reference too. Returns the traced-minus-untraced time and the
/// trace bytes of one round.
fn tracer_probe(
    cells: &[Cell],
    cache: &ConstructionCache,
    threads: usize,
    reference: &Reference,
    tally: &mut Tally,
) -> (f64, u64) {
    let bytes = Arc::new(AtomicU64::new(0));
    let mut overhead = 0.0;
    for cell in cells.iter().filter(|c| c.stop == Stop::FirstSuccess) {
        let (mut plain, mut traced) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..TRACER_ROUNDS {
            let t0 = Instant::now();
            let untraced = exec::run_e2e(cell, cache, threads, None);
            plain = plain.min(t0.elapsed().as_secs_f64());
            let spec = TraceSpec::to_writer(TraceFilter::all(), CountingSink(Arc::clone(&bytes)));
            let t1 = Instant::now();
            let with_trace = exec::run_e2e(cell, cache, threads, Some(spec));
            traced = traced.min(t1.elapsed().as_secs_f64());
            let ok = |r: Option<(Agg, u64)>| r.is_some_and(|(g, _)| reference.matches(cell, &g));
            tally.check(ok(untraced) && ok(with_trace));
        }
        overhead += traced - plain;
    }
    (
        overhead,
        bytes.load(Ordering::Relaxed) / TRACER_ROUNDS as u64,
    )
}
