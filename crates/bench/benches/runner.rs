//! Ensemble-scheduling benchmarks of the batch-cursor runner
//! (`run_ensemble_stream`), the two gates on its batch rule:
//!
//! * `ensemble_scheduling` — static chunk-per-thread (the pre-runner
//!   scheduling, kept here as `run_chunked`) vs the runner, on the workload
//!   class that motivated the runner: many *short sparse runs* (round-robin
//!   at n = 4096) whose cost varies strongly with the seed, so a contiguous
//!   chunk of expensive runs lands on one thread while the others idle. The
//!   skew is monotone in the run index (cost ~ k⁴-shaped ramp): the last
//!   static chunk concentrates most of the total work, which the runner's
//!   small batches, claimed one at a time from a shared cursor, spread over
//!   every worker. On ≥ 4 cores the runner is expected ≥ 2× faster; on a
//!   single core both degenerate to the same sequential sweep.
//! * `many_cheap_runs` — a million sub-microsecond runs (round-robin at
//!   n = 64, one station per run; 10⁵ under `BENCH_QUICK`), where dispatch,
//!   batch payloads and the reorder buffer carry the cost. It prints the
//!   wall time with the batch size, batch count and reorder-buffer peak the
//!   runner chose; it asserts no timing.
//!
//! Both groups first assert that the runner's aggregates equal a
//! sequential fold's — the determinism contract the runner is built
//! around.

use criterion::{criterion_group, criterion_main, Criterion};
use mac_sim::metrics::{EnergyStats, OutcomeDigest};
use mac_sim::{Outcome, Protocol, Simulator};
use std::hint::black_box;
use std::time::Instant;
use wakeup_analysis::prelude::*;
use wakeup_core::prelude::*;
use wakeup_runner::OnlineStats;

const N: u32 = 4096;
const RUNS: u64 = 256;

/// Contention ramp: cheap runs early, expensive runs late (k up to ~n/2),
/// so static contiguous chunks are maximally imbalanced.
fn k_of(seed: u64) -> usize {
    let x = seed as f64 / RUNS as f64;
    4 + (2040.0 * x * x * x * x) as usize
}

fn spec(threads: usize) -> EnsembleSpec {
    EnsembleSpec::new(N, RUNS).with_threads(threads)
}

fn protocol_for(_seed: u64) -> Box<dyn Protocol> {
    Box::new(RoundRobin::new(N))
}

fn pattern_for(seed: u64) -> mac_sim::WakePattern {
    wakeup_bench::worst_rr_pattern(N, k_of(seed), 0)
}

/// What the correctness pin compares: the solved count, the mean latency's
/// bits (folded in seed order), the worst case, energy and work.
#[derive(Debug, PartialEq)]
struct Pin {
    solved: u64,
    mean_bits: u64,
    worst: u64,
    energy: EnergyStats,
    work: WorkStats,
}

impl Pin {
    fn of(s: &EnsembleSummary) -> Pin {
        Pin {
            solved: s.solved,
            mean_bits: s.mean().to_bits(),
            worst: s.worst,
            energy: s.energy.clone(),
            work: s.work,
        }
    }

    /// Fold outcomes in seed order, as the runner's reducer does.
    fn fold(outcomes: impl IntoIterator<Item = Outcome>) -> Pin {
        let mut latency = OnlineStats::new();
        let mut pin = Pin {
            solved: 0,
            mean_bits: 0,
            worst: 0,
            energy: EnergyStats::new(),
            work: WorkStats::default(),
        };
        for out in outcomes {
            let d = OutcomeDigest::of(&out);
            if let Some(l) = d.sample.solved() {
                pin.solved += 1;
                latency.push(l as f64);
            }
            pin.worst = pin.worst.max(d.sample.pessimistic());
            pin.energy.absorb_digest(&d);
            pin.work.absorb_digest(&d);
        }
        pin.mean_bits = latency.mean().to_bits();
        pin
    }
}

/// The pre-runner scheduling: the seed range split into one static
/// contiguous chunk per thread (`std::thread::scope`, no rebalancing), every
/// run's full `Outcome` materialized, then folded in seed order.
fn run_chunked(spec: &EnsembleSpec) -> Pin {
    let seeds: Vec<u64> = (0..spec.runs).map(|i| spec.seed_of(i)).collect();
    let chunk = seeds.len().div_ceil(spec.threads.max(1)).max(1);
    let mut outcomes: Vec<Option<Outcome>> = vec![None; seeds.len()];
    std::thread::scope(|scope| {
        for (seeds, out) in seeds.chunks(chunk).zip(outcomes.chunks_mut(chunk)) {
            let sim = Simulator::new(spec.sim.clone());
            scope.spawn(move || {
                for (&seed, slot) in seeds.iter().zip(out) {
                    let run = sim.run(protocol_for(seed).as_ref(), &pattern_for(seed), seed);
                    *slot = Some(run.expect("ensemble run failed validation"));
                }
            });
        }
    });
    Pin::fold(
        outcomes
            .into_iter()
            .map(|out| out.expect("worker thread left a hole")),
    )
}

fn ensemble_scheduling(c: &mut Criterion) {
    let threads = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    let mut group = c.benchmark_group("ensemble_scheduling");
    let runner = || run_ensemble_stream(&spec(threads), protocol_for, pattern_for);

    // Correctness pin before timing: both schedulers, any thread count,
    // same aggregates.
    assert_eq!(
        run_chunked(&spec(1)),
        Pin::of(&runner()),
        "schedulers must produce identical ensembles"
    );

    group.bench_function(format!("chunked_t{threads}_rr_n4096"), |b| {
        b.iter(|| black_box(run_chunked(&spec(threads))).solved)
    });
    group.bench_function(format!("runner_t{threads}_rr_n4096"), |b| {
        b.iter(|| black_box(runner()).runs)
    });
    group.finish();

    // A one-shot wall-clock comparison with the ratio spelled out (the
    // criterion lines above measure each path in isolation).
    let t0 = Instant::now();
    let a = run_chunked(&spec(threads));
    let chunked = t0.elapsed();
    let t0 = Instant::now();
    let b = runner();
    let runner_t = t0.elapsed();
    assert_eq!(a, Pin::of(&b));
    println!(
        "ensemble_scheduling summary: {threads} threads | chunked {chunked:?} | \
         runner {runner_t:?} | speedup {:.2}x \
         (expect ≥ 2x on ≥ 4 cores; ≈ 1x single-core)",
        chunked.as_secs_f64() / runner_t.as_secs_f64().max(1e-9)
    );
}

const SWEEP_N: u32 = 64;

fn sweep_protocol(_seed: u64) -> Box<dyn Protocol> {
    Box::new(RoundRobin::new(SWEEP_N))
}

/// One station per run, its id cycling with the seed, so latencies vary.
fn sweep_pattern(seed: u64) -> mac_sim::WakePattern {
    let id = mac_sim::StationId((seed % u64::from(SWEEP_N)) as u32);
    mac_sim::WakePattern::simultaneous(&[id], 0).expect("one in-range station")
}

fn many_cheap_runs(c: &mut Criterion) {
    let threads = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    let runs = if std::env::var_os("BENCH_QUICK").is_some() {
        100_000
    } else {
        1_000_000
    };
    let spec = EnsembleSpec::new(SWEEP_N, runs).with_threads(threads);
    let sweep = || run_ensemble_stream(&spec, sweep_protocol, sweep_pattern);

    // Correctness pin before timing: every run on this thread, folded as
    // it completes (no outcome vector, so a million runs stay small).
    let sim = Simulator::new(spec.sim.clone());
    let sequential = Pin::fold((0..runs).map(|i| {
        let seed = spec.seed_of(i);
        sim.run(sweep_protocol(seed).as_ref(), &sweep_pattern(seed), seed)
            .expect("sweep run failed validation")
    }));
    assert_eq!(
        sequential,
        Pin::of(&sweep()),
        "the runner must fold the sweep like a sequential loop"
    );

    let mut group = c.benchmark_group("many_cheap_runs");
    let mut exec = None;
    group.bench_function(format!("runner_t{threads}_rr_n64_x{runs}"), |b| {
        b.iter(|| {
            let s = black_box(sweep());
            exec = Some(s.exec);
            s.runs
        })
    });
    group.finish();
    let exec = exec.expect("the sweep ran");
    println!(
        "many_cheap_runs summary: {threads} threads | {runs} runs in {:?} | \
         batch {} | {} batches | reorder peak {} batches",
        exec.elapsed, exec.batch, exec.batches, exec.reorder_peak
    );
}

criterion_group!(benches, ensemble_scheduling, many_cheap_runs);
criterion_main!(benches);
