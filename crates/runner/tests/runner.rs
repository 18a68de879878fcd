//! Integration tests: scheduling correctness and determinism of the
//! batch-cursor runner across thread counts and batch sizes.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Duration;
use wakeup_runner::{OnlineStats, P2Quantile, Runner, VecCollector};

/// Thread counts every fold is checked at (1 is the inline path).
const THREADS: [usize; 4] = [1, 2, 3, 8];

/// Run counts on both sides of `8·threads` for every count in [`THREADS`]:
/// batch 1 at 7 runs, batch > 1 at 300 (and at 100 below 8 threads).
const RUNS: [u64; 3] = [7, 100, 300];

/// A job whose cost varies wildly with the index (the workload shape that
/// defeats static chunking) and whose result exercises float folds.
fn jagged(i: u64) -> f64 {
    // Busy work proportional to a pseudo-random weight.
    let weight = (i * 2654435761) % 97;
    let mut acc = i as f64;
    for j in 0..weight * 50 {
        acc += ((i + j) as f64).sqrt();
    }
    acc
}

/// A cost ramp across the index range: the last batches carry most of the
/// work, so the workers that finish early claim the cheap head's
/// successors while one worker is still inside an expensive batch.
fn ramped(i: u64) -> f64 {
    let mut acc = i as f64;
    for j in 0..i * 4 {
        acc += ((j ^ i) as f64).sqrt();
    }
    acc
}

/// A job under test: a pure function of the run index.
type Job = fn(u64) -> f64;

/// Every fold test runs both job shapes.
const JOBS: [(&str, Job); 2] = [("jagged", jagged), ("ramped", ramped)];

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

fn fold_all(threads: usize, runs: u64) -> Vec<f64> {
    let mut out = VecCollector::with_capacity(runs as usize);
    let stats = Runner::new()
        .with_threads(threads)
        .run(runs, jagged, &mut out);
    assert_eq!(stats.runs, runs);
    out.items
}

#[test]
fn output_is_bit_identical_across_thread_counts() {
    for threads in THREADS {
        let mut batches = Vec::new();
        for (name, job) in JOBS {
            for runs in RUNS {
                let reference: Vec<f64> = (0..runs).map(job).collect();
                let mut out = VecCollector::with_capacity(runs as usize);
                let stats = Runner::new().with_threads(threads).run(runs, job, &mut out);
                assert_eq!(
                    bits(&out.items),
                    bits(&reference),
                    "{name}: threads={threads} runs={runs} batch={}",
                    stats.batch
                );
                batches.push(stats.batch);
            }
        }
        // The premise of every fold test here: each thread count cuts
        // single-run batches and larger ones.
        assert!(batches.contains(&1), "threads={threads}: {batches:?}");
        assert!(
            batches.iter().any(|&b| b > 1),
            "threads={threads}: {batches:?}"
        );
    }
}

#[test]
fn half_deque_stealing_preserves_seed_order_on_a_skewed_workload() {
    // A cost ramp across the seed range (the shape that once forced
    // half-deque steals): workers that finish their cheap early batches
    // claim the expensive late ones while the reorder buffer holds their
    // results, and the fold must still equal the sequential one bit for bit.
    let reference: Vec<f64> = (0..300).map(ramped).collect();
    for threads in [1, 2, 4] {
        let mut out = VecCollector::with_capacity(300);
        let stats = Runner::new()
            .with_threads(threads)
            .run(300, ramped, &mut out);
        assert!(
            stats.batch > 1,
            "threads = {threads}: batch {}",
            stats.batch
        );
        assert_eq!(stats.batches, 300u64.div_ceil(stats.batch));
        assert_eq!(bits(&out.items), bits(&reference), "threads = {threads}");
    }
}

/// Pre-folded partial for the `run_folded` tests: integer aggregates merge
/// associatively; the raw observations ride along for order-exact FP replay.
#[derive(Default)]
struct Partial {
    count: u64,
    sum: u64,
    max: u64,
    obs: Vec<f64>,
}

fn prefold_all(threads: usize, runs: u64, job: Job) -> (u64, u64, u64, OnlineStats) {
    let (mut count, mut sum, mut max) = (0u64, 0u64, 0u64);
    let mut stats = OnlineStats::new();
    let rs = Runner::new().with_threads(threads).run_folded(
        runs,
        job,
        Partial::default,
        |a: &mut Partial, i, x: f64| {
            a.count += 1;
            a.sum += i * i;
            a.max = a.max.max(i * 31 % 101);
            a.obs.push(x);
        },
        wakeup_runner::collect::from_fn(|_start, p: Partial| {
            count += p.count;
            sum += p.sum;
            max = max.max(p.max);
            for x in p.obs {
                stats.push(x); // replayed in index order — FP-exact
            }
        }),
    );
    assert_eq!(rs.runs, runs);
    (count, sum, max, stats)
}

#[test]
fn run_folded_aggregates_are_bit_identical_across_thread_counts() {
    for (name, job) in JOBS {
        for runs in RUNS {
            // Sequential reference: same folds, no pre-folding at all.
            let mut ref_stats = OnlineStats::new();
            let (mut ref_sum, mut ref_max) = (0u64, 0u64);
            for i in 0..runs {
                ref_sum += i * i;
                ref_max = ref_max.max(i * 31 % 101);
                ref_stats.push(job(i));
            }
            for threads in THREADS {
                let (count, sum, max, stats) = prefold_all(threads, runs, job);
                let at = format!("{name}: threads={threads} runs={runs}");
                assert_eq!(count, runs, "{at}");
                assert_eq!(sum, ref_sum, "{at}");
                assert_eq!(max, ref_max, "{at}");
                // Bit-identical, not approximately equal: the replayed fold
                // order is the sequential order.
                assert_eq!(stats, ref_stats, "{at}");
            }
        }
    }
}

#[test]
fn streaming_accumulators_match_sequential_folds_exactly() {
    // Welford mean/M2 and the P² markers are order-sensitive in the last
    // float bits; the ordered reduction must erase the thread count.
    let digest = |stats: OnlineStats, p90: P2Quantile| {
        (
            stats.mean().to_bits(),
            stats.sd().to_bits(),
            p90.value().unwrap().to_bits(),
        )
    };
    let (mut stats, mut p90) = (OnlineStats::new(), P2Quantile::new(0.9));
    for x in (0..500).map(jagged) {
        stats.push(x);
        p90.push(x);
    }
    let reference = digest(stats, p90);
    for threads in THREADS {
        let (mut stats, mut p90) = (OnlineStats::new(), P2Quantile::new(0.9));
        Runner::new().with_threads(threads).run(
            500,
            jagged,
            wakeup_runner::collect::from_fn(|_, x: f64| {
                stats.push(x);
                p90.push(x);
            }),
        );
        assert_eq!(digest(stats, p90), reference, "threads = {threads}");
    }
}

#[test]
fn more_runs_than_threads_and_vice_versa() {
    // runs < threads: the pool is clamped, every index still runs once.
    assert_eq!(fold_all(16, 3).len(), 3);
    // runs = 1.
    assert_eq!(fold_all(8, 1).len(), 1);
}

#[test]
fn zero_runs_is_a_noop() {
    let mut out = VecCollector::<f64>::with_capacity(0);
    let stats = Runner::new().with_threads(0).run(0, jagged, &mut out);
    assert!(out.items.is_empty());
    assert_eq!(stats.runs, 0);
    assert_eq!(stats.steals, 0);
}

#[test]
fn zero_threads_is_clamped_not_a_panic() {
    assert_eq!(fold_all(0, 10).len(), 10);
}

#[test]
fn auto_batching_covers_every_index_exactly_once() {
    for threads in [2, 3, 4, 8] {
        for runs in [7u64, 100, 1000] {
            let hits: Vec<AtomicUsize> = (0..runs).map(|_| AtomicUsize::new(0)).collect();
            let stats = Runner::new().with_threads(threads).run(
                runs,
                |i| {
                    hits[i as usize].fetch_add(1, Ordering::Relaxed);
                    i
                },
                wakeup_runner::collect::from_fn(|i, item: u64| assert_eq!(i, item)),
            );
            let at = format!("threads={threads} runs={runs}");
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1), "{at}");
            assert_eq!(
                stats.workers.iter().map(|w| w.runs).sum::<u64>(),
                runs,
                "{at}"
            );
        }
    }
}

#[test]
fn no_run_executes_on_the_calling_thread() {
    let caller = std::thread::current().id();
    for threads in [2, 4] {
        for runs in [2u64, 3, 4, 8, 64] {
            let (ids, stats) = Runner::new()
                .with_threads(threads)
                .map(runs, |_| std::thread::current().id());
            assert!(
                ids.iter().all(|&id| id != caller),
                "threads={threads} runs={runs}: a run executed on the caller"
            );
            assert_eq!(
                stats.workers.iter().map(|w| w.runs).sum::<u64>(),
                runs,
                "threads={threads} runs={runs}"
            );
            assert_eq!(stats.calibration_runs, 0);
            assert_eq!(stats.steals, 0);
        }
    }
}

#[test]
fn auto_batch_is_the_balance_term() {
    for (runs, threads) in [(1u64, 2usize), (8, 2), (64, 2), (1000, 4), (8000, 2)] {
        let (_, stats) = Runner::new().with_threads(threads).map(runs, |i| i);
        let batch = (runs / (8 * threads as u64)).max(1);
        assert_eq!(stats.batch, batch, "runs={runs} threads={threads}");
        assert_eq!(stats.batches, runs.div_ceil(batch), "runs={runs}");
        // One run resolves one thread: it runs on the inline path.
        let resolved = if runs == 1 { 1 } else { threads };
        assert_eq!(stats.threads, resolved, "runs={runs} threads={threads}");
    }
}

#[test]
fn map_returns_results_in_index_order() {
    for (name, job) in JOBS {
        for runs in RUNS {
            let reference: Vec<f64> = (0..runs).map(job).collect();
            for threads in THREADS {
                let (items, stats) = Runner::new().with_threads(threads).map(runs, job);
                assert_eq!(
                    bits(&items),
                    bits(&reference),
                    "{name}: threads={threads} runs={runs}"
                );
                assert!(stats.elapsed > Duration::ZERO);
            }
        }
    }
}

#[test]
fn slow_early_batch_does_not_stall_or_corrupt_the_fold() {
    // One expensive run in the first batch: the reducer's fold stalls on it
    // while the other workers claim and finish every later batch, and the
    // fold must still come out in index order.
    let slow_jagged = |i: u64| {
        if i == 3 {
            std::thread::sleep(Duration::from_millis(120));
        }
        jagged(i)
    };
    let mut out = VecCollector::with_capacity(400);
    let stats = Runner::new()
        .with_threads(8)
        .run(400, slow_jagged, &mut out);
    assert_eq!(stats.runs, 400);
    let reference: Vec<f64> = (0..400).map(jagged).collect();
    assert_eq!(bits(&out.items), bits(&reference));
}

#[test]
fn worker_panic_propagates_instead_of_hanging() {
    // A panicking job kills its worker and drops that worker's sender; the
    // others drain the cursor, the channel disconnects while the reducer
    // still waits on the dead batch, and the scope re-raises: the caller
    // sees the panic rather than a deadlock.
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let mut out = VecCollector::with_capacity(400);
        Runner::new().with_threads(4).run(
            400,
            |i| {
                if i == 7 {
                    panic!("job 7 exploded");
                }
                i
            },
            &mut out,
        );
    }));
    assert!(result.is_err(), "panic must propagate to the caller");
}

#[test]
fn collector_panic_propagates_while_workers_are_parked() {
    // Two workers, 1000 runs in 17 batches of 62; every run after the
    // first batch sleeps 1 ms. The first batch reaches the reducer at once
    // and folding index 0 panics in the collector while both workers sleep
    // in later batches. The unwind drops the receiver before the scope
    // joins, so each worker stops at its next send: the call unwinds after
    // about three batches instead of running all 1000 runs or hanging.
    let executed = AtomicU64::new(0);
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        Runner::new().with_threads(2).run(
            1000,
            |i| {
                if i >= 62 {
                    std::thread::sleep(Duration::from_millis(1));
                }
                executed.fetch_add(1, Ordering::Relaxed);
                i
            },
            wakeup_runner::collect::from_fn(|i, _item: u64| {
                if i == 0 {
                    panic!("collector rejects index 0");
                }
            }),
        );
    }));
    assert!(result.is_err(), "collector panic must propagate");
    let executed = executed.into_inner();
    assert!(
        executed < 1000,
        "workers ran all {executed} runs after the collector panicked"
    );
}

#[test]
fn progress_lines_route_through_the_plugged_sink() {
    use std::sync::{Arc, Mutex};
    use wakeup_runner::{Progress, ProgressSink};

    #[derive(Default)]
    struct Capture(Mutex<Vec<String>>);
    impl ProgressSink for Capture {
        fn progress_line(&self, line: &str) {
            self.0.lock().unwrap().push(line.to_string());
        }
    }

    let capture = Arc::new(Capture::default());
    let progress = Progress::new(Duration::from_millis(0), "sink-test")
        .with_sink(Arc::clone(&capture) as Arc<dyn ProgressSink>);
    let mut out = VecCollector::with_capacity(64);
    Runner::new()
        .with_threads(2)
        .with_progress(progress)
        .run(64, jagged, &mut out);
    let lines = capture.0.lock().unwrap();
    assert!(!lines.is_empty(), "no progress lines captured");
    assert!(
        lines.iter().all(|l| l.starts_with("[sink-test]")),
        "unlabelled line in {lines:?}"
    );
    assert!(
        lines.iter().all(|l| !l.contains("steal")),
        "the runner has no steals to report: {lines:?}"
    );
    assert!(
        lines.last().unwrap().contains("done:"),
        "missing final summary line: {lines:?}"
    );
}

#[test]
fn p2_quantiles_track_exact_quantiles_on_a_small_ensemble() {
    // The satellite check: sketch vs exact on ensemble-sized samples.
    let samples: Vec<f64> = (0..200u64).map(jagged).collect();
    let mut sorted = samples.clone();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    for p in [0.5, 0.9, 0.99] {
        let mut sk = P2Quantile::new(p);
        for &x in &samples {
            sk.push(x);
        }
        let pos = p * (sorted.len() - 1) as f64;
        let exact = {
            let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
            let frac = pos - pos.floor();
            sorted[lo] * (1.0 - frac) + sorted[hi] * frac
        };
        let est = sk.value().unwrap();
        let spread = sorted[sorted.len() - 1] - sorted[0];
        assert!(
            (est - exact).abs() <= 0.05 * spread,
            "p={p}: sketch {est} vs exact {exact} (spread {spread})"
        );
    }
}

#[test]
fn final_100_percent_line_is_guaranteed_even_for_fast_sweeps() {
    use std::sync::{Arc, Mutex};
    use wakeup_runner::{Progress, ProgressSink};

    #[derive(Default)]
    struct Capture(Mutex<Vec<String>>);
    impl ProgressSink for Capture {
        fn progress_line(&self, line: &str) {
            self.0.lock().unwrap().push(line.to_string());
        }
    }

    // An interval far longer than the sweep: the throttled meter never
    // ticks, so completion must be reported by the final unconditional line.
    let capture = Arc::new(Capture::default());
    let progress = Progress::new(Duration::from_secs(3600), "fast")
        .with_sink(Arc::clone(&capture) as Arc<dyn ProgressSink>);
    let mut out = VecCollector::with_capacity(16);
    Runner::new()
        .with_threads(2)
        .with_progress(progress)
        .run(16, |i| i, &mut out);
    let lines = capture.0.lock().unwrap();
    assert!(
        lines.iter().any(|l| l.contains("16/16 runs (100.0%)")),
        "missing guaranteed 100% line in {lines:?}"
    );
    assert!(lines.last().unwrap().contains("done:"));
}

#[test]
fn per_worker_stats_phases_and_reorder_peak_are_populated() {
    let mut out = VecCollector::with_capacity(256);
    let stats = Runner::new().with_threads(3).run(256, jagged, &mut out);
    assert_eq!(stats.workers.len(), 3);
    assert_eq!(
        stats.workers.iter().map(|w| w.runs).sum::<u64>(),
        256,
        "worker runs must cover every run"
    );
    assert!(stats.phases.simulation >= stats.phases.reduction);
    assert!(stats.phases.simulation.as_nanos() > 0);
    // The reducer counts a payload into the buffer before it folds it, so
    // the worker path always reports a peak of at least one batch.
    assert!(stats.reorder_peak >= 1);
}

#[test]
fn inline_path_reports_a_single_synthetic_worker() {
    let mut out = VecCollector::with_capacity(32);
    let stats = Runner::new().with_threads(1).run(32, |i| i, &mut out);
    assert_eq!(stats.workers.len(), 1);
    assert_eq!(stats.workers[0].runs, 32);
    assert_eq!(stats.batch, 4);
    assert_eq!(stats.reorder_peak, 0, "inline path never buffers");
}

#[test]
fn phase_timers_fit_inside_elapsed() {
    // Eight runs of ≥ 2 ms each: their wall time belongs to `simulation`,
    // and `construction` (thread and batch-size choice) must not absorb any
    // of it — on the worker path and on the inline path.
    for threads in [1, 2] {
        let mut out = VecCollector::with_capacity(8);
        let stats = Runner::new().with_threads(threads).run(
            8,
            |i| {
                std::thread::sleep(Duration::from_millis(2));
                i
            },
            &mut out,
        );
        let (p, one_sleep) = (stats.phases, Duration::from_millis(2));
        assert!(
            p.construction + p.simulation <= stats.elapsed,
            "threads={threads}: {p:?} vs {:?}",
            stats.elapsed
        );
        assert!(p.reduction <= p.simulation, "threads={threads}: {p:?}");
        assert!(p.construction < one_sleep, "threads={threads}: {p:?}");
    }
}
