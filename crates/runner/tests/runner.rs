//! Integration tests: scheduling correctness and determinism of the
//! work-stealing runner under adversarial thread/batch/placement settings.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;
use wakeup_runner::{BatchSize, OnlineStats, P2Quantile, Placement, Runner, VecCollector};

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

fn fold_all(threads: usize, batch: BatchSize, placement: Placement, runs: u64) -> (Vec<f64>, u64) {
    let mut out = VecCollector::with_capacity(runs as usize);
    let stats = Runner::new()
        .with_threads(threads)
        .with_batch(batch)
        .with_placement(placement)
        .run(runs, jagged, &mut out);
    assert_eq!(stats.runs, runs);
    (out.items, stats.steals)
}

#[test]
fn output_is_bit_identical_across_thread_counts() {
    let reference = fold_all(1, BatchSize::Fixed(8), Placement::Interleaved, 300).0;
    for threads in [2, 3, 8] {
        let (got, _) = fold_all(threads, BatchSize::Fixed(8), Placement::Interleaved, 300);
        assert_eq!(got, reference, "threads = {threads}");
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

fn prefold_all(
    threads: usize,
    batch: BatchSize,
    placement: Placement,
    runs: u64,
) -> (u64, u64, u64, OnlineStats) {
    let (mut count, mut sum, mut max) = (0u64, 0u64, 0u64);
    let mut stats = OnlineStats::new();
    let rs = Runner::new()
        .with_threads(threads)
        .with_batch(batch)
        .with_placement(placement)
        .run_folded(
            runs,
            jagged,
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
    // Sequential reference: same folds, no pre-folding at all.
    let mut ref_stats = OnlineStats::new();
    let (mut ref_sum, mut ref_max) = (0u64, 0u64);
    for i in 0..300u64 {
        ref_sum += i * i;
        ref_max = ref_max.max(i * 31 % 101);
        ref_stats.push(jagged(i));
    }
    for (threads, batch) in [
        (1, BatchSize::Fixed(8)),
        (3, BatchSize::Fixed(8)),
        (8, BatchSize::Fixed(1)),
        (4, BatchSize::default()),
    ] {
        let (count, sum, max, stats) = prefold_all(threads, batch, Placement::Interleaved, 300);
        assert_eq!(count, 300, "threads={threads}");
        assert_eq!(sum, ref_sum, "threads={threads}");
        assert_eq!(max, ref_max, "threads={threads}");
        // Bit-identical, not approximately equal: the replayed fold order
        // is the sequential order.
        assert_eq!(stats, ref_stats, "threads={threads}");
    }
}

#[test]
fn run_folded_under_forced_steals_matches_inline() {
    let reference = prefold_all(1, BatchSize::Fixed(1), Placement::Interleaved, 150);
    let got = prefold_all(4, BatchSize::Fixed(1), Placement::Packed, 150);
    assert_eq!(got.0, reference.0);
    assert_eq!(got.1, reference.1);
    assert_eq!(got.2, reference.2);
    assert_eq!(got.3, reference.3);
}

#[test]
fn forced_steal_schedule_is_deterministic() {
    // Packed placement + single-run batches: workers 1..T can only make
    // progress by stealing, so steal interleavings saturate.
    let reference = fold_all(1, BatchSize::Fixed(1), Placement::Interleaved, 200).0;
    let (got, steals) = fold_all(4, BatchSize::Fixed(1), Placement::Packed, 200);
    assert_eq!(got, reference);
    // With everything packed on shard 0, any parallelism at all implies
    // steals (single-core machines may still schedule worker 0 for all).
    if std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
        > 1
    {
        assert!(steals > 0, "packed placement should force steals");
    }
}

#[test]
fn half_deque_stealing_preserves_seed_order_on_a_skewed_workload() {
    // A cost ramp across the seed range, all packed on shard 0: thieves
    // bootstrap by taking half-deques, and the reorder buffer must still
    // fold bit-identically to the single-threaded reference.
    let ramped = |i: u64| {
        let mut acc = i as f64;
        for j in 0..i * 4 {
            acc += ((j ^ i) as f64).sqrt();
        }
        acc
    };
    let run = |threads: usize| {
        let mut out = VecCollector::with_capacity(300);
        let stats = Runner::new()
            .with_threads(threads)
            .with_batch(BatchSize::Fixed(2))
            .with_placement(Placement::Packed)
            .run(300, ramped, &mut out);
        (out.items, stats.steals)
    };
    let (reference, _) = run(1);
    assert_eq!(reference, (0..300).map(ramped).collect::<Vec<f64>>());
    for threads in [2, 4] {
        let (got, _) = run(threads);
        assert_eq!(got, reference, "threads = {threads}");
    }
}

#[test]
fn streaming_accumulators_match_sequential_folds_exactly() {
    // Welford mean/M2 and the P² markers are order-sensitive in the last
    // float bits; the ordered reduction must erase the thread count.
    let fold = |threads: usize| {
        let mut stats = OnlineStats::new();
        let mut p90 = P2Quantile::new(0.9);
        Runner::new()
            .with_threads(threads)
            .with_batch(BatchSize::Fixed(3))
            .run(
                500,
                jagged,
                wakeup_runner::collect::from_fn(|_, x: f64| {
                    stats.push(x);
                    p90.push(x);
                }),
            );
        (
            stats.mean().to_bits(),
            stats.sd().to_bits(),
            p90.value().unwrap().to_bits(),
        )
    };
    let a = fold(1);
    for threads in [2, 8] {
        assert_eq!(fold(threads), a, "threads = {threads}");
    }
}

#[test]
fn more_runs_than_threads_and_vice_versa() {
    // runs < threads: the pool is clamped, every index still runs once.
    let (items, _) = fold_all(16, BatchSize::Fixed(4), Placement::Interleaved, 3);
    assert_eq!(items.len(), 3);
    // runs = 1.
    let (items, _) = fold_all(8, BatchSize::default(), Placement::Interleaved, 1);
    assert_eq!(items.len(), 1);
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
    let (items, _) = fold_all(0, BatchSize::Fixed(2), Placement::Interleaved, 10);
    assert_eq!(items.len(), 10);
}

#[test]
fn auto_batching_covers_every_index_exactly_once() {
    let hits: Vec<AtomicUsize> = (0..1000).map(|_| AtomicUsize::new(0)).collect();
    let stats = Runner::new()
        .with_threads(4)
        .with_batch(BatchSize::Auto)
        .run(
            1000,
            |i| {
                hits[i as usize].fetch_add(1, Ordering::Relaxed);
                i
            },
            wakeup_runner::collect::from_fn(|i, item: u64| assert_eq!(i, item)),
        );
    assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    assert_eq!(stats.workers.iter().map(|w| w.runs).sum::<u64>(), 1000);
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
    let (items, stats) = Runner::new()
        .with_threads(5)
        .with_batch(BatchSize::Fixed(7))
        .map(100, |i| i * i);
    assert_eq!(items, (0..100).map(|i| i * i).collect::<Vec<_>>());
    assert!(stats.elapsed > Duration::ZERO);
}

#[test]
fn slow_early_batch_does_not_stall_or_corrupt_the_fold() {
    // One expensive run near the start exercises the admission window: the
    // reducer's frontier stalls on it while other workers race ahead, and
    // the fold must still come out in index order.
    let slow_jagged = |i: u64| {
        if i == 3 {
            std::thread::sleep(Duration::from_millis(120));
        }
        jagged(i)
    };
    let mut out = VecCollector::with_capacity(400);
    let stats = Runner::new()
        .with_threads(8)
        .with_batch(BatchSize::Fixed(1))
        .run(400, slow_jagged, &mut out);
    assert_eq!(stats.runs, 400);
    let reference: Vec<f64> = (0..400).map(jagged).collect();
    assert_eq!(out.items, reference);
}

#[test]
fn worker_panic_propagates_instead_of_hanging() {
    // A panicking job must poison the pool: parked workers bail, the scope
    // re-raises, and the caller sees the panic rather than a deadlock.
    // 400 single-run batches with a window of 32·4 = 128: workers must hit
    // the admission window after the dead batch freezes the frontier, so
    // the poison path (not just channel disconnect) is exercised.
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let mut out = VecCollector::with_capacity(400);
        Runner::new()
            .with_threads(4)
            .with_batch(BatchSize::Fixed(1))
            .run(
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
    // The reducer (collector code) panics at the moment a worker is parked
    // at the admission window: job 0 stalls the frontier long enough for
    // the other worker to race past frontier+window and park; folding
    // index 0 then panics in the collector. The run must unwind, not hang
    // on joining the parked worker.
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        Runner::new()
            .with_threads(2)
            .with_batch(BatchSize::Fixed(1))
            .run(
                1000,
                |i| {
                    if i == 0 {
                        std::thread::sleep(Duration::from_millis(300));
                    }
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
        .with_batch(BatchSize::Fixed(4))
        .with_progress(progress)
        .run(64, jagged, &mut out);
    let lines = capture.0.lock().unwrap();
    assert!(!lines.is_empty(), "no progress lines captured");
    assert!(
        lines.iter().all(|l| l.starts_with("[sink-test]")),
        "unlabelled line in {lines:?}"
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
        .with_batch(BatchSize::Fixed(2))
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
    // Packed placement funnels the whole queue into worker 0's shard, so
    // workers 1 and 2 must steal to run anything — but whether they get
    // the chance is a thread-scheduling race: worker 0 can drain 256 tiny
    // runs before the other workers finish spawning. The consistency
    // invariants are deterministic and assert on every attempt; the
    // stealing/buffering counters are retried until the race is won.
    let mut last_steals = 0;
    for _ in 0..32 {
        let mut out = VecCollector::with_capacity(256);
        let stats = Runner::new()
            .with_threads(3)
            .with_batch(BatchSize::Fixed(4))
            .with_placement(Placement::Packed)
            .run(256, jagged, &mut out);
        assert_eq!(stats.workers.len(), 3);
        assert_eq!(
            stats.workers.iter().map(|w| w.runs).sum::<u64>(),
            256,
            "worker runs must cover every run"
        );
        assert_eq!(
            stats.workers.iter().map(|w| w.steals).sum::<u64>(),
            stats.steals,
            "per-worker steals must sum to the queue total"
        );
        assert!(stats.phases.simulation >= stats.phases.reduction);
        assert!(stats.phases.simulation.as_nanos() > 0);
        // Workers 1 and 2 stole before running anything, deep steals
        // parked batches in their own shards, and completion buffered.
        if stats.steals >= 2
            && stats.workers.iter().skip(1).any(|w| w.queue_depth_hw > 0)
            && stats.reorder_peak >= 1
        {
            return;
        }
        last_steals = stats.steals;
    }
    panic!("workers 1 and 2 never stole in 32 packed sweeps (last: {last_steals} steals)");
}

#[test]
fn inline_path_reports_a_single_synthetic_worker() {
    let mut out = VecCollector::with_capacity(32);
    let stats = Runner::new()
        .with_threads(1)
        .with_batch(BatchSize::Fixed(8))
        .run(32, |i| i, &mut out);
    assert_eq!(stats.workers.len(), 1);
    assert_eq!(stats.workers[0].runs, 32);
    assert_eq!(stats.workers[0].steals, 0);
    assert_eq!(stats.reorder_peak, 0, "inline path never buffers");
}

#[test]
fn phase_timers_fit_inside_elapsed() {
    // Eight runs of ≥ 2 ms each: their wall time belongs to `simulation`,
    // and `construction` (batch choice + queue set-up) must not absorb any
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
