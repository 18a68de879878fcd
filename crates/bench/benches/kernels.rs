//! Criterion micro-benchmarks of the hot kernels behind every experiment:
//!
//! * `family_construction` — building selective families (random explicit,
//!   random oracle, Kautz–Singleton) at the sizes EXP-A/B consume, and the
//!   whole random doubling sequence an uncached `WakeupWithS::new` builds
//!   (memo hits for the lengths after the first iteration);
//! * `matrix_oracle` — waking-matrix membership evaluation, the inner loop
//!   of Scenario C (EXP-C);
//! * `simulator_throughput` — slots/second of the channel engine (all
//!   experiments);
//! * `protocol_latency` — end-to-end wake-up for each algorithm at a fixed
//!   configuration (the per-row cost of TAB-SUMMARY);
//! * `engine_dense_vs_sparse` — the same deterministic protocol run under
//!   forced dense polling vs the sparse slot-skipping path, at n = 4096
//!   with sparse wake patterns (the headline speedup of the sparse engine);
//! * `hybrid_policy` — the adaptive dense/sparse policy on burst-shaped
//!   runs: the wakeup_n simultaneous burst must run at ≥ ~1× dense (the
//!   former 0.6× regression), the gap-heavy rows keep their full sparse
//!   speedups, and a collision streak takes the near-n `wait_and_go`
//!   block to the word kernel (ratios asserted outside `BENCH_QUICK`;
//!   the streak row's counters always);
//! * `bitslab_burst` — the bit-parallel word kernel (`EngineMode::Bitslab`
//!   and the Auto engine's burst windows) vs scalar dense stepping on
//!   burst-shaped runs: ≥ 10× asserted on the block-burst rows outside
//!   `BENCH_QUICK` (the eval-bound rows — a long `wakeup_n` burst and a
//!   near-n `wait_and_go` block — and the no-skip row pin parity bounds),
//!   bit-identity pinned, and the summary written to `BENCH_kernels.json`
//!   when `BENCH_KERNELS_JSON` is set;
//! * `construction_cache` — a whole ensemble with and without the
//!   [`ConstructionCache`], bit-identity pinned: with family lengths sized
//!   once per process, an uncached ensemble that seeds its families per run
//!   must cost ≤ 1.25× a cached one (median of interleaved pairs);
//! * `mega_station` — the class-aggregated population engine on a block
//!   wake of half the universe at n = 2^24: the guard asserts a ≥ 100×
//!   memory reduction (stations represented per live simulation unit) for
//!   round-robin, with a bit-identity pin against the concrete engine at a
//!   size it can still afford; plus the cost of one selective slot (a
//!   `wakeup_with_s` block at odd `s`, in ns per swept member) with its
//!   counters pinned against the concrete engine at n = 2^16;
//! * `trace_overhead` — the tracing subsystem's zero-cost contract: the
//!   `NoopTracer` path must stay within 5% of the plain `run` (median of
//!   interleaved pairs) on the emission-dense round-robin block row, with
//!   a recording-tracer cost line for reference;
//! * `pattern_draws` — the cost of a random wake pattern: ns per ChaCha8
//!   `next_u64`, and ms per `IdChoice::Random` pick of 256 ids (an n-step
//!   Fisher–Yates shuffle, n − 1 draws) at n = 2^16 and 2^20. Timing only.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mac_sim::prelude::*;
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use selectors::prelude::*;
use std::hint::black_box;
use std::time::Instant;
use wakeup_analysis::prelude::*;
use wakeup_core::prelude::*;

/// Runs per timing: enough to be stable, or a smoke's worth under
/// `BENCH_QUICK`.
fn run_budget() -> u32 {
    if std::env::var_os("BENCH_QUICK").is_some() {
        20
    } else {
        2000
    }
}

/// Mean per-run wall-clock of `iters` runs of `f`.
fn mean_run_time<F: FnMut() -> Outcome>(iters: u32, mut f: F) -> f64 {
    let t0 = Instant::now();
    for _ in 0..iters {
        black_box(f());
    }
    t0.elapsed().as_secs_f64() / f64::from(iters)
}

/// Mean per-run wall-clock of `f` over the full run budget, after one
/// warmup run whose outcome is returned.
fn time_runs<F: FnMut() -> Outcome>(mut f: F) -> (f64, Outcome) {
    let out = f(); // warmup
    (mean_run_time(run_budget(), f), out)
}

/// Interleaved `(a, b)` timing pairs behind each noisy ratio floor.
const PAIRS: usize = 15;

/// One sample of a paired row: the run budget spread over the [`PAIRS`]
/// pairs, so timing a row in pairs costs about what timing each side once
/// over the whole budget did.
fn sample_runs<F: FnMut() -> Outcome>(f: F) -> f64 {
    mean_run_time((run_budget() / PAIRS as u32).max(1), f)
}

/// Time `a` and `b` over [`PAIRS`] adjacent pairs, flipping which runs
/// first every pair. Returns the median time of each and the median of the
/// per-pair ratios `a / b`: the two timings of a pair share the box's
/// load, so the ratio's median resists the drift and outliers that make
/// one shot of each flaky.
fn median_pair_ratio(mut a: impl FnMut() -> f64, mut b: impl FnMut() -> f64) -> (f64, f64, f64) {
    let mut ta = Vec::with_capacity(PAIRS);
    let mut tb = Vec::with_capacity(PAIRS);
    let mut ratios = Vec::with_capacity(PAIRS);
    for i in 0..PAIRS {
        let (x, y) = if i % 2 == 0 {
            (a(), b())
        } else {
            let y = b();
            (a(), y)
        };
        ta.push(x);
        tb.push(y);
        ratios.push(x / y.max(1e-12));
    }
    let median = |v: &mut Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    (median(&mut ta), median(&mut tb), median(&mut ratios))
}

/// Timing assertions are skipped in `BENCH_QUICK` smoke mode (single
/// iterations are too noisy); the deterministic counter pins always run.
fn assert_timing(cond: bool, msg: &str) {
    if std::env::var_os("BENCH_QUICK").is_none() {
        assert!(cond, "{msg}");
    } else if !cond {
        eprintln!("BENCH_QUICK: timing expectation not met (ignored): {msg}");
    }
}

fn family_construction(c: &mut Criterion) {
    let mut group = c.benchmark_group("family_construction");
    for &(n, k) in &[(1024u32, 8u32), (4096, 32)] {
        group.bench_with_input(
            BenchmarkId::new("random_explicit", format!("n{n}_k{k}")),
            &(n, k),
            |b, &(n, k)| {
                b.iter(|| {
                    black_box(
                        RandomFamilyBuilder::new(n, k)
                            .seed(1)
                            .build_explicit()
                            .len(),
                    )
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("random_oracle", format!("n{n}_k{k}")),
            &(n, k),
            |b, &(n, k)| {
                b.iter(|| black_box(RandomFamilyBuilder::new(n, k).seed(1).build_oracle().len()))
            },
        );
        group.bench_with_input(
            BenchmarkId::new("kautz_singleton", format!("n{n}_k{k}")),
            &(n, k),
            |b, &(n, k)| b.iter(|| black_box(KautzSingleton::new(n, k).len())),
        );
    }
    // What an uncached `WakeupWithS::new` pays per run for the doubling
    // sequence F₁ … F_{⌈log n⌉}: the first iteration sizes every family,
    // every later one hits the process-wide length memo.
    let provider = FamilyProvider::default();
    for n in [1u32 << 16, 1 << 20] {
        let top = selectors::math::log_n(u64::from(n));
        group.bench_with_input(
            BenchmarkId::new("doubling_sequence", format!("n{n}_top{top}")),
            &n,
            |b, &n| b.iter(|| black_box(provider.doubling_sequence(n, top).len())),
        );
    }
    group.finish();
}

fn matrix_oracle(c: &mut Criterion) {
    let mut group = c.benchmark_group("matrix_oracle");
    for &n in &[1024u32, 65536] {
        let matrix = WakingMatrix::new(MatrixParams::new(n));
        group.bench_with_input(BenchmarkId::new("member", n), &matrix, |b, m| {
            let mut j = 0u64;
            b.iter(|| {
                j = j.wrapping_add(0x9E37_79B9);
                black_box(m.member(
                    1 + (j % u64::from(m.rows())) as u32,
                    j,
                    (j % u64::from(n)) as u32,
                ))
            })
        });
        group.bench_with_input(BenchmarkId::new("transmits", n), &matrix, |b, m| {
            let mut t = 0u64;
            b.iter(|| {
                t += 17;
                black_box(m.transmits((t % u64::from(n)) as u32, 0, t))
            })
        });
    }
    group.finish();
}

fn simulator_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulator_throughput");
    // A never-succeeding workload isolates the engine cost per slot.
    struct Listeners;
    struct L;
    impl Station for L {
        fn wake(&mut self, _s: Slot) {}
        fn act(&mut self, _t: Slot) -> Action {
            Action::Listen
        }
    }
    impl Protocol for Listeners {
        fn station(&self, _id: StationId, _seed: u64) -> Box<dyn Station> {
            Box::new(L)
        }
        fn name(&self) -> String {
            "listeners".into()
        }
    }
    for &k in &[4usize, 64] {
        group.bench_with_input(BenchmarkId::new("slots_10k", k), &k, |b, &k| {
            let n = 1024u32;
            let ids: Vec<StationId> = (0..k as u32).map(StationId).collect();
            let pattern = WakePattern::simultaneous(&ids, 0).unwrap();
            let sim = Simulator::new(SimConfig::new(n).with_max_slots(10_000));
            b.iter(|| black_box(sim.run(&Listeners, &pattern, 0).unwrap().slots_simulated))
        });
    }
    group.finish();
}

fn protocol_latency(c: &mut Criterion) {
    let mut group = c.benchmark_group("protocol_latency");
    let n = 1024u32;
    let k = 8usize;
    let ids: Vec<StationId> = (0..k as u32).map(|i| StationId(i * 100)).collect();
    let pattern = WakePattern::simultaneous(&ids, 0).unwrap();
    let sim = Simulator::new(SimConfig::new(n));

    let protocols: Vec<(&str, Box<dyn Protocol>)> = vec![
        ("round_robin", Box::new(RoundRobin::new(n))),
        (
            "wakeup_with_s",
            Box::new(WakeupWithS::new(n, 0, FamilyProvider::default())),
        ),
        (
            "wakeup_with_k",
            Box::new(WakeupWithK::new(n, k as u32, FamilyProvider::default())),
        ),
        ("wakeup_n", Box::new(WakeupN::new(MatrixParams::new(n)))),
        ("rpd", Box::new(Rpd::new(n))),
    ];
    for (name, proto) in &protocols {
        group.bench_function(*name, |b| {
            b.iter(|| black_box(sim.run(proto.as_ref(), &pattern, 1).unwrap().first_success))
        });
    }
    group.finish();
}

fn engine_dense_vs_sparse(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_dense_vs_sparse");
    let n = 4096u32;
    let k = 8usize;

    // Adversarial-for-round-robin sparse pattern: the k stations owning the
    // last turns of the cycle wake together, so the dense engine grinds
    // through ~n silent slots polling k stations each, while the sparse
    // engine jumps straight to the first owned turn.
    let rr_ids: Vec<StationId> = (n - k as u32..n).map(StationId).collect();
    let rr_pattern = WakePattern::simultaneous(&rr_ids, 0).unwrap();
    for (label, mode) in [("dense", EngineMode::Dense), ("sparse", EngineMode::Auto)] {
        group.bench_with_input(
            BenchmarkId::new("round_robin_n4096_k8", label),
            &mode,
            |b, &mode| {
                let sim = Simulator::new(SimConfig::new(n).with_engine(mode));
                b.iter(|| {
                    black_box(
                        sim.run(&RoundRobin::new(n), &rr_pattern, 0)
                            .unwrap()
                            .first_success,
                    )
                })
            },
        );
    }

    // The complete Scenario B algorithm on a staggered sparse pattern.
    let ids: Vec<StationId> = (0..k as u32).map(|i| StationId(i * 512 + 300)).collect();
    let pattern = WakePattern::staggered(&ids, 3, 97).unwrap();
    for (label, mode) in [("dense", EngineMode::Dense), ("sparse", EngineMode::Auto)] {
        group.bench_with_input(
            BenchmarkId::new("wakeup_with_k_n4096_k8", label),
            &mode,
            |b, &mode| {
                let sim = Simulator::new(SimConfig::new(n).with_engine(mode));
                let proto = WakeupWithK::new(n, k as u32, FamilyProvider::default());
                b.iter(|| black_box(sim.run(&proto, &pattern, 0).unwrap().first_success))
            },
        );
    }

    // Scenario C (waking matrix) on a simultaneous sparse burst — the
    // hardest shape for event-driven execution: success lands within a few
    // slots, so there is nothing to skip and the hint machinery is pure
    // overhead. Expect ≈ parity, not a win (see the staggered row for the
    // shape where the per-row PRF jumps pay off).
    let c_ids: Vec<StationId> = (0..k as u32).map(|i| StationId(i * 500 + 17)).collect();
    let c_pattern = WakePattern::simultaneous(&c_ids, 11).unwrap();
    for (label, mode) in [("dense", EngineMode::Dense), ("sparse", EngineMode::Auto)] {
        group.bench_with_input(
            BenchmarkId::new("wakeup_n_n4096_k8", label),
            &mode,
            |b, &mode| {
                let sim = Simulator::new(SimConfig::new(n).with_engine(mode));
                let proto = WakeupN::new(MatrixParams::new(n));
                b.iter(|| black_box(sim.run(&proto, &c_pattern, 0).unwrap().first_success))
            },
        );
    }

    // Scenario C with staggered arrivals: silent stretches between wakes
    // are skipped via the per-row PRF jumps.
    let stag_pattern = WakePattern::staggered(&c_ids, 3, 997).unwrap();
    for (label, mode) in [("dense", EngineMode::Dense), ("sparse", EngineMode::Auto)] {
        group.bench_with_input(
            BenchmarkId::new("wakeup_n_staggered_n4096_k8", label),
            &mode,
            |b, &mode| {
                let sim = Simulator::new(SimConfig::new(n).with_engine(mode));
                let proto = WakeupN::new(MatrixParams::new(n));
                b.iter(|| black_box(sim.run(&proto, &stag_pattern, 0).unwrap().first_success))
            },
        );
    }

    // Full conflict resolution (Komlós–Greenberg) under AllResolved: the
    // feedback-driven workload that hints with retirement moved off the
    // forced-dense path.
    let kg_ids: Vec<StationId> = (0..16u32).map(|i| StationId(i * 60 + 7)).collect();
    let kg_pattern = WakePattern::simultaneous(&kg_ids, 9).unwrap();
    for (label, mode) in [("dense", EngineMode::Dense), ("sparse", EngineMode::Auto)] {
        group.bench_with_input(
            BenchmarkId::new("full_resolution_n4096_k16", label),
            &mode,
            |b, &mode| {
                let sim = Simulator::new(
                    SimConfig::new(n)
                        .with_max_slots(500_000)
                        .until_all_resolved()
                        .with_engine(mode),
                );
                let proto = FullResolution::new(n, 16, FamilyProvider::default());
                b.iter(|| {
                    black_box(
                        sim.run(&proto, &kg_pattern, 0)
                            .unwrap()
                            .all_resolved_at
                            .unwrap(),
                    )
                })
            },
        );
    }

    // Retiring round-robin at n = 2^16 under AllResolved: Θ(n) silent
    // slots between the k turns — the shape where skipping is
    // transformative (dense is O(n·k) polls, sparse is O(k) events).
    let big_n = 65536u32;
    let rr_ids2: Vec<StationId> = (0..8u32).map(|i| StationId(i * 8000 + 11)).collect();
    let rr_pattern2 = WakePattern::simultaneous(&rr_ids2, 5).unwrap();
    for (label, mode) in [("dense", EngineMode::Dense), ("sparse", EngineMode::Auto)] {
        group.bench_with_input(
            BenchmarkId::new("retiring_rr_n65536_k8", label),
            &mode,
            |b, &mode| {
                let sim = Simulator::new(
                    SimConfig::new(big_n)
                        .with_max_slots(500_000)
                        .until_all_resolved()
                        .with_engine(mode),
                );
                let proto = RetiringRoundRobin::new(big_n);
                b.iter(|| {
                    black_box(
                        sim.run(&proto, &rr_pattern2, 0)
                            .unwrap()
                            .all_resolved_at
                            .unwrap(),
                    )
                })
            },
        );
    }
    group.finish();
}

fn hybrid_policy(_c: &mut Criterion) {
    let n = 4096u32;
    let k = 8usize;
    let ids: Vec<StationId> = (0..k as u32).map(|i| StationId(i * 500 + 17)).collect();
    let auto_sim = Simulator::new(SimConfig::new(n));
    let dense_sim = Simulator::new(SimConfig::new(n).with_engine(EngineMode::Dense));

    // Row 1 — the former 0.6× regression: the wakeup_n simultaneous burst
    // succeeds a few slots after the window boundary, so there is nothing
    // to skip; the adaptive engine must detect the batch at wake time and
    // run it at dense speed.
    let burst = WakePattern::simultaneous(&ids, 11).unwrap();
    let proto = WakeupN::new(MatrixParams::new(n));
    let auto_out = auto_sim.run(&proto, &burst, 0).unwrap();
    let dense_out = dense_sim.run(&proto, &burst, 0).unwrap();
    assert_eq!(auto_out.first_success, dense_out.first_success);
    assert_eq!(auto_out.transmissions, dense_out.transmissions);
    assert!(auto_out.mode_switches > 0, "burst not detected at wake");
    assert!(
        auto_out.dense_steps + auto_out.word_slots > 0,
        "burst slots not dense-stepped"
    );
    let (dense_t, auto_t, ratio) = median_pair_ratio(
        || time_runs(|| dense_sim.run(&proto, &burst, 0).unwrap()).0,
        || time_runs(|| auto_sim.run(&proto, &burst, 0).unwrap()).0,
    );
    println!(
        "hybrid_policy/wakeup_n_burst_n4096_k8      auto {:.2}us dense {:.2}us  ratio {ratio:.2}x (target >= ~1x, was ~0.6x; median of {PAIRS} pairs)",
        auto_t * 1e6,
        dense_t * 1e6,
    );
    // Floor 0.75: the row is ~1us, so run-to-run jitter spans ~0.85-1.25x;
    // the floor rejects the structural 0.6x regression, not the noise.
    assert_timing(
        ratio >= 0.75,
        &format!("hybrid burst ratio {ratio:.2}x below ~1x of dense"),
    );

    // Row 2 — gap-heavy guard: the adaptive policy must not cost the
    // round-robin block pattern its sparse speedup.
    let rr_ids: Vec<StationId> = (n - k as u32..n).map(StationId).collect();
    let rr_pattern = WakePattern::simultaneous(&rr_ids, 0).unwrap();
    let rr = RoundRobin::new(n);
    let rr_auto = auto_sim.run(&rr, &rr_pattern, 0).unwrap();
    assert_eq!(rr_auto.polls, 1, "gap-heavy RR run left the sparse path");
    assert_eq!(rr_auto.dense_steps, 0);
    let (rr_dense_t, rr_auto_t, rr_ratio) = median_pair_ratio(
        || sample_runs(|| dense_sim.run(&rr, &rr_pattern, 0).unwrap()),
        || sample_runs(|| auto_sim.run(&rr, &rr_pattern, 0).unwrap()),
    );
    println!(
        "hybrid_policy/round_robin_n4096_k8         auto {:.2}us dense {:.2}us  ratio {rr_ratio:.0}x (gap-heavy, expect >> 50x; median of {PAIRS} pairs)",
        rr_auto_t * 1e6,
        rr_dense_t * 1e6,
    );
    assert_timing(
        rr_ratio >= 50.0,
        &format!("gap-heavy RR speedup collapsed to {rr_ratio:.0}x"),
    );

    // Row 3 — gap-heavy guard at event granularity: staggered Scenario C
    // keeps its sparse win (per-row PRF jumps over the inter-wake gaps).
    let stag = WakePattern::staggered(&ids, 3, 997).unwrap();
    let st_auto = auto_sim.run(&proto, &stag, 0).unwrap();
    assert!(st_auto.skipped_slots > 0, "staggered run did not skip");
    let (st_dense_t, st_auto_t, st_ratio) = median_pair_ratio(
        || sample_runs(|| dense_sim.run(&proto, &stag, 0).unwrap()),
        || sample_runs(|| auto_sim.run(&proto, &stag, 0).unwrap()),
    );
    println!(
        "hybrid_policy/wakeup_n_staggered_n4096_k8  auto {:.2}us dense {:.2}us  ratio {st_ratio:.2}x (expect >= ~1.4x; median of {PAIRS} pairs)",
        st_auto_t * 1e6,
        st_dense_t * 1e6,
    );
    assert_timing(
        st_ratio >= 1.0,
        &format!("staggered Scenario C lost its sparse win ({st_ratio:.2}x)"),
    );

    // Row 4 — the Komlós–Greenberg resolver keeps its skipping. Its hints
    // are unconditional (a station changes only at its own success), so its
    // back-to-back collisions open a streak window that its closed-form
    // tile fill carries without polls, and the silent stretches between
    // contested ones stay on the heap: far fewer polls than dense, and no
    // slower.
    let kg_ids: Vec<StationId> = (0..16u32).map(|i| StationId(i * 60 + 7)).collect();
    let kg_pattern = WakePattern::simultaneous(&kg_ids, 9).unwrap();
    let kg = FullResolution::new(n, 16, FamilyProvider::default());
    let mk_kg = |mode: EngineMode| {
        Simulator::new(
            SimConfig::new(n)
                .with_max_slots(500_000)
                .until_all_resolved()
                .with_engine(mode),
        )
    };
    let kg_auto_sim = mk_kg(EngineMode::Auto);
    let kg_dense_sim = mk_kg(EngineMode::Dense);
    let kg_auto = kg_auto_sim.run(&kg, &kg_pattern, 3).unwrap();
    let kg_dense = kg_dense_sim.run(&kg, &kg_pattern, 3).unwrap();
    assert_eq!(kg_auto.all_resolved_at, kg_dense.all_resolved_at);
    assert!(
        kg_auto.polls * 10 < kg_dense.polls,
        "KG resolver fell off the sparse path ({} vs {} polls)",
        kg_auto.polls,
        kg_dense.polls
    );
    let (kg_dense_t, kg_auto_t, kg_ratio) = median_pair_ratio(
        || sample_runs(|| kg_dense_sim.run(&kg, &kg_pattern, 3).unwrap()),
        || sample_runs(|| kg_auto_sim.run(&kg, &kg_pattern, 3).unwrap()),
    );
    println!(
        "hybrid_policy/full_resolution_n4096_k16    auto {:.2}us dense {:.2}us  ratio {kg_ratio:.2}x (expect >= ~1x; median of {PAIRS} pairs)",
        kg_auto_t * 1e6,
        kg_dense_t * 1e6,
    );
    assert_timing(
        kg_ratio >= 0.9,
        &format!("KG resolver regressed to {kg_ratio:.2}x of dense"),
    );

    // Row 5 — a collision streak: the near-n wait_and_go block woken one
    // slot past a family boundary waits for the next boundary (no
    // wake-time burst), then collides slot after slot. A run of such
    // collision events must open a burst window that the word kernel
    // carries, at forced-Bitslab speed rather than one heap event per slot.
    let wag_n = 256u32;
    let wag = WaitAndGo::new(wag_n, wag_n - 16, FamilyProvider::default());
    let wag_pattern = WakePattern::range(16, wag_n, 1).unwrap();
    let wag_auto_sim = Simulator::new(SimConfig::new(wag_n));
    let wag_slab_sim = Simulator::new(SimConfig::new(wag_n).with_engine(EngineMode::Bitslab));
    let wag_auto = wag_auto_sim.run(&wag, &wag_pattern, 0).unwrap();
    let wag_slab = wag_slab_sim.run(&wag, &wag_pattern, 0).unwrap();
    assert_eq!(wag_auto.first_success, wag_slab.first_success);
    assert_eq!(wag_auto.transmissions, wag_slab.transmissions);
    assert!(
        wag_auto.word_slots > 0,
        "collision streak never reached the word kernel"
    );
    assert!(
        wag_auto.polls * 10 < wag_auto.transmissions,
        "collision streak stayed on the heap ({} polls for {} transmissions)",
        wag_auto.polls,
        wag_auto.transmissions
    );
    // One run per sample: a run takes milliseconds.
    let once = |sim: &Simulator| {
        let t0 = Instant::now();
        black_box(sim.run(&wag, &wag_pattern, 0).unwrap());
        t0.elapsed().as_secs_f64()
    };
    let (wag_auto_t, wag_slab_t, wag_ratio) =
        median_pair_ratio(|| once(&wag_auto_sim), || once(&wag_slab_sim));
    println!(
        "hybrid_policy/wait_and_go_streak_n256_k240 auto {:.2}us bitslab {:.2}us  ratio {wag_ratio:.2}x of bitslab (expect <= 1.2x, median of {PAIRS} pairs)",
        wag_auto_t * 1e6,
        wag_slab_t * 1e6,
    );
    assert_timing(
        wag_ratio <= 1.2,
        &format!("collision streak ran at {wag_ratio:.2}x of forced Bitslab"),
    );
}

fn bitslab_burst(_c: &mut Criterion) {
    // Guard rows — the bit-parallel word kernel on burst-shaped runs:
    // `EngineMode::Bitslab` resolves up-to-64-slot tiles by popcount where
    // the scalar dense engine polls every awake station per slot. The
    // block-burst rows must show a ≥ 10× speedup over scalar dense
    // stepping, the eval-bound and no-skip rows pin parity bounds
    // (asserted outside BENCH_QUICK), all with bit-identical outcomes; set
    // BENCH_KERNELS_JSON=<path> to also write the per-PR summary artifact.
    let n = 4096u32;
    let mut rows: Vec<(&'static str, f64, f64, f64)> = Vec::new();

    let row = |name: &'static str,
               cfg: SimConfig,
               proto: &dyn Protocol,
               pattern: &WakePattern,
               floor: f64,
               rows: &mut Vec<(&'static str, f64, f64, f64)>| {
        let scalar_sim = Simulator::new(cfg.clone().with_engine(EngineMode::Dense));
        let slab_sim = Simulator::new(cfg.with_engine(EngineMode::Bitslab));
        let scalar = scalar_sim.run(proto, pattern, 0).unwrap();
        let slab = slab_sim.run(proto, pattern, 0).unwrap();
        // Bit-identity pins (transcripts and channel-tier trace bytes are
        // pinned by tests/bitslab_equiv.rs; the counters here keep the
        // perf guard self-contained).
        assert_eq!(slab.first_success, scalar.first_success, "{name}");
        assert_eq!(slab.transmissions, scalar.transmissions, "{name}");
        assert_eq!(slab.collisions, scalar.collisions, "{name}");
        assert_eq!(slab.slots_simulated, scalar.slots_simulated, "{name}");
        assert_eq!(slab.all_resolved_at, scalar.all_resolved_at, "{name}");
        assert!(slab.word_slots > 0, "{name}: kernel never engaged");
        assert_eq!(scalar.word_slots, 0, "{name}: scalar ran the kernel");
        let (scalar_t, slab_t, ratio) = median_pair_ratio(
            || sample_runs(|| scalar_sim.run(proto, pattern, 0).unwrap()),
            || sample_runs(|| slab_sim.run(proto, pattern, 0).unwrap()),
        );
        println!(
            "bitslab_burst/{name}  scalar {:.2}us bitslab {:.2}us  ratio {ratio:.1}x (floor {floor}x, median of {PAIRS} pairs)",
            scalar_t * 1e6,
            slab_t * 1e6,
        );
        assert_timing(
            ratio >= floor,
            &format!("bitslab {name} ratio {ratio:.1}x below the {floor}x floor"),
        );
        rows.push((name, scalar_t * 1e6, slab_t * 1e6, ratio));
    };

    // Row 1 — the worst-case round-robin block: the k last-turn owners wake
    // together, so the channel is a ~n-slot burst of evaluated silence
    // before the first success. Scalar dense pays k virtual polls plus the
    // per-slot channel machinery every slot; the kernel fills k closed-form
    // bit columns per tile and resolves the silence by popcount.
    let k = 32u32;
    let rr_ids: Vec<StationId> = (n - k..n).map(StationId).collect();
    let rr_pattern = WakePattern::simultaneous(&rr_ids, 0).unwrap();
    row(
        "round_robin_block_n4096_k32",
        SimConfig::new(n),
        &RoundRobin::new(n),
        &rr_pattern,
        10.0,
        &mut rows,
    );

    // Row 2 — mid-burst retirement: retiring round-robin under AllResolved
    // on the same block. Every success closes the tile, so the burst runs
    // as k short tiles — through the kernel's *generic* fill (the station
    // has no word of its own: its hint, one turn per n slots, stays claimed
    // in the word memo across those tiles), proving the hint-assembled path
    // carries the 10× too.
    let ret_ids: Vec<StationId> = (n - k..n).map(StationId).collect();
    let ret_pattern = WakePattern::simultaneous(&ret_ids, 5).unwrap();
    row(
        "retiring_rr_block_n4096_k32",
        SimConfig::new(n)
            .with_max_slots(500_000)
            .until_all_resolved(),
        &RetiringRoundRobin::new(n),
        &ret_pattern,
        10.0,
        &mut rows,
    );

    // Row 3 — a long wakeup_n contention burst (k = 64 colliding through
    // ~143 slots): eval-bound on both paths (the PRF coin per (station,
    // slot) dominates), so the kernel's win is the hoisted mixing prefix
    // and the skipped per-slot channel machinery — parity-or-better, not
    // 10×.
    let wn = WakeupN::new(MatrixParams::new(n));
    let long_ids: Vec<StationId> = (0..64u32).map(|i| StationId(i * 63 + 17)).collect();
    let long_pattern = WakePattern::simultaneous(&long_ids, 5).unwrap();
    row(
        "wakeup_n_long_burst_n4096_k64",
        SimConfig::new(n),
        &wn,
        &long_pattern,
        1.0,
        &mut rows,
    );

    // Row 4 — the adversarial no-skip shape: the wakeup_n burst that
    // succeeds 4 slots in. No kernel can win here (a tile fill always
    // plans more slots than the run has left); the tile-width ramp bounds
    // the forced-kernel loss, and the floor pins that bound (measured
    // 0.6-0.8x on the reference box; 0.25x before the ramp, which the 0.4
    // floor still rejects). The Auto engine avoids the loss entirely via
    // the scalar burst warmup — see the hybrid_policy rows.
    let c_ids: Vec<StationId> = (0..8u32).map(|i| StationId(i * 500 + 17)).collect();
    let c_pattern = WakePattern::simultaneous(&c_ids, 11).unwrap();
    row(
        "wakeup_n_short_burst_n4096_k8",
        SimConfig::new(n),
        &wn,
        &c_pattern,
        0.4,
        &mut rows,
    );

    // Row 5 — the near-n wait_and_go block (§4 with k = n − 16 stations
    // waking together): every awake station walks the doubling schedule
    // through ~1,170 slots of collisions until a family isolates one.
    // Scalar dense asks each station every slot, answered from its memoized
    // walk; the kernel fills each tile with one bounded walk per station.
    // Both are bound by the PRF walk, so the floor is parity. n = 256 keeps
    // a run under 10 ms; burst-resolve's n = 4096 cell is the same shape at
    // ~13,400 slots.
    let wag_n = 256u32;
    let wag_k = wag_n - 16;
    let wag_pattern = WakePattern::range(wag_n - wag_k, wag_n, 0).unwrap();
    row(
        "wait_and_go_near_n_block_n256_k240",
        SimConfig::new(wag_n),
        &WaitAndGo::new(wag_n, wag_k, FamilyProvider::default()),
        &wag_pattern,
        1.0,
        &mut rows,
    );

    // The Auto engine's burst windows run the same kernel once a window
    // survives its scalar warmup: on the long contention burst the word
    // kernel — not scalar stepping — must carry the window past slot 16,
    // and the run must beat scalar dense end to end.
    let auto_sim = Simulator::new(SimConfig::new(n));
    let dense_sim = Simulator::new(SimConfig::new(n).with_engine(EngineMode::Dense));
    let auto_out = auto_sim.run(&wn, &long_pattern, 0).unwrap();
    let dense_out = dense_sim.run(&wn, &long_pattern, 0).unwrap();
    assert_eq!(auto_out.first_success, dense_out.first_success);
    assert!(
        auto_out.word_slots > 0,
        "auto burst window did not use the word kernel"
    );
    assert!(
        auto_out.dense_steps > 0,
        "auto burst window skipped its scalar warmup"
    );
    let (dense_t, auto_t, auto_ratio) = median_pair_ratio(
        || time_runs(|| dense_sim.run(&wn, &long_pattern, 0).unwrap()).0,
        || time_runs(|| auto_sim.run(&wn, &long_pattern, 0).unwrap()).0,
    );
    println!(
        "bitslab_burst/auto_wakeup_n_long_burst_n4096_k64  dense {:.2}us auto {:.2}us  ratio {auto_ratio:.1}x (floor 1.2x, median of {PAIRS} pairs)",
        dense_t * 1e6,
        auto_t * 1e6,
    );
    assert_timing(
        auto_ratio >= 1.2,
        &format!("auto burst windows only {auto_ratio:.1}x of scalar dense"),
    );
    rows.push((
        "auto_wakeup_n_long_burst_n4096_k64",
        dense_t * 1e6,
        auto_t * 1e6,
        auto_ratio,
    ));

    // The per-PR perf artifact (BENCH_kernels.json, committed at the repo
    // root): one row per guard above, microseconds per run.
    if let Ok(path) = std::env::var("BENCH_KERNELS_JSON") {
        let mut json = String::from(
            "{\n  \"bench\": \"kernels/bitslab_burst\",\n  \"unit\": \"us_per_run\",\n  \"rows\": [\n",
        );
        for (i, (name, scalar_us, slab_us, ratio)) in rows.iter().enumerate() {
            let sep = if i + 1 == rows.len() { "" } else { "," };
            json.push_str(&format!(
                "    {{\"row\": \"{name}\", \"scalar_dense_us\": {scalar_us:.2}, \
                 \"kernel_us\": {slab_us:.2}, \"speedup\": {ratio:.2}}}{sep}\n"
            ));
        }
        json.push_str("  ]\n}\n");
        std::fs::write(&path, json).expect("write BENCH_KERNELS_JSON");
        println!("bitslab_burst: wrote {path}");
    }
}

fn construction_cache(c: &mut Criterion) {
    // A whole ensemble of wakeup_with_s runs with and without the cache.
    // Family lengths are sized once per process (`selectors::random`), so
    // building the doubling schedule per run costs a few µs even when the
    // families are seeded per run, as the staggered-sweep benchmark cells
    // seed theirs: the cache must no longer buy a large factor. Each
    // uncached ensemble draws fresh family seeds, so a sizing memo that
    // missed per seed would size every family of every run and fail the
    // guard.
    let n = 4096u32;
    let runs = 64u64;
    let provider = FamilyProvider::default();
    let spec = EnsembleSpec::new(n, runs);
    let pattern_for = |seed: u64| wakeup_bench::burst_pattern(n, 8, 0, seed);
    let salt = std::sync::atomic::AtomicU64::new(1);
    let uncached = || {
        let salt = salt.fetch_add(1, std::sync::atomic::Ordering::Relaxed) << 32;
        run_ensemble_stream(
            &spec,
            |seed| {
                let provider = FamilyProvider::random_with_seed(seed ^ salt);
                Box::new(WakeupWithS::new(n, 0, provider))
            },
            pattern_for,
        )
    };
    // The cache lives exactly as long as the ensemble — its construction
    // and first-build cost are inside the measurement.
    let cached = || {
        run_ensemble_stream_cached(
            &spec,
            &ConstructionCache::new(),
            |cache, _| Box::new(WakeupWithS::cached(n, 0, &provider, cache)),
            pattern_for,
        )
    };

    // Correctness pin: cached and uncached ensembles of one provider are
    // bit-identical.
    let plain = run_ensemble_stream(
        &spec,
        |_| Box::new(WakeupWithS::new(n, 0, provider)),
        pattern_for,
    );
    let pinned = cached();
    assert_eq!(plain.solved, pinned.solved);
    assert_eq!(plain.mean().to_bits(), pinned.mean().to_bits());
    assert_eq!(plain.worst, pinned.worst);
    assert_eq!(plain.energy, pinned.energy);
    assert_eq!(plain.work, pinned.work);

    let mut group = c.benchmark_group("construction_cache");
    group.bench_function("uncached_fresh_seeds_wakeup_with_s_n4096_r64", |b| {
        b.iter(|| uncached().runs)
    });
    group.bench_function("cached_wakeup_with_s_n4096_r64", |b| {
        b.iter(|| cached().runs)
    });
    group.finish();

    // Summary with the ratio spelled out: the median over interleaved pairs.
    let time = |ensemble: &dyn Fn() -> EnsembleSummary| {
        let t0 = Instant::now();
        black_box(ensemble());
        t0.elapsed().as_secs_f64()
    };
    let (uncached_t, cached_t, ratio) = median_pair_ratio(|| time(&uncached), || time(&cached));
    println!(
        "construction_cache summary: uncached {:.2}ms | cached {:.2}ms | uncached/cached {ratio:.2}x (median of {PAIRS} pairs)",
        uncached_t * 1e3,
        cached_t * 1e3,
    );
    assert_timing(
        ratio <= 1.25,
        &format!("uncached ensemble costs {ratio:.2}x a cached one (expected <= 1.25x)"),
    );
}

fn mega_station(_c: &mut Criterion) {
    // Guard row — the mega-station memory reduction. A block wake of half
    // the universe is one equivalence class for round-robin: at n = 2^24
    // the class engine must represent the 2^23 stations with at least 100×
    // fewer live units (it holds exactly one). Deterministic counter pin,
    // so it always runs (no BENCH_QUICK exemption).
    let n = 1u32 << 24;
    let k = n / 2;
    let pattern = WakePattern::range(0, k, u64::from(k)).unwrap();
    let classed_sim = Simulator::new(
        SimConfig::new(n)
            .with_classes()
            .without_per_station_detail(),
    );
    let rr = RoundRobin::new(n);
    let t0 = Instant::now();
    let mega = classed_sim.run(&rr, &pattern, 0).unwrap();
    let mega_t = t0.elapsed();
    assert!(mega.solved(), "mega block run must solve");
    let reduction = f64::from(k) / mega.peak_units.max(1) as f64;
    println!(
        "mega_station/round_robin_n2^24_k2^23       {} slots, {} unit(s), {reduction:.0}x stations/unit in {mega_t:?}",
        mega.slots_simulated, mega.peak_units,
    );
    assert!(
        reduction >= 100.0,
        "mega-station memory reduction collapsed to {reduction:.0}x (expected >= 100x)"
    );

    // Bit-identity pin at a size the concrete engine can still afford: the
    // same block shape at n = 2^16 must produce identical observables, with
    // the concrete engine holding one unit per station.
    let small_n = 1u32 << 16;
    let small_k = small_n / 2;
    let small = WakePattern::range(0, small_k, u64::from(small_k)).unwrap();
    let cfg = SimConfig::new(small_n).with_transcript();
    let small_rr = RoundRobin::new(small_n);
    let concrete = Simulator::new(cfg.clone())
        .run(&small_rr, &small, 0)
        .unwrap();
    let classed = Simulator::new(cfg.with_classes())
        .run(&small_rr, &small, 0)
        .unwrap();
    assert_eq!(classed.first_success, concrete.first_success);
    assert_eq!(classed.transcript, concrete.transcript);
    assert_eq!(classed.transmissions, concrete.transmissions);
    assert_eq!(concrete.peak_units, u64::from(small_k));
    assert_eq!(classed.peak_units, 1);

    // Wake-time economy: the classed mega run must beat the concrete run
    // at 1/256 the universe on wall clock — admitting 2^23 stations as one
    // RLE class is cheaper than boxing 2^15 of them.
    let (classed_t, _) = time_runs(|| classed_sim.run(&rr, &pattern, 0).unwrap());
    let concrete_small_sim = Simulator::new(SimConfig::new(small_n));
    let (concrete_t, _) = time_runs(|| concrete_small_sim.run(&small_rr, &small, 0).unwrap());
    println!(
        "mega_station/classed_2^24_vs_concrete_2^16 classed {:.2}us concrete {:.2}us",
        classed_t * 1e6,
        concrete_t * 1e6,
    );
    assert_timing(
        classed_t < concrete_t,
        &format!(
            "classed mega run ({:.2}us) slower than concrete at 1/256 scale ({:.2}us)",
            classed_t * 1e6,
            concrete_t * 1e6
        ),
    );

    // The cost of a selective slot. A wakeup_with_s block wake at odd s
    // opens on a selective slot: the exact transmitter count is an
    // observable, so every member of the half-universe class is tested
    // against one family row (a collision) before round-robin wins at
    // s + 1. Reported per swept member; no timing bound.
    let s = 601;
    let provider = FamilyProvider::default();
    let wws = WakeupWithS::new(n, s, provider);
    let block = WakePattern::range(1, k + 1, s).unwrap();
    let first = classed_sim.run(&wws, &block, 0).unwrap();
    assert_eq!(
        first.first_success,
        Some(s + 1),
        "odd s: round-robin wins at s + 1"
    );
    assert_eq!(first.collisions, 1, "odd s: the selective slot collides");
    let iters = if std::env::var_os("BENCH_QUICK").is_some() {
        2
    } else {
        20
    };
    let t0 = Instant::now();
    for _ in 0..iters {
        black_box(classed_sim.run(&wws, &block, 0).unwrap());
    }
    let per_run = t0.elapsed().as_secs_f64() / f64::from(iters);
    println!(
        "mega_station/wws_odd_s_n2^24_k2^23         {:.0}us per run, {:.2} ns per swept member ({} transmitters)",
        per_run * 1e6,
        per_run * 1e9 / f64::from(k),
        first.transmissions,
    );

    // The class sweep counts transmitters per id run; the concrete engine
    // polls each station. Same block shape at n = 2^16, same counters.
    let small_wws = WakeupWithS::new(small_n, s, provider);
    let small_block = WakePattern::range(1, small_k + 1, s).unwrap();
    let lean = SimConfig::new(small_n).without_per_station_detail();
    let concrete = Simulator::new(lean.clone())
        .run(&small_wws, &small_block, 0)
        .unwrap();
    let classed = Simulator::new(lean.with_classes())
        .run(&small_wws, &small_block, 0)
        .unwrap();
    assert_eq!(classed.first_success, concrete.first_success);
    assert_eq!(classed.winner, concrete.winner);
    assert_eq!(classed.transmissions, concrete.transmissions);
    assert_eq!(classed.collisions, concrete.collisions);
    assert_eq!(classed.peak_units, 1);
}

fn trace_overhead(_c: &mut Criterion) {
    // Guard row — tracing must be free when nobody listens. The explicit
    // `run_traced(..., &mut NoopTracer)` dynamic-dispatch path is held to
    // ≤ 5% over the plain `run` on the gap-heavy round-robin block row
    // (the most emission-dense shape per unit work: every slot-class event
    // fires, nothing amortizes them).
    let n = 4096u32;
    let k = 8usize;
    let rr_ids: Vec<StationId> = (n - k as u32..n).map(StationId).collect();
    let pattern = WakePattern::simultaneous(&rr_ids, 0).unwrap();
    let rr = RoundRobin::new(n);
    let sim = Simulator::new(SimConfig::new(n));
    let plain = sim.run(&rr, &pattern, 0).unwrap();
    let noop = sim.run_traced(&rr, &pattern, 0, &mut NoopTracer).unwrap();
    assert_eq!(plain.first_success, noop.first_success);
    assert_eq!(plain.transmissions, noop.transmissions);
    // Guarded at 5%: the row is sub-microsecond, so a couple of percent is
    // timer/scheduler jitter, not dispatch cost (measured 1.00-1.02x).
    let (noop_t, plain_t, ratio) = median_pair_ratio(
        || time_runs(|| sim.run_traced(&rr, &pattern, 0, &mut NoopTracer).unwrap()).0,
        || time_runs(|| sim.run(&rr, &pattern, 0).unwrap()).0,
    );
    println!(
        "trace_overhead/round_robin_n4096_k8        plain {:.2}us noop-traced {:.2}us  ratio {ratio:.3}x (target <= 1.05x, median of {PAIRS} pairs)",
        plain_t * 1e6,
        noop_t * 1e6,
    );
    assert_timing(
        ratio <= 1.05,
        &format!("NoopTracer overhead {ratio:.3}x exceeds the 5% jitter budget"),
    );

    // A recording tracer on the same row, for the README's cost table
    // (informational — recording legitimately costs; no assertion).
    let (rec_t, _) = time_runs(|| {
        let mut rec = RecordingTracer::with_filter(TraceFilter::all());
        sim.run_traced(&rr, &pattern, 0, &mut rec).unwrap()
    });
    println!(
        "trace_overhead/recording_all_events        {:.2}us ({:.2}x of plain)",
        rec_t * 1e6,
        rec_t / plain_t.max(1e-12),
    );
}

fn adversary_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("adversary_kernels");
    // The Theorem 2.1 swap chain against round-robin (EXP-LB's kernel).
    for &(n, k) in &[(64u32, 8u32), (256, 32)] {
        group.bench_with_input(
            BenchmarkId::new("swap_chain_rr", format!("n{n}_k{k}")),
            &(n, k),
            |b, &(n, k)| {
                let adv = SwapChainAdversary::new(n, k);
                let sched = selectors::schedule::RoundRobinSchedule::new(n);
                b.iter(|| black_box(adv.run(&sched).forced_rounds))
            },
        );
    }
    // The spoiler local search against wakeup(n) (EXP-ABL-ADV's kernel).
    group.bench_function("spoiler_wakeup_n_n128_k6", |b| {
        let n = 128u32;
        let sim = Simulator::new(SimConfig::new(n));
        let protocol = WakeupN::new(MatrixParams::new(n));
        let ids: Vec<StationId> = (0..6).map(|i| StationId(i * 20)).collect();
        let start = WakePattern::simultaneous(&ids, 0).unwrap();
        let spoiler = SpoilerSearch::new(8, 100_000);
        b.iter(|| {
            black_box(
                spoiler
                    .search(&sim, &protocol, start.clone(), 1)
                    .unwrap()
                    .moves,
            )
        })
    });
    group.finish();
}

fn verification_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("verification_kernels");
    // Exhaustive selectivity verification (EXP-SEL ground truth).
    group.bench_function("exhaustive_n14_k3", |b| {
        let fam = RandomFamilyBuilder::new(14, 3).seed(7).build_explicit();
        b.iter(|| black_box(verify::selective_exhaustive(&fam).is_ok()))
    });
    // Monte-Carlo falsification at scale.
    group.bench_function("monte_carlo_n1024_k16_200trials", |b| {
        let fam = RandomFamilyBuilder::new(1024, 16).seed(7).build_explicit();
        b.iter(|| black_box(verify::selective_monte_carlo(&fam, 200, 3).is_ok()))
    });
    // Bounded waking-matrix certification (EXP-CERT's kernel).
    group.bench_function("certify_n6_k2_w3", |b| {
        let matrix = WakingMatrix::new(MatrixParams::new(6));
        let cfg = CertifyConfig {
            k_max: 2,
            window: 3,
            horizon_scale: 2,
        };
        b.iter(|| black_box(wakeup_core::certify::certify(&matrix, cfg).is_ok()))
    });
    group.finish();
}

fn pattern_draws(_c: &mut Criterion) {
    // Every random wake pattern the experiments and perfbench build is an
    // `IdChoice::Random` pick, whose cost is its n − 1 generator draws.
    // Timing only, no floor: on a shared 2-core VM these rows swing by
    // ~1.5× between runs of the same build.
    let quick = std::env::var_os("BENCH_QUICK").is_some();
    let draws: u32 = if quick { 1 << 16 } else { 1 << 24 };
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    let t0 = Instant::now();
    for _ in 0..draws {
        black_box(rng.next_u64());
    }
    println!(
        "pattern_draws/next_u64                     {:.2} ns per draw ({draws} draws)",
        t0.elapsed().as_secs_f64() * 1e9 / f64::from(draws),
    );
    for (log_n, full_picks) in [(16u32, 256u64), (20, 16)] {
        let picks = if quick { 1 } else { full_picks };
        let t0 = Instant::now();
        for seed in 0..picks {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            black_box(IdChoice::Random.pick(1 << log_n, 256, &mut rng));
        }
        println!(
            "pattern_draws/random_pick_n2^{log_n}_k256       {:.3} ms per pick ({picks} picks)",
            t0.elapsed().as_secs_f64() * 1e3 / picks as f64,
        );
    }
}

criterion_group!(
    benches,
    family_construction,
    matrix_oracle,
    simulator_throughput,
    protocol_latency,
    engine_dense_vs_sparse,
    hybrid_policy,
    bitslab_burst,
    construction_cache,
    mega_station,
    trace_overhead,
    adversary_kernels,
    verification_kernels,
    pattern_draws
);
criterion_main!(benches);
