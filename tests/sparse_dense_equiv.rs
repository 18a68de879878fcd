//! The sparse slot-skipping engine must be **observationally identical** to
//! dense per-slot polling: same `Outcome` (winner, latency, transmission /
//! collision / silence accounting, per-station counts, resolution order)
//! and same transcript, across protocols × wake patterns × seeds × stop
//! rules × feedback models. Only the work counters (`polls`,
//! `skipped_slots`) may differ between the two paths.
//!
//! This covers the feedback-reactive protocols too: `StopRule::AllResolved`
//! runs (retirement on own success) execute sparse on unconditional hints
//! and must still match dense bit for bit. (The engine's own tests cover
//! `Until::NextSuccess` hints, which no in-tree protocol uses.)
//!
//! The **adaptive hybrid policy** of `EngineMode::Auto` (dense stepping on
//! burst-shaped stretches, wake-time batch detection, success re-probes) is
//! covered by the same properties: every sparse↔dense transition the policy
//! makes mid-run must leave the transcript bit-identical, and the work
//! counters must account for every slot —
//! `skipped_slots + dense_steps + word_slots ≤ slots_simulated ≤
//! skipped_slots + dense_steps + word_slots + polls` (each remaining slot
//! is a sparse event, which polls at least one station). Protocol constructions pulled
//! from a shared `ConstructionCache` are part of the zoo, so handle sharing
//! across runs is pinned against dense too.

use mac_sim::engine::StopRule;
use mac_sim::tracer::{RecordingTracer, TraceEvent};
use mac_wakeup::prelude::*;
use proptest::collection::btree_set;
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Run `protocol` on both engine paths and assert identical observables.
fn assert_equivalent(
    n: u32,
    protocol: &dyn Protocol,
    pattern: &WakePattern,
    run_seed: u64,
    max_slots: Option<u64>,
) {
    assert_equivalent_under(
        n,
        protocol,
        pattern,
        run_seed,
        max_slots,
        StopRule::FirstSuccess,
        FeedbackModel::NoCollisionDetection,
    );
}

/// [`assert_equivalent`] under an explicit stop rule and feedback model.
fn assert_equivalent_under(
    n: u32,
    protocol: &dyn Protocol,
    pattern: &WakePattern,
    run_seed: u64,
    max_slots: Option<u64>,
    stop: StopRule,
    feedback: FeedbackModel,
) {
    let mut cfg = SimConfig::new(n).with_transcript().with_feedback(feedback);
    if stop == StopRule::AllResolved {
        cfg = cfg.until_all_resolved();
    }
    if let Some(cap) = max_slots {
        cfg = cfg.with_max_slots(cap);
    }
    let auto = Simulator::new(cfg.clone())
        .run(protocol, pattern, run_seed)
        .unwrap();
    let dense = Simulator::new(cfg.with_engine(EngineMode::Dense))
        .run(protocol, pattern, run_seed)
        .unwrap();

    let ctx = format!(
        "protocol={} pattern={:?} seed={run_seed} cap={max_slots:?} stop={stop:?} fb={feedback:?}",
        protocol.name(),
        pattern.wakes()
    );
    assert_eq!(auto.s, dense.s, "s: {ctx}");
    assert_eq!(
        auto.first_success, dense.first_success,
        "first_success: {ctx}"
    );
    assert_eq!(auto.winner, dense.winner, "winner: {ctx}");
    assert_eq!(auto.latency(), dense.latency(), "latency: {ctx}");
    assert_eq!(
        auto.slots_simulated, dense.slots_simulated,
        "slots_simulated: {ctx}"
    );
    assert_eq!(
        auto.transmissions, dense.transmissions,
        "transmissions: {ctx}"
    );
    assert_eq!(
        auto.per_station_tx, dense.per_station_tx,
        "per_station_tx: {ctx}"
    );
    assert_eq!(auto.collisions, dense.collisions, "collisions: {ctx}");
    assert_eq!(auto.silent_slots, dense.silent_slots, "silent_slots: {ctx}");
    assert_eq!(auto.resolved, dense.resolved, "resolved: {ctx}");
    assert_eq!(
        auto.all_resolved_at, dense.all_resolved_at,
        "all_resolved_at: {ctx}"
    );
    assert_eq!(auto.transcript, dense.transcript, "transcript: {ctx}");
    // The dense reference path never skips and never polls less than auto.
    assert_eq!(dense.skipped_slots, 0, "dense skipped: {ctx}");
    assert!(
        auto.polls <= dense.polls,
        "auto polls {} > dense polls {}: {ctx}",
        auto.polls,
        dense.polls
    );
    // Slot accounting under the hybrid policy: every simulated slot is
    // either skipped in bulk, dense-stepped, word-kernel-resolved, or a
    // sparse event (≥ 1 poll).
    assert!(
        auto.skipped_slots + auto.dense_steps + auto.word_slots <= auto.slots_simulated,
        "overcounted slots: {ctx}"
    );
    assert!(
        auto.slots_simulated
            <= auto.skipped_slots + auto.dense_steps + auto.word_slots + auto.polls,
        "unaccounted slots ({} simulated, {} skipped, {} dense, {} word, {} polls): {ctx}",
        auto.slots_simulated,
        auto.skipped_slots,
        auto.dense_steps,
        auto.word_slots,
        auto.polls
    );
    // The forced-dense reference steps every non-dead-air slot densely and
    // never runs the adaptive policy.
    assert_eq!(
        dense.dense_steps + dense.skipped_slots,
        dense.slots_simulated,
        "dense accounting: {ctx}"
    );
    assert_eq!(dense.mode_switches, 0, "dense switched modes: {ctx}");
}

/// The shared construction cache behind the `cached` zoo members: one per
/// test process, so repeated runs genuinely share schedule handles (and
/// their interior position indices) the way a cached ensemble does.
fn shared_cache() -> &'static ConstructionCache {
    static CACHE: std::sync::OnceLock<ConstructionCache> = std::sync::OnceLock::new();
    CACHE.get_or_init(ConstructionCache::new)
}

/// The deterministic protocol zoo exercised by every equivalence case.
fn protocols(n: u32, pattern: &WakePattern, seed: u64) -> Vec<Box<dyn Protocol>> {
    vec![
        Box::new(RoundRobin::new(n)),
        Box::new(WakeupN::new(MatrixParams::new(n).with_seed(seed))),
        Box::new(WakeupWithS::new(
            n,
            pattern.s(),
            FamilyProvider::random_with_seed(seed),
        )),
        Box::new(WakeupWithK::new(
            n,
            pattern.k() as u32,
            FamilyProvider::random_with_seed(seed),
        )),
        Box::new(SelectAmongFirst::new(
            n,
            pattern.s(),
            FamilyProvider::random_with_seed(seed),
        )),
        Box::new(WaitAndGo::new(
            n,
            pattern.k() as u32,
            FamilyProvider::default(),
        )),
        Box::new(LocalDoubling::new(n).with_seed(seed)),
        Box::new(EnergyCapped::new(RoundRobin::new(n), 1)),
        // Randomized: hints are declined, so Auto must silently equal Dense.
        Box::new(Rpd::new(n)),
        // Cache-shared constructions: identical schedules, shared handles.
        Box::new(WakeupWithK::cached(
            n,
            pattern.k() as u32,
            &FamilyProvider::random_with_seed(seed),
            shared_cache(),
        )),
        Box::new(WakeupWithS::cached(
            n,
            pattern.s(),
            &FamilyProvider::random_with_seed(seed),
            shared_cache(),
        )),
    ]
}

/// The feedback-reactive (retiring) protocol zoo — the Komlós–Greenberg
/// resolvers that epoch-scoped hints unlocked for the sparse path. Run
/// under both stop rules.
fn retiring_protocols(n: u32, seed: u64) -> Vec<Box<dyn Protocol>> {
    vec![
        Box::new(FullResolution::new(
            n,
            (n / 4).max(1),
            FamilyProvider::random_with_seed(seed),
        )),
        Box::new(RetiringRoundRobin::new(n)),
        Box::new(EnergyCapped::new(RetiringRoundRobin::new(n), 2)),
        Box::new(FullResolution::cached(
            n,
            (n / 4).max(1),
            &FamilyProvider::random_with_seed(seed),
            shared_cache(),
        )),
    ]
}

fn arb_pattern(n: u32) -> impl Strategy<Value = WakePattern> {
    btree_set(0..n, 1..=6usize).prop_flat_map(|ids| {
        let ids: Vec<u32> = ids.into_iter().collect();
        let len = ids.len();
        (Just(ids), proptest::collection::vec(0u64..300, len)).prop_map(|(ids, times)| {
            WakePattern::new(ids.into_iter().map(StationId).zip(times).collect())
                .expect("distinct ids")
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn sparse_equals_dense_on_random_patterns(
        pattern in arb_pattern(64),
        seed in 0u64..1_000,
    ) {
        // The whole zoo × both feedback models: the hybrid policy's mode
        // switches must be invisible in the observables under either model.
        for fb in [FeedbackModel::NoCollisionDetection, FeedbackModel::CollisionDetection] {
            for protocol in protocols(64, &pattern, seed) {
                assert_equivalent_under(
                    64,
                    protocol.as_ref(),
                    &pattern,
                    seed,
                    None,
                    StopRule::FirstSuccess,
                    fb,
                );
            }
        }
    }

    #[test]
    fn hybrid_bursts_equal_dense_on_batch_patterns(
        k in 2u32..8,
        s in 0u64..64,
        seed in 0u64..1_000,
    ) {
        // Simultaneous batch wakes are the shape the adaptive policy
        // dense-steps (wake-time burst detection): equivalence must hold
        // across the zoo exactly there, where sparse↔dense transitions are
        // most likely.
        let n = 64u32;
        let ids: Vec<StationId> = (0..k).map(|i| StationId(i * (n / 8))).collect();
        let pattern = WakePattern::simultaneous(&ids, s).expect("distinct ids");
        for protocol in protocols(n, &pattern, seed) {
            assert_equivalent(n, protocol.as_ref(), &pattern, seed, None);
        }
        for fb in [FeedbackModel::NoCollisionDetection, FeedbackModel::CollisionDetection] {
            for protocol in retiring_protocols(n, seed) {
                assert_equivalent_under(
                    n,
                    protocol.as_ref(),
                    &pattern,
                    seed,
                    Some(20_000),
                    StopRule::AllResolved,
                    fb,
                );
            }
        }
    }

    #[test]
    fn sparse_equals_dense_under_tight_caps(
        pattern in arb_pattern(32),
        seed in 0u64..1_000,
        cap in 1u64..400,
    ) {
        // Censored runs: the cap clamp must agree slot-for-slot too.
        for protocol in protocols(32, &pattern, seed) {
            assert_equivalent(32, protocol.as_ref(), &pattern, seed, Some(cap));
        }
    }

    #[test]
    fn sparse_equals_dense_under_all_resolved(
        pattern in arb_pattern(32),
        seed in 0u64..1_000,
    ) {
        // Full conflict resolution: feedback-driven retirement, multiple
        // successes per run, resolution order and all_resolved_at must all
        // match — under both feedback models.
        for fb in [FeedbackModel::NoCollisionDetection, FeedbackModel::CollisionDetection] {
            for protocol in retiring_protocols(32, seed) {
                assert_equivalent_under(
                    32,
                    protocol.as_ref(),
                    &pattern,
                    seed,
                    Some(20_000),
                    StopRule::AllResolved,
                    fb,
                );
            }
        }
    }
}

#[test]
fn sparse_equals_dense_on_structured_patterns() {
    // A deterministic grid over the classic adversarial pattern families and
    // universe sizes, including one n ≥ 256 configuration.
    for n in [16u32, 64, 256] {
        let ids: Vec<StationId> = (0..6).map(|i| StationId(i * (n / 8) + 1)).collect();
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let patterns = [
            WakePattern::simultaneous(&ids, 0).unwrap(),
            WakePattern::simultaneous(&ids, 137).unwrap(),
            WakePattern::staggered(&ids, 5, 1).unwrap(),
            WakePattern::staggered(&ids, 5, 33).unwrap(),
            WakePattern::batches(&ids, 2, 50, &[3, 3]).unwrap(),
            WakePattern::uniform_window(&ids, 10, 100, &mut rng).unwrap(),
            WakePattern::trickle(&ids, 0, 0.2, &mut rng).unwrap(),
            // The block round-robin reaches last (worst case for RR).
            WakePattern::simultaneous(&(n - 4..n).map(StationId).collect::<Vec<_>>(), 0).unwrap(),
        ];
        for pattern in patterns.iter() {
            for seed in [0u64, 7] {
                for protocol in protocols(n, pattern, seed) {
                    assert_equivalent(n, protocol.as_ref(), pattern, seed, None);
                }
            }
        }
    }
}

#[test]
fn sparse_equals_dense_on_structured_all_resolved_patterns() {
    // The deterministic grid, replayed under StopRule::AllResolved with the
    // retiring zoo and both feedback models.
    for n in [16u32, 64] {
        let ids: Vec<StationId> = (0..5).map(|i| StationId(i * (n / 8) + 1)).collect();
        let patterns = [
            WakePattern::simultaneous(&ids, 0).unwrap(),
            WakePattern::simultaneous(&ids, 137).unwrap(),
            WakePattern::staggered(&ids, 5, 17).unwrap(),
            WakePattern::batches(&ids, 2, 40, &[3, 2]).unwrap(),
        ];
        for pattern in patterns.iter() {
            for seed in [0u64, 7] {
                for fb in [
                    FeedbackModel::NoCollisionDetection,
                    FeedbackModel::CollisionDetection,
                ] {
                    for protocol in retiring_protocols(n, seed) {
                        assert_equivalent_under(
                            n,
                            protocol.as_ref(),
                            pattern,
                            seed,
                            Some(50_000),
                            StopRule::AllResolved,
                            fb,
                        );
                        // The same protocols under the default stop rule
                        // (KG stopped at first success is a wake-up
                        // algorithm — §1).
                        assert_equivalent_under(
                            n,
                            protocol.as_ref(),
                            pattern,
                            seed,
                            Some(50_000),
                            StopRule::FirstSuccess,
                            fb,
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn komlos_greenberg_all_resolved_runs_on_the_sparse_path() {
    // Acceptance: a full conflict-resolution run (Komlós–Greenberg shape,
    // feedback-driven retirement) must *execute sparse* — skipped slots,
    // far fewer polls than dense — with a bit-identical transcript.
    let n = 1024u32;
    let k = 16u32;
    let ids: Vec<StationId> = (0..k).map(|i| StationId(i * 60 + 7)).collect();
    let pattern = WakePattern::simultaneous(&ids, 9).unwrap();
    let protocol = FullResolution::new(n, k, FamilyProvider::default());
    let cfg = SimConfig::new(n)
        .until_all_resolved()
        .with_max_slots(500_000)
        .with_transcript();
    let auto = Simulator::new(cfg.clone())
        .run(&protocol, &pattern, 3)
        .unwrap();
    let dense = Simulator::new(cfg.with_engine(EngineMode::Dense))
        .run(&protocol, &pattern, 3)
        .unwrap();
    assert_eq!(auto.resolved.len(), k as usize, "all stations must resolve");
    assert_eq!(auto.resolved, dense.resolved);
    assert_eq!(auto.all_resolved_at, dense.all_resolved_at);
    assert_eq!(auto.transcript, dense.transcript);
    assert_eq!(auto.transmissions, dense.transmissions);
    // Sparse execution, no dense fallback: silent gaps were skipped and the
    // poll count collapsed from ≈ slots·k to ≈ transmission events.
    assert!(auto.skipped_slots > 0, "KG run did not skip any slots");
    assert_eq!(dense.skipped_slots, 0);
    assert!(
        auto.polls * 10 < dense.polls,
        "auto polls {} vs dense polls {} — sparse path not engaged",
        auto.polls,
        dense.polls
    );
}

#[test]
fn retiring_resolvers_requery_only_the_winner_at_a_success() {
    // A retiring station changes state only at its own success, a slot in
    // which it transmitted, so the engine polls it there and re-queries it
    // anyway: its hints are unconditional, and a success re-queries the
    // winner alone instead of every live resolver. The stagger keeps every
    // arrival and success apart, so no burst window opens (a window's
    // re-probe would re-query every awake station).
    let n = 64u32;
    let ids: Vec<StationId> = (0..16u32).map(|i| StationId(i * 4 + 2)).collect();
    let pattern = WakePattern::staggered(&ids, 3, 5).unwrap();
    let protocol = RetiringRoundRobin::new(n);
    let cfg = SimConfig::new(n).until_all_resolved().with_transcript();
    let mut rec = RecordingTracer::new();
    let auto = Simulator::new(cfg.clone())
        .run_traced(&protocol, &pattern, 0, &mut rec)
        .unwrap();
    let dense = Simulator::new(cfg.with_engine(EngineMode::Dense))
        .run(&protocol, &pattern, 0)
        .unwrap();
    assert_eq!(auto.resolved.len(), ids.len(), "all stations must resolve");
    assert_eq!(auto.transcript, dense.transcript);
    assert_eq!(auto.mode_switches, 0, "a burst window opened");
    let requeries: Vec<u64> = rec
        .events()
        .iter()
        .filter_map(|ev| match ev {
            TraceEvent::HintRequery { queries, .. } => Some(*queries),
            _ => None,
        })
        .collect();
    assert!(!requeries.is_empty(), "no success re-queried its winner");
    assert!(
        requeries.iter().all(|&q| q == 1),
        "hint re-queries per event: {requeries:?}"
    );
}

#[test]
fn scenario_c_staggered_runs_on_the_sparse_path() {
    // Acceptance: a gap-heavy Scenario C run over the waking matrix must
    // execute sparse through the per-row PRF jumps — no TxHint::Dense
    // fallback and no adaptive dense takeover of the silent stretches.
    let n = 4096u32;
    let ids: Vec<StationId> = (0..8u32).map(|i| StationId(i * 500 + 17)).collect();
    let pattern = WakePattern::staggered(&ids, 3, 997).unwrap();
    let protocol = WakeupN::new(MatrixParams::new(n));
    let cfg = SimConfig::new(n).with_transcript();
    let auto = Simulator::new(cfg.clone())
        .run(&protocol, &pattern, 0)
        .unwrap();
    let dense = Simulator::new(cfg.with_engine(EngineMode::Dense))
        .run(&protocol, &pattern, 0)
        .unwrap();
    assert!(auto.solved());
    assert_eq!(auto.first_success, dense.first_success);
    assert_eq!(auto.winner, dense.winner);
    assert_eq!(auto.transcript, dense.transcript);
    assert!(auto.skipped_slots > 0, "Scenario C run did not skip slots");
    assert!(
        auto.polls < dense.polls,
        "auto polls {} vs dense polls {}",
        auto.polls,
        dense.polls
    );
}

#[test]
fn scenario_c_simultaneous_burst_dense_steps_adaptively() {
    // Acceptance for the hybrid engine: the simultaneous Scenario C burst —
    // success lands a few slots after the window boundary, so there is
    // nothing to skip — must be detected at wake time and run at dense
    // speed (dense stepping, no per-slot hint churn), with an outcome
    // bit-identical to the forced-dense reference.
    let n = 4096u32;
    let ids: Vec<StationId> = (0..8u32).map(|i| StationId(i * 500 + 17)).collect();
    let pattern = WakePattern::simultaneous(&ids, 11).unwrap();
    let protocol = WakeupN::new(MatrixParams::new(n));
    let cfg = SimConfig::new(n).with_transcript();
    let auto = Simulator::new(cfg.clone())
        .run(&protocol, &pattern, 0)
        .unwrap();
    let dense = Simulator::new(cfg.with_engine(EngineMode::Dense))
        .run(&protocol, &pattern, 0)
        .unwrap();
    assert!(auto.solved());
    assert_eq!(auto.transcript, dense.transcript);
    assert!(
        auto.mode_switches > 0,
        "adaptive policy never engaged on the burst"
    );
    assert!(
        auto.dense_steps + auto.word_slots > 0,
        "burst slots were not dense-stepped (polls {}, skipped {})",
        auto.polls,
        auto.skipped_slots
    );
    // Dense stepping means the engine does no more polling than the dense
    // reference over the stepped slots.
    assert!(auto.polls <= dense.polls);
}

#[test]
fn mid_run_yield_collapse_triggers_dense_stepping() {
    // Two stations whose first obligation is far away (slot 100, so the
    // wake-time batch detection sees a skippable gap and stays sparse) that
    // then collide every slot: the collision-streak trigger must notice the
    // zero-gap collisions and drop to dense stepping mid-run — with
    // observables identical to forced dense.
    struct LateJammerStation;
    impl mac_sim::Station for LateJammerStation {
        fn wake(&mut self, _s: Slot) {}
        fn act(&mut self, t: Slot) -> mac_sim::Action {
            mac_sim::Action::from_bool(t >= 100)
        }
        fn next_transmission(&mut self, after: Slot) -> mac_sim::TxHint {
            mac_sim::TxHint::at(after.max(100))
        }
    }
    struct LateJammer;
    impl Protocol for LateJammer {
        fn station(&self, _id: StationId, _seed: u64) -> Box<dyn mac_sim::Station> {
            Box::new(LateJammerStation)
        }
        fn name(&self) -> String {
            "late-jammer".into()
        }
    }
    let pattern = WakePattern::simultaneous(&[StationId(0), StationId(1)], 0).unwrap();
    let cfg = SimConfig::new(4).with_max_slots(300).with_transcript();
    let auto = Simulator::new(cfg.clone())
        .run(&LateJammer, &pattern, 0)
        .unwrap();
    let dense = Simulator::new(cfg.with_engine(EngineMode::Dense))
        .run(&LateJammer, &pattern, 0)
        .unwrap();
    assert_eq!(auto.transcript, dense.transcript);
    assert_eq!(auto.collisions, dense.collisions);
    assert!(
        auto.mode_switches > 0,
        "collision streak never triggered dense stepping"
    );
    assert!(
        auto.dense_steps + auto.word_slots > 100,
        "dense_steps {} word_slots {}",
        auto.dense_steps,
        auto.word_slots
    );
    assert!(auto.skipped_slots + auto.dense_steps + auto.word_slots <= auto.slots_simulated);
}

// ---------------------------------------------------------------------
// Class-aggregated population equivalence: `PopulationMode::Classes`
// simulates one representative per equivalence class (stations in
// identical protocol state) with a multiplicity, so its `Outcome` and
// transcript must be bit-identical to the concrete per-station engine —
// only the work counters (`polls`, `skipped_slots`, `dense_steps`,
// `mode_switches`, `peak_units`) may differ, and `peak_units` is exactly
// the memory economy the mega-station engine buys.
// ---------------------------------------------------------------------

/// Run `protocol` under the concrete and the class-aggregated populations,
/// assert identical observables, and return the classed outcome.
fn assert_class_equivalent_under(
    n: u32,
    protocol: &dyn Protocol,
    pattern: &WakePattern,
    run_seed: u64,
    max_slots: Option<u64>,
    stop: StopRule,
    feedback: FeedbackModel,
) -> Outcome {
    let mut cfg = SimConfig::new(n).with_transcript().with_feedback(feedback);
    if stop == StopRule::AllResolved {
        cfg = cfg.until_all_resolved();
    }
    if let Some(cap) = max_slots {
        cfg = cfg.with_max_slots(cap);
    }
    let concrete = Simulator::new(cfg.clone())
        .run(protocol, pattern, run_seed)
        .unwrap();
    let classed = Simulator::new(cfg.with_classes())
        .run(protocol, pattern, run_seed)
        .unwrap();

    let shape = if pattern.is_blocks() {
        format!("blocks(k={}, s={})", pattern.k(), pattern.s())
    } else {
        format!("{:?}", pattern.wakes())
    };
    let ctx = format!(
        "protocol={} pattern={shape} seed={run_seed} cap={max_slots:?} stop={stop:?} fb={feedback:?}",
        protocol.name(),
    );
    assert_eq!(classed.s, concrete.s, "s: {ctx}");
    assert_eq!(
        classed.first_success, concrete.first_success,
        "first_success: {ctx}"
    );
    assert_eq!(classed.winner, concrete.winner, "winner: {ctx}");
    assert_eq!(
        classed.slots_simulated, concrete.slots_simulated,
        "slots_simulated: {ctx}"
    );
    assert_eq!(
        classed.transmissions, concrete.transmissions,
        "transmissions: {ctx}"
    );
    assert_eq!(
        classed.per_station_tx, concrete.per_station_tx,
        "per_station_tx: {ctx}"
    );
    assert_eq!(classed.collisions, concrete.collisions, "collisions: {ctx}");
    assert_eq!(
        classed.silent_slots, concrete.silent_slots,
        "silent_slots: {ctx}"
    );
    assert_eq!(classed.resolved, concrete.resolved, "resolved: {ctx}");
    assert_eq!(
        classed.all_resolved_at, concrete.all_resolved_at,
        "all_resolved_at: {ctx}"
    );
    assert_eq!(classed.transcript, concrete.transcript, "transcript: {ctx}");
    // Aggregation never needs more live units than the concrete engine
    // holds stations (singleton fallback is one unit per station).
    assert!(
        classed.peak_units <= concrete.peak_units,
        "classed peak_units {} > concrete {}: {ctx}",
        classed.peak_units,
        concrete.peak_units
    );
    classed
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn classes_equal_concrete_on_random_patterns(
        pattern in arb_pattern(64),
        seed in 0u64..1_000,
    ) {
        // Scattered wake times: most batches are singletons, so this
        // exercises the class engine's degenerate (one-member) classes and
        // the singleton fallback for protocols without class constructors.
        for fb in [FeedbackModel::NoCollisionDetection, FeedbackModel::CollisionDetection] {
            for protocol in protocols(64, &pattern, seed) {
                assert_class_equivalent_under(
                    64,
                    protocol.as_ref(),
                    &pattern,
                    seed,
                    None,
                    StopRule::FirstSuccess,
                    fb,
                );
            }
        }
    }

    #[test]
    fn classes_equal_concrete_on_batch_patterns(
        k in 2u32..8,
        s in 0u64..64,
        seed in 0u64..1_000,
    ) {
        // Simultaneous batches are where classes genuinely aggregate:
        // one weighted unit stands in for the whole batch until feedback
        // diverges. Retiring resolvers under AllResolved force mid-run
        // splits (each own-success drops the winner out of the class).
        let n = 64u32;
        let ids: Vec<StationId> = (0..k).map(|i| StationId(i * (n / 8))).collect();
        let pattern = WakePattern::simultaneous(&ids, s).expect("distinct ids");
        for protocol in protocols(n, &pattern, seed) {
            assert_class_equivalent_under(
                n,
                protocol.as_ref(),
                &pattern,
                seed,
                None,
                StopRule::FirstSuccess,
                FeedbackModel::NoCollisionDetection,
            );
        }
        for fb in [FeedbackModel::NoCollisionDetection, FeedbackModel::CollisionDetection] {
            for protocol in retiring_protocols(n, seed) {
                assert_class_equivalent_under(
                    n,
                    protocol.as_ref(),
                    &pattern,
                    seed,
                    Some(20_000),
                    StopRule::AllResolved,
                    fb,
                );
            }
        }
    }

    #[test]
    fn classes_equal_concrete_under_all_resolved(
        pattern in arb_pattern(32),
        seed in 0u64..1_000,
    ) {
        // Feedback-driven retirement over arbitrary wake shapes: classes
        // must split/shrink exactly when the concrete stations diverge.
        for fb in [FeedbackModel::NoCollisionDetection, FeedbackModel::CollisionDetection] {
            for protocol in retiring_protocols(32, seed) {
                assert_class_equivalent_under(
                    32,
                    protocol.as_ref(),
                    &pattern,
                    seed,
                    Some(20_000),
                    StopRule::AllResolved,
                    fb,
                );
            }
        }
    }
}

#[test]
fn classes_equal_concrete_on_structured_patterns() {
    // The deterministic grid: block wakes (the mega-station shape), batch
    // and staggered arrivals, the whole zoo under both stop rules × both
    // feedback models, plus the forced-dense class engine (per-slot unit
    // polling) against the same reference and forced Bitslab against it.
    for n in [64u32, 256] {
        let ids: Vec<StationId> = (0..6).map(|i| StationId(i * (n / 8) + 1)).collect();
        let patterns = [
            WakePattern::range(0, n / 2, 3).unwrap(),
            WakePattern::simultaneous(&ids, 137).unwrap(),
            WakePattern::staggered(&ids, 5, 33).unwrap(),
            WakePattern::batches(&ids, 2, 50, &[3, 3]).unwrap(),
        ];
        for pattern in patterns.iter() {
            for seed in [0u64, 7] {
                for fb in [
                    FeedbackModel::NoCollisionDetection,
                    FeedbackModel::CollisionDetection,
                ] {
                    for protocol in protocols(n, pattern, seed) {
                        assert_class_equivalent_under(
                            n,
                            protocol.as_ref(),
                            pattern,
                            seed,
                            None,
                            StopRule::FirstSuccess,
                            fb,
                        );
                    }
                    for protocol in retiring_protocols(n, seed) {
                        assert_class_equivalent_under(
                            n,
                            protocol.as_ref(),
                            pattern,
                            seed,
                            Some(50_000),
                            StopRule::AllResolved,
                            fb,
                        );
                    }
                }
            }
        }
    }
    // The class engine forced dense (per-slot polling over units) is the
    // same observable machine — pin one representative case per protocol.
    let n = 64u32;
    let pattern = WakePattern::range(0, n / 2, 3).unwrap();
    let cfg = SimConfig::new(n).with_transcript();
    for protocol in protocols(n, &pattern, 7) {
        let concrete = Simulator::new(cfg.clone())
            .run(protocol.as_ref(), &pattern, 7)
            .unwrap();
        let classed_dense =
            Simulator::new(cfg.clone().with_classes().with_engine(EngineMode::Dense))
                .run(protocol.as_ref(), &pattern, 7)
                .unwrap();
        assert_eq!(
            classed_dense.transcript,
            concrete.transcript,
            "dense class engine transcript: {}",
            protocol.name()
        );
        assert_eq!(classed_dense.first_success, concrete.first_success);
        assert_eq!(classed_dense.per_station_tx, concrete.per_station_tx);
        // Forced Bitslab never reaches class units: the class gate steps them
        // scalar-dense, so the run is the forced-Dense class run, work
        // counters included, and the word kernel never runs.
        let classed_bitslab =
            Simulator::new(cfg.clone().with_classes().with_engine(EngineMode::Bitslab))
                .run(protocol.as_ref(), &pattern, 7)
                .unwrap();
        let fields = |o: &Outcome| {
            (
                o.first_success,
                o.winner,
                o.slots_simulated,
                o.transmissions,
                o.per_station_tx.clone(),
                o.collisions,
                o.silent_slots,
                o.skipped_slots,
                o.peak_units,
                o.resolved.clone(),
                o.all_resolved_at,
                o.faults,
            )
        };
        let name = protocol.name();
        assert_eq!(
            classed_bitslab.transcript, classed_dense.transcript,
            "bitslab class transcript: {name}"
        );
        assert_eq!(
            fields(&classed_bitslab),
            fields(&classed_dense),
            "bitslab class outcome: {name}"
        );
        assert_eq!(
            (classed_bitslab.polls, classed_bitslab.dense_steps),
            (classed_dense.polls, classed_dense.dense_steps),
            "bitslab class polls and dense steps: {name}"
        );
        assert_eq!(classed_bitslab.word_slots, 0, "word slots: {name}");
        assert_eq!(classed_bitslab.mode_switches, 0, "mode switches: {name}");
    }
}

#[test]
fn class_splits_mid_run_on_divergent_feedback() {
    // Purpose-built retirement scenario: a retiring round-robin batch wakes
    // as ONE class; every own-success retires exactly one member, so the
    // class must shed members one at a time (divergent feedback mid-run)
    // while the outcome stays bit-identical to eight concrete stations.
    let n = 64u32;
    let ids: Vec<StationId> = (0..8u32).map(|i| StationId(i * 7 + 2)).collect();
    let pattern = WakePattern::simultaneous(&ids, 11).unwrap();
    let protocol = RetiringRoundRobin::new(n);
    for fb in [
        FeedbackModel::NoCollisionDetection,
        FeedbackModel::CollisionDetection,
    ] {
        let cfg = SimConfig::new(n)
            .until_all_resolved()
            .with_max_slots(50_000)
            .with_transcript()
            .with_feedback(fb);
        let concrete = Simulator::new(cfg.clone())
            .run(&protocol, &pattern, 0)
            .unwrap();
        let classed = Simulator::new(cfg.with_classes())
            .run(&protocol, &pattern, 0)
            .unwrap();
        assert_eq!(concrete.resolved.len(), 8, "all stations must resolve");
        assert_eq!(classed.resolved, concrete.resolved);
        assert_eq!(classed.all_resolved_at, concrete.all_resolved_at);
        assert_eq!(classed.transcript, concrete.transcript);
        assert_eq!(classed.per_station_tx, concrete.per_station_tx);
        // The batch is genuinely aggregated: the class engine never held
        // eight separate units, the concrete engine always did.
        assert!(
            classed.peak_units < concrete.peak_units,
            "no aggregation: classed {} vs concrete {}",
            classed.peak_units,
            concrete.peak_units
        );
        assert_eq!(concrete.peak_units, 8);
    }
}

#[test]
fn mega_block_wake_runs_in_constant_units() {
    // Acceptance shape at test scale: a block wake of the entire universe
    // is ONE equivalence class for round-robin; the class engine must hold
    // O(1) units while matching the concrete outcome exactly.
    let n = 4096u32;
    let pattern = WakePattern::range(0, n, 0).unwrap();
    let protocol = RoundRobin::new(n);
    let cfg = SimConfig::new(n).with_transcript();
    let concrete = Simulator::new(cfg.clone())
        .run(&protocol, &pattern, 0)
        .unwrap();
    let classed = Simulator::new(cfg.with_classes())
        .run(&protocol, &pattern, 0)
        .unwrap();
    assert_eq!(classed.first_success, concrete.first_success);
    assert_eq!(classed.winner, concrete.winner);
    assert_eq!(classed.transcript, concrete.transcript);
    assert_eq!(classed.transmissions, concrete.transmissions);
    assert_eq!(concrete.peak_units as u32, n);
    assert_eq!(classed.peak_units, 1, "block wake is one class");

    // Every oblivious protocol of §3–§4 runs a block wake as one class, for
    // s of both parities: half the universe at n = 256, with k = 128.
    let (n, k) = (256u32, 128u32);
    let provider = FamilyProvider::random_with_seed(5);
    let (stop, fb) = (StopRule::FirstSuccess, FeedbackModel::NoCollisionDetection);
    for s in [0u64, 3] {
        let pattern = WakePattern::range(0, k, s).unwrap();
        let protocols: [Box<dyn Protocol>; 5] = [
            Box::new(RoundRobin::new(n)),
            Box::new(SelectAmongFirst::new(n, s, provider)),
            Box::new(WaitAndGo::new(n, k, provider)),
            Box::new(WakeupWithS::new(n, s, provider)),
            Box::new(WakeupWithK::new(n, k, provider)),
        ];
        for protocol in &protocols {
            let classed =
                assert_class_equivalent_under(n, protocol.as_ref(), &pattern, 0, None, stop, fb);
            assert!(classed.solved(), "{} s={s}", protocol.name());
            assert_eq!(classed.peak_units, 1, "{} s={s}", protocol.name());
        }
    }
}

#[test]
fn sparse_engine_actually_engages() {
    // Guard against silently losing the speedup: on a sparse pattern the
    // auto engine must do strictly less polling work than dense.
    let n = 1024u32;
    let ids: Vec<StationId> = (n - 8..n).map(StationId).collect();
    let pattern = WakePattern::simultaneous(&ids, 0).unwrap();
    let auto = Simulator::new(SimConfig::new(n))
        .run(&RoundRobin::new(n), &pattern, 0)
        .unwrap();
    let dense = Simulator::new(SimConfig::new(n).with_engine(EngineMode::Dense))
        .run(&RoundRobin::new(n), &pattern, 0)
        .unwrap();
    assert_eq!(auto.first_success, dense.first_success);
    assert!(auto.skipped_slots > 1000, "skipped {}", auto.skipped_slots);
    assert!(
        auto.polls * 100 < dense.polls,
        "auto polls {} vs dense polls {}",
        auto.polls,
        dense.polls
    );
}
