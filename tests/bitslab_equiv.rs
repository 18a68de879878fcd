//! The bit-parallel word kernel must be **observationally identical** to
//! the scalar engines: `EngineMode::Bitslab` gathers 64-slot tiles of
//! per-station transmit bits ([`Station::fill_tx_word`], with a generic
//! hint-based fill for everyone else), transposes them into per-slot words
//! and settles each slot from a popcount — and none of that may be visible
//! in the outcome, the transcript, or the channel-tier trace stream. Only
//! the work counters (`word_slots` vs `dense_steps`/`polls`) may differ.
//!
//! Pinned here across the protocol zoo × both feedback models × random,
//! batch and block wake patterns × both stop rules, including mid-burst
//! success and retirement splits (a success inside a 64-slot tile
//! invalidates the planned words of success-scoped stations; a retirement
//! removes a planned transmitter mid-tile) — the exact places where a
//! stale tile would silently corrupt the channel.
//!
//! Three-way comparison per case: forced scalar dense (the ground-truth
//! reference), forced `Bitslab`, and `Auto` (whose adaptive burst windows
//! run the same kernel). The channel-tier trace is compared as serialized
//! bytes, so event *encoding* divergence is caught too.

use mac_sim::engine::StopRule;
use mac_sim::tracer::{RecordingTracer, TraceEvent, TraceFilter};
use mac_wakeup::prelude::*;
use proptest::collection::btree_set;
use proptest::prelude::*;

/// Run under `engine`, recording the deterministic (channel-tier) stream.
fn run_channel(
    cfg: &SimConfig,
    engine: EngineMode,
    protocol: &dyn Protocol,
    pattern: &WakePattern,
    run_seed: u64,
) -> (Outcome, Vec<TraceEvent>) {
    let mut rec = RecordingTracer::with_filter(TraceFilter::deterministic());
    let out = Simulator::new(cfg.clone().with_engine(engine))
        .run_traced(protocol, pattern, run_seed, &mut rec)
        .expect("run");
    (out, rec.into_events())
}

/// Assert that two outcomes agree on every cross-engine observable.
fn assert_observables_equal(a: &Outcome, b: &Outcome, label: &str, ctx: &str) {
    assert_eq!(a.s, b.s, "s ({label}): {ctx}");
    assert_eq!(
        a.first_success, b.first_success,
        "first_success ({label}): {ctx}"
    );
    assert_eq!(a.winner, b.winner, "winner ({label}): {ctx}");
    assert_eq!(a.latency(), b.latency(), "latency ({label}): {ctx}");
    assert_eq!(
        a.slots_simulated, b.slots_simulated,
        "slots_simulated ({label}): {ctx}"
    );
    assert_eq!(
        a.transmissions, b.transmissions,
        "transmissions ({label}): {ctx}"
    );
    assert_eq!(
        a.per_station_tx, b.per_station_tx,
        "per_station_tx ({label}): {ctx}"
    );
    assert_eq!(a.collisions, b.collisions, "collisions ({label}): {ctx}");
    assert_eq!(
        a.silent_slots, b.silent_slots,
        "silent_slots ({label}): {ctx}"
    );
    assert_eq!(a.resolved, b.resolved, "resolved ({label}): {ctx}");
    assert_eq!(
        a.all_resolved_at, b.all_resolved_at,
        "all_resolved_at ({label}): {ctx}"
    );
    assert_eq!(a.transcript, b.transcript, "transcript ({label}): {ctx}");
}

/// Run `protocol` under scalar dense, forced `Bitslab` and `Auto`, and
/// assert bit-identical observables, channel-tier trace bytes, and the
/// slot-accounting invariant on the kernel paths.
fn assert_bitslab_equivalent_under(
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
    let (dense, dense_evs) = run_channel(&cfg, EngineMode::Dense, protocol, pattern, run_seed);
    let (slab, slab_evs) = run_channel(&cfg, EngineMode::Bitslab, protocol, pattern, run_seed);
    let (auto, auto_evs) = run_channel(&cfg, EngineMode::Auto, protocol, pattern, run_seed);

    let shape = if pattern.is_blocks() {
        format!("blocks(k={}, s={})", pattern.k(), pattern.s())
    } else {
        format!("{:?}", pattern.wakes())
    };
    let ctx = format!(
        "protocol={} pattern={shape} seed={run_seed} cap={max_slots:?} stop={stop:?} fb={feedback:?}",
        protocol.name(),
    );
    assert_observables_equal(&slab, &dense, "bitslab vs dense", &ctx);
    assert_observables_equal(&auto, &dense, "auto vs dense", &ctx);

    // Channel-tier trace: identical events AND identical serialized bytes.
    assert_eq!(slab_evs, dense_evs, "bitslab channel events: {ctx}");
    assert_eq!(auto_evs, dense_evs, "auto channel events: {ctx}");
    let bytes = |evs: &[TraceEvent]| -> Vec<u8> {
        let mut buf = Vec::new();
        for ev in evs {
            buf.extend_from_slice(format!("{ev:?}\n").as_bytes());
        }
        buf
    };
    assert_eq!(
        bytes(&slab_evs),
        bytes(&dense_evs),
        "bitslab channel trace bytes: {ctx}"
    );

    // Slot accounting with the word-kernel counter, both kernel paths.
    for (label, out) in [("bitslab", &slab), ("auto", &auto)] {
        assert!(
            out.skipped_slots + out.dense_steps + out.word_slots <= out.slots_simulated,
            "overcounted slots ({label}): {ctx}"
        );
        assert!(
            out.slots_simulated <= out.skipped_slots + out.dense_steps + out.word_slots + out.polls,
            "unaccounted slots ({label}, {} simulated, {} skipped, {} dense, {} word, \
             {} polls): {ctx}",
            out.slots_simulated,
            out.skipped_slots,
            out.dense_steps,
            out.word_slots,
            out.polls
        );
    }
    // The scalar reference never touches the kernel. The forced-kernel run
    // has no sparse path: every slot is a dead-air skip, a word-resolved
    // tile slot, or — after a permanent TxHint::Dense fallback — a scalar
    // dense step, so its accounting is exact (no `≤ polls` slack).
    assert_eq!(dense.word_slots, 0, "dense ran the kernel: {ctx}");
    assert_eq!(
        slab.skipped_slots + slab.dense_steps + slab.word_slots,
        slab.slots_simulated,
        "bitslab accounting: {ctx}"
    );
}

/// The deterministic protocol zoo (mirrors `sparse_dense_equiv.rs`): the
/// structured protocols with bespoke `fill_tx_word` tiles — round-robin,
/// the doubling-schedule family, the waking matrix — plus the generic-fill
/// rest, the randomized hintless member and cache-shared constructions.
fn protocols(n: u32, pattern: &WakePattern, seed: u64) -> Vec<Box<dyn Protocol>> {
    let cache = ConstructionCache::new();
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
        // Randomized and hintless: the kernel's generic fill must match the
        // scalar engine poll for poll.
        Box::new(Rpd::new(n)),
        // Cache-shared construction: word planning over shared handles.
        Box::new(WakeupWithS::cached(
            n,
            pattern.s(),
            &FamilyProvider::random_with_seed(seed),
            &cache,
        )),
    ]
}

/// The feedback-reactive (retiring) zoo: mid-burst retirement splits.
fn retiring_protocols(n: u32, seed: u64) -> Vec<Box<dyn Protocol>> {
    vec![
        Box::new(FullResolution::new(
            n,
            (n / 4).max(1),
            FamilyProvider::random_with_seed(seed),
        )),
        Box::new(RetiringRoundRobin::new(n)),
        Box::new(EnergyCapped::new(RetiringRoundRobin::new(n), 2)),
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
    fn bitslab_equals_scalar_on_random_patterns(
        pattern in arb_pattern(64),
        seed in 0u64..1_000,
    ) {
        for fb in [FeedbackModel::NoCollisionDetection, FeedbackModel::CollisionDetection] {
            for protocol in protocols(64, &pattern, seed) {
                assert_bitslab_equivalent_under(
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
    fn bitslab_equals_scalar_on_batch_patterns(
        k in 2u32..8,
        s in 0u64..64,
        seed in 0u64..1_000,
    ) {
        // Simultaneous batches: the shape the kernel exists for. A success
        // typically lands inside the first tile, so the tile-invalidation
        // path (mid-burst success splits) runs on every case.
        let n = 64u32;
        let ids: Vec<StationId> = (0..k).map(|i| StationId(i * (n / 8))).collect();
        let pattern = WakePattern::simultaneous(&ids, s).expect("distinct ids");
        for protocol in protocols(n, &pattern, seed) {
            assert_bitslab_equivalent_under(
                n,
                protocol.as_ref(),
                &pattern,
                seed,
                None,
                StopRule::FirstSuccess,
                FeedbackModel::NoCollisionDetection,
            );
        }
        // Retirement mid-tile: each own-success removes a planned
        // transmitter from every already-filled word after it.
        for fb in [FeedbackModel::NoCollisionDetection, FeedbackModel::CollisionDetection] {
            for protocol in retiring_protocols(n, seed) {
                assert_bitslab_equivalent_under(
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
    fn bitslab_equals_scalar_under_tight_caps(
        pattern in arb_pattern(32),
        seed in 0u64..1_000,
        cap in 1u64..400,
    ) {
        // Censored runs: the cap may cut a 64-slot tile short — the kernel
        // must not resolve (or count) slots past the clamp.
        for protocol in protocols(32, &pattern, seed) {
            assert_bitslab_equivalent_under(
                32,
                protocol.as_ref(),
                &pattern,
                seed,
                Some(cap),
                StopRule::FirstSuccess,
                FeedbackModel::NoCollisionDetection,
            );
        }
    }
}

#[test]
fn bitslab_equals_scalar_on_block_patterns() {
    // Deterministic block wakes (the mega-station shape) and the worst-case
    // round-robin block, at sizes that cross tile boundaries (n > 64 means
    // multi-tile bursts; the last tile is partial).
    for n in [16u32, 64, 256] {
        let blocks = [
            WakePattern::range(0, n / 2, 3).unwrap(),
            WakePattern::range(n / 4, (n / 4) * 2, 137).unwrap(),
            WakePattern::simultaneous(&(n - 4..n).map(StationId).collect::<Vec<_>>(), 0).unwrap(),
        ];
        for pattern in blocks.iter() {
            for seed in [0u64, 7] {
                for fb in [
                    FeedbackModel::NoCollisionDetection,
                    FeedbackModel::CollisionDetection,
                ] {
                    for protocol in protocols(n, pattern, seed) {
                        assert_bitslab_equivalent_under(
                            n,
                            protocol.as_ref(),
                            pattern,
                            seed,
                            None,
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
fn bitslab_equals_scalar_on_staggered_retirement() {
    // Staggered arrivals under AllResolved: wakes land mid-tile, successes
    // and retirements interleave with tile refills across both models.
    for n in [32u32, 64] {
        let ids: Vec<StationId> = (0..6).map(|i| StationId(i * (n / 8) + 1)).collect();
        let patterns = [
            WakePattern::staggered(&ids, 5, 1).unwrap(),
            WakePattern::staggered(&ids, 5, 33).unwrap(),
            WakePattern::batches(&ids, 2, 40, &[3, 3]).unwrap(),
        ];
        for pattern in patterns.iter() {
            for seed in [0u64, 7] {
                for fb in [
                    FeedbackModel::NoCollisionDetection,
                    FeedbackModel::CollisionDetection,
                ] {
                    for protocol in retiring_protocols(n, seed) {
                        assert_bitslab_equivalent_under(
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
}

#[test]
fn bitslab_equals_scalar_for_oblivious_schedules_past_the_first_success() {
    // Under AllResolved the oblivious doubling-schedule protocols keep
    // running after each success, and every success closes the tile early:
    // the next fill starts inside the old tile. A bespoke fill that moved
    // state which later `act` or hint calls rely on diverges here.
    for n in [32u32, 64] {
        let ids: Vec<StationId> = (0..6).map(|i| StationId(i * (n / 8) + 1)).collect();
        // WakeupWithK runs wait-and-go position q on odd slot 2q + 1: the
        // slot of the first family boundary past position 0 for k stations
        // (family sizes do not depend on the provider seed).
        let boundary_slot = |k: usize| {
            let wag = WaitAndGo::new(n, k as u32, FamilyProvider::default());
            2 * wag.schedule().next_boundary(1) + 1
        };
        let patterns = [
            WakePattern::simultaneous(&ids, 7).unwrap(),
            WakePattern::staggered(&ids, 5, 9).unwrap(),
            WakePattern::range(0, n / 2, 3).unwrap(),
            // An odd gap alternates the parity of the wake slots; the first
            // station wakes two slots before the boundary, so its
            // go_position falls inside its first tile.
            WakePattern::staggered(&ids, boundary_slot(ids.len()) - 2, 3).unwrap(),
            // A block waking on the even slot just before a boundary: every
            // go_position is the second slot of the first tile.
            WakePattern::range(0, n / 2, boundary_slot(n as usize / 2) - 1).unwrap(),
        ];
        for pattern in patterns.iter() {
            for seed in [0u64, 7] {
                let provider = FamilyProvider::random_with_seed(seed);
                let k = pattern.k() as u32;
                let protocols: [Box<dyn Protocol>; 4] = [
                    Box::new(WaitAndGo::new(n, k, provider)),
                    Box::new(SelectAmongFirst::new(n, pattern.s(), provider)),
                    Box::new(WakeupWithS::new(n, pattern.s(), provider)),
                    Box::new(WakeupWithK::new(n, k, provider)),
                ];
                for fb in [
                    FeedbackModel::NoCollisionDetection,
                    FeedbackModel::CollisionDetection,
                ] {
                    for protocol in protocols.iter() {
                        assert_bitslab_equivalent_under(
                            n,
                            protocol.as_ref(),
                            pattern,
                            seed,
                            Some(3_000),
                            StopRule::AllResolved,
                            fb,
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn bitslab_engages_the_word_kernel_on_bursts() {
    // Guard against the kernel silently never running: on a dense burst the
    // forced-kernel engine must resolve (nearly) everything by words, and
    // poll strictly less than the scalar reference.
    let n = 256u32;
    let pattern = WakePattern::range(0, n, 0).unwrap();
    let protocol = RoundRobin::new(n);
    let cfg = SimConfig::new(n).with_transcript();
    let (dense, _) = run_channel(&cfg, EngineMode::Dense, &protocol, &pattern, 0);
    let (slab, _) = run_channel(&cfg, EngineMode::Bitslab, &protocol, &pattern, 0);
    assert_eq!(slab.transcript, dense.transcript);
    assert!(slab.word_slots > 0, "kernel never engaged");
    assert_eq!(slab.word_slots + slab.skipped_slots, slab.slots_simulated);
    assert!(
        slab.polls < dense.polls,
        "kernel polls {} not below scalar polls {}",
        slab.polls,
        dense.polls
    );
}

#[test]
fn bitslab_mode_composes_with_class_population() {
    // PopulationMode::Classes has no word kernel (units are weighted, not
    // 64-wide), so EngineMode::Bitslab degrades to dense unit polling there
    // — but the combination must still be observationally exact.
    let n = 64u32;
    let patterns = [
        WakePattern::range(0, n / 2, 3).unwrap(),
        WakePattern::simultaneous(
            &(0..6u32).map(|i| StationId(i * 7 + 2)).collect::<Vec<_>>(),
            11,
        )
        .unwrap(),
    ];
    for pattern in patterns.iter() {
        for protocol in protocols(n, pattern, 7) {
            let cfg = SimConfig::new(n).with_transcript();
            let (concrete, concrete_evs) =
                run_channel(&cfg, EngineMode::Dense, protocol.as_ref(), pattern, 7);
            let classed_cfg = cfg.clone().with_classes();
            let (classed, classed_evs) = run_channel(
                &classed_cfg,
                EngineMode::Bitslab,
                protocol.as_ref(),
                pattern,
                7,
            );
            let ctx = format!("protocol={}", protocol.name());
            assert_observables_equal(&classed, &concrete, "classed bitslab vs dense", &ctx);
            assert_eq!(classed_evs, concrete_evs, "channel events: {ctx}");
        }
    }
}
