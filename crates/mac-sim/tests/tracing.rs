//! Integration tests for the structured tracing subsystem: the
//! deterministic event tier must be bit-identical across engine and
//! population modes, tracing must never perturb outcomes, and sampling
//! must select a strict subsequence of the unsampled stream.

use mac_sim::metrics::OutcomeDigest;
use mac_sim::prelude::*;
use mac_sim::tracer::{RecordingTracer, TraceEvent, TraceFilter, TraceKind};

/// Round-robin with O(1) sparse hints: station `id` transmits iff
/// `t % n == id`, and promises exactly that slot to the engine. Drives the
/// sparse path (gap skips, hint re-queries, adaptive bursts under `Auto`).
struct HintedRoundRobin {
    n: u32,
}
struct HrrStation {
    id: StationId,
    n: u32,
}
impl Station for HrrStation {
    fn wake(&mut self, _sigma: Slot) {}
    fn act(&mut self, t: Slot) -> Action {
        Action::from_bool(t % u64::from(self.n) == u64::from(self.id.0))
    }
    fn next_transmission(&mut self, after: Slot) -> TxHint {
        let n = u64::from(self.n);
        let want = u64::from(self.id.0);
        let have = after % n;
        let next = after + (want + n - have) % n;
        TxHint::at(next)
    }
}
impl Protocol for HintedRoundRobin {
    fn station(&self, id: StationId, _seed: u64) -> Box<dyn Station> {
        Box::new(HrrStation { id, n: self.n })
    }
    fn name(&self) -> String {
        "hinted-rr".into()
    }
}

/// A seeded pseudo-random protocol with no hints (answers `TxHint::Dense`),
/// exercising collisions and the dense fallback in every mode.
struct Jitter;
struct JitterStation {
    seed: u64,
    sigma: Slot,
}
impl Station for JitterStation {
    fn wake(&mut self, sigma: Slot) {
        self.sigma = sigma;
    }
    fn act(&mut self, t: Slot) -> Action {
        let h = mac_sim::rng::derive_seed(self.seed, t - self.sigma + 1);
        Action::from_bool(h.is_multiple_of(3))
    }
}
impl Protocol for Jitter {
    fn station(&self, _id: StationId, seed: u64) -> Box<dyn Station> {
        Box::new(JitterStation { seed, sigma: 0 })
    }
    fn name(&self) -> String {
        "jitter".into()
    }
}

const N: u32 = 64;

fn patterns() -> Vec<WakePattern> {
    let ids = |v: &[u32]| -> Vec<StationId> { v.iter().copied().map(StationId).collect() };
    vec![
        WakePattern::simultaneous(&ids(&[3]), 7).unwrap(),
        WakePattern::simultaneous(&ids(&[5, 9, 21, 40]), 100).unwrap(),
        WakePattern::new(
            ids(&[2, 17, 33, 48])
                .into_iter()
                .zip([0u64, 250, 251, 900])
                .collect(),
        )
        .unwrap(),
        WakePattern::new(ids(&[0, 1, 63]).into_iter().zip([5u64, 5, 2000]).collect()).unwrap(),
    ]
}

fn modes() -> Vec<(EngineMode, PopulationMode, &'static str)> {
    vec![
        (EngineMode::Dense, PopulationMode::Concrete, "dense"),
        (EngineMode::Auto, PopulationMode::Concrete, "sparse"),
        (EngineMode::Dense, PopulationMode::Classes, "classes-dense"),
        (EngineMode::Auto, PopulationMode::Classes, "classes-sparse"),
    ]
}

fn run_traced(
    protocol: &dyn Protocol,
    pattern: &WakePattern,
    seed: u64,
    engine: EngineMode,
    population: PopulationMode,
    filter: TraceFilter,
) -> (Outcome, Vec<TraceEvent>) {
    let cfg = SimConfig::new(N)
        .with_max_slots(5000)
        .with_engine(engine)
        .with_population(population);
    let mut rec = RecordingTracer::with_filter(filter);
    let out = Simulator::new(cfg)
        .run_traced(protocol, pattern, seed, &mut rec)
        .unwrap();
    (out, rec.into_events())
}

#[test]
fn deterministic_stream_bit_identical_across_engines_and_populations() {
    let protocols: Vec<Box<dyn Protocol>> =
        vec![Box::new(HintedRoundRobin { n: N }), Box::new(Jitter)];
    for protocol in &protocols {
        for pattern in patterns() {
            for seed in [0u64, 1, 0xC0FFEE] {
                let runs: Vec<(&str, Outcome, Vec<TraceEvent>)> = modes()
                    .into_iter()
                    .map(|(e, p, label)| {
                        let (out, evs) = run_traced(
                            protocol.as_ref(),
                            &pattern,
                            seed,
                            e,
                            p,
                            TraceFilter::deterministic(),
                        );
                        (label, out, evs)
                    })
                    .collect();
                let (_, ref_out, ref_evs) = &runs[0];
                for (label, out, evs) in &runs[1..] {
                    assert_eq!(
                        evs,
                        ref_evs,
                        "deterministic stream diverged: dense vs {label} \
                         ({} seed {seed})",
                        protocol.name()
                    );
                    assert_eq!(out.first_success, ref_out.first_success, "{label}");
                    assert_eq!(out.slots_simulated, ref_out.slots_simulated, "{label}");
                    assert_eq!(out.transmissions, ref_out.transmissions, "{label}");
                    assert_eq!(out.collisions, ref_out.collisions, "{label}");
                }
            }
        }
    }
}

#[test]
fn tracing_never_perturbs_the_outcome() {
    let protocols: Vec<Box<dyn Protocol>> =
        vec![Box::new(HintedRoundRobin { n: N }), Box::new(Jitter)];
    for protocol in &protocols {
        for pattern in patterns() {
            for (engine, population, label) in modes() {
                let cfg = SimConfig::new(N)
                    .with_max_slots(5000)
                    .with_engine(engine)
                    .with_population(population)
                    .with_transcript();
                let sim = Simulator::new(cfg);
                let plain = sim.run(protocol.as_ref(), &pattern, 42).unwrap();
                let mut rec = RecordingTracer::new();
                let traced = sim
                    .run_traced(protocol.as_ref(), &pattern, 42, &mut rec)
                    .unwrap();
                assert_eq!(
                    OutcomeDigest::of(&plain),
                    OutcomeDigest::of(&traced),
                    "digest diverged under tracing ({label}, {})",
                    protocol.name()
                );
                assert_eq!(
                    plain.transcript, traced.transcript,
                    "transcript diverged under tracing ({label})"
                );
                assert!(!rec.events().is_empty(), "trace was empty ({label})");
            }
        }
    }
}

#[test]
fn deterministic_events_account_for_every_slot() {
    // Wake/Silence/Success/Collision partition the covered slot range:
    // silence runs carry their length, transmission events one slot each.
    let protocol = HintedRoundRobin { n: N };
    for pattern in patterns() {
        let (out, evs) = run_traced(
            &protocol,
            &pattern,
            7,
            EngineMode::Auto,
            PopulationMode::Concrete,
            TraceFilter::deterministic(),
        );
        let mut covered = 0u64;
        let mut run_end = None;
        for ev in &evs {
            match *ev {
                TraceEvent::Silence { slots, .. } => covered += slots,
                TraceEvent::Success { .. } | TraceEvent::Collision { .. } => covered += 1,
                TraceEvent::Wake { .. } => {}
                TraceEvent::RunEnd {
                    slots,
                    first_success,
                } => run_end = Some((slots, first_success)),
                _ => panic!("engine-tier event in deterministic stream: {ev:?}"),
            }
        }
        assert_eq!(covered, out.slots_simulated, "slot coverage mismatch");
        assert_eq!(
            run_end,
            Some((out.slots_simulated, out.first_success)),
            "run_end must mirror the outcome"
        );
        // Silence runs are coalesced: no two adjacent silence events.
        for pair in evs.windows(2) {
            if let (TraceEvent::Silence { slot, slots }, TraceEvent::Silence { slot: s2, .. }) =
                (&pair[0], &pair[1])
            {
                assert_ne!(slot + slots, *s2, "adjacent silence runs not coalesced");
            }
        }
    }
}

#[test]
fn sampled_stream_is_a_strict_subsequence() {
    let protocol = Jitter;
    let pattern =
        WakePattern::simultaneous(&(0..12u32).map(StationId).collect::<Vec<_>>(), 3).unwrap();
    for stride in [2u64, 3, 7] {
        let (_, full) = run_traced(
            &protocol,
            &pattern,
            99,
            EngineMode::Auto,
            PopulationMode::Concrete,
            TraceFilter::all(),
        );
        let (_, sampled) = run_traced(
            &protocol,
            &pattern,
            99,
            EngineMode::Auto,
            PopulationMode::Concrete,
            TraceFilter::all().sample_every(stride),
        );
        // Subsequence check (order-preserving containment).
        let mut it = full.iter();
        for s in &sampled {
            assert!(
                it.any(|f| f == s),
                "sampled event missing or out of order (stride {stride})"
            );
        }
        // Per-kind count: ceil(count / stride).
        for kind in TraceKind::ALL {
            let total = full.iter().filter(|e| e.kind() == kind).count() as u64;
            let kept = sampled.iter().filter(|e| e.kind() == kind).count() as u64;
            assert_eq!(
                kept,
                total.div_ceil(stride),
                "kind {kind:?} stride {stride}"
            );
        }
    }
}

#[test]
fn engine_tier_reports_mode_switch_counts_consistent_with_outcome() {
    // Under Auto every counted mode switch emits a ModeSwitch event (the
    // initial dense lock of hintless protocols is evented but not counted).
    let protocol = HintedRoundRobin { n: N };
    for pattern in patterns() {
        let (out, evs) = run_traced(
            &protocol,
            &pattern,
            13,
            EngineMode::Auto,
            PopulationMode::Concrete,
            TraceFilter::engine_only(),
        );
        let switches = evs
            .iter()
            .filter(|e| matches!(e, TraceEvent::ModeSwitch { .. }))
            .count() as u64;
        assert_eq!(
            switches, out.mode_switches,
            "ModeSwitch events must match Outcome::mode_switches"
        );
        for ev in &evs {
            assert!(
                !ev.kind().deterministic(),
                "deterministic event leaked into engine_only stream: {ev:?}"
            );
        }
    }
}

/// Hints `At(3)` on its first query and answers [`TxHint::Dense`] to every
/// later one; transmits at every slot from 3 on (so the two stations below
/// collide forever).
struct HintThenDense;
struct HintThenDenseStation {
    queried: bool,
}
impl Station for HintThenDenseStation {
    fn wake(&mut self, _sigma: Slot) {}
    fn act(&mut self, t: Slot) -> Action {
        Action::from_bool(t >= 3)
    }
    fn next_transmission(&mut self, _after: Slot) -> TxHint {
        if std::mem::replace(&mut self.queried, true) {
            TxHint::Dense
        } else {
            TxHint::at(3)
        }
    }
}
impl Protocol for HintThenDense {
    fn station(&self, _id: StationId, _seed: u64) -> Box<dyn Station> {
        Box::new(HintThenDenseStation { queried: false })
    }
    fn name(&self) -> String {
        "hint-then-dense".into()
    }
}

#[test]
fn dense_lock_at_a_re_arm_is_evented_on_both_populations() {
    // The polled stations are re-armed from slot 4 and answer Dense: the
    // run leaves the sparse path for good there. That permanent lock is
    // one ModeSwitch event (uncounted, like every dense lock) on both
    // populations, not only on the class engine.
    let pattern = WakePattern::new(vec![(StationId(2), 0), (StationId(5), 1)]).unwrap();
    for population in [PopulationMode::Concrete, PopulationMode::Classes] {
        let cfg = SimConfig::new(16)
            .with_max_slots(40)
            .with_engine(EngineMode::Auto)
            .with_population(population);
        let mut rec = RecordingTracer::with_filter(TraceFilter::engine_only());
        let out = Simulator::new(cfg)
            .run_traced(&HintThenDense, &pattern, 0, &mut rec)
            .unwrap();
        assert_eq!(
            (
                out.slots_simulated,
                out.polls,
                out.dense_steps,
                out.mode_switches
            ),
            (40, 74, 36, 0),
            "{population:?}"
        );
        let switches: Vec<TraceEvent> = rec
            .into_events()
            .into_iter()
            .filter(|e| e.kind() == TraceKind::ModeSwitch)
            .collect();
        assert_eq!(
            switches,
            vec![TraceEvent::ModeSwitch {
                slot: 4,
                dense: true
            }],
            "{population:?}"
        );
    }
}
