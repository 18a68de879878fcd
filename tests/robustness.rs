//! Robustness: behaviour under broken promises and hostile configurations.
//!
//! The policy these tests pin: a violated promise (wrong `k`, wrong `s`)
//! degrades to the interleaved round-robin guarantee instead of failing.

use mac_wakeup::prelude::*;

const N: u32 = 64;

#[test]
fn scenario_b_with_understated_k_still_solves_within_2n() {
    // Promise k = 2, adversary wakes 32: selectivity is void, round-robin
    // (even slots) still finishes within 2n.
    let protocol = WakeupWithK::new(N, 2, FamilyProvider::default());
    let ids: Vec<StationId> = (0..32).map(|i| StationId(i * 2)).collect();
    let pattern = WakePattern::simultaneous(&ids, 5).unwrap();
    let sim = Simulator::new(SimConfig::new(N).with_max_slots(10_000));
    let out = sim.run(&protocol, &pattern, 0).unwrap();
    assert!(out.solved());
    assert!(out.latency().unwrap() <= 2 * u64::from(N));
}

#[test]
fn scenario_a_with_wrong_s_still_solves_within_2n() {
    // The protocol believes s = 0 but the first wake-up is at 3: nobody
    // participates in select-among-the-first, round-robin must deliver.
    let protocol = WakeupWithS::new(N, 0, FamilyProvider::default());
    let ids: Vec<StationId> = [7u32, 30, 55].map(StationId).into();
    let pattern = WakePattern::simultaneous(&ids, 3).unwrap();
    let sim = Simulator::new(SimConfig::new(N).with_max_slots(10_000));
    let out = sim.run(&protocol, &pattern, 0).unwrap();
    assert!(out.solved());
    assert!(out.latency().unwrap() <= 2 * u64::from(N));
}

#[test]
fn scenario_a_with_partially_right_s_uses_both_components() {
    // Some stations wake exactly at the believed s, some later: the
    // participants' selective schedule races round-robin; whichever wins,
    // the run must be valid and solved.
    let s = 10u64;
    let protocol = WakeupWithS::new(N, s, FamilyProvider::default());
    let pattern = WakePattern::new(vec![
        (StationId(3), s),
        (StationId(9), s),
        (StationId(40), s + 1),
        (StationId(60), s + 30),
    ])
    .unwrap();
    let cfg = SimConfig::new(N).with_max_slots(10_000).with_transcript();
    let out = Simulator::new(cfg).run(&protocol, &pattern, 0).unwrap();
    assert!(out.solved());
    assert!(out.transcript.unwrap().check_invariants().is_empty());
}

#[test]
fn all_n_stations_waking_is_handled() {
    // The extreme k = n: time-division territory.
    let all: Vec<StationId> = (0..N).map(StationId).collect();
    let pattern = WakePattern::simultaneous(&all, 0).unwrap();
    let sim = Simulator::new(SimConfig::new(N).with_max_slots(10_000));
    for protocol in [
        Box::new(WakeupWithK::new(N, N, FamilyProvider::default())) as Box<dyn Protocol>,
        Box::new(WakeupWithS::new(N, 0, FamilyProvider::default())),
        Box::new(WakeupN::new(MatrixParams::new(N))),
        Box::new(RoundRobin::new(N)),
    ] {
        let out = sim.run(protocol.as_ref(), &pattern, 0).unwrap();
        assert!(out.solved(), "{} failed at k = n", protocol.name());
    }
}

#[test]
fn degenerate_universes() {
    // n = 1: a single station, every protocol must solve immediately-ish.
    let pattern = WakePattern::simultaneous(&[StationId(0)], 0).unwrap();
    let sim = Simulator::new(SimConfig::new(1).with_max_slots(1_000));
    for protocol in [
        Box::new(RoundRobin::new(1)) as Box<dyn Protocol>,
        Box::new(WakeupWithK::new(1, 1, FamilyProvider::default())),
        Box::new(WakeupWithS::new(1, 0, FamilyProvider::default())),
        Box::new(WakeupN::new(MatrixParams::new(1))),
    ] {
        let out = sim.run(protocol.as_ref(), &pattern, 0).unwrap();
        assert!(out.solved(), "{} failed at n = 1", protocol.name());
    }
}

#[test]
fn spoiler_cannot_break_correctness_only_delay() {
    // Whatever pattern the spoiler finds, the protocol still solves within
    // its envelope (round-robin interleave: 2n).
    let protocol = WakeupWithK::new(N, 8, FamilyProvider::default());
    let sim = Simulator::new(SimConfig::new(N).with_max_slots(10_000));
    let ids: Vec<StationId> = (0..8).map(|i| StationId(i * 8)).collect();
    let start = WakePattern::simultaneous(&ids, 0).unwrap();
    let spoiled = SpoilerSearch::new(64, 4 * u64::from(N))
        .search(&sim, &protocol, start, 0)
        .unwrap();
    let out = spoiled.outcome;
    assert!(out.solved(), "spoiler broke the protocol");
    assert!(out.latency().unwrap() <= 2 * u64::from(N) + spoiled.pattern.last_wake());
}
