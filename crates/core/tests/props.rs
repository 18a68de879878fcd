//! Property-based tests of the paper's combinatorial objects and protocols.

use proptest::prelude::*;
use wakeup_core::prelude::*;
use wakeup_core::select_among_first::DoublingSchedule;

proptest! {
    // ------------------------------------------------------------------
    // Waking matrix structure.
    // ------------------------------------------------------------------
    #[test]
    fn mu_is_idempotent_window_aligned_and_minimal(n in 1u32..2000, sigma in 0u64..100_000) {
        let m = WakingMatrix::new(MatrixParams::new(n));
        let w = u64::from(m.window());
        let mu = m.mu(sigma);
        prop_assert!(mu >= sigma);
        prop_assert!(mu - sigma < w);
        prop_assert_eq!(mu % w, 0);
        prop_assert_eq!(m.mu(mu), mu);
    }

    #[test]
    fn row_at_offset_partitions_the_scan(
        n in 2u32..500,
        mu in 0u64..1_000,
        probe in 0u64..50_000,
    ) {
        let m = WakingMatrix::new(MatrixParams::new(n));
        let delta = probe % (m.total_scan() + 100);
        match m.segment(mu, mu + delta) {
            Some(seg) => {
                prop_assert!((1..=m.rows()).contains(&seg.row));
                // The segment is the row's dwell interval, and holds delta.
                let before: u64 = (1..seg.row).map(|i| m.dwell(i)).sum();
                prop_assert_eq!(seg.start, mu + before);
                prop_assert_eq!(seg.end, seg.start + m.dwell(seg.row));
                prop_assert!(delta >= before);
                prop_assert!(delta < before + m.dwell(seg.row));
            }
            None => prop_assert!(delta >= m.total_scan()),
        }
        // Before the walk starts there is no segment.
        prop_assert!(mu == 0 || m.segment(mu, mu - 1).is_none());
    }

    #[test]
    fn rho_commutes_with_circular_scan(n in 2u32..500, t in 0u64..1_000_000) {
        let m = WakingMatrix::new(MatrixParams::new(n));
        // ℓ is a multiple of the window, so ρ(t mod ℓ) = ρ(t).
        prop_assert_eq!(m.rho(t % m.ell()), m.rho(t));
    }

    #[test]
    fn member_is_deterministic_and_circular(
        n in 2u32..300,
        i in 1u32..8,
        j in 0u64..1_000_000,
        u in 0u32..300,
    ) {
        let m = WakingMatrix::new(MatrixParams::new(n).with_seed(7));
        let i = 1 + (i - 1) % m.rows();
        prop_assert_eq!(m.member(i, j, u), m.member(i, j, u));
        prop_assert_eq!(m.member(i, j, u), m.member(i, j + m.ell(), u));
        if u >= n {
            prop_assert!(!m.member(i, j, u));
        }
    }

    #[test]
    fn station_equals_stateless_predicate(
        n in 4u32..200,
        sigma in 0u64..500,
        span in 1u64..800,
        u in 0u32..200,
        seed in 0u64..50,
    ) {
        prop_assume!(u < n);
        let proto = WakeupN::new(MatrixParams::new(n).with_seed(seed));
        let matrix = std::sync::Arc::clone(proto.matrix());
        let mut st = mac_sim::Protocol::station(&proto, mac_sim::StationId(u), 0);
        st.wake(sigma);
        for t in sigma..sigma + span {
            let expected = matrix.transmits(u, sigma, t);
            prop_assert_eq!(st.act(t).is_transmit(), expected, "divergence at t={}", t);
        }
    }

    // ------------------------------------------------------------------
    // Doubling schedule (Scenario A/B backbone).
    // ------------------------------------------------------------------
    #[test]
    fn next_boundary_is_minimal_boundary(n in 4u32..100, top in 1u32..5, p in 0u64..5_000) {
        let sched = DoublingSchedule::new(&FamilyProvider::random_with_seed(3), n, top);
        let b = sched.next_boundary(p);
        prop_assert!(b >= p);
        prop_assert!(sched.offsets().contains(&(b % sched.period())));
        // Minimality: no boundary position strictly between p and b.
        for q in p..b {
            prop_assert!(!sched.offsets().contains(&(q % sched.period())));
        }
        // Within one period of p.
        prop_assert!(b - p <= sched.period());
    }

    #[test]
    fn doubling_schedule_positions_map_to_member_queries(
        n in 4u32..80,
        top in 1u32..4,
        p in 0u64..3_000,
        u in 0u32..80,
    ) {
        prop_assume!(u < n);
        let provider = FamilyProvider::random_with_seed(9);
        let sched = DoublingSchedule::new(&provider, n, top);
        let p_mod = p % sched.period();
        // Locate the family containing p and compare.
        let offsets = sched.offsets();
        let idx = offsets.iter().rposition(|&o| o <= p_mod).unwrap();
        let fam = &sched.families()[idx];
        prop_assert_eq!(
            sched.transmits(u, p),
            fam.member(u, p_mod - offsets[idx])
        );
    }

    // ------------------------------------------------------------------
    // Protocol-level invariants on random instances.
    // ------------------------------------------------------------------
    #[test]
    fn interleaved_components_never_share_a_slot(
        k in 2u32..8,
        seed in 0u64..50,
    ) {
        // In wakeup_with_k, even slots are round-robin (≤1 transmitter).
        let n = 64u32;
        let ids: Vec<mac_sim::StationId> =
            (0..k).map(|i| mac_sim::StationId(i * (n / k))).collect();
        let pattern = mac_sim::WakePattern::simultaneous(&ids, seed % 17).unwrap();
        let cfg = mac_sim::SimConfig::new(n).with_transcript();
        let out = mac_sim::Simulator::new(cfg)
            .run(
                &WakeupWithK::new(n, k, FamilyProvider::random_with_seed(seed)),
                &pattern,
                seed,
            )
            .unwrap();
        let tr = out.transcript.unwrap();
        for r in tr.records() {
            if r.slot % 2 == 0 {
                prop_assert!(r.transmitters.len() <= 1, "RR collision at {}", r.slot);
            }
        }
    }

    #[test]
    fn swap_chain_certificates_are_valid(n in 6u32..40, k in 2u32..8) {
        prop_assume!(k < n);
        use selectors::schedule::RoundRobinSchedule;
        let adv = SwapChainAdversary::new(n, k);
        let res = adv.run(&RoundRobinSchedule::new(n));
        prop_assert!(!res.found_unisolated_set);
        prop_assert!(res.forced_rounds >= adv.bound());
        // Chain steps are genuine k-sets and each recorded isolation round
        // really isolates its set.
        let sched = RoundRobinSchedule::new(n);
        for step in &res.chain {
            prop_assert_eq!(step.x.len(), k as usize);
            if let (Some(r), Some(w)) = (step.isolation_round, step.isolated) {
                let hits: Vec<u32> = step
                    .x
                    .iter()
                    .copied()
                    .filter(|&u| selectors::schedule::Schedule::transmits(&sched, u, r))
                    .collect();
                prop_assert_eq!(hits, vec![w]);
            }
        }
    }

    #[test]
    fn rpd_probability_exponent_cycles(n in 2u32..10_000) {
        let p = Rpd::new(n);
        let ell = p.period();
        prop_assert_eq!(ell, 2 * selectors::math::log_n(u64::from(n)));
        prop_assert!(ell >= 2);
    }
}
