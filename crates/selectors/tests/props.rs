//! Property-based tests of the combinatorial layer.

use proptest::collection::btree_set;
use proptest::prelude::*;
use selectors::bitset::BitSet;
use selectors::family::SelectiveFamily;
use selectors::kautz_singleton::KautzSingleton;
use selectors::math::{ceil_log2, choose, floor_log2, for_each_subset, is_prime, next_prime};
use selectors::random::RandomFamilyBuilder;
use selectors::schedule::{ConcatSchedule, FamilySchedule, Schedule, ScheduleExt};
use selectors::verify;
use std::collections::BTreeSet;

proptest! {
    // ------------------------------------------------------------------
    // BitSet behaves like a set of u32 (model-based testing).
    // ------------------------------------------------------------------
    #[test]
    fn bitset_matches_btreeset_model(
        universe in 1u32..300,
        ops in proptest::collection::vec((0u32..300, any::<bool>()), 0..60),
    ) {
        let mut bs = BitSet::new(universe);
        let mut model: BTreeSet<u32> = BTreeSet::new();
        for (x, insert) in ops {
            let x = x % universe;
            if insert {
                bs.insert(x);
                model.insert(x);
            } else {
                bs.remove(x);
                model.remove(&x);
            }
        }
        prop_assert_eq!(bs.len() as usize, model.len());
        prop_assert_eq!(bs.to_vec(), model.iter().copied().collect::<Vec<_>>());
        for x in 0..universe {
            prop_assert_eq!(bs.contains(x), model.contains(&x));
        }
    }

    #[test]
    fn bitset_intersection_agrees_with_model(
        universe in 1u32..200,
        a in btree_set(0u32..200, 0..30),
        b in btree_set(0u32..200, 0..30),
    ) {
        let a: BTreeSet<u32> = a.into_iter().filter(|&x| x < universe).collect();
        let b: BTreeSet<u32> = b.into_iter().filter(|&x| x < universe).collect();
        let ba = BitSet::from_iter_members(universe, a.iter().copied());
        let bb = BitSet::from_iter_members(universe, b.iter().copied());
        let expected = a.intersection(&b).count() as u32;
        prop_assert_eq!(ba.intersection_size(&bb), expected);
        let b_sorted: Vec<u32> = b.iter().copied().collect();
        prop_assert_eq!(ba.intersection_size_with_slice(&b_sorted), expected);
    }

    // ------------------------------------------------------------------
    // math helpers.
    // ------------------------------------------------------------------
    #[test]
    fn log2_bounds(x in 1u64..u64::MAX / 2) {
        let c = ceil_log2(x);
        let f = floor_log2(x);
        prop_assert!(f <= c);
        prop_assert!(c - f <= 1 || x == 1);
        // 2^f ≤ x ≤ 2^c (when representable).
        if f < 63 {
            prop_assert!(1u64 << f <= x);
        }
        if c < 64 {
            prop_assert!(x <= 1u64.checked_shl(c).unwrap_or(u64::MAX));
        }
    }

    #[test]
    fn next_prime_is_prime_and_minimal(x in 0u64..10_000) {
        let p = next_prime(x);
        prop_assert!(is_prime(p));
        prop_assert!(p >= x.max(2));
        for q in x.max(2)..p {
            prop_assert!(!is_prime(q), "skipped prime {q} < {p}");
        }
    }

    #[test]
    fn subset_enumeration_count_matches_binomial(n in 1u32..15, k in 0u32..15) {
        let visited = for_each_subset(n, k, |_| true);
        prop_assert_eq!(u128::from(visited), choose(u64::from(n), u64::from(k)));
    }

    // ------------------------------------------------------------------
    // Schedule algebra laws.
    // ------------------------------------------------------------------
    #[test]
    fn concat_length_is_additive_and_projects(
        n in 2u32..40,
        lens in proptest::collection::vec(1usize..6, 1..4),
        seed in 0u64..100,
    ) {
        // Build arbitrary explicit families via the random builder.
        let parts: Vec<FamilySchedule> = lens
            .iter()
            .enumerate()
            .map(|(i, &l)| {
                let fam = RandomFamilyBuilder::new(n, 2.min(n))
                    .seed(seed + i as u64)
                    .length(l)
                    .build_explicit();
                FamilySchedule::new(fam)
            })
            .collect();
        let total: u64 = parts.iter().map(|p| p.len().unwrap()).sum();
        let originals = parts.clone();
        let concat = ConcatSchedule::new(parts);
        prop_assert_eq!(concat.len(), Some(total));
        // Every position projects onto the right part.
        let mut offset = 0u64;
        for part in &originals {
            for j in 0..part.len().unwrap() {
                for u in 0..n {
                    prop_assert_eq!(
                        concat.transmits(u, offset + j),
                        part.transmits(u, j)
                    );
                }
            }
            offset += part.len().unwrap();
        }
        // Past the end: silent.
        prop_assert!(!concat.transmits(0, total + 3));
    }

    #[test]
    fn cycle_is_periodic(n in 2u32..30, len in 1usize..8, seed in 0u64..50) {
        let fam = RandomFamilyBuilder::new(n, 2.min(n))
            .seed(seed)
            .length(len)
            .build_explicit();
        let sched = FamilySchedule::new(fam).cycle();
        let z = sched.period();
        for j in 0..3 * z {
            for u in 0..n {
                prop_assert_eq!(sched.transmits(u, j), sched.transmits(u, j + z));
            }
        }
    }

    // ------------------------------------------------------------------
    // Constructions are (strongly) selective on arbitrary small targets.
    // ------------------------------------------------------------------
    #[test]
    fn random_family_selects_arbitrary_targets(
        x in btree_set(0u32..20, 1..=4usize),
        seed in 0u64..20,
    ) {
        let (n, k) = (20u32, 4u32);
        let fam = RandomFamilyBuilder::new(n, k).seed(seed).build_explicit();
        let target: Vec<u32> = x.into_iter().collect();
        // Targets of size 2..=4 are in the (n,4) range; size-1 targets are
        // covered by the (n,2) range — check the applicable property.
        if target.len() >= 2 {
            prop_assert!(
                verify::selects(&fam, &target),
                "unselected target {target:?} (seed {seed})"
            );
        }
    }

    #[test]
    fn kautz_singleton_strongly_selects_arbitrary_targets(
        x in btree_set(0u32..60, 1..=4usize),
    ) {
        let ks = KautzSingleton::new(60, 4);
        let fam = ks.materialize();
        let target: Vec<u32> = x.into_iter().collect();
        prop_assert!(
            verify::strongly_selects(&fam, &target),
            "KS failed to strongly select {target:?}"
        );
    }

    #[test]
    fn ks_eval_agrees_between_oracle_and_materialized(
        n in 5u32..80,
        k in 2u32..6,
        j in 0usize..200,
    ) {
        prop_assume!(k <= n);
        let ks = KautzSingleton::new(n, k);
        let j = j % ks.len();
        let fam = ks.materialize();
        for u in 0..n {
            prop_assert_eq!(ks.transmits(u, j), fam.transmits(u, j));
        }
    }

    // ------------------------------------------------------------------
    // Verification is sound: a reported counterexample really fails.
    // ------------------------------------------------------------------
    #[test]
    fn counterexamples_are_genuine(
        n in 4u32..12,
        k in 2u32..5,
        truncate_to in 0usize..3,
        seed in 0u64..30,
    ) {
        prop_assume!(k <= n);
        // Deliberately truncate a family to (likely) break selectivity.
        let fam = RandomFamilyBuilder::new(n, k).seed(seed).build_explicit();
        let truncated = SelectiveFamily::new(
            n,
            k,
            fam.sets().iter().take(truncate_to).cloned().collect(),
        );
        if let Err(ce) = verify::selective_exhaustive(&truncated) {
            prop_assert!(!verify::selects(&truncated, &ce.x));
            let range = verify::selective_size_range(n, k);
            prop_assert!(range.contains(&(ce.x.len() as u32)));
        }
    }
}
