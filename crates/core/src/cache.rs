//! Ensemble-wide construction cache: doubling schedules and waking matrices
//! built **once per ensemble** and shared read-only across runs.
//!
//! Every run of an ensemble re-creates its protocol, but the
//! [`DoublingSchedule`] and the [`WakingMatrix`] are pure functions of their
//! parameters. [`ConstructionCache`] memoizes them behind [`Arc`]s:
//!
//! * handles are **shared across the runner's workers** (the cache is
//!   `Sync`; one short mutex hold per lookup, construction itself happens
//!   outside any lock for the common hit path);
//! * a shared [`Arc<DoublingSchedule>`] shares its interior per-station
//!   [`PositionIndex`](crate::PositionIndex) memo
//!   ([`DoublingSchedule::shared_index`]), so the `O(period)` index scan
//!   happens once per *ensemble* instead of once per *run*;
//! * per-run mutable state stays station-local — the cache holds only
//!   immutable structure, so outcomes are bit-identical with and without it.
//!
//! Families are not cached: `selectors::random` sizes each family length
//! once per process, so building a family costs about as much as a lookup.
//!
//! The maps are **bounded**: ensembles that derive a fresh provider seed
//! per run (sampling over constructions) would otherwise grow one entry
//! per run. When a map reaches [`CACHE_CAP`] entries it is cleared — a
//! fixed-provider ensemble never gets near the cap, while a per-run-seed
//! ensemble just keeps missing cheaply.
//!
//! The protocols consume the cache through their `cached` constructors
//! ([`WakeupWithK::cached`](crate::WakeupWithK::cached), …); the ensemble
//! layer threads it through
//! [`run_ensemble_stream_cached`](../../wakeup_analysis/ensemble/fn.run_ensemble_stream_cached.html).

use crate::family_provider::FamilyProvider;
use crate::select_among_first::DoublingSchedule;
use crate::waking_matrix::{MatrixParams, WakingMatrix};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// Upper bound on entries per interior map; reaching it clears that map
/// (see the module docs on per-run-seed ensembles).
pub const CACHE_CAP: usize = 128;

/// Orderable identity of a [`FamilyProvider`] (the `δ` float is keyed by
/// its bit pattern — identical parameters, identical constructions).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum ProviderKey {
    Random { seed: u64, delta_bits: u64 },
    KautzSingleton,
}

impl ProviderKey {
    fn of(p: &FamilyProvider) -> Self {
        match *p {
            FamilyProvider::Random { seed, delta } => ProviderKey::Random {
                seed,
                delta_bits: delta.to_bits(),
            },
            FamilyProvider::KautzSingleton => ProviderKey::KautzSingleton,
        }
    }
}

/// The interior maps are `BTreeMap`s, not `HashMap`s: the cache sits in the
/// deterministic tier, and ordered maps make even diagnostic iteration
/// order reproducible (lookups stay `O(log CACHE_CAP)` on tiny maps).
#[derive(Debug, Default)]
struct Maps {
    /// `(provider, n, top)` → shared doubling schedule.
    schedules: BTreeMap<(ProviderKey, u32, u32), Arc<DoublingSchedule>>,
    /// Matrix parameters → shared waking matrix.
    matrices: BTreeMap<MatrixParams, Arc<WakingMatrix>>,
}

/// Insert under the cap, **adopting a racing builder's entry** when one
/// landed between the miss and this insert: both built the same
/// deterministic value, but only the map winner's handle is the one every
/// later run shares (and whose interior memos amortize) — so the loser
/// returns the winner's clone instead of a private duplicate.
fn bounded_insert<K: Ord, V: Clone>(map: &mut BTreeMap<K, V>, key: K, value: V) -> V {
    if map.len() >= CACHE_CAP && !map.contains_key(&key) {
        map.clear();
    }
    map.entry(key).or_insert(value).clone()
}

/// A cheaply-cloneable (`Arc`-backed), thread-safe construction cache. See
/// the module docs.
#[derive(Clone, Debug, Default)]
pub struct ConstructionCache {
    inner: Arc<Mutex<Maps>>,
}

impl ConstructionCache {
    /// An empty cache.
    pub fn new() -> Self {
        ConstructionCache::default()
    }

    /// The shared [`DoublingSchedule`] `⟨F₁ … F_top⟩` for `provider`. All
    /// runs holding the same handle also share its interior per-station
    /// [`PositionIndex`](crate::PositionIndex) memo.
    pub fn schedule(&self, provider: &FamilyProvider, n: u32, top: u32) -> Arc<DoublingSchedule> {
        let key = (ProviderKey::of(provider), n, top);
        if let Some(s) = self.inner.lock().unwrap().schedules.get(&key) {
            return Arc::clone(s);
        }
        let built = Arc::new(DoublingSchedule::new(provider, n, top));
        bounded_insert(&mut self.inner.lock().unwrap().schedules, key, built)
    }

    /// The shared [`WakingMatrix`] for `params`.
    pub fn matrix(&self, params: MatrixParams) -> Arc<WakingMatrix> {
        if let Some(m) = self.inner.lock().unwrap().matrices.get(&params) {
            return Arc::clone(m);
        }
        let built = Arc::new(WakingMatrix::new(params));
        bounded_insert(&mut self.inner.lock().unwrap().matrices, params, built)
    }

    /// Number of cached entries across all maps (diagnostics and tests).
    pub fn len(&self) -> usize {
        let m = self.inner.lock().unwrap();
        m.schedules.len() + m.matrices.len()
    }

    /// `true` iff nothing has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_handles_are_shared() {
        let cache = ConstructionCache::new();
        let p = FamilyProvider::random_with_seed(7);
        let a = cache.schedule(&p, 64, 3);
        let b = cache.schedule(&p, 64, 3);
        assert!(Arc::ptr_eq(&a, &b), "same key must share one schedule");
        let c = cache.schedule(&p, 64, 2);
        assert!(!Arc::ptr_eq(&a, &c), "different top is a different handle");
    }

    #[test]
    fn cached_schedule_matches_direct_construction() {
        let cache = ConstructionCache::new();
        for provider in [
            FamilyProvider::random_with_seed(5),
            FamilyProvider::KautzSingleton,
        ] {
            let direct = DoublingSchedule::new(&provider, 48, 3);
            let cached = cache.schedule(&provider, 48, 3);
            assert_eq!(direct.period(), cached.period());
            for u in 0..48u32 {
                for p in 0..direct.period() {
                    assert_eq!(
                        direct.transmits(u, p),
                        cached.transmits(u, p),
                        "u={u} p={p}"
                    );
                }
            }
        }
    }

    #[test]
    fn distinct_providers_do_not_collide() {
        let cache = ConstructionCache::new();
        let a = cache.schedule(&FamilyProvider::random_with_seed(1), 32, 3);
        let b = cache.schedule(&FamilyProvider::random_with_seed(2), 32, 3);
        assert!(
            !Arc::ptr_eq(&a, &b),
            "different seeds are different handles"
        );
        let differs = (0..32u32).any(|u| a.transmits(u, 0) != b.transmits(u, 0));
        assert!(differs, "providers with different seeds must differ");
        // δ is part of the key, down to the bit pattern.
        let c = cache.schedule(
            &FamilyProvider::Random {
                seed: 1,
                delta: 1e-4,
            },
            32,
            3,
        );
        assert!(!Arc::ptr_eq(&a, &c), "different δ is a different handle");
        assert_ne!(
            a.period(),
            c.period(),
            "different δ sizes the families differently"
        );
    }

    #[test]
    fn matrix_handles_are_shared_and_bounded() {
        let cache = ConstructionCache::new();
        let a = cache.matrix(MatrixParams::new(64));
        let b = cache.matrix(MatrixParams::new(64));
        assert!(Arc::ptr_eq(&a, &b));
        // Per-run-seed churn stays bounded by the cap.
        for seed in 0..3 * CACHE_CAP as u64 {
            cache.matrix(MatrixParams::new(16).with_seed(seed));
        }
        assert!(cache.len() <= 2 * CACHE_CAP);
    }
}
