//! Ensemble-wide construction cache: selective families, doubling
//! schedules and waking matrices built **once per `(n, k, provider)` per
//! ensemble** and shared read-only across runs.
//!
//! Every run of an ensemble used to rebuild its protocol's combinatorial
//! structure from scratch — the `(n, 2^i)`-selective family sequence, the
//! [`DoublingSchedule`] over it, the [`WakingMatrix`] — even though these
//! are pure functions of the seed and therefore identical across the
//! thousands of runs at the same parameters. [`ConstructionCache`] memoizes
//! them behind [`Arc`]s:
//!
//! * handles are **shared across work-stealing workers** (the cache is
//!   `Sync`; one short mutex hold per lookup, construction itself happens
//!   outside any lock for the common hit path);
//! * sharing one [`Arc<DoublingSchedule>`] across runs additionally shares
//!   the schedule's interior per-station
//!   [`PositionIndex`](crate::PositionIndex) memo
//!   ([`DoublingSchedule::shared_index`]), so the `O(period)` index scan
//!   happens once per *ensemble* instead of once per *run*;
//! * per-run mutable state stays station-local (the existing
//!   `NextPositionCache`, row-scan cursors, retirement flags) — the cache
//!   holds only immutable structure, so outcomes are bit-identical with and
//!   without it.
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

use crate::family_provider::{DynFamily, FamilyProvider};
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
    /// `(provider, n, k)` → realized selective family (cheap handle).
    families: BTreeMap<(ProviderKey, u32, u32), DynFamily>,
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

    /// The `(n, k)`-selective family realized by `provider`, built on first
    /// use. [`DynFamily`] handles are a few machine words, so hits clone.
    pub fn family(&self, provider: &FamilyProvider, n: u32, k: u32) -> DynFamily {
        let key = (ProviderKey::of(provider), n, k);
        if let Some(f) = self.inner.lock().unwrap().families.get(&key) {
            return f.clone();
        }
        let built = provider.family(n, k);
        bounded_insert(&mut self.inner.lock().unwrap().families, key, built)
    }

    /// The doubling-family sequence `F₁ … F_top`, each family pulled
    /// through [`family`](Self::family) — so a larger `top` reuses every
    /// family a smaller one already built (the sequences nest).
    pub fn doubling_sequence(&self, provider: &FamilyProvider, n: u32, top: u32) -> Vec<DynFamily> {
        if top == 0 {
            return vec![self.family(provider, n, 1)];
        }
        (1..=top)
            .map(|i| self.family(provider, n, (1u32 << i.min(31)).min(n)))
            .collect()
    }

    /// The shared [`DoublingSchedule`] `⟨F₁ … F_top⟩` for `provider`. All
    /// runs holding the same handle also share its interior per-station
    /// [`PositionIndex`](crate::PositionIndex) memo.
    pub fn schedule(&self, provider: &FamilyProvider, n: u32, top: u32) -> Arc<DoublingSchedule> {
        let key = (ProviderKey::of(provider), n, top);
        if let Some(s) = self.inner.lock().unwrap().schedules.get(&key) {
            return Arc::clone(s);
        }
        let built = Arc::new(DoublingSchedule::from_families(
            self.doubling_sequence(provider, n, top),
        ));
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
        m.families.len() + m.schedules.len() + m.matrices.len()
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
    fn nested_sequences_reuse_families() {
        let cache = ConstructionCache::new();
        let p = FamilyProvider::random_with_seed(1);
        cache.doubling_sequence(&p, 64, 2);
        let before = cache.len();
        // top = 4 adds exactly the two new families (F₃, F₄).
        cache.doubling_sequence(&p, 64, 4);
        assert_eq!(cache.len(), before + 2);
    }

    #[test]
    fn distinct_providers_do_not_collide() {
        let cache = ConstructionCache::new();
        let a = cache.family(&FamilyProvider::random_with_seed(1), 32, 4);
        let b = cache.family(&FamilyProvider::random_with_seed(2), 32, 4);
        let differs = (0..32u32).any(|u| a.member(u, 0) != b.member(u, 0));
        assert!(differs, "providers with different seeds must differ");
        // δ is part of the key, down to the bit pattern.
        let c = cache.family(
            &FamilyProvider::Random {
                seed: 1,
                delta: 1e-4,
            },
            32,
            4,
        );
        assert_ne!(a.len(), c.len(), "different δ sizes the family differently");
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
