//! Memoized prediction cache for the trained predictor's hot query
//! families.
//!
//! The control plane's searches — the §V-B binary search, the O(N⁴)
//! exhaustive oracle, the balancer's candidate probes and the
//! multi-application sweep — all re-query the same small resource lattice:
//! `(cores, freq-step, ways)` spans only a few thousand points per
//! partition, and within one control interval the load is a single value.
//! Every query still pays `Box<dyn Regressor>` dispatch plus a full KNN /
//! tree evaluation. This module memoizes the answers so repeated lattice
//! points cost a hash lookup instead.
//!
//! Keys are bit-exact: `cores` and `ways` are integers, `freq_ghz` comes
//! from the discrete [`NodeSpec`](sturgeon_simnode::NodeSpec) frequency
//! table (bit-identical per level), and `qps` is keyed by its `f64` bits.
//! The cache can therefore never change a result, only its cost — the
//! oracle-equivalence test in `tests/integration_predictor.rs` locks that
//! in.
//!
//! The cache is `Send + Sync` (sharded `parking_lot::Mutex` maps, atomic
//! lifetime counters) so the fleet shards sharing one predictor can share
//! one instance. Each lookup also reports its hit or miss to the caller's
//! [`QueryMeter`], which is how a search counts only its own queries.

use parking_lot::Mutex;
use std::cell::Cell;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// The four memoized query families of the predictor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Family {
    /// `ls_feasible` — the QoS classifier plus latency veto (bool as 0/1).
    LsFeasible,
    /// `ls_power_w` — LS partition power, margin included.
    LsPower,
    /// `be_throughput` — normalized BE throughput.
    BeThroughput,
    /// `be_power_w` — BE partition power, margin included.
    BePower,
}

/// Bit-exact cache key. `freq_bits`/`qps_bits` are `f64::to_bits` images,
/// so lookup equality is exact and `NaN` never reaches a key (query paths
/// pass finite values only).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Key {
    family: Family,
    cores: u32,
    freq_bits: u64,
    ways: u32,
    qps_bits: u64,
}

/// Number of independently locked shards. Power of two so the shard index
/// is a mask of the key hash; 16 keeps contention negligible for the
/// fleet's worker counts.
const SHARDS: usize = 16;

/// A sharded, thread-safe memo table from bit-exact query keys to
/// predicted values, with hit/miss accounting for the §VII-E overhead
/// tables.
pub struct PredictionCache {
    shards: Vec<Mutex<HashMap<Key, f64>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    enabled: AtomicBool,
}

impl std::fmt::Debug for PredictionCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PredictionCache")
            .field("entries", &self.len())
            .field("hits", &self.hits())
            .field("misses", &self.misses())
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl Default for PredictionCache {
    fn default() -> Self {
        Self::new()
    }
}

impl PredictionCache {
    /// An empty, enabled cache.
    pub fn new() -> Self {
        Self {
            shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            enabled: AtomicBool::new(true),
        }
    }

    /// Turns memoization on or off. Disabled, every lookup computes and
    /// neither counters nor tables are touched — the uncached baseline for
    /// the Criterion benches.
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::Relaxed);
    }

    /// Whether lookups consult the memo tables.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    fn shard_of(&self, key: &Key) -> &Mutex<HashMap<Key, f64>> {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) & (SHARDS - 1)]
    }

    /// Returns the memoized value for the query, computing and inserting
    /// it on a miss. The hit or miss is counted both in the cache's
    /// lifetime totals and in `meter`. With the cache disabled this is
    /// exactly `compute()` and nothing is counted.
    #[allow(clippy::too_many_arguments)]
    pub fn get_or_compute(
        &self,
        family: Family,
        cores: u32,
        freq_ghz: f64,
        ways: u32,
        qps: f64,
        meter: &QueryMeter,
        compute: impl FnOnce() -> f64,
    ) -> f64 {
        if !self.is_enabled() {
            return compute();
        }
        let key = Key {
            family,
            cores,
            freq_bits: freq_ghz.to_bits(),
            ways,
            qps_bits: qps.to_bits(),
        };
        let shard = self.shard_of(&key);
        if let Some(&v) = shard.lock().get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            meter.hits.set(meter.hits.get() + 1);
            return v;
        }
        // The lock is dropped during compute(): a concurrent worker may
        // recompute the same key, but both arrive at the same value (the
        // models are deterministic), so last-write-wins is harmless and
        // the search threads never serialize on model evaluation.
        let v = compute();
        shard.lock().insert(key, v);
        self.misses.fetch_add(1, Ordering::Relaxed);
        meter.misses.set(meter.misses.get() + 1);
        v
    }

    /// Lookups answered from the memo tables.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that had to run the underlying models.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Drops every memoized entry. Must be called whenever the underlying
    /// models change (retraining); counters are kept so overhead
    /// accounting spans invalidations.
    pub fn clear(&self) {
        for shard in &self.shards {
            shard.lock().clear();
        }
    }

    /// Number of memoized entries across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// True when nothing is memoized.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One caller's share of the predictor's query accounting: the queries
/// it issued and how the memo cache answered its lookups. A search owns
/// one meter per pass and hands it to every counted predictor path, so
/// its stats never include another thread's queries. The counts are
/// exact; the hit/miss *split* still depends on what other users of a
/// shared memo cached first.
#[derive(Debug, Default)]
pub struct QueryMeter {
    queries: Cell<u64>,
    hits: Cell<u64>,
    misses: Cell<u64>,
}

impl QueryMeter {
    /// Prediction queries issued (cached or not).
    pub fn queries(&self) -> u64 {
        self.queries.get()
    }

    /// Of this caller's cache lookups, those answered from the memo.
    pub fn hits(&self) -> u64 {
        self.hits.get()
    }

    /// Of this caller's cache lookups, those that ran the models.
    pub fn misses(&self) -> u64 {
        self.misses.get()
    }

    pub(crate) fn add_query(&self) {
        self.queries.set(self.queries.get() + 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn memoizes_and_counts() {
        let cache = PredictionCache::new();
        let meter = QueryMeter::default();
        let computed = AtomicUsize::new(0);
        let f = || {
            computed.fetch_add(1, Ordering::Relaxed);
            42.5
        };
        for _ in 0..5 {
            assert_eq!(
                cache.get_or_compute(Family::BePower, 8, 1.8, 10, 0.0, &meter, f),
                42.5
            );
        }
        assert_eq!(computed.load(Ordering::Relaxed), 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 4);
        assert_eq!((meter.hits(), meter.misses()), (4, 1));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn distinct_keys_do_not_collide() {
        let cache = PredictionCache::new();
        let m = QueryMeter::default();
        let a = cache.get_or_compute(Family::LsPower, 8, 1.8, 10, 100.0, &m, || 1.0);
        let b = cache.get_or_compute(Family::BePower, 8, 1.8, 10, 100.0, &m, || 2.0);
        let c = cache.get_or_compute(Family::LsPower, 9, 1.8, 10, 100.0, &m, || 3.0);
        let d = cache.get_or_compute(Family::LsPower, 8, 1.8, 10, 101.0, &m, || 4.0);
        assert_eq!((a, b, c, d), (1.0, 2.0, 3.0, 4.0));
        assert_eq!(cache.len(), 4);
        assert_eq!(cache.misses(), 4);
    }

    #[test]
    fn disabled_cache_always_computes() {
        let cache = PredictionCache::new();
        let meter = QueryMeter::default();
        cache.set_enabled(false);
        let computed = AtomicUsize::new(0);
        for _ in 0..3 {
            cache.get_or_compute(Family::BeThroughput, 4, 1.2, 4, 0.0, &meter, || {
                computed.fetch_add(1, Ordering::Relaxed);
                0.5
            });
        }
        assert_eq!(computed.load(Ordering::Relaxed), 3);
        assert_eq!(cache.hits() + cache.misses(), 0);
        assert_eq!(meter.hits() + meter.misses(), 0);
        assert!(cache.is_empty());
    }

    #[test]
    fn clear_invalidates_entries_but_keeps_counters() {
        let cache = PredictionCache::new();
        let m = QueryMeter::default();
        cache.get_or_compute(Family::LsFeasible, 8, 2.2, 10, 500.0, &m, || 1.0);
        cache.get_or_compute(Family::LsFeasible, 8, 2.2, 10, 500.0, &m, || 1.0);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.hits(), 1);
        // A cleared entry recomputes (and may return a new value, as after
        // retraining).
        let v = cache.get_or_compute(Family::LsFeasible, 8, 2.2, 10, 500.0, &m, || 7.0);
        assert_eq!(v, 7.0);
        assert_eq!(cache.misses(), 2);
    }

    #[test]
    fn cache_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<PredictionCache>();
    }

    #[test]
    fn concurrent_access_is_consistent() {
        let cache = PredictionCache::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    let meter = QueryMeter::default();
                    for i in 0..200u32 {
                        let v = cache.get_or_compute(
                            Family::BeThroughput,
                            i % 16,
                            1.2 + (i % 10) as f64 * 0.1,
                            i % 20,
                            0.0,
                            &meter,
                            || f64::from(i % 16) * 2.0,
                        );
                        assert_eq!(v, f64::from(i % 16) * 2.0);
                    }
                    // Each thread's meter sees exactly its own lookups.
                    assert_eq!(meter.hits() + meter.misses(), 200);
                });
            }
        });
        assert_eq!(cache.hits() + cache.misses(), 800);
        assert!(cache.len() <= 200);
    }
}
