//! Cross-query result cache for the serving layer.
//!
//! Heavy-traffic workloads are skewed: a small set of popular queries
//! accounts for most of the volume (the `serving_throughput` bench
//! replays exactly such a Zipf mix). The cache memoises complete merged
//! answers keyed by `(query id, ε or k)`, so a repeated
//! query costs one `HashMap` probe instead of a full sharded fan-out.
//!
//! Correctness contract: a hit returns the *same* `Arc` that the miss
//! path computed and inserted — hit ≡ miss by construction — and any
//! collection mutation invalidates the whole cache (wholesale, through
//! [`ResultCache::invalidate`]) before the mutated shard serves another
//! query. The generation counter exists so tests and monitoring can
//! observe invalidations.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// The query-shape part of a cache key. Thresholds are keyed by their
/// IEEE bit pattern, with `-0.0` folded into `+0.0` (every technique
/// answers both zeros bit-identically) and every NaN folded into one
/// canonical NaN (every technique answers every NaN alike): two ε values
/// hit the same entry iff they compare equal or are both NaN. A NaN ε
/// caches like any other value, but as one entry, so NaN thresholds
/// with varied payloads cannot fill the bounded cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CacheOp {
    /// Range query at ε (bit pattern).
    Range {
        /// `ε.to_bits()`, `-0.0` read as `+0.0`, any NaN as [`f64::NAN`].
        eps_bits: u64,
    },
    /// Top-k query.
    TopK {
        /// Number of neighbours requested.
        k: usize,
    },
    /// Probability query at ε (bit pattern).
    Probabilities {
        /// `ε.to_bits()`, `-0.0` read as `+0.0`, any NaN as [`f64::NAN`].
        eps_bits: u64,
    },
}

/// The key bits of threshold `epsilon`; `-0.0 == 0.0`, so both zeros
/// key as `+0.0`, and every NaN payload keys as [`f64::NAN`].
fn eps_bits(epsilon: f64) -> u64 {
    if epsilon == 0.0 {
        0.0f64.to_bits()
    } else if epsilon.is_nan() {
        f64::NAN.to_bits()
    } else {
        epsilon.to_bits()
    }
}

impl CacheOp {
    /// Key for a range query at `epsilon`.
    pub fn range(epsilon: f64) -> Self {
        CacheOp::Range {
            eps_bits: eps_bits(epsilon),
        }
    }

    /// Key for a top-k query.
    pub fn top_k(k: usize) -> Self {
        CacheOp::TopK { k }
    }

    /// Key for a probability query at `epsilon`.
    pub fn probabilities(epsilon: f64) -> Self {
        CacheOp::Probabilities {
            eps_bits: eps_bits(epsilon),
        }
    }
}

/// Full cache key: which query member, which question. A cache serves
/// one engine, so one technique: the key does not name it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Global index of the query series.
    pub query: usize,
    /// The question asked (range / top-k / probabilities, with its
    /// parameter).
    pub op: CacheOp,
}

/// A memoised complete answer, shared by reference.
#[derive(Debug, Clone)]
pub enum CachedAnswer {
    /// A merged range answer set (ascending global indices).
    Indices(Arc<Vec<usize>>),
    /// A merged scored answer — top-k `(index, distance)` or
    /// probabilities `(index, p)`.
    Scored(Arc<Vec<(usize, f64)>>),
}

/// Read-mostly statistics snapshot of a [`ResultCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through to a sharded fan-out.
    pub misses: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// Number of invalidations so far (bumps on every collection
    /// mutation).
    pub generation: u64,
}

/// Bounded, thread-safe memo of merged query answers.
///
/// Concurrency model: lookups take the read lock, insertions the write
/// lock. Two threads racing on the same cold key may both compute the
/// answer — both computations are deterministic and identical, so the
/// second insert is a harmless overwrite (never a divergent value).
#[derive(Debug)]
pub struct ResultCache {
    map: RwLock<HashMap<CacheKey, CachedAnswer>>,
    hits: AtomicU64,
    misses: AtomicU64,
    generation: AtomicU64,
    capacity: usize,
}

impl ResultCache {
    /// Creates a cache holding at most `capacity` entries.
    ///
    /// # Panics
    /// If `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        Self {
            map: RwLock::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            generation: AtomicU64::new(0),
            capacity,
        }
    }

    /// Looks `key` up, counting the outcome as a hit or miss.
    pub fn get(&self, key: &CacheKey) -> Option<CachedAnswer> {
        let found = self.map.read().expect("cache lock").get(key).cloned();
        match found {
            Some(v) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(v)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Inserts a computed answer. At capacity the cache resets wholesale
    /// — predictable, allocation-light, and the skewed workloads the
    /// cache exists for repopulate their hot keys within a few queries.
    pub fn insert(&self, key: CacheKey, answer: CachedAnswer) {
        let mut map = self.map.write().expect("cache lock");
        if map.len() >= self.capacity && !map.contains_key(&key) {
            map.clear();
        }
        map.insert(key, answer);
    }

    /// Drops every entry and bumps the generation — called on any
    /// collection mutation, before the mutated data serves a query.
    pub fn invalidate(&self) {
        let mut map = self.map.write().expect("cache lock");
        map.clear();
        self.generation.fetch_add(1, Ordering::Relaxed);
    }

    /// Point-in-time statistics (hits/misses are `Relaxed` counters —
    /// exact under quiescence, approximately ordered under load).
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.map.read().expect("cache lock").len(),
            generation: self.generation.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod unit {
    use super::*;

    fn key(q: usize, eps: f64) -> CacheKey {
        CacheKey {
            query: q,
            op: CacheOp::range(eps),
        }
    }

    #[test]
    fn hit_returns_inserted_arc() {
        let cache = ResultCache::new(8);
        assert!(cache.get(&key(0, 1.0)).is_none());
        let answer = Arc::new(vec![1, 2, 3]);
        cache.insert(key(0, 1.0), CachedAnswer::Indices(answer.clone()));
        match cache.get(&key(0, 1.0)) {
            Some(CachedAnswer::Indices(v)) => assert!(Arc::ptr_eq(&v, &answer)),
            other => panic!("expected indices hit, got {other:?}"),
        }
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
    }

    #[test]
    fn distinct_epsilons_are_distinct_keys() {
        let cache = ResultCache::new(8);
        cache.insert(key(0, 1.0), CachedAnswer::Indices(Arc::new(vec![1])));
        assert!(cache.get(&key(0, 2.0)).is_none());
        assert!(cache.get(&key(1, 1.0)).is_none());
        // Same bit pattern, same key.
        assert!(cache.get(&key(0, 0.5 + 0.5)).is_some());
    }

    #[test]
    fn signed_zeros_are_one_key() {
        assert_eq!(key(0, -0.0), key(0, 0.0));
        assert_eq!(CacheOp::probabilities(-0.0), CacheOp::probabilities(0.0));
        assert_ne!(key(0, -f64::MIN_POSITIVE), key(0, 0.0));
    }

    #[test]
    fn nan_payloads_share_one_entry() {
        let quiet = f64::NAN;
        let payload = f64::from_bits(f64::NAN.to_bits() | 0xDEAD);
        let negative = -f64::NAN;
        assert!(payload.is_nan() && negative.is_nan());
        assert_ne!(quiet.to_bits(), payload.to_bits());
        assert_eq!(key(0, payload), key(0, quiet));
        assert_eq!(key(0, negative), key(0, quiet));
        assert_eq!(
            CacheOp::probabilities(payload),
            CacheOp::probabilities(quiet)
        );

        let cache = ResultCache::new(8);
        cache.insert(key(0, quiet), CachedAnswer::Indices(Arc::new(vec![])));
        cache.insert(key(0, payload), CachedAnswer::Indices(Arc::new(vec![])));
        assert!(cache.get(&key(0, negative)).is_some());
        assert_eq!(cache.stats().entries, 1);
    }

    #[test]
    fn invalidate_clears_and_bumps_generation() {
        let cache = ResultCache::new(8);
        cache.insert(key(0, 1.0), CachedAnswer::Indices(Arc::new(vec![1])));
        cache.invalidate();
        assert!(cache.get(&key(0, 1.0)).is_none());
        let stats = cache.stats();
        assert_eq!((stats.entries, stats.generation), (0, 1));
    }

    #[test]
    fn capacity_reset_keeps_the_new_entry() {
        let cache = ResultCache::new(2);
        cache.insert(key(0, 1.0), CachedAnswer::Indices(Arc::new(vec![])));
        cache.insert(key(1, 1.0), CachedAnswer::Indices(Arc::new(vec![])));
        cache.insert(key(2, 1.0), CachedAnswer::Indices(Arc::new(vec![])));
        assert!(cache.get(&key(2, 1.0)).is_some());
        assert_eq!(cache.stats().entries, 1);
        // Re-inserting a resident key at capacity is an overwrite, not a
        // reset.
        cache.insert(key(3, 1.0), CachedAnswer::Indices(Arc::new(vec![])));
        cache.insert(key(3, 1.0), CachedAnswer::Indices(Arc::new(vec![9])));
        assert_eq!(cache.stats().entries, 2);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_panics() {
        let _ = ResultCache::new(0);
    }
}
