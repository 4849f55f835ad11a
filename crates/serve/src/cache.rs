//! LRU+TTL caches for query results and inference outputs.
//!
//! The serving tier memoizes two kinds of work: document-store query
//! results ([`QueryCache`]) and per-row inference outputs
//! ([`InferenceCache`]). Both are instances of [`LruTtlCache`]:
//!
//! - **TTL**: an entry older than `ttl` (in *sim-time*) is never returned
//!   by [`LruTtlCache::get`]; it is removed on the touch that finds it
//!   expired.
//! - **Exact LRU eviction**: at capacity, an insert of a new key drops the
//!   least-recently-used entry. Recency is a logical tick, so the contents —
//!   and therefore every hit/miss — follow from the operation history alone,
//!   the same in every run and at every thread count.
//! - **Invalidation by generation**: the owner bumps a generation stamped
//!   into the values, so a cached answer can never survive the write that
//!   obsoleted it. The server layer enforces that rule; see `Server` in
//!   this crate.
//!
//! [`LruTtlCache::peek_ignore_ttl`] deliberately bypasses the TTL check:
//! it is the *stale-serve* path used only when every replica of a shard is
//! down and a degraded answer beats no answer.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasherDefault, Hash};
use std::sync::Arc;

use simclock::{SimDuration, SimTime};

/// Sizing and policy knobs for one [`LruTtlCache`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheConfig {
    /// Maximum number of entries held (at least 1).
    pub capacity: usize,
    /// Entries older than this (sim-time) are treated as absent.
    pub ttl: SimDuration,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            capacity: 1024,
            ttl: SimDuration::from_secs(60),
        }
    }
}

#[derive(Debug, Clone)]
struct Entry<V> {
    value: V,
    inserted_at: SimTime,
    /// Logical use tick; doubles as the key into the LRU order map.
    tick: u64,
}

/// A deterministic LRU+TTL cache — see the module docs for the policy.
///
/// # Examples
///
/// ```
/// use scserve::{CacheConfig, LruTtlCache};
/// use simclock::{SimDuration, SimTime};
///
/// let mut cache: LruTtlCache<&str, u32> = LruTtlCache::new(CacheConfig {
///     capacity: 2,
///     ttl: SimDuration::from_secs(10),
/// });
/// cache.insert("a", 1, SimTime::ZERO);
/// assert_eq!(cache.get(&"a", SimTime::from_secs(5)), Some(1));
/// assert_eq!(cache.get(&"a", SimTime::from_secs(11)), None, "expired");
/// ```
#[derive(Debug, Clone)]
pub struct LruTtlCache<K, V> {
    cfg: CacheConfig,
    /// Fixed-key SipHash, not a per-process seed: where the table grows
    /// (and so which call allocates) is then the same in every run.
    map: HashMap<K, Entry<V>, BuildHasherDefault<DefaultHasher>>,
    /// use-tick → key, ascending tick = least recently used first.
    /// Its first entry (never the `HashMap`) is the one eviction drops.
    lru: BTreeMap<u64, K>,
    next_tick: u64,
}

impl<K: Hash + Eq + Clone, V: Clone> LruTtlCache<K, V> {
    /// An empty cache with the given policy.
    pub fn new(cfg: CacheConfig) -> Self {
        LruTtlCache {
            cfg: CacheConfig {
                capacity: cfg.capacity.max(1),
                ..cfg
            },
            map: HashMap::default(),
            lru: BTreeMap::new(),
            next_tick: 0,
        }
    }

    fn touch(lru: &mut BTreeMap<u64, K>, next_tick: &mut u64, entry: &mut Entry<V>, key: &K) {
        lru.remove(&entry.tick);
        entry.tick = *next_tick;
        *next_tick += 1;
        lru.insert(entry.tick, key.clone());
    }

    /// Fresh lookup: returns the value only if it was inserted within
    /// `ttl` of `now`. An expired entry is removed; a valid hit refreshes
    /// the entry's LRU position.
    pub fn get(&mut self, key: &K, now: SimTime) -> Option<V> {
        match self.map.get_mut(key) {
            Some(entry) if now.saturating_since(entry.inserted_at) < self.cfg.ttl => {
                Self::touch(&mut self.lru, &mut self.next_tick, entry, key);
                Some(entry.value.clone())
            }
            Some(_) => {
                let entry = self.map.remove(key).expect("matched above");
                self.lru.remove(&entry.tick);
                None
            }
            None => None,
        }
    }

    /// Stale lookup: returns whatever is stored, however old — the
    /// degraded-answer path when the authoritative backend is unreachable.
    /// Does not refresh the LRU position.
    pub fn peek_ignore_ttl(&self, key: &K) -> Option<V> {
        self.map.get(key).map(|entry| entry.value.clone())
    }

    /// Inserts or replaces an entry; a new key in a full cache evicts the
    /// least-recently-used one.
    pub fn insert(&mut self, key: K, value: V, now: SimTime) {
        if let Some(entry) = self.map.get_mut(&key) {
            entry.value = value;
            entry.inserted_at = now;
            Self::touch(&mut self.lru, &mut self.next_tick, entry, &key);
            return;
        }
        if self.map.len() >= self.cfg.capacity {
            let (_, lru) = self.lru.pop_first().expect("a full cache is not empty");
            self.map.remove(&lru);
        }
        let tick = self.next_tick;
        self.next_tick += 1;
        self.lru.insert(tick, key.clone());
        self.map.insert(
            key,
            Entry {
                value,
                inserted_at: now,
                tick,
            },
        );
    }

    /// Drops every entry (bulk invalidation).
    pub fn clear(&mut self) {
        self.map.clear();
        self.lru.clear();
    }
}

/// Cache key for a query: a stable fingerprint of the filter (and any
/// point-lookup key) computed by the server layer.
type QueryKey = u64;

/// Cache over query results: fingerprint → (write-generation, rows).
///
/// The generation is stamped by the server at fill time; a lookup whose
/// stored generation predates the collection's current one is treated as
/// invalidated-by-write even if its TTL has not lapsed.
pub type QueryCache<R> = LruTtlCache<QueryKey, (u64, R)>;

/// Cache over inference outputs: input-row fingerprint → output row,
/// shared with the flush that computed it, so a hit is a refcount bump.
/// Models are immutable while serving, so entries only age out by TTL or
/// eviction; swapping the model must go through `Server`, which clears it.
pub type InferenceCache = LruTtlCache<u64, Arc<[f32]>>;

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(capacity: usize, ttl_s: u64) -> CacheConfig {
        CacheConfig {
            capacity,
            ttl: SimDuration::from_secs(ttl_s),
        }
    }

    #[test]
    fn hit_miss_and_stats() {
        let mut c: LruTtlCache<u32, u32> = LruTtlCache::new(cfg(8, 10));
        assert_eq!(c.get(&1, SimTime::ZERO), None);
        c.insert(1, 10, SimTime::ZERO);
        assert_eq!(c.get(&1, SimTime::from_secs(1)), Some(10));
        assert_eq!(c.map[&1].tick, 1, "a hit refreshes the LRU position");
    }

    #[test]
    fn ttl_expires_entries() {
        let mut c: LruTtlCache<u32, u32> = LruTtlCache::new(cfg(8, 10));
        c.insert(1, 10, SimTime::ZERO);
        assert_eq!(c.get(&1, SimTime::from_secs(9)), Some(10));
        assert_eq!(c.get(&1, SimTime::from_secs(10)), None, "ttl is exclusive");
        assert!(c.map.is_empty() && c.lru.is_empty(), "removed on the touch");
    }

    #[test]
    fn peek_serves_expired_entries() {
        let mut c: LruTtlCache<u32, u32> = LruTtlCache::new(cfg(8, 10));
        c.insert(1, 10, SimTime::ZERO);
        assert_eq!(c.peek_ignore_ttl(&1), Some(10));
        assert_eq!(c.map[&1].tick, 0, "a stale read keeps the LRU position");
    }

    #[test]
    fn capacity_evicts_lru_side() {
        let mut c: LruTtlCache<u32, u32> = LruTtlCache::new(cfg(3, 1000));
        for k in 0..3 {
            c.insert(k, k, SimTime::ZERO);
        }
        c.get(&0, SimTime::from_secs(1)); // refresh 0; LRU is now 1
        c.insert(3, 3, SimTime::from_secs(2));
        assert_eq!(c.map.len(), 3);
        assert_eq!(c.get(&1, SimTime::from_secs(3)), None, "1 was the LRU");
        assert_eq!(c.get(&0, SimTime::from_secs(3)), Some(0));
    }

    #[test]
    fn reinsert_refreshes_ttl_and_position() {
        let mut c: LruTtlCache<u32, u32> = LruTtlCache::new(cfg(8, 10));
        c.insert(1, 10, SimTime::ZERO);
        c.insert(1, 11, SimTime::from_secs(8));
        assert_eq!(c.get(&1, SimTime::from_secs(15)), Some(11));
    }
}
