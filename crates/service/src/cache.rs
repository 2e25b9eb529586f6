//! A small LRU map: the daemon's result cache and its circuit intern table.
//!
//! The service keys results by `(circuit hash, canonical config string,
//! seed)` plus byte-equal canonical text on hit: each entry keeps the
//! canonical circuit text it was solved for, and a probe whose text differs
//! (a 64-bit hash collision) is a miss, never another circuit's report (see
//! [`LruCache::get_checked`]). Values are the deterministic report bodies,
//! stored already escaped as JSON string literals. Capacities are small
//! (hundreds), so recency is tracked with a monotonic stamp per entry and
//! eviction scans for the minimum — O(capacity), branch-free simple, and
//! plenty fast next to placement jobs that take milliseconds to seconds.

use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::Hash;

/// Lifetime counters of one cache instance, reported by the daemon's
/// `stats` command. Hits and misses are counted per job by the service's
/// metrics registry, not per probe here: a solved job is probed twice.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Entries stored (new keys and refreshes; the no-op inserts of a
    /// zero-capacity cache are not counted).
    pub insertions: u64,
    /// Entries evicted to make room for a new key.
    pub evictions: u64,
}

/// A least-recently-used cache with a fixed entry capacity.
///
/// A capacity of 0 disables the cache (every `get` misses, `insert` is a
/// no-op).
#[derive(Debug)]
pub struct LruCache<K, V> {
    capacity: usize,
    tick: u64,
    stats: CacheStats,
    map: HashMap<K, (u64, V)>,
}

impl<K: Eq + Hash + Clone, V> LruCache<K, V> {
    /// Creates a cache that holds at most `capacity` entries.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        LruCache {
            capacity,
            tick: 0,
            stats: CacheStats::default(),
            map: HashMap::with_capacity(capacity.min(1024)),
        }
    }

    /// Looks a key up, marking it most-recently-used on a hit.
    pub fn get<Q>(&mut self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Eq + Hash + ?Sized,
    {
        self.get_checked(key, |_| true)
    }

    /// Looks a key up, but returns a match only when `accept` approves its
    /// value; a rejected match is a miss, exactly as if the key were absent,
    /// and keeps its recency.
    pub fn get_checked<Q>(&mut self, key: &Q, accept: impl FnOnce(&V) -> bool) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Eq + Hash + ?Sized,
    {
        self.tick += 1;
        let tick = self.tick;
        match self.map.get_mut(key) {
            Some((stamp, value)) if accept(value) => {
                *stamp = tick;
                Some(&*value)
            }
            _ => None,
        }
    }

    /// Inserts (or refreshes) an entry, evicting the least-recently-used one
    /// when full.
    pub fn insert(&mut self, key: K, value: V) {
        if self.capacity == 0 {
            return;
        }
        self.tick += 1;
        if self.map.len() >= self.capacity && !self.map.contains_key(&key) {
            if let Some(oldest) =
                self.map.iter().min_by_key(|(_, (stamp, _))| *stamp).map(|(k, _)| k.clone())
            {
                self.map.remove(&oldest);
                self.stats.evictions += 1;
            }
        }
        self.stats.insertions += 1;
        self.map.insert(key, (self.tick, value));
    }

    /// Number of cached entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` when nothing is cached.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The configured entry capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Lifetime insertion/eviction counters.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_and_miss() {
        let mut cache = LruCache::new(4);
        cache.insert(1, "a");
        assert_eq!(cache.get(&1), Some(&"a"));
        assert_eq!(cache.get(&2), None);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut cache = LruCache::new(2);
        cache.insert(1, "a");
        cache.insert(2, "b");
        assert_eq!(cache.get(&1), Some(&"a")); // 1 is now fresher than 2
        cache.insert(3, "c"); // evicts 2
        assert_eq!(cache.get(&2), None);
        assert_eq!(cache.get(&1), Some(&"a"));
        assert_eq!(cache.get(&3), Some(&"c"));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn reinsert_refreshes_without_eviction() {
        let mut cache = LruCache::new(2);
        cache.insert(1, "a");
        cache.insert(2, "b");
        cache.insert(1, "a2"); // refresh, not a new entry
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.get(&1), Some(&"a2"));
        assert_eq!(cache.get(&2), Some(&"b"));
    }

    #[test]
    fn a_rejected_match_is_a_miss() {
        let mut cache = LruCache::new(2);
        cache.insert(1, "a");
        assert_eq!(cache.get_checked(&1, |v| *v == "b"), None);
        assert_eq!(cache.get_checked(&1, |v| *v == "a"), Some(&"a"));
        assert_eq!(cache.stats(), CacheStats { insertions: 1, evictions: 0 });
    }

    #[test]
    fn borrowed_keys_look_up_owned_ones() {
        let mut cache: LruCache<std::sync::Arc<str>, u32> = LruCache::new(2);
        cache.insert("text".into(), 7);
        assert_eq!(cache.get("text"), Some(&7));
        assert_eq!(cache.get("other"), None);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut cache = LruCache::new(0);
        cache.insert(1, "a");
        assert_eq!(cache.get(&1), None);
        assert!(cache.is_empty());
        assert_eq!(cache.stats(), CacheStats { insertions: 0, evictions: 0 });
    }

    #[test]
    fn stats_count_insertions_and_evictions() {
        let mut cache = LruCache::new(2);
        cache.insert(1, "a");
        cache.insert(2, "b");
        assert_eq!(cache.get(&1), Some(&"a")); // hit
        assert_eq!(cache.get(&3), None); // miss
        cache.insert(3, "c"); // evicts 2
        assert_eq!(cache.get(&2), None); // miss
        assert_eq!(cache.stats(), CacheStats { insertions: 3, evictions: 1 });
    }
}
