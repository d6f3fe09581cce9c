//! The sharded response cache.
//!
//! N mutex-striped shards, LRU per shard, keyed by the FNV-1a hash of the
//! request's canonical form. The canonical string itself rides along in
//! each entry so a hash collision degrades to a miss, never to a wrong
//! answer. Striping bounds contention: a worker touching shard `h % N`
//! never blocks a worker on another shard, and the per-shard LRU scan is
//! over at most `capacity / N` entries.
//!
//! Hits return the payload **string** rendered at insert time, so a
//! cached response is byte-identical to the fresh one — verified
//! end-to-end by the coherence proptests in `gp-bench`.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

struct Entry {
    /// Full canonical request, compared on lookup to reject collisions.
    canonical: String,
    /// Rendered response payload, returned verbatim.
    payload: String,
    /// LRU stamp from the shard clock.
    last_used: u64,
}

struct Shard {
    entries: HashMap<u64, Entry>,
    clock: u64,
}

/// Cumulative cache statistics (local to this cache instance; the
/// process-wide telemetry counters aggregate across instances).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that returned a payload.
    pub hits: u64,
    /// Lookups that found nothing (or a colliding key).
    pub misses: u64,
    /// Entries displaced to make room.
    pub evictions: u64,
}

/// Mutex-striped, per-shard-LRU response cache.
pub struct ResponseCache {
    shards: Vec<Mutex<Shard>>,
    per_shard_cap: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    /// Pre-resolved telemetry counters (`<label>.{hit,miss,evict}`) so
    /// the hot path never takes the registry lock. A shard router labels
    /// each partition `service.shard.<i>.cache`, making the partitioning
    /// observable from one snapshot.
    tele_hit: &'static gp_telemetry::Counter,
    tele_miss: &'static gp_telemetry::Counter,
    tele_evict: &'static gp_telemetry::Counter,
}

impl ResponseCache {
    /// `shards` stripes (`>= 1`), `capacity` total entries split evenly,
    /// counted under the default `service.cache` telemetry label.
    pub fn new(shards: usize, capacity: usize) -> Self {
        ResponseCache::with_label(shards, capacity, "service.cache")
    }

    /// Like [`ResponseCache::new`], with the telemetry counters named
    /// `<label>.hit`, `<label>.miss`, `<label>.evict`.
    pub fn with_label(shards: usize, capacity: usize, label: &str) -> Self {
        let shards = shards.max(1);
        ResponseCache {
            per_shard_cap: capacity.div_ceil(shards).max(1),
            shards: (0..shards)
                .map(|_| {
                    Mutex::new(Shard {
                        entries: HashMap::new(),
                        clock: 0,
                    })
                })
                .collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            tele_hit: gp_telemetry::counter(&format!("{label}.hit")),
            tele_miss: gp_telemetry::counter(&format!("{label}.miss")),
            tele_evict: gp_telemetry::counter(&format!("{label}.evict")),
        }
    }

    fn shard(&self, hash: u64) -> &Mutex<Shard> {
        &self.shards[(hash % self.shards.len() as u64) as usize]
    }

    /// Look up by hash, verifying `canonical` against the stored request.
    pub fn get(&self, hash: u64, canonical: &str) -> Option<String> {
        let mut shard = crate::lock(self.shard(hash));
        shard.clock += 1;
        let clock = shard.clock;
        match shard.entries.get_mut(&hash) {
            Some(e) if e.canonical == canonical => {
                e.last_used = clock;
                let payload = e.payload.clone();
                drop(shard);
                self.hits.fetch_add(1, Ordering::Relaxed);
                self.tele_hit.incr();
                Some(payload)
            }
            _ => {
                drop(shard);
                self.misses.fetch_add(1, Ordering::Relaxed);
                self.tele_miss.incr();
                None
            }
        }
    }

    /// Insert (or refresh) an entry, evicting the shard's least-recently
    /// used entry when the stripe is full. An owned `canonical` moves in
    /// without a copy; spare capacity left from rendering it is released,
    /// since the entry may live as long as the cache.
    pub fn put(&self, hash: u64, canonical: impl Into<String>, payload: &str) {
        let mut canonical = canonical.into();
        canonical.shrink_to_fit();
        let mut shard = crate::lock(self.shard(hash));
        shard.clock += 1;
        let clock = shard.clock;
        if let Some(e) = shard.entries.get_mut(&hash) {
            // Same hash again: refresh (collision keys overwrite — the
            // colliding pair would otherwise thrash misses forever).
            e.canonical = canonical;
            e.payload = payload.to_string();
            e.last_used = clock;
            return;
        }
        if shard.entries.len() >= self.per_shard_cap {
            if let Some(oldest) = shard
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k)
            {
                shard.entries.remove(&oldest);
                drop(shard);
                self.evictions.fetch_add(1, Ordering::Relaxed);
                self.tele_evict.incr();
                shard = crate::lock(self.shard(hash));
            }
        }
        shard.entries.insert(
            hash,
            Entry {
                canonical,
                payload: payload.to_string(),
                last_used: clock,
            },
        );
    }

    /// Entries currently cached across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| crate::lock(s).entries.len())
            .sum()
    }

    /// True when no shard holds an entry.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of this instance's counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gp_core::hash::fnv1a_bytes;

    #[test]
    fn hits_return_the_exact_inserted_bytes() {
        let cache = ResponseCache::new(4, 64);
        let canonical = "lint:{\"name\":\"p\"}";
        let hash = fnv1a_bytes(canonical);
        assert_eq!(cache.get(hash, canonical), None);
        cache.put(hash, canonical, r#"{"count":0}"#);
        assert_eq!(
            cache.get(hash, canonical).as_deref(),
            Some(r#"{"count":0}"#)
        );
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 1,
                misses: 1,
                evictions: 0
            }
        );
    }

    #[test]
    fn hash_collisions_degrade_to_misses_not_wrong_answers() {
        let cache = ResponseCache::new(1, 8);
        cache.put(42, "request-a", "payload-a");
        assert_eq!(cache.get(42, "request-b"), None, "collision must miss");
        assert_eq!(cache.get(42, "request-a").as_deref(), Some("payload-a"));
    }

    #[test]
    fn lru_eviction_keeps_the_recently_used_entry() {
        let cache = ResponseCache::new(1, 2);
        cache.put(1, "one", "p1");
        cache.put(2, "two", "p2");
        assert!(cache.get(1, "one").is_some()); // 1 is now fresher than 2
        cache.put(3, "three", "p3"); // evicts 2
        assert_eq!(cache.len(), 2);
        assert!(cache.get(1, "one").is_some());
        assert!(cache.get(2, "two").is_none());
        assert!(cache.get(3, "three").is_some());
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn shards_partition_the_capacity() {
        let cache = ResponseCache::new(4, 8); // 2 per shard
        for h in 0u64..32 {
            cache.put(h, format!("c{h}"), "p");
        }
        assert_eq!(cache.len(), 8, "per-shard LRU holds the stripe cap");
        assert_eq!(cache.stats().evictions, 24);
    }

    #[test]
    fn concurrent_access_from_many_threads_is_safe() {
        use std::sync::Arc;
        let cache = Arc::new(ResponseCache::new(8, 128));
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let cache = Arc::clone(&cache);
                std::thread::spawn(move || {
                    for i in 0u64..200 {
                        let canonical = format!("req-{}", i % 50);
                        let hash = fnv1a_bytes(&canonical);
                        if let Some(p) = cache.get(hash, &canonical) {
                            assert_eq!(p, format!("payload-{}", i % 50));
                        } else {
                            cache.put(hash, &canonical, &format!("payload-{}", i % 50));
                        }
                    }
                    t
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let s = cache.stats();
        assert!(s.hits > 0);
        assert_eq!(s.evictions, 0, "working set fits");
    }
}
