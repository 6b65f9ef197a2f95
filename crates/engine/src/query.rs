//! Concurrent measure-query serving.
//!
//! The [`QueryService`] answers [`MeasureQuery`]s against immutable
//! [`EngineSnapshot`]s, exactly: a result is served only for the snapshot it
//! was solved at.  Results are memoised in LRU shards keyed by `(snapshot
//! id, query)` and sharded by the *query* alone, so every snapshot's entry
//! for one query lives in the same shard.  The query is hashed once per call
//! ([`crate::cache::key_hash`]): the shard comes from the hash's high bits
//! and the shard's table probes from its low bits, with the borrowed query
//! compared in place, so a hit clones no key and allocates nothing.  Each
//! shard also keeps a per-snapshot entry count, letting bulk invalidation
//! skip shards that hold nothing stale instead of scanning every key.
//!
//! A miss is solved by [`EngineSnapshot::query`] on the caller's own thread,
//! with no lock held: the maintained factors make each query one
//! independent solve, so concurrent misses run side by side and no reader
//! ever waits on another reader's solve.  Two readers missing the same key
//! at once both solve it, get the same bits, and leave one cache entry.

use crate::cache::{key_hash, shard_index, LruCache};
use crate::error::{EngineError, EngineResult};
use crate::store::EngineSnapshot;
use crate::sync::Recover;
use clude_measures::MeasureQuery;
use clude_telemetry::{Counter, EngineEvent, Stage, TelemetryRegistry};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// The number of result-cache shards.
const CACHE_SHARDS: usize = 8;

/// One cache hit in `HIT_SAMPLE` (per serving thread) is timed as a
/// `query.cache_hit` span; every hit is counted.  A hit costs little more
/// than reading the clock twice, so timing each one would make the span the
/// larger part of the hit.
const HIT_SAMPLE: u32 = 64;

thread_local! {
    /// Hits this thread serves before it times one again; at zero the next
    /// probe is timed, and a probe that misses keeps the turn.
    static HITS_UNTIL_SAMPLE: Cell<u32> = const { Cell::new(0) };
}

/// A cached result's key.  The cache indexes it by the hash of the query
/// alone, so every snapshot's entry for one query shares a shard.
#[derive(Debug, PartialEq)]
struct CacheKey {
    snapshot: u64,
    query: MeasureQuery,
}

/// One cache shard: the LRU plus a per-snapshot entry count.  The counts let
/// [`CacheShard::invalidate_below`] return without scanning a shard that
/// holds nothing stale.  Every call takes the query's [`key_hash`].
#[derive(Debug)]
struct CacheShard {
    lru: LruCache<CacheKey, Arc<Vec<f64>>>,
    per_snapshot: BTreeMap<u64, usize>,
}

impl CacheShard {
    fn new(capacity: usize) -> Self {
        CacheShard {
            lru: LruCache::new(capacity),
            per_snapshot: BTreeMap::new(),
        }
    }

    fn len(&self) -> usize {
        self.lru.len()
    }

    fn get(&mut self, hash: u64, snapshot: u64, query: &MeasureQuery) -> Option<&Arc<Vec<f64>>> {
        self.lru
            .get_hashed(hash, |k| k.snapshot == snapshot && k.query == *query)
    }

    fn insert(&mut self, hash: u64, key: CacheKey, value: Arc<Vec<f64>>) -> Option<CacheKey> {
        // Replacing an existing key must not double-count it; removing first
        // also guarantees the LRU has room, so a replace never evicts.
        if self.lru.remove_hashed(hash, |k| *k == key).is_none() {
            *self.per_snapshot.entry(key.snapshot).or_insert(0) += 1;
        }
        let victim = self.lru.insert_hashed(hash, key, value);
        if let Some(evicted) = &victim {
            Self::forget(&mut self.per_snapshot, evicted.snapshot);
        }
        victim
    }

    fn forget(per_snapshot: &mut BTreeMap<u64, usize>, snapshot: u64) {
        if let Some(count) = per_snapshot.get_mut(&snapshot) {
            *count -= 1;
            if *count == 0 {
                per_snapshot.remove(&snapshot);
            }
        }
    }

    /// Drops entries for snapshots below `oldest`, returning how many were
    /// dropped.  A shard whose oldest resident snapshot is already `>=
    /// oldest` returns without touching the LRU at all — the common case
    /// when invalidation runs after every published batch.
    fn invalidate_below(&mut self, oldest: u64) -> u64 {
        match self.per_snapshot.first_key_value() {
            Some((&first, _)) if first < oldest => {}
            _ => return 0,
        }
        let kept = self.per_snapshot.split_off(&oldest);
        let dropped: usize = self.per_snapshot.values().sum();
        self.per_snapshot = kept;
        self.lru.retain(|k| k.snapshot >= oldest);
        dropped as u64
    }
}

/// Sharded, cached query evaluation over engine snapshots.
#[derive(Debug)]
pub struct QueryService {
    shards: Vec<Mutex<CacheShard>>,
    /// Oldest snapshot id still retained; results below it are not cached
    /// (a reader may finish a solve for a snapshot evicted mid-flight).
    oldest_retained: AtomicU64,
    telemetry: Arc<TelemetryRegistry>,
}

impl QueryService {
    /// Creates a service with eight cache shards of `capacity_per_shard`
    /// entries each, counting queries and cache hits into `telemetry`; a
    /// `capacity_per_shard` of 0 is [`EngineError::InvalidConfig`].
    pub fn new(capacity_per_shard: usize, telemetry: Arc<TelemetryRegistry>) -> EngineResult<Self> {
        if capacity_per_shard == 0 {
            return Err(EngineError::InvalidConfig(
                "cache capacity_per_shard must be at least 1".into(),
            ));
        }
        Ok(QueryService {
            shards: (0..CACHE_SHARDS)
                .map(|_| Mutex::new(CacheShard::new(capacity_per_shard)))
                .collect(),
            oldest_retained: AtomicU64::new(0),
            telemetry,
        })
    }

    /// Answers `query` against `snapshot`, consulting the cache for that
    /// snapshot's result first.  A miss is solved on the calling thread.
    ///
    /// A hit validates the query, counts it, hashes it once and takes its
    /// shard's lock once.  `snapshot` is only read, hit or miss.  Results
    /// are shared (`Arc`) so concurrent readers of a hot query pay no
    /// copies.
    pub fn query(
        &self,
        snapshot: &EngineSnapshot,
        query: &MeasureQuery,
    ) -> EngineResult<Arc<Vec<f64>>> {
        query
            .validate(snapshot.n_nodes())
            .map_err(EngineError::InvalidQuery)?;
        self.telemetry.incr(Counter::QueriesServed);
        let id = snapshot.id();
        // Sharded by the query alone: every snapshot's entry for one query
        // shares a shard.
        let hash = key_hash(query);
        let shard = &self.shards[shard_index(hash, CACHE_SHARDS)];
        {
            let until_sample = HITS_UNTIL_SAMPLE.with(Cell::get);
            let probe = (until_sample == 0).then(|| self.telemetry.span(Stage::QueryCacheHit));
            let mut guard = shard.lock().recover();
            if let Some(hit) = guard.get(hash, id, query) {
                self.telemetry.incr(Counter::CacheHits);
                let next = until_sample.checked_sub(1).unwrap_or(HIT_SAMPLE - 1);
                HITS_UNTIL_SAMPLE.with(|c| c.set(next));
                return Ok(Arc::clone(hit));
            }
            // A miss records no `query.cache_hit` sample — the stage times
            // served-from-cache probes only.
            if let Some(probe) = probe {
                probe.cancel();
            }
        }
        // A miss (counted as `queries − cache_hits`), solved here with no
        // lock held.
        let solve_span = self.telemetry.span(Stage::QuerySolve);
        let scores = Arc::new(snapshot.query(query)?);
        solve_span.stop();
        // Don't cache results for snapshots evicted while we were solving:
        // query_at() rejects their ids before probing the cache, so the
        // entry would only waste LRU capacity.  The retained floor is read
        // under the shard lock: `invalidate_below` raises it before it cleans
        // any shard, so either it cleans this entry or this read sees it.
        let mut guard = shard.lock().recover();
        let victim = if id >= self.oldest_retained.load(Ordering::Acquire) {
            let key = CacheKey {
                snapshot: id,
                query: query.clone(),
            };
            guard.insert(hash, key, Arc::clone(&scores))
        } else {
            None
        };
        drop(guard);
        if let Some(evicted) = victim {
            self.telemetry.incr(Counter::CacheEvictions);
            self.telemetry.record_event(EngineEvent::CacheEvicted {
                snapshot: evicted.snapshot,
            });
        }
        Ok(scores)
    }

    /// Drops cached results for snapshots older than `oldest_retained`
    /// (called when the snapshot ring evicts; newer entries stay hot).
    /// Shards holding nothing stale are skipped via their per-snapshot
    /// counts; a non-empty drop is journalled as one bulk
    /// [`EngineEvent::CacheInvalidated`] event.
    pub fn invalidate_below(&self, oldest_retained: u64) {
        self.oldest_retained
            .store(oldest_retained, Ordering::Release);
        let mut dropped = 0u64;
        for shard in &self.shards {
            dropped += shard.lock().recover().invalidate_below(oldest_retained);
        }
        if dropped > 0 {
            self.telemetry.record_event(EngineEvent::CacheInvalidated {
                oldest_retained,
                dropped,
            });
        }
    }

    /// Total number of cached results across shards.
    pub fn cached_entries(&self) -> usize {
        self.shards.iter().map(|s| s.lock().recover().len()).sum()
    }

    /// The snapshot id of every cached result.
    #[cfg(test)]
    pub(crate) fn cached_snapshot_ids(&self) -> Vec<u64> {
        let ids = |s: &Mutex<CacheShard>| -> Vec<u64> {
            s.lock().recover().lru.keys().map(|k| k.snapshot).collect()
        };
        self.shards.iter().flat_map(ids).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sharded::ShardedFactorStore;
    use crate::stats::EngineStats;
    use clude_graph::{DiGraph, MatrixKind, NodePartition};

    fn store() -> ShardedFactorStore {
        let mut g = DiGraph::from_edges(6, (0..6).map(|i| (i, (i + 1) % 6)).collect::<Vec<_>>());
        g.add_edge(2, 0);
        ShardedFactorStore::new(
            g,
            MatrixKind::random_walk_default(),
            1.0,
            NodePartition::singleton(6),
        )
        .unwrap()
    }

    fn snapshot() -> Arc<EngineSnapshot> {
        Arc::new(store().snapshot())
    }

    fn service() -> (QueryService, Arc<TelemetryRegistry>) {
        let telemetry = Arc::new(TelemetryRegistry::default());
        let service = QueryService::new(16, Arc::clone(&telemetry)).unwrap();
        (service, telemetry)
    }

    #[test]
    fn a_query_service_refuses_zero_capacity() {
        let telemetry = Arc::new(TelemetryRegistry::default());
        assert!(matches!(
            QueryService::new(0, Arc::clone(&telemetry)),
            Err(EngineError::InvalidConfig(m)) if m.contains("capacity_per_shard")
        ));
        assert!(QueryService::new(1, telemetry).is_ok());
    }

    #[test]
    fn cache_hits_return_the_same_result() {
        let (service, telemetry) = service();
        let snap = snapshot();
        let q = MeasureQuery::Rwr {
            seed: 1,
            damping: 0.85,
        };
        let first = service.query(&snap, &q).unwrap();
        let second = service.query(&snap, &q).unwrap();
        assert!(
            Arc::ptr_eq(&first, &second),
            "second answer must come from cache"
        );
        let stats = EngineStats::from_registry(&telemetry);
        assert_eq!(stats.queries, 2);
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.cache_misses, 1);
        assert_eq!(service.cached_entries(), 1);
    }

    #[test]
    fn distinct_queries_miss_separately() {
        let (service, telemetry) = service();
        let snap = snapshot();
        for seed in 0..4 {
            service
                .query(
                    &snap,
                    &MeasureQuery::Rwr {
                        seed,
                        damping: 0.85,
                    },
                )
                .unwrap();
        }
        assert_eq!(EngineStats::from_registry(&telemetry).cache_misses, 4);
        assert_eq!(service.cached_entries(), 4);
    }

    #[test]
    fn invalidation_drops_old_snapshots_only() {
        let (service, telemetry) = service();
        let snap = snapshot(); // id 0
        let q = MeasureQuery::PageRank { damping: 0.85 };
        service.query(&snap, &q).unwrap();
        assert_eq!(service.cached_entries(), 1);
        let events_before = telemetry.journal().recorded();
        // Nothing below 0: the counted shards skip every scan, no event.
        service.invalidate_below(0);
        assert_eq!(service.cached_entries(), 1);
        assert_eq!(telemetry.journal().recorded(), events_before);
        service.invalidate_below(1);
        assert_eq!(service.cached_entries(), 0);
        assert_eq!(
            telemetry.journal().recorded(),
            events_before + 1,
            "bulk invalidation must journal one CacheInvalidated event"
        );
    }

    #[test]
    fn invalid_queries_are_rejected_before_solving() {
        let (service, telemetry) = service();
        let snap = snapshot();
        let bad = MeasureQuery::Rwr {
            seed: 99,
            damping: 0.85,
        };
        assert!(matches!(
            service.query(&snap, &bad),
            Err(EngineError::InvalidQuery(_))
        ));
        assert_eq!(EngineStats::from_registry(&telemetry).queries, 0);
    }

    /// Concurrent misses, on distinct keys and on one shared key, each
    /// solve on their own thread and agree bit for bit with a sequential
    /// solve; readers racing on the shared key leave it one cache entry.
    #[test]
    fn concurrent_misses_agree_with_sequential() {
        let telemetry = Arc::new(TelemetryRegistry::default());
        let service = Arc::new(QueryService::new(64, Arc::clone(&telemetry)).unwrap());
        let snap = snapshot();
        let shared = MeasureQuery::PageRank { damping: 0.85 };
        let mut queries: Vec<MeasureQuery> = (0..6)
            .map(|seed| MeasureQuery::Rwr {
                seed,
                damping: 0.85,
            })
            .collect();
        queries.extend(std::iter::repeat_n(shared.clone(), 4));
        let start = Arc::new(std::sync::Barrier::new(queries.len()));
        let handles: Vec<_> = queries
            .into_iter()
            .map(|q| {
                let (service, snap, start) =
                    (Arc::clone(&service), Arc::clone(&snap), Arc::clone(&start));
                std::thread::spawn(move || {
                    start.wait();
                    let answer = service.query(&snap, &q).unwrap();
                    (q, answer)
                })
            })
            .collect();
        for h in handles {
            let (q, answer) = h.join().unwrap();
            let sequential = snap.query(&q).unwrap();
            let same = answer.len() == sequential.len()
                && answer
                    .iter()
                    .zip(sequential.iter())
                    .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "concurrent answer must be bit-identical: {q:?}");
        }
        let entries_for = |q: &MeasureQuery| -> usize {
            let in_shard = |s: &Mutex<CacheShard>| {
                s.lock()
                    .recover()
                    .lru
                    .keys()
                    .filter(|k| k.query == *q)
                    .count()
            };
            service.shards.iter().map(in_shard).sum()
        };
        assert_eq!(entries_for(&shared), 1);
        assert_eq!(service.cached_entries(), 7);
        let stats = EngineStats::from_registry(&telemetry);
        assert_eq!(stats.queries, 10);
        assert_eq!(stats.queries, stats.cache_hits + stats.cache_misses);
    }

    /// The read phase's key set — every RWR seed of a 1,000-page graph plus
    /// 3,096 distinct PPR seed pairs, drawn as the serving benchmark draws
    /// them — spreads over 8 cache shards with none above 1.5x the mean.
    #[test]
    fn the_serving_key_set_spreads_evenly_over_eight_shards() {
        use rand::rngs::StdRng;
        use rand::seq::SliceRandom;
        use rand::{Rng, SeedableRng};
        use std::collections::HashSet;
        let (n, n_keys, shards) = (1_000usize, 4_096usize, CACHE_SHARDS);
        for seed in [11u64, 12, 13, 97] {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut pages: Vec<usize> = (0..n).collect();
            pages.shuffle(&mut rng);
            let mut keys: Vec<MeasureQuery> = pages
                .iter()
                .map(|&seed| MeasureQuery::Rwr {
                    seed,
                    damping: 0.85,
                })
                .collect();
            let mut seen = HashSet::new();
            while keys.len() < n_keys {
                let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
                if a != b && seen.insert((a.min(b), a.max(b))) {
                    keys.push(MeasureQuery::PprSeedSet {
                        seeds: vec![a.min(b), a.max(b)],
                        damping: 0.85,
                    });
                }
            }
            let mut load = vec![0usize; shards];
            for key in &keys {
                load[shard_index(key_hash(key), shards)] += 1;
            }
            let mean = n_keys as f64 / shards as f64;
            let max = *load.iter().max().unwrap();
            assert!(max as f64 <= 1.5 * mean, "seed {seed}: {load:?}");
        }
    }

    /// Keys one damping ulp apart, or with their PPR seeds in another order,
    /// are different cache keys: each is stored and served on its own.
    #[test]
    fn keys_differing_in_damping_bits_or_seed_order_stay_distinct() {
        let ulp_up = f64::from_bits(0.85f64.to_bits() + 1);
        let keys = [
            MeasureQuery::Rwr {
                seed: 1,
                damping: 0.85,
            },
            MeasureQuery::Rwr {
                seed: 1,
                damping: ulp_up,
            },
            MeasureQuery::PprSeedSet {
                seeds: vec![1, 2],
                damping: 0.85,
            },
            MeasureQuery::PprSeedSet {
                seeds: vec![2, 1],
                damping: 0.85,
            },
        ];
        let hashes: Vec<u64> = keys.iter().map(key_hash).collect();
        assert_ne!(hashes[0], hashes[1]);
        assert_ne!(hashes[2], hashes[3]);
        let mut shard = CacheShard::new(8);
        for (i, key) in keys.iter().enumerate() {
            let entry = CacheKey {
                snapshot: 0,
                query: key.clone(),
            };
            assert!(shard
                .insert(hashes[i], entry, Arc::new(vec![i as f64]))
                .is_none());
        }
        assert_eq!(shard.len(), 4);
        for (i, key) in keys.iter().enumerate() {
            let hit = shard.get(hashes[i], 0, key).expect("each key is cached");
            assert_eq!(**hit, vec![i as f64], "{key:?}");
        }
    }
}
