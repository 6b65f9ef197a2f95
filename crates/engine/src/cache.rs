//! A small LRU cache for solve results, and the hash it is indexed by.
//!
//! A slab of entries threaded onto a recency list by index, plus an
//! open-addressed table of slab slots probed linearly from the key's hash.
//! The hash is the caller's to compute, once, with [`key_hash`]: the query
//! service picks a cache shard from its high bits ([`shard_index`]) and hands
//! the same value to the shard's cache, whose table probes from its low bits
//! and whose slots keep it for eviction — a key is never hashed twice.  The
//! `*_hashed` calls match entries by a predicate over the stored key, so a
//! lookup needs no owned key: a hit is one hash, one probe run and an O(1)
//! relink, with no key clone and no allocation, and eviction pops the list's
//! tail.  One instance sits behind each shard lock of the query service.
//!
//! The hash is fixed, not keyed per process as std's `RandomState`
//! (SipHash-1-3) is: a few shifts and multiplies a word, where SipHash pays
//! its rounds on every key.  Keys chosen to collide can only lengthen probe
//! runs inside one table, and a table never holds more than its cache's
//! capacity.

use std::hash::{Hash, Hasher};

/// "No slot": the end of the recency list and of the free list, and an
/// empty table position.
const NIL: usize = usize::MAX;

/// ⌊2⁶⁴ / φ⌋, Knuth's multiplicative-hashing constant.  It is odd, so
/// multiplying by it is a bijection on `u64`.
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// The cache's hash of `key`: each word the key's `Hash` impl writes is
/// folded in as `state = (state.rotl(5) ^ word) · GOLDEN`, and the product's
/// high half is folded onto its low half at the end, so both halves are
/// mixed — [`shard_index`] reads the high one, a table the low one.
pub fn key_hash<K: Hash + ?Sized>(key: &K) -> u64 {
    let mut hasher = KeyHasher(0);
    key.hash(&mut hasher);
    hasher.finish()
}

/// Which of `shards` shards a key of hash `hash` lives in: the high 32 bits
/// scaled onto `0..shards` (`shards` at most 2³²).
pub fn shard_index(hash: u64, shards: usize) -> usize {
    (((hash >> 32) * shards as u64) >> 32) as usize
}

/// The [`Hasher`] behind [`key_hash`].
struct KeyHasher(u64);

impl KeyHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(GOLDEN);
    }
}

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            let mut buf = [0u8; 8];
            buf.copy_from_slice(word);
            self.add(u64::from_le_bytes(buf));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(buf));
        }
    }

    fn write_u8(&mut self, n: u8) {
        self.add(n.into());
    }

    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }
}

/// One slab slot.  Occupied slots are linked `prev` (more recent) / `next`
/// (less recent); vacant ones are chained through `next` alone.
#[derive(Debug)]
struct Slot<K, V> {
    /// The hash the entry was inserted under.
    hash: u64,
    entry: Option<(K, V)>,
    prev: usize,
    next: usize,
}

/// The slab and its two lists — everything but the key index.
#[derive(Debug)]
struct Recency<K, V> {
    slots: Vec<Slot<K, V>>,
    /// Most recently used slot.
    head: usize,
    /// Least recently used slot.
    tail: usize,
    /// First vacant slot.
    free: usize,
}

impl<K, V> Recency<K, V> {
    fn unlink(&mut self, i: usize) {
        let (prev, next) = (self.slots[i].prev, self.slots[i].next);
        match prev {
            NIL => self.head = next,
            p => self.slots[p].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slots[n].prev = prev,
        }
    }

    fn push_front(&mut self, i: usize) {
        self.slots[i].prev = NIL;
        self.slots[i].next = self.head;
        match self.head {
            NIL => self.tail = i,
            h => self.slots[h].prev = i,
        }
        self.head = i;
    }

    /// Stores an entry in a vacant slot (growing the slab when none is) and
    /// makes it the most recently used.
    fn occupy(&mut self, hash: u64, entry: (K, V)) -> usize {
        let i = match self.free {
            NIL => {
                self.slots.push(Slot {
                    hash,
                    entry: None,
                    prev: NIL,
                    next: NIL,
                });
                self.slots.len() - 1
            }
            i => {
                self.free = self.slots[i].next;
                i
            }
        };
        self.slots[i].hash = hash;
        self.slots[i].entry = Some(entry);
        self.push_front(i);
        i
    }

    /// Unlinks slot `i` and returns its entry, leaving the slot vacant.
    fn vacate(&mut self, i: usize) -> Option<(K, V)> {
        self.unlink(i);
        self.slots[i].next = self.free;
        self.free = i;
        self.slots[i].entry.take()
    }
}

/// A least-recently-used cache with a fixed capacity.
#[derive(Debug)]
pub struct LruCache<K, V> {
    /// Slab slots by position, `NIL` where empty: a power of two at least
    /// twice the capacity, so it is at most half full and every probe run
    /// ends.  Runs are kept unbroken by backward-shift deletion.
    table: Vec<usize>,
    recency: Recency<K, V>,
    len: usize,
    capacity: usize,
}

impl<K, V> LruCache<K, V> {
    /// Creates a cache holding at most `capacity` entries.
    ///
    /// # Panics
    /// Panics when `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        LruCache {
            table: vec![NIL; (2 * capacity).next_power_of_two()],
            recency: Recency {
                slots: Vec::with_capacity(capacity),
                head: NIL,
                tail: NIL,
                free: NIL,
            },
            len: 0,
            capacity,
        }
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` when the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Looks up the entry inserted under `hash` whose key `is_key` accepts,
    /// marking it most recently used on a hit.
    pub fn get_hashed(&mut self, hash: u64, is_key: impl FnMut(&K) -> bool) -> Option<&V> {
        let i = self.table[self.find(hash, is_key)?];
        if self.recency.head != i {
            self.recency.unlink(i);
            self.recency.push_front(i);
        }
        self.recency.slots[i].entry.as_ref().map(|(_, v)| v)
    }

    /// Inserts an entry under `hash`, evicting the least recently used one
    /// when at capacity, and returns the evicted key, if any, so callers can
    /// journal the eviction.  The caller has removed any entry with an equal
    /// key: the cache does not look for one.
    pub fn insert_hashed(&mut self, hash: u64, key: K, value: V) -> Option<K> {
        let mut victim = None;
        if self.len >= self.capacity {
            victim = self.take(self.recency.tail).map(|(k, _)| k);
        }
        let i = self.recency.occupy(hash, (key, value));
        let mask = self.table.len() - 1;
        let mut pos = hash as usize & mask;
        while self.table[pos] != NIL {
            pos = (pos + 1) & mask;
        }
        self.table[pos] = i;
        self.len += 1;
        victim
    }

    /// Removes the entry inserted under `hash` whose key `is_key` accepts,
    /// returning its value when present.
    pub fn remove_hashed(&mut self, hash: u64, is_key: impl FnMut(&K) -> bool) -> Option<V> {
        let pos = self.find(hash, is_key)?;
        let i = self.table[pos];
        self.unindex(pos);
        self.len -= 1;
        self.recency.vacate(i).map(|(_, v)| v)
    }

    /// The cached keys, in unspecified order (recency is not touched).
    pub fn keys(&self) -> impl Iterator<Item = &K> {
        self.recency
            .slots
            .iter()
            .filter_map(|slot| slot.entry.as_ref().map(|(k, _)| k))
    }

    /// Drops every entry for which `predicate` returns `false`.
    pub fn retain(&mut self, mut predicate: impl FnMut(&K) -> bool) {
        for i in 0..self.recency.slots.len() {
            let drop = match &self.recency.slots[i].entry {
                Some((k, _)) => !predicate(k),
                None => false,
            };
            if drop {
                self.take(i);
            }
        }
    }

    /// Empties the cache.
    pub fn clear(&mut self) {
        self.table.fill(NIL);
        self.recency.slots.clear();
        self.recency.head = NIL;
        self.recency.tail = NIL;
        self.recency.free = NIL;
        self.len = 0;
    }

    /// The table position of the entry inserted under `hash` whose key
    /// `is_key` accepts.
    fn find(&self, hash: u64, mut is_key: impl FnMut(&K) -> bool) -> Option<usize> {
        let mask = self.table.len() - 1;
        let mut pos = hash as usize & mask;
        loop {
            // An empty position (`NIL`) is past the slab: the run ends there.
            let slot = self.recency.slots.get(self.table[pos])?;
            if slot.hash == hash && slot.entry.as_ref().is_some_and(|(k, _)| is_key(k)) {
                return Some(pos);
            }
            pos = (pos + 1) & mask;
        }
    }

    /// Unindexes and vacates occupied slot `i`, returning its entry.
    fn take(&mut self, i: usize) -> Option<(K, V)> {
        let mask = self.table.len() - 1;
        let mut pos = self.recency.slots.get(i)?.hash as usize & mask;
        while self.table[pos] != i {
            pos = (pos + 1) & mask;
        }
        self.unindex(pos);
        self.len -= 1;
        self.recency.vacate(i)
    }

    /// Empties table position `pos`, moving each later entry of its probe run
    /// whose home position is not in `(hole, entry]` back into the hole, so
    /// no run is broken and no tombstone is left.
    fn unindex(&mut self, mut hole: usize) {
        let mask = self.table.len() - 1;
        let mut pos = hole;
        loop {
            pos = (pos + 1) & mask;
            let i = self.table[pos];
            if i == NIL {
                break;
            }
            let home = self.recency.slots[i].hash as usize & mask;
            if pos.wrapping_sub(home) & mask >= pos.wrapping_sub(hole) & mask {
                self.table[hole] = i;
                hole = pos;
            }
        }
        self.table[hole] = NIL;
    }
}

impl<K: Hash + Eq, V> LruCache<K, V> {
    /// Looks up `key`, marking it most recently used on a hit.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        self.get_hashed(key_hash(key), |k| k == key)
    }

    /// Inserts (or replaces) an entry, evicting the least recently used one
    /// when at capacity. Returns the evicted key, if any, so callers can
    /// journal the eviction.
    pub fn insert(&mut self, key: K, value: V) -> Option<K> {
        let hash = key_hash(&key);
        self.remove_hashed(hash, |k| *k == key);
        self.insert_hashed(hash, key, value)
    }

    /// Removes `key`, returning its value when present.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        self.remove_hashed(key_hash(key), |k| k == key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_least_recently_used() {
        let mut c = LruCache::new(2);
        assert_eq!(c.insert("a", 1), None);
        assert_eq!(c.insert("b", 2), None);
        assert_eq!(c.get(&"a"), Some(&1)); // touch a; b is now LRU
        assert_eq!(c.insert("c", 3), Some("b"));
        assert_eq!(c.get(&"b"), None);
        assert_eq!(c.get(&"a"), Some(&1));
        assert_eq!(c.get(&"c"), Some(&3));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn replace_does_not_grow() {
        let mut c = LruCache::new(2);
        assert_eq!(c.insert("a", 1), None);
        assert_eq!(c.insert("a", 10), None);
        assert_eq!(c.len(), 1);
        assert_eq!(c.get(&"a"), Some(&10));
    }

    #[test]
    fn retain_and_clear() {
        let mut c = LruCache::new(8);
        for i in 0..6 {
            c.insert(i, i * 10);
        }
        c.retain(|&k| k % 2 == 0);
        assert_eq!(c.len(), 3);
        assert_eq!(c.get(&4), Some(&40));
        assert_eq!(c.get(&3), None);
        // Eviction still works after retain.
        for i in 10..20 {
            c.insert(i, i);
        }
        assert_eq!(c.len(), 8);
        c.clear();
        assert!(c.is_empty());
    }

    #[test]
    fn vacated_slots_are_reused_and_recency_survives() {
        let mut c = LruCache::new(3);
        for (k, v) in [(1, "a"), (2, "b"), (3, "c")] {
            c.insert(k, v);
        }
        // Vacate the middle of the list, then the head; both slots are
        // reused without evicting anything.
        assert_eq!(c.remove(&2), Some("b"));
        assert_eq!(c.remove(&3), Some("c"));
        assert_eq!(c.insert(4, "d"), None);
        assert_eq!(c.insert(5, "e"), None);
        assert_eq!(c.len(), 3);
        // Order, oldest first, is now 1, 4, 5; a hit on the tail and a hit
        // on the head both leave a consistent list behind.
        assert_eq!(c.get(&1), Some(&"a"));
        assert_eq!(c.get(&1), Some(&"a"));
        assert_eq!(c.insert(6, "f"), Some(4));
        assert_eq!(c.insert(7, "g"), Some(5));
        assert_eq!(c.insert(8, "h"), Some(1));
        let mut keys: Vec<_> = c.keys().copied().collect();
        keys.sort_unstable();
        assert_eq!(keys, vec![6, 7, 8]);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_rejected() {
        LruCache::<u32, u32>::new(0);
    }

    /// Every key under one hash: one probe run holds them all, and the cache
    /// still evicts at capacity, returns each key's own value, and keeps the
    /// run whole across removals from its middle and its front.
    #[test]
    fn one_hash_for_every_key_still_evicts_and_answers_right() {
        let mut c = LruCache::new(4);
        let get = |c: &mut LruCache<u32, u32>, key: u32| c.get_hashed(7, |k| *k == key).copied();
        for key in 0..4 {
            assert_eq!(c.insert_hashed(7, key, key * 10), None);
        }
        assert_eq!(get(&mut c, 0), Some(0)); // 1 is now least recent
        assert_eq!(c.insert_hashed(7, 4, 40), Some(1));
        assert_eq!(c.insert_hashed(7, 5, 50), Some(2));
        assert_eq!(c.len(), 4);
        for (key, want) in [(0, Some(0)), (1, None), (2, None), (3, Some(30))] {
            assert_eq!(get(&mut c, key), want, "key {key}");
        }
        assert_eq!(c.remove_hashed(7, |k| *k == 3), Some(30));
        assert_eq!(c.remove_hashed(7, |k| *k == 0), Some(0));
        assert_eq!(get(&mut c, 4), Some(40));
        assert_eq!(get(&mut c, 5), Some(50));
        for key in 6..16 {
            c.insert_hashed(7, key, key * 10);
            assert!(c.len() <= 4);
        }
        for key in 12..16 {
            assert_eq!(get(&mut c, key), Some(key * 10), "key {key}");
        }
        c.retain(|&k| k % 2 == 0);
        assert_eq!(c.len(), 2);
        assert_eq!(get(&mut c, 14), Some(140));
        assert_eq!(get(&mut c, 13), None);
    }

    /// Backward-shift deletion across the table's wrap-around: hashes homed
    /// on the last position run over into the first, interleaved with keys
    /// homed there, and every key stays reachable whichever one leaves.
    #[test]
    fn deletion_keeps_wrapped_probe_runs_whole() {
        for removed in 0..6u64 {
            // Capacity 6 is a 16-position table: homes 15, 15, 0, 15, 0, 1.
            let mut c = LruCache::new(6);
            let hashes = [15u64, 31, 0, 47, 16, 1];
            for (key, &hash) in hashes.iter().enumerate() {
                c.insert_hashed(hash, key as u64, hash);
            }
            let hash = hashes[removed as usize];
            assert_eq!(c.remove_hashed(hash, |k| *k == removed), Some(hash));
            for (key, &hash) in hashes.iter().enumerate() {
                let want = (key as u64 != removed).then_some(hash);
                assert_eq!(c.get_hashed(hash, |k| *k == key as u64).copied(), want);
            }
        }
    }

    #[test]
    fn key_hash_spreads_keys_and_reads_every_word() {
        // One word of difference always changes the hash: each step is a
        // bijection of the word for a fixed state, and of the state after.
        assert_ne!(key_hash(&(1u8, 2usize)), key_hash(&(1u8, 3usize)));
        assert_ne!(key_hash(&[1u8, 2, 3][..]), key_hash(&[1u8, 2, 4][..]));
        assert_ne!(key_hash(&0.85f64.to_bits()), key_hash(&0.9f64.to_bits()));
        for shards in [1, 3, 8] {
            assert!((0..1000u64).all(|k| shard_index(key_hash(&k), shards) < shards));
        }
    }
}
