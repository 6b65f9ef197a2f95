//! A small LRU cache for solve results.
//!
//! A slab of entries threaded onto a recency list by index, plus a
//! `HashMap<K, usize>` from key to slab slot: a hit is one hash lookup and an
//! O(1) relink — no second lookup, no key clone, no allocation — and eviction
//! pops the list's tail.  One instance sits behind each shard lock of the
//! query service.

use std::collections::HashMap;
use std::hash::Hash;

/// "No slot": the end of the recency list and of the free list.
const NIL: usize = usize::MAX;

/// One slab slot.  Occupied slots are linked `prev` (more recent) / `next`
/// (less recent); vacant ones are chained through `next` alone.
#[derive(Debug)]
struct Slot<K, V> {
    entry: Option<(K, V)>,
    prev: usize,
    next: usize,
}

/// The slab and its two lists — everything but the key index, so the index
/// can be walked while slots are unlinked (`retain`).
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
    fn occupy(&mut self, entry: (K, V)) -> usize {
        let i = match self.free {
            NIL => {
                self.slots.push(Slot {
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
    index: HashMap<K, usize>,
    recency: Recency<K, V>,
    capacity: usize,
}

impl<K: Eq + Hash + Clone, V> LruCache<K, V> {
    /// Creates a cache holding at most `capacity` entries.
    ///
    /// # Panics
    /// Panics when `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        LruCache {
            index: HashMap::with_capacity(capacity),
            recency: Recency {
                slots: Vec::with_capacity(capacity),
                head: NIL,
                tail: NIL,
                free: NIL,
            },
            capacity,
        }
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Returns `true` when the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Looks up `key`, marking it most recently used on a hit.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        let i = *self.index.get(key)?;
        if self.recency.head != i {
            self.recency.unlink(i);
            self.recency.push_front(i);
        }
        self.recency.slots[i].entry.as_ref().map(|(_, v)| v)
    }

    /// Inserts (or replaces) an entry, evicting the least recently used one
    /// when at capacity. Returns the evicted key, if any, so callers can
    /// journal the eviction.
    pub fn insert(&mut self, key: K, value: V) -> Option<K> {
        if let Some(i) = self.index.remove(&key) {
            self.recency.vacate(i);
        }
        let mut victim = None;
        if self.index.len() >= self.capacity {
            if let Some((evicted, _)) = self.recency.vacate(self.recency.tail) {
                self.index.remove(&evicted);
                victim = Some(evicted);
            }
        }
        let i = self.recency.occupy((key.clone(), value));
        self.index.insert(key, i);
        victim
    }

    /// Removes `key`, returning its value when present.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let i = self.index.remove(key)?;
        self.recency.vacate(i).map(|(_, v)| v)
    }

    /// The cached keys, in unspecified order (recency is not touched).
    pub fn keys(&self) -> impl Iterator<Item = &K> {
        self.index.keys()
    }

    /// Drops every entry for which `predicate` returns `false`.
    pub fn retain(&mut self, mut predicate: impl FnMut(&K) -> bool) {
        let recency = &mut self.recency;
        self.index.retain(|k, i| {
            let keep = predicate(k);
            if !keep {
                recency.vacate(*i);
            }
            keep
        });
    }

    /// Empties the cache.
    pub fn clear(&mut self) {
        self.index.clear();
        self.recency.slots.clear();
        self.recency.head = NIL;
        self.recency.tail = NIL;
        self.recency.free = NIL;
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
}
