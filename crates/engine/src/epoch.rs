//! Wait-free epoch-published snapshot handles.
//!
//! The engine's hot read path used to acquire the snapshot-ring `RwLock` on
//! every query just to clone the newest `Arc<EngineSnapshot>` — a shared
//! lock, but still a contended cache line and a reader/writer convoy under
//! high qps.  [`SnapshotHandle`] replaces that acquisition with an epoch
//! protocol over the same Arc-swap discipline the copy-on-write ring already
//! uses for factor blocks:
//!
//! * **publish** (writer, serialized by the engine's ingest mutex): write the
//!   new `Arc` into the handle's slot, then increment the epoch counter with
//!   `Release` ordering.  The slot write therefore *happens-before* any
//!   reader that observes the new epoch value.
//! * **load** (readers): read the epoch with `Acquire` and compare it against
//!   a thread-local `(handle id, epoch, Arc)` cache.  In the steady state —
//!   no publish since this thread's last load — the load is one atomic read
//!   plus a thread-local hit: **no lock of any kind**, wait-free.
//!   [`SnapshotHandle::with_current`] lends the cached `Arc` to a closure,
//!   so a caller that only reads the snapshot (a query answered from the
//!   result cache) touches no reference count either; [`SnapshotHandle::load`]
//!   clones it.  Only the first load after a publish (per thread) refreshes
//!   the cache through the slot's `Mutex`, a once-per-epoch cost that is
//!   amortized to nothing at serving rates.
//!
//! A snapshot tagged with epoch `E` is always the snapshot published at `E`
//! *or newer* (the slot is written before the epoch increment, and the slot
//! mutex orders the refresh after that write), so per thread the served
//! snapshot sequence is monotone and never older than the last completed
//! publish the thread could have observed.  Lock order: the engine's ingest
//! mutex is held *around* `publish`, which takes the slot mutex; readers
//! take the slot mutex without the ingest mutex — no cycle.

use crate::store::EngineSnapshot;
use crate::sync::Recover;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Process-wide allocator distinguishing handles in the thread-local cache
/// (a thread may serve several engines over its lifetime).
static NEXT_HANDLE_ID: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// One cached `(handle id, epoch, snapshot)` entry per thread: the
    /// steady-state fast path of [`SnapshotHandle::with_current`].  A single entry
    /// suffices because a serving thread hammers one engine; switching
    /// handles just misses once.
    static CACHED: RefCell<Option<(usize, u64, Arc<EngineSnapshot>)>> = const { RefCell::new(None) };
}

/// The engine's wait-free published-snapshot cell: readers get the current
/// snapshot without locks in the steady state, the single writer publishes
/// with one slot store plus one `Release` epoch increment.
#[derive(Debug)]
pub struct SnapshotHandle {
    id: usize,
    epoch: AtomicU64,
    slot: Mutex<Arc<EngineSnapshot>>,
}

impl SnapshotHandle {
    /// A handle initially publishing `snapshot`.
    pub fn new(snapshot: Arc<EngineSnapshot>) -> Self {
        // lint: allow(atomic-ordering) — handle-id allocation needs only
        // uniqueness, which the atomic fetch_add gives at any ordering.
        let id = NEXT_HANDLE_ID.fetch_add(1, Ordering::Relaxed);
        SnapshotHandle {
            id,
            epoch: AtomicU64::new(0),
            slot: Mutex::new(snapshot),
        }
    }

    /// Publishes `snapshot` as the new current snapshot.  Callers serialize
    /// publishes (the engine holds its ingest mutex); the `Release`
    /// increment orders the slot write before the epoch value readers
    /// acquire, which is the entire correctness argument of [`Self::load`].
    pub fn publish(&self, snapshot: Arc<EngineSnapshot>) {
        {
            let mut slot = self.slot.lock().recover();
            *slot = snapshot;
        }
        self.epoch.fetch_add(1, Ordering::Release);
    }

    /// Runs `f` on the current snapshot, borrowed from this thread's cache.
    /// Steady state (no publish since this thread's last look at this
    /// handle): one `Acquire` epoch read plus a thread-local borrow —
    /// wait-free, zero locks, and no reference count touched.  After a
    /// publish, the first call per thread refreshes the cache through the
    /// slot mutex.  A call nested inside `f` reads the slot without caching.
    pub fn with_current<R>(&self, f: impl FnOnce(&Arc<EngineSnapshot>) -> R) -> R {
        let epoch = self.epoch.load(Ordering::Acquire);
        CACHED.with(|cell| match cell.try_borrow_mut() {
            Ok(mut cached) => {
                let entry = match cached.take() {
                    Some(entry) if entry.0 == self.id && entry.1 == epoch => entry,
                    _ => (self.id, epoch, Arc::clone(&self.slot.lock().recover())),
                };
                f(&cached.insert(entry).2)
            }
            Err(_) => {
                let snapshot = Arc::clone(&self.slot.lock().recover());
                f(&snapshot)
            }
        })
    }

    /// The current snapshot, owned: [`Self::with_current`] plus one
    /// reference-count increment.
    pub fn load(&self) -> Arc<EngineSnapshot> {
        self.with_current(Arc::clone)
    }

    /// The number of completed publishes (the current epoch), for stats and
    /// tests.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sharded::ShardedFactorStore;
    use clude_graph::{DiGraph, GraphDelta, MatrixKind, NodePartition};

    fn store() -> ShardedFactorStore {
        let g = DiGraph::from_edges(4, vec![(0, 1), (1, 2), (2, 3), (3, 0)]);
        ShardedFactorStore::new(
            g,
            MatrixKind::random_walk_default(),
            f64::INFINITY,
            NodePartition::singleton(4),
        )
        .unwrap()
    }

    fn advance(store: &mut ShardedFactorStore, from: usize, to: usize) {
        store
            .advance(&GraphDelta {
                added: vec![(from, to)],
                removed: vec![],
            })
            .unwrap();
    }

    #[test]
    fn load_returns_published_snapshot_and_epoch_advances() {
        let mut st = store();
        let s0 = Arc::new(st.snapshot());
        let handle = SnapshotHandle::new(Arc::clone(&s0));
        assert_eq!(handle.epoch(), 0);
        assert!(Arc::ptr_eq(&handle.load(), &s0));
        // Steady state: repeated loads hit the thread-local cache and agree.
        assert!(Arc::ptr_eq(&handle.load(), &s0));

        advance(&mut st, 0, 2);
        let s1 = Arc::new(st.snapshot());
        handle.publish(Arc::clone(&s1));
        assert_eq!(handle.epoch(), 1);
        assert!(Arc::ptr_eq(&handle.load(), &s1));
        assert_eq!(handle.load().id(), 1);
    }

    #[test]
    fn borrowed_snapshot_is_the_published_one_even_when_nested() {
        let mut st = store();
        let s0 = Arc::new(st.snapshot());
        let handle = SnapshotHandle::new(Arc::clone(&s0));
        handle.load(); // fills this thread's cache
        let count = Arc::strong_count(&s0);
        handle.with_current(|snap| {
            assert!(Arc::ptr_eq(snap, &s0));
            // Borrowed from the thread's cache: no count taken.
            assert_eq!(Arc::strong_count(&s0), count);
        });
        advance(&mut st, 0, 2);
        let s1 = Arc::new(st.snapshot());
        handle.with_current(|outer| {
            assert!(Arc::ptr_eq(outer, &s0));
            handle.publish(Arc::clone(&s1));
            // The cache is lent out: a nested call reads the slot.
            handle.with_current(|inner| assert!(Arc::ptr_eq(inner, &s1)));
            assert!(Arc::ptr_eq(&handle.load(), &s1));
        });
        assert!(Arc::ptr_eq(&handle.load(), &s1));
    }

    #[test]
    fn interleaved_handles_do_not_cross_serve() {
        let (mut sta, stb) = (store(), store());
        let a0 = Arc::new(sta.snapshot());
        let b0 = Arc::new(stb.snapshot());
        let ha = SnapshotHandle::new(Arc::clone(&a0));
        let hb = SnapshotHandle::new(Arc::clone(&b0));
        // Alternating loads across handles must never serve the other
        // handle's snapshot even though they share the thread-local entry.
        for _ in 0..3 {
            assert!(Arc::ptr_eq(&ha.load(), &a0));
            assert!(Arc::ptr_eq(&hb.load(), &b0));
        }
        advance(&mut sta, 1, 3);
        let a1 = Arc::new(sta.snapshot());
        ha.publish(Arc::clone(&a1));
        assert!(Arc::ptr_eq(&ha.load(), &a1));
        assert!(Arc::ptr_eq(&hb.load(), &b0));
    }

    #[test]
    fn concurrent_readers_see_monotone_snapshot_ids() {
        let mut st = store();
        let handle = Arc::new(SnapshotHandle::new(Arc::new(st.snapshot())));
        let publishes = 20u64;
        let mut readers = Vec::new();
        for _ in 0..4 {
            let h = Arc::clone(&handle);
            readers.push(std::thread::spawn(move || {
                let mut last = 0u64;
                loop {
                    let snap = h.load();
                    let id = snap.id();
                    assert!(id >= last, "snapshot ids went backwards: {id} < {last}");
                    last = id;
                    if id >= publishes {
                        break;
                    }
                }
            }));
        }
        for i in 0..publishes {
            advance(&mut st, (i % 4) as usize, ((i + 2) % 4) as usize);
            handle.publish(Arc::new(st.snapshot()));
        }
        for r in readers {
            r.join().unwrap();
        }
    }
}
