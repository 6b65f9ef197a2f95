//! The bounded structured event journal.
//!
//! Rare, high-information engine events — quality-triggered refreshes, convergence failures, cache evictions — used to be silent:
//! folded into an aggregate counter at best, dropped at worst. The journal
//! keeps the last `capacity` of them as typed values in a fixed-size ring,
//! with a global sequence number so an operator can tell how much history
//! was shed. Events fire a handful of times per replay, so
//! a mutex (not atomics) guards the ring; per-kind counts are additionally
//! kept in relaxed atomics for the Prometheus exposition.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Mutex;

/// Why a shard abandoned its ordering for a fresh one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RefreshReason {
    /// The factors' quality loss against the last re-order was over the
    /// budget when a batch arrived.
    QualityLoss,
    /// A pivot of the numeric pass degraded beyond the refactor tolerance,
    /// or went singular — the held pivot order is no longer numerically
    /// trustworthy.
    Pivot,
    /// The numeric pass met an entry outside the structure it ran over (a
    /// layout error: the extension covers every entry of a slice).
    Structure,
}

impl RefreshReason {
    /// The snake_case label used in exposition.
    pub const fn name(self) -> &'static str {
        match self {
            RefreshReason::QualityLoss => "quality_loss",
            RefreshReason::Pivot => "pivot",
            RefreshReason::Structure => "structure",
        }
    }
}

/// A structured engine event worth keeping verbatim.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EngineEvent {
    /// A shard abandoned its ordering and re-ordered and refactorized from
    /// scratch — one event per re-order, whatever forced it.
    RefreshTriggered {
        /// Which shard refreshed (0 in a one-shard store).
        shard: u32,
        /// What forced the re-order: the quality budget, or a numeric pass
        /// abandoned under the held ordering.
        reason: RefreshReason,
        /// The quality loss of the factors the re-order replaced.
        quality_loss: f64,
    },
    /// An iterative coupling solve exhausted its block-pass budget, or met a
    /// non-finite value.
    ConvergenceFailure {
        /// Block passes performed before giving up.
        sweeps: u64,
        /// The last iterate change when the solve was abandoned (the
        /// non-finite value itself when that is what ended it).
        residual: f64,
    },
    /// The query LRU evicted an entry to make room.
    CacheEvicted {
        /// Snapshot id of the evicted entry.
        snapshot: u64,
    },
    /// A ring rollover bulk-invalidated every cached result older than the
    /// retention horizon (the eviction analogue for whole snapshots).
    CacheInvalidated {
        /// Oldest snapshot id still retained after the invalidation.
        oldest_retained: u64,
        /// Number of cache entries dropped by this invalidation.
        dropped: u64,
    },
    /// The durability layer wrote a checkpoint generation and committed it
    /// in the manifest.
    CheckpointWritten {
        /// Bytes of the generation file (the manifest record is not
        /// counted).
        bytes: u64,
    },
    /// Recovery found a torn or corrupt WAL tail and truncated it (the
    /// dropped records were never durable — the batches they logged never
    /// acknowledged as applied snapshots to a synced reader).
    WalTruncated {
        /// Records dropped with the torn tail.
        records_dropped: u64,
    },
}

/// The event's kind, used for per-kind counts and exposition labels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// [`EngineEvent::RefreshTriggered`]
    RefreshTriggered,
    /// [`EngineEvent::ConvergenceFailure`]
    ConvergenceFailure,
    /// [`EngineEvent::CacheEvicted`]
    CacheEvicted,
    /// [`EngineEvent::CacheInvalidated`]
    CacheInvalidated,
    /// [`EngineEvent::CheckpointWritten`]
    CheckpointWritten,
    /// [`EngineEvent::WalTruncated`]
    WalTruncated,
}

impl EventKind {
    /// Every kind, in exposition order.
    pub const ALL: [EventKind; 6] = [
        EventKind::RefreshTriggered,
        EventKind::ConvergenceFailure,
        EventKind::CacheEvicted,
        EventKind::CacheInvalidated,
        EventKind::CheckpointWritten,
        EventKind::WalTruncated,
    ];

    /// The snake_case label used in exposition.
    pub const fn name(self) -> &'static str {
        match self {
            EventKind::RefreshTriggered => "refresh_triggered",
            EventKind::ConvergenceFailure => "convergence_failure",
            EventKind::CacheEvicted => "cache_evicted",
            EventKind::CacheInvalidated => "cache_invalidated",
            EventKind::CheckpointWritten => "checkpoint_written",
            EventKind::WalTruncated => "wal_truncated",
        }
    }
}

impl EngineEvent {
    /// This event's [`EventKind`].
    pub const fn kind(&self) -> EventKind {
        match self {
            EngineEvent::RefreshTriggered { .. } => EventKind::RefreshTriggered,
            EngineEvent::ConvergenceFailure { .. } => EventKind::ConvergenceFailure,
            EngineEvent::CacheEvicted { .. } => EventKind::CacheEvicted,
            EngineEvent::CacheInvalidated { .. } => EventKind::CacheInvalidated,
            EngineEvent::CheckpointWritten { .. } => EventKind::CheckpointWritten,
            EngineEvent::WalTruncated { .. } => EventKind::WalTruncated,
        }
    }
}

/// One retained journal entry: the event plus its global sequence number
/// (0-based; `seq` increments for every recorded event, including ones the
/// ring has since shed).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JournalEntry {
    /// Global 0-based sequence number of the event.
    pub seq: u64,
    /// The event payload.
    pub event: EngineEvent,
}

/// A fixed-capacity ring of [`JournalEntry`]s plus per-kind counts.
#[derive(Debug)]
pub struct EventJournal {
    ring: Mutex<VecDeque<JournalEntry>>,
    capacity: usize,
    recorded: AtomicU64,
    by_kind: [AtomicU64; EventKind::ALL.len()],
}

impl EventJournal {
    /// An empty journal retaining the last `capacity` events (`capacity`
    /// 0 keeps counts only).
    pub fn new(capacity: usize) -> Self {
        EventJournal {
            ring: Mutex::new(VecDeque::with_capacity(capacity)),
            capacity,
            recorded: AtomicU64::new(0),
            by_kind: [const { AtomicU64::new(0) }; EventKind::ALL.len()],
        }
    }

    /// Appends an event, shedding the oldest entry when full.
    pub fn record(&self, event: EngineEvent) {
        // lint: allow(atomic-ordering) — sequence/per-kind tallies are
        // observability counters; the ring itself is mutex-guarded.
        let seq = self.recorded.fetch_add(1, Relaxed);
        // lint: allow(atomic-ordering) — per-kind tally for the Prometheus
        // exposition only; consistency with the ring is not promised.
        self.by_kind[event.kind() as usize].fetch_add(1, Relaxed);
        if self.capacity == 0 {
            return;
        }
        let mut ring = self.ring.lock().expect("journal lock poisoned");
        if ring.len() == self.capacity {
            ring.pop_front();
        }
        ring.push_back(JournalEntry { seq, event });
    }

    /// The retained entries, oldest first.
    pub fn entries(&self) -> Vec<JournalEntry> {
        self.ring
            .lock()
            .expect("journal lock poisoned")
            .iter()
            .copied()
            .collect()
    }

    /// Total events ever recorded (retained or shed).
    pub fn recorded(&self) -> u64 {
        // lint: allow(atomic-ordering) — monotonic tally read for stats
        // exposition; no ordering with the mutex-guarded ring is needed.
        self.recorded.load(Relaxed)
    }

    /// Events shed from the ring because it was full.
    pub fn dropped(&self) -> u64 {
        let retained = self.ring.lock().expect("journal lock poisoned").len() as u64;
        self.recorded() - retained
    }

    /// Total events of one kind ever recorded.
    pub fn count_of(&self, kind: EventKind) -> u64 {
        // lint: allow(atomic-ordering) — monotonic tally read for stats
        // exposition; no ordering with the mutex-guarded ring is needed.
        self.by_kind[kind as usize].load(Relaxed)
    }

    /// Maximum entries the ring retains.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_keeps_the_newest_entries() {
        let j = EventJournal::new(3);
        for snapshot in 0..5u64 {
            j.record(EngineEvent::CacheEvicted { snapshot });
        }
        let entries = j.entries();
        assert_eq!(entries.len(), 3);
        assert_eq!(entries[0].seq, 2);
        assert_eq!(entries[2].seq, 4);
        assert_eq!(j.recorded(), 5);
        assert_eq!(j.dropped(), 2);
        assert_eq!(j.count_of(EventKind::CacheEvicted), 5);
        assert_eq!(j.count_of(EventKind::RefreshTriggered), 0);
    }

    #[test]
    fn zero_capacity_counts_without_retaining() {
        let j = EventJournal::new(0);
        j.record(EngineEvent::ConvergenceFailure {
            sweeps: 100_000,
            residual: 3e-9,
        });
        assert!(j.entries().is_empty());
        assert_eq!(j.recorded(), 1);
        assert_eq!(j.count_of(EventKind::ConvergenceFailure), 1);
    }

    #[test]
    fn kinds_have_unique_names() {
        let names: std::collections::BTreeSet<_> =
            EventKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(names.len(), EventKind::ALL.len());
    }
}
