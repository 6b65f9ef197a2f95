//! The engine's one lock-poison policy.
//!
//! Every lock the engine takes — the ingest state, the snapshot ring, the
//! epoch slot of [`crate::SnapshotHandle`], the result-cache shards,
//! [`crate::FailpointFs`] — is acquired through
//! [`Recover::recover`], so the question "is a poisoned lock recoverable?"
//! has one answer, given here.

use std::sync::{LockResult, PoisonError};

/// Takes the guard out of a lock acquisition, poisoned or not.
///
/// **A poisoned lock is recoverable.**  Poisoning says that a thread
/// panicked while it held the guard; what that leaves behind depends on the
/// critical section, and the engine's sections leave nothing a later holder
/// cannot use:
///
/// * the snapshot ring, the epoch slot and the cache shards are held for a
///   few container operations, and no solve runs under their locks: nothing
///   there can unwind but an allocation, and a failed allocation aborts the
///   process instead;
/// * the ingest state can be left mid-batch by a panic inside a store
///   advance (a shard worker's panic is re-raised on the coordinator, which
///   holds the lock) — exactly the state an advance that returns an error
///   leaves, which the engine already hands back to its caller without
///   closing the engine.  Every snapshot published before it stays whole:
///   queries never read the ingest state.
///
/// Propagating the poison instead would turn one panic into a panic in
/// every later caller — every query, every stats read — which is the outcome
/// the panic-surface lint exists to rule out.
pub(crate) trait Recover<G> {
    /// The guard, whether or not an earlier holder panicked.
    fn recover(self) -> G;
}

impl<G> Recover<G> for LockResult<G> {
    #[inline]
    fn recover(self) -> G {
        self.unwrap_or_else(PoisonError::into_inner)
    }
}
