//! The static registry of instrumented engine stages.

/// An instrumented stage of the engine's pipeline.
///
/// Each stage owns one duration histogram in the
/// [`TelemetryRegistry`](crate::TelemetryRegistry). The set is static: a
/// stage is an enum variant, not a string, so recording a span is an array
/// index instead of a hash lookup, and the exposition can enumerate every
/// series without bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Coalescing one edge operation into the pending batch
    /// (`DeltaIngestor::offer`).
    IngestMerge,
    /// Applying one cut batch to the factor store (`advance`), end to end.
    IngestApply,
    /// Turning one batch into the changed matrix entries and routing each
    /// to its shard's slice or the coupling's writes.
    ShardRoute,
    /// A full re-ordering + refactorization of one shard (quality trip or
    /// numeric failure).
    ShardRefresh,
    /// A coupled solve: the whole Krylov iteration over the block
    /// Gauss–Seidel pass, all passes.
    CouplingGaussSeidel,
    /// Extending a shard's factor block to cover a slice's new entries — the
    /// copy the numeric pass runs on, which becomes the next published block
    /// (`ShardedFactorStore::stage`) — or merging a batch's writes into the
    /// frozen coupling.
    SnapshotFreeze,
    /// A cache-missing measure query solved against a snapshot.
    QuerySolve,
    /// A measure query answered from the LRU cache.
    QueryCacheHit,
    /// Appending (and group-committing) one delta batch's record to the
    /// write-ahead log, before the batch reaches the factor store.
    WalAppend,
    /// Writing one checkpoint: the generation file holding the graph, the
    /// partition and each shard's ordering, the WAL rotation, and the
    /// manifest record committing it.
    CheckpointWrite,
    /// Replaying one logged delta batch through the factor store during
    /// recovery (newest valid checkpoint + WAL replay).
    RecoveryReplay,
    /// One numeric refactorization of a shard's slice under its held
    /// ordering: the slice written into the held matrix, then its changed
    /// rows' elimination reach recomputed down the block's structure (the
    /// KLU `refactor` idea), on a copy of the block.
    ShardRefactor,
}

impl Stage {
    /// Every stage, in exposition order.
    pub const ALL: [Stage; 12] = [
        Stage::IngestMerge,
        Stage::IngestApply,
        Stage::ShardRoute,
        Stage::ShardRefresh,
        Stage::CouplingGaussSeidel,
        Stage::SnapshotFreeze,
        Stage::QuerySolve,
        Stage::QueryCacheHit,
        Stage::WalAppend,
        Stage::CheckpointWrite,
        Stage::RecoveryReplay,
        Stage::ShardRefactor,
    ];

    /// Number of stages (size of the per-stage histogram array).
    pub const COUNT: usize = Self::ALL.len();

    /// The stage's dense index into per-stage arrays.
    #[inline]
    pub const fn index(self) -> usize {
        self as usize
    }

    /// The dotted human-readable stage name (`"shard.refactor"`).
    pub const fn name(self) -> &'static str {
        match self {
            Stage::IngestMerge => "ingest.merge",
            Stage::IngestApply => "ingest.apply",
            Stage::ShardRoute => "shard.route",
            Stage::ShardRefresh => "shard.refresh",
            Stage::CouplingGaussSeidel => "coupling.gauss_seidel",
            Stage::SnapshotFreeze => "snapshot.freeze",
            Stage::QuerySolve => "query.solve",
            Stage::QueryCacheHit => "query.cache_hit",
            Stage::WalAppend => "wal.append",
            Stage::CheckpointWrite => "checkpoint.write",
            Stage::RecoveryReplay => "recovery.replay",
            Stage::ShardRefactor => "shard.refactor",
        }
    }

    /// The Prometheus metric family base name (`"clude_shard_refactor"`).
    pub const fn metric(self) -> &'static str {
        match self {
            Stage::IngestMerge => "clude_ingest_merge",
            Stage::IngestApply => "clude_ingest_apply",
            Stage::ShardRoute => "clude_shard_route",
            Stage::ShardRefresh => "clude_shard_refresh",
            Stage::CouplingGaussSeidel => "clude_coupling_gauss_seidel",
            Stage::SnapshotFreeze => "clude_snapshot_freeze",
            Stage::QuerySolve => "clude_query_solve",
            Stage::QueryCacheHit => "clude_query_cache_hit",
            Stage::WalAppend => "clude_wal_append",
            Stage::CheckpointWrite => "clude_checkpoint_write",
            Stage::RecoveryReplay => "clude_recovery_replay",
            Stage::ShardRefactor => "clude_shard_refactor",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_are_dense_and_match_all_order() {
        for (i, stage) in Stage::ALL.iter().enumerate() {
            assert_eq!(stage.index(), i);
        }
        assert_eq!(Stage::COUNT, Stage::ALL.len());
    }

    #[test]
    fn names_and_metrics_are_unique() {
        let names: std::collections::BTreeSet<_> = Stage::ALL.iter().map(|s| s.name()).collect();
        let metrics: std::collections::BTreeSet<_> =
            Stage::ALL.iter().map(|s| s.metric()).collect();
        assert_eq!(names.len(), Stage::COUNT);
        assert_eq!(metrics.len(), Stage::COUNT);
        for s in Stage::ALL {
            assert!(s.metric().starts_with("clude_"));
            assert!(s.name().contains('.'));
        }
    }
}
