//! The engine facade: single-writer ingest, many-reader querying.
//!
//! [`CludeEngine`] wires the three subsystems together behind a thread-safe
//! interface (`&self` everywhere, share it in an `Arc`):
//!
//! * edge operations go through a `Mutex`-guarded ingest state (the
//!   [`DeltaIngestor`] plus the [`ShardedFactorStore`]) — one writer at a
//!   time;
//! * cut batches advance the store and publish an immutable
//!   [`EngineSnapshot`] into an `RwLock`-guarded ring of recent snapshots
//!   (bounded time-travel window).  The ring is copy-on-write: consecutive
//!   entries share the `Arc`'d factor blocks of every shard the batch did
//!   not touch (and the frozen coupling when no cross-shard entry changed),
//!   a republished block shares its structure with its predecessor while the
//!   pattern stands, and no snapshot holds a graph — so retaining a deep
//!   ring costs memory in proportion to what the batches changed;
//! * queries borrow the newest snapshot through the wait-free
//!   epoch-published [`SnapshotHandle`] — no lock of any kind on the hot
//!   read path — and solve through the sharded, cached [`QueryService`],
//!   each miss on its reader's own thread, without blocking the writer or
//!   each other.  The ring
//!   `RwLock` is touched only by time-travel queries and stats.

use crate::coupling::SolveTolerance;
use crate::durability::{DurabilityConfig, Persistence};
use crate::epoch::SnapshotHandle;
use crate::error::{EngineError, EngineResult};
use crate::ingest::{DeltaIngestor, EdgeOp, IngestOutcome};
use crate::query::QueryService;
use crate::recovery::{self, RecoveryReport};
use crate::sharded::{check_budget, PartitionStrategy, ShardedAdvanceReport, ShardedFactorStore};
use crate::stats::EngineStats;
use crate::store::{EngineSnapshot, MaintenanceArm};
use crate::sync::Recover;
use clude::partition::edge_locality_partition;
use clude_graph::{btf_partition, DiGraph, GraphDelta, MatrixKind, NodePartition};
use clude_measures::MeasureQuery;
use clude_telemetry::{
    Counter, EngineEvent, Gauge, LogHistogram, ShardCounter, Stage, TelemetryConfig,
    TelemetryRegistry,
};
use std::collections::{HashSet, VecDeque};
use std::sync::{Arc, Mutex, RwLock};

/// Tuning knobs of the engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineConfig {
    /// Matrix composition the factors are maintained for.  Queries whose
    /// [`MeasureQuery::required_matrix_kind`] disagrees are rejected; a kind
    /// outside its domain ([`MatrixKind::validate`]) is an
    /// [`EngineError::InvalidConfig`].
    pub matrix_kind: MatrixKind,
    /// Net edge changes pending when the ingestor cuts a batch; 0 is an
    /// [`EngineError::InvalidConfig`].
    pub max_batch_ops: usize,
    /// The quality-loss budget: a shard block whose factors' quality-loss
    /// (Definition 4) against its last re-order exceeds it re-orders and
    /// re-factorizes with the next batch that touches it, CLUDE's new
    /// cluster.  The default 1.0 re-orders at 100 % degradation — roughly
    /// where the paper's Figure 5 shows INC's single ordering has become
    /// untenable; `f64::INFINITY` never re-orders for quality (INC: nothing
    /// prunes the block's structure, so it only grows).  A negative or NaN
    /// budget is an [`EngineError::InvalidConfig`].
    pub max_quality_loss: f64,
    /// How many recent snapshots stay queryable (time-travel window); must be
    /// at least 1 ([`EngineError::InvalidConfig`] otherwise).  The
    /// ring shares untouched shards' factor blocks between entries and holds
    /// no graph, so a deeper ring costs O(touched shards) — not O(all
    /// shards + all nodes) — memory per retained snapshot.
    pub ring_capacity: usize,
    /// LRU capacity per cache shard; must be at least 1
    /// ([`EngineError::InvalidConfig`] otherwise).
    pub cache_capacity_per_shard: usize,
    /// Number of factor-store shards.  `1` factorizes the whole graph as one
    /// block ([`NodePartition::singleton`], no coupling); `>1` partitions
    /// the node universe by `partition_strategy` so disjoint-shard delta
    /// batches apply in parallel.  Clamped from above to the number of nodes
    /// of the base graph; `0` is an [`EngineError::InvalidConfig`] (no
    /// CPU-count-derived sizing produces it, so it is reported, not
    /// clamped).
    pub n_shards: usize,
    /// The stopping rule of coupled (sharded) queries' iteration over block
    /// Gauss–Seidel passes (one no solve can meet is an
    /// [`EngineError::InvalidConfig`]).
    pub tolerance: SolveTolerance,
    /// How [`CludeEngine::new`] derives a sharded engine's partition, which
    /// then stays fixed for the life of the engine: greedy edge locality, or
    /// BTF (SCC) structure whose cross-shard coupling is block-triangular
    /// (one-sweep Gauss–Seidel).
    pub partition_strategy: PartitionStrategy,
    /// Telemetry behavior: enabled (spans, histograms, journal) or compiled
    /// down to near-no-ops with [`TelemetryConfig::disabled`].
    pub telemetry: TelemetryConfig,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            matrix_kind: MatrixKind::random_walk_default(),
            max_batch_ops: 64,
            max_quality_loss: 1.0,
            ring_capacity: 8,
            cache_capacity_per_shard: 128,
            n_shards: 1,
            tolerance: SolveTolerance::default(),
            partition_strategy: PartitionStrategy::default(),
            telemetry: TelemetryConfig::default(),
        }
    }
}

impl EngineConfig {
    /// Rejects, before anything is built, every value that would otherwise
    /// panic inside a subsystem (possibly on the ingest thread, with the
    /// ingest mutex held) or make every coupled query fail.  `n_shards` is
    /// checked by [`CludeEngine::new`], the only constructor that reads it.
    fn validate(&self) -> EngineResult<()> {
        let invalid = |what: String| Err(EngineError::InvalidConfig(what));
        self.matrix_kind
            .validate()
            .map_err(EngineError::InvalidConfig)?;
        if self.max_batch_ops == 0 {
            return invalid("max_batch_ops must be at least 1".into());
        }
        if self.ring_capacity == 0 {
            return invalid("ring_capacity must retain at least one snapshot".into());
        }
        if self.cache_capacity_per_shard == 0 {
            return invalid("cache_capacity_per_shard must be at least 1".into());
        }
        check_budget(self.max_quality_loss)?;
        self.tolerance
            .validate()
            .map_err(EngineError::InvalidConfig)
    }
}

struct IngestState {
    ingestor: DeltaIngestor,
    store: ShardedFactorStore,
    /// Durability driver; `None` for in-memory engines.  Living inside the
    /// ingest mutex makes the WAL single-writer by construction.
    persistence: Option<Persistence>,
}

impl std::fmt::Debug for IngestState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IngestState")
            .field("ingestor", &self.ingestor)
            .field("store", &self.store)
            .field("durable", &self.persistence.is_some())
            .finish()
    }
}

/// The streaming measure-serving engine.
#[derive(Debug)]
pub struct CludeEngine {
    kind: MatrixKind,
    inner: Mutex<IngestState>,
    ring: RwLock<VecDeque<Arc<EngineSnapshot>>>,
    ring_capacity: usize,
    /// Wait-free published-snapshot cell: the hot read path loads the newest
    /// snapshot here without touching the ring lock.
    handle: SnapshotHandle,
    service: QueryService,
    telemetry: Arc<TelemetryRegistry>,
}

impl CludeEngine {
    /// Builds the engine over a base graph: factorizes it as snapshot 0 and
    /// starts accepting edge operations and queries.
    ///
    /// With `config.n_shards > 1` the node universe is partitioned by
    /// `config.partition_strategy` ([`edge_locality_partition`] by default:
    /// balanced breadth-first regions, so well-connected nodes share a
    /// shard); one shard is the singleton partition.  Use
    /// [`CludeEngine::with_partition`] to bring a custom partition instead.
    pub fn new(base: DiGraph, config: EngineConfig) -> EngineResult<Self> {
        if config.n_shards == 0 {
            return Err(EngineError::InvalidConfig(
                "n_shards must be at least 1".into(),
            ));
        }
        // Before the partition: a BTF partition builds the measure matrix.
        config.validate()?;
        // Callers often size n_shards from the CPU count; a universe smaller
        // than that caps at one node per shard rather than failing.
        let n_shards = config.n_shards.min(base.n_nodes().max(1));
        let partition = if n_shards == 1 {
            NodePartition::singleton(base.n_nodes())
        } else {
            match config.partition_strategy {
                PartitionStrategy::EdgeLocality => edge_locality_partition(&base, n_shards),
                PartitionStrategy::Btf => btf_partition(&base, config.matrix_kind, n_shards).0,
            }
        };
        Self::with_partition(base, config, partition)
    }

    /// Builds an engine over an explicit node partition (the partition's
    /// shard count overrides `config.n_shards`).  The partition must cover
    /// exactly the base graph's node universe
    /// ([`EngineError::InvalidConfig`] otherwise, as for every out-of-range
    /// `config` value).
    pub fn with_partition(
        base: DiGraph,
        config: EngineConfig,
        partition: NodePartition,
    ) -> EngineResult<Self> {
        config.validate()?;
        // Every engine count is kept here, per shard where it belongs.
        let telemetry = TelemetryRegistry::with_shards(config.telemetry, partition.n_shards());
        let telemetry = Arc::new(telemetry);
        let store =
            ShardedFactorStore::new(base, config.matrix_kind, config.max_quality_loss, partition)?
                .with_telemetry(Arc::clone(&telemetry))
                .with_tolerance(config.tolerance)?;
        Self::from_store(store, config, telemetry)
    }

    /// Opens a durable engine over the spool in `durability.dir`.
    ///
    /// With no committed checkpoint the spool is cold: the engine is built
    /// from `base` exactly like [`CludeEngine::new`] and the base image is
    /// made durable (a checkpoint + a fresh WAL segment) *before* any batch
    /// is accepted.  Otherwise the newest loadable checkpoint is restored —
    /// its graph, partition and per-shard orderings, with the factors
    /// re-factorized under those orderings and the coupling re-derived from
    /// the graph — the WAL suffix is replayed through the normal batch path
    /// (the same partition, orderings and quality anchors as the uncrashed
    /// run; the fresh factors equal the live ones to rounding
    /// and the maintenance decision restarts from its prior reach, so the
    /// recovered engine answers within the 1e-9 bar of the uncrashed run
    /// rather than bit for bit), and a fresh checkpoint re-anchors the
    /// spool.  `base` must describe the same node universe and
    /// `config.matrix_kind` the same matrix as the spool; mismatches fail
    /// loudly rather than answering queries from the wrong operator.
    ///
    /// Returns the engine plus a [`RecoveryReport`] describing what was
    /// found and replayed.
    pub fn open_durable(
        base: DiGraph,
        config: EngineConfig,
        durability: DurabilityConfig,
    ) -> EngineResult<(Self, RecoveryReport)> {
        config.validate()?;
        durability
            .vfs
            .create_dir_all(&durability.dir)
            .map_err(|e| crate::wal::io_err("create_dir_all", &durability.dir, e))?;
        let loaded = recovery::load_checkpoint(&*durability.vfs, &durability.dir)?;
        let Some(loaded) = loaded else {
            // Cold start: durably anchor the base image before any writes.
            let engine = Self::new(base, config)?;
            let mut state = engine.inner.lock().recover();
            let durable = state.store.durable_state();
            state.persistence = Some(Persistence::bootstrap(
                &durability,
                Arc::clone(&engine.telemetry),
                &durable,
                0,
            )?);
            drop(state);
            return Ok((engine, RecoveryReport::default()));
        };
        if loaded.image.kind != config.matrix_kind {
            return Err(EngineError::Persistence(format!(
                "checkpoint matrix kind {:?} does not match configured {:?}",
                loaded.image.kind, config.matrix_kind
            )));
        }
        if loaded.image.graph.n_nodes() != base.n_nodes() {
            return Err(EngineError::Persistence(format!(
                "checkpoint node universe ({} nodes) does not match base graph ({} nodes)",
                loaded.image.graph.n_nodes(),
                base.n_nodes()
            )));
        }
        let checkpoint_snapshot = loaded.image.snapshot_id;
        let checkpoint_gen = loaded.gen;
        let max_committed_gen = loaded.max_committed_gen;
        let n_shards = loaded.image.partition.n_shards();
        let telemetry = Arc::new(TelemetryRegistry::with_shards(config.telemetry, n_shards));
        let store =
            ShardedFactorStore::restore(config.max_quality_loss, config.tolerance, loaded.image)?
                .with_telemetry(Arc::clone(&telemetry));
        let replay = recovery::read_wal(&*durability.vfs, &durability.dir, checkpoint_snapshot)?;
        let engine = Self::from_store(store, config, telemetry)?;
        let mut report = RecoveryReport {
            checkpoint_snapshot: Some(checkpoint_snapshot),
            checkpoint_gen: Some(checkpoint_gen),
            wal_records_replayed: 0,
            wal_records_truncated: replay.dropped,
            recovered_snapshot: None,
        };
        {
            let mut state = engine.inner.lock().recover();
            for (id, delta) in replay.records {
                let span = engine.telemetry.span(Stage::RecoveryReplay);
                let applied = engine.apply_batch(&mut state, delta)?;
                span.stop();
                if applied != id {
                    return Err(EngineError::Persistence(format!(
                        "WAL replay produced snapshot {applied} where record {id} was expected"
                    )));
                }
                report.wal_records_replayed += 1;
            }
            if replay.dropped > 0 {
                engine.telemetry.record_event(EngineEvent::WalTruncated {
                    records_dropped: replay.dropped,
                });
            }
            // Re-anchor: a fresh checkpoint above every committed
            // generation, so the next crash replays only new work.
            let durable = state.store.durable_state();
            state.persistence = Some(Persistence::bootstrap(
                &durability,
                Arc::clone(&engine.telemetry),
                &durable,
                max_committed_gen + 1,
            )?);
            report.recovered_snapshot = Some(state.store.snapshot_id());
        }
        Ok((engine, report))
    }

    /// Forces a checkpoint generation now, regardless of the interval.
    /// Returns `false` for in-memory (non-durable) engines.
    pub fn checkpoint_now(&self) -> EngineResult<bool> {
        let mut state = self.inner.lock().recover();
        let state = &mut *state;
        match state.persistence.as_mut() {
            Some(persistence) => {
                let durable = state.store.durable_state();
                persistence.checkpoint_state(&durable)?;
                Ok(true)
            }
            None => Ok(false),
        }
    }

    /// Forces the WAL durability barrier, closing an open group-commit
    /// window early.  Returns `false` for in-memory engines.
    pub fn sync_wal(&self) -> EngineResult<bool> {
        let mut state = self.inner.lock().recover();
        match state.persistence.as_mut() {
            Some(persistence) => {
                persistence.sync_wal()?;
                Ok(true)
            }
            None => Ok(false),
        }
    }

    fn from_store(
        store: ShardedFactorStore,
        config: EngineConfig,
        telemetry: Arc<TelemetryRegistry>,
    ) -> EngineResult<Self> {
        let first = Arc::new(store.snapshot());
        let mut ring = VecDeque::with_capacity(config.ring_capacity);
        ring.push_back(Arc::clone(&first));
        Ok(CludeEngine {
            kind: config.matrix_kind,
            inner: Mutex::new(IngestState {
                ingestor: DeltaIngestor::new(config.max_batch_ops)?
                    .with_telemetry(Arc::clone(&telemetry)),
                store,
                persistence: None,
            }),
            ring: RwLock::new(ring),
            ring_capacity: config.ring_capacity,
            handle: SnapshotHandle::new(first),
            service: QueryService::new(config.cache_capacity_per_shard, Arc::clone(&telemetry))?,
            telemetry,
        })
    }

    /// Number of factor-store shards behind the newest published snapshot
    /// (read from the wait-free handle; never blocks on the ingest lock).
    /// Fixed for the life of the engine: the partition it was built or
    /// restored with.  A BTF partition may hold fewer shards than
    /// `config.n_shards` asked for — `btf_partition` never splits an SCC.
    pub fn n_shards(&self) -> usize {
        self.handle.load().n_shards()
    }

    /// Streams one edge insertion.  Returns the new snapshot id when the
    /// operation completed a batch.
    pub fn insert_edge(&self, from: usize, to: usize) -> EngineResult<Option<u64>> {
        self.offer(EdgeOp::Insert(from, to))
    }

    /// Streams one edge removal.  Returns the new snapshot id when the
    /// operation completed a batch.
    pub fn remove_edge(&self, from: usize, to: usize) -> EngineResult<Option<u64>> {
        self.offer(EdgeOp::Remove(from, to))
    }

    /// Streams one edge operation.
    pub fn offer(&self, op: EdgeOp) -> EngineResult<Option<u64>> {
        let mut state = self.inner.lock().recover();
        let state = &mut *state;
        let outcome = state.ingestor.offer(op, state.store.graph())?;
        // Count only operations the ingestor accepted (rejected ones erred).
        self.telemetry.incr(Counter::OpsIngested);
        match outcome {
            IngestOutcome::Buffered => Ok(None),
            IngestOutcome::Coalesced => {
                self.telemetry.incr(Counter::OpsCoalesced);
                Ok(None)
            }
            // lint: allow(lock-discipline) — the one legal nesting: the
            // ingest Mutex is held while `apply_batch` takes the ring
            // RwLock. Lock order is documented on `CludeEngine`: ingest
            // Mutex first, ring RwLock second, never the reverse.
            IngestOutcome::Flush(delta) => self.apply_batch(state, delta).map(Some),
        }
    }

    /// Forces the pending batch (if any) to be applied now.  Returns the new
    /// snapshot id when something was pending.
    pub fn flush(&self) -> EngineResult<Option<u64>> {
        let mut state = self.inner.lock().recover();
        match state.ingestor.flush() {
            // lint: allow(lock-discipline) — same documented ingest-Mutex →
            // ring-RwLock order as `offer`; no path takes the locks reversed.
            Some(delta) => self.apply_batch(&mut state, delta).map(Some),
            None => Ok(None),
        }
    }

    fn apply_batch(&self, state: &mut IngestState, delta: GraphDelta) -> EngineResult<u64> {
        // Write-ahead invariant: the WAL record for the batch that will
        // become snapshot `k` is appended (and synced per the group-commit
        // window) before any in-memory state advances.  A failed append
        // aborts the batch here, before the store, ring or handle see it, so
        // no published snapshot can ever be ahead of the log.
        if let Some(persistence) = state.persistence.as_mut() {
            persistence.log_batch(state.store.snapshot_id() + 1, &delta)?;
        }
        // The apply stage covers the batch until queries can see it: the
        // store's advance, the snapshot, the ring push and the publish (the
        // WAL append above and the checkpoint write below are stages of
        // their own).
        let apply_span = self.telemetry.span(Stage::IngestApply);
        let report = state.store.advance(&delta)?;
        self.count_batch(&report, state.store.n_shards() as u64);

        let snapshot = Arc::new(state.store.snapshot());
        let (oldest_retained, evicted) = {
            let mut ring = self.ring.write().recover();
            let evicted = push_evicting(&mut ring, Arc::clone(&snapshot), self.ring_capacity);
            (ring.front().expect("ring is never empty").id(), evicted)
        };
        // Publish to the wait-free handle: the hot read path switches to the
        // new snapshot without ever taking the ring lock.  Publishes stay
        // serialized because the ingest mutex is held here; readers touch
        // only the handle's internal slot, so no ordering cycle exists.
        self.handle.publish(Arc::clone(&snapshot));
        // Whatever the evicted snapshots were the last holders of is freed
        // here, with the ring lock released and the new snapshot served: a
        // `query_at` reader never waits for a deallocation.
        drop(evicted);
        apply_span.stop();
        self.service.invalidate_below(oldest_retained);
        // Checkpoint after publication so the generation image matches a
        // snapshot queries can already see.  The (expensive) durable-state
        // capture happens only on the batches that actually checkpoint.
        if let Some(persistence) = state.persistence.as_mut() {
            if persistence.note_applied() {
                let durable = state.store.durable_state();
                persistence.checkpoint_state(&durable)?;
            }
        }
        Ok(report.snapshot_id)
    }

    /// Counts what one applied batch did — the one increment site of every
    /// store event.  The counts that are sums of others (re-order arms) are
    /// derived by [`EngineStats::from_registry`].
    fn count_batch(&self, report: &ShardedAdvanceReport, n_shards: u64) {
        let t = &*self.telemetry;
        t.incr(Counter::BatchesApplied);
        if report.refreshed {
            t.incr(Counter::BatchesReordered);
        }
        for shard in &report.per_shard {
            let s = shard.shard;
            t.add_shard(s, ShardCounter::EntriesApplied, shard.entries_applied);
            t.add_shard(s, ShardCounter::CrossShardEdges, shard.cross_edges_seen);
            t.add(Counter::SlotsAdded, shard.slots_added);
            match shard.arm {
                Some(MaintenanceArm::Refactor) => {
                    t.incr(Counter::RefactorArm);
                    t.add(Counter::FrozenRowsRefactored, shard.rows_refactored);
                    t.add(Counter::FrozenBlockRows, shard.block_order);
                }
                Some(MaintenanceArm::Reorder) => t.add_shard(s, ShardCounter::Reorders, 1),
                None => {}
            }
        }
        // Snapshot-ring sharing: the batch replaced the factor blocks of the
        // shards it touched and shared the rest of the snapshot
        // it is about to publish with the previous ring entry.
        t.add(Counter::CowShardsCloned, report.shards_republished);
        t.add(
            Counter::CowShardsShared,
            n_shards - report.shards_republished,
        );
    }

    /// The id of the newest (currently served) snapshot.
    pub fn current_snapshot_id(&self) -> u64 {
        self.ring
            .read()
            .recover()
            .back()
            .expect("ring is never empty")
            .id()
    }

    /// The ids still retained for time-travel queries (oldest first).
    pub fn retained_snapshot_ids(&self) -> Vec<u64> {
        self.ring.read().recover().iter().map(|s| s.id()).collect()
    }

    /// Net pending edge changes not yet applied to any snapshot.
    pub fn pending_ops(&self) -> usize {
        self.inner.lock().recover().ingestor.pending_ops()
    }

    /// Answers a query against the newest snapshot.
    ///
    /// The newest snapshot is borrowed from the wait-free
    /// [`SnapshotHandle`] — no ring `RwLock`, no reference count, hit or
    /// miss.  A cache hit takes one lock, its result-cache shard's, around
    /// the probe; a miss is solved on the calling thread with no lock held.
    pub fn query(&self, query: &MeasureQuery) -> EngineResult<Arc<Vec<f64>>> {
        self.check_kind(query)?;
        self.handle
            .with_current(|snapshot| self.service.query(snapshot, query))
    }

    /// Answers a query against a retained past snapshot (time travel).
    pub fn query_at(&self, snapshot_id: u64, query: &MeasureQuery) -> EngineResult<Arc<Vec<f64>>> {
        let snapshot = {
            let ring = self.ring.read().recover();
            let oldest = ring.front().expect("ring is never empty").id();
            let newest = ring.back().expect("ring is never empty").id();
            match ring.iter().find(|s| s.id() == snapshot_id) {
                Some(s) => Arc::clone(s),
                None => {
                    return Err(EngineError::UnknownSnapshot {
                        requested: snapshot_id,
                        oldest,
                        newest,
                    })
                }
            }
        };
        self.check_kind(query)?;
        self.service.query(&snapshot, query)
    }

    fn check_kind(&self, query: &MeasureQuery) -> EngineResult<()> {
        if let Some(required) = query.required_matrix_kind() {
            if required != self.kind {
                return Err(EngineError::InvalidQuery(format!(
                    "query needs factors for {required:?}, engine maintains {:?} \
                     (damping must match the engine's matrix composition)",
                    self.kind
                )));
            }
        }
        Ok(())
    }

    /// A point-in-time view of the telemetry registry's counts
    /// ([`EngineStats::from_registry`]), completed with the
    /// snapshot-ring occupancy: ring depth and the approximate resident
    /// factor bytes across the ring, counting every shared factor block,
    /// factor structure, coupling value array and coupling structure — a
    /// coupling's plan and transposed half once a solve has built them —
    /// exactly once (deduplicated by
    /// [`Arc`] identity — this is where the copy-on-write sharing becomes
    /// visible as memory: a block or coupling republished over an unmoved
    /// pattern adds its values, not a second copy of the structure).
    pub fn stats(&self) -> EngineStats {
        let mut stats = EngineStats::from_registry(&self.telemetry);
        let ring = self.ring.read().recover();
        stats.ring_depth = ring.len() as u64;
        let mut seen: HashSet<*const ()> = HashSet::new();
        let mut bytes = 0u64;
        for snapshot in ring.iter() {
            for block in snapshot.shards() {
                if seen.insert(Arc::as_ptr(block).cast()) {
                    bytes += block.owned_bytes() as u64;
                    let structure = block.factors.structure();
                    if seen.insert(Arc::as_ptr(structure).cast()) {
                        bytes += structure.approx_bytes() as u64;
                    }
                }
            }
            // Its plan and transposed half only once a solve built them:
            // counting never builds.
            bytes += snapshot.shared_coupling().resident_bytes(&mut seen) as u64;
        }
        stats.resident_factor_bytes = bytes;
        // How dense the newest snapshot's coupling is.
        let newest = ring.back().expect("ring is never empty");
        stats.coupling_nnz = newest.coupling_nnz() as u64;
        drop(ring);
        // Fold the occupancy numbers back into the telemetry gauges so the
        // exposition and the stats report agree on a sampling instant.
        self.telemetry.set_gauge(Gauge::RingDepth, stats.ring_depth);
        self.telemetry
            .set_gauge(Gauge::ResidentFactorBytes, stats.resident_factor_bytes);
        self.telemetry
            .set_gauge(Gauge::CouplingNnz, stats.coupling_nnz);
        stats
    }

    /// Number of results currently cached.
    pub fn cached_results(&self) -> usize {
        self.service.cached_entries()
    }

    /// An empty histogram that nothing records into.  It exists only for
    /// the `batcher.occupancy_mean` row of `clude_perf`, which reads 0.
    pub fn batch_occupancy(&self) -> &LogHistogram {
        static NEVER_RECORDED: LogHistogram = LogHistogram::new();
        &NEVER_RECORDED
    }

    /// The telemetry registry shared by every engine subsystem — stage
    /// histograms, counters, gauges, and the structured event journal.
    pub fn telemetry(&self) -> &Arc<TelemetryRegistry> {
        &self.telemetry
    }

    /// Renders the telemetry registry in the Prometheus text exposition
    /// format, refreshing the occupancy gauges first.
    pub fn render_prometheus(&self) -> String {
        let _ = self.stats();
        self.telemetry.render_prometheus()
    }

    /// Renders the telemetry registry as a JSON document, refreshing the
    /// occupancy gauges first.
    pub fn telemetry_json(&self) -> String {
        let _ = self.stats();
        self.telemetry.render_json()
    }
}

/// Pushes `newest` onto the snapshot ring and pops the oldest entries past
/// `capacity` (at least 1 by [`EngineConfig::validate`], so the ring never
/// goes empty), returning them oldest first.  The caller holds the ring's
/// write lock around this call and drops the returned handles after
/// releasing it — a snapshot's deallocation is never paid under the lock.
fn push_evicting<T>(ring: &mut VecDeque<T>, newest: T, capacity: usize) -> Vec<T> {
    ring.push_back(newest);
    let excess = ring.len().saturating_sub(capacity);
    ring.drain(..excess).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::dense_answer;
    use clude_lu::LuError;
    use clude_measures::MeasureSolver;
    use std::thread;

    fn ring_graph(n: usize) -> DiGraph {
        let mut g = DiGraph::from_edges(n, (0..n).map(|i| (i, (i + 1) % n)).collect::<Vec<_>>());
        g.add_edge(2, 0);
        g
    }

    fn small_config(batch: usize) -> EngineConfig {
        EngineConfig {
            max_batch_ops: batch,
            ring_capacity: 3,
            ..EngineConfig::default()
        }
    }

    #[test]
    fn batches_advance_snapshots_and_cache_invalidates() {
        let engine = CludeEngine::new(ring_graph(8), small_config(2)).unwrap();
        assert_eq!(engine.current_snapshot_id(), 0);
        let q = MeasureQuery::PageRank { damping: 0.85 };
        let before = engine.query(&q).unwrap();
        assert_eq!(engine.cached_results(), 1);

        assert_eq!(engine.insert_edge(0, 4).unwrap(), None);
        assert_eq!(engine.pending_ops(), 1);
        let id = engine.insert_edge(5, 1).unwrap();
        assert_eq!(id, Some(1));
        assert_eq!(engine.current_snapshot_id(), 1);
        assert_eq!(engine.pending_ops(), 0);

        let after = engine.query(&q).unwrap();
        assert!(before
            .iter()
            .zip(after.iter())
            .any(|(a, b)| (a - b).abs() > 1e-12));
        // Old snapshot still retained: time travel sees the old answer.
        let travelled = engine.query_at(0, &q).unwrap();
        assert_eq!(&*travelled, &*before);
    }

    #[test]
    fn push_evicting_returns_the_oldest_entries_and_never_empties_the_ring() {
        for capacity in [1u32, 3] {
            let mut ring = VecDeque::new();
            for id in 0..6u32 {
                let evicted = push_evicting(&mut ring, id, capacity as usize);
                // Steady state evicts exactly one entry, the oldest.
                let expected: Vec<u32> = id.checked_sub(capacity).into_iter().collect();
                assert_eq!(evicted, expected);
                assert!(!ring.is_empty() && ring.len() <= capacity as usize);
                assert_eq!(ring.back(), Some(&id));
            }
        }
        // A ring over its capacity by several drains them all, oldest first.
        let mut ring: VecDeque<u32> = (0..5).collect();
        assert_eq!(push_evicting(&mut ring, 5, 2), vec![0, 1, 2, 3]);
        assert_eq!(ring, VecDeque::from(vec![4, 5]));
    }

    #[test]
    fn ring_is_bounded_and_old_snapshots_expire() {
        let engine = CludeEngine::new(ring_graph(8), small_config(1)).unwrap();
        for i in 0..5 {
            engine.insert_edge(i, (i + 4) % 8).unwrap();
        }
        assert_eq!(engine.current_snapshot_id(), 5);
        assert_eq!(engine.retained_snapshot_ids(), vec![3, 4, 5]);
        let q = MeasureQuery::PageRank { damping: 0.85 };
        assert!(matches!(
            engine.query_at(0, &q),
            Err(EngineError::UnknownSnapshot {
                requested: 0,
                oldest: 3,
                newest: 5
            })
        ));
        assert!(engine.query_at(4, &q).is_ok());
    }

    #[test]
    fn stats_report_ring_occupancy_and_sharing() {
        let engine = CludeEngine::new(
            ring_graph(12),
            EngineConfig {
                n_shards: 3,
                ..small_config(1)
            },
        )
        .unwrap();
        let before = engine.stats();
        assert_eq!(before.ring_depth, 1);
        assert!(before.resident_factor_bytes > 0);
        assert_eq!(before.cow_shards_cloned + before.cow_shards_shared, 0);
        // Each single-edge batch touches one or two shards; the rest of each
        // snapshot's blocks are shared with the previous ring entry.
        for i in 0..4 {
            engine.insert_edge(i, (i + 5) % 12).unwrap();
        }
        let stats = engine.stats();
        assert_eq!(stats.ring_depth, 3); // capped by ring_capacity
        assert_eq!(
            stats.cow_shards_cloned + stats.cow_shards_shared,
            4 * engine.n_shards() as u64
        );
        assert!(stats.cow_shards_shared > 0, "no snapshot shared any shard");
        assert!(stats.resident_factor_bytes > 0);
        assert!(stats.to_string().contains("cow-clones"));
    }

    #[test]
    fn resident_bytes_count_a_shared_structure_once() {
        // One shard, value-only churn: removing an edge rescales stored
        // positions, re-adding it writes back into the slot the removal left
        // as an explicit zero — so every ring entry holds its own block of
        // values over one shared structure.
        let engine = CludeEngine::new(ring_graph(8), small_config(1)).unwrap();
        for _ in 0..2 {
            engine.remove_edge(2, 0).unwrap();
            engine.insert_edge(2, 0).unwrap();
        }
        let (blocks, structures): (Vec<_>, HashSet<_>) = {
            let ring = engine.ring.read().unwrap();
            assert_eq!(ring.len(), 3);
            ring.iter()
                .map(|snap| {
                    let block = Arc::clone(&snap.shards()[0]);
                    let structure = Arc::as_ptr(block.factors.structure());
                    (block, structure)
                })
                .unzip()
        };
        assert_eq!(
            structures.len(),
            1,
            "value-only publishes share a structure"
        );
        assert!(!Arc::ptr_eq(&blocks[0], &blocks[1]) && !Arc::ptr_eq(&blocks[1], &blocks[2]));
        let structure_bytes = blocks[0].factors.structure().approx_bytes() as u64;
        let owned: u64 = blocks.iter().map(|b| b.owned_bytes() as u64).sum();
        // No coupling at one shard: what is left is the empty frozen coupling
        // (row offsets only), shared by all three entries; a one-shard solve
        // never iterates, so no plan is built or counted.
        let resident = engine.stats().resident_factor_bytes;
        assert!(resident >= owned + structure_bytes);
        assert!(
            resident < owned + 2 * structure_bytes,
            "a shared structure was charged more than once: {resident} B resident, \
             {owned} B of values and orderings, {structure_bytes} B per structure"
        );
    }

    #[test]
    fn stats_count_a_plan_once_a_solve_built_it_and_never_build_one() {
        // Contiguous shards {0..3}, {4..7}, {8..11} of the ring: (0, 7)
        // writes the coupling, (1, 3) only shard 0's block.
        let partition = NodePartition::contiguous(12, 3);
        let engine = CludeEngine::with_partition(ring_graph(12), small_config(1), partition)
            .expect("12 nodes, 3 shards");
        engine.insert_edge(0, 7).unwrap();
        engine.stats();
        engine.insert_edge(1, 3).unwrap();
        let before = engine.stats().resident_factor_bytes;
        let ring: Vec<_> = engine.ring.read().unwrap().iter().cloned().collect();
        assert_eq!(ring.len(), 3);
        assert!(Arc::ptr_eq(
            ring[1].shared_coupling(),
            ring[2].shared_coupling()
        ));
        for snapshot in &ring {
            let coupling = snapshot.shared_coupling();
            assert!(coupling.built_plan().is_none(), "stats() built a plan");
        }
        // The coupled solve plans on the newest coupling, which two ring
        // entries share: its bytes are counted once.
        engine
            .query(&MeasureQuery::PageRank { damping: 0.85 })
            .unwrap();
        let plan = ring[2]
            .shared_coupling()
            .built_plan()
            .expect("a solve plans");
        let after = engine.stats().resident_factor_bytes;
        assert_eq!(after - before, plan.approx_bytes() as u64);
        assert!(ring[0].shared_coupling().built_plan().is_none());
        // Forward solves build no transposed half; the first hitting-time
        // query builds it in the same coupling, counted once with it.
        engine
            .query(&MeasureQuery::Rwr {
                seed: 3,
                damping: 0.85,
            })
            .unwrap();
        let coupling = ring[2].shared_coupling();
        let own = || coupling.resident_bytes(&mut HashSet::new()) as u64;
        let forward_bytes = own();
        assert_eq!(
            engine.stats().resident_factor_bytes,
            after,
            "a forward solve grew the coupling"
        );
        engine
            .query(&MeasureQuery::HittingTime {
                target: 5,
                damping: 0.85,
            })
            .unwrap();
        let transposed = engine.stats().resident_factor_bytes;
        assert!(own() > forward_bytes);
        assert_eq!(transposed - after, own() - forward_bytes);
    }

    #[test]
    fn a_value_only_coupling_batch_adds_one_value_array() {
        // Contiguous shards {0..3}, {4..7}, {8..11} of the ring: node 3's
        // out-links 3 -> 4 and 3 -> 8 both cross, so inserting and removing
        // 3 -> 8 writes the coupling alone — the removal onto slots it has,
        // leaving (8, 3) behind as a zero slot.
        let partition = NodePartition::contiguous(12, 3);
        let engine = CludeEngine::with_partition(ring_graph(12), small_config(1), partition)
            .expect("12 nodes, 3 shards");
        engine.insert_edge(3, 8).unwrap();
        let before = engine.stats().resident_factor_bytes;
        engine.remove_edge(3, 8).unwrap();
        let after = engine.stats().resident_factor_bytes;
        let ring: Vec<_> = engine.ring.read().unwrap().iter().cloned().collect();
        let (was, now) = (&ring[1], &ring[2]);
        for (a, b) in was.shards().iter().zip(now.shards()) {
            assert!(Arc::ptr_eq(a, b));
        }
        let (was, now) = (was.shared_coupling(), now.shared_coupling());
        assert!(!Arc::ptr_eq(was, now));
        assert!(Arc::ptr_eq(was.structure(), now.structure()));
        assert_eq!(now.structure().slots(), now.nnz() + 1);
        let values = now.structure().slots() * std::mem::size_of::<f64>();
        let mut seen = HashSet::new();
        was.resident_bytes(&mut seen);
        assert_eq!(now.resident_bytes(&mut seen), values);
        assert_eq!(
            after - before,
            values as u64,
            "the structure was counted twice"
        );
    }

    /// Dense elimination on the hitting-time system of `graph`: `(I − d·P̃)`
    /// with `P̃` the row-stochastic walk whose target row is zeroed, and
    /// `h = 1` off the target.
    fn dense_hitting_time(graph: &DiGraph, target: usize, damping: f64) -> Vec<f64> {
        let n = graph.n_nodes();
        let a = clude_graph::measure_matrix(graph, MatrixKind::RandomWalk { damping });
        let mut m = a.transpose().to_dense();
        for j in 0..n {
            m.set(target, j, if j == target { 1.0 } else { 0.0 });
        }
        let mut b = vec![1.0; n];
        b[target] = 0.0;
        m.solve_gaussian(&b).unwrap()
    }

    /// Hitting time through the engine's factors — two transposed solves,
    /// coupled or not — against dense elimination and the batch function,
    /// on graphs with dangling nodes and a self-loop at the target, at one
    /// and four shards under both partitioners, at three dampings, at the
    /// newest snapshot and at a past one.
    #[test]
    fn hitting_time_through_the_factors_matches_dense_elimination() {
        let n = 40;
        // Four 10-node blocks, each a ring with a chord; nodes 9, 19, 29 and
        // 39 dangle.  `layered` links block b to block b + 1 only (a DAG of
        // blocks), `cyclic` also links back.
        let base = |cyclic: bool| {
            let mut g = DiGraph::new(n);
            for b in 0..4 {
                for i in 0..9 {
                    g.add_edge(10 * b + i, 10 * b + (i + 1) % 9);
                    g.add_edge(10 * b + i, 10 * b + 9);
                }
                g.add_edge(10 * b + 2, 10 * b + 6);
                if b < 3 {
                    g.add_edge(10 * b + 4, 10 * b + 13);
                }
                if cyclic {
                    g.add_edge(10 * b + 7, (10 * b + 25) % n);
                }
            }
            g
        };
        // Whether the coupled cases took the one exact pass, the iteration,
        // or both.
        let mut shapes = std::collections::BTreeSet::new();
        for cyclic in [false, true] {
            for strategy in [PartitionStrategy::EdgeLocality, PartitionStrategy::Btf] {
                for n_shards in [1, 4] {
                    for damping in [0.5, 0.85, 0.99] {
                        let case = format!(
                            "cyclic {cyclic}, {strategy:?}, {n_shards} shard(s), d = {damping}"
                        );
                        let target = 13;
                        let mut shadow = base(cyclic);
                        shadow.add_edge(target, target);
                        let engine = CludeEngine::new(
                            shadow.clone(),
                            EngineConfig {
                                matrix_kind: MatrixKind::RandomWalk { damping },
                                n_shards,
                                partition_strategy: strategy,
                                ..small_config(2)
                            },
                        )
                        .unwrap();
                        let query = |at: Option<u64>, target: usize| {
                            let q = MeasureQuery::HittingTime { target, damping };
                            match at {
                                Some(id) => engine.query_at(id, &q),
                                None => engine.query(&q),
                            }
                            .unwrap()
                        };
                        let check = |got: &[f64], graph: &DiGraph, target: usize| {
                            let dense = dense_hitting_time(graph, target, damping);
                            let batch =
                                clude_measures::discounted_hitting_time(graph, target, damping)
                                    .unwrap();
                            assert_eq!(got[target], 0.0, "{case}");
                            for ((a, d), h) in got.iter().zip(&dense).zip(&batch) {
                                let scale = d.abs().max(1.0);
                                assert!((a - d).abs() <= 1e-9 * scale, "{case}: {a} vs {d}");
                                assert!((a - h).abs() <= 1e-9 * scale, "{case}: {a} vs {h}");
                            }
                        };
                        check(&query(None, target), &shadow, target);
                        check(&query(None, 9), &shadow, 9);
                        let snapshot = engine.handle.load();
                        if snapshot.coupling_nnz() > 0 {
                            shapes.insert(snapshot.coupling_plan().is_triangular());
                        }
                        // One batch later, the past snapshot still answers
                        // for the graph it was published for.
                        let past = shadow.clone();
                        engine.insert_edge(5, 33).unwrap();
                        engine.remove_edge(target, target).unwrap();
                        shadow.add_edge(5, 33);
                        shadow.remove_edge(target, target);
                        engine.flush().unwrap();
                        assert_eq!(engine.current_snapshot_id(), 1, "{case}");
                        check(&query(Some(0), target), &past, target);
                        check(&query(None, target), &shadow, target);
                    }
                }
            }
        }
        assert_eq!(shapes.into_iter().collect::<Vec<_>>(), [false, true]);
    }

    /// Graphs smaller than the shard count asked for — empty, one node,
    /// three nodes at four shards, with and without edges — build, take a
    /// batch and answer, each step ending in a typed error or an exact
    /// answer: within 1e-9 of dense elimination on the snapshot's measure
    /// matrix.  The trivial plans (one shard, or no coupling) come from the
    /// plan's own short-circuit, under the same lazy cell as a real one.
    #[test]
    fn tiny_graphs_build_ingest_and_answer_exactly_at_any_shard_count() {
        for (n, ring) in [(0, false), (1, false), (3, false), (3, true)] {
            for n_shards in [1, 4] {
                let case = format!("{n} nodes, ring {ring}, {n_shards} shard(s)");
                let edges = if ring {
                    vec![(0, 1), (1, 2), (2, 0)]
                } else {
                    vec![]
                };
                let config = EngineConfig {
                    n_shards,
                    ..small_config(64)
                };
                let mut shadow = DiGraph::from_edges(n, edges);
                let engine = CludeEngine::new(shadow.clone(), config).unwrap();
                let k = n_shards.min(n.max(1));
                assert_eq!(engine.n_shards(), k, "{case}");

                let snapshot = engine.handle.load();
                let coupled = snapshot.coupling_nnz() > 0;
                assert_eq!(coupled, ring && k > 1, "{case}");
                if !coupled {
                    let plan = snapshot.coupling_plan();
                    assert_eq!(plan.gs_order(), (0..k).collect::<Vec<_>>(), "{case}");
                    assert!(plan.is_triangular(), "{case}");
                }

                if n == 3 {
                    engine.insert_edge(0, 2).unwrap();
                    engine.insert_edge(1, 0).unwrap();
                    engine.remove_edge(0, 1).unwrap();
                    assert_eq!(engine.flush().unwrap(), Some(1), "{case}");
                    shadow.add_edge(0, 2);
                    shadow.add_edge(1, 0);
                    shadow.remove_edge(0, 1);
                } else {
                    let err = engine.insert_edge(0, n).unwrap_err();
                    assert!(
                        matches!(err, EngineError::NodeOutOfRange { node, n_nodes }
                            if node == n && n_nodes == n),
                        "{case}: {err:?}"
                    );
                    assert_eq!(engine.flush().unwrap(), None, "{case}");
                }

                let snapshot = engine.handle.load();
                for query in [
                    MeasureQuery::PageRank { damping: 0.85 },
                    MeasureQuery::Rwr {
                        seed: 0,
                        damping: 0.85,
                    },
                    MeasureQuery::PprSeedSet {
                        seeds: vec![0, 2],
                        damping: 0.85,
                    },
                ] {
                    match engine.query(&query) {
                        Ok(x) => {
                            let dense = dense_answer(&shadow, config.matrix_kind, &query);
                            assert_eq!(x.len(), n, "{case}, {query:?}");
                            for (a, d) in x.iter().zip(&dense) {
                                assert!((a - d).abs() <= 1e-9, "{case}, {query:?}: {a} vs {d}");
                            }
                        }
                        // Seeds outside the universe, or PageRank over an
                        // empty one, and nothing else.
                        Err(EngineError::InvalidQuery(why)) => {
                            assert!(n < 3, "{case}, {query:?}: {why}");
                        }
                        Err(other) => panic!("{case}, {query:?}: {other:?}"),
                    }
                }
                // A coupled solve planned in the snapshot's own cell.
                if snapshot.coupling_nnz() > 0 {
                    assert!(snapshot.shared_coupling().built_plan().is_some(), "{case}");
                }
            }
        }
    }

    #[test]
    fn coupling_config_flows_into_snapshots_and_stats() {
        let tolerance = SolveTolerance {
            tol: 1e-12,
            max_sweeps: 5_000,
        };
        let engine = CludeEngine::new(
            ring_graph(12),
            EngineConfig {
                n_shards: 3,
                tolerance,
                ..small_config(1)
            },
        )
        .unwrap();
        // The ring crosses shards, so queries are coupled solves under the
        // configured stopping rule from snapshot 0 on.
        assert_eq!(engine.handle.load().tolerance(), tolerance);
        let stats = engine.stats();
        assert!(stats.coupling_nnz > 0);
        assert_eq!(stats.coupling_sweeps_max, 0, "nothing solved yet");
        let q = MeasureQuery::PageRank { damping: 0.85 };
        let scores = engine.query(&q).unwrap();
        assert!((scores.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        // After a cross-shard insert the published snapshot still carries
        // the tolerance; the Display line shows what the coupled solves cost.
        engine.insert_edge(0, 7).unwrap();
        assert_eq!(engine.handle.load().tolerance(), tolerance);
        engine.query(&q).unwrap();
        let stats = engine.stats();
        assert!(stats.coupling_sweeps_p50 > 1, "a cyclic coupling iterates");
        assert!(stats.coupling_sweeps_max >= stats.coupling_sweeps_p50);
        assert!(stats.coupling_sweeps_max <= 5_000);
        let text = stats.to_string();
        assert!(text.contains("coupling |"));
        assert!(text.contains(&format!("sweeps-p50 {:>4}", stats.coupling_sweeps_p50)));
        assert!(engine
            .render_prometheus()
            .contains("clude_coupling_sweeps_count 2\n"));
    }

    #[test]
    fn zero_shards_is_an_invalid_config() {
        let config = EngineConfig {
            n_shards: 0,
            ..small_config(1)
        };
        let err = CludeEngine::new(ring_graph(8), config).unwrap_err();
        assert!(matches!(err, EngineError::InvalidConfig(_)), "{err}");
    }

    #[test]
    fn zero_ring_capacity_is_an_invalid_config() {
        let config = EngineConfig {
            ring_capacity: 0,
            ..small_config(1)
        };
        let err = CludeEngine::new(ring_graph(8), config).unwrap_err();
        assert!(matches!(err, EngineError::InvalidConfig(_)), "{err}");
    }

    /// Every constructor refuses `config` with a typed error.
    fn assert_invalid_everywhere(config: EngineConfig, needle: &str) {
        let check = |err: EngineError| {
            assert!(matches!(err, EngineError::InvalidConfig(_)), "{err}");
            assert!(err.to_string().contains(needle), "{err}");
        };
        check(CludeEngine::new(ring_graph(8), config).unwrap_err());
        let partition = clude_graph::NodePartition::contiguous(8, 2);
        check(CludeEngine::with_partition(ring_graph(8), config, partition).unwrap_err());
        let durability =
            DurabilityConfig::new("spool").vfs(Arc::new(crate::vfs::FailpointFs::new()));
        check(CludeEngine::open_durable(ring_graph(8), config, durability).unwrap_err());
    }

    /// A damping outside `[0, 1)` or a shift that is not finite and positive
    /// is refused with a typed error by every constructor, at one shard and
    /// at four, before anything builds a measure matrix — a BTF partition
    /// included, which builds one to find its blocks.
    #[test]
    fn an_out_of_domain_matrix_kind_is_an_invalid_config() {
        let walks = [1.0, 1.5, -0.5, f64::NAN, f64::INFINITY]
            .map(|damping| (MatrixKind::RandomWalk { damping }, "damping"));
        let laplacians =
            [0.0, -1.0, f64::NAN].map(|shift| (MatrixKind::SymmetricLaplacian { shift }, "shift"));
        for (matrix_kind, needle) in walks.into_iter().chain(laplacians) {
            for n_shards in [1, 4] {
                let config = EngineConfig {
                    matrix_kind,
                    n_shards,
                    ..small_config(1)
                };
                assert_invalid_everywhere(config, needle);
                let btf = EngineConfig {
                    partition_strategy: PartitionStrategy::Btf,
                    ..config
                };
                let err = CludeEngine::new(ring_graph(8), btf).unwrap_err();
                assert!(matches!(err, EngineError::InvalidConfig(_)), "{err}");
                let partition = NodePartition::contiguous(8, n_shards);
                let err = ShardedFactorStore::new(ring_graph(8), matrix_kind, 1.0, partition)
                    .unwrap_err();
                assert!(matches!(err, EngineError::InvalidConfig(_)), "{err}");
                assert!(err.to_string().contains(needle), "{err}");
            }
        }
    }

    #[test]
    fn a_batch_policy_that_cannot_cut_is_an_invalid_config() {
        assert_invalid_everywhere(small_config(0), "max_batch_ops");
    }

    #[test]
    fn zero_cache_capacity_is_an_invalid_config() {
        let config = EngineConfig {
            cache_capacity_per_shard: 0,
            ..small_config(1)
        };
        assert_invalid_everywhere(config, "cache_capacity_per_shard");
    }

    #[test]
    fn negative_or_nan_quality_budget_is_an_invalid_config() {
        for max_quality_loss in [-0.5, f64::NAN] {
            let config = EngineConfig {
                max_quality_loss,
                ..small_config(1)
            };
            assert_invalid_everywhere(config, "max_quality_loss");
        }
        // Zero and +∞ are legal budgets (always / never refresh on growth).
        for max_quality_loss in [0.0, f64::INFINITY] {
            let config = EngineConfig {
                max_quality_loss,
                ..small_config(1)
            };
            let engine = CludeEngine::new(ring_graph(8), config).unwrap();
            engine.insert_edge(0, 4).unwrap();
        }
    }

    #[test]
    fn unmeetable_solve_tolerance_is_an_invalid_config() {
        for (tol, max_sweeps) in [(f64::NAN, 100), (0.0, 100), (-1e-13, 100), (1e-13, 0)] {
            let config = EngineConfig {
                tolerance: SolveTolerance { tol, max_sweeps },
                ..small_config(1)
            };
            assert_invalid_everywhere(config, "coupling");
        }
    }

    #[test]
    fn partition_over_another_universe_is_an_invalid_config() {
        let partition = clude_graph::NodePartition::contiguous(6, 2);
        let err =
            CludeEngine::with_partition(ring_graph(8), small_config(1), partition).unwrap_err();
        assert!(matches!(err, EngineError::InvalidConfig(_)), "{err}");
        assert!(err.to_string().contains("6 nodes"), "{err}");
    }

    #[test]
    fn flush_applies_partial_batches() {
        let engine = CludeEngine::new(ring_graph(8), small_config(100)).unwrap();
        assert_eq!(engine.flush().unwrap(), None);
        engine.insert_edge(1, 6).unwrap();
        assert_eq!(engine.flush().unwrap(), Some(1));
        assert!(engine.current_snapshot_id() == 1);
        let stats = engine.stats();
        assert_eq!(stats.batches_applied, 1);
        assert_eq!(stats.ops_ingested, 1);
    }

    #[test]
    fn damping_mismatch_is_rejected() {
        let engine = CludeEngine::new(ring_graph(8), small_config(4)).unwrap();
        let wrong = MeasureQuery::Rwr {
            seed: 0,
            damping: 0.5,
        };
        assert!(matches!(
            engine.query(&wrong),
            Err(EngineError::InvalidQuery(_))
        ));
        // Hitting time is answered through the same factors, so its damping
        // must be the engine's too — at the current snapshot and a past one.
        let ht = MeasureQuery::HittingTime {
            target: 0,
            damping: 0.5,
        };
        assert!(matches!(
            engine.query(&ht),
            Err(EngineError::InvalidQuery(_))
        ));
        assert!(matches!(
            engine.query_at(engine.current_snapshot_id(), &ht),
            Err(EngineError::InvalidQuery(_))
        ));
        let ht = MeasureQuery::HittingTime {
            target: 0,
            damping: 0.85,
        };
        assert!(engine.query(&ht).is_ok());
    }

    /// Below the engine, a snapshot refuses a query at another damping
    /// itself: PageRank, RWR and PPR normalize the right-hand side's scale
    /// away, so its factors would silently answer at their own damping.
    #[test]
    fn a_snapshot_refuses_a_query_at_another_damping() {
        for n_shards in [1, 4] {
            let engine = CludeEngine::new(
                ring_graph(8),
                EngineConfig {
                    n_shards,
                    ..small_config(4)
                },
            )
            .unwrap();
            let snapshot = engine.handle.load();
            for query in [
                MeasureQuery::PageRank { damping: 0.5 },
                MeasureQuery::Rwr {
                    seed: 1,
                    damping: 0.5,
                },
                MeasureQuery::HittingTime {
                    target: 1,
                    damping: 0.5,
                },
            ] {
                let refused = |err: LuError| matches!(err, LuError::InvalidParameter { name: "damping", value } if value == 0.5);
                assert!(refused(snapshot.query(&query).unwrap_err()), "{query:?}");
            }
            assert!(snapshot
                .query(&MeasureQuery::PageRank { damping: 0.85 })
                .is_ok());
        }
    }

    #[test]
    fn sharded_engine_matches_monolithic_answers() {
        let base = ring_graph(16);
        let mono = CludeEngine::new(base.clone(), small_config(3)).unwrap();
        let sharded = CludeEngine::new(
            base,
            EngineConfig {
                n_shards: 4,
                ..small_config(3)
            },
        )
        .unwrap();
        assert_eq!(mono.n_shards(), 1);
        assert_eq!(sharded.n_shards(), 4);
        // Same stream into both engines: intra- and cross-shard edges.
        for i in 0..12 {
            let (u, v) = (i, (i * 5 + 2) % 16);
            if u != v {
                mono.insert_edge(u, v).unwrap();
                sharded.insert_edge(u, v).unwrap();
            }
        }
        mono.flush().unwrap();
        sharded.flush().unwrap();
        assert_eq!(mono.current_snapshot_id(), sharded.current_snapshot_id());
        for q in [
            MeasureQuery::PageRank { damping: 0.85 },
            MeasureQuery::Rwr {
                seed: 3,
                damping: 0.85,
            },
            MeasureQuery::PprSeedSet {
                seeds: vec![0, 9],
                damping: 0.85,
            },
        ] {
            let a = mono.query(&q).unwrap();
            let b = sharded.query(&q).unwrap();
            for (x, y) in a.iter().zip(b.iter()) {
                assert!((x - y).abs() <= 1e-9, "{q:?}: {x} vs {y}");
            }
        }
        // Per-shard stats flow through to the engine's counters.
        let stats = sharded.stats();
        assert_eq!(stats.per_shard.len(), 4);
        let applied: u64 = stats.per_shard.iter().map(|s| s.deltas_applied).sum();
        assert!(applied > 0, "no shard recorded applied entries");
        assert!(
            stats.per_shard.iter().any(|s| s.cross_shard_edges > 0),
            "the stream crossed shards"
        );
        assert_eq!(mono.stats().per_shard.len(), 1);
    }

    #[test]
    fn sharded_engine_error_paths_and_time_travel() {
        let engine = CludeEngine::new(
            ring_graph(12),
            EngineConfig {
                n_shards: 3,
                ..small_config(1)
            },
        )
        .unwrap();
        let q = MeasureQuery::PageRank { damping: 0.85 };
        let before = engine.query(&q).unwrap();
        for i in 0..5 {
            engine.insert_edge(i, (i + 5) % 12).unwrap();
        }
        // Ring capacity 3: snapshot 0 has expired.
        assert!(matches!(
            engine.query_at(0, &q),
            Err(EngineError::UnknownSnapshot { requested: 0, .. })
        ));
        // Retained snapshots still answer, and differ from snapshot 0.
        let travelled = engine.query_at(3, &q).unwrap();
        assert!(before
            .iter()
            .zip(travelled.iter())
            .any(|(a, b)| (a - b).abs() > 1e-12));
        assert!(matches!(
            engine.query(&MeasureQuery::Rwr {
                seed: 0,
                damping: 0.5
            }),
            Err(EngineError::InvalidQuery(_))
        ));
        assert!(matches!(
            engine.insert_edge(0, 99),
            Err(EngineError::NodeOutOfRange { node: 99, .. })
        ));
    }

    #[test]
    fn custom_partition_is_respected() {
        let base = ring_graph(8);
        // Interleaved (non-contiguous) partition: evens | odds.
        let assignments = (0..8).map(|u| u % 2).collect::<Vec<_>>();
        let engine = CludeEngine::with_partition(
            base,
            small_config(2),
            clude_graph::NodePartition::from_assignments(assignments),
        )
        .unwrap();
        assert_eq!(engine.n_shards(), 2);
        engine.insert_edge(0, 4).unwrap(); // intra (evens)
        engine.insert_edge(1, 4).unwrap(); // cross (odd -> even)
        engine.flush().unwrap();
        let scores = engine
            .query(&MeasureQuery::PageRank { damping: 0.85 })
            .unwrap();
        assert!((scores.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        let stats = engine.stats();
        assert!(stats.per_shard.iter().any(|s| s.cross_shard_edges > 0));
    }

    #[test]
    fn concurrent_readers_and_writer() {
        concurrent_readers_and_writer_impl(1);
    }

    #[test]
    fn concurrent_readers_and_writer_sharded() {
        concurrent_readers_and_writer_impl(4);
    }

    fn concurrent_readers_and_writer_impl(n_shards: usize) {
        let engine = Arc::new(
            CludeEngine::new(
                ring_graph(16),
                EngineConfig {
                    n_shards,
                    ..small_config(3)
                },
            )
            .unwrap(),
        );
        let writer = {
            let engine = Arc::clone(&engine);
            thread::spawn(move || {
                // 30 distinct edges absent from the base ring (offsets 3/5).
                for i in 0..30 {
                    let (u, off) = if i < 15 { (i, 3) } else { (i - 15, 5) };
                    engine.insert_edge(u, (u + off) % 16).unwrap();
                }
                engine.flush().unwrap();
            })
        };
        let readers: Vec<_> = (0..4)
            .map(|t| {
                let engine = Arc::clone(&engine);
                thread::spawn(move || {
                    for i in 0..50 {
                        let q = MeasureQuery::Rwr {
                            seed: (t * 50 + i) % 16,
                            damping: 0.85,
                        };
                        let scores = engine.query(&q).unwrap();
                        assert!((scores.iter().sum::<f64>() - 1.0).abs() < 1e-6);
                    }
                })
            })
            .collect();
        writer.join().unwrap();
        for r in readers {
            r.join().unwrap();
        }
        let stats = engine.stats();
        assert_eq!(stats.queries, 200);
        assert!(stats.batches_applied >= 10);
    }

    /// The measure queries the hostile-input tests check.
    fn hostile_queries() -> [MeasureQuery; 3] {
        [
            MeasureQuery::PageRank { damping: 0.85 },
            MeasureQuery::Rwr {
                seed: 5,
                damping: 0.85,
            },
            MeasureQuery::PprSeedSet {
                seeds: vec![3, 9],
                damping: 0.85,
            },
        ]
    }

    fn assert_close(got: &[f64], want: &[f64], case: &str) {
        assert_eq!(got.len(), want.len(), "{case}");
        for (a, d) in got.iter().zip(want) {
            assert!((a - d).abs() <= 1e-9, "{case}: {a} vs {d}");
        }
    }

    /// Duplicate, cancelling and self edges: the ingestor drops what changes
    /// nothing — and counts it — and every answer after the batch matches
    /// dense elimination on a shadow graph that took the same operations.
    #[test]
    fn duplicate_and_self_edges_answer_exactly_at_one_and_four_shards() {
        use EdgeOp::{Insert, Remove};
        for n_shards in [1, 4] {
            let config = EngineConfig {
                n_shards,
                ..small_config(8)
            };
            let engine = CludeEngine::new(ring_graph(16), config).unwrap();
            let mut shadow = ring_graph(16);
            // (case, ops, how many of them the ingestor drops)
            let cases = [
                (
                    "insert of a present edge",
                    vec![Insert(0, 1), Insert(4, 12)],
                    1,
                ),
                ("self-loop inserted", vec![Insert(5, 5), Insert(5, 13)], 1),
                ("self-loop removed", vec![Remove(5, 5), Remove(5, 13)], 1),
                (
                    "inserted and removed in one batch",
                    vec![Insert(3, 11), Remove(3, 11), Insert(6, 1)],
                    1,
                ),
                (
                    "the same op twice in one batch",
                    vec![Insert(6, 14), Insert(6, 14), Remove(7, 8), Remove(7, 8)],
                    2,
                ),
            ];
            let mut dropped = 0;
            for (case, ops, drops) in cases {
                let case = format!("{n_shards} shard(s), {case}");
                let before = engine.current_snapshot_id();
                for op in ops {
                    assert_eq!(engine.offer(op).unwrap(), None, "{case}");
                    match op {
                        Insert(u, v) if u != v => shadow.add_edge(u, v),
                        Remove(u, v) => shadow.remove_edge(u, v),
                        _ => false,
                    };
                }
                assert_eq!(engine.flush().unwrap(), Some(before + 1), "{case}");
                dropped += drops;
                assert_eq!(engine.stats().ops_coalesced, dropped, "{case}");
                let state = engine.inner.lock().recover();
                assert!(!state.store.graph().has_edge(5, 5), "{case}");
                drop(state);
                for query in hostile_queries() {
                    let dense = dense_answer(&shadow, config.matrix_kind, &query);
                    assert_close(&engine.query(&query).unwrap(), &dense, &case);
                }
            }
        }
    }

    /// The same hostile batches handed to the store directly, undeduplicated,
    /// over the symmetric Laplacian: the factors solve the graph the store
    /// holds after each batch.
    #[test]
    fn hostile_deltas_solve_the_symmetric_laplacian_exactly() {
        let kind = MatrixKind::SymmetricLaplacian { shift: 1.0 };
        let both = |edges: &[(usize, usize)]| -> Vec<(usize, usize)> {
            edges.iter().flat_map(|&(u, v)| [(u, v), (v, u)]).collect()
        };
        let delta = |added: &[(usize, usize)], removed: &[(usize, usize)]| GraphDelta {
            added: both(added),
            removed: both(removed),
        };
        for n_shards in [1, 4] {
            let mut graph = DiGraph::new(16);
            for u in 0..16 {
                graph.add_undirected_edge(u, (u + 1) % 16);
            }
            let partition = if n_shards == 1 {
                NodePartition::singleton(16)
            } else {
                NodePartition::contiguous(16, n_shards)
            };
            let mut store = ShardedFactorStore::new(graph, kind, 1.0, partition).unwrap();
            let cases = [
                ("insert of a present edge", delta(&[(0, 1), (4, 12)], &[])),
                ("self-loop inserted", delta(&[(5, 5), (5, 13)], &[])),
                ("self-loop removed", delta(&[], &[(5, 5), (5, 13)])),
                (
                    "inserted and removed in one batch",
                    delta(&[(3, 11), (6, 1)], &[(3, 11)]),
                ),
                (
                    "the same op twice in one batch",
                    delta(&[(6, 14), (6, 14)], &[(7, 8), (7, 8)]),
                ),
            ];
            let b: Vec<f64> = (0..16).map(|i| i as f64 - 7.5).collect();
            for (case, delta) in cases {
                let case = format!("{n_shards} shard(s), {case}");
                store.advance(&delta).unwrap();
                let want = clude_graph::measure_matrix(store.graph(), kind)
                    .to_dense()
                    .solve_gaussian(&b)
                    .unwrap();
                let got = store.snapshot().solve_measure_system(&b).unwrap();
                assert_close(&got, &want, &case);
            }
        }
    }

    /// Readers alternate time travel to the oldest retained snapshot with
    /// queries of the newest while the writer evicts: every call answers its
    /// snapshot's graph exactly or reports it gone, the service counts
    /// exactly the calls that reached it, and no result of an evicted
    /// snapshot stays cached.
    #[test]
    fn queries_racing_ring_eviction_answer_exactly_or_report_the_snapshot_gone() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Barrier;
        for n_shards in [1, 4] {
            let config = EngineConfig {
                n_shards,
                ring_capacity: 2,
                ..small_config(1)
            };
            // Edges absent from the base ring, inserted and removed again in
            // rounds, one snapshot per operation; the graph of every
            // snapshot id, and its dense answers, up front.
            let edges: Vec<(usize, usize)> = (0..16)
                .map(|u| (u, (u + 3) % 16))
                .chain((0..8).map(|u| (u, (u + 6) % 16)))
                .collect();
            let ops: Vec<EdgeOp> = (0..3)
                .flat_map(|_| {
                    let inserts = edges.iter().map(|&(u, v)| EdgeOp::Insert(u, v));
                    inserts.chain(edges.iter().map(|&(u, v)| EdgeOp::Remove(u, v)))
                })
                .collect();
            let mut graph = ring_graph(16);
            let mut dense = Vec::new();
            for id in 0..=ops.len() {
                match id.checked_sub(1).map(|i| ops[i]) {
                    Some(EdgeOp::Insert(u, v)) => assert!(graph.add_edge(u, v)),
                    Some(EdgeOp::Remove(u, v)) => assert!(graph.remove_edge(u, v)),
                    None => {}
                }
                let answers =
                    hostile_queries().map(|q| dense_answer(&graph, config.matrix_kind, &q));
                dense.push(answers);
            }
            let n_ops = ops.len() as u64;
            let dense = Arc::new(dense);
            let engine = Arc::new(CludeEngine::new(ring_graph(16), config).unwrap());
            let start = Arc::new(Barrier::new(4));
            let done = Arc::new(AtomicBool::new(false));
            let writer = {
                let (engine, start, done) =
                    (Arc::clone(&engine), Arc::clone(&start), Arc::clone(&done));
                thread::spawn(move || {
                    start.wait();
                    for op in ops {
                        assert!(engine.offer(op).unwrap().is_some());
                    }
                    done.store(true, Ordering::Release);
                })
            };
            let readers: Vec<_> = (0..3)
                .map(|t| {
                    let (engine, dense) = (Arc::clone(&engine), Arc::clone(&dense));
                    let (start, done) = (Arc::clone(&start), Arc::clone(&done));
                    thread::spawn(move || {
                        start.wait();
                        let mut served = 0u64;
                        let mut i = 0;
                        while !done.load(Ordering::Acquire) || i < 60 {
                            let k = (t + i) % 3;
                            let query = &hostile_queries()[k];
                            if i % 2 == 1 {
                                // Per thread, served snapshot ids never go
                                // back: the call's is one of those around it.
                                let before = engine.handle.load().id();
                                let x = engine.query(query).unwrap();
                                let after = engine.handle.load().id();
                                let exact = (before..=after).any(|id| {
                                    let want = &dense[id as usize][k];
                                    x.len() == want.len()
                                        && x.iter().zip(want).all(|(a, d)| (a - d).abs() <= 1e-9)
                                });
                                assert!(exact, "{n_shards} shard(s), snapshots {before}..={after}");
                                served += 1;
                            } else {
                                let id = engine.retained_snapshot_ids()[0];
                                // Widens the window in which the writer evicts it.
                                thread::yield_now();
                                match engine.query_at(id, query) {
                                    Ok(x) => {
                                        let case = format!("{n_shards} shard(s), snapshot {id}");
                                        assert_close(&x, &dense[id as usize][k], &case);
                                        served += 1;
                                    }
                                    Err(EngineError::UnknownSnapshot { requested, .. }) => {
                                        assert_eq!(requested, id);
                                    }
                                    Err(other) => panic!("snapshot {id}: {other:?}"),
                                }
                            }
                            i += 1;
                        }
                        served
                    })
                })
                .collect();
            writer.join().unwrap();
            let served: u64 = readers.into_iter().map(|r| r.join().unwrap()).sum();
            assert_eq!(engine.current_snapshot_id(), n_ops);
            assert_eq!(engine.stats().queries, served, "{n_shards} shard(s)");
            let oldest = engine.retained_snapshot_ids()[0];
            let cached = engine.service.cached_snapshot_ids();
            assert!(
                cached.iter().all(|&id| id >= oldest),
                "{cached:?} below {oldest}"
            );
        }
    }
}
