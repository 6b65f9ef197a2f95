//! # clude-engine
//!
//! A streaming measure-serving engine over incrementally maintained LU
//! factors — the online counterpart of the batch LUDEM solvers.
//!
//! The paper's thesis is that once a snapshot's measure matrix `A = I − d·W`
//! is LU-decomposed, every proximity measure (PageRank, RWR, multi-seed PPR,
//! discounted hitting time) costs one pair of triangular substitutions.  The
//! batch crates decompose a *pre-built* sequence; this crate keeps factors
//! for the *live* snapshot as edge deltas stream in, and serves measure
//! queries against them concurrently:
//!
//! ```text
//!   edge ops                  delta batches                  queries
//!  ───────────►  DeltaIngestor ───────────►  factor store ◄───────────
//!  insert/remove  coalesce adds/removes,    ShardedFactorStore (k ≥ 1 shards;
//!                 cut batch at max_ops      k = 1 is the whole graph, no
//!                        │                  coupling): entries routed by
//!                        │                  NodePartition, per-shard
//!                        │                  extend + reach passes run
//!                        │                  shard by shard, cross-shard entries
//!                        │                  go to the coupling store; per-shard
//!                        │                  refresh when quality-loss > budget
//!                        │                           │ publishes
//!                        ▼                           ▼
//!                 snapshot counter          ring of EngineSnapshots
//!                                           (copy-on-write: per-shard Arc'd
//!                                           factor blocks + frozen coupling,
//!                                           untouched shards shared with the
//!                                           previous entry; bounded time
//!                                           travel)
//!                                                    │
//!                                                    ▼
//!                                             QueryService
//!                                     sharded Mutex LRU cache keyed by
//!                                     (snapshot, query); solves combine the
//!                                     shard blocks exactly by GMRES over
//!                                     the block Gauss–Seidel pass on the
//!                                     frozen coupling, outside any lock
//! ```
//!
//! * [`ingest::DeltaIngestor`] coalesces single edge operations into
//!   [`clude_graph::GraphDelta`] batches, cut by count
//!   ([`EngineConfig::max_batch_ops`]).
//! * [`sharded::ShardedFactorStore`] is the one factor store, for every
//!   shard count: it partitions the node universe
//!   (`clude_graph::NodePartition`; one shard is the whole graph) into
//!   per-shard factor blocks plus a cross-shard coupling store, maintains
//!   each block by CLUDE's member step, the [`clude_lu::Maintainer`] step
//!   batch CLUDE takes too — its structure extended to cover the batch's new
//!   entries, then a pass over the changed rows' elimination reach — or by a
//!   re-order once the block's quality-loss passes one budget,
//!   [`EngineConfig::max_quality_loss`] (infinite: INC's one ordering
//!   forever) ([`store::MaintenanceArm`]), one shard after another on the
//!   thread that applies the batch, and lets queries recombine the blocks
//!   exactly.
//! * [`store::EngineSnapshot`] is the immutable unit the ring retains: the
//!   per-shard factor blocks and the frozen coupling are shared [`Arc`]
//!   handles (see [`store::EngineSnapshot::shards`]), re-frozen by an advance
//!   for exactly the shards the batch touched — so a long time-travel window
//!   costs O(touched shards) factor memory per snapshot, not O(all shards);
//!   it holds no graph — hitting time, too, is answered through the factors.
//! * [`coupling`] is the one solver of coupled (sharded) queries:
//!   restarted GMRES preconditioned by the block Gauss–Seidel pass in a
//!   dependency-derived shard order ([`coupling::CouplingPlan`], built by
//!   the first coupled solve over each [`coupling::FrozenCoupling`]; one
//!   pass is exact on block-triangular coupling), over vectors laid out in
//!   the shards' factored order (the [`coupling::CouplingStructure`]
//!   value-only batches share), every answer accepted by
//!   a real pass under a configurable [`coupling::SolveTolerance`].
//! * [`query::QueryService`] answers typed
//!   [`clude_measures::MeasureQuery`]s against immutable snapshots with a
//!   sharded LRU result cache; coupled sharded solves substitute in place
//!   on their laid-out vectors, allocation-free per block pass.
//! * [`stats`] is [`EngineStats`], a view over the one place the engine
//!   counts: its [`clude_telemetry::TelemetryRegistry`], whose counters
//!   record whether or not telemetry is enabled (only the stage busy times
//!   read zero while it is off).  It prints in the style of
//!   `clude::report::TimingBreakdown`, including the snapshot ring's sharing
//!   behaviour (depth, clone/share counts, resident factor bytes).
//!
//! [`Arc`]: std::sync::Arc
//!
//! The facade tying it together is [`CludeEngine`]:
//!
//! ```
//! use clude_engine::{CludeEngine, EngineConfig};
//! use clude_graph::DiGraph;
//! use clude_measures::MeasureQuery;
//!
//! let base = DiGraph::from_edges(4, vec![(0, 1), (1, 2), (2, 3), (3, 0)]);
//! let engine = CludeEngine::new(base, EngineConfig::default()).unwrap();
//! engine.insert_edge(0, 2).unwrap();
//! engine.flush().unwrap(); // cut the pending batch -> snapshot 1
//! let scores = engine
//!     .query(&MeasureQuery::Rwr { seed: 0, damping: 0.85 })
//!     .unwrap();
//! assert_eq!(scores.len(), 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
mod checkpoint;
pub mod coupling;
pub mod durability;
pub mod engine;
pub mod epoch;
pub mod error;
pub mod ingest;
pub mod query;
pub mod recovery;
pub mod sharded;
pub mod stats;
pub mod store;
mod sync;
pub mod vfs;
mod wal;

pub use coupling::{CouplingPlan, FrozenCoupling, SolveTolerance};
pub use durability::DurabilityConfig;
pub use engine::{CludeEngine, EngineConfig};
pub use epoch::SnapshotHandle;
pub use error::{EngineError, EngineResult};
pub use ingest::{DeltaIngestor, EdgeOp, IngestOutcome};
pub use query::QueryService;
pub use recovery::RecoveryReport;
pub use sharded::{PartitionStrategy, ShardAdvance, ShardedAdvanceReport, ShardedFactorStore};
pub use stats::{EngineStats, ShardStats};
pub use store::{EngineSnapshot, MaintenanceArm};
pub use vfs::{FailpointFs, Injection, StdFs, Vfs, VfsFile};
