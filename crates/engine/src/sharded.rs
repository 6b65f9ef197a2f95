//! The factor store: per-shard LU factors with a cross-shard coupling term
//! and per-shard delta application.
//!
//! The [`ShardedFactorStore`] is the single-writer heart of the engine, for
//! every shard count: a whole-graph factorization is the one-shard case
//! ([`NodePartition::singleton`], empty coupling, queries answered by one
//! pair of substitutions), not a second store.
//!
//! CLUDE's clustered incremental LU exists because updates to an evolving
//! graph are spatially local; the [`ShardedFactorStore`] exploits the same
//! locality *within one live snapshot*.  The node universe is split by a
//! [`NodePartition`]; each shard owns the decomposed principal submatrix
//! `A[S_s, S_s]` of the measure matrix — its own ordering, the flat factor
//! block it publishes, and a [`clude_lu::Maintainer`] holding the block's
//! matrix and the update arms' scratch — while the entries whose row and
//! column straddle two shards live in a sparse coupling matrix:
//!
//! ```text
//!        A  =  blockdiag(A_00, …, A_kk)  +  C        (exactly, by construction)
//! ```
//!
//! A [`GraphDelta`] is routed entry-wise: an entry whose row and column live
//! in the same shard joins that shard's slice of the batch (in local
//! coordinates), which the shard absorbs by CLUDE's member step, the one
//! [`clude_lu::Maintainer`] step batch CLUDE takes too — the block's
//! structure extended to cover the slice's new entries, then a pass over the
//! changed rows' elimination reach — unless the one decision, the quality
//! trigger, finds the block's quality-loss over `max_quality_loss` and
//! re-orders it ([`MaintenanceArm`]); a cross-shard entry is a plain value
//! write into the coupling — it never touches any factors.  The
//! frozen coupling snapshots serve from *is* the state, CLUDE's shared
//! structure over per-snapshot values: a batch whose writes land on stored
//! positions copies one value array and writes them by position, and only
//! a new position merges into a new structure ([`FrozenCoupling`]).
//! The per-shard entry lists are disjoint, so each shard with pending work
//! applies its slice with its own scratch, one shard after another on the
//! thread that applies the batch.  The copy the pass runs on costs the rows
//! the slice changes ([`clude_lu::extend_structure`]), not the block, and
//! the pass the rows their changes reach.
//!
//! Queries recombine exactly: snapshots expose the per-shard factors plus a
//! frozen coupling, and the block Gauss–Seidel pass over them
//! ([`crate::coupling`]) contracts for the engine's diagonally dominant
//! M-matrices, so the Krylov iteration it preconditions matches a dense
//! solve of the snapshot's measure matrix — and the one-shard store — to
//! well below 1e-9.

use crate::checkpoint::{ShardImage, StoreImage};
use crate::coupling::{FrozenCoupling, SolveTolerance};
use crate::error::{EngineError, EngineResult};
use crate::store::{order_and_factorize, EngineSnapshot, MaintenanceArm, OrderedFactors};
use clude_graph::matrix::{global_matrix_delta, OldSuccessors};
use clude_graph::{
    coupling_matrix, shard_measure_matrix, DiGraph, GraphDelta, MatrixKind, NodePartition,
};
use clude_lu::factorize_fresh;
use clude_sparse::Ordering;
use clude_telemetry::{Stage, TelemetryRegistry};
use std::sync::Arc;

/// How [`crate::CludeEngine::new`] derives a sharded engine's node
/// partition, which then stays fixed for the life of the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PartitionStrategy {
    /// Greedy edge-locality growth: minimizes the coupling size without
    /// constraining its shape (`clude::partition::edge_locality_partition`).
    #[default]
    EdgeLocality,
    /// BTF structure: maximum transversal + Tarjan SCCs, coarsened so the
    /// cross-shard coupling is block-triangular — one Gauss–Seidel sweep in
    /// SCC topological order is then exact (`clude_graph::btf_partition`).
    /// May produce fewer shards than requested when the graph's SCCs are
    /// coarse.
    Btf,
}

/// The cross-shard entries of the measure matrix over `partition`, laid
/// out under the orderings of `shards`: [`coupling_matrix`] with exact zeros
/// dropped (a zero damping composes them), the live entry set batch after
/// batch of writes arrives at.
fn cross_shard_coupling(
    graph: &DiGraph,
    kind: MatrixKind,
    partition: &NodePartition,
    shards: &[OrderedFactors],
) -> Arc<FrozenCoupling> {
    let matrix = coupling_matrix(graph, kind, partition);
    FrozenCoupling::new(partition, orderings(shards), &matrix, false)
}

/// Refuses a quality-loss budget no comparison can honour: a negative one
/// would re-order every block on every batch, a NaN one never.  Zero
/// re-orders on any growth, `f64::INFINITY` never (INC).
pub(crate) fn check_budget(max_quality_loss: f64) -> EngineResult<()> {
    if max_quality_loss.is_nan() || max_quality_loss < 0.0 {
        return Err(EngineError::InvalidConfig(format!(
            "max_quality_loss must be non-negative, got {max_quality_loss}"
        )));
    }
    Ok(())
}

/// The shards' orderings, by shard: what the coupling's layout follows.
fn orderings(shards: &[OrderedFactors]) -> Vec<Arc<Ordering>> {
    shards.iter().map(|s| Arc::clone(&s.ordering)).collect()
}

/// Per-shard slice of a [`ShardedAdvanceReport`].
#[derive(Debug, Clone, Copy, Default)]
pub struct ShardAdvance {
    /// The shard id.
    pub shard: usize,
    /// Changed matrix entries applied to this shard's factors.
    pub entries_applied: u64,
    /// Cross-shard edge changes routed *from* this shard (its nodes were the
    /// source endpoint) into the coupling.
    pub cross_edges_seen: u64,
    /// The arm that absorbed this shard's slice of the batch (`None` for a
    /// shard the batch did not touch): the one the maintenance decision
    /// chose, or [`MaintenanceArm::Reorder`] when a guard failure abandoned
    /// it (the journal's `RefreshTriggered` with a pivot or structure
    /// reason marks those).
    pub arm: Option<MaintenanceArm>,
    /// Rows the numeric pass recomputed: the elimination reach of the
    /// slice's changed rows (0 for a re-order).
    pub rows_refactored: u64,
    /// The order of the shard's block, so `rows_refactored / block_order`
    /// is the share of the block the pass recomputed.
    pub block_order: u64,
    /// Slots the pass's extended copy holds beyond the block it extended —
    /// the fill and new entries the slice brought in (0 when nothing escaped
    /// the block, for a re-order, and for a pass a guard failure abandoned).
    pub slots_added: u64,
    /// The shard's quality-loss after the advance.
    pub quality_loss: f64,
}

/// What one [`ShardedFactorStore::advance`] did, shard by shard.
#[derive(Debug, Clone, Default)]
pub struct ShardedAdvanceReport {
    /// The id of the snapshot the batch produced.
    pub snapshot_id: u64,
    /// Per-shard breakdown, indexed by shard id (shards without work report
    /// zeros).
    pub per_shard: Vec<ShardAdvance>,
    /// Whether any shard re-ordered (by decision or by fallback).
    pub refreshed: bool,
    /// Worst per-shard quality-loss after the advance.
    pub quality_loss: f64,
    /// Cross-shard coupling entries written by this batch.
    pub coupling_writes: u64,
    /// Shards whose factor block this batch replaced; the
    /// other `n_shards − shards_republished` blocks of the next snapshot are
    /// pointer-shared with the previous one (copy-on-write ring).
    pub shards_republished: u64,
    /// Whether the coupling was frozen anew — a cross-shard entry changed, or
    /// a shard's ordering did, which the coupling's layout follows;
    /// `false` shares the previous snapshot's coupling and its plan.
    pub coupling_republished: bool,
}

/// Per-shard LU factors over a partitioned node universe, updated shard by
/// shard, with cross-shard coupling served at query time.
///
/// Deltas touching disjoint shards cost one *small* numeric pass per shard,
/// over the elimination reach of the rows they change, and
/// cross-shard edges bypass the numeric layer entirely; snapshots of any
/// shard count answer identically to within the block solve's 1e-13
/// tolerance.
#[derive(Debug)]
#[cfg_attr(test, derive(Clone))]
pub struct ShardedFactorStore {
    kind: MatrixKind,
    /// A block whose quality-loss is over this budget re-orders with the
    /// next batch that touches it; `f64::INFINITY` never re-orders for
    /// quality (INC).
    max_quality_loss: f64,
    partition: Arc<NodePartition>,
    graph: DiGraph,
    shards: Vec<OrderedFactors>,
    snapshot_id: u64,
    /// The cross-shard entries of the measure matrix laid out under the
    /// shards' orderings: the state itself, in the frozen form snapshots
    /// share.  Replaced only by batches that wrote a cross-shard entry —
    /// new values over the same structure when every write has a slot, a
    /// merged structure without zero slots when one does not — and laid out
    /// anew by batches that moved a shard's ordering; each time with an
    /// empty plan cell: the store never plans, coupled solves do.
    published_coupling: Arc<FrozenCoupling>,
    /// The coupled solve's stopping rule.
    tolerance: SolveTolerance,
    /// Telemetry sink for route/refactor/refresh/freeze spans and
    /// re-order events, stamped onto snapshots; a disabled stub unless
    /// [`ShardedFactorStore::with_telemetry`].
    telemetry: Arc<TelemetryRegistry>,
    /// Test hook: overrides every decision's arm, so each arm can be driven
    /// over the same stream.
    #[cfg(test)]
    pub(crate) forced_arm: Option<MaintenanceArm>,
}

impl ShardedFactorStore {
    /// Builds the store for a base graph over the given partition: derives
    /// and factorizes every shard's principal submatrix and collects the
    /// cross-shard entries into the coupling.  A kind outside its domain
    /// ([`MatrixKind::validate`]), a negative or NaN `max_quality_loss` or a
    /// partition that does not cover the graph's node universe is an
    /// [`EngineError::InvalidConfig`].
    pub fn new(
        graph: DiGraph,
        kind: MatrixKind,
        max_quality_loss: f64,
        partition: NodePartition,
    ) -> EngineResult<Self> {
        kind.validate().map_err(EngineError::InvalidConfig)?;
        check_budget(max_quality_loss)?;
        if graph.n_nodes() != partition.n_nodes() {
            return Err(EngineError::InvalidConfig(format!(
                "partition covers {} nodes but the graph has {}",
                partition.n_nodes(),
                graph.n_nodes()
            )));
        }
        let partition = Arc::new(partition);
        let shards: Vec<OrderedFactors> = (0..partition.n_shards())
            .map(|s| order_and_factorize(&shard_measure_matrix(&graph, kind, &partition, s), 0))
            .collect::<Result<_, _>>()?;
        let published_coupling = cross_shard_coupling(&graph, kind, &partition, &shards);
        Ok(ShardedFactorStore {
            kind,
            max_quality_loss,
            partition,
            graph,
            shards,
            snapshot_id: 0,
            published_coupling,
            tolerance: SolveTolerance::default(),
            telemetry: Arc::new(TelemetryRegistry::disabled()),
            #[cfg(test)]
            forced_arm: None,
        })
    }

    /// What a checkpoint of the store holds: everything but the factors
    /// and the coupling, which [`ShardedFactorStore::restore`] re-derives
    /// from the graph — per shard, its ordering, its `reference_nnz`
    /// quality anchor and its block index.
    pub(crate) fn durable_state(&self) -> StoreImage {
        StoreImage {
            snapshot_id: self.snapshot_id,
            kind: self.kind,
            partition: (*self.partition).clone(),
            graph: self.graph.clone(),
            shards: self
                .shards
                .iter()
                .map(|shard| ShardImage {
                    ordering: (*shard.ordering).clone(),
                    reference_nnz: shard.reference_nnz,
                    index: shard.block().index as u64,
                })
                .collect(),
        }
    }

    /// Rebuilds the store from a checkpoint image, re-deriving what the
    /// image leaves out as a build does: the coupling is collected from
    /// the graph ([`cross_shard_coupling`]), and each shard's block of the
    /// measure matrix, reordered by the shard's checkpointed ordering, is
    /// factorized by the up-looking kernel.  The orderings, quality
    /// anchors, block indices and partition are the image's, so WAL replay
    /// from here measures quality-loss against the same anchors.
    ///
    /// The factors are a fresh factorization under the live orderings, so
    /// they equal the live factors to rounding, not bit for bit, and hold no
    /// slot an extension added for an entry since removed: a restored
    /// shard's slot count and quality-loss are never above the live
    /// shard's, so the quality trigger may re-order a replayed block later
    /// than the original did — same answers, to the arms' 1e-12 agreement.
    /// A shard the image's ordering does not fit, or whose
    /// block meets a singular pivot under it, is an
    /// [`EngineError::Persistence`]; a negative or NaN `max_quality_loss`
    /// an [`EngineError::InvalidConfig`].
    pub(crate) fn restore(
        max_quality_loss: f64,
        tolerance: SolveTolerance,
        image: StoreImage,
    ) -> EngineResult<Self> {
        check_budget(max_quality_loss)?;
        let StoreImage {
            snapshot_id,
            kind,
            partition,
            graph,
            shards,
        } = image;
        let partition = Arc::new(partition);
        let shards = shards
            .into_iter()
            .enumerate()
            .map(|(s, shard)| {
                let corrupt = |e: &dyn std::fmt::Display| {
                    EngineError::Persistence(format!("checkpoint shard {s}: {e}"))
                };
                let matrix = shard_measure_matrix(&graph, kind, &partition, s)
                    .reorder(&shard.ordering)
                    .map_err(|e| corrupt(&e))?;
                let factors = factorize_fresh(&matrix).map_err(|e| corrupt(&e))?;
                Ok(OrderedFactors::new(
                    shard.ordering,
                    factors,
                    shard.reference_nnz,
                    matrix,
                    shard.index,
                ))
            })
            .collect::<EngineResult<Vec<_>>>()?;
        let published_coupling = cross_shard_coupling(&graph, kind, &partition, &shards);
        Ok(ShardedFactorStore {
            kind,
            max_quality_loss,
            partition,
            graph,
            shards,
            snapshot_id,
            published_coupling,
            tolerance,
            telemetry: Arc::new(TelemetryRegistry::disabled()),
            #[cfg(test)]
            forced_arm: None,
        })
    }

    /// Sets the telemetry registry the store's spans and re-order events
    /// are recorded into (builder style).  Snapshots
    /// carry the same handle so query-path coupling solves record too.
    pub fn with_telemetry(mut self, telemetry: Arc<TelemetryRegistry>) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Sets the coupled solve's stopping rule (builder style).  A rule no
    /// solve can meet (non-finite or non-positive `tol`, `max_sweeps: 0`)
    /// is an [`EngineError::InvalidConfig`].
    pub fn with_tolerance(mut self, tolerance: SolveTolerance) -> EngineResult<Self> {
        tolerance.validate().map_err(EngineError::InvalidConfig)?;
        self.tolerance = tolerance;
        Ok(self)
    }

    /// The coupled solve's stopping rule in force.
    pub fn tolerance(&self) -> SolveTolerance {
        self.tolerance
    }

    /// The matrix composition the factors are built for.
    pub fn matrix_kind(&self) -> MatrixKind {
        self.kind
    }

    /// The quality-loss budget in force.
    pub fn max_quality_loss(&self) -> f64 {
        self.max_quality_loss
    }

    /// The node partition the store is sharded by.
    pub fn partition(&self) -> &NodePartition {
        &self.partition
    }

    /// Number of factor shards.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// The current snapshot id.
    pub fn snapshot_id(&self) -> u64 {
        self.snapshot_id
    }

    /// The current snapshot graph.
    pub fn graph(&self) -> &DiGraph {
        &self.graph
    }

    /// Total factor size across shards, `Σ_s |sp(Â_s)|`.
    pub fn factor_nnz(&self) -> usize {
        self.shards.iter().map(|s| s.factors().nnz()).sum()
    }

    /// Number of live (nonzero) cross-shard coupling entries.
    pub fn coupling_nnz(&self) -> usize {
        self.published_coupling.nnz()
    }

    /// Worst per-shard quality-loss against the shards' last refreshes.
    pub fn quality_loss(&self) -> f64 {
        self.shards
            .iter()
            .map(OrderedFactors::quality_loss)
            .fold(0.0, f64::max)
    }

    /// An immutable snapshot of the current state for the query side.
    ///
    /// Cheap by construction: the per-shard factor blocks and the frozen
    /// coupling are shared [`Arc`] handles replaced inside
    /// [`ShardedFactorStore::advance`] for exactly what the batch touched,
    /// and the snapshot holds no graph, so this bumps `n_shards` plus three
    /// reference counts and clones no data.  Consecutive snapshots are
    /// [`Arc::ptr_eq`] on every untouched shard's block
    /// ([`EngineSnapshot::shards`]).
    pub fn snapshot(&self) -> EngineSnapshot {
        let shards = self.shards.iter().map(|s| Arc::clone(s.block())).collect();
        EngineSnapshot::from_parts(
            self.snapshot_id,
            self.kind,
            Arc::clone(&self.partition),
            shards,
            Arc::clone(&self.published_coupling),
            self.tolerance,
            Arc::clone(&self.telemetry),
        )
    }

    /// Applies one coalesced delta batch, advancing the snapshot counter.
    ///
    /// The batch's matrix entries are derived from the graph delta alone,
    /// routed by the partition — intra-shard entries become per-shard slices
    /// in local coordinates, cross-shard entries are value writes into the
    /// coupling — and each shard with pending work absorbs its slice, in
    /// shard order, on the calling thread.  Numeric failures and quality
    /// trips re-order only the affected shard; an `Ok` return always leaves
    /// servable factors.
    ///
    /// An `Err` (a shard's re-order itself failed, which a diagonally
    /// dominant block cannot trigger in practice) leaves the store
    /// mid-batch — graph and coupling already advanced, sibling shards
    /// possibly maintained — and must be treated as fatal for this store; only
    /// out-of-range deltas are rejected before any mutation.
    pub fn advance(&mut self, delta: &GraphDelta) -> EngineResult<ShardedAdvanceReport> {
        let n = self.graph.n_nodes();
        for &(u, v) in delta.added.iter().chain(delta.removed.iter()) {
            if u >= n || v >= n {
                return Err(crate::error::EngineError::NodeOutOfRange {
                    node: u.max(v),
                    n_nodes: n,
                });
            }
        }
        let k = self.shards.len();
        let mut per_shard: Vec<ShardAdvance> = (0..k)
            .map(|s| ShardAdvance {
                shard: s,
                ..ShardAdvance::default()
            })
            .collect();
        // Edge-level routing is only bookkeeping (the matrix routing below
        // is entry-wise): count cross-shard edge changes against their
        // source's shard, allocation-free.
        for &(u, v) in delta.added.iter().chain(delta.removed.iter()) {
            if !self.partition.is_intra(u, v) {
                per_shard[self.partition.shard_of(u)].cross_edges_seen += 1;
            }
        }

        // Capture pre-delta adjacency of the affected sources, then mutate.
        let old = OldSuccessors::capture(&self.graph, delta);
        delta.apply(&mut self.graph);
        self.snapshot_id += 1;

        // Route every changed matrix entry to its shard or the coupling.
        let route = self.telemetry.span(Stage::ShardRoute);
        let mut shard_entries: Vec<Vec<(usize, usize, f64, f64)>> = vec![Vec::new(); k];
        let mut coupling_writes: Vec<(usize, usize, f64)> = Vec::new();
        for (r, c, old, new) in global_matrix_delta(&self.graph, self.kind, &old) {
            let sr = self.partition.shard_of(r);
            if sr == self.partition.shard_of(c) {
                shard_entries[sr].push((
                    self.partition.local_of(r),
                    self.partition.local_of(c),
                    old,
                    new,
                ));
            } else {
                coupling_writes.push((r, c, new));
            }
        }
        route.stop();
        let mut report = ShardedAdvanceReport {
            snapshot_id: self.snapshot_id,
            per_shard,
            coupling_writes: coupling_writes.len() as u64,
            ..ShardedAdvanceReport::default()
        };
        // Per shard with work: the one maintenance decision — the quality
        // trigger, Definition 4 against the size at the block's last
        // re-order, from counts only, so the same stream decides the same
        // way on every run and no clock is read — then its arm.  A block
        // over the budget re-orders: the batch is absorbed by the fresh
        // factorization, no work is spent on factors about to be dropped.
        // The arms run in shard order on this thread: at these block sizes
        // an arm costs less than the spawn and join that would overlap it
        // with its siblings (ROADMAP "Measured" has the numbers).
        for s in (0..k).filter(|&s| !shard_entries[s].is_empty()) {
            let shard = &mut self.shards[s];
            let reorder = shard.quality_loss() > self.max_quality_loss;
            #[cfg(test)]
            let reorder = self
                .forced_arm
                .map_or(reorder, |arm| arm == MaintenanceArm::Reorder);
            let outcome = shard.absorb(
                &shard_entries[s],
                reorder,
                &self.telemetry,
                s,
                self.snapshot_id,
            )?;
            report.per_shard[s] = ShardAdvance {
                shard: s,
                cross_edges_seen: report.per_shard[s].cross_edges_seen,
                ..outcome
            };
            // Copy-on-write: only the shards this batch maintained installed
            // a new block; every other shard keeps serving the block older
            // snapshots already hold.  Only a re-order moves the ordering.
            report.refreshed |= outcome.arm == Some(MaintenanceArm::Reorder);
            report.shards_republished += 1;
        }
        // Copy-on-write like the factor blocks: the coupling re-freezes only
        // when a cross-shard entry changed or when a shard's ordering moved —
        // the layout follows every ordering; every other batch keeps sharing
        // the previous snapshots' coupling, and with it their plan.  Every
        // affected source owns its own matrix column (or row), so the writes
        // name distinct positions.
        if !coupling_writes.is_empty() || report.refreshed {
            let freeze = self.telemetry.span(Stage::SnapshotFreeze);
            let mut coupling = Arc::clone(&self.published_coupling);
            if !coupling_writes.is_empty() {
                coupling = coupling.written(&mut coupling_writes);
            }
            if report.refreshed {
                coupling = coupling.reordered(&self.partition, orderings(&self.shards));
            }
            self.published_coupling = coupling;
            freeze.stop();
            report.coupling_republished = true;
        }

        // Quality-loss is a property of the shard's accumulated state, not
        // of this batch's work: report it for idle shards too.
        for (s, shard) in self.shards.iter().enumerate() {
            report.per_shard[s].quality_loss = shard.quality_loss();
        }
        report.quality_loss = self.quality_loss();
        Ok(report)
    }

    /// Debug invariant: block-diagonal shard factors reconstruct their
    /// blocks, and blocks plus coupling reassemble the global measure matrix.
    #[cfg(test)]
    fn assert_consistent(&self, tol: f64) {
        let full = clude_graph::measure_matrix(&self.graph, self.kind);
        let n = self.graph.n_nodes();
        let mut coo = clude_sparse::CooMatrix::new(n, n);
        for (s, shard) in self.shards.iter().enumerate() {
            let nodes = self.partition.nodes_of(s);
            // Undo the shard-local ordering to recover A[S_s, S_s].
            let reconstructed = shard.factors().reconstruct();
            let row_new_to_old = shard.ordering.row().as_new_to_old();
            let col_new_to_old = shard.ordering.col().as_new_to_old();
            for (i, j, v) in reconstructed.iter() {
                coo.push(nodes[row_new_to_old[i]], nodes[col_new_to_old[j]], v)
                    .unwrap();
            }
        }
        for (i, j, v) in self.published_coupling.entries() {
            coo.push(i, j, v).unwrap();
        }
        let reassembled = clude_sparse::CsrMatrix::from_coo(&coo);
        let diff = reassembled.max_abs_diff(&full).unwrap();
        assert!(diff <= tol, "sharded state drifted from A: {diff:e}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coupling::SolveTolerance;
    use crate::store::dense_answer;
    use clude::partition::edge_locality_partition;
    use clude_graph::btf_partition;
    use clude_lu::LuError;
    use clude_measures::{MeasureQuery, MeasureSolver};
    use clude_sparse::CsrMatrix;
    use clude_telemetry::EngineEvent;

    fn base_graph(n: usize) -> DiGraph {
        let mut g = DiGraph::from_edges(n, (0..n).map(|i| (i, (i + 1) % n)).collect::<Vec<_>>());
        g.add_edge(2, 0);
        g.add_edge(n / 2, 1);
        g
    }

    /// The order and verdict a solve over the store's current blocks and a
    /// fresh layout of `coupling` plans.
    fn plan_over(store: &ShardedFactorStore, coupling: &CsrMatrix) -> (Vec<usize>, bool) {
        let partition = store.partition();
        let fresh = FrozenCoupling::new(partition, orderings(&store.shards), coupling, false);
        let plan = fresh.plan(partition, &[]);
        (plan.gs_order().to_vec(), plan.is_triangular())
    }

    /// The live (nonzero) entries of `coupling`, global coordinates,
    /// row-major: what the coupling holds with its zero slots dropped.
    fn live_entries(n: usize, coupling: &FrozenCoupling) -> CsrMatrix {
        let mut coo = clude_sparse::CooMatrix::new(n, n);
        for (i, j, v) in coupling.entries().filter(|e| e.2 != 0.0) {
            coo.push(i, j, v).unwrap();
        }
        CsrMatrix::from_coo(&coo)
    }

    /// Whether every shard of `after` serves under the ordering it had in
    /// `before`.
    fn orderings_held(before: &EngineSnapshot, after: &EngineSnapshot) -> bool {
        before.n_shards() == after.n_shards()
            && before
                .shards()
                .iter()
                .zip(after.shards())
                .all(|(a, b)| Arc::ptr_eq(&a.ordering, &b.ordering))
    }

    /// Every measure family against the dense oracle (no shared code with
    /// the store: no partition, no ordering, no factors).
    fn assert_queries_match(store: &ShardedFactorStore, n: usize) {
        let snap = store.snapshot();
        let queries = [
            MeasureQuery::PageRank { damping: 0.85 },
            MeasureQuery::Rwr {
                seed: 0,
                damping: 0.85,
            },
            MeasureQuery::Rwr {
                seed: n - 1,
                damping: 0.85,
            },
            MeasureQuery::PprSeedSet {
                seeds: vec![1, n / 2],
                damping: 0.85,
            },
        ];
        for q in &queries {
            let a = snap.query(q).unwrap();
            let b = dense_answer(store.graph(), store.matrix_kind(), q);
            for (x, y) in a.iter().zip(b.iter()) {
                assert!((x - y).abs() <= 1e-9, "{q:?}: store {x} vs dense {y}");
            }
        }
    }

    #[test]
    fn sharded_store_matches_monolithic_on_mixed_stream() {
        let n = 12;
        let g = base_graph(n);
        let kind = MatrixKind::random_walk_default();
        let budget = 0.5;
        let partition = NodePartition::contiguous(n, 3);
        let mut sharded = ShardedFactorStore::new(g.clone(), kind, budget, partition).unwrap();
        // The same machine at k = 1: the whole graph as one block.
        let mut one_shard =
            ShardedFactorStore::new(g, kind, budget, NodePartition::singleton(n)).unwrap();
        assert_eq!(sharded.n_shards(), 3);
        assert_eq!(one_shard.n_shards(), 1);
        assert_queries_match(&sharded, n);

        // Mixed intra/cross batches, including removals.
        let deltas = [
            GraphDelta {
                added: vec![(0, 3), (1, 2)], // intra shard 0
                removed: vec![],
            },
            GraphDelta {
                added: vec![(0, 7), (9, 2)], // cross shards
                removed: vec![(2, 0)],
            },
            GraphDelta {
                added: vec![(4, 6), (10, 11), (5, 0)],
                removed: vec![(0, 3), (9, 2)],
            },
        ];
        for delta in &deltas {
            let report = sharded.advance(delta).unwrap();
            one_shard.advance(delta).unwrap();
            assert_eq!(report.snapshot_id, one_shard.snapshot_id());
            sharded.assert_consistent(1e-9);
            one_shard.assert_consistent(1e-9);
            assert_queries_match(&sharded, n);
            assert_queries_match(&one_shard, n);
            // k shards ≡ 1 shard, directly.
            let q = MeasureQuery::PageRank { damping: 0.85 };
            let a = sharded.snapshot().query(&q).unwrap();
            let b = one_shard.snapshot().query(&q).unwrap();
            for (x, y) in a.iter().zip(b.iter()) {
                assert!((x - y).abs() <= 1e-9, "3 shards {x} vs 1 shard {y}");
            }
        }
        assert!(sharded.coupling_nnz() > 0, "stream produced coupling");
        assert_eq!(one_shard.coupling_nnz(), 0);
    }

    #[test]
    fn disjoint_shard_batches_sweep_every_shard() {
        let n = 12;
        // A pure ring: every delta source's successors stay inside its own
        // shard, so the batch is fully disjoint — no coupling writes at all.
        let g = DiGraph::from_edges(n, (0..n).map(|i| (i, (i + 1) % n)).collect::<Vec<_>>());
        let kind = MatrixKind::random_walk_default();
        let partition = NodePartition::contiguous(n, 4); // shards of 3
        let mut store = ShardedFactorStore::new(g, kind, f64::INFINITY, partition).unwrap();
        // One intra-shard change per shard: all four shards extend and
        // refactor in one advance, nothing lands in the coupling.
        let delta = GraphDelta {
            added: vec![(0, 2), (3, 5), (6, 8), (9, 11)],
            removed: vec![],
        };
        let report = store.advance(&delta).unwrap();
        assert_eq!(report.per_shard.len(), 4);
        for s in 0..4 {
            assert!(
                report.per_shard[s].entries_applied > 0,
                "shard {s} saw no entries"
            );
            assert!(report.per_shard[s].slots_added > 0, "shard {s} never grew");
            assert!(
                report.per_shard[s].rows_refactored > 0,
                "shard {s} never refactored"
            );
            assert_eq!(report.per_shard[s].cross_edges_seen, 0);
        }
        assert_eq!(report.coupling_writes, 0);
        store.assert_consistent(1e-9);
    }

    #[test]
    fn cross_edges_only_touch_the_coupling() {
        let n = 8;
        let g = base_graph(n);
        let kind = MatrixKind::random_walk_default();
        let partition = NodePartition::contiguous(n, 2);
        let mut store = ShardedFactorStore::new(g, kind, f64::INFINITY, partition).unwrap();
        let before = store.coupling_nnz();
        // 2 -> 6 is cross-shard; node 2 has existing intra successors whose
        // column weight rescales, so shard 0 still refactors — but shard 1
        // (the target side) must not.
        let report = store
            .advance(&GraphDelta {
                added: vec![(2, 6)],
                removed: vec![],
            })
            .unwrap();
        assert_eq!(report.per_shard[0].cross_edges_seen, 1);
        assert_eq!(report.per_shard[1].entries_applied, 0);
        assert_eq!(report.per_shard[1].arm, None);
        assert!(store.coupling_nnz() > before);
        assert!(report.coupling_writes > 0);
        store.assert_consistent(1e-9);
    }

    #[test]
    fn high_damping_coupled_queries_still_converge() {
        // d = 0.995 contracts slowly — a stationary sweep gains a decade per
        // ~200 passes — and 12 nodes are fewer than one Krylov cycle is
        // long: the space is exhausted before a restart, the lucky breakdown
        // must close the cycle on the exact answer, and the answers must
        // still match the dense solve.
        let n = 12;
        let g = base_graph(n);
        let kind = MatrixKind::RandomWalk { damping: 0.995 };
        let partition = NodePartition::contiguous(n, 3);
        let telemetry = Arc::new(TelemetryRegistry::default());
        let sharded = ShardedFactorStore::new(g, kind, f64::INFINITY, partition)
            .unwrap()
            .with_telemetry(Arc::clone(&telemetry));
        assert!(sharded.coupling_nnz() > 0, "ring edges cross the shards");
        let q = MeasureQuery::Rwr {
            seed: 0,
            damping: 0.995,
        };
        let a = sharded.snapshot().query(&q).unwrap();
        let b = dense_answer(sharded.graph(), kind, &q);
        for (x, y) in a.iter().zip(b.iter()) {
            assert!((x - y).abs() <= 1e-9, "{x} vs {y}");
        }
        // The residual pass, at most n Arnoldi steps, the accepting pass.
        let passes = telemetry.coupling_sweeps().max();
        assert!(passes <= n as u64 + 2, "{passes} passes");
    }

    #[test]
    fn laplacian_sharding_matches_monolithic() {
        let mut g = DiGraph::new(10);
        for i in 0..9 {
            g.add_undirected_edge(i, i + 1);
        }
        let kind = MatrixKind::SymmetricLaplacian { shift: 1.0 };
        let budget = f64::INFINITY;
        let partition = NodePartition::contiguous(10, 2);
        let mut sharded = ShardedFactorStore::new(g, kind, budget, partition).unwrap();
        let delta = GraphDelta {
            added: vec![(0, 8), (8, 0), (3, 6), (6, 3)],
            removed: vec![(4, 5), (5, 4)],
        };
        sharded.advance(&delta).unwrap();
        sharded.assert_consistent(1e-9);
        // Compare raw solves (the engine's measure queries are random-walk
        // specific; Laplacian parity is checked at the solver level).
        let b: Vec<f64> = (0..10).map(|i| (i as f64) - 4.5).collect();
        let xs =
            clude_measures::MeasureSolver::solve_measure_system(&sharded.snapshot(), &b).unwrap();
        let xm = clude_graph::measure_matrix(sharded.graph(), kind)
            .to_dense()
            .solve_gaussian(&b)
            .unwrap();
        for (x, y) in xs.iter().zip(xm.iter()) {
            assert!((x - y).abs() <= 1e-9, "{x} vs {y}");
        }
    }

    #[test]
    fn quality_policy_refreshes_single_shard() {
        let n = 12;
        let g = base_graph(n);
        let kind = MatrixKind::random_walk_default();
        let partition = NodePartition::contiguous(n, 2);
        let mut store = ShardedFactorStore::new(g, kind, 0.0, partition).unwrap();
        // Densify shard 0 only; eventually its factors grow and it refreshes,
        // while shard 1 never does.
        let mut refreshed = [false, false];
        for k in 0..5 {
            let delta = GraphDelta {
                added: vec![(k % 6, (k + 3) % 6), ((k + 2) % 6, k % 6)],
                removed: vec![],
            };
            let report = store.advance(&delta).unwrap();
            refreshed[0] |= report.per_shard[0].arm == Some(MaintenanceArm::Reorder);
            refreshed[1] |= report.per_shard[1].arm == Some(MaintenanceArm::Reorder);
        }
        assert!(refreshed[0], "densified shard never refreshed");
        assert!(!refreshed[1], "untouched shard refreshed spuriously");
        store.assert_consistent(1e-9);
    }

    #[test]
    fn untouched_shards_share_their_snapshot_handles() {
        let n = 12;
        let g = base_graph(n);
        let mut store = ShardedFactorStore::new(
            g,
            MatrixKind::random_walk_default(),
            f64::INFINITY,
            NodePartition::contiguous(n, 3),
        )
        .unwrap();
        let snap0 = store.snapshot();

        // Intra-shard-0 batch: only shard 0's block may be replaced.
        let report = store
            .advance(&GraphDelta {
                added: vec![(0, 3), (1, 2)],
                removed: vec![],
            })
            .unwrap();
        assert_eq!(report.shards_republished, 1);
        assert!(!report.coupling_republished);
        let snap1 = store.snapshot();
        assert!(!Arc::ptr_eq(&snap0.shards()[0], &snap1.shards()[0]));
        for s in 1..3 {
            assert!(
                Arc::ptr_eq(&snap0.shards()[s], &snap1.shards()[s]),
                "untouched shard {s} was cloned"
            );
        }
        assert!(Arc::ptr_eq(
            snap0.shared_coupling(),
            snap1.shared_coupling()
        ));
        // The shared blocks record when they were last touched, the snapshot
        // records when it was taken.
        assert_eq!(snap1.id(), 1);
        assert_eq!(snap1.shards()[0].index, 1);
        assert_eq!(snap1.shards()[1].index, 0);

        // Cross-shard batch (0 -> 7): shard 0's column rescales, shard 1 is
        // only a coupling target — its block stays shared, the frozen
        // coupling does not.
        let report = store
            .advance(&GraphDelta {
                added: vec![(0, 7)],
                removed: vec![],
            })
            .unwrap();
        assert!(report.coupling_republished);
        let snap2 = store.snapshot();
        assert!(Arc::ptr_eq(&snap1.shards()[1], &snap2.shards()[1]));
        assert!(!Arc::ptr_eq(
            snap1.shared_coupling(),
            snap2.shared_coupling()
        ));
        // Old snapshots still answer from their own (shared) state.
        let q = MeasureQuery::PageRank { damping: 0.85 };
        assert_ne!(snap0.query(&q).unwrap(), snap2.query(&q).unwrap());
    }

    #[test]
    fn plan_is_frozen_with_the_coupling_and_answers_stay_exact() {
        let n = 12;
        let kind = MatrixKind::random_walk_default();
        let budget = 0.5;
        let mut store =
            ShardedFactorStore::new(base_graph(n), kind, budget, NodePartition::contiguous(n, 3))
                .unwrap();
        let deltas = [
            GraphDelta {
                added: vec![(0, 3), (1, 2)], // intra shard 0
                removed: vec![],
            },
            GraphDelta {
                added: vec![(0, 7), (9, 2), (5, 11)], // cross shards
                removed: vec![(2, 0)],
            },
            GraphDelta {
                added: vec![(4, 6), (10, 11), (5, 0)],
                removed: vec![(0, 3), (9, 2)],
            },
        ];
        let mut shared = 0;
        for delta in &deltas {
            let before = store.snapshot();
            let before_plan = before.coupling_plan();
            let report = store.advance(delta).unwrap();
            let after = store.snapshot();
            // The advance built nothing: a re-frozen coupling's plan cell is
            // empty until a solve asks, a shared one still holds the plan
            // `before` built.
            let built = after.shared_coupling().built_plan();
            assert_eq!(built.is_some(), !report.coupling_republished);
            // The plan is a pure function of (partition, coupling): it is
            // replaced by exactly the batches that re-freeze the coupling,
            // however many shard blocks they republished.
            let plan_shared = std::ptr::eq(before_plan, after.coupling_plan());
            assert_eq!(
                plan_shared,
                Arc::ptr_eq(before.shared_coupling(), after.shared_coupling())
            );
            assert_eq!(plan_shared, !report.coupling_republished);
            shared += plan_shared as usize;
            assert_eq!(after.coupling_plan().gs_order().len(), 3);
            assert_queries_match(&store, n);
        }
        assert_eq!(shared, 1, "only the intra-shard batch keeps the plan");
        assert!(store.coupling_nnz() > 0);
        // The ring crosses all three shards both ways: not block triangular,
        // so the answers above came out of the iteration proper.
        assert!(!store.snapshot().coupling_plan().is_triangular());
        store.assert_consistent(1e-9);
    }

    /// 16 nodes on 4 contiguous shards, every node linked five ahead as
    /// well: a cyclic coupling that every batch below writes into.
    fn four_shard_coupled_store() -> ShardedFactorStore {
        let n = 16;
        let mut g = base_graph(n);
        for u in 0..n {
            g.add_edge(u, (u + 5) % n);
        }
        let store = ShardedFactorStore::new(
            g,
            MatrixKind::random_walk_default(),
            f64::INFINITY,
            NodePartition::contiguous(n, 4),
        )
        .unwrap();
        assert!(store.coupling_nnz() > 0);
        store
    }

    #[test]
    fn an_ingest_only_stream_builds_no_plan() {
        let mut store = four_shard_coupled_store();
        let mut republished = 0;
        for k in 0..12 {
            let (u, v) = (k % 16, (3 * k + 7) % 16);
            let delta = if store.graph().has_edge(u, v) {
                GraphDelta {
                    added: vec![],
                    removed: vec![(u, v)],
                }
            } else {
                GraphDelta {
                    added: vec![(u, v)],
                    removed: vec![],
                }
            };
            let report = store.advance(&delta).unwrap();
            republished += report.coupling_republished as usize;
            // Publishing is what the engine does after every batch.
            let snap = store.snapshot();
            assert!(snap.shared_coupling().built_plan().is_none());
        }
        assert!(
            republished >= 6,
            "{republished} batches re-froze the coupling"
        );
    }

    /// Whether `delta` laid the coupling's structure out anew.
    fn builds_a_structure(store: &mut ShardedFactorStore, delta: &GraphDelta) -> bool {
        let before = Arc::clone(store.published_coupling.structure());
        store.advance(delta).unwrap();
        !Arc::ptr_eq(&before, store.published_coupling.structure())
    }

    #[test]
    fn value_only_coupling_batches_build_no_structure() {
        // Every node links five ahead, across a shard boundary: removing
        // such links zeroes their coupling entries, re-inserting refills
        // them, and neither lays the coupling out anew.
        let mut store = four_shard_coupled_store();
        let slots = store.published_coupling.structure().slots();
        let toggled: Vec<(usize, usize)> = (0..16).map(|u| (u, (u + 5) % 16)).collect();
        let (mut builds, mut zero_slots) = (0, 0);
        for (removed, added) in [(true, false), (false, true)] {
            for pair in toggled.chunks(2) {
                let delta = GraphDelta {
                    added: if added { pair.to_vec() } else { vec![] },
                    removed: if removed { pair.to_vec() } else { vec![] },
                };
                builds += usize::from(builds_a_structure(&mut store, &delta));
                let coupling = &store.published_coupling;
                zero_slots = zero_slots.max(coupling.structure().slots() - coupling.nnz());
            }
        }
        assert_eq!(builds, 0, "a value-only batch laid the coupling out");
        assert_eq!(
            zero_slots,
            toggled.len(),
            "every removed link left a zero slot"
        );
        assert_eq!(
            (
                store.coupling_nnz(),
                store.published_coupling.structure().slots()
            ),
            (slots, slots)
        );
        store.assert_consistent(1e-9);

        // A new cross-shard position and a moved ordering each lay it out
        // once, with no zero slot.
        let removal = GraphDelta {
            added: vec![],
            removed: vec![(0, 5)],
        };
        assert!(!builds_a_structure(&mut store, &removal));
        let coupling = &store.published_coupling;
        assert!(coupling.structure().slots() > coupling.nnz());
        let new_position = GraphDelta {
            added: vec![(0, 10)],
            removed: vec![],
        };
        assert!(builds_a_structure(&mut store, &new_position));
        let coupling = &store.published_coupling;
        assert_eq!(coupling.structure().slots(), coupling.nnz());
        store.forced_arm = Some(MaintenanceArm::Reorder);
        let reorder = GraphDelta {
            added: vec![(0, 2)],
            removed: vec![],
        };
        assert!(builds_a_structure(&mut store, &reorder));
        store.forced_arm = None;
        let coupling = &store.published_coupling;
        assert_eq!(coupling.structure().slots(), coupling.nnz());
        assert_queries_match(&store, 16);
        store.assert_consistent(1e-9);
    }

    #[test]
    fn a_plan_is_built_once_per_coupling_by_the_first_solve() {
        let n = 12;
        let mut store = ShardedFactorStore::new(
            base_graph(n),
            MatrixKind::random_walk_default(),
            f64::INFINITY,
            NodePartition::contiguous(n, 3),
        )
        .unwrap();
        let q = MeasureQuery::PageRank { damping: 0.85 };
        let first = store.snapshot();
        assert!(first.shared_coupling().built_plan().is_none());
        first.query(&q).unwrap();
        let plan = first.shared_coupling().built_plan().expect("a solve plans");
        // Intra-shard batches share the coupling: many snapshots, many
        // solves, one plan.
        for k in 0..4 {
            let edges = vec![(0, 3), (1, 2)];
            let delta = if k % 2 == 0 {
                GraphDelta {
                    added: edges,
                    removed: vec![],
                }
            } else {
                GraphDelta {
                    added: vec![],
                    removed: edges,
                }
            };
            assert!(!store.advance(&delta).unwrap().coupling_republished);
            let snap = store.snapshot();
            for _ in 0..3 {
                snap.query(&q).unwrap();
            }
            assert!(std::ptr::eq(snap.coupling_plan(), plan));
        }
        let fresh = plan_over(&store, &live_entries(n, &store.published_coupling));
        assert_eq!((plan.gs_order().to_vec(), plan.is_triangular()), fresh);

        // A re-order moves the shard's ordering, which the layout follows:
        // an intra-shard batch then lays the same entries out anew, with an
        // empty cell the next solve fills.
        store.forced_arm = Some(MaintenanceArm::Reorder);
        let before = store.snapshot();
        let report = store
            .advance(&GraphDelta {
                added: vec![(0, 3)],
                removed: vec![],
            })
            .unwrap();
        store.forced_arm = None;
        assert_eq!(report.coupling_writes, 0);
        assert!(report.coupling_republished);
        let reordered = store.snapshot();
        assert!(!orderings_held(&before, &reordered));
        assert!(!Arc::ptr_eq(
            before.shared_coupling(),
            reordered.shared_coupling()
        ));
        let (was, now) = (before.shared_coupling(), reordered.shared_coupling());
        assert!(!Arc::ptr_eq(was.structure(), now.structure()));
        assert_eq!(live_entries(n, was), live_entries(n, now));
        assert!(reordered.shared_coupling().built_plan().is_none());
        assert_queries_match(&store, n);
        let reordered_plan = reordered
            .shared_coupling()
            .built_plan()
            .expect("a solve plans");
        assert!(!std::ptr::eq(plan, reordered_plan));
        let fresh = plan_over(&store, &live_entries(n, &store.published_coupling));
        assert_eq!(reordered_plan.gs_order(), fresh.0);
        // The old snapshots keep serving their own plan.
        assert!(std::ptr::eq(before.coupling_plan(), plan));
        assert!(std::ptr::eq(first.coupling_plan(), plan));
    }

    /// [`assert_queries_match`] on a store whose shards are coupled.
    fn assert_coupled_answers_exact(store: &ShardedFactorStore, n: usize) {
        assert!(store.n_shards() > 1 && store.coupling_nnz() > 0);
        assert_queries_match(store, n);
    }

    #[test]
    fn a_hub_read_across_every_shard_is_solved_exactly() {
        // 200 nodes on 4 contiguous shards, a ring with chords, and one hub
        // in shard 0 that every node of the other shards links to: the hub's
        // coupling row holds 150 entries, many full chunks of the split
        // accumulators, where the ring's rows hold one or two.
        let (n, hub) = (200, 10);
        let mut g = DiGraph::from_edges(n, (0..n).map(|i| (i, (i + 1) % n)).collect::<Vec<_>>());
        for i in 0..n {
            g.add_edge(i, (7 * i + 3) % n);
        }
        for i in 50..n {
            g.add_edge(i, hub);
        }
        let store = ShardedFactorStore::new(
            g,
            MatrixKind::random_walk_default(),
            f64::INFINITY,
            NodePartition::contiguous(n, 4),
        )
        .unwrap();
        let hub_row = store.published_coupling.entries().filter(|e| e.0 == hub);
        assert!(hub_row.count() >= 100);
        assert!(!store.snapshot().coupling_plan().is_triangular());
        assert_coupled_answers_exact(&store, n);
        let q = MeasureQuery::Rwr {
            seed: hub,
            damping: 0.85,
        };
        let dense = dense_answer(store.graph(), store.matrix_kind(), &q);
        for (x, y) in store.snapshot().query(&q).unwrap().iter().zip(&dense) {
            assert!((x - y).abs() <= 1e-9, "{x} vs dense {y}");
        }
    }

    #[test]
    fn every_ordering_change_refreezes_the_coupling_and_answers_stay_exact() {
        // 24 nodes on 3 contiguous shards.  Nodes 0..7 link only inside
        // shard 0, so edges among them rescale shard 0's columns alone: a
        // batch of them writes no coupling entry, and under a zero quality
        // budget its fill makes shard 0 re-order.
        let n = 24;
        let mut store = ShardedFactorStore::new(
            base_graph(n),
            MatrixKind::random_walk_default(),
            0.0,
            NodePartition::contiguous(n, 3),
        )
        .unwrap();
        assert_coupled_answers_exact(&store, n);
        let mut reordered = false;
        for k in 0..6 {
            let before = store.snapshot();
            before.coupling_plan();
            let report = store
                .advance(&GraphDelta {
                    added: vec![(k, (k + 3) % 7), ((k + 2) % 7, k)],
                    removed: vec![],
                })
                .unwrap();
            assert_eq!(report.coupling_writes, 0);
            let after = store.snapshot();
            let held = orderings_held(&before, &after);
            assert_eq!(
                report.per_shard[0].arm == Some(MaintenanceArm::Reorder),
                !held
            );
            assert_eq!(report.coupling_republished, !held);
            assert_eq!(
                after.shared_coupling().built_plan().is_some(),
                held,
                "a moved ordering left the old plan in place"
            );
            assert_coupled_answers_exact(&store, n);
            if !held {
                reordered = true;
                break;
            }
        }
        assert!(reordered, "shard 0 never re-ordered");

        let restored = ShardedFactorStore::restore(
            store.max_quality_loss,
            store.tolerance,
            store.durable_state(),
        )
        .unwrap();
        assert!(restored.snapshot().shared_coupling().built_plan().is_none());
        assert_coupled_answers_exact(&restored, n);
    }

    #[test]
    fn two_threads_solving_one_fresh_snapshot_share_one_plan() {
        let store = four_shard_coupled_store();
        let snap = store.snapshot();
        assert_eq!(snap.n_shards(), 4);
        assert!(snap.shared_coupling().built_plan().is_none());
        let q = MeasureQuery::Rwr {
            seed: 3,
            damping: 0.85,
        };
        let barrier = std::sync::Barrier::new(2);
        let solve = || {
            barrier.wait();
            (snap.query(&q).unwrap(), snap.coupling_plan())
        };
        let ((a, plan_a), (b, plan_b)) = std::thread::scope(|scope| {
            let one = scope.spawn(solve);
            let two = scope.spawn(solve);
            (one.join().unwrap(), two.join().unwrap())
        });
        let bits_of = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits_of(&a), bits_of(&b));
        assert!(std::ptr::eq(plan_a, plan_b));
        let built = snap.shared_coupling().built_plan().unwrap();
        assert!(std::ptr::eq(plan_a, built));
        let dense = dense_answer(store.graph(), store.matrix_kind(), &q);
        for (x, y) in a.iter().zip(&dense) {
            assert!((x - y).abs() <= 1e-9, "{x} vs dense {y}");
        }
    }

    #[test]
    fn sharded_value_only_batches_refactor_and_stay_exact() {
        let n = 12;
        let g = base_graph(n);
        let kind = MatrixKind::random_walk_default();
        let partition = NodePartition::contiguous(n, 3);
        let mut sharded = ShardedFactorStore::new(g, kind, f64::INFINITY, partition).unwrap();
        // Removing an intra-shard edge is always value-only: shard 0 absorbs
        // it by a pass down its structure as it stands, the other shards stay
        // idle.
        let delta = GraphDelta {
            added: vec![],
            removed: vec![(2, 0)],
        };
        let report = sharded.advance(&delta).unwrap();
        assert_eq!(report.per_shard[0].arm, Some(MaintenanceArm::Refactor));
        assert_eq!(report.per_shard[0].slots_added, 0);
        assert!(report.per_shard[0].entries_applied > 0);
        assert_eq!(report.per_shard[1].arm, None);
        assert_eq!(report.per_shard[2].arm, None);
        sharded.assert_consistent(1e-9);
        assert_queries_match(&sharded, n);
        // A structural intra-shard addition takes the same arm over the
        // structure extended to cover it.
        let delta = GraphDelta {
            added: vec![(1, 3)],
            removed: vec![],
        };
        let report = sharded.advance(&delta).unwrap();
        assert_eq!(report.per_shard[0].arm, Some(MaintenanceArm::Refactor));
        assert!(report.per_shard[0].slots_added > 0);
        sharded.assert_consistent(1e-9);
        assert_queries_match(&sharded, n);
    }

    /// The published blocks of `shards` are ordered by the paper's Markowitz
    /// rule applied to the shard's current measure matrix.
    fn assert_markowitz_ordered(store: &ShardedFactorStore, shards: impl Iterator<Item = usize>) {
        for s in shards {
            let matrix =
                shard_measure_matrix(store.graph(), store.matrix_kind(), store.partition(), s);
            assert_eq!(
                *store.shards[s].ordering,
                clude_lu::markowitz_ordering(&matrix.pattern()).ordering,
                "shard {s}"
            );
        }
    }

    #[test]
    fn every_factorization_is_markowitz_ordered() {
        // A scrambled sparse graph (ring + two multiplicative chords per
        // node) over an interleaved partition: dense coupling, and shard
        // blocks irregular enough that fill-reducing heuristics disagree.
        let n = 48;
        let mut g = DiGraph::from_edges(n, (0..n).map(|i| (i, (i + 1) % n)).collect::<Vec<_>>());
        for u in 0..n {
            g.add_edge(u, (u * 7 + 3) % n);
            g.add_edge(u, (u * 11 + 8) % n);
        }
        let mut store = ShardedFactorStore::new(
            g,
            MatrixKind::random_walk_default(),
            0.0,
            NodePartition::from_assignments((0..n).map(|u| u % 2).collect()),
        )
        .unwrap();
        assert_markowitz_ordered(&store, 0..2);

        // Densify until a shard's factors grow past the zero budget: the
        // refreshed shard is re-ordered for the matrix it holds now.
        let mut refreshed = 0;
        for k in 0..n {
            let delta = GraphDelta {
                added: vec![(k, (k + 4) % n), (k, (k + 10) % n)],
                removed: vec![],
            };
            let report = store.advance(&delta).unwrap();
            let hit = (0..2).filter(|&s| report.per_shard[s].arm == Some(MaintenanceArm::Reorder));
            refreshed += hit.clone().count();
            assert_markowitz_ordered(&store, hit);
        }
        assert!(refreshed > 0, "densification never tripped a refresh");
        assert_queries_match(&store, n);
    }

    #[test]
    fn exhausted_sweep_budget_fails_loudly() {
        use clude_telemetry::{Counter, EventKind};
        let n = 12;
        let telemetry = Arc::new(TelemetryRegistry::default());
        let store = ShardedFactorStore::new(
            base_graph(n),
            MatrixKind::random_walk_default(),
            f64::INFINITY,
            NodePartition::contiguous(n, 3),
        )
        .unwrap()
        .with_telemetry(Arc::clone(&telemetry))
        .with_tolerance(SolveTolerance {
            tol: 1e-13,
            max_sweeps: 1,
        })
        .unwrap();
        assert!(store.coupling_nnz() > 0, "ring edges cross the shards");
        let err = store
            .snapshot()
            .query(&MeasureQuery::PageRank { damping: 0.85 })
            .unwrap_err();
        assert!(matches!(
            err,
            LuError::ConvergenceFailure { iterations: 1, .. }
        ));
        // Journalled, not just returned: one counter tick, one typed event,
        // and no sweep sample for a column that never converged.
        assert_eq!(telemetry.counter(Counter::ConvergenceFailures), 1);
        assert_eq!(
            telemetry.journal().count_of(EventKind::ConvergenceFailure),
            1
        );
        assert!(telemetry
            .journal()
            .entries()
            .iter()
            .any(|e| matches!(e.event, EngineEvent::ConvergenceFailure { sweeps: 1, .. })));
        assert!(telemetry.coupling_sweeps().is_empty());
    }

    #[test]
    fn unmeetable_tolerances_are_invalid_configs() {
        // The store's own door (`CludeEngine` checks its whole config before
        // it gets here).
        let n = 8;
        for (tol, max_sweeps) in [(f64::NAN, 10), (f64::INFINITY, 10), (0.0, 10), (1e-13, 0)] {
            let err = ShardedFactorStore::new(
                base_graph(n),
                MatrixKind::random_walk_default(),
                f64::INFINITY,
                NodePartition::contiguous(n, 2),
            )
            .unwrap()
            .with_tolerance(SolveTolerance { tol, max_sweeps })
            .unwrap_err();
            assert!(matches!(err, EngineError::InvalidConfig(_)), "{err}");
        }
    }

    #[test]
    fn a_negative_or_nan_budget_is_an_invalid_config_of_the_store() {
        // The store's own doors, built and restored: no comparison against a
        // negative budget keeps a block, none against NaN re-orders one.
        let n = 8;
        let kind = MatrixKind::random_walk_default();
        let store =
            ShardedFactorStore::new(base_graph(n), kind, 1.0, NodePartition::contiguous(n, 2))
                .unwrap();
        for budget in [-0.5, f64::NAN] {
            let built = ShardedFactorStore::new(
                base_graph(n),
                kind,
                budget,
                NodePartition::contiguous(n, 2),
            );
            let restored =
                ShardedFactorStore::restore(budget, store.tolerance, store.durable_state());
            for err in [built.unwrap_err(), restored.unwrap_err()] {
                assert!(matches!(err, EngineError::InvalidConfig(_)), "{err}");
                assert!(err.to_string().contains("max_quality_loss"), "{err}");
            }
        }
    }

    #[test]
    fn out_of_range_deltas_are_rejected_without_mutating() {
        let n = 8;
        let g = base_graph(n);
        let mut store = ShardedFactorStore::new(
            g.clone(),
            MatrixKind::random_walk_default(),
            f64::INFINITY,
            NodePartition::contiguous(n, 2),
        )
        .unwrap();
        let err = store
            .advance(&GraphDelta {
                added: vec![(0, 99)],
                removed: vec![],
            })
            .unwrap_err();
        assert!(matches!(
            err,
            crate::error::EngineError::NodeOutOfRange { node: 99, .. }
        ));
        assert_eq!(store.snapshot_id(), 0);
        assert_eq!(store.graph().n_edges(), g.n_edges());
    }

    #[test]
    fn accessors_expose_state() {
        let n = 8;
        let store = ShardedFactorStore::new(
            base_graph(n),
            MatrixKind::random_walk_default(),
            1.0,
            NodePartition::contiguous(n, 2),
        )
        .unwrap();
        assert_eq!(store.matrix_kind(), MatrixKind::random_walk_default());
        assert_eq!(store.max_quality_loss(), 1.0);
        assert_eq!(store.n_shards(), 2);
        assert_eq!(store.partition().n_nodes(), n);
        assert!(store.factor_nnz() > 0);
        assert_eq!(store.quality_loss(), 0.0);
        assert_eq!(store.snapshot_id(), 0);
        let snap = store.snapshot();
        assert_eq!(snap.n_shards(), 2);
        assert_eq!(snap.id(), 0);
        assert_eq!(snap.coupling_nnz(), store.coupling_nnz());
    }

    #[test]
    fn an_empty_universe_reports_no_quality_loss_and_advances() {
        // Its one block is empty: no size to measure a loss against, and
        // none to lose.
        let kind = MatrixKind::random_walk_default();
        let mut store =
            ShardedFactorStore::new(DiGraph::new(0), kind, 0.0, NodePartition::singleton(0))
                .unwrap();
        assert_eq!(store.quality_loss(), 0.0);
        let report = store.advance(&GraphDelta::empty()).unwrap();
        assert_eq!((report.snapshot_id, report.quality_loss), (1, 0.0));
        assert!(!report.refreshed);
    }

    #[test]
    fn btf_partition_makes_gauss_seidel_one_sweep_exact() {
        // Three 4-node cycles bridged 0 → 1 → 2 in one direction only: the
        // SCCs are the cycles and the cross-shard coupling is block
        // triangular in SCC topological order.  Under a one-sweep budget —
        // which makes cyclic coupling fail loudly (see
        // `exhausted_sweep_budget_fails_loudly`) — the BTF-partitioned
        // Gauss–Seidel solve must still be exact.
        let n = 12;
        let mut g = DiGraph::new(n);
        for s in 0..3 {
            for i in 0..4 {
                g.add_edge(s * 4 + i, s * 4 + (i + 1) % 4);
            }
        }
        g.add_edge(3, 4);
        g.add_edge(7, 8);
        let kind = MatrixKind::random_walk_default();
        let (partition, report) = btf_partition(&g, kind, 3);
        assert_eq!(report.n_sccs, 3);
        assert!(report.transversal_full);
        let mut store = ShardedFactorStore::new(g, kind, f64::INFINITY, partition)
            .unwrap()
            .with_tolerance(SolveTolerance {
                tol: 1e-13,
                max_sweeps: 1,
            })
            .unwrap();
        assert!(store.coupling_nnz() > 0, "bridges cross the shards");
        assert!(store.snapshot().coupling_plan().is_triangular());
        assert_queries_match(&store, n);

        // Evolve the graph without breaking the DAG shape: the rebuilt plan
        // must stay triangular and one-sweep exact.
        let delta = GraphDelta {
            added: vec![(2, 5)],
            removed: vec![(3, 4)],
        };
        store.advance(&delta).unwrap();
        assert!(store.snapshot().coupling_plan().is_triangular());
        assert_queries_match(&store, n);
    }

    fn bits(entries: Vec<(usize, usize, f64)>) -> Vec<(usize, usize, u64)> {
        entries
            .into_iter()
            .map(|(i, j, v)| (i, j, v.to_bits()))
            .collect()
    }

    fn float_bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// Every block the store serves sits on a structure closed under
    /// elimination, so every numeric pass over it is reach-limited.
    fn assert_blocks_closed(store: &ShardedFactorStore) {
        for (s, shard) in store.shards.iter().enumerate() {
            assert!(
                shard.factors().structure().is_elimination_closed(),
                "shard {s}"
            );
        }
    }

    #[test]
    fn structure_is_shared_across_value_only_publishes_and_rebuilt_after_a_fill_in() {
        let n = 12;
        let mut store = ShardedFactorStore::new(
            base_graph(n),
            MatrixKind::random_walk_default(),
            f64::INFINITY,
            NodePartition::contiguous(n, 3),
        )
        .unwrap();
        let q = MeasureQuery::PageRank { damping: 0.85 };
        let snap0 = store.snapshot();
        let answer0 = snap0.query(&q).unwrap();
        let structure_of =
            |store: &ShardedFactorStore| Arc::clone(store.shards[0].factors().structure());
        let s0 = structure_of(&store);

        // Value-only (a removal rescales stored positions): new block, new
        // values, the same structure handle.
        let report = store
            .advance(&GraphDelta {
                added: vec![],
                removed: vec![(2, 0)],
            })
            .unwrap();
        assert_eq!(report.per_shard[0].arm, Some(MaintenanceArm::Refactor));
        assert!(!Arc::ptr_eq(&snap0.shards()[0], store.shards[0].block()));
        assert!(Arc::ptr_eq(&s0, &structure_of(&store)));
        assert_blocks_closed(&store);

        // A new intra-shard position is a fill-in: the pattern moved, the
        // next block sits on a structure of its own.
        let report = store
            .advance(&GraphDelta {
                added: vec![(1, 3)],
                removed: vec![],
            })
            .unwrap();
        assert_eq!(report.per_shard[0].arm, Some(MaintenanceArm::Refactor));
        let s2 = structure_of(&store);
        assert!(!Arc::ptr_eq(&s0, &s2));
        assert!(s2.nnz() > s0.nnz());
        assert_blocks_closed(&store);

        // And the moved pattern is shared again from there on.
        store
            .advance(&GraphDelta {
                added: vec![],
                removed: vec![(1, 3)],
            })
            .unwrap();
        assert!(Arc::ptr_eq(&s2, &structure_of(&store)));
        assert_blocks_closed(&store);

        // Time travel over the moved structure: the pre-fill-in snapshot
        // still answers from its own block, bit for bit.
        let again = snap0.query(&q).unwrap();
        assert_eq!(float_bits(&answer0), float_bits(&again));
    }

    /// Four rings of 32 pages on 4 contiguous shards, a chord in shards 0
    /// and 2, and cross links between neighbouring shards.
    fn four_rings() -> ShardedFactorStore {
        let n = 128;
        let mut g = DiGraph::new(n);
        for s in 0..4 {
            for i in 0..32 {
                g.add_edge(32 * s + i, 32 * s + (i + 1) % 32);
            }
            g.add_edge(32 * s + 5, 32 * ((s + 1) % 4) + 7);
        }
        g.add_edge(3, 17);
        g.add_edge(64, 66);
        ShardedFactorStore::new(
            g,
            MatrixKind::random_walk_default(),
            f64::INFINITY,
            NodePartition::contiguous(n, 4),
        )
        .unwrap()
    }

    /// The rows of shard `s`'s block the batch from `before` to the store's
    /// graph changed the columns of, split into those holding a new position
    /// of the block's matrix and those that only followed one — the cascade.
    fn escaped_and_cascaded(
        store: &ShardedFactorStore,
        before: &EngineSnapshot,
        s: usize,
    ) -> (Vec<usize>, Vec<usize>) {
        let (old, new) = (
            before.shards()[s].factors.structure(),
            store.shards[s].factors().structure(),
        );
        let matrix = shard_measure_matrix(store.graph(), store.matrix_kind(), store.partition(), s)
            .reorder(&store.shards[s].ordering)
            .unwrap();
        (0..old.n())
            .filter(|&i| old.row_cols(i) != new.row_cols(i))
            .partition(|&i| matrix.row(i).0.iter().any(|&j| !old.contains(i, j)))
    }

    #[test]
    fn one_batch_taking_every_arm_answers_exactly() {
        // One batch, both arms, run one after another on this thread, under a
        // zero quality budget: a chord in shard 0 escapes its block's
        // structure at one row and the extension cascades down the rows below
        // it (the pass over the extended copy), shard 1 grew in an earlier
        // batch and is over budget (a re-order), dropping shard 2's chord
        // rescales stored positions (the pass over a plain copy), and shard 3
        // sits idle.
        let mut store = four_rings();
        store.max_quality_loss = 0.0;
        let grown = store
            .advance(&GraphDelta {
                added: vec![(35, 52)],
                removed: vec![],
            })
            .unwrap();
        assert!(grown.per_shard[1].slots_added > 0 && !grown.refreshed);
        let before = store.snapshot();
        let report = store
            .advance(&GraphDelta {
                added: vec![(0, 9), (37, 50)],
                removed: vec![(64, 66)],
            })
            .unwrap();
        let arms: Vec<_> = report.per_shard.iter().map(|s| s.arm).collect();
        assert_eq!(
            arms,
            [
                Some(MaintenanceArm::Refactor),
                Some(MaintenanceArm::Reorder),
                Some(MaintenanceArm::Refactor),
                None
            ]
        );
        let (escaped, cascaded) = escaped_and_cascaded(&store, &before, 0);
        assert_eq!(escaped.len(), 1);
        assert!(cascaded.len() > 1, "{cascaded:?}");
        let grown = |s: usize| {
            let old = &before.shards()[s].factors;
            (store.shards[s].factors().nnz() - old.nnz()) as u64
        };
        assert!(report.per_shard[0].slots_added > 0);
        assert_eq!(report.per_shard[0].slots_added, grown(0));
        assert!(report.per_shard[1..].iter().all(|s| s.slots_added == 0));
        assert!(report.per_shard[0].rows_refactored > 0);
        assert!(report.per_shard[2].rows_refactored > 0);
        assert_eq!(report.per_shard[1].rows_refactored, 0);
        // Page 37's new chord rescales its cross link into shard 2.
        assert_eq!(report.coupling_writes, 1);
        assert!(report.refreshed && report.coupling_republished);
        assert_blocks_closed(&store);
        store.assert_consistent(1e-12);
        assert_coupled_answers_exact(&store, 128);
    }

    /// The elimination reach of the rows in which two matrices differ, from
    /// a block's layout alone: ascending, a row is in it when its matrix row
    /// changed or one of its `L` columns is.
    fn reach_oracle(
        structure: &clude_lu::LuStructure,
        old: &CsrMatrix,
        new: &CsrMatrix,
    ) -> Vec<bool> {
        let mut reach = vec![false; structure.n()];
        for i in 0..structure.n() {
            let changed = old.row(i) != new.row(i);
            reach[i] = changed || structure.row_cols(i).iter().any(|&k| k < i && reach[k]);
        }
        reach
    }

    #[test]
    fn a_value_only_batch_rewrites_only_its_elimination_reach() {
        // Removals from a wiki-like 400-page graph at 4 shards: every slice
        // is value-only.  Per shard and batch, against a reach computed from
        // the matrices alone: the pass recomputed exactly the reach, every
        // slot of every other row is the previous block's bit for bit, and
        // every block stays closed under elimination.
        let (base, _) = wiki_stream(400, 0, 2, 11);
        let partition = edge_locality_partition(&base, 4);
        let kind = MatrixKind::random_walk_default();
        let mut store = ShardedFactorStore::new(base, kind, f64::INFINITY, partition).unwrap();
        let (mut recomputed, mut rows) = (0, 0);
        for batch in 0..6 {
            let removed: Vec<(usize, usize)> = store
                .graph()
                .edges()
                .skip(37 * batch)
                .step_by(53)
                .take(8)
                .collect();
            let old_graph = store.graph().clone();
            let old_snapshot = store.snapshot();
            let report = store
                .advance(&GraphDelta {
                    added: vec![],
                    removed,
                })
                .unwrap();
            assert_blocks_closed(&store);
            for (s, shard) in report.per_shard.iter().enumerate() {
                if shard.arm.is_none() {
                    continue;
                }
                assert_eq!(shard.arm, Some(MaintenanceArm::Refactor));
                let (old, new) = (&old_snapshot.shards()[s].factors, store.shards[s].factors());
                assert!(Arc::ptr_eq(old.structure(), new.structure()));
                assert!(new.structure().is_elimination_closed());
                let ordering = &store.shards[s].ordering;
                let matrix = |g: &DiGraph| {
                    shard_measure_matrix(g, kind, store.partition(), s)
                        .reorder(ordering)
                        .unwrap()
                };
                let reach =
                    reach_oracle(new.structure(), &matrix(&old_graph), &matrix(store.graph()));
                let in_reach = reach.iter().filter(|&&r| r).count() as u64;
                assert_eq!(shard.rows_refactored, in_reach, "shard {s}, batch {batch}");
                assert_eq!(shard.block_order, reach.len() as u64);
                let outside = |f: &clude_lu::LuFactors| {
                    bits(f.export_entries())
                        .into_iter()
                        .filter(|e| !reach[e.0])
                        .collect::<Vec<_>>()
                };
                assert_eq!(outside(new), outside(old), "shard {s}, batch {batch}");
                recomputed += shard.rows_refactored;
                rows += shard.block_order;
            }
        }
        assert!(
            recomputed > 0 && 2 * recomputed < rows,
            "{recomputed} of {rows} rows"
        );
        store.assert_consistent(1e-9);
    }

    #[test]
    fn a_re_order_prunes_the_zeros_removals_left_and_later_passes_share_its_structure() {
        let n = 12;
        let mut store = ShardedFactorStore::new(
            base_graph(n),
            MatrixKind::random_walk_default(),
            f64::INFINITY,
            NodePartition::singleton(n),
        )
        .unwrap();
        let structure_of =
            |store: &ShardedFactorStore| Arc::clone(store.shards[0].factors().structure());
        // The symbolic closure of the shard's matrix as it is now, without
        // stored zeros, under the shard's ordering.
        let closure = |store: &ShardedFactorStore| {
            let matrix =
                shard_measure_matrix(store.graph(), store.matrix_kind(), store.partition(), 0)
                    .reorder(&store.shards[0].ordering)
                    .unwrap();
            clude_lu::symbolic_size(&matrix.pattern())
        };
        // Two removals and an insert, absorbed by the pass over the extended
        // block: the removed positions stay behind as slots.
        let report = store
            .advance(&GraphDelta {
                added: vec![(1, 7)],
                removed: vec![(2, 0), (6, 1)],
            })
            .unwrap();
        assert_eq!(report.per_shard[0].arm, Some(MaintenanceArm::Refactor));
        assert!(structure_of(&store).nnz() > closure(&store));
        // The next structural batch is re-ordered: the block is on the closed
        // pattern of the matrix as it is now, the stored zeros gone.
        store.forced_arm = Some(MaintenanceArm::Reorder);
        let report = store
            .advance(&GraphDelta {
                added: vec![(3, 9)],
                removed: vec![],
            })
            .unwrap();
        assert_eq!(report.per_shard[0].arm, Some(MaintenanceArm::Reorder));
        assert!(report.refreshed);
        assert_blocks_closed(&store);
        let reordered = structure_of(&store);
        assert_eq!(reordered.nnz(), closure(&store));
        assert_eq!(store.shards[0].reference_nnz, reordered.nnz());
        store.assert_consistent(1e-12);
        assert_queries_match(&store, n);
        // A value-only batch after it: a pass over the same structure.
        store.forced_arm = None;
        let report = store
            .advance(&GraphDelta {
                added: vec![],
                removed: vec![(3, 9)],
            })
            .unwrap();
        assert_eq!(report.per_shard[0].arm, Some(MaintenanceArm::Refactor));
        assert!(Arc::ptr_eq(&reordered, &structure_of(&store)));
        assert_blocks_closed(&store);
        assert_queries_match(&store, n);
    }

    /// The wiki-like shapes of `live-mono` (one 400-page block, 58 changed
    /// columns a batch) and `ingest-structure` (four 500-page blocks, 14).
    fn wiki_stream(
        n_pages: usize,
        grow_by: usize,
        n_snapshots: usize,
        seed: u64,
    ) -> (DiGraph, Vec<GraphDelta>) {
        use clude_graph::generators::wiki_like::{self, WikiLikeConfig};
        use rand::{rngs::StdRng, SeedableRng};
        let config = WikiLikeConfig {
            n_pages,
            initial_links: n_pages * 3,
            final_links: n_pages * 3 + grow_by,
            n_snapshots,
            removals_per_snapshot: 8,
            burst_probability: 0.08,
            burst_size: if n_pages >= 1_000 { 25 } else { 10 },
        };
        let egs = wiki_like::generate(&config, &mut StdRng::seed_from_u64(seed));
        // The engine's batches: the steps flattened (removals, then
        // additions) and cut every 64 operations.
        let mut ops = Vec::new();
        for step in 0..egs.len() - 1 {
            let delta = egs.delta(step);
            ops.extend(delta.removed.iter().map(|&e| (false, e)));
            ops.extend(delta.added.iter().map(|&e| (true, e)));
        }
        let batches = ops
            .chunks(64)
            .map(|chunk| GraphDelta {
                added: chunk.iter().filter(|op| op.0).map(|op| op.1).collect(),
                removed: chunk.iter().filter(|op| !op.0).map(|op| op.1).collect(),
            })
            .collect();
        (egs.snapshot(0), batches)
    }

    #[test]
    fn a_structural_slice_recomputes_less_than_its_block_and_answers_exactly() {
        // A densifying wiki-like stream on four shards: every slice that
        // brings a new position into its block is extended and recomputed
        // over its changed rows' elimination reach, which stays short of the
        // block, and the answers stay those of dense elimination.
        let query = MeasureQuery::Rwr {
            seed: 3,
            damping: 0.85,
        };
        for seed in [11, 97] {
            let (base, batches) = wiki_stream(400, 2_200, 30, seed);
            let partition = edge_locality_partition(&base, 4);
            let mut store =
                ShardedFactorStore::new(base, MatrixKind::random_walk_default(), 1.0, partition)
                    .unwrap();
            let (mut structural, mut recomputed, mut rows) = (0, 0, 0);
            for (b, delta) in batches.iter().enumerate() {
                let report = store.advance(delta).unwrap();
                for shard in &report.per_shard {
                    if shard.arm != Some(MaintenanceArm::Refactor) || shard.slots_added == 0 {
                        continue;
                    }
                    assert!(
                        shard.rows_refactored < shard.block_order,
                        "seed {seed}, batch {b}: {} of {} rows",
                        shard.rows_refactored,
                        shard.block_order
                    );
                    structural += 1;
                    recomputed += shard.rows_refactored;
                    rows += shard.block_order;
                }
                if b % 8 == 0 || b + 1 == batches.len() {
                    let got = store.snapshot().query(&query).unwrap();
                    let want = dense_answer(store.graph(), store.matrix_kind(), &query);
                    for (x, y) in got.iter().zip(&want) {
                        assert!((x - y).abs() <= 1e-9, "seed {seed}, batch {b}: {x} vs {y}");
                    }
                }
            }
            assert!(
                structural > batches.len(),
                "seed {seed}: {structural} slices"
            );
            assert!(
                2 * recomputed < rows,
                "seed {seed}: {recomputed} of {rows} rows"
            );
        }
    }

    #[test]
    fn no_published_block_builds_a_column_index() {
        // Structural slices extend and refactorize their blocks row by row,
        // re-orders factorize afresh, and queries substitute: none of them
        // walks a column of L, so no block the store publishes, now or
        // earlier, holds the strictly-lower column index.
        let (base, batches) = wiki_stream(400, 2_200, 30, 11);
        let partition = edge_locality_partition(&base, 4);
        let budget = 0.05;
        let mut store =
            ShardedFactorStore::new(base, MatrixKind::random_walk_default(), budget, partition)
                .unwrap();
        let query = MeasureQuery::Rwr {
            seed: 3,
            damping: 0.85,
        };
        let (mut structural, mut reorders, mut published) = (0, 0, Vec::new());
        for delta in &batches {
            let report = store.advance(delta).unwrap();
            for shard in &report.per_shard {
                structural += usize::from(shard.slots_added > 0);
                reorders += usize::from(shard.arm == Some(MaintenanceArm::Reorder));
            }
            let snapshot = store.snapshot();
            snapshot.query(&query).unwrap();
            published.push(snapshot);
        }
        assert!(structural > 0 && reorders > 0, "{structural} / {reorders}");
        for (b, snapshot) in published.iter().enumerate() {
            for (s, shard) in snapshot.shards().iter().enumerate() {
                let structure = shard.factors.structure();
                assert!(!structure.has_lower_index(), "batch {b}, shard {s}");
            }
        }
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// The coupling by the triplet route, from the graph alone:
        /// [`coupling_matrix`] (a `CooMatrix` through `from_coo`) with exact
        /// zeros dropped.
        fn coupling_via_triplets(store: &ShardedFactorStore) -> CsrMatrix {
            let n = store.graph().n_nodes();
            let mut coo = clude_sparse::CooMatrix::new(n, n);
            let full = coupling_matrix(store.graph(), store.matrix_kind(), store.partition());
            for (i, j, v) in full.iter().filter(|e| e.2 != 0.0) {
                coo.push(i, j, v).unwrap();
            }
            CsrMatrix::from_coo(&coo)
        }

        /// A valid batch out of random `(op, u, v)` triples: two in three
        /// operations remove (value-only when the edge exists), one adds
        /// (structural when it does not).
        fn random_delta(graph: &DiGraph, batch: &[(usize, usize, usize)]) -> GraphDelta {
            let mut delta = GraphDelta::empty();
            for &(op, u, v) in batch {
                if u == v {
                    continue;
                }
                let present = graph.has_edge(u, v);
                if op == 0 && !present && !delta.added.contains(&(u, v)) {
                    delta.added.push((u, v));
                } else if op != 0 && present && !delta.removed.contains(&(u, v)) {
                    delta.removed.push((u, v));
                }
            }
            delta
        }

        /// The coupling as the graph has it: its nonzero entries are
        /// [`coupling_matrix`]'s with zeros dropped, bit for bit,
        /// `coupling_nnz` counts them, and the order and verdict a solve
        /// plans are the ones a fresh layout of them gives.
        fn assert_coupling_is_the_graphs(store: &ShardedFactorStore) {
            let oracle = coupling_via_triplets(store);
            let live = live_entries(store.graph().n_nodes(), &store.published_coupling);
            assert_eq!(bits(live.iter().collect()), bits(oracle.iter().collect()));
            assert_eq!(store.coupling_nnz(), oracle.nnz());
            let snap = store.snapshot();
            let plan = snap.coupling_plan();
            let planned = (plan.gs_order().to_vec(), plan.is_triangular());
            assert_eq!(planned, plan_over(store, &oracle));
        }

        /// Whether `after`'s coupling holds a live position `before`'s had
        /// no slot for.
        fn new_position(before: &EngineSnapshot, after: &EngineSnapshot) -> bool {
            let slots: std::collections::HashSet<(usize, usize)> = before
                .shared_coupling()
                .entries()
                .map(|(i, j, _)| (i, j))
                .collect();
            let mut live = after.shared_coupling().entries().filter(|e| e.2 != 0.0);
            live.any(|(i, j, _)| !slots.contains(&(i, j)))
        }

        /// The coupling structure survives a batch exactly when the batch
        /// wrote no new position and moved no ordering; a batch that lays it
        /// out anew leaves no zero slot.
        fn assert_structure_follows(before: &EngineSnapshot, after: &EngineSnapshot) {
            let relaid = !orderings_held(before, after) || new_position(before, after);
            let (was, now) = (before.shared_coupling(), after.shared_coupling());
            assert_eq!(Arc::ptr_eq(was.structure(), now.structure()), !relaid);
            if relaid {
                assert_eq!(now.structure().slots(), now.nnz());
            }
        }

        /// The state a checkpoint of `store` restores to, checked against
        /// the live store: the image's fields, the coupling's nonzero
        /// entries bit for bit and no zero slot, no factor slot or
        /// quality-loss above the live shard's, answers within 1e-12 of the
        /// live store's and 1e-9 of dense elimination, and no plan built by
        /// the restore.
        fn assert_restores_to(store: &ShardedFactorStore) {
            let image = store.durable_state();
            let restored =
                ShardedFactorStore::restore(store.max_quality_loss, store.tolerance, image.clone())
                    .unwrap();
            assert!(restored.snapshot().shared_coupling().built_plan().is_none());
            assert_eq!(restored.durable_state(), image);
            let n = store.graph().n_nodes();
            let entries = |s: &ShardedFactorStore| {
                bits(live_entries(n, &s.published_coupling).iter().collect())
            };
            assert_eq!(entries(&restored), entries(store));
            let coupling = &restored.published_coupling;
            assert_eq!(coupling.structure().slots(), coupling.nnz());
            assert_coupling_is_the_graphs(&restored);
            assert_coupling_is_the_graphs(store);
            for (s, (back, live)) in restored.shards.iter().zip(&store.shards).enumerate() {
                assert!(back.factors().nnz() <= live.factors().nnz(), "shard {s}");
                assert!(back.quality_loss() <= live.quality_loss(), "shard {s}");
            }
            let n = store.graph().n_nodes();
            let (live, back) = (store.snapshot(), restored.snapshot());
            let answers: Vec<(Vec<f64>, Vec<f64>, Vec<f64>)> = match store.kind {
                MatrixKind::RandomWalk { .. } => [
                    MeasureQuery::PageRank { damping: 0.85 },
                    MeasureQuery::Rwr {
                        seed: 3,
                        damping: 0.85,
                    },
                ]
                .iter()
                .map(|q| {
                    let dense = dense_answer(store.graph(), store.kind, q);
                    (live.query(q).unwrap(), back.query(q).unwrap(), dense)
                })
                .collect(),
                MatrixKind::SymmetricLaplacian { .. } => {
                    let a = clude_graph::measure_matrix(store.graph(), store.kind).to_dense();
                    let b: Vec<f64> = (0..n).map(|i| ((i * 7) % 5) as f64 - 2.0).collect();
                    let dense = a.solve_gaussian(&b).unwrap();
                    let solve = |snap: &EngineSnapshot| snap.solve_measure_system(&b).unwrap();
                    vec![(solve(&live), solve(&back), dense)]
                }
            };
            for (live, back, dense) in answers {
                for ((x, y), z) in live.iter().zip(&back).zip(&dense) {
                    assert!((x - y).abs() <= 1e-12, "live {x} vs restored {y}");
                    assert!((y - z).abs() <= 1e-9, "restored {y} vs dense {z}");
                }
            }
        }

        /// The bit oracle of the reach pass: each shard's block equals
        /// [`clude_lu::refactor_frozen`] run over a copy of the block — its
        /// own structure, every row recomputed by the same kernel — from the
        /// shard's held matrix, bit for bit.  A pass over the changed rows'
        /// reach leaves every other row as the last full computation left
        /// it, and a row whose matrix row and `L` dependencies did not
        /// change computes to the same bits.
        fn assert_blocks_are_full_passes(store: &ShardedFactorStore) {
            for (s, shard) in store.shards.iter().enumerate() {
                let block = shard.factors();
                let mut full = block.clone();
                let stats = clude_lu::refactor_frozen(
                    &mut full,
                    shard.maintainer.matrix(),
                    &mut clude_lu::RefactorWorkspace::new(),
                )
                .unwrap();
                assert_eq!(stats.rows_refactored, block.n(), "shard {s}");
                assert!(Arc::ptr_eq(full.structure(), block.structure()));
                assert_eq!(
                    bits(full.export_entries()),
                    bits(block.export_entries()),
                    "shard {s}"
                );
            }
        }

        /// A checkpoint restores to the live store after every batch of a
        /// mixed stream, whichever arm maintained the blocks: both matrix
        /// kinds, one shard, and four shards partitioned by edge locality or
        /// by BTF structure, under the free decision and each arm
        /// forced in turn — every arm fires on every configuration.  And
        /// every published block is, bit for bit, a full numeric pass over
        /// its own structure from the shard's held matrix
        /// ([`assert_blocks_are_full_passes`]).
        #[test]
        fn restore_matches_the_live_store_after_every_batch_and_arm() {
            // Four 6-node cycles with a chord each, bridged forward: four
            // strongly connected blocks, so BTF splits too.
            let n = 24;
            let mut g = DiGraph::new(n);
            for b in 0..4 {
                for i in 0..6 {
                    g.add_edge(6 * b + i, 6 * b + (i + 1) % 6);
                }
                g.add_edge(6 * b, 6 * b + 3);
                if b < 3 {
                    g.add_edge(6 * b + 1, 6 * b + 8);
                }
            }
            let mut seed = 0x9e37_79b9_u64;
            let mut next = |bound: usize| {
                seed = seed.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                (seed >> 33) as usize % bound
            };
            let batches: Vec<Vec<(usize, usize, usize)>> = (0..10)
                .map(|_| {
                    (0..1 + next(6))
                        .map(|_| (next(3), next(n), next(n)))
                        .collect()
                })
                .collect();
            for kind in [
                MatrixKind::random_walk_default(),
                MatrixKind::SymmetricLaplacian { shift: 1.0 },
            ] {
                for strategy in [
                    None,
                    Some(PartitionStrategy::EdgeLocality),
                    Some(PartitionStrategy::Btf),
                ] {
                    let mut arms = std::collections::BTreeSet::new();
                    for forced in std::iter::once(None).chain(MaintenanceArm::ALL.map(Some)) {
                        let partition = match strategy {
                            None => NodePartition::singleton(n),
                            Some(PartitionStrategy::EdgeLocality) => edge_locality_partition(&g, 4),
                            Some(PartitionStrategy::Btf) => btf_partition(&g, kind, 4).0,
                        };
                        let mut store =
                            ShardedFactorStore::new(g.clone(), kind, f64::INFINITY, partition)
                                .unwrap();
                        if strategy.is_some() {
                            assert_eq!(store.n_shards(), 4);
                        }
                        store.forced_arm = forced;
                        assert_restores_to(&store);
                        assert_blocks_are_full_passes(&store);
                        for batch in &batches {
                            let before = store.snapshot();
                            let report =
                                store.advance(&random_delta(store.graph(), batch)).unwrap();
                            assert_structure_follows(&before, &store.snapshot());
                            arms.extend(
                                report
                                    .per_shard
                                    .iter()
                                    .filter_map(|s| s.arm.map(|a| a.index())),
                            );
                            assert_restores_to(&store);
                            assert_blocks_are_full_passes(&store);
                        }
                    }
                    assert_eq!(
                        arms.len(),
                        MaintenanceArm::ALL.len(),
                        "{kind:?} {strategy:?}: {arms:?}"
                    );
                }
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            /// Mixed insert / remove streams at 1 and 4 shards under both
            /// policies and both matrix kinds, every arm forced in turn beside
            /// the free decision: whatever arm maintained a block, the answers agree with each other to 1e-12 and with
            /// dense Gaussian elimination to 1e-9; after every arm every
            /// block's structure is closed under elimination; a numeric pass
            /// — also one that follows a re-order — keeps the structure
            /// handle it found when nothing escaped it, and extends it
            /// otherwise; a snapshot taken before
            /// all of it still answers bit-identically at the end.
            #[test]
            fn every_arm_maintains_the_same_factors(
                batches in proptest::collection::vec(
                    proptest::collection::vec((0usize..3, 0usize..16, 0usize..16), 1..8),
                    1..8,
                ),
                cell in 0usize..8,
            ) {
                let n = 16;
                let (k, budget) = [
                    (1, f64::INFINITY),
                    (1, 0.15),
                    (4, f64::INFINITY),
                    (4, 0.15),
                ][cell % 4];
                let kind = [
                    MatrixKind::random_walk_default(),
                    MatrixKind::SymmetricLaplacian { shift: 1.0 },
                ][cell / 4];
                let mut g = base_graph(n);
                for u in 0..n {
                    g.add_edge(u, (u + 5) % n);
                }
                let forced = std::iter::once(None).chain(MaintenanceArm::ALL.map(Some));
                let mut stores: Vec<ShardedFactorStore> = forced
                    .map(|arm| {
                        let mut store = ShardedFactorStore::new(
                            g.clone(),
                            kind,
                            budget,
                            NodePartition::contiguous(n, k),
                        )
                        .unwrap();
                        store.forced_arm = arm;
                        store
                    })
                    .collect();
                // The random-walk kind answers measure queries; the
                // Laplacian is solved against fixed right-hand sides.
                let queries = [
                    MeasureQuery::PageRank { damping: 0.85 },
                    MeasureQuery::Rwr { seed: 3, damping: 0.85 },
                ];
                let rhs: Vec<Vec<f64>> = (0..2)
                    .map(|r| (0..n).map(|i| ((i * 7 + r * 3) % 5) as f64 - 2.0).collect())
                    .collect();
                let answers_of = |snap: &EngineSnapshot| -> Vec<Vec<f64>> {
                    match kind {
                        MatrixKind::RandomWalk { .. } => {
                            queries.iter().map(|q| snap.query(q).unwrap()).collect()
                        }
                        MatrixKind::SymmetricLaplacian { .. } => rhs
                            .iter()
                            .map(|b| snap.solve_measure_system(b).unwrap())
                            .collect(),
                    }
                };
                let dense_of = |graph: &DiGraph| -> Vec<Vec<f64>> {
                    match kind {
                        MatrixKind::RandomWalk { .. } => {
                            queries.iter().map(|q| dense_answer(graph, kind, q)).collect()
                        }
                        MatrixKind::SymmetricLaplacian { .. } => {
                            let a = clude_graph::measure_matrix(graph, kind).to_dense();
                            rhs.iter().map(|b| a.solve_gaussian(b).unwrap()).collect()
                        }
                    }
                };
                let snap0 = stores[0].snapshot();
                let answers0 = answers_of(&snap0);
                for store in &stores {
                    assert_blocks_closed(store);
                }
                for batch in &batches {
                    let delta = random_delta(stores[0].graph(), batch);
                    let mut answers: Vec<Vec<Vec<f64>>> = Vec::new();
                    for store in &mut stores {
                        let before: Vec<_> = (0..store.n_shards())
                            .map(|s| Arc::clone(store.shards[s].factors().structure()))
                            .collect();
                        let report = store.advance(&delta).unwrap();
                        assert_blocks_closed(store);
                        for (s, shard) in report.per_shard.iter().enumerate() {
                            if let Some(forced) = store.forced_arm {
                                // A forced arm ran, or fell back to a re-order.
                                prop_assert!(
                                    shard.arm.is_none_or(|arm| {
                                        arm == forced || arm == MaintenanceArm::Reorder
                                    }),
                                    "forced {:?}, ran {:?}", forced, shard.arm
                                );
                            }
                            let after = store.shards[s].factors().structure();
                            if shard.arm == Some(MaintenanceArm::Refactor) {
                                let shared = Arc::ptr_eq(&before[s], after);
                                prop_assert_eq!(shared, shard.slots_added == 0, "shard {}", s);
                                let (was, now) = (before[s].pattern(), after.pattern());
                                prop_assert!(was.is_subset_of(&now), "shard {}", s);
                            }
                        }
                        answers.push(answers_of(&store.snapshot()));
                    }
                    let dense = dense_of(stores[0].graph());
                    for (q, dense) in dense.iter().enumerate() {
                        for (a, store) in answers.iter().zip(&stores) {
                            for ((x, y), z) in a[q].iter().zip(&answers[0][q]).zip(dense) {
                                prop_assert!(
                                    (x - y).abs() <= 1e-12 && (x - z).abs() <= 1e-9,
                                    "forced {:?}: {} vs free {} vs dense {}",
                                    store.forced_arm, x, y, z
                                );
                            }
                        }
                    }
                }
                for store in &stores {
                    store.assert_consistent(1e-9);
                }
                let again = answers_of(&snap0);
                for (a, b) in answers0.iter().zip(&again) {
                    prop_assert_eq!(float_bits(a), float_bits(b));
                }
            }

            /// The frozen coupling is the state, and it equals the triplet
            /// route: after every advance of a random mixed stream — both
            /// matrix kinds and a zero damping whose coupling is all dropped
            /// zeros — the coupling's
            /// nonzero entries are the graph's cross-shard entries bit for
            /// bit, no advance builds a plan, the plan a solve builds is what
            /// a fresh layout of the entries gives, consecutive snapshots
            /// share coupling and plan exactly when no cross-shard entry
            /// changed, and its structure exactly when no position was new.
            #[test]
            fn coupling_freeze_equals_the_triplet_route(
                batches in proptest::collection::vec(
                    proptest::collection::vec((0usize..3, 0usize..16, 0usize..16), 1..6),
                    1..10,
                ),
                cell in 0usize..3,
            ) {
                let n = 16;
                let kind = [
                    MatrixKind::random_walk_default(),
                    MatrixKind::SymmetricLaplacian { shift: 1.0 },
                    MatrixKind::RandomWalk { damping: 0.0 },
                ][cell];
                let mut g = base_graph(n);
                for u in 0..n {
                    g.add_edge(u, (u + 5) % n);
                }
                let mut store = ShardedFactorStore::new(
                    g,
                    kind,
                    f64::INFINITY,
                    NodePartition::contiguous(n, 4),
                )
                .unwrap();
                let entry_bits = |m: &CsrMatrix| bits(m.iter().collect());
                let mut oracle = coupling_via_triplets(&store);
                prop_assert_eq!(&live_entries(n, &store.published_coupling), &oracle);
                for batch in &batches {
                    let delta = random_delta(store.graph(), batch);
                    let before = store.snapshot();
                    let before_plan = before.coupling_plan();
                    let report = store.advance(&delta).unwrap();
                    let after = store.snapshot();

                    let previous = std::mem::replace(&mut oracle, coupling_via_triplets(&store));
                    let live = live_entries(n, after.shared_coupling());
                    prop_assert_eq!(&live, &oracle);
                    prop_assert_eq!(entry_bits(&live), entry_bits(&oracle));
                    prop_assert_eq!(store.coupling_nnz(), oracle.nnz());
                    prop_assert_eq!(after.coupling_nnz(), oracle.nnz());
                    prop_assert!(oracle.iter().all(|(_, _, v)| v != 0.0));

                    // The advance builds no plan, and a shared coupling still
                    // holds the one `before` built.
                    let unchanged = previous == oracle && orderings_held(&before, &after);
                    prop_assert_eq!(after.shared_coupling().built_plan().is_some(), unchanged);
                    let fresh = plan_over(&store, &oracle);
                    prop_assert_eq!(after.coupling_plan().gs_order(), &fresh.0[..]);
                    prop_assert_eq!(after.coupling_plan().is_triangular(), fresh.1);
                    assert_structure_follows(&before, &after);
                    prop_assert_eq!(
                        Arc::ptr_eq(before.shared_coupling(), after.shared_coupling()),
                        unchanged
                    );
                    prop_assert_eq!(std::ptr::eq(before_plan, after.coupling_plan()), unchanged);
                    prop_assert_eq!(report.coupling_republished, !unchanged);
                }
                store.assert_consistent(1e-9);
            }
        }
    }
}
