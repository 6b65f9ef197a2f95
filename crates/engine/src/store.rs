//! The pieces every factor shard and every published snapshot are made of.
//!
//! * [`EngineSnapshot`] — the immutable unit the query side serves from: one
//!   shared factor block per shard, the frozen cross-shard coupling and the
//!   composition they factorize — no graph.
//! * `OrderedFactors` — one shard: its ordering, its factors — the last block
//!   it published, which is the live storage itself — its quality anchor,
//!   and the [`clude_lu::Maintainer`] holding the matrix the block
//!   factorizes, which every batch writes its slice into, so no arm reads
//!   the graph.  Every slice takes CLUDE's member step through the
//!   maintainer — the block extended to cover the slice's entries when one
//!   escapes it, then a numeric pass over the changed rows' elimination
//!   reach — unless the quality trigger re-orders the block
//!   ([`MaintenanceArm`]).  The trigger is one budget: a block whose
//!   Definition 4 quality-loss against its last re-order is over
//!   `max_quality_loss` re-orders with the next batch that touches it — the
//!   streaming analogue of starting a new cluster — and an infinite budget
//!   is INC's one ordering forever.
//!
//! The store that owns the blocks and applies delta batches to them is
//! [`crate::sharded::ShardedFactorStore`]; a whole-graph factorization is
//! its one-shard case.

use crate::coupling::{self, CouplingPlan, FrozenCoupling, SolveTolerance, System};
use crate::sharded::ShardAdvance;
use clude::DecomposedMatrix;
use clude_graph::{MatrixKind, NodePartition};
use clude_lu::{factorize_fresh, markowitz_ordering, LuError, LuFactors, LuResult, Maintainer};
use clude_measures::{evaluate_query_with, MeasureQuery, MeasureSolver};
use clude_sparse::CsrMatrix;
use clude_telemetry::{EngineEvent, RefreshReason, Stage, TelemetryRegistry};
use std::sync::Arc;

/// One immutable, queryable snapshot: per-shard decomposed factors sharing
/// one snapshot id, and the composition they factorize — no graph.
///
/// The store publishes one factor block per shard plus the cross-shard
/// coupling entries; a one-shard store publishes a single block over the
/// [`NodePartition::singleton`] partition with an empty coupling matrix.
/// Queries solve `A x = b` — hitting time `Aᵀ x = b` — exactly, either by
/// one pair of substitutions (no coupling) or by the Krylov iteration over
/// block Gauss–Seidel passes that combines per-shard solves with the
/// coupling (see [`crate::coupling`]).
#[derive(Debug, Clone)]
pub struct EngineSnapshot {
    id: u64,
    /// The composition the factors are of; queries needing another refused.
    kind: MatrixKind,
    partition: Arc<NodePartition>,
    /// One block per shard: the decomposed principal submatrix over the
    /// shard's nodes, in local coordinates.  Each is held behind an [`Arc`],
    /// which is what makes the snapshot ring copy-on-write: consecutive
    /// snapshots share the handle for every shard a batch did not touch, so
    /// a long time-travel window costs O(touched shards) factor memory per
    /// snapshot instead of O(all shards).  A shared block's
    /// [`DecomposedMatrix::index`] records the snapshot id at which the
    /// shard's factors last changed (not the id of the snapshot serving it).
    shards: Vec<Arc<DecomposedMatrix>>,
    /// Cross-shard entries of the measure matrix (empty for one-shard
    /// snapshots), laid out under the shards' orderings, with the cell of
    /// the coupled solve's plan over them — filled by the first coupled
    /// solve on any snapshot sharing it.
    coupling: Arc<FrozenCoupling>,
    /// Stopping rule of the coupled iteration.
    tolerance: SolveTolerance,
    /// The engine-wide telemetry sink, stamped in so query-path coupling
    /// solves record their spans and convergence failures (disabled
    /// registries make every recording a branch).
    telemetry: Arc<TelemetryRegistry>,
}

impl EngineSnapshot {
    pub(crate) fn from_parts(
        id: u64,
        kind: MatrixKind,
        partition: Arc<NodePartition>,
        shards: Vec<Arc<DecomposedMatrix>>,
        coupling: Arc<FrozenCoupling>,
        tolerance: SolveTolerance,
        telemetry: Arc<TelemetryRegistry>,
    ) -> Self {
        debug_assert_eq!(partition.n_shards(), shards.len());
        EngineSnapshot {
            id,
            kind,
            partition,
            shards,
            coupling,
            tolerance,
            telemetry,
        }
    }

    /// The snapshot counter value this snapshot was produced at.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The node partition the factors are sharded by.
    pub fn partition(&self) -> &NodePartition {
        &self.partition
    }

    /// The per-shard decomposed blocks (ordering + factors, local
    /// coordinates), in shard order.  Two snapshots whose handles for a shard
    /// are [`Arc::ptr_eq`] serve the identical factors without holding two
    /// copies — the observable form of the ring's structural sharing.
    pub fn shards(&self) -> &[Arc<DecomposedMatrix>] {
        &self.shards
    }

    /// Number of factor shards.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// Number of live (nonzero) cross-shard coupling entries.
    pub fn coupling_nnz(&self) -> usize {
        self.coupling.nnz()
    }

    /// The shared handle of the frozen coupling and its plan.  Snapshots
    /// between which no cross-shard entry and no shard ordering changed are
    /// [`Arc::ptr_eq`] here, and snapshots between which only coupling
    /// values changed share its [`FrozenCoupling::structure`]: the
    /// coupling-side half of the ring's structural sharing.
    pub fn shared_coupling(&self) -> &Arc<FrozenCoupling> {
        &self.coupling
    }

    /// Stopping rule of this snapshot's coupled solves.
    pub fn tolerance(&self) -> SolveTolerance {
        self.tolerance
    }

    /// The plan of the coupled solve — Gauss–Seidel traversal order and
    /// its triangularity verdict — built from this snapshot's partition and
    /// coupling values by the first call on any snapshot sharing the
    /// coupling.  A pure function of (partition, coupling): two snapshots get
    /// the same plan, by pointer, exactly when they are [`Arc::ptr_eq`] on
    /// [`EngineSnapshot::shared_coupling`].
    pub fn coupling_plan(&self) -> &CouplingPlan {
        self.coupling.plan(&self.partition, &self.shards)
    }

    /// The telemetry registry this snapshot records query-path spans and
    /// events into (the engine-wide one, or a disabled stub for stores
    /// built without telemetry).
    pub fn telemetry(&self) -> &TelemetryRegistry {
        &self.telemetry
    }

    /// Number of nodes of the fixed universe.
    pub fn n_nodes(&self) -> usize {
        self.partition.n_nodes()
    }

    /// Answers a measure query against this snapshot by substitutions; one
    /// needing other factors — another damping — is
    /// [`LuError::InvalidParameter`] named `"damping"`.
    pub fn query(&self, query: &MeasureQuery) -> LuResult<Vec<f64>> {
        self.check_kind(query)?;
        evaluate_query_with(self, self.n_nodes(), query)
    }

    fn check_kind(&self, query: &MeasureQuery) -> LuResult<()> {
        if query.required_matrix_kind() == Some(self.kind) {
            return Ok(());
        }
        Err(LuError::InvalidParameter {
            name: "damping",
            value: query.damping(),
        })
    }
}

impl MeasureSolver for EngineSnapshot {
    /// Solves `A x = b` for the snapshot's full measure matrix
    /// `A = blockdiag(A_ss) + C` by GMRES over the block Gauss–Seidel pass
    /// (see [`crate::coupling`]); one-shard snapshots are one pair of
    /// substitutions.
    fn solve_measure_system(&self, b: &[f64]) -> LuResult<Vec<f64>> {
        coupling::solve_system(self, System::Forward, b)
    }

    /// `Aᵀ x = b` by the same iteration over the transposed pass.
    fn solve_transposed_system(&self, b: &[f64]) -> LuResult<Vec<f64>> {
        coupling::solve_system(self, System::Transposed, b)
    }
}

/// The two ways a shard can absorb its slice of a batch — the range of the
/// one maintenance decision, the quality trigger
/// (`OrderedFactors::absorb`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MaintenanceArm {
    /// CLUDE's numeric member step: one pass down the block's structure,
    /// extended first to cover the slice's entries when one escapes it
    /// ([`clude_lu::Maintainer::extended`]), recomputing only the
    /// elimination reach of the slice's changed rows from the held matrix
    /// ([`clude_lu::Maintainer::refactor_reach`]), on a copy of the block.
    Refactor,
    /// A fresh Markowitz ordering and a factorization under it — the
    /// streaming analogue of starting a new cluster.
    Reorder,
}

impl MaintenanceArm {
    /// Every arm, in the order the per-arm counters are kept.
    pub const ALL: [MaintenanceArm; 2] = [MaintenanceArm::Refactor, MaintenanceArm::Reorder];

    /// The arm's dense index into per-arm arrays.
    pub const fn index(self) -> usize {
        self as usize
    }
}

/// One factor shard: its matrix's fill-reducing ordering, its factors under
/// that ordering, the factor size that anchors the quality-loss metric, and
/// the [`Maintainer`] holding the matrix the factors factorize and taking
/// each slice's step.  Local coordinates throughout.
#[derive(Debug, Clone)]
pub(crate) struct OrderedFactors {
    /// Shared with every block published under it.
    pub ordering: Arc<clude_sparse::Ordering>,
    /// The shard's factors: the block it last published, which is the live
    /// storage itself.  Every arm writes a copy of the block and, on
    /// success, installs the copy as the next block, so a failed arm leaves
    /// it — and every snapshot serving it — as it was.  Its structure is
    /// always closed under elimination: a factorization builds it closed,
    /// and the numeric pass runs over it extended closed first.
    block: Arc<DecomposedMatrix>,
    pub reference_nnz: usize,
    /// The block's matrix in factor coordinates, current after every batch —
    /// each writes its slice into it as its arm starts — with the slice, the
    /// ordering's maps and the numeric pass's scratch.
    pub maintainer: Maintainer,
}

impl OrderedFactors {
    /// Packages restored or freshly computed factors — over a structure
    /// closed under elimination — of `matrix`, given in factor coordinates,
    /// as the block current as of snapshot `id`.
    pub(crate) fn new(
        ordering: clude_sparse::Ordering,
        factors: LuFactors,
        reference_nnz: usize,
        matrix: CsrMatrix,
        id: u64,
    ) -> Self {
        debug_assert!(factors.structure().is_elimination_closed());
        let ordering = Arc::new(ordering);
        OrderedFactors {
            maintainer: Maintainer::new(&ordering, matrix),
            block: block(id, &ordering, factors),
            ordering,
            reference_nnz,
        }
    }

    /// The block snapshots serve — the shard's live factors, current as of
    /// its [`DecomposedMatrix::index`].
    pub(crate) fn block(&self) -> &Arc<DecomposedMatrix> {
        &self.block
    }

    /// The live factors.
    pub(crate) fn factors(&self) -> &LuFactors {
        &self.block.factors
    }

    /// Definition 4's quality-loss of the live factors — their slot count,
    /// `|s̃p|` taken literally — against the size at the block's last
    /// re-order.  The empty block of an empty universe has lost nothing.
    pub(crate) fn quality_loss(&self) -> f64 {
        if self.reference_nnz == 0 {
            return 0.0;
        }
        clude::quality_loss_from_sizes(self.factors().nnz(), self.reference_nnz)
    }

    /// Absorbs `slice` — the `(row, col, old, new)` entries the batch
    /// changes, in local coordinates — by a re-order when `reorder`, else by
    /// CLUDE's member step, installs the result as the block current as of
    /// snapshot `id` and reports what shard `shard` did.  When an entry
    /// escapes the block's structure the step runs on the block extended to
    /// cover the slice, made under a `snapshot.freeze` span so the per-layer
    /// table charges the copy to the copy; otherwise on a plain copy of the
    /// block.  The write into the held matrix, that plain copy and the pass
    /// run under one `shard.refactor` span.  A guard failure — an entry
    /// outside the structure, a pivot degrading or going singular — abandons
    /// the pass, and its copy, for a re-order of the held matrix, typed and
    /// journalled once; an `Ok` return always leaves servable factors.
    pub(crate) fn absorb(
        &mut self,
        slice: &[(usize, usize, f64, f64)],
        reorder: bool,
        telemetry: &TelemetryRegistry,
        shard: usize,
        id: u64,
    ) -> LuResult<ShardAdvance> {
        let mut outcome = ShardAdvance {
            entries_applied: slice.len() as u64,
            arm: Some(MaintenanceArm::Reorder),
            block_order: self.factors().n() as u64,
            ..ShardAdvance::default()
        };
        self.maintainer.take(slice);
        if reorder {
            self.reorder(telemetry, shard, RefreshReason::QualityLoss, id)?;
            return Ok(outcome);
        }
        let extended = self
            .maintainer
            .escapes(self.factors().structure())
            .then(|| {
                let _freeze = telemetry.span(Stage::SnapshotFreeze);
                self.maintainer.extended(self.factors())
            });
        let span = telemetry.span(Stage::ShardRefactor);
        self.maintainer.write();
        let refactored = extended
            .unwrap_or_else(|| Ok(self.factors().clone()))
            .and_then(|mut factors| {
                let stats = self.maintainer.refactor_reach(&mut factors)?;
                Ok((factors, stats))
            });
        span.stop();
        match refactored {
            Ok((factors, stats)) => {
                outcome.arm = Some(MaintenanceArm::Refactor);
                outcome.rows_refactored = stats.rows_refactored as u64;
                outcome.slots_added = (factors.nnz() - self.factors().nnz()) as u64;
                self.block = block(id, &self.ordering, factors);
            }
            Err(err) => {
                // A failed pass says the held ordering no longer serves this
                // matrix: the only sound fallback is a fresh ordering and
                // factorization.
                let reason = match err {
                    LuError::SingularPivot { .. } => RefreshReason::Pivot,
                    _ => RefreshReason::Structure,
                };
                self.reorder(telemetry, shard, reason, id)?;
            }
        }
        Ok(outcome)
    }

    /// Abandons the ordering: maps the held matrix, without its stored
    /// zeros, back to local coordinates, re-orders and re-factorizes it
    /// under a `shard.refresh` span and posts the one
    /// [`EngineEvent::RefreshTriggered`] journal event of the re-order,
    /// with its `reason` and the quality-loss of the factors it replaces —
    /// the one re-order site of both arms.  A re-order the quality trigger
    /// chose writes the slice into the held matrix first, inside the span;
    /// one that follows a failed pass finds it already written.  The
    /// scratch carries over.
    fn reorder(
        &mut self,
        telemetry: &TelemetryRegistry,
        shard: usize,
        reason: RefreshReason,
        id: u64,
    ) -> LuResult<()> {
        let quality_loss = self.quality_loss();
        let span = telemetry.span(Stage::ShardRefresh);
        if reason == RefreshReason::QualityLoss {
            self.maintainer.write();
        }
        let (row, col) = (self.ordering.row().inverse(), self.ordering.col().inverse());
        let local = self
            .maintainer
            .matrix()
            .prune(0.0)
            .reorder(&clude_sparse::Ordering::new(row, col))
            // lint: allow(panic-surface) — the held matrix is in the held
            // ordering's coordinates; its inverse has the same dimensions.
            .expect("the inverse ordering fits the held matrix");
        let (ordering, matrix, factors) = markowitz_factorize(&local)?;
        let ordering = Arc::new(ordering);
        self.maintainer.reset(&ordering, matrix);
        self.reference_nnz = factors.nnz();
        self.block = block(id, &ordering, factors);
        self.ordering = ordering;
        span.stop();
        telemetry.record_event(EngineEvent::RefreshTriggered {
            shard: shard as u32,
            reason,
            quality_loss,
        });
        Ok(())
    }
}

/// The engine block current as of snapshot `id`: `factors` under `ordering`.
fn block(
    id: u64,
    ordering: &Arc<clude_sparse::Ordering>,
    factors: LuFactors,
) -> Arc<DecomposedMatrix> {
    Arc::new(DecomposedMatrix {
        index: id as usize,
        ordering: Arc::clone(ordering),
        factors,
    })
}

/// The paper's Markowitz product-rule ordering of `matrix`, the matrix
/// under it, and its factors by the up-looking kernel ([`factorize_fresh`]),
/// over a structure closed under elimination.  The factor size is the
/// denominator of Definition 4's quality-loss: the size under the paper's
/// own `O*`.
fn markowitz_factorize(
    matrix: &CsrMatrix,
) -> LuResult<(clude_sparse::Ordering, CsrMatrix, LuFactors)> {
    let ordering = markowitz_ordering(&matrix.pattern()).ordering;
    let reordered = matrix
        .reorder(&ordering)
        // lint: allow(panic-surface) — the ordering was computed from this
        // matrix's own pattern one line up; its dimensions cannot disagree.
        .expect("ordering was computed for this matrix");
    let factors = factorize_fresh(&reordered)?;
    Ok((ordering, reordered, factors))
}

/// Orders `matrix`, factorizes it ([`markowitz_factorize`]) and packages the
/// bookkeeping as the block current as of snapshot `id` — the construction
/// path of initial builds.
pub(crate) fn order_and_factorize(matrix: &CsrMatrix, id: u64) -> LuResult<OrderedFactors> {
    let (ordering, reordered, factors) = markowitz_factorize(matrix)?;
    let reference_nnz = factors.nnz();
    Ok(OrderedFactors::new(
        ordering,
        factors,
        reference_nnz,
        reordered,
        id,
    ))
}

/// Test oracle shared by the crate's unit tests: dense Gaussian elimination
/// on the snapshot's measure matrix, normalised like a served answer.  It
/// shares no ordering, factor or routing code with the store under test.
#[cfg(test)]
pub(crate) fn dense_answer(
    graph: &clude_graph::DiGraph,
    kind: MatrixKind,
    query: &clude_measures::MeasureQuery,
) -> Vec<f64> {
    let b = clude_measures::measure_rhs(query, graph.n_nodes()).expect("a snapshot-matrix query");
    let a = clude_graph::measure_matrix(graph, kind).to_dense();
    let mut x = a.solve_gaussian(&b).unwrap();
    clude_sparse::vector::normalize_l1(&mut x);
    x
}

/// The building blocks above, driven through the one-shard store
/// ([`NodePartition::singleton`]): one block, no coupling.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::EngineError;
    use crate::sharded::ShardedFactorStore;
    use clude_graph::{measure_matrix, DiGraph, GraphDelta};
    use clude_measures::MeasureQuery;

    fn base_graph() -> DiGraph {
        let mut g = DiGraph::from_edges(6, (0..6).map(|i| (i, (i + 1) % 6)).collect::<Vec<_>>());
        g.add_edge(2, 0);
        g.add_edge(4, 0);
        g
    }

    fn one_shard(graph: DiGraph, kind: MatrixKind, max_quality_loss: f64) -> ShardedFactorStore {
        let partition = NodePartition::singleton(graph.n_nodes());
        ShardedFactorStore::new(graph, kind, max_quality_loss, partition).unwrap()
    }

    fn assert_matches_dense(store: &ShardedFactorStore, query: &MeasureQuery) {
        let got = store.snapshot().query(query).unwrap();
        let expected = dense_answer(store.graph(), store.matrix_kind(), query);
        for (a, b) in got.iter().zip(expected.iter()) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn advance_tracks_fresh_factorization() {
        let mut store = one_shard(
            base_graph(),
            MatrixKind::random_walk_default(),
            f64::INFINITY,
        );
        assert_eq!(store.snapshot_id(), 0);

        let delta = GraphDelta {
            added: vec![(1, 4), (5, 2)],
            removed: vec![(2, 0)],
        };
        let report = store.advance(&delta).unwrap();
        assert_eq!(report.snapshot_id, 1);
        assert!(!report.refreshed);
        assert_eq!(report.per_shard[0].arm, Some(MaintenanceArm::Refactor));
        assert!(report.per_shard[0].slots_added > 0);
        assert_eq!(report.coupling_writes, 0);
        assert_matches_dense(
            &store,
            &MeasureQuery::Rwr {
                seed: 3,
                damping: 0.85,
            },
        );
    }

    #[test]
    fn quality_policy_refreshes_on_degradation() {
        // A zero budget refreshes on any factor growth.
        let mut store = one_shard(base_graph(), MatrixKind::random_walk_default(), 0.0);
        let mut refreshed_any = false;
        // Densify the graph step by step; fill-in must eventually appear.
        for k in 0..4 {
            let delta = GraphDelta {
                added: vec![(k, (k + 3) % 6), ((k + 2) % 6, k)],
                removed: vec![],
            };
            let report = store.advance(&delta).unwrap();
            refreshed_any |= report.refreshed;
            if report.refreshed {
                assert_eq!(report.quality_loss, 0.0);
            }
        }
        assert!(refreshed_any, "densification never tripped the refresh");
        // Factors still track the graph exactly.
        assert_matches_dense(&store, &MeasureQuery::PageRank { damping: 0.85 });
    }

    #[test]
    fn snapshots_are_independent_of_later_advances() {
        let mut store = one_shard(base_graph(), MatrixKind::random_walk_default(), 1.0);
        let snap0 = store.snapshot();
        let q = MeasureQuery::PageRank { damping: 0.85 };
        let before = snap0.query(&q).unwrap();
        store
            .advance(&GraphDelta {
                added: vec![(0, 3)],
                removed: vec![(0, 1)],
            })
            .unwrap();
        // The old snapshot still answers from the old factors.
        let after = snap0.query(&q).unwrap();
        assert_eq!(before, after);
        assert_eq!(snap0.id(), 0);
        assert_eq!(store.snapshot().id(), 1);
        // And the new snapshot differs (the graph changed).
        let new = store.snapshot().query(&q).unwrap();
        assert!(before
            .iter()
            .zip(new.iter())
            .any(|(a, b)| (a - b).abs() > 1e-12));
    }

    #[test]
    fn factor_handle_is_shared_until_a_batch_touches_the_factors() {
        let mut store = one_shard(
            base_graph(),
            MatrixKind::random_walk_default(),
            f64::INFINITY,
        );
        let snap0 = store.snapshot();
        // Two snapshots with no advance in between share the handle.
        assert!(Arc::ptr_eq(
            &snap0.shards()[0],
            &store.snapshot().shards()[0]
        ));
        // An empty batch advances the snapshot id but performs no factor
        // work: the handle keeps being shared (index records snapshot 0).
        let report = store.advance(&GraphDelta::empty()).unwrap();
        assert_eq!(report.per_shard[0].entries_applied, 0);
        assert_eq!(report.shards_republished, 0);
        let snap1 = store.snapshot();
        assert_eq!(snap1.id(), 1);
        assert!(Arc::ptr_eq(&snap0.shards()[0], &snap1.shards()[0]));
        assert_eq!(snap1.shards()[0].index, 0);
        // A real batch replaces the handle.
        let report = store
            .advance(&GraphDelta {
                added: vec![(0, 3)],
                removed: vec![],
            })
            .unwrap();
        assert_eq!(report.shards_republished, 1);
        let snap2 = store.snapshot();
        assert!(!Arc::ptr_eq(&snap1.shards()[0], &snap2.shards()[0]));
        assert_eq!(snap2.shards()[0].index, 2);
    }

    #[test]
    fn value_only_batches_take_the_refactor_fast_path() {
        let telemetry = Arc::new(TelemetryRegistry::new(
            clude_telemetry::TelemetryConfig::default(),
        ));
        let mut store = one_shard(
            base_graph(),
            MatrixKind::random_walk_default(),
            f64::INFINITY,
        )
        .with_telemetry(Arc::clone(&telemetry));
        // Removals are always value-only: the removed edge's position zeroes
        // and the source's surviving column entries rescale in place.
        let report = store
            .advance(&GraphDelta {
                added: vec![],
                removed: vec![(2, 0)],
            })
            .unwrap();
        let shard = report.per_shard[0];
        assert_eq!(shard.arm, Some(MaintenanceArm::Refactor));
        assert!(shard.rows_refactored > 0 && shard.slots_added == 0);
        assert!(shard.entries_applied > 0);
        let count = |stage| telemetry.stage_histogram(stage).count();
        assert_eq!(count(Stage::ShardRefactor), 1);
        // Nothing escaped the block: no extension was spanned.
        assert_eq!(count(Stage::SnapshotFreeze), 0);
        // The refactored factors are exact.
        let q = MeasureQuery::Rwr {
            seed: 3,
            damping: 0.85,
        };
        assert_matches_dense(&store, &q);
        // An insert on a position the factors do not store escapes the
        // structure: the same arm runs over the block extended to cover it,
        // the extension under its own span.
        let report = store
            .advance(&GraphDelta {
                added: vec![(1, 4)],
                removed: vec![],
            })
            .unwrap();
        assert_eq!(report.per_shard[0].arm, Some(MaintenanceArm::Refactor));
        assert!(report.per_shard[0].slots_added > 0);
        assert_eq!(count(Stage::ShardRefactor), 2);
        assert_eq!(count(Stage::SnapshotFreeze), 1);
        assert_matches_dense(&store, &q);
    }

    /// The matrix of the `(row, col, value)` entries, its order the largest
    /// index plus one.
    fn matrix(entries: &[(usize, usize, f64)]) -> CsrMatrix {
        let n = entries
            .iter()
            .map(|&(i, j, _)| i.max(j) + 1)
            .max()
            .unwrap_or(0);
        let mut coo = clude_sparse::CooMatrix::new(n, n);
        for &(i, j, v) in entries {
            coo.push(i, j, v).unwrap();
        }
        CsrMatrix::from_coo(&coo)
    }

    /// The one journal entry of a re-order a failed pass forced: a
    /// `RefreshTriggered` for shard 0 whose reason is a pivot.
    fn assert_one_pivot_refresh(telemetry: &TelemetryRegistry) {
        use clude_telemetry::EventKind;
        let journal = telemetry.journal();
        assert_eq!(journal.recorded(), 1);
        assert_eq!(journal.count_of(EventKind::RefreshTriggered), 1);
        assert!(matches!(
            journal.entries()[0].event,
            EngineEvent::RefreshTriggered {
                shard: 0,
                reason: RefreshReason::Pivot,
                ..
            }
        ));
    }

    /// The served block solves `next`'s systems to 1e-12.
    fn assert_serves(of: &OrderedFactors, next: &CsrMatrix) {
        let block = of.block();
        let b: Vec<f64> = (0..next.n_rows())
            .map(|i| [1.0, -2.0, 0.5][i % 3])
            .collect();
        let x = clude_lu::solve_original(&block.factors, &block.ordering, &b).unwrap();
        let expected = next.to_dense().solve_gaussian(&b).unwrap();
        for (got, want) in x.iter().zip(&expected) {
            assert!((got - want).abs() <= 1e-12, "{got} vs {want}");
        }
    }

    #[test]
    fn a_structural_pass_whose_pivot_degrades_ends_in_a_journalled_re_order() {
        // A diagonal block is ordered as it stands …
        let mut of =
            order_and_factorize(&matrix(&[(0, 0, 5.0), (1, 1, 2.0), (2, 2, 2.0)]), 0).unwrap();
        assert!(of.ordering.is_identity());
        // … and the batch writes its next matrix, new positions and all,
        // which under that ordering pivots first on 1e-14 beside entries of
        // magnitude 1: past PIVOT_DEGRADE_TOL.
        let next = matrix(&[
            (0, 0, 1e-14),
            (0, 1, 1.0),
            (0, 2, 1.0),
            (1, 0, 1.0),
            (1, 1, 2.0),
            (2, 0, 1.0),
            (2, 2, 2.0),
        ]);
        let slice = [
            (0, 0, 5.0, 1e-14),
            (0, 1, 0.0, 1.0),
            (0, 2, 0.0, 1.0),
            (1, 0, 0.0, 1.0),
            (2, 0, 0.0, 1.0),
        ];
        let telemetry = TelemetryRegistry::new(clude_telemetry::TelemetryConfig::default());
        let outcome = of.absorb(&slice, false, &telemetry, 0, 1).unwrap();
        // The slice escaped the block: the pass ran on an extension, made
        // under its own span.  The abandoned pass wrote nothing; the block
        // was re-ordered — typed, journalled once — and what is served
        // pivots on healthy entries.
        assert_eq!(outcome.arm, Some(MaintenanceArm::Reorder));
        assert_one_pivot_refresh(&telemetry);
        let count = |stage| telemetry.stage_histogram(stage).count();
        assert_eq!(count(Stage::SnapshotFreeze), 1);
        assert_eq!(count(Stage::ShardRefactor), 1);
        assert_eq!(count(Stage::ShardRefresh), 1);
        assert_ne!(
            of.ordering.row().old_to_new(),
            vec![0, 1, 2],
            "a fresh ordering"
        );
        for k in 0..3 {
            assert!(of.factors().u(k, k).abs() >= 0.4, "pivot {k}");
        }
        assert_eq!(of.block().index, 1);
        assert_serves(&of, &next);
    }

    #[test]
    fn a_failed_frozen_pass_writes_nothing_the_engine_keeps() {
        let bits = |entries: Vec<(usize, usize, f64)>| {
            entries
                .into_iter()
                .map(|(i, j, v)| (i, j, v.to_bits()))
                .collect::<Vec<_>>()
        };
        // The path 3 – 0 – 1 – 2, ordered leaf first (2, 1, 0, 3) and
        // published.
        let path = matrix(&[
            (0, 0, 4.0),
            (0, 1, 1.0),
            (0, 3, 1.0),
            (1, 0, 1.0),
            (1, 1, 4.0),
            (1, 2, 1.0),
            (2, 1, 1.0),
            (2, 2, 4.0),
            (3, 0, 1.0),
            (3, 3, 4.0),
        ]);
        let mut of = order_and_factorize(&path, 0).unwrap();
        assert_eq!(of.ordering.row().old_to_new(), vec![2, 1, 0, 3]);
        let published = Arc::clone(of.block());
        let block_before = bits(published.factors.export_entries());
        // A value-only batch — every position is a slot of the block — drops
        // the edge 0 – 3 and lowers three diagonal entries: factor row 0
        // (node 2) passes, factor row 1 (node 1) eliminates to exactly zero,
        // so the pass fails after it rewrote row 0 of its copy.
        let slice = [
            (0, 0, 4.0, 2.0),
            (0, 3, 1.0, 0.0),
            (1, 1, 4.0, 1.0),
            (2, 2, 4.0, 1.0),
            (3, 0, 1.0, 0.0),
        ];
        let telemetry = TelemetryRegistry::new(clude_telemetry::TelemetryConfig::default());
        let outcome = of.absorb(&slice, false, &telemetry, 0, 1).unwrap();
        // Through the arm, the failure ends in one journalled re-order, and
        // the block snapshots hold is still the one they were served.
        assert_eq!(outcome.arm, Some(MaintenanceArm::Reorder));
        assert_eq!(outcome.rows_refactored, 0);
        assert_one_pivot_refresh(&telemetry);
        assert_eq!(telemetry.stage_histogram(Stage::SnapshotFreeze).count(), 0);
        assert_eq!(bits(published.factors.export_entries()), block_before);
        assert!(!Arc::ptr_eq(&published, of.block()));
        // The re-order is of the matrix the batch wrote, without the zeros
        // it left stored: node 3 is isolated now and comes first.
        assert_eq!(of.ordering.row().old_to_new()[3], 0);
        let next = matrix(&[
            (0, 0, 2.0),
            (0, 1, 1.0),
            (1, 0, 1.0),
            (1, 1, 1.0),
            (1, 2, 1.0),
            (2, 1, 1.0),
            (2, 2, 1.0),
            (3, 3, 4.0),
        ]);
        assert_serves(&of, &next);
    }

    #[test]
    fn advance_rejects_out_of_universe_deltas_without_mutating() {
        let mut store = one_shard(
            base_graph(),
            MatrixKind::random_walk_default(),
            f64::INFINITY,
        );
        let bad = GraphDelta {
            added: vec![(0, 999)],
            removed: vec![],
        };
        let err = store.advance(&bad).unwrap_err();
        assert!(matches!(
            err,
            EngineError::NodeOutOfRange {
                node: 999,
                n_nodes: 6
            }
        ));
        // Nothing moved: same snapshot, same graph, still servable.
        assert_eq!(store.snapshot_id(), 0);
        assert_eq!(store.graph().n_edges(), base_graph().n_edges());
        assert!(store
            .snapshot()
            .query(&MeasureQuery::PageRank { damping: 0.85 })
            .is_ok());
    }

    #[test]
    fn symmetric_laplacian_advance_matches_fresh_factorization() {
        // An undirected path graph; deltas change both edge directions.
        let mut g = DiGraph::new(5);
        for i in 0..4 {
            g.add_undirected_edge(i, i + 1);
        }
        let kind = MatrixKind::SymmetricLaplacian { shift: 1.0 };
        let mut store = one_shard(g, kind, f64::INFINITY);
        let delta = GraphDelta {
            added: vec![(0, 3), (3, 0), (1, 4), (4, 1)],
            removed: vec![(1, 2), (2, 1)],
        };
        store.advance(&delta).unwrap();
        // Oracle: dense solve of the updated graph's Laplacian (the measure
        // queries are random-walk specific, so compare raw solves).
        let b = vec![1.0, -0.5, 2.0, 0.25, -1.0];
        let expected = measure_matrix(store.graph(), kind)
            .to_dense()
            .solve_gaussian(&b)
            .unwrap();
        let got = store.snapshot().solve_measure_system(&b).unwrap();
        for (x, y) in got.iter().zip(expected.iter()) {
            assert!((x - y).abs() < 1e-9, "{x} vs {y}");
        }
    }

    #[test]
    fn accessors_expose_state() {
        let store = one_shard(
            base_graph(),
            MatrixKind::random_walk_default(),
            f64::INFINITY,
        );
        assert_eq!(store.matrix_kind(), MatrixKind::random_walk_default());
        assert_eq!(store.max_quality_loss(), f64::INFINITY);
        assert_eq!(store.n_shards(), 1);
        assert!(store.factor_nnz() > 0);
        assert_eq!(store.coupling_nnz(), 0);
        assert_eq!(store.quality_loss(), 0.0);
        let snap = store.snapshot();
        assert_eq!(snap.n_nodes(), 6);
        assert_eq!(snap.shards()[0].index, 0);
        assert_eq!(snap.coupling_nnz(), 0);
        // What a one-shard checkpoint records: one shard.
        let durable = store.durable_state();
        assert_eq!(durable.shards.len(), 1);
        assert_eq!(durable.partition.n_shards(), 1);
    }
}
