//! The pieces every factor shard and every published snapshot are made of.
//!
//! * [`EngineSnapshot`] / [`ShardSnapshot`] — the immutable unit the query
//!   side serves from: the snapshot graph, one shared factor block per
//!   shard, and the frozen cross-shard coupling.
//! * `OrderedFactors` — one block's ordering, its factors — the last block
//!   it published, which is the live storage itself — and quality anchor,
//!   with the one maintenance decision
//!   (`OrderedFactors::decide`) every advance takes per shard and the four
//!   [`MaintenanceArm`]s it chooses among by predicted cost: Bennett sweeps
//!   (`clude_lu::apply_delta_with`) over a structure extended to cover the
//!   batch (`clude_lu::extend_structure`), a pattern-frozen refactorization of
//!   the changed rows' elimination reach (`clude_lu::refactor_frozen_reach`)
//!   for value-only batches, a rebuild under the held ordering
//!   (`clude_lu::rebuild_under_ordering`), a re-order.
//! * [`RefreshPolicy`] — when a block abandons its ordering, mirroring the
//!   paper's algorithm families: [`RefreshPolicy::Incremental`] is INC-style
//!   (one ordering forever, never re-ordered for quality);
//!   [`RefreshPolicy::QualityTriggered`] is CLUDE-style (the factor size is
//!   compared against the size recorded at the last re-order via
//!   [`clude::refresh_decision`] (Definition 4's quality-loss), and a block
//!   found over the budget re-orders and re-factorizes with the next batch
//!   that touches it — the streaming analogue of starting a new cluster).
//!
//! The store that owns the blocks and applies delta batches to them is
//! [`crate::sharded::ShardedFactorStore`]; a whole-graph factorization is
//! its one-shard case.

use crate::coupling::{self, CouplingPlan, FrozenCoupling, SolveTolerance};
use clude::{refresh_decision, DecomposedMatrix, MatrixFactors};
use clude_graph::{DeltaClass, DiGraph, GraphDelta, MatrixKind, NodePartition};
use clude_lu::{
    apply_delta_with, cost, factorize_fresh, markowitz_ordering, rebuild_under_ordering,
    refactor_frozen_reach, BennettStats, BennettWorkspace, LuError, LuFactors, LuResult,
    RefactorWorkspace, RunningReach,
};
use clude_measures::{evaluate_queries_with, evaluate_query_with, MeasureQuery, MeasureSolver};
use clude_sparse::CsrMatrix;
use clude_telemetry::{Counter, EngineEvent, FallbackReason, Stage, TelemetryRegistry};
use std::sync::Arc;

/// When the store abandons its ordering and re-factorizes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RefreshPolicy {
    /// Never refresh: keep updating the first ordering's factors (INC).
    Incremental,
    /// Re-order a block whose factors' quality-loss against its last
    /// re-order exceeds the budget, with the next batch that touches it
    /// (CLUDE-style re-clustering).
    QualityTriggered {
        /// Maximum tolerated quality-loss before a refresh.
        max_quality_loss: f64,
    },
}

impl Default for RefreshPolicy {
    /// Refresh at 100 % degradation — roughly where the paper's Figure 5
    /// shows INC's single ordering has become untenable.
    fn default() -> Self {
        RefreshPolicy::QualityTriggered {
            max_quality_loss: 1.0,
        }
    }
}

/// One shard's slice of an [`EngineSnapshot`]: the decomposed principal
/// submatrix over the shard's nodes, in local coordinates.
///
/// The block is held behind an [`Arc`], which is what makes the snapshot
/// ring copy-on-write: consecutive snapshots share the handle for every
/// shard a batch did not touch, so a long time-travel window costs
/// O(touched shards) factor memory per snapshot instead of O(all shards).
/// The [`DecomposedMatrix::index`] of a shared block records the snapshot id
/// at which the shard's factors last changed (not the id of the snapshot
/// serving it).
#[derive(Debug, Clone)]
pub struct ShardSnapshot {
    decomposed: Arc<DecomposedMatrix>,
}

impl ShardSnapshot {
    pub(crate) fn new(decomposed: Arc<DecomposedMatrix>) -> Self {
        ShardSnapshot { decomposed }
    }

    /// The shard's decomposed block (ordering + factors, local coordinates).
    pub fn decomposed(&self) -> &DecomposedMatrix {
        &self.decomposed
    }

    /// The shared handle of the decomposed block.  Two snapshots whose
    /// handles are [`Arc::ptr_eq`] serve the identical factors without
    /// holding two copies — the observable form of the ring's structural
    /// sharing.
    pub fn shared(&self) -> &Arc<DecomposedMatrix> {
        &self.decomposed
    }
}

/// One immutable, queryable snapshot: the graph plus per-shard decomposed
/// factors sharing one snapshot id.
///
/// The store publishes one [`ShardSnapshot`] per shard plus the cross-shard
/// coupling entries; a one-shard store publishes a single block over the
/// [`NodePartition::singleton`] partition with an empty coupling matrix.
/// Queries solve `A x = b` exactly either by one pair of substitutions (no
/// coupling) or by the Krylov iteration over block Gauss–Seidel passes that
/// combines per-shard solves with the coupling (see [`crate::coupling`]).
#[derive(Debug, Clone)]
pub struct EngineSnapshot {
    id: u64,
    graph: DiGraph,
    partition: Arc<NodePartition>,
    shards: Vec<ShardSnapshot>,
    /// Cross-shard entries of the measure matrix, global coordinates (empty
    /// for one-shard snapshots), with the cell of the coupled solve's plan
    /// over them and the shards' orderings — filled by the first coupled
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
        graph: DiGraph,
        partition: Arc<NodePartition>,
        shards: Vec<ShardSnapshot>,
        coupling: Arc<FrozenCoupling>,
        tolerance: SolveTolerance,
        telemetry: Arc<TelemetryRegistry>,
    ) -> Self {
        debug_assert_eq!(partition.n_shards(), shards.len());
        EngineSnapshot {
            id,
            graph,
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

    /// The snapshot graph.
    pub fn graph(&self) -> &DiGraph {
        &self.graph
    }

    /// The node partition the factors are sharded by.
    pub fn partition(&self) -> &NodePartition {
        &self.partition
    }

    /// The per-shard decomposed blocks, in shard order.
    pub fn shards(&self) -> &[ShardSnapshot] {
        &self.shards
    }

    /// Number of factor shards.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// The cross-shard coupling entries (global coordinates).
    pub fn coupling(&self) -> &CsrMatrix {
        self.coupling.matrix()
    }

    /// The shared handle of the frozen coupling and its plan.  Snapshots
    /// between which no cross-shard entry and no shard ordering changed are
    /// [`Arc::ptr_eq`] here, the coupling-side half of the ring's structural
    /// sharing.
    pub fn shared_coupling(&self) -> &Arc<FrozenCoupling> {
        &self.coupling
    }

    /// Stopping rule of this snapshot's coupled solves.
    pub fn tolerance(&self) -> SolveTolerance {
        self.tolerance
    }

    /// The plan of the coupled solve — Gauss–Seidel traversal order and
    /// vector layout — built from this snapshot's partition and shard
    /// orderings by the first call on any snapshot sharing the coupling.  A
    /// pure function of (partition, coupling, orderings): two snapshots get
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
        self.graph.n_nodes()
    }

    /// Answers a measure query against this snapshot by substitutions.
    pub fn query(&self, query: &MeasureQuery) -> LuResult<Vec<f64>> {
        evaluate_query_with(self, &self.graph, query)
    }

    /// Answers a batch of measure queries against this snapshot, coalescing
    /// all panel-eligible queries into **one** factor traversal over a
    /// column panel (hitting-time queries, which factorize a query-specific
    /// matrix, are answered individually).  Result `i` is bit-identical to
    /// `self.query(queries[i])`.
    pub fn query_batch(&self, queries: &[&MeasureQuery]) -> LuResult<Vec<Vec<f64>>> {
        evaluate_queries_with(self, &self.graph, queries)
    }
}

impl MeasureSolver for EngineSnapshot {
    /// Solves `A x = b` for the snapshot's full measure matrix
    /// `A = blockdiag(A_ss) + C` by GMRES over the block Gauss–Seidel pass
    /// (see [`crate::coupling`]) as a width-1 panel; one-shard snapshots are
    /// one pair of substitutions.
    fn solve_measure_system(&self, b: &[f64]) -> LuResult<Vec<f64>> {
        coupling::solve_systems(self, b, 1)
    }

    /// Panel override: `n_rhs` stacked right-hand sides in one factor
    /// traversal per block pass, every stripe bit-identical to a
    /// [`MeasureSolver::solve_measure_system`] call on that stripe (see
    /// `crate::coupling::solve_systems`).
    fn solve_measure_systems(&self, b: &[f64], n_rhs: usize) -> LuResult<Vec<f64>> {
        coupling::solve_systems(self, b, n_rhs)
    }
}

/// The four ways a shard can absorb its slice of a batch — the range of the
/// one maintenance decision (`OrderedFactors::decide`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MaintenanceArm {
    /// One Bennett rank-one sweep per changed column
    /// (`clude_lu::apply_delta_with`) over a copy of the block, whose
    /// structure is first extended to cover the slice's entries
    /// (`clude_lu::extend_structure`) — the sweep's fill cannot escape it.
    BennettSweep,
    /// One numeric pass down the frozen symbolic pattern — value-only
    /// batches — over a copy of the block, recomputing only the elimination
    /// reach of the changed rows, since the block's structure is closed
    /// under elimination (`clude_lu::refactor_frozen_reach`).
    FrozenRefactor,
    /// Re-symbolic + numeric factorization under the *held* ordering
    /// (`clude_lu::rebuild_under_ordering`): one pass whatever the batch
    /// changed, no ordering computed.
    Rebuild,
    /// A fresh Markowitz ordering and a factorization under it — the
    /// streaming analogue of starting a new cluster.
    Reorder,
}

impl MaintenanceArm {
    /// Every arm, in the order the per-arm counters are kept.
    pub const ALL: [MaintenanceArm; 4] = [
        MaintenanceArm::BennettSweep,
        MaintenanceArm::FrozenRefactor,
        MaintenanceArm::Rebuild,
        MaintenanceArm::Reorder,
    ];

    /// The arm's dense index into per-arm arrays.
    pub const fn index(self) -> usize {
        self as usize
    }

    /// The registry counter of the shard-batches the arm absorbed; `None`
    /// for [`MaintenanceArm::Reorder`], whose count is the sum of the
    /// per-shard re-orders (`ShardCounter::Reorders`).
    pub const fn counter(self) -> Option<Counter> {
        match self {
            MaintenanceArm::BennettSweep => Some(Counter::SweepArm),
            MaintenanceArm::FrozenRefactor => Some(Counter::RefactorArm),
            MaintenanceArm::Rebuild => Some(Counter::RebuildArm),
            MaintenanceArm::Reorder => None,
        }
    }

    /// The cost model, one formula for predictions and for costing counted
    /// work after the fact: nanoseconds for `work` units of the arm's own
    /// work — factor entries touched for a sweep, multiply-adds of the numeric
    /// pass for the other three — on a block of order `order` holding
    /// `factor_nnz` factor entries.  Each arm is the sum of its
    /// [`clude_lu::cost`] terms: a sweep pays the copy of the block it runs
    /// on.
    pub fn model_cost(self, work: u64, factor_nnz: usize, order: usize) -> f64 {
        match self {
            MaintenanceArm::BennettSweep => cost::sweep_ns(work) + cost::freeze_ns(factor_nnz),
            MaintenanceArm::FrozenRefactor => cost::numeric_pass_ns(factor_nnz, work),
            MaintenanceArm::Rebuild => cost::rebuild_ns(factor_nnz, work),
            MaintenanceArm::Reorder => {
                cost::ordering_ns(order) + cost::rebuild_ns(factor_nnz, work)
            }
        }
    }
}

/// How much cheaper than the sweeps a rebuild must be predicted before it is
/// chosen.  A batch's reach scatters two- to three-fold around the running
/// share while a rebuild's cost barely moves, so the batches that *look* like
/// rebuilds are the ones whose sweeps are most overestimated: in counted
/// work (`the_decision_stays_within_a_tenth_of_the_better_arm_on_both_shapes`)
/// the 4 × 500-node shape spends 3 % more than always sweeping without the
/// margin and 1 % less with it, and the 400-node block's 5× gap does not
/// notice.
const REBUILD_MARGIN: f64 = 1.25;

/// What [`OrderedFactors::decide`] chose for one shard's slice of a batch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct MaintenanceDecision {
    pub arm: MaintenanceArm,
    /// [`MaintenanceArm::model_cost`] of the arm on the predicted work.
    /// For the frozen-pattern pass that is the full pass's, an upper bound
    /// on the reach it recomputes: no other arm is ever weighed against it.
    pub predicted_cost: f64,
}

/// One shard's decided arm, staged on the coordinating thread before the
/// arms fan out: a sweep carries the copy of the block it runs on — the
/// block over its structure extended to cover the slice's entries
/// ([`clude_lu::extend_structure`]), which the sweep's fill cannot escape —
/// and every other arm copies or builds its block itself, on the worker.
#[derive(Debug)]
pub(crate) enum Staged {
    Sweep(LuResult<LuFactors>),
    FrozenRefactor,
    Rebuild,
    Reorder,
}

impl Staged {
    pub(crate) fn arm(&self) -> MaintenanceArm {
        match self {
            Staged::Sweep(_) => MaintenanceArm::BennettSweep,
            Staged::FrozenRefactor => MaintenanceArm::FrozenRefactor,
            Staged::Rebuild => MaintenanceArm::Rebuild,
            Staged::Reorder => MaintenanceArm::Reorder,
        }
    }
}

/// What one shard did with its slice of a batch (worker-thread result).
#[derive(Debug, Clone, Copy)]
pub(crate) struct ShardOutcome {
    /// The arm that produced the factors now live: the decided one, or
    /// [`MaintenanceArm::Reorder`] when a guard failure abandoned it.
    pub arm: MaintenanceArm,
    /// The arm's counted work, in [`MaintenanceArm::model_cost`]'s unit.
    pub actual_work: u64,
    /// Rows the frozen-pattern pass recomputed (0 for the other arms).
    pub rows_refactored: usize,
    pub bennett: BennettStats,
}

/// A matrix's fill-reducing ordering, its factors under that ordering, and
/// the derived bookkeeping every factor shard keeps: the `old → new` index
/// maps advances translate coordinates with, and the factor size that
/// anchors the quality-loss metric.
#[derive(Debug, Clone)]
pub(crate) struct OrderedFactors {
    /// Shared with every block published under it.
    pub ordering: Arc<clude_sparse::Ordering>,
    pub row_old_to_new: Vec<usize>,
    pub col_old_to_new: Vec<usize>,
    /// The shard's factors: the block it last published, which is the live
    /// storage itself.  Every arm writes a copy of the block and, on
    /// success, installs the copy as the next block, so a failed arm leaves
    /// it — and every snapshot serving it — as it was.  Its structure is
    /// always closed under elimination: a factorization builds it closed, a
    /// frozen-pattern pass keeps it, a sweep extends it closed first.
    block: Arc<DecomposedMatrix>,
    pub reference_nnz: usize,
    /// The reordered measure matrix the factors were computed from, kept in
    /// sync by value-only batches so the refactor fast path never rebuilds
    /// it from the graph.  Invalidated (`None`) when a structural Bennett
    /// pass changes the pattern underneath it.
    pub reordered: Option<CsrMatrix>,
    /// Multiply-adds of a numeric factorization down the pattern the factors
    /// had when they were last factorized as a whole (slots a sweep's
    /// extension added since are not counted): the decision's
    /// elimination-work input.
    elimination_work: u64,
    /// Running share of the factor entries one rank-one update touches:
    /// what the decision predicts the next sweep from.  Survives the shard's
    /// own re-orders — the reach follows the block's shape, which a new
    /// ordering of the same block barely moves; a repartition or a restore
    /// starts a fresh shard from the prior.
    reach: RunningReach,
}

impl OrderedFactors {
    /// Packages restored or freshly computed factors — over a structure
    /// closed under elimination — as the block current as of snapshot `id`.
    pub(crate) fn new(
        ordering: clude_sparse::Ordering,
        factors: LuFactors,
        reference_nnz: usize,
        reordered: Option<CsrMatrix>,
        id: u64,
    ) -> Self {
        debug_assert!(factors.structure().is_elimination_closed());
        let ordering = Arc::new(ordering);
        OrderedFactors {
            row_old_to_new: ordering.row().old_to_new(),
            col_old_to_new: ordering.col().old_to_new(),
            elimination_work: factors.structure().elimination_work(),
            block: block(id, &ordering, factors),
            ordering,
            reference_nnz,
            reordered,
            reach: RunningReach::default(),
        }
    }

    /// The block snapshots serve — the shard's live factors, current as of
    /// its [`DecomposedMatrix::index`].
    pub(crate) fn block(&self) -> &Arc<DecomposedMatrix> {
        &self.block
    }

    /// The live factors.
    pub(crate) fn factors(&self) -> &LuFactors {
        static_factors(&self.block)
    }

    /// Makes `factors` the live block, current as of snapshot `id`.
    fn install(&mut self, factors: LuFactors, id: u64) {
        self.block = block(id, &self.ordering, factors);
    }

    /// Definition 4's quality-loss of the live factors — their slot count,
    /// `|s̃p|` taken literally — against the size at the block's last
    /// re-order.
    pub(crate) fn quality_loss(&self) -> f64 {
        clude::quality_loss_from_sizes(self.factors().nnz(), self.reference_nnz)
    }

    /// The one maintenance decision: which arm absorbs this shard's slice of
    /// a batch, and what the cost model expects it to cost — from counts
    /// only, so the same stream decides the same way on every run and no
    /// clock is read.
    ///
    /// `intra` is the slice's edge changes (global node ids, `local` maps
    /// them into the shard), `entries` the matrix entries they change.  In
    /// order:
    ///
    /// 1. a block whose quality-loss ([`clude::refresh_decision`], Definition
    ///    4 against the size at its last re-order) is over the policy's
    ///    budget re-orders — this batch is absorbed by the fresh
    ///    factorization, no work is spent on factors about to be dropped;
    /// 2. a value-only slice ([`DeltaClass::ValueOnly`] against the block's
    ///    structure) takes the pattern-frozen pass — the only arm such
    ///    a slice can take, so its prediction, the full pass over the
    ///    block's elimination work, is never weighed against another arm and
    ///    stays an upper bound on the reach the pass recomputes;
    /// 3. a structural slice takes the cheaper of Bennett sweeps — one per
    ///    changed column, each predicted at this shard's running share of
    ///    the factor entries a sweep touches — and a rebuild under the held
    ///    ordering, predicted from the factor size and the elimination work.
    pub(crate) fn decide(
        &self,
        policy: RefreshPolicy,
        kind: MatrixKind,
        intra: &GraphDelta,
        local: impl Fn(usize) -> usize,
        entries: &[(usize, usize, f64, f64)],
    ) -> MaintenanceDecision {
        let structure = self.factors().structure();
        let (nnz, order) = (structure.nnz(), structure.n());
        let predict = |arm: MaintenanceArm, work: u64| MaintenanceDecision {
            arm,
            predicted_cost: arm.model_cost(work, nnz, order),
        };
        if let RefreshPolicy::QualityTriggered { max_quality_loss } = policy {
            if refresh_decision(nnz, self.reference_nnz, max_quality_loss).should_refresh {
                return predict(MaintenanceArm::Reorder, self.elimination_work);
            }
        }
        let class = intra.classify_with(kind, |i, j| {
            structure.contains(self.row_old_to_new[local(i)], self.col_old_to_new[local(j)])
        });
        if class == DeltaClass::ValueOnly {
            return predict(MaintenanceArm::FrozenRefactor, self.elimination_work);
        }
        // One rank-one update per distinct changed column.
        let mut columns: Vec<usize> = entries.iter().map(|&(_, c, _, _)| c).collect();
        columns.sort_unstable();
        columns.dedup();
        let sweep = predict(
            MaintenanceArm::BennettSweep,
            self.reach.predicted_entries(columns.len(), nnz),
        );
        let rebuild = predict(MaintenanceArm::Rebuild, self.elimination_work);
        if sweep.predicted_cost <= REBUILD_MARGIN * rebuild.predicted_cost {
            sweep
        } else {
            rebuild
        }
    }

    /// Runs the decided arm over `delta` (the slice's changed entries in
    /// factor coordinates), under the arm's stage span, and installs what it
    /// wrote as the block current as of snapshot `id`.  A sweep runs on the
    /// copy `staged` carries, the frozen-pattern pass on a copy of the block
    /// as it stands.  A guard failure — a Bennett pivot going singular, an entry or fill
    /// outside a frozen pattern, a refactor or rebuild pivot degrading —
    /// abandons the arm, and its copy, for a re-order of the block's
    /// current matrix (`rebuild_matrix()`), typed and journalled; an `Ok`
    /// return always leaves servable factors.
    #[allow(clippy::too_many_arguments)] // one call site
    pub(crate) fn maintain(
        &mut self,
        staged: Staged,
        ws: &mut BennettWorkspace,
        rws: &mut RefactorWorkspace,
        delta: &[(usize, usize, f64, f64)],
        telemetry: &TelemetryRegistry,
        shard: usize,
        id: u64,
        rebuild_matrix: impl Fn() -> CsrMatrix,
    ) -> LuResult<ShardOutcome> {
        let arm = staged.arm();
        let mut outcome = ShardOutcome {
            arm,
            actual_work: 0,
            rows_refactored: 0,
            bennett: BennettStats::default(),
        };
        let done = match staged {
            Staged::Sweep(copy) => {
                // Keep the reordered-matrix cache current: overwrite stored
                // positions in place, and invalidate it the moment the batch
                // lands outside the stored pattern (a structural insert).
                if let Some(cached) = self.reordered.as_mut() {
                    if !delta.iter().all(|&(i, j, _, new)| cached.set(i, j, new)) {
                        self.reordered = None;
                    }
                }
                let nnz_before = self.factors().nnz();
                let span = telemetry.span(Stage::ShardSweep);
                let swept = copy.and_then(|mut block| {
                    apply_delta_with(&mut block, ws, delta).map(|bennett| (block, bennett))
                });
                span.stop();
                swept.map(|(block, bennett)| {
                    self.install(block, id);
                    self.reach.observe(&bennett, nnz_before);
                    outcome.bennett = bennett;
                    bennett.entries_touched as u64
                })
            }
            Staged::FrozenRefactor => {
                // Bring the cached reordered matrix up to date in place — the
                // whole point of the fast path is to not touch the graph.
                // For a value-only batch every position is stored, so `set`
                // only fails when the cache was invalidated by an earlier
                // structural pass or the delta lands on a fill-only
                // position; then (and only then) rebuild it once.
                let up_to_date = match self.reordered.as_mut() {
                    Some(cached) => delta.iter().all(|&(i, j, _, new)| cached.set(i, j, new)),
                    None => false,
                };
                if !up_to_date {
                    self.reordered = Some(self.reordered_matrix(&rebuild_matrix));
                }
                let cached = self
                    .reordered
                    .as_ref()
                    // lint: allow(panic-surface) — ensured two branches up.
                    .expect("reordered-matrix cache was just ensured");
                let changed: Vec<usize> = delta.iter().map(|&(i, ..)| i).collect();
                let span = telemetry.span(Stage::ShardRefactor);
                let mut block = self.factors().clone();
                let refactored = refactor_frozen_reach(&mut block, cached, Some(&changed), rws);
                span.stop();
                refactored.map(|stats| {
                    self.install(block, id);
                    outcome.rows_refactored = stats.rows_refactored;
                    stats.multiply_adds
                })
            }
            Staged::Rebuild => {
                // The batch moved the pattern, so the matrix comes from the
                // graph; the factors are untouched until the pass succeeded.
                let matrix = self.reordered_matrix(&rebuild_matrix);
                let span = telemetry.span(Stage::ShardRefactor);
                let rebuilt = rebuild_under_ordering(&matrix).map(|(factors, stats)| {
                    self.install(factors, id);
                    self.reordered = Some(matrix);
                    self.elimination_work = stats.multiply_adds;
                    stats.multiply_adds
                });
                span.stop();
                rebuilt
            }
            Staged::Reorder => {
                let quality_loss = self.quality_loss();
                self.reorder(&rebuild_matrix, telemetry, shard, false, quality_loss, id)?;
                Ok(self.elimination_work)
            }
        };
        outcome.actual_work = match done {
            Ok(work) => work,
            Err(err) => {
                // A failed sweep leaves the factors partially rewritten, and
                // a failed frozen pass or rebuild says the held ordering no
                // longer serves this matrix: the only sound fallback is a
                // fresh ordering and factorization.
                if arm != MaintenanceArm::BennettSweep {
                    let reason = match err {
                        LuError::SingularPivot { .. } => FallbackReason::Pivot,
                        _ => FallbackReason::Structure,
                    };
                    telemetry.record_event(EngineEvent::RefactorFallback {
                        shard: shard as u32,
                        reason,
                    });
                }
                self.reorder(&rebuild_matrix, telemetry, shard, true, 0.0, id)?;
                outcome.arm = MaintenanceArm::Reorder;
                self.elimination_work
            }
        };
        Ok(outcome)
    }

    /// The block's current matrix in the held ordering's coordinates.
    fn reordered_matrix(&self, rebuild_matrix: impl Fn() -> CsrMatrix) -> CsrMatrix {
        rebuild_matrix()
            .reorder(&self.ordering)
            // lint: allow(panic-surface) — the held ordering was computed
            // for a matrix over the same fixed node universe; its dimensions
            // cannot disagree.
            .expect("held ordering fits the rebuilt matrix")
    }

    /// Abandons the ordering: rebuilds the block's matrix, re-orders and
    /// re-factorizes it under a `shard.refresh` span and posts the
    /// [`EngineEvent::RefreshTriggered`] journal event saying whether
    /// numerics or the quality budget forced it — the one re-order site of
    /// every arm.  The shard's running reach carries over.
    fn reorder(
        &mut self,
        rebuild_matrix: impl Fn() -> CsrMatrix,
        telemetry: &TelemetryRegistry,
        shard: usize,
        numeric: bool,
        quality_loss: f64,
        id: u64,
    ) -> LuResult<()> {
        let span = telemetry.span(Stage::ShardRefresh);
        let reach = self.reach;
        *self = order_and_factorize(&rebuild_matrix(), id)?;
        self.reach = reach;
        span.stop();
        telemetry.record_event(EngineEvent::RefreshTriggered {
            shard: shard as u32,
            numeric,
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
        factors: Some(MatrixFactors::Static(factors)),
    })
}

/// The flat factors of an engine block.  Every block the engine serves is
/// built by `block` above, over static factors.
pub(crate) fn static_factors(block: &DecomposedMatrix) -> &LuFactors {
    match &block.factors {
        Some(MatrixFactors::Static(factors)) => factors,
        _ => unreachable!("engine blocks hold static factors"),
    }
}

/// Orders `matrix`, factorizes it, and packages the bookkeeping as the block
/// current as of snapshot `id` — the one construction path shared by initial
/// builds, re-orders and repartitions.
///
/// The ordering is the paper's Markowitz product rule, so `reference_nnz` —
/// the denominator of Definition 4's quality-loss — is the factor size under
/// the paper's own `O*`.  The factorization is the up-looking kernel
/// ([`factorize_fresh`]), whose structure is closed under elimination.
pub(crate) fn order_and_factorize(matrix: &CsrMatrix, id: u64) -> LuResult<OrderedFactors> {
    let ordering = markowitz_ordering(&matrix.pattern()).ordering;
    let reordered = matrix
        .reorder(&ordering)
        // lint: allow(panic-surface) — the ordering was computed from this
        // matrix's own pattern one line up; its dimensions cannot disagree.
        .expect("ordering was computed for this matrix");
    let factors = factorize_fresh(&reordered)?;
    let reference_nnz = factors.nnz();
    Ok(OrderedFactors::new(
        ordering,
        factors,
        reference_nnz,
        Some(reordered),
        id,
    ))
}

/// The pre-delta successor lists of a batch's affected sources — the source
/// endpoint of every changed edge, the only nodes whose matrix column / row
/// the batch perturbs — captured into one flat buffer before the graph
/// mutates.
#[derive(Debug)]
pub(crate) struct OldSuccessors {
    /// The affected sources, ascending and distinct.
    sources: Vec<usize>,
    /// Source `i` owns `successors[offsets[i]..offsets[i + 1]]`, ascending.
    offsets: Vec<usize>,
    successors: Vec<usize>,
}

impl OldSuccessors {
    /// Captures the successors `graph` holds, before `delta` is applied to
    /// it, for every source `delta` names.
    pub(crate) fn capture(graph: &DiGraph, delta: &GraphDelta) -> Self {
        let mut sources: Vec<usize> = delta
            .added
            .iter()
            .chain(&delta.removed)
            .map(|&(u, _)| u)
            .collect();
        sources.sort_unstable();
        sources.dedup();
        let mut offsets = Vec::with_capacity(sources.len() + 1);
        let mut successors = Vec::new();
        offsets.push(0);
        for &u in &sources {
            successors.extend(graph.successors(u));
            offsets.push(successors.len());
        }
        OldSuccessors {
            sources,
            offsets,
            successors,
        }
    }

    /// `(source, its pre-delta successors)`, ascending by source.
    fn iter(&self) -> impl Iterator<Item = (usize, &[usize])> {
        self.sources
            .iter()
            .zip(self.offsets.windows(2))
            .map(|(&u, run)| (u, &self.successors[run[0]..run[1]]))
    }
}

/// The changed entries `(row, col, old, new)` of the measure matrix, in
/// *global* (original graph) coordinates, given the pre-delta successor lists
/// of the affected sources and the already-updated graph.
///
/// An edge operation only perturbs entries keyed by its source: for
/// `I − d·W` the source's column (the degree normalisation rescales the whole
/// column), for the Laplacian the source's row plus its diagonal.  The store
/// routes each entry to its owning shard or the coupling.  Entries come out
/// ascending by source, then by the other coordinate (the Laplacian diagonal
/// last): routing, the maintenance decision and the sweeps all see this
/// order.
pub(crate) fn global_matrix_delta(
    graph: &DiGraph,
    kind: MatrixKind,
    old: &OldSuccessors,
) -> Vec<(usize, usize, f64, f64)> {
    let mut out = Vec::new();
    let mut new_succ: Vec<usize> = Vec::new();
    for (u, old_succ) in old.iter() {
        new_succ.clear();
        new_succ.extend(graph.successors(u));
        match kind {
            MatrixKind::RandomWalk { damping } => {
                // Column u of A = I − d·W holds −d/deg(u) at each
                // successor's row; a degree change rescales the whole
                // column, an edge change moves its support.
                let old_w = column_weight(damping, old_succ.len());
                let new_w = column_weight(damping, new_succ.len());
                for_each_in_union(old_succ, &new_succ, |v, in_old, in_new| {
                    let old = if in_old { old_w } else { 0.0 };
                    let new = if in_new { new_w } else { 0.0 };
                    if old != new {
                        out.push((v, u, old, new));
                    }
                });
            }
            MatrixKind::SymmetricLaplacian { shift } => {
                // Row u of A = σ·I + D − Adj: −1 at each successor and
                // the degree on the diagonal.
                for_each_in_union(old_succ, &new_succ, |v, in_old, in_new| {
                    // A self-loop is folded into the diagonal below.
                    if v != u && in_old != in_new {
                        let value = |present: bool| if present { -1.0 } else { 0.0 };
                        out.push((u, v, value(in_old), value(in_new)));
                    }
                });
                let diag = |succ: &[usize]| {
                    let self_loop = if succ.binary_search(&u).is_ok() {
                        1.0
                    } else {
                        0.0
                    };
                    shift + succ.len() as f64 - self_loop
                };
                if diag(old_succ) != diag(&new_succ) {
                    out.push((u, u, diag(old_succ), diag(&new_succ)));
                }
            }
        }
    }
    out
}

/// Two-pointer walk over the union of two ascending lists:
/// `visit(v, in a, in b)` once per distinct `v`, ascending.
fn for_each_in_union(a: &[usize], b: &[usize], mut visit: impl FnMut(usize, bool, bool)) {
    let (mut i, mut j) = (0, 0);
    while i < a.len() || j < b.len() {
        let in_a = j == b.len() || (i < a.len() && a[i] <= b[j]);
        let in_b = i == a.len() || (j < b.len() && b[j] <= a[i]);
        let v = if in_a { a[i] } else { b[j] };
        visit(v, in_a, in_b);
        i += usize::from(in_a);
        j += usize::from(in_b);
    }
}

/// The per-successor weight of column `u` in `I − d·W`.
fn column_weight(damping: f64, out_degree: usize) -> f64 {
    if out_degree == 0 {
        0.0
    } else {
        -damping / out_degree as f64
    }
}

/// Test oracle shared by the crate's unit tests: dense Gaussian elimination
/// on the snapshot's measure matrix, normalised like a served answer.  It
/// shares no ordering, factor or routing code with the store under test.
#[cfg(test)]
pub(crate) fn dense_answer(
    graph: &DiGraph,
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
    use clude_graph::measure_matrix;
    use clude_measures::MeasureQuery;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, BTreeSet};

    fn base_graph() -> DiGraph {
        let mut g = DiGraph::from_edges(6, (0..6).map(|i| (i, (i + 1) % 6)).collect::<Vec<_>>());
        g.add_edge(2, 0);
        g.add_edge(4, 0);
        g
    }

    fn one_shard(graph: DiGraph, kind: MatrixKind, policy: RefreshPolicy) -> ShardedFactorStore {
        let partition = NodePartition::singleton(graph.n_nodes());
        ShardedFactorStore::new(graph, kind, policy, partition).unwrap()
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
            RefreshPolicy::Incremental,
        );
        assert_eq!(store.snapshot_id(), 0);

        let delta = GraphDelta {
            added: vec![(1, 4), (5, 2)],
            removed: vec![(2, 0)],
        };
        let report = store.advance(&delta).unwrap();
        assert_eq!(report.snapshot_id, 1);
        assert!(!report.refreshed);
        assert!(report.bennett.rank_one_updates > 0);
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
        let mut store = one_shard(
            base_graph(),
            MatrixKind::random_walk_default(),
            RefreshPolicy::QualityTriggered {
                max_quality_loss: 0.0,
            },
        );
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
        let mut store = one_shard(
            base_graph(),
            MatrixKind::random_walk_default(),
            RefreshPolicy::default(),
        );
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
            RefreshPolicy::Incremental,
        );
        let snap0 = store.snapshot();
        // Two snapshots with no advance in between share the handle.
        assert!(Arc::ptr_eq(
            snap0.shards()[0].shared(),
            store.snapshot().shards()[0].shared()
        ));
        // An empty batch advances the snapshot id but performs no factor
        // work: the handle keeps being shared (index records snapshot 0).
        let report = store.advance(&GraphDelta::empty()).unwrap();
        assert_eq!(report.per_shard[0].entries_applied, 0);
        assert_eq!(report.shards_republished, 0);
        let snap1 = store.snapshot();
        assert_eq!(snap1.id(), 1);
        assert!(Arc::ptr_eq(
            snap0.shards()[0].shared(),
            snap1.shards()[0].shared()
        ));
        assert_eq!(snap1.shards()[0].decomposed().index, 0);
        // A real batch replaces the handle.
        let report = store
            .advance(&GraphDelta {
                added: vec![(0, 3)],
                removed: vec![],
            })
            .unwrap();
        assert_eq!(report.shards_republished, 1);
        let snap2 = store.snapshot();
        assert!(!Arc::ptr_eq(
            snap1.shards()[0].shared(),
            snap2.shards()[0].shared()
        ));
        assert_eq!(snap2.shards()[0].decomposed().index, 2);
    }

    #[test]
    fn value_only_batches_take_the_refactor_fast_path() {
        let telemetry = Arc::new(TelemetryRegistry::new(
            clude_telemetry::TelemetryConfig::default(),
        ));
        let mut store = one_shard(
            base_graph(),
            MatrixKind::random_walk_default(),
            RefreshPolicy::Incremental,
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
        assert_eq!(shard.arm, Some(MaintenanceArm::FrozenRefactor));
        assert!(shard.predicted_cost > 0.0 && shard.actual_work > 0);
        assert_eq!(report.bennett.rank_one_updates, 0);
        assert!(shard.entries_applied > 0);
        assert!(telemetry.stage_histogram(Stage::ShardRefactor).count() > 0);
        assert_eq!(telemetry.stage_histogram(Stage::ShardSweep).count(), 0);
        // The refactored factors are exact.
        let q = MeasureQuery::Rwr {
            seed: 3,
            damping: 0.85,
        };
        assert_matches_dense(&store, &q);
        // The other side of the per-batch choice: an insert on a position the
        // factors do not store is structural and Bennett-sweeps.
        let report = store
            .advance(&GraphDelta {
                added: vec![(1, 4)],
                removed: vec![],
            })
            .unwrap();
        assert_eq!(report.per_shard[0].arm, Some(MaintenanceArm::BennettSweep));
        assert_eq!(
            report.per_shard[0].actual_work,
            report.bennett.entries_touched as u64
        );
        assert!(report.bennett.rank_one_updates > 0);
        assert!(telemetry.stage_histogram(Stage::ShardSweep).count() > 0);
        assert_matches_dense(&store, &q);
    }

    #[test]
    fn a_rebuild_whose_pivot_degrades_ends_in_a_journalled_re_order() {
        use clude_sparse::CooMatrix;
        use clude_telemetry::EventKind;
        let matrix = |entries: &[(usize, usize, f64)]| {
            let mut coo = CooMatrix::new(3, 3);
            for &(i, j, v) in entries {
                coo.push(i, j, v).unwrap();
            }
            CsrMatrix::from_coo(&coo)
        };
        // A diagonal block is ordered as it stands …
        let mut of =
            order_and_factorize(&matrix(&[(0, 0, 5.0), (1, 1, 2.0), (2, 2, 2.0)]), 0).unwrap();
        assert_eq!(of.row_old_to_new, vec![0, 1, 2]);
        assert_eq!(of.col_old_to_new, vec![0, 1, 2]);
        // … and under that ordering the block's next matrix pivots first on
        // 1e-14 beside entries of magnitude 1: past PIVOT_DEGRADE_TOL.
        let next = matrix(&[
            (0, 0, 1e-14),
            (0, 1, 1.0),
            (0, 2, 1.0),
            (1, 0, 1.0),
            (1, 1, 2.0),
            (2, 0, 1.0),
            (2, 2, 2.0),
        ]);
        assert!(matches!(
            rebuild_under_ordering(&next),
            Err(LuError::SingularPivot { index: 0, .. })
        ));
        let telemetry = TelemetryRegistry::new(clude_telemetry::TelemetryConfig::default());
        let outcome = of
            .maintain(
                Staged::Rebuild,
                &mut BennettWorkspace::new(),
                &mut RefactorWorkspace::new(),
                &[],
                &telemetry,
                0,
                1,
                || next.clone(),
            )
            .unwrap();
        // The abandoned rebuild wrote nothing; the block was re-ordered —
        // typed, journalled — and what is served pivots on healthy entries.
        assert_eq!(outcome.arm, MaintenanceArm::Reorder);
        let journal = telemetry.journal();
        assert_eq!(journal.count_of(EventKind::RefactorFallback), 1);
        assert!(journal.entries().iter().any(|e| matches!(
            e.event,
            EngineEvent::RefactorFallback {
                shard: 0,
                reason: FallbackReason::Pivot
            }
        )));
        assert!(journal.entries().iter().any(|e| matches!(
            e.event,
            EngineEvent::RefreshTriggered {
                shard: 0,
                numeric: true,
                ..
            }
        )));
        assert_eq!(telemetry.stage_histogram(Stage::ShardRefactor).count(), 1);
        assert_eq!(telemetry.stage_histogram(Stage::ShardRefresh).count(), 1);
        assert_ne!(of.row_old_to_new, vec![0, 1, 2], "a fresh ordering");
        for k in 0..3 {
            assert!(of.factors().u(k, k).abs() >= 0.4, "pivot {k}");
        }
        let block = of.block();
        assert_eq!(block.index, 1);
        let b = [1.0, -2.0, 0.5];
        let x = clude_lu::solve_original(static_factors(block), &block.ordering, &b).unwrap();
        let expected = next.to_dense().solve_gaussian(&b).unwrap();
        for (got, want) in x.iter().zip(&expected) {
            assert!((got - want).abs() <= 1e-12, "{got} vs {want}");
        }
    }

    #[test]
    fn a_failed_frozen_pass_writes_nothing_the_engine_keeps() {
        use clude_sparse::CooMatrix;
        let matrix = |entries: &[(usize, usize, f64)]| {
            let mut coo = CooMatrix::new(3, 3);
            for &(i, j, v) in entries {
                coo.push(i, j, v).unwrap();
            }
            CsrMatrix::from_coo(&coo)
        };
        let bits = |entries: Vec<(usize, usize, f64)>| {
            entries
                .into_iter()
                .map(|(i, j, v)| (i, j, v.to_bits()))
                .collect::<Vec<_>>()
        };
        // A diagonal block, ordered as it stands and published.  The batch
        // rewrites both changed rows: row 0 passes, row 1's pivot is zero —
        // the pass fails after it rewrote row 0 of its copy.
        let mut of =
            order_and_factorize(&matrix(&[(0, 0, 5.0), (1, 1, 2.0), (2, 2, 2.0)]), 0).unwrap();
        assert_eq!(of.row_old_to_new, vec![0, 1, 2]);
        let published = Arc::clone(of.block());
        let block_before = bits(static_factors(&published).export_entries());
        // Through the arm, the failure ends in a journalled re-order (of the
        // block's matrix as the graph has it), and the block snapshots hold
        // is still the one they were served.
        let telemetry = TelemetryRegistry::new(clude_telemetry::TelemetryConfig::default());
        let delta = [(0, 0, 5.0, 6.0), (1, 1, 2.0, 0.0)];
        let outcome = of
            .maintain(
                Staged::FrozenRefactor,
                &mut BennettWorkspace::new(),
                &mut RefactorWorkspace::new(),
                &delta,
                &telemetry,
                0,
                1,
                || matrix(&[(0, 0, 6.0), (1, 1, 3.0), (2, 2, 2.0)]),
            )
            .unwrap();
        assert_eq!(outcome.arm, MaintenanceArm::Reorder);
        assert_eq!(outcome.rows_refactored, 0);
        assert!(telemetry.journal().entries().iter().any(|e| matches!(
            e.event,
            EngineEvent::RefactorFallback {
                shard: 0,
                reason: FallbackReason::Pivot
            }
        )));
        assert_eq!(
            bits(static_factors(&published).export_entries()),
            block_before
        );
        assert!(!Arc::ptr_eq(&published, of.block()));
        let mut pivots: Vec<f64> = (0..3).map(|k| of.factors().u(k, k)).collect();
        pivots.sort_by(f64::total_cmp);
        assert_eq!(pivots, [2.0, 3.0, 6.0]);
    }

    /// The set-per-source body `global_matrix_delta` had before it walked
    /// sorted slices, kept as the oracle: a `BTreeMap` of old successor
    /// lists in, two `BTreeSet`s and their union per source.
    fn global_matrix_delta_by_sets(
        graph: &DiGraph,
        kind: MatrixKind,
        old_info: &BTreeMap<usize, Vec<usize>>,
    ) -> Vec<(usize, usize, f64, f64)> {
        let mut out = Vec::new();
        for (&u, old_succ) in old_info {
            let old_set: BTreeSet<usize> = old_succ.iter().copied().collect();
            let new_set: BTreeSet<usize> = graph.successors(u).collect();
            match kind {
                MatrixKind::RandomWalk { damping } => {
                    let old_w = column_weight(damping, old_set.len());
                    let new_w = column_weight(damping, new_set.len());
                    for &v in old_set.union(&new_set) {
                        let old = if old_set.contains(&v) { old_w } else { 0.0 };
                        let new = if new_set.contains(&v) { new_w } else { 0.0 };
                        if old != new {
                            out.push((v, u, old, new));
                        }
                    }
                }
                MatrixKind::SymmetricLaplacian { shift } => {
                    for &v in old_set.union(&new_set) {
                        if v == u {
                            continue;
                        }
                        let old = if old_set.contains(&v) { -1.0 } else { 0.0 };
                        let new = if new_set.contains(&v) { -1.0 } else { 0.0 };
                        if old != new {
                            out.push((u, v, old, new));
                        }
                    }
                    let diag = |set: &BTreeSet<usize>| {
                        let self_loop = if set.contains(&u) { 1.0 } else { 0.0 };
                        shift + set.len() as f64 - self_loop
                    };
                    if diag(&old_set) != diag(&new_set) {
                        out.push((u, u, diag(&old_set), diag(&new_set)));
                    }
                }
            }
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The slice walk against the set-per-source oracle, both matrix
        /// kinds: identical entry lists — values bit for bit — in identical
        /// order, on deltas with repeated sources, no-op operations, sources
        /// that lose every successor and sources that gain their first.
        #[test]
        fn matrix_delta_over_slices_equals_the_set_per_source_oracle(
            edges in proptest::collection::vec((0usize..10, 0usize..10), 0..40),
            added in proptest::collection::vec((0usize..10, 0usize..10), 0..8),
            removed in proptest::collection::vec((0usize..10, 0usize..10), 0..8),
            drained in 0usize..10,
        ) {
            let base = DiGraph::from_edges(10, edges);
            // One source loses its whole successor list.
            let mut removed = removed;
            removed.extend(base.successors(drained).map(|v| (drained, v)));
            let delta = GraphDelta { added, removed };
            for kind in [
                MatrixKind::random_walk_default(),
                MatrixKind::SymmetricLaplacian { shift: 1.0 },
            ] {
                let mut graph = base.clone();
                let old = OldSuccessors::capture(&graph, &delta);
                let old_info: BTreeMap<usize, Vec<usize>> = delta
                    .added
                    .iter()
                    .chain(&delta.removed)
                    .map(|&(u, _)| (u, graph.successors(u).collect()))
                    .collect();
                delta.apply(&mut graph);
                let got = global_matrix_delta(&graph, kind, &old);
                let want = global_matrix_delta_by_sets(&graph, kind, &old_info);
                let bits = |entries: &[(usize, usize, f64, f64)]| {
                    entries
                        .iter()
                        .map(|&(r, c, old, new)| (r, c, old.to_bits(), new.to_bits()))
                        .collect::<Vec<_>>()
                };
                prop_assert_eq!(bits(&got), bits(&want), "{:?}", kind);
            }
        }
    }

    #[test]
    fn advance_rejects_out_of_universe_deltas_without_mutating() {
        let mut store = one_shard(
            base_graph(),
            MatrixKind::random_walk_default(),
            RefreshPolicy::Incremental,
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
        let mut store = one_shard(g, kind, RefreshPolicy::Incremental);
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
            RefreshPolicy::Incremental,
        );
        assert_eq!(store.matrix_kind(), MatrixKind::random_walk_default());
        assert_eq!(store.policy(), RefreshPolicy::Incremental);
        assert_eq!(store.n_shards(), 1);
        assert!(store.factor_nnz() > 0);
        assert_eq!(store.coupling_nnz(), 0);
        assert_eq!(store.quality_loss(), 0.0);
        let snap = store.snapshot();
        assert_eq!(snap.n_nodes(), 6);
        assert!(snap.graph().has_edge(2, 0));
        assert_eq!(snap.shards()[0].decomposed().index, 0);
        assert_eq!(snap.coupling().nnz(), 0);
        // What a one-shard checkpoint records under the default config: no
        // repartition trigger, no coupling, one block.
        let durable = store.durable_state();
        assert_eq!(durable.next_repartition_at, None);
        assert!(durable.coupling.is_empty());
        assert_eq!(durable.blocks.len(), 1);
        assert_eq!(durable.partition.n_shards(), 1);
    }
}
