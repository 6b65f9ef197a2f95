//! The pieces every factor shard and every published snapshot are made of.
//!
//! * [`EngineSnapshot`] / [`ShardSnapshot`] — the immutable unit the query
//!   side serves from: one shared factor block per shard, the frozen
//!   cross-shard coupling and the composition they factorize — no graph.
//! * `OrderedFactors` — one shard: its ordering, its factors — the last block
//!   it published, which is the live storage itself — its quality anchor,
//!   and the [`clude_lu::Maintainer`] holding the matrix the block
//!   factorizes, which every batch writes its slice into, so no arm reads
//!   the graph.  The one maintenance decision every advance takes per shard
//!   (`ShardedFactorStore::stage`) chooses among the four [`MaintenanceArm`]s
//!   by predicted cost: Bennett sweeps over a structure extended to cover the
//!   batch (`clude_lu::extend_structure`), a pattern-frozen refactorization
//!   of the changed rows' elimination reach for value-only batches, a
//!   rebuild under the held ordering (`clude_lu::rebuild_under_ordering`), a
//!   re-order.
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

use crate::coupling::{self, CouplingPlan, FrozenCoupling, SolveTolerance, System};
use clude::{DecomposedMatrix, MatrixFactors};
use clude_graph::{DiGraph, GraphDelta, MatrixKind, NodePartition};
use clude_lu::{
    cost, factorize_fresh, markowitz_ordering, rebuild_under_ordering, BennettStats, LuError,
    LuFactors, LuResult, Maintainer,
};
use clude_measures::{evaluate_query_with, MeasureQuery, MeasureSolver};
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

/// One immutable, queryable snapshot: per-shard decomposed factors sharing
/// one snapshot id, and the composition they factorize — no graph.
///
/// The store publishes one [`ShardSnapshot`] per shard plus the cross-shard
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
    shards: Vec<ShardSnapshot>,
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
        shards: Vec<ShardSnapshot>,
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

    /// The per-shard decomposed blocks, in shard order.
    pub fn shards(&self) -> &[ShardSnapshot] {
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

/// The four ways a shard can absorb its slice of a batch — the range of the
/// one maintenance decision (`ShardedFactorStore::stage`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MaintenanceArm {
    /// One Bennett rank-one sweep per changed column
    /// ([`clude_lu::Maintainer::sweep`]) over a copy of the block, whose
    /// structure is first extended to cover the slice's entries
    /// (`clude_lu::extend_structure`) — the sweep's fill cannot escape it.
    BennettSweep,
    /// One numeric pass down the frozen symbolic pattern — value-only
    /// batches — over a copy of the block, recomputing only the elimination
    /// reach of the changed rows, since the block's structure is closed
    /// under elimination ([`clude_lu::Maintainer::refactor_reach`]).
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

/// One shard's decided arm, staged before it runs: a sweep carries the copy
/// of the block it runs on — the block over its structure extended to cover
/// the slice's entries ([`clude_lu::extend_structure`]), which the sweep's
/// fill cannot escape — and every other arm copies or builds its block
/// itself.
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

/// What one shard did with its slice of a batch.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ShardOutcome {
    /// The arm that produced the factors now live: the decided one, or
    /// [`MaintenanceArm::Reorder`] when a guard failure abandoned it.
    pub arm: MaintenanceArm,
    /// The arm's counted work, in [`MaintenanceArm::model_cost`]'s unit.
    pub actual_work: u64,
    /// Rows the frozen-pattern pass recomputed (0 for the other arms).
    pub rows_refactored: usize,
    /// Slots the sweep's extended copy holds beyond the block it extended
    /// (0 for the other arms, and for a sweep abandoned for a re-order).
    pub slots_added: u64,
    pub bennett: BennettStats,
}

/// One factor shard: its matrix's fill-reducing ordering, its factors under
/// that ordering, and the derived bookkeeping — the `old → new` index maps
/// advances translate coordinates with, and the factor size that anchors the
/// quality-loss metric — beside the [`Maintainer`] holding the matrix the
/// factors factorize.  Local coordinates throughout.
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
    /// Multiply-adds of a numeric factorization down the pattern the factors
    /// had when they were last factorized as a whole (slots a sweep's
    /// extension added since are not counted): the decision's
    /// elimination-work input.
    pub elimination_work: u64,
    /// The block's matrix in factor coordinates, current after every batch —
    /// each writes its slice into it before its arm runs — with the running
    /// reach the decision predicts sweeps from and the arms' scratch.  The
    /// reach survives the shard's own re-orders — it follows the block's
    /// shape, which a new ordering of the same block barely moves; a
    /// repartition or a restore starts a fresh shard from the prior.
    pub maintainer: Maintainer,
    /// A batch's entries in factor coordinates, reused across advances.
    pub mapped: Vec<(usize, usize, f64, f64)>,
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
            row_old_to_new: ordering.row().old_to_new(),
            col_old_to_new: ordering.col().old_to_new(),
            elimination_work: factors.structure().elimination_work(),
            block: block(id, &ordering, factors),
            ordering,
            reference_nnz,
            maintainer: Maintainer::new(matrix),
            mapped: Vec::new(),
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

    /// Writes the staged slice into the held matrix, then runs the staged
    /// arm over it under the arm's stage span and installs what it wrote as
    /// the block current as of snapshot `id`.  A sweep runs on the copy
    /// `staged` carries, the frozen-pattern pass on a copy of the block as it
    /// stands.  A guard failure — a Bennett pivot going singular, an entry
    /// or fill outside a frozen pattern, a refactor or rebuild pivot
    /// degrading — abandons the arm, and its copy, for a re-order of the
    /// held matrix, typed and journalled; an `Ok` return always leaves
    /// servable factors.
    pub(crate) fn maintain(
        &mut self,
        staged: Staged,
        telemetry: &TelemetryRegistry,
        shard: usize,
        id: u64,
    ) -> LuResult<ShardOutcome> {
        let arm = staged.arm();
        let mut outcome = ShardOutcome {
            arm,
            actual_work: 0,
            rows_refactored: 0,
            slots_added: 0,
            bennett: BennettStats::default(),
        };
        self.maintainer.write(&self.mapped);
        let done = match staged {
            Staged::Sweep(copy) => {
                // The reach is a share of the block the decision priced, not
                // of the extended copy.
                let nnz_before = self.factors().nnz();
                let span = telemetry.span(Stage::ShardSweep);
                let swept = copy.and_then(|mut block| {
                    let bennett = self
                        .maintainer
                        .sweep(&mut block, &self.mapped, nnz_before)?;
                    Ok((block, bennett))
                });
                span.stop();
                swept.map(|(block, bennett)| {
                    outcome.slots_added = (block.nnz() - nnz_before) as u64;
                    self.install(block, id);
                    outcome.bennett = bennett;
                    bennett.entries_touched as u64
                })
            }
            Staged::FrozenRefactor => {
                let span = telemetry.span(Stage::ShardRefactor);
                let mut block = self.factors().clone();
                let refactored = self.maintainer.refactor_reach(&mut block, &self.mapped);
                span.stop();
                refactored.map(|stats| {
                    self.install(block, id);
                    outcome.rows_refactored = stats.rows_refactored;
                    stats.multiply_adds
                })
            }
            Staged::Rebuild => {
                // The batch moved the pattern: factorize the held matrix
                // without the zeros removals left stored; the factors are
                // untouched until the pass succeeded.
                let matrix = self.maintainer.matrix().prune(0.0);
                let span = telemetry.span(Stage::ShardRefactor);
                let rebuilt = rebuild_under_ordering(&matrix).map(|(factors, stats)| {
                    self.install(factors, id);
                    self.maintainer.set_matrix(matrix);
                    self.elimination_work = stats.multiply_adds;
                    stats.multiply_adds
                });
                span.stop();
                rebuilt
            }
            Staged::Reorder => {
                let quality_loss = self.quality_loss();
                self.reorder(telemetry, shard, false, quality_loss, id)?;
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
                self.reorder(telemetry, shard, true, 0.0, id)?;
                outcome.arm = MaintenanceArm::Reorder;
                self.elimination_work
            }
        };
        Ok(outcome)
    }

    /// Abandons the ordering: maps the held matrix, without its stored
    /// zeros, back to local coordinates, re-orders and re-factorizes it
    /// under a `shard.refresh` span and posts the
    /// [`EngineEvent::RefreshTriggered`] journal event saying whether
    /// numerics or the quality budget forced it — the one re-order site of
    /// every arm.  The running reach and the scratch carry over.
    fn reorder(
        &mut self,
        telemetry: &TelemetryRegistry,
        shard: usize,
        numeric: bool,
        quality_loss: f64,
        id: u64,
    ) -> LuResult<()> {
        let span = telemetry.span(Stage::ShardRefresh);
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
        self.row_old_to_new = ordering.row().old_to_new();
        self.col_old_to_new = ordering.col().old_to_new();
        self.elimination_work = factors.structure().elimination_work();
        self.reference_nnz = factors.nnz();
        self.block = block(id, &ordering, factors);
        self.ordering = ordering;
        self.maintainer.set_matrix(matrix);
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
/// path of initial builds and repartitions.
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

    /// Stages `local` — a slice of `(row, col, old, new)` in the block's local
    /// coordinates — the way an advance does, translated into factor
    /// coordinates.
    fn map_slice(of: &mut OrderedFactors, local: &[(usize, usize, f64, f64)]) {
        of.mapped = local
            .iter()
            .map(|&(i, j, old, new)| (of.row_old_to_new[i], of.col_old_to_new[j], old, new))
            .collect();
    }

    /// The served block solves `next`'s systems to 1e-12.
    fn assert_serves(of: &OrderedFactors, next: &CsrMatrix) {
        let block = of.block();
        let b: Vec<f64> = (0..next.n_rows())
            .map(|i| [1.0, -2.0, 0.5][i % 3])
            .collect();
        let x = clude_lu::solve_original(static_factors(block), &block.ordering, &b).unwrap();
        let expected = next.to_dense().solve_gaussian(&b).unwrap();
        for (got, want) in x.iter().zip(&expected) {
            assert!((got - want).abs() <= 1e-12, "{got} vs {want}");
        }
    }

    #[test]
    fn a_rebuild_whose_pivot_degrades_ends_in_a_journalled_re_order() {
        use clude_telemetry::EventKind;
        // A diagonal block is ordered as it stands …
        let mut of =
            order_and_factorize(&matrix(&[(0, 0, 5.0), (1, 1, 2.0), (2, 2, 2.0)]), 0).unwrap();
        assert_eq!(of.row_old_to_new, vec![0, 1, 2]);
        assert_eq!(of.col_old_to_new, vec![0, 1, 2]);
        // … and the batch writes its next matrix, which under that ordering
        // pivots first on 1e-14 beside entries of magnitude 1: past
        // PIVOT_DEGRADE_TOL.
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
        map_slice(
            &mut of,
            &[
                (0, 0, 5.0, 1e-14),
                (0, 1, 0.0, 1.0),
                (0, 2, 0.0, 1.0),
                (1, 0, 0.0, 1.0),
                (2, 0, 0.0, 1.0),
            ],
        );
        let telemetry = TelemetryRegistry::new(clude_telemetry::TelemetryConfig::default());
        let outcome = of.maintain(Staged::Rebuild, &telemetry, 0, 1).unwrap();
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
        assert_eq!(of.block().index, 1);
        assert_serves(&of, &next);
    }

    #[test]
    fn a_failed_frozen_pass_writes_nothing_the_engine_keeps() {
        use clude_telemetry::EventKind;
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
        assert_eq!(of.row_old_to_new, vec![2, 1, 0, 3]);
        let published = Arc::clone(of.block());
        let block_before = bits(static_factors(&published).export_entries());
        // A value-only batch — every position is a slot of the block — drops
        // the edge 0 – 3 and lowers three diagonal entries: factor row 0
        // (node 2) passes, factor row 1 (node 1) eliminates to exactly zero,
        // so the pass fails after it rewrote row 0 of its copy.
        map_slice(
            &mut of,
            &[
                (0, 0, 4.0, 2.0),
                (0, 3, 1.0, 0.0),
                (1, 1, 4.0, 1.0),
                (2, 2, 4.0, 1.0),
                (3, 0, 1.0, 0.0),
            ],
        );
        let telemetry = TelemetryRegistry::new(clude_telemetry::TelemetryConfig::default());
        let outcome = of
            .maintain(Staged::FrozenRefactor, &telemetry, 0, 1)
            .unwrap();
        // Through the arm, the failure ends in a journalled re-order, and the
        // block snapshots hold is still the one they were served.
        assert_eq!(outcome.arm, MaintenanceArm::Reorder);
        assert_eq!(outcome.rows_refactored, 0);
        let journal = telemetry.journal();
        assert_eq!(journal.count_of(EventKind::RefactorFallback), 1);
        assert!(journal.entries().iter().any(|e| matches!(
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
        // The re-order is of the matrix the batch wrote, without the zeros
        // it left stored: node 3 is isolated now and comes first.
        assert_eq!(of.row_old_to_new[3], 0);
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
        assert_eq!(snap.shards()[0].decomposed().index, 0);
        assert_eq!(snap.coupling_nnz(), 0);
        // What a one-shard checkpoint records under the default config: no
        // repartition trigger, one shard.
        let durable = store.durable_state();
        assert_eq!(durable.next_repartition_at, None);
        assert_eq!(durable.shards.len(), 1);
        assert_eq!(durable.partition.n_shards(), 1);
    }
}
