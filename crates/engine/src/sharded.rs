//! The factor store: per-shard LU factors with a cross-shard coupling term
//! and parallel delta application.
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
//! `A[S_s, S_s]` of the measure matrix (its own ordering, dynamic factors and
//! [`BennettWorkspace`]), while the entries whose
//! row and column straddle two shards live in a sparse coupling matrix:
//!
//! ```text
//!        A  =  blockdiag(A_00, …, A_kk)  +  C        (exactly, by construction)
//! ```
//!
//! A [`GraphDelta`] is routed entry-wise: an entry whose row and column live
//! in the same shard becomes a Bennett update of that shard's factors (in
//! local coordinates), a cross-shard entry is a plain value write into the
//! coupling — it never touches any factors.  The frozen coupling CSR
//! snapshots serve from *is* the state: a batch's writes are merged into the
//! previous one in a single pass ([`CsrMatrix::merge_writes`]).  Because the
//! per-shard entry lists are disjoint, shards with pending work apply their
//! updates **in parallel** across scoped threads, each sweeping with its own
//! workspace.
//!
//! Queries recombine exactly: snapshots expose the per-shard factors plus a
//! frozen coupling matrix, and the block Gauss–Seidel pass over them
//! ([`crate::coupling`]) contracts for the engine's diagonally dominant
//! M-matrices, so the Krylov iteration it preconditions matches a dense
//! solve of the snapshot's measure matrix — and the one-shard store — to
//! well below 1e-9.

use crate::coupling::{CouplingConfig, FrozenCoupling};
use crate::error::{EngineError, EngineResult};
use crate::store::{
    global_matrix_delta, order_and_factorize, EngineSnapshot, MaintenanceArm, MaintenanceDecision,
    OldSuccessors, OrderedFactors, RefreshPolicy, ShardOutcome, ShardSnapshot,
};
use clude::{partition::edge_locality_partition, DecomposedMatrix};
use clude_graph::{
    btf_partition, coupling_matrix, shard_measure_matrix, DiGraph, GraphDelta, MatrixKind,
    NodePartition,
};
use clude_lu::{BennettStats, BennettWorkspace, LuError, RefactorWorkspace, ShardWorkspaces};
use clude_sparse::CsrMatrix;
use clude_telemetry::{EngineEvent, Stage, TelemetryRegistry};
use std::sync::Arc;

/// How the store derives a node partition when it repartitions (and how the
/// engine derives the initial one).
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

/// One shard's factors under its own ordering (local coordinates
/// throughout; refreshes replace the whole [`OrderedFactors`]).
#[derive(Debug, Clone)]
struct FactorShard {
    of: OrderedFactors,
    /// A batch's entries in factor coordinates, reused across advances.
    mapped: Vec<(usize, usize, f64, f64)>,
}

impl FactorShard {
    fn new(of: OrderedFactors) -> Self {
        FactorShard {
            of,
            mapped: Vec::new(),
        }
    }

    fn build(
        graph: &DiGraph,
        kind: MatrixKind,
        partition: &NodePartition,
        shard: usize,
    ) -> EngineResult<Self> {
        let matrix = shard_measure_matrix(graph, kind, partition, shard);
        Ok(FactorShard::new(order_and_factorize(&matrix)?))
    }

    /// Runs the decided arm over one shard-local entry list (local
    /// coordinates), translated through the shard's ordering.  Runs on a
    /// worker thread during parallel advances.
    fn apply(
        &mut self,
        decision: MaintenanceDecision,
        ws: &mut BennettWorkspace,
        rws: &mut RefactorWorkspace,
        entries: &[(usize, usize, f64, f64)],
        ctx: SweepContext<'_>,
        shard: usize,
    ) -> Result<ShardOutcome, LuError> {
        let of = &self.of;
        self.mapped.clear();
        self.mapped.extend(
            entries
                .iter()
                .map(|&(r, c, old, new)| (of.row_old_to_new[r], of.col_old_to_new[c], old, new)),
        );
        self.of.maintain(
            decision,
            ws,
            rws,
            &self.mapped,
            ctx.telemetry,
            shard,
            || shard_measure_matrix(ctx.graph, ctx.kind, ctx.partition, shard),
        )
    }
}

/// Shared read-only context of one advance's per-shard arms.
#[derive(Clone, Copy)]
struct SweepContext<'a> {
    graph: &'a DiGraph,
    partition: &'a NodePartition,
    kind: MatrixKind,
    /// Shared sink for per-shard sweep/refactor/refresh spans (worker
    /// threads record concurrently through relaxed atomics).
    telemetry: &'a TelemetryRegistry,
}

/// The cross-shard entries of the measure matrix over `partition`, as the
/// store holds them: [`coupling_matrix`] with exact zeros dropped (a zero
/// damping composes them), the same entry set batch after batch of merged
/// writes arrives at.
fn cross_shard_coupling(graph: &DiGraph, kind: MatrixKind, partition: &NodePartition) -> CsrMatrix {
    let coupling = coupling_matrix(graph, kind, partition);
    let zeros: Vec<(usize, usize, f64)> = coupling.iter().filter(|e| e.2 == 0.0).collect();
    if zeros.is_empty() {
        coupling
    } else {
        coupling.merge_writes(&zeros)
    }
}

/// Per-shard slice of a [`ShardedAdvanceReport`].
#[derive(Debug, Clone, Copy, Default)]
pub struct ShardAdvance {
    /// The shard id.
    pub shard: usize,
    /// Changed matrix entries applied to this shard's factors.
    pub entries_applied: u64,
    /// Bennett rank-one updates (sweeps) the entries triggered.
    pub sweeps: u64,
    /// Cross-shard edge changes routed *from* this shard (its nodes were the
    /// source endpoint) into the coupling.
    pub cross_edges_seen: u64,
    /// The arm that absorbed this shard's slice of the batch (`None` for a
    /// shard the batch did not touch): the one the maintenance decision
    /// chose, or [`MaintenanceArm::Reorder`] when a guard failure abandoned
    /// it (the journal's `RefreshTriggered { numeric: true, .. }` marks
    /// those).
    pub arm: Option<MaintenanceArm>,
    /// What the decision's cost model expected its chosen arm to cost
    /// ([`MaintenanceArm::model_cost`] on the predicted work, nanoseconds).
    /// For [`MaintenanceArm::FrozenRefactor`] that is the full pass's cost —
    /// the only arm a value-only slice can take, so the prediction is never
    /// compared with another and stays an upper bound on the pass, which
    /// recomputes only the changed rows' elimination reach.
    pub predicted_cost: f64,
    /// The work `arm` counted, in the unit [`MaintenanceArm::model_cost`]
    /// takes: factor entries touched by the sweeps, or multiply-adds of the
    /// numeric factorization — for the frozen-pattern pass, those of the
    /// rows it recomputed.
    pub actual_work: u64,
    /// Rows the frozen-pattern pass recomputed: the elimination reach of the
    /// slice's changed rows, or the whole block over a structure not closed
    /// under elimination (0 for the other arms).
    pub rows_refactored: u64,
    /// The order of the shard's block, so `rows_refactored / block_order`
    /// is the share of the block a frozen-pattern pass recomputed.
    pub block_order: u64,
    /// The shard's quality-loss after the advance.
    pub quality_loss: f64,
}

/// What one [`ShardedFactorStore::advance`] did, shard by shard.
#[derive(Debug, Clone, Default)]
pub struct ShardedAdvanceReport {
    /// The id of the snapshot the batch produced.
    pub snapshot_id: u64,
    /// Aggregated Bennett work across all shards.
    pub bennett: BennettStats,
    /// Per-shard breakdown, indexed by shard id (shards without work report
    /// zeros).
    pub per_shard: Vec<ShardAdvance>,
    /// Whether any shard re-ordered (by decision or by fallback).
    pub refreshed: bool,
    /// Worst per-shard quality-loss after the advance.
    pub quality_loss: f64,
    /// Cross-shard coupling entries written by this batch.
    pub coupling_writes: u64,
    /// Shards whose shared factor handle was re-frozen by this batch; the
    /// other `n_shards − shards_republished` blocks of the next snapshot are
    /// pointer-shared with the previous one (copy-on-write ring).
    pub shards_republished: u64,
    /// Whether the coupling was frozen anew — a cross-shard entry changed, or
    /// a shard's ordering did, which the coupled solve's plan follows;
    /// `false` shares the previous snapshot's coupling and its plan.
    pub coupling_republished: bool,
    /// Whether this batch crossed the coupling budget and re-ran the
    /// edge-locality partition (all shards re-ordered and re-factorized).
    pub repartitioned: bool,
}

/// Per-shard LU factors over a partitioned node universe, updated in
/// parallel, with cross-shard coupling served at query time.
///
/// Deltas touching disjoint shards cost one *small* Bennett sweep (or
/// pattern-frozen refactor pass) per shard — run concurrently — and
/// cross-shard edges bypass the numeric layer entirely; snapshots of any
/// shard count answer identically to within the block solve's 1e-13
/// tolerance.
#[derive(Debug)]
#[cfg_attr(test, derive(Clone))]
pub struct ShardedFactorStore {
    kind: MatrixKind,
    policy: RefreshPolicy,
    partition: Arc<NodePartition>,
    graph: DiGraph,
    shards: Vec<FactorShard>,
    workspaces: ShardWorkspaces,
    /// Reused per-shard refactorization scratch (stamped dense accumulator),
    /// rebuilt alongside `workspaces` on repartition/restore.
    refactor_workspaces: Vec<RefactorWorkspace>,
    /// How repartitions derive the replacement partition.
    partition_strategy: PartitionStrategy,
    snapshot_id: u64,
    /// Per-shard shared factor handles snapshots serve from, re-frozen only
    /// for the shards a batch swept or refreshed; the rest stay shared with
    /// every earlier snapshot in the ring (copy-on-write).
    published: Vec<Arc<DecomposedMatrix>>,
    /// The cross-shard entries of the measure matrix, global coordinates, no
    /// stored zeros: the state itself, in the frozen form snapshots share.
    /// Replaced — the batch's writes merged into the previous CSR — only by
    /// batches that wrote a cross-shard entry (or re-partitioned), and
    /// re-frozen over the same CSR by batches that moved a shard's ordering;
    /// each time with an empty plan cell: the store never plans, coupled
    /// solves do.
    published_coupling: Arc<FrozenCoupling>,
    /// Coupled-solve configuration: tolerance, re-partition budget.
    coupling_cfg: CouplingConfig,
    /// Coupling size that triggers the next adaptive re-partition (`None`
    /// disables; backed off after each re-partition for amortization).
    next_repartition_at: Option<usize>,
    /// Telemetry sink for sweep/refresh/freeze spans and repartition
    /// events, stamped onto snapshots; a disabled stub unless
    /// [`ShardedFactorStore::with_telemetry`].
    telemetry: Arc<TelemetryRegistry>,
    /// Test hook: overrides every decision's arm, so each arm can be driven
    /// over the same stream.  (An arm forced onto a slice it cannot absorb —
    /// the frozen pass on a structural one — ends in its typed fallback.)
    #[cfg(test)]
    pub(crate) forced_arm: Option<MaintenanceArm>,
}

impl ShardedFactorStore {
    /// Builds the store for a base graph over the given partition: derives
    /// and factorizes every shard's principal submatrix and collects the
    /// cross-shard entries into the coupling.  A partition that does
    /// not cover the graph's node universe is an
    /// [`EngineError::InvalidConfig`].
    pub fn new(
        graph: DiGraph,
        kind: MatrixKind,
        policy: RefreshPolicy,
        partition: NodePartition,
    ) -> EngineResult<Self> {
        if graph.n_nodes() != partition.n_nodes() {
            return Err(EngineError::InvalidConfig(format!(
                "partition covers {} nodes but the graph has {}",
                partition.n_nodes(),
                graph.n_nodes()
            )));
        }
        let partition = Arc::new(partition);
        let mut shards: Vec<FactorShard> = (0..partition.n_shards())
            .map(|s| FactorShard::build(&graph, kind, &partition, s))
            .collect::<EngineResult<_>>()?;
        let workspaces = ShardWorkspaces::for_orders(&partition.shard_sizes());
        let refactor_workspaces = refactor_workspaces_for(&partition);
        let published = publish_all(&mut shards, 0)?;
        let published_coupling =
            FrozenCoupling::new(cross_shard_coupling(&graph, kind, &partition));
        let coupling_cfg = CouplingConfig::default();
        Ok(ShardedFactorStore {
            kind,
            policy,
            partition,
            graph,
            shards,
            workspaces,
            refactor_workspaces,
            partition_strategy: PartitionStrategy::default(),
            snapshot_id: 0,
            published,
            published_coupling,
            next_repartition_at: coupling_cfg.repartition_budget,
            coupling_cfg,
            telemetry: Arc::new(TelemetryRegistry::disabled()),
            #[cfg(test)]
            forced_arm: None,
        })
    }

    /// Sets how adaptive repartitions derive the replacement partition
    /// (builder style; edge locality by default).  The *current* partition is
    /// untouched — the strategy takes effect at the next repartition trigger.
    pub fn with_partition_strategy(mut self, strategy: PartitionStrategy) -> Self {
        self.partition_strategy = strategy;
        self
    }

    /// The partition strategy repartitions will use.
    pub fn partition_strategy(&self) -> PartitionStrategy {
        self.partition_strategy
    }

    /// The durable slice of the store for the checkpoint writer.  Blocks
    /// are the *published* per-shard `Arc`s — advances republish every shard
    /// they touch, so the published content always equals the live factors —
    /// plus each shard's `reference_nnz` quality anchor; the coupling is the
    /// frozen CSR's entries as row-major triplets.
    pub(crate) fn durable_state(&self) -> crate::checkpoint::DurableState {
        crate::checkpoint::DurableState {
            snapshot_id: self.snapshot_id,
            kind: self.kind,
            graph: self.graph.clone(),
            partition: (*self.partition).clone(),
            next_repartition_at: self.next_repartition_at,
            coupling: self.published_coupling.matrix().iter().collect(),
            blocks: self
                .published
                .iter()
                .zip(&self.shards)
                .map(|(p, s)| (Arc::clone(p), s.of.reference_nnz))
                .collect(),
        }
    }

    /// Rebuilds the store from a decoded checkpoint image.  Factors,
    /// orderings, quality anchors, coupling entries, the partition and the
    /// re-partition budget are restored bit-identically, so WAL replay from
    /// here repartitions where the original did and measures quality-loss
    /// against the same anchors.  Each shard's running sweep reach is not in
    /// the image: the maintenance decision restarts from its prior, so a
    /// replayed batch may take another arm than the original took — same
    /// answers, to the arms' 1e-12 agreement.
    ///
    /// The coupling triplets become the state as they stand, so they are
    /// checked to be what a store writes — row-major with no position twice,
    /// every entry across two shards, every value finite and non-zero — and
    /// anything else is an [`EngineError::Persistence`] naming the entry: a
    /// repeated position would silently be one of its values, an entry inside
    /// a shard's own block would be counted twice by every coupled solve.
    pub(crate) fn restore(
        policy: RefreshPolicy,
        coupling_cfg: CouplingConfig,
        state: crate::checkpoint::StoreState,
    ) -> EngineResult<Self> {
        let crate::checkpoint::StoreState {
            snapshot_id,
            kind,
            graph,
            partition,
            next_repartition_at,
            coupling,
            blocks,
        } = state;
        if graph.n_nodes() != partition.n_nodes() {
            return Err(EngineError::Persistence(format!(
                "checkpoint partition covers {} nodes but the graph has {}",
                partition.n_nodes(),
                graph.n_nodes()
            )));
        }
        let partition = Arc::new(partition);
        let n = graph.n_nodes();
        let mut triplets = clude_sparse::CooMatrix::with_capacity(n, n, coupling.len());
        let mut previous = None;
        for &(i, j, v) in &coupling {
            let reject = |why: String| {
                Err(EngineError::Persistence(format!(
                    "checkpoint coupling entry ({i}, {j}) {why}"
                )))
            };
            if i >= n || j >= n {
                return reject(format!("outside the {n}-node universe"));
            }
            if previous >= Some((i, j)) {
                return reject("does not follow its predecessor in row-major order".into());
            }
            if partition.is_intra(i, j) {
                return reject(format!(
                    "lies inside shard {}'s own block",
                    partition.shard_of(i)
                ));
            }
            if !v.is_finite() || v == 0.0 {
                return reject(format!("holds {v}, not a finite non-zero value"));
            }
            previous = Some((i, j));
            triplets
                .push(i, j, v)
                .map_err(|e| EngineError::Persistence(format!("checkpoint coupling: {e}")))?;
        }
        let mut shards = Vec::with_capacity(blocks.len());
        let mut published = Vec::with_capacity(blocks.len());
        for (s, block) in blocks.into_iter().enumerate() {
            // The reordered-matrix cache is rebuilt lazily by the first
            // refactor pass; a checkpoint block carries no matrix.
            let mut of =
                OrderedFactors::new(block.ordering, block.factors, block.reference_nnz, None);
            published.push(of.publish(block.index).map_err(|e| {
                EngineError::Persistence(format!("checkpoint block of shard {s}: {e}"))
            })?);
            shards.push(FactorShard::new(of));
        }
        let workspaces = ShardWorkspaces::for_orders(&partition.shard_sizes());
        let refactor_workspaces = refactor_workspaces_for(&partition);
        let published_coupling = FrozenCoupling::new(CsrMatrix::from_coo(&triplets));
        Ok(ShardedFactorStore {
            kind,
            policy,
            partition,
            graph,
            shards,
            workspaces,
            refactor_workspaces,
            partition_strategy: PartitionStrategy::default(),
            snapshot_id,
            published,
            published_coupling,
            next_repartition_at,
            coupling_cfg,
            telemetry: Arc::new(TelemetryRegistry::disabled()),
            #[cfg(test)]
            forced_arm: None,
        })
    }

    /// Sets the telemetry registry sweep/refresh/freeze spans and
    /// repartition events are recorded into (builder style).  Snapshots
    /// carry the same handle so query-path coupling solves record too.
    pub fn with_telemetry(mut self, telemetry: Arc<TelemetryRegistry>) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Sets the coupled-solve configuration (builder style).  A stopping
    /// rule no solve can meet (non-finite or non-positive `tol`,
    /// `max_sweeps: 0`) is an [`EngineError::InvalidConfig`].
    pub fn with_coupling_config(mut self, cfg: CouplingConfig) -> EngineResult<Self> {
        cfg.tolerance
            .validate()
            .map_err(EngineError::InvalidConfig)?;
        self.coupling_cfg = cfg;
        self.next_repartition_at = cfg.repartition_budget;
        Ok(self)
    }

    /// The coupled-solve configuration in force.
    pub fn coupling_config(&self) -> CouplingConfig {
        self.coupling_cfg
    }

    /// The matrix composition the factors are built for.
    pub fn matrix_kind(&self) -> MatrixKind {
        self.kind
    }

    /// The refresh policy in force.
    pub fn policy(&self) -> RefreshPolicy {
        self.policy
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
        self.shards.iter().map(|s| s.of.factors.nnz()).sum()
    }

    /// Number of live cross-shard coupling entries.
    pub fn coupling_nnz(&self) -> usize {
        self.published_coupling.matrix().nnz()
    }

    /// Worst per-shard quality-loss against the shards' last refreshes.
    pub fn quality_loss(&self) -> f64 {
        self.shards
            .iter()
            .map(|shard| shard.of.quality_loss())
            .fold(0.0, f64::max)
    }

    /// An immutable snapshot of the current state for the query side.
    ///
    /// Cheap by construction: the per-shard factor blocks and the frozen
    /// coupling are shared [`Arc`] handles re-frozen inside
    /// [`ShardedFactorStore::advance`] for exactly what the batch touched,
    /// and the graph's adjacency is copy-on-write in chunks of consecutive
    /// nodes, so this bumps `n_shards` plus two pointers per chunk and copies
    /// nothing a batch did not change.  Consecutive snapshots are
    /// [`Arc::ptr_eq`] on every untouched shard's [`ShardSnapshot::shared`]
    /// handle.
    pub fn snapshot(&self) -> EngineSnapshot {
        let shards = self
            .published
            .iter()
            .map(|d| ShardSnapshot::new(Arc::clone(d)))
            .collect();
        EngineSnapshot::from_parts(
            self.snapshot_id,
            self.graph.clone(),
            Arc::clone(&self.partition),
            shards,
            Arc::clone(&self.published_coupling),
            self.coupling_cfg.tolerance,
            Arc::clone(&self.telemetry),
        )
    }

    /// Applies one coalesced delta batch, advancing the snapshot counter.
    ///
    /// The batch's matrix entries are derived from the graph delta alone,
    /// routed by the partition — intra-shard entries become per-shard Bennett
    /// updates (translated to local factor coordinates), cross-shard entries
    /// are value writes merged into the coupling — and shards with pending
    /// work sweep **in parallel** on scoped threads, each with its own
    /// workspace.  Numeric failures and policy trips refresh only the
    /// affected shard; an `Ok` return always leaves servable factors.
    ///
    /// An `Err` (a shard's rebuild itself failed, which a diagonally
    /// dominant block cannot trigger in practice) leaves the store
    /// mid-batch — graph and coupling already advanced, sibling shards
    /// possibly swept — and must be treated as fatal for this store; only
    /// out-of-range deltas are rejected before any mutation.
    pub fn advance(&mut self, delta: &GraphDelta) -> EngineResult<ShardedAdvanceReport> {
        self.advance_dispatched(delta, false)
    }

    /// [`ShardedFactorStore::advance`] with the inline-or-fan-out choice
    /// overridable: `force_fan_out` sends every multi-shard batch through
    /// the scoped threads, which is how the tests pin the two dispatches
    /// bit-identical.
    fn advance_dispatched(
        &mut self,
        delta: &GraphDelta,
        force_fan_out: bool,
    ) -> EngineResult<ShardedAdvanceReport> {
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

        // Only intra-shard edges can introduce a new intra-block matrix
        // position; a cross edge contributes nothing but rescales of existing
        // intra entries to a shard's list — so the decision below classifies
        // a shard's slice by its intra edges alone.
        let (intra_deltas, _cross) = delta.split_by(&self.partition);

        // Capture pre-delta adjacency of the affected sources, then mutate.
        let old = OldSuccessors::capture(&self.graph, delta);
        delta.apply(&mut self.graph);
        self.snapshot_id += 1;

        // Route every changed matrix entry to its shard or the coupling.
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
        // The one maintenance decision, per shard with work: pattern- and
        // count-only, so taking it after the graph mutation changes nothing.
        let active: Vec<usize> = (0..k).filter(|&s| !shard_entries[s].is_empty()).collect();
        let mut decisions: Vec<Option<MaintenanceDecision>> = vec![None; k];
        for &s in &active {
            per_shard[s].entries_applied = shard_entries[s].len() as u64;
            let decision = self.shards[s].of.decide(
                self.policy,
                self.kind,
                &intra_deltas[s],
                |u| self.partition.local_of(u),
                &shard_entries[s],
            );
            #[cfg(test)]
            let decision = MaintenanceDecision {
                arm: self.forced_arm.unwrap_or(decision.arm),
                ..decision
            };
            decisions[s] = Some(decision);
        }

        // Fan the disjoint per-shard arms out across scoped threads — when
        // there is work to overlap.  A batch every active shard absorbs by a
        // frozen-pattern pass runs inline: a pass costs less than the spawn +
        // join that would parallelise it (ROADMAP "Measured" has the
        // numbers), as does a single active shard of any kind.
        let frozen =
            |s: &usize| decisions[*s].is_some_and(|d| d.arm == MaintenanceArm::FrozenRefactor);
        let inline = active.len() <= 1 || (!force_fan_out && active.iter().all(frozen));
        let ctx = SweepContext {
            graph: &self.graph,
            partition: &self.partition,
            kind: self.kind,
            telemetry: &self.telemetry,
        };
        let mut outcomes: Vec<Option<Result<ShardOutcome, LuError>>> =
            (0..k).map(|_| None).collect();
        if inline {
            for &s in &active {
                let Some(decision) = decisions[s] else {
                    continue;
                };
                outcomes[s] = Some(self.shards[s].apply(
                    decision,
                    self.workspaces.get_mut(s),
                    &mut self.refactor_workspaces[s],
                    &shard_entries[s],
                    ctx,
                    s,
                ));
            }
        } else {
            let results = std::thread::scope(|scope| {
                let mut handles = Vec::with_capacity(active.len());
                let mut here = Vec::new();
                for (((s, shard), ws), rws) in self
                    .shards
                    .iter_mut()
                    .enumerate()
                    .zip(self.workspaces.iter_mut())
                    .zip(self.refactor_workspaces.iter_mut())
                {
                    let Some(decision) = decisions[s] else {
                        continue;
                    };
                    let entries = &shard_entries[s];
                    let arm = move || shard.apply(decision, ws, rws, entries, ctx, s);
                    if decision.arm == MaintenanceArm::Rebuild {
                        // A rebuild allocates its structure and its symbolic
                        // rows; on a short-lived worker those land in a
                        // per-thread allocator arena that outlives the
                        // thread.  The coordinator would only be waiting.
                        here.push((s, arm));
                    } else {
                        handles.push((s, scope.spawn(arm)));
                    }
                }
                let mut results: Vec<_> = here.into_iter().map(|(s, mut arm)| (s, arm())).collect();
                results.extend(
                    handles
                        .into_iter()
                        // lint: allow(panic-surface) — join() only fails when
                        // a shard worker panicked; re-raising that panic on
                        // the coordinating thread is the correct propagation.
                        .map(|(s, h)| (s, h.join().expect("shard sweep thread panicked"))),
                );
                results
            });
            for (s, outcome) in results {
                outcomes[s] = Some(outcome);
            }
        }

        let mut report = ShardedAdvanceReport {
            snapshot_id: self.snapshot_id,
            per_shard,
            coupling_writes: coupling_writes.len() as u64,
            ..ShardedAdvanceReport::default()
        };
        let mut ordering_moved = false;
        for (s, outcome) in outcomes.into_iter().enumerate() {
            let Some(outcome) = outcome else { continue };
            let outcome = outcome?;
            report.bennett.merge(&outcome.bennett);
            report.per_shard[s].sweeps = outcome.bennett.rank_one_updates as u64;
            report.per_shard[s].arm = Some(outcome.arm);
            report.per_shard[s].predicted_cost = outcome.predicted_cost;
            report.per_shard[s].actual_work = outcome.actual_work;
            report.per_shard[s].rows_refactored = outcome.rows_refactored as u64;
            report.per_shard[s].block_order = self.shards[s].of.factors.n() as u64;
            report.refreshed |= outcome.arm == MaintenanceArm::Reorder;
            // Copy-on-write: only the shards this batch maintained re-freeze
            // their shared handle; every other shard keeps serving the
            // handle older snapshots already hold.
            let freeze = self.telemetry.span(Stage::SnapshotFreeze);
            let block = self.shards[s].of.publish(self.snapshot_id)?;
            ordering_moved |= !Arc::ptr_eq(&block.ordering, &self.published[s].ordering);
            self.published[s] = block;
            freeze.stop();
            report.shards_republished += 1;
        }
        // Copy-on-write like the factor blocks: the coupling re-freezes only
        // when a cross-shard entry changed, when a shard's ordering moved —
        // the plan's layout follows every ordering — or when the store
        // re-partitions, below; every other batch keeps sharing the previous
        // snapshots' coupling, and with it their plan.  Every affected source
        // owns its own matrix column (or row), so the writes name distinct
        // positions.
        if !coupling_writes.is_empty() {
            let freeze = self.telemetry.span(Stage::SnapshotFreeze);
            coupling_writes.sort_unstable_by_key(|&(r, c, _)| (r, c));
            let coupling = self.published_coupling.matrix();
            self.published_coupling = FrozenCoupling::new(coupling.merge_writes(&coupling_writes));
            freeze.stop();
            report.coupling_republished = true;
        } else if ordering_moved {
            self.published_coupling = self.published_coupling.refrozen();
            report.coupling_republished = true;
        }

        // Adaptive re-partitioning: once the live coupling crosses the
        // budget, the partition has drifted from the graph's edge locality —
        // re-derive it from the *current* graph and rebuild every shard.
        // Expensive (k orderings + factorizations), but amortized: the
        // trigger backs off to twice the surviving coupling size, so a graph
        // whose locality genuinely degraded does not thrash.
        if let Some(budget) = self.coupling_cfg.repartition_budget {
            let nnz = self.coupling_nnz();
            if nnz <= budget {
                // Back under the configured budget (e.g. removals drained the
                // coupling): restore the base trigger so the next genuine
                // locality drift repartitions at the budget, not at the
                // backed-off threshold of a past repartition.
                self.next_repartition_at = Some(budget);
            }
            if nnz > self.next_repartition_at.unwrap_or(budget) {
                self.repartition()?;
                self.telemetry.record_event(EngineEvent::Repartitioned {
                    coupling_nnz_before: nnz as u64,
                    coupling_nnz_after: self.coupling_nnz() as u64,
                });
                report.repartitioned = true;
                report.shards_republished = self.shards.len() as u64;
                report.coupling_republished = true;
            }
        }

        // Quality-loss is a property of the shard's accumulated state, not
        // of this batch's work: report it for idle shards too.
        for (s, shard) in self.shards.iter().enumerate() {
            report.per_shard[s].quality_loss = shard.of.quality_loss();
        }
        report.quality_loss = self.quality_loss();
        Ok(report)
    }

    /// Re-runs the partition strategy on the current graph and rebuilds the
    /// store around it: fresh shard orderings and factorizations, fresh
    /// workspaces, all block handles re-frozen, the coupling re-collected and
    /// frozen with an empty plan cell (no plan outlives its partition).  The
    /// next trigger backs off to `max(budget, 2 × surviving coupling size)`
    /// so repeated triggers on a genuinely dense graph stay amortized.
    ///
    /// The BTF strategy may coarsen to fewer shards than the store had when
    /// the graph's SCC structure is coarse; the store's shard count follows
    /// the partition.
    fn repartition(&mut self) -> EngineResult<()> {
        let k = self.shards.len();
        let partition = Arc::new(match self.partition_strategy {
            PartitionStrategy::EdgeLocality => edge_locality_partition(&self.graph, k),
            PartitionStrategy::Btf => btf_partition(&self.graph, self.kind, k).0,
        });
        let mut shards: Vec<FactorShard> = (0..partition.n_shards())
            .map(|s| FactorShard::build(&self.graph, self.kind, &partition, s))
            .collect::<EngineResult<_>>()?;
        self.workspaces = ShardWorkspaces::for_orders(&partition.shard_sizes());
        self.refactor_workspaces = refactor_workspaces_for(&partition);
        self.published = publish_all(&mut shards, self.snapshot_id)?;
        let freeze = self.telemetry.span(Stage::SnapshotFreeze);
        self.published_coupling =
            FrozenCoupling::new(cross_shard_coupling(&self.graph, self.kind, &partition));
        freeze.stop();
        self.partition = partition;
        self.shards = shards;
        // `repartition` only runs when the advance path saw a budget; if
        // that invariant ever breaks, degrade to "no further triggers"
        // instead of panicking mid-ingest.
        self.next_repartition_at = self
            .coupling_cfg
            .repartition_budget
            .map(|budget| budget.max(2 * self.coupling_nnz()));
        Ok(())
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
            let reconstructed = shard.of.factors.reconstruct();
            let row_new_to_old = shard.of.ordering.row().as_new_to_old();
            let col_new_to_old = shard.of.ordering.col().as_new_to_old();
            for (i, j, v) in reconstructed.iter() {
                coo.push(nodes[row_new_to_old[i]], nodes[col_new_to_old[j]], v)
                    .unwrap();
            }
        }
        for (i, j, v) in self.published_coupling.matrix().iter() {
            coo.push(i, j, v).unwrap();
        }
        let reassembled = CsrMatrix::from_coo(&coo);
        let diff = reassembled.max_abs_diff(&full).unwrap();
        assert!(diff <= tol, "sharded state drifted from A: {diff:e}");
    }
}

/// Publishes every shard's block as of snapshot `id` (builds and
/// repartitions; advances republish only the shards they touched).
fn publish_all(shards: &mut [FactorShard], id: u64) -> EngineResult<Vec<Arc<DecomposedMatrix>>> {
    shards
        .iter_mut()
        .map(|shard| Ok(shard.of.publish(id)?))
        .collect()
}

/// One refactorization scratch per shard, sized to the shard's order.
fn refactor_workspaces_for(partition: &NodePartition) -> Vec<RefactorWorkspace> {
    partition
        .shard_sizes()
        .iter()
        .map(|&n| RefactorWorkspace::with_order(n))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coupling::{CouplingPlan, SolveTolerance};
    use crate::store::dense_answer;
    use clude_measures::MeasureQuery;

    fn base_graph(n: usize) -> DiGraph {
        let mut g = DiGraph::from_edges(n, (0..n).map(|i| (i, (i + 1) % n)).collect::<Vec<_>>());
        g.add_edge(2, 0);
        g.add_edge(n / 2, 1);
        g
    }

    /// The plan a solve over the store's current blocks and `coupling`
    /// builds.
    fn plan_over(store: &ShardedFactorStore, coupling: &CsrMatrix) -> CouplingPlan {
        let orderings = store.published.iter().map(|b| Arc::clone(&b.ordering));
        CouplingPlan::build(store.partition(), coupling, orderings.collect())
    }

    /// Whether every shard of `after` serves under the ordering it had in
    /// `before`.
    fn orderings_held(before: &EngineSnapshot, after: &EngineSnapshot) -> bool {
        before.n_shards() == after.n_shards()
            && before
                .shards()
                .iter()
                .zip(after.shards())
                .all(|(a, b)| Arc::ptr_eq(&a.decomposed().ordering, &b.decomposed().ordering))
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
        let policy = RefreshPolicy::QualityTriggered {
            max_quality_loss: 0.5,
        };
        let partition = NodePartition::contiguous(n, 3);
        let mut sharded = ShardedFactorStore::new(g.clone(), kind, policy, partition).unwrap();
        // The same machine at k = 1: the whole graph as one block.
        let mut one_shard =
            ShardedFactorStore::new(g, kind, policy, NodePartition::singleton(n)).unwrap();
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
        let mut store =
            ShardedFactorStore::new(g, kind, RefreshPolicy::Incremental, partition).unwrap();
        // One intra-shard change per shard: all four shards sweep in one
        // parallel advance, nothing lands in the coupling.
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
            assert!(report.per_shard[s].sweeps > 0, "shard {s} never swept");
            assert_eq!(report.per_shard[s].cross_edges_seen, 0);
        }
        assert_eq!(report.coupling_writes, 0);
        assert!(report.bennett.rank_one_updates > 0);
        store.assert_consistent(1e-9);
    }

    #[test]
    fn cross_edges_only_touch_the_coupling() {
        let n = 8;
        let g = base_graph(n);
        let kind = MatrixKind::random_walk_default();
        let partition = NodePartition::contiguous(n, 2);
        let mut store =
            ShardedFactorStore::new(g, kind, RefreshPolicy::Incremental, partition).unwrap();
        let before = store.coupling_nnz();
        // 2 -> 6 is cross-shard; node 2 has existing intra successors whose
        // column weight rescales, so shard 0 still sweeps — but shard 1 (the
        // target side) must not.
        let report = store
            .advance(&GraphDelta {
                added: vec![(2, 6)],
                removed: vec![],
            })
            .unwrap();
        assert_eq!(report.per_shard[0].cross_edges_seen, 1);
        assert_eq!(report.per_shard[1].entries_applied, 0);
        assert_eq!(report.per_shard[1].sweeps, 0);
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
        let sharded = ShardedFactorStore::new(g, kind, RefreshPolicy::Incremental, partition)
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
        let policy = RefreshPolicy::Incremental;
        let partition = NodePartition::contiguous(10, 2);
        let mut sharded = ShardedFactorStore::new(g, kind, policy, partition).unwrap();
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
        let mut store = ShardedFactorStore::new(
            g,
            kind,
            RefreshPolicy::QualityTriggered {
                max_quality_loss: 0.0,
            },
            partition,
        )
        .unwrap();
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
            RefreshPolicy::Incremental,
            NodePartition::contiguous(n, 3),
        )
        .unwrap();
        let snap0 = store.snapshot();

        // Intra-shard-0 batch: only shard 0's block may be re-frozen.
        let report = store
            .advance(&GraphDelta {
                added: vec![(0, 3), (1, 2)],
                removed: vec![],
            })
            .unwrap();
        assert_eq!(report.shards_republished, 1);
        assert!(!report.coupling_republished);
        let snap1 = store.snapshot();
        assert!(!Arc::ptr_eq(
            snap0.shards()[0].shared(),
            snap1.shards()[0].shared()
        ));
        for s in 1..3 {
            assert!(
                Arc::ptr_eq(snap0.shards()[s].shared(), snap1.shards()[s].shared()),
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
        assert_eq!(snap1.shards()[0].decomposed().index, 1);
        assert_eq!(snap1.shards()[1].decomposed().index, 0);

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
        assert!(Arc::ptr_eq(
            snap1.shards()[1].shared(),
            snap2.shards()[1].shared()
        ));
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
        let policy = RefreshPolicy::QualityTriggered {
            max_quality_loss: 0.5,
        };
        let mut store =
            ShardedFactorStore::new(base_graph(n), kind, policy, NodePartition::contiguous(n, 3))
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
            RefreshPolicy::Incremental,
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

    #[test]
    fn a_plan_is_built_once_per_coupling_by_the_first_solve() {
        let n = 12;
        let mut store = ShardedFactorStore::new(
            base_graph(n),
            MatrixKind::random_walk_default(),
            RefreshPolicy::Incremental,
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
        let fresh = plan_over(&store, store.published_coupling.matrix());
        assert_eq!(plan.gs_order(), fresh.gs_order());
        assert_eq!(plan.is_triangular(), fresh.is_triangular());

        // A re-order moves the shard's ordering, which the plan's layout
        // follows: an intra-shard batch then freezes a new coupling over the
        // same CSR, with an empty cell the next solve fills.
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
        assert!(Arc::ptr_eq(
            before.shared_coupling().shared_matrix(),
            reordered.shared_coupling().shared_matrix()
        ));
        assert!(reordered.shared_coupling().built_plan().is_none());
        assert_queries_match(&store, n);
        let reordered_plan = reordered
            .shared_coupling()
            .built_plan()
            .expect("a solve plans");
        assert!(!std::ptr::eq(plan, reordered_plan));
        assert!(std::ptr::eq(before.coupling_plan(), plan));

        // A repartition freezes a new coupling with an empty cell; the
        // first solve over it plans for the new partition, and the old
        // snapshot keeps serving its own plan.
        store.repartition().unwrap();
        assert!(store.coupling_nnz() > 0);
        let after = store.snapshot();
        assert!(after.shared_coupling().built_plan().is_none());
        assert_queries_match(&store, n);
        let replanned = after.shared_coupling().built_plan().expect("a solve plans");
        assert!(!std::ptr::eq(plan, replanned));
        assert!(!std::ptr::eq(reordered_plan, replanned));
        let fresh = plan_over(&store, store.published_coupling.matrix());
        assert_eq!(replanned.gs_order(), fresh.gs_order());
        assert!(std::ptr::eq(first.coupling_plan(), plan));
    }

    /// [`assert_queries_match`] on a coupled store, plus the same four
    /// queries as one panel: every stripe bit-identical to its width-1
    /// answer, so within 1e-9 of dense elimination too.
    fn assert_coupled_answers_exact(store: &ShardedFactorStore, n: usize) {
        assert!(store.n_shards() > 1 && store.coupling_nnz() > 0);
        assert_queries_match(store, n);
        let snap = store.snapshot();
        let queries = [
            MeasureQuery::PageRank { damping: 0.85 },
            MeasureQuery::Rwr {
                seed: 0,
                damping: 0.85,
            },
            MeasureQuery::Rwr {
                seed: n / 3,
                damping: 0.85,
            },
            MeasureQuery::Rwr {
                seed: n - 1,
                damping: 0.85,
            },
        ];
        let panel = snap
            .query_batch(&queries.iter().collect::<Vec<_>>())
            .unwrap();
        for (q, stripe) in queries.iter().zip(&panel) {
            assert_eq!(
                float_bits(stripe),
                float_bits(&snap.query(q).unwrap()),
                "{q:?}"
            );
        }
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
            RefreshPolicy::Incremental,
            NodePartition::contiguous(n, 4),
        )
        .unwrap();
        assert!(store.published_coupling.matrix().row(hub).0.len() >= 100);
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
            RefreshPolicy::QualityTriggered {
                max_quality_loss: 0.0,
            },
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

        store.repartition().unwrap();
        assert_coupled_answers_exact(&store, n);

        let state = store_state(&store, store.durable_state().coupling);
        let restored =
            ShardedFactorStore::restore(store.policy, store.coupling_cfg, state).unwrap();
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
        let mut sharded =
            ShardedFactorStore::new(g, kind, RefreshPolicy::Incremental, partition).unwrap();
        // Removing an intra-shard edge is always value-only: shard 0 absorbs
        // it by a pattern-frozen refactorization, the other shards stay idle.
        let delta = GraphDelta {
            added: vec![],
            removed: vec![(2, 0)],
        };
        let report = sharded.advance(&delta).unwrap();
        assert_eq!(
            report.per_shard[0].arm,
            Some(MaintenanceArm::FrozenRefactor)
        );
        assert_eq!(report.per_shard[0].sweeps, 0);
        assert!(report.per_shard[0].entries_applied > 0);
        assert_eq!(report.per_shard[1].arm, None);
        assert_eq!(report.per_shard[2].arm, None);
        sharded.assert_consistent(1e-9);
        assert_queries_match(&sharded, n);
        // A structural intra-shard addition must not refactor.
        let delta = GraphDelta {
            added: vec![(1, 3)],
            removed: vec![],
        };
        let report = sharded.advance(&delta).unwrap();
        assert_eq!(report.per_shard[0].arm, Some(MaintenanceArm::BennettSweep));
        sharded.assert_consistent(1e-9);
        assert_queries_match(&sharded, n);
    }

    #[test]
    fn repartition_triggers_on_coupling_budget_and_stays_exact() {
        // Interleaved (worst-case) partition of a ring: every edge crosses,
        // so the coupling is as dense as it gets.  A tight budget must make
        // the store re-derive an edge-locality partition, collapsing the
        // coupling, while the answers stay exact.
        let n = 16;
        let g = base_graph(n);
        let kind = MatrixKind::random_walk_default();
        let mut store = ShardedFactorStore::new(
            g,
            kind,
            RefreshPolicy::Incremental,
            NodePartition::from_assignments((0..n).map(|u| u % 2).collect()),
        )
        .unwrap()
        .with_coupling_config(CouplingConfig {
            repartition_budget: Some(8),
            ..CouplingConfig::default()
        })
        .unwrap();
        let dense_before = store.coupling_nnz();
        assert!(dense_before > 8, "interleaved ring must cross everywhere");

        let delta = GraphDelta {
            added: vec![(0, 5), (3, 10)],
            removed: vec![],
        };
        let report = store.advance(&delta).unwrap();
        assert!(report.repartitioned, "budget crossing must repartition");
        assert_eq!(report.shards_republished, 2);
        assert!(report.coupling_republished);
        assert!(
            store.coupling_nnz() < dense_before,
            "edge-locality partition should shrink the coupling ({} -> {})",
            dense_before,
            store.coupling_nnz()
        );
        store.assert_consistent(1e-9);
        assert_queries_match(&store, n);

        // Amortization: the next advance does not re-trigger (the threshold
        // backed off past the surviving coupling size).
        let delta = GraphDelta {
            added: vec![(1, 6)],
            removed: vec![],
        };
        let report = store.advance(&delta).unwrap();
        assert!(!report.repartitioned);
        assert_queries_match(&store, n);
    }

    /// The published blocks of `shards` are ordered by the paper's Markowitz
    /// rule applied to the shard's current measure matrix.
    fn assert_markowitz_ordered(store: &ShardedFactorStore, shards: impl Iterator<Item = usize>) {
        for s in shards {
            let matrix =
                shard_measure_matrix(store.graph(), store.matrix_kind(), store.partition(), s);
            assert_eq!(
                *store.published[s].ordering,
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
            RefreshPolicy::QualityTriggered {
                max_quality_loss: 0.0,
            },
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

        // A repartition rebuilds every shard around the new partition.
        store = store
            .with_coupling_config(CouplingConfig {
                repartition_budget: Some(8),
                ..CouplingConfig::default()
            })
            .unwrap();
        let report = store
            .advance(&GraphDelta {
                added: vec![(0, 30)],
                removed: vec![],
            })
            .unwrap();
        assert!(report.repartitioned);
        assert_markowitz_ordered(&store, 0..store.n_shards());
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
            RefreshPolicy::Incremental,
            NodePartition::contiguous(n, 3),
        )
        .unwrap()
        .with_telemetry(Arc::clone(&telemetry))
        .with_coupling_config(CouplingConfig {
            tolerance: SolveTolerance {
                tol: 1e-13,
                max_sweeps: 1,
            },
            ..CouplingConfig::default()
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
                RefreshPolicy::Incremental,
                NodePartition::contiguous(n, 2),
            )
            .unwrap()
            .with_coupling_config(CouplingConfig {
                tolerance: SolveTolerance { tol, max_sweeps },
                ..CouplingConfig::default()
            })
            .unwrap_err();
            assert!(matches!(err, EngineError::InvalidConfig(_)), "{err}");
        }
    }

    #[test]
    fn out_of_range_deltas_are_rejected_without_mutating() {
        let n = 8;
        let g = base_graph(n);
        let mut store = ShardedFactorStore::new(
            g.clone(),
            MatrixKind::random_walk_default(),
            RefreshPolicy::Incremental,
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
            RefreshPolicy::default(),
            NodePartition::contiguous(n, 2),
        )
        .unwrap();
        assert_eq!(store.matrix_kind(), MatrixKind::random_walk_default());
        assert_eq!(store.policy(), RefreshPolicy::default());
        assert_eq!(store.n_shards(), 2);
        assert_eq!(store.partition().n_nodes(), n);
        assert!(store.factor_nnz() > 0);
        assert_eq!(store.quality_loss(), 0.0);
        assert_eq!(store.snapshot_id(), 0);
        let snap = store.snapshot();
        assert_eq!(snap.n_shards(), 2);
        assert_eq!(snap.id(), 0);
        assert_eq!(snap.coupling().nnz(), store.coupling_nnz());
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
        let mut store = ShardedFactorStore::new(g, kind, RefreshPolicy::Incremental, partition)
            .unwrap()
            .with_coupling_config(CouplingConfig {
                tolerance: SolveTolerance {
                    tol: 1e-13,
                    max_sweeps: 1,
                },
                ..CouplingConfig::default()
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

    /// The image a checkpoint of `store` would restore from, with the
    /// coupling triplets replaced by `coupling`.
    fn store_state(
        store: &ShardedFactorStore,
        coupling: Vec<(usize, usize, f64)>,
    ) -> crate::checkpoint::StoreState {
        crate::checkpoint::StoreState {
            snapshot_id: store.snapshot_id,
            kind: store.kind,
            graph: store.graph.clone(),
            partition: (*store.partition).clone(),
            next_repartition_at: store.next_repartition_at,
            coupling,
            blocks: store
                .shards
                .iter()
                .zip(&store.published)
                .map(|(shard, block)| crate::checkpoint::RestoredBlock {
                    index: block.index as u64,
                    reference_nnz: shard.of.reference_nnz,
                    ordering: (*shard.of.ordering).clone(),
                    factors: shard.of.factors.clone(),
                })
                .collect(),
        }
    }

    /// A 12-node, 3-shard store one cross-shard batch in, and its durable
    /// coupling triplets.
    fn store_with_coupling() -> (ShardedFactorStore, Vec<(usize, usize, f64)>) {
        let n = 12;
        let mut store = ShardedFactorStore::new(
            base_graph(n),
            MatrixKind::random_walk_default(),
            RefreshPolicy::Incremental,
            NodePartition::contiguous(n, 3),
        )
        .unwrap();
        store
            .advance(&GraphDelta {
                added: vec![(0, 7), (9, 2)],
                removed: vec![(2, 0)],
            })
            .unwrap();
        let coupling = store.durable_state().coupling;
        assert!(coupling.len() >= 4);
        (store, coupling)
    }

    fn restore_error(store: &ShardedFactorStore, coupling: Vec<(usize, usize, f64)>) -> String {
        let state = store_state(store, coupling);
        match ShardedFactorStore::restore(store.policy, store.coupling_cfg, state).unwrap_err() {
            EngineError::Persistence(what) => what,
            other => panic!("expected a persistence error, got {other}"),
        }
    }

    #[test]
    fn restore_takes_the_durable_coupling_as_the_state() {
        let (store, coupling) = store_with_coupling();
        let restored = ShardedFactorStore::restore(
            store.policy,
            store.coupling_cfg,
            store_state(&store, coupling.clone()),
        )
        .unwrap();
        assert_eq!(
            restored.published_coupling.matrix(),
            store.published_coupling.matrix()
        );
        assert_eq!(bits(restored.durable_state().coupling), bits(coupling));
        // Restoring plans nothing; the first solve does, once, and to the
        // bits of the original store's plan.
        let snap = restored.snapshot();
        assert!(snap.shared_coupling().built_plan().is_none());
        assert_queries_match(&restored, 12);
        let plan = snap.shared_coupling().built_plan().expect("a solve plans");
        let original = store.snapshot();
        assert_eq!(plan.gs_order(), original.coupling_plan().gs_order());
        assert_eq!(
            plan.is_triangular(),
            original.coupling_plan().is_triangular()
        );
        assert_queries_match(&restored, 12);
        assert!(std::ptr::eq(restored.snapshot().coupling_plan(), plan));
    }

    #[test]
    fn restore_rejects_a_repeated_coupling_position() {
        let (store, mut coupling) = store_with_coupling();
        let (i, j, v) = coupling[1];
        coupling.insert(2, (i, j, 2.0 * v));
        let what = restore_error(&store, coupling);
        assert!(
            what.contains(&format!("({i}, {j})")) && what.contains("row-major"),
            "{what}"
        );
    }

    #[test]
    fn restore_rejects_coupling_out_of_row_major_order() {
        let (store, mut coupling) = store_with_coupling();
        coupling.swap(0, 1);
        let (i, j, _) = coupling[1];
        let what = restore_error(&store, coupling);
        assert!(
            what.contains(&format!("({i}, {j})")) && what.contains("row-major"),
            "{what}"
        );
    }

    #[test]
    fn restore_rejects_a_coupling_entry_inside_a_shard_block() {
        let (store, mut coupling) = store_with_coupling();
        // (0, 1) sorts first and both nodes live in shard 0.
        coupling.insert(0, (0, 1, -0.25));
        let what = restore_error(&store, coupling);
        assert!(
            what.contains("(0, 1)") && what.contains("shard 0's own block"),
            "{what}"
        );
    }

    #[test]
    fn restore_rejects_non_finite_and_zero_coupling_values() {
        let (store, coupling) = store_with_coupling();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -0.0] {
            let mut coupling = coupling.clone();
            let (i, j, _) = coupling[3];
            coupling[3].2 = bad;
            let what = restore_error(&store, coupling);
            assert!(
                what.contains(&format!("({i}, {j})")) && what.contains("finite non-zero"),
                "{bad}: {what}"
            );
        }
    }

    #[test]
    fn restore_rejects_a_coupling_entry_outside_the_universe() {
        let (store, mut coupling) = store_with_coupling();
        coupling.push((3, 12, -0.25));
        let what = restore_error(&store, coupling);
        assert!(
            what.contains("(3, 12)") && what.contains("12-node universe"),
            "{what}"
        );
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

    fn published_static(block: &DecomposedMatrix) -> &clude_lu::LuFactors {
        match &block.factors {
            Some(clude::MatrixFactors::Static(f)) => f,
            other => panic!("published blocks are static, found {other:?}"),
        }
    }

    /// Every published block is, bit for bit, the live dynamic factors it
    /// was frozen from: same entries (explicit zeros included) and the same
    /// panel solve.
    fn assert_published_equals_live(store: &ShardedFactorStore) {
        for (s, shard) in store.shards.iter().enumerate() {
            let live = &shard.of.factors;
            let frozen = published_static(&store.published[s]);
            assert_eq!(
                bits(frozen.export_entries()),
                bits(live.export_entries()),
                "shard {s}"
            );
            let n = live.n();
            let b: Vec<f64> = (0..2 * n).map(|i| 1.0 + (i as f64) * 0.37).collect();
            let (mut x_live, mut x_frozen) = (Vec::new(), Vec::new());
            live.solve_many_into(&b, 2, &mut x_live).unwrap();
            frozen.solve_many_into(&b, 2, &mut x_frozen).unwrap();
            assert_eq!(float_bits(&x_live), float_bits(&x_frozen), "shard {s}");
        }
    }

    /// Shard `s`'s published block is what freezing its live lists from
    /// scratch builds: the same layout and the same value bits.
    fn assert_published_is_a_freeze(store: &ShardedFactorStore, s: usize) {
        let frozen = store.shards[s].of.factors.freeze(None).unwrap();
        let block = published_static(&store.published[s]);
        assert_eq!(block.structure(), frozen.structure(), "shard {s}");
        assert_eq!(bits(block.export_entries()), bits(frozen.export_entries()));
    }

    #[test]
    fn structure_is_shared_across_value_only_publishes_and_rebuilt_after_a_fill_in() {
        let n = 12;
        let mut store = ShardedFactorStore::new(
            base_graph(n),
            MatrixKind::random_walk_default(),
            RefreshPolicy::Incremental,
            NodePartition::contiguous(n, 3),
        )
        .unwrap();
        let q = MeasureQuery::PageRank { damping: 0.85 };
        let snap0 = store.snapshot();
        let answer0 = snap0.query(&q).unwrap();
        let structure_of = |store: &ShardedFactorStore| {
            Arc::clone(published_static(&store.published[0]).structure())
        };
        let s0 = structure_of(&store);

        // Value-only (a removal rescales stored positions): new block, new
        // values, the same structure handle.
        let report = store
            .advance(&GraphDelta {
                added: vec![],
                removed: vec![(2, 0)],
            })
            .unwrap();
        assert_eq!(
            report.per_shard[0].arm,
            Some(MaintenanceArm::FrozenRefactor)
        );
        assert!(!Arc::ptr_eq(
            snap0.shards()[0].shared(),
            &store.published[0]
        ));
        assert!(Arc::ptr_eq(&s0, &structure_of(&store)));
        assert_published_equals_live(&store);

        // A new intra-shard position is a fill-in: the pattern moved, the
        // next block sits on a structure of its own.
        let report = store
            .advance(&GraphDelta {
                added: vec![(1, 3)],
                removed: vec![],
            })
            .unwrap();
        assert_eq!(report.per_shard[0].arm, Some(MaintenanceArm::BennettSweep));
        let s2 = structure_of(&store);
        assert!(!Arc::ptr_eq(&s0, &s2));
        assert!(s2.nnz() > s0.nnz());
        assert_published_equals_live(&store);

        // And the moved pattern is shared again from there on.
        store
            .advance(&GraphDelta {
                added: vec![],
                removed: vec![(1, 3)],
            })
            .unwrap();
        assert!(Arc::ptr_eq(&s2, &structure_of(&store)));
        assert_published_equals_live(&store);

        // Time travel over the moved structure: the pre-fill-in snapshot
        // still answers from its own block, bit for bit.
        let again = snap0.query(&q).unwrap();
        assert_eq!(float_bits(&answer0), float_bits(&again));
    }

    #[test]
    fn value_only_batches_run_inline_and_match_the_fan_out_bit_for_bit() {
        let n = 16;
        let build = || {
            // Four shard-local 4-cycles with a chord each, plus cross edges.
            let mut g = DiGraph::new(n);
            for s in 0..4 {
                for i in 0..4 {
                    g.add_edge(s * 4 + i, s * 4 + (i + 1) % 4);
                }
                g.add_edge(s * 4, s * 4 + 2);
            }
            g.add_edge(1, 6);
            g.add_edge(9, 14);
            ShardedFactorStore::new(
                g,
                MatrixKind::random_walk_default(),
                RefreshPolicy::Incremental,
                NodePartition::contiguous(n, 4),
            )
            .unwrap()
        };
        // Dropping every chord is value-only in all four shards.
        let delta = GraphDelta {
            added: vec![],
            removed: (0..4).map(|s| (s * 4, s * 4 + 2)).collect(),
        };
        let (mut inline, mut fanned) = (build(), build());
        let a = inline.advance(&delta).unwrap();
        let b = fanned.advance_dispatched(&delta, true).unwrap();
        assert!(a
            .per_shard
            .iter()
            .all(|s| s.arm == Some(MaintenanceArm::FrozenRefactor)));
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        for s in 0..4 {
            assert_eq!(
                bits(inline.shards[s].of.factors.export_entries()),
                bits(fanned.shards[s].of.factors.export_entries())
            );
            assert_eq!(
                bits(published_static(&inline.published[s]).export_entries()),
                bits(published_static(&fanned.published[s]).export_entries())
            );
        }
        assert_eq!(
            inline.published_coupling.matrix(),
            fanned.published_coupling.matrix()
        );
        assert_published_equals_live(&inline);
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
        // block and live lists still agree.
        let (base, _) = wiki_stream(400, 0, 2, 11);
        let partition = edge_locality_partition(&base, 4);
        let kind = MatrixKind::random_walk_default();
        let mut store =
            ShardedFactorStore::new(base, kind, RefreshPolicy::Incremental, partition).unwrap();
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
            let old_blocks = store.published.clone();
            let report = store
                .advance(&GraphDelta {
                    added: vec![],
                    removed,
                })
                .unwrap();
            assert_published_equals_live(&store);
            for (s, shard) in report.per_shard.iter().enumerate() {
                if shard.arm.is_none() {
                    continue;
                }
                assert_eq!(shard.arm, Some(MaintenanceArm::FrozenRefactor));
                let (old, new) = (
                    published_static(&old_blocks[s]),
                    published_static(&store.published[s]),
                );
                assert!(Arc::ptr_eq(old.structure(), new.structure()));
                assert!(new.structure().is_elimination_closed());
                let ordering = &store.published[s].ordering;
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
    fn a_rebuild_publishes_its_own_factors_and_later_frozen_passes_share_its_structure() {
        let n = 12;
        let mut store = ShardedFactorStore::new(
            base_graph(n),
            MatrixKind::random_walk_default(),
            RefreshPolicy::Incremental,
            NodePartition::singleton(n),
        )
        .unwrap();
        let structure_of = |store: &ShardedFactorStore| {
            Arc::clone(published_static(&store.published[0]).structure())
        };
        // Two removals and an insert, absorbed by Bennett sweeps first: the
        // removed positions stay behind as stored zeros.
        store
            .advance(&GraphDelta {
                added: vec![(1, 7)],
                removed: vec![(2, 0), (6, 1)],
            })
            .unwrap();
        // The next structural batch is rebuilt under the held ordering.
        store.forced_arm = Some(MaintenanceArm::Rebuild);
        let ordering = store.published[0].ordering.clone();
        let report = store
            .advance(&GraphDelta {
                added: vec![(3, 9)],
                removed: vec![],
            })
            .unwrap();
        let shard = report.per_shard[0];
        assert_eq!(shard.arm, Some(MaintenanceArm::Rebuild));
        assert!(shard.actual_work > 0 && shard.predicted_cost > 0.0);
        assert_eq!(report.bennett.rank_one_updates, 0);
        assert!(!report.refreshed);
        assert_eq!(
            store.published[0].ordering, ordering,
            "the ordering is held"
        );
        // The block is exactly the live factors, on the closed pattern of
        // the matrix as it is now: the sweeps' stored zeros are gone.
        assert_published_equals_live(&store);
        let rebuilt = structure_of(&store);
        let matrix = shard_measure_matrix(store.graph(), store.matrix_kind(), store.partition(), 0)
            .reorder(&ordering)
            .unwrap();
        assert_eq!(
            rebuilt.nnz(),
            clude_lu::symbolic_size(&matrix.pattern()),
            "the rebuilt structure is the symbolic closure under the held ordering"
        );
        store.assert_consistent(1e-12);
        assert_queries_match(&store, n);
        // A value-only batch after it: frozen-pattern pass, same structure.
        store.forced_arm = None;
        let report = store
            .advance(&GraphDelta {
                added: vec![],
                removed: vec![(3, 9)],
            })
            .unwrap();
        assert_eq!(
            report.per_shard[0].arm,
            Some(MaintenanceArm::FrozenRefactor)
        );
        assert!(Arc::ptr_eq(&rebuilt, &structure_of(&store)));
        assert_published_equals_live(&store);
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
    fn the_decision_stays_within_a_tenth_of_the_better_arm_on_both_shapes() {
        // Counts only, so the verdict is the same on every machine: per
        // structural shard-batch both arms run from the same state, each is
        // costed by the model on the work it counted, and the free decision
        // is charged for the one it chose.  A constant that only fits one
        // shape fails here on the other.
        for (n_pages, grow_by, n_snapshots, k, rebuilds_most) in
            [(400, 2_200, 30, 1, true), (2_000, 12_000, 120, 4, false)]
        {
            for seed in [11, 97] {
                let (base, batches) = wiki_stream(n_pages, grow_by, n_snapshots, seed);
                let partition = edge_locality_partition(&base, k);
                let mut store = ShardedFactorStore::new(
                    base,
                    MatrixKind::random_walk_default(),
                    RefreshPolicy::default(),
                    partition,
                )
                .unwrap();
                let (mut chosen, mut better, mut rebuilt, mut structural) = (0.0, 0.0, 0, 0);
                for delta in &batches {
                    let costs_of = |forced: MaintenanceArm| {
                        let mut fork = store.clone();
                        fork.forced_arm = Some(forced);
                        let report = fork.advance(delta).unwrap();
                        (0..fork.n_shards())
                            .map(|s| {
                                let factors = &fork.shards[s].of.factors;
                                forced.model_cost(
                                    report.per_shard[s].actual_work,
                                    factors.nnz(),
                                    factors.n(),
                                )
                            })
                            .collect::<Vec<f64>>()
                    };
                    let sweep = costs_of(MaintenanceArm::BennettSweep);
                    let rebuild = costs_of(MaintenanceArm::Rebuild);
                    let report = store.advance(delta).unwrap();
                    for (s, shard) in report.per_shard.iter().enumerate() {
                        let cost = match shard.arm {
                            Some(MaintenanceArm::BennettSweep) => sweep[s],
                            Some(MaintenanceArm::Rebuild) => rebuild[s],
                            _ => continue,
                        };

                        chosen += cost;
                        better += sweep[s].min(rebuild[s]);
                        structural += 1;
                        rebuilt += (shard.arm == Some(MaintenanceArm::Rebuild)) as usize;
                    }
                }
                assert!(
                    chosen <= 1.10 * better,
                    "{n_pages} pages x {k}, seed {seed}: chose {chosen:.0} ns of counted work, \
                     the per-batch better arm {better:.0}"
                );
                assert_eq!(
                    2 * rebuilt > structural,
                    rebuilds_most,
                    "{n_pages} pages x {k}, seed {seed}: {rebuilt} rebuilds of {structural}"
                );
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

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            /// Random mixed streams — intra and cross shard, value-only and
            /// structural, with a refresh budget tight enough to trip and a
            /// repartition budget at the initial coupling size: after every
            /// advance the published blocks are the live factors bit for
            /// bit, a block's structure handle survives exactly the
            /// publishes that did not move its pattern, the coupling is the
            /// graph's cross-shard entries array for array, and a snapshot
            /// taken before all of it still answers bit-identically at the
            /// end.  The block a factorization hands over — after the
            /// initial build, a rebuild, a re-order, a repartition — is a
            /// freeze of the lists it reloaded, bit for bit.
            #[test]
            fn published_blocks_track_the_live_factors(
                batches in proptest::collection::vec(
                    proptest::collection::vec((0usize..3, 0usize..16, 0usize..16), 1..6),
                    1..10,
                ),
            ) {
                let n = 16;
                let mut g = base_graph(n);
                for u in 0..n {
                    g.add_edge(u, (u + 5) % n);
                }
                let store = ShardedFactorStore::new(
                    g,
                    MatrixKind::random_walk_default(),
                    RefreshPolicy::QualityTriggered { max_quality_loss: 0.15 },
                    NodePartition::contiguous(n, 4),
                )
                .unwrap();
                let budget = Some(store.coupling_nnz());
                let mut store = store
                    .with_coupling_config(CouplingConfig {
                        repartition_budget: budget,
                        ..CouplingConfig::default()
                    })
                    .unwrap();
                let q = MeasureQuery::Rwr { seed: 3, damping: 0.85 };
                let snap0 = store.snapshot();
                let answer0 = snap0.query(&q).unwrap();
                assert_published_equals_live(&store);
                (0..store.n_shards()).for_each(|s| assert_published_is_a_freeze(&store, s));
                for batch in &batches {
                    let delta = random_delta(store.graph(), batch);
                    let before: Vec<_> = store
                        .shards
                        .iter()
                        .zip(&store.published)
                        .map(|(shard, block)| (
                            shard.of.factors.structural_stats().modifications(),
                            Arc::clone(block),
                        ))
                        .collect();
                    let report = store.advance(&delta).unwrap();
                    assert_published_equals_live(&store);
                    prop_assert_eq!(store.published_coupling.matrix(), &coupling_via_triplets(&store));
                    if report.repartitioned {
                        // Every shard was built afresh over the new partition.
                        (0..store.n_shards()).for_each(|s| assert_published_is_a_freeze(&store, s));
                        continue;
                    }
                    for (s, (modifications, block)) in before.iter().enumerate() {
                        let shard = report.per_shard[s];
                        if shard.entries_applied == 0 {
                            prop_assert!(Arc::ptr_eq(block, &store.published[s]));
                            continue;
                        }
                        prop_assert!(!Arc::ptr_eq(block, &store.published[s]));
                        if matches!(
                            shard.arm,
                            Some(MaintenanceArm::Rebuild | MaintenanceArm::Reorder)
                        ) {
                            assert_published_is_a_freeze(&store, s);
                        }
                        // A rebuild or a re-order factorizes over a structure of
                        // its own (and restarts the lists' counters); a sweep
                        // moved the pattern when the counters say so; a
                        // frozen-pattern pass never does.
                        let moved = match shard.arm {
                            Some(MaintenanceArm::Rebuild | MaintenanceArm::Reorder) => true,
                            Some(MaintenanceArm::BennettSweep) => {
                                store.shards[s].of.factors.structural_stats().modifications()
                                    != *modifications
                            }
                            Some(MaintenanceArm::FrozenRefactor) | None => false,
                        };
                        prop_assert_eq!(
                            Arc::ptr_eq(
                                published_static(block).structure(),
                                published_static(&store.published[s]).structure(),
                            ),
                            !moved,
                            "shard {} ({:?})",
                            s, shard.arm
                        );
                    }
                }
                store.assert_consistent(1e-9);
                let again = snap0.query(&q).unwrap();
                prop_assert_eq!(float_bits(&answer0), float_bits(&again));
            }

            /// Mixed insert / remove streams at 1 and 4 shards under both
            /// policies, every arm forced in turn beside the free decision:
            /// whatever arm maintained a block, the answers agree with each
            /// other to 1e-12 and with dense Gaussian elimination to 1e-9,
            /// the published block is the live factors entry for entry, and
            /// a frozen-pattern pass — also one that follows a rebuild —
            /// keeps the structure handle it found.
            #[test]
            fn every_arm_maintains_the_same_factors(
                batches in proptest::collection::vec(
                    proptest::collection::vec((0usize..3, 0usize..16, 0usize..16), 1..8),
                    1..8,
                ),
                cell in 0usize..4,
            ) {
                let n = 16;
                let (k, policy) = [
                    (1, RefreshPolicy::Incremental),
                    (1, RefreshPolicy::QualityTriggered { max_quality_loss: 0.15 }),
                    (4, RefreshPolicy::Incremental),
                    (4, RefreshPolicy::QualityTriggered { max_quality_loss: 0.15 }),
                ][cell];
                let mut g = base_graph(n);
                for u in 0..n {
                    g.add_edge(u, (u + 5) % n);
                }
                let forced = std::iter::once(None).chain(MaintenanceArm::ALL.map(Some));
                let mut stores: Vec<ShardedFactorStore> = forced
                    .map(|arm| {
                        let mut store = ShardedFactorStore::new(
                            g.clone(),
                            MatrixKind::random_walk_default(),
                            policy,
                            NodePartition::contiguous(n, k),
                        )
                        .unwrap();
                        store.forced_arm = arm;
                        store
                    })
                    .collect();
                let queries = [
                    MeasureQuery::PageRank { damping: 0.85 },
                    MeasureQuery::Rwr { seed: 3, damping: 0.85 },
                ];
                for batch in &batches {
                    let delta = random_delta(stores[0].graph(), batch);
                    let mut answers: Vec<Vec<Vec<f64>>> = Vec::new();
                    for store in &mut stores {
                        let before: Vec<_> = (0..store.n_shards())
                            .map(|s| Arc::clone(published_static(&store.published[s]).structure()))
                            .collect();
                        let report = store.advance(&delta).unwrap();
                        assert_published_equals_live(store);
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
                            if shard.arm == Some(MaintenanceArm::FrozenRefactor) {
                                prop_assert!(Arc::ptr_eq(
                                    &before[s],
                                    published_static(&store.published[s]).structure(),
                                ));
                            }
                        }
                        let snap = store.snapshot();
                        answers.push(queries.iter().map(|q| snap.query(q).unwrap()).collect());
                    }
                    for (q, query) in queries.iter().enumerate() {
                        let dense = dense_answer(stores[0].graph(), stores[0].matrix_kind(), query);
                        for (a, store) in answers.iter().zip(&stores) {
                            for ((x, y), z) in a[q].iter().zip(&answers[0][q]).zip(&dense) {
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
            }

            /// The frozen coupling is the state, and it equals the triplet
            /// route: after every advance of a random mixed stream — both
            /// matrix kinds, a zero damping whose coupling is all dropped
            /// zeros, a budget tight enough to re-partition — the merged CSR
            /// is the graph's cross-shard entries bit for bit, no advance
            /// builds a plan, the plan a solve builds is what a fresh build
            /// over the entries gives, and consecutive snapshots share
            /// coupling and plan exactly when no cross-shard entry changed.
            #[test]
            fn coupling_freeze_equals_the_triplet_route(
                batches in proptest::collection::vec(
                    proptest::collection::vec((0usize..3, 0usize..16, 0usize..16), 1..6),
                    1..10,
                ),
                cell in 0usize..4,
            ) {
                let n = 16;
                let (kind, budget) = [
                    (MatrixKind::random_walk_default(), None),
                    (MatrixKind::random_walk_default(), Some(22)),
                    (MatrixKind::SymmetricLaplacian { shift: 1.0 }, None),
                    (MatrixKind::RandomWalk { damping: 0.0 }, None),
                ][cell];
                let mut g = base_graph(n);
                for u in 0..n {
                    g.add_edge(u, (u + 5) % n);
                }
                let mut store = ShardedFactorStore::new(
                    g,
                    kind,
                    RefreshPolicy::Incremental,
                    NodePartition::contiguous(n, 4),
                )
                .unwrap()
                .with_coupling_config(CouplingConfig {
                    repartition_budget: budget,
                    ..CouplingConfig::default()
                })
                .unwrap();
                let entry_bits = |m: &CsrMatrix| bits(m.iter().collect());
                let mut oracle = coupling_via_triplets(&store);
                prop_assert_eq!(store.published_coupling.matrix(), &oracle);
                for batch in &batches {
                    let delta = random_delta(store.graph(), batch);
                    let before = store.snapshot();
                    let before_plan = before.coupling_plan();
                    let report = store.advance(&delta).unwrap();
                    let after = store.snapshot();

                    let previous = std::mem::replace(&mut oracle, coupling_via_triplets(&store));
                    prop_assert_eq!(after.coupling(), &oracle);
                    prop_assert_eq!(entry_bits(after.coupling()), entry_bits(&oracle));
                    prop_assert_eq!(store.coupling_nnz(), oracle.nnz());
                    prop_assert!(oracle.iter().all(|(_, _, v)| v != 0.0));
                    prop_assert_eq!(bits(store.durable_state().coupling), entry_bits(&oracle));

                    // A re-partition re-freezes whatever the entries did; the
                    // advance builds no plan, and a shared coupling still
                    // holds the one `before` built.
                    let unchanged = !report.repartitioned
                        && previous == oracle
                        && orderings_held(&before, &after);
                    prop_assert_eq!(after.shared_coupling().built_plan().is_some(), unchanged);
                    let fresh = plan_over(&store, &oracle);
                    prop_assert_eq!(after.coupling_plan().gs_order(), fresh.gs_order());
                    prop_assert_eq!(after.coupling_plan().is_triangular(), fresh.is_triangular());
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
