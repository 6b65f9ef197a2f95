//! Shared machinery of the LUDEM solvers.
//!
//! All four algorithms of the paper (BF, INC, CINC, CLUDE) produce the same
//! kind of output — an ordering and the LU factors of every matrix of the
//! sequence — and differ only in how they group matrices, which ordering they
//! share, and which storage they update incrementally.  This module holds the
//! shared output types, the solver trait, and the two per-cluster
//! decomposition routines the concrete algorithms are built from:
//!
//! * [`decompose_cluster_incremental`] — one ordering per cluster, dynamic
//!   adjacency-list storage, Bennett updates with insertion-on-demand
//!   (Algorithm 2, used by INC and CINC);
//! * [`decompose_cluster_universal`] — ordering and static structure derived
//!   from the cluster's union matrix (Algorithm 3, used by CLUDE), each member
//!   after the first reached by the cheaper exact update the
//!   [`clude_lu::cost`] model predicts: Bennett's, or a numeric pass over the
//!   universal structure.

use crate::cluster::Cluster;
use crate::ems::EvolvingMatrixSequence;
use crate::report::{RunReport, TimingBreakdown};
use clude_lu::{
    apply_delta_with, cost, markowitz_ordering, solve_original_into, solve_original_many_into,
    BennettStats, BennettWorkspace, DynamicLuFactors, LuError, LuFactors, LuResult, LuStorage,
    LuStructure, PanelScratch, RunningReach, SolveScratch,
};
use clude_sparse::{CsrMatrix, Ordering, SparsityPattern};
use std::sync::Arc;
use std::time::Instant;

/// Tuning knobs shared by all solvers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SolverConfig {
    /// When `true` (default), a snapshot of the factors of every matrix is
    /// kept in the solution so queries can be answered per snapshot.  Speed
    /// benchmarks disable this so the measured time contains only the work
    /// the paper's algorithms perform.
    pub keep_factors: bool,
    /// When `true`, CLUDE reaches every cluster member after the first by
    /// Bennett's updates, as the paper's Algorithm 3 does — the mode the
    /// figure experiments run, whose claims are about Bennett's share of the
    /// time.  When `false` (default), each such member takes whichever exact
    /// update the cost model prices lower: Bennett's, or a numeric pass over
    /// the cluster's universal structure.  INC, CINC and BF ignore it.
    pub bennett_only: bool,
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig {
            keep_factors: true,
            bennett_only: false,
        }
    }
}

impl SolverConfig {
    /// Configuration used by the speed benchmarks: factors are not retained.
    pub fn timing_only() -> Self {
        SolverConfig {
            keep_factors: false,
            ..SolverConfig::default()
        }
    }
}

/// The factors of one matrix, in whichever storage the algorithm used.
#[derive(Debug, Clone)]
pub enum MatrixFactors {
    /// Statically structured factors (BF, CLUDE).
    Static(LuFactors),
    /// Dynamically structured factors (INC, CINC).
    Dynamic(DynamicLuFactors),
}

impl MatrixFactors {
    /// Number of slots of the decomposed representation.
    pub fn nnz(&self) -> usize {
        match self {
            MatrixFactors::Static(f) => f.nnz(),
            MatrixFactors::Dynamic(f) => f.nnz(),
        }
    }

    /// Solves the factored (reordered) system.
    pub fn solve_factored(&self, b: &[f64]) -> LuResult<Vec<f64>> {
        match self {
            MatrixFactors::Static(f) => f.solve(b),
            MatrixFactors::Dynamic(f) => f.solve(b),
        }
    }

    /// Rough resident bytes no other factor set can share: 8 per value slot
    /// for static factors (their structure is accounted through
    /// [`MatrixFactors::shared_structure`]), ~24 per list node (value plus
    /// row and column indices) for dynamic ones.  Used by the engine's
    /// snapshot-ring accounting, where "approximately right and cheap" beats
    /// exact heap traversal.
    pub fn owned_bytes(&self) -> usize {
        match self {
            MatrixFactors::Static(f) => f.nnz() * std::mem::size_of::<f64>(),
            MatrixFactors::Dynamic(f) => f.nnz() * 24,
        }
    }

    /// The structure handle static factors sit on — shared by every matrix
    /// of a CLUDE cluster, and by consecutive engine snapshots of a block
    /// whose pattern did not move; an accounting that walks many factor sets
    /// counts each distinct handle ([`Arc::ptr_eq`]) once.
    pub fn shared_structure(&self) -> Option<&Arc<LuStructure>> {
        match self {
            MatrixFactors::Static(f) => Some(f.structure()),
            MatrixFactors::Dynamic(_) => None,
        }
    }
}

/// The decomposition of one matrix of the sequence.
#[derive(Debug, Clone)]
pub struct DecomposedMatrix {
    /// Position of the matrix in the sequence.
    pub index: usize,
    /// The ordering `O_i` applied before decomposition — one allocation per
    /// cluster (or per engine block re-order), shared by every matrix
    /// decomposed under it.
    pub ordering: Arc<Ordering>,
    /// The factors of `A_i^{O_i}` (absent when the run was timing-only).
    pub factors: Option<MatrixFactors>,
}

impl DecomposedMatrix {
    /// Solves the original system `A_i x = b` through the reordered factors.
    pub fn solve(&self, b: &[f64]) -> LuResult<Vec<f64>> {
        let mut x = Vec::new();
        let mut scratch = SolveScratch::new();
        self.solve_into(b, &mut scratch, &mut x)?;
        Ok(x)
    }

    /// Allocation-free variant of [`DecomposedMatrix::solve`]: permutes and
    /// substitutes through the reused `scratch`, writing the solution into
    /// `out` (capacities are reused, previous contents discarded).
    pub fn solve_into(
        &self,
        b: &[f64],
        scratch: &mut SolveScratch,
        out: &mut Vec<f64>,
    ) -> LuResult<()> {
        let factors = self.factors.as_ref().ok_or(LuError::DimensionMismatch {
            expected: self.ordering.row().len(),
            actual: 0,
        })?;
        match factors {
            MatrixFactors::Static(f) => solve_original_into(f, &self.ordering, b, scratch, out),
            MatrixFactors::Dynamic(f) => solve_original_into(f, &self.ordering, b, scratch, out),
        }
    }

    /// Panel variant of [`DecomposedMatrix::solve_into`]: solves `n_rhs`
    /// systems whose right-hand sides are stacked column-major in `b`, one
    /// factor traversal for the whole panel.  Every stripe of `out` is
    /// bit-identical to a sequential [`DecomposedMatrix::solve_into`] call —
    /// the contract the engine's query batcher relies on.
    pub fn solve_many_into(
        &self,
        b: &[f64],
        n_rhs: usize,
        scratch: &mut PanelScratch,
        out: &mut Vec<f64>,
    ) -> LuResult<()> {
        let factors = self.factors.as_ref().ok_or(LuError::DimensionMismatch {
            expected: self.ordering.row().len(),
            actual: 0,
        })?;
        match factors {
            MatrixFactors::Static(f) => {
                solve_original_many_into(f, &self.ordering, b, n_rhs, scratch, out)
            }
            MatrixFactors::Dynamic(f) => {
                solve_original_many_into(f, &self.ordering, b, n_rhs, scratch, out)
            }
        }
    }

    /// Rough resident size of this decomposition in bytes — the factors'
    /// [`MatrixFactors::owned_bytes`] plus the ordering's two permutation
    /// maps — without the structure static factors sit on (see
    /// [`MatrixFactors::shared_structure`]).
    pub fn owned_bytes(&self) -> usize {
        let ordering_bytes = 2 * self.ordering.row().len() * std::mem::size_of::<usize>();
        self.factors.as_ref().map_or(0, MatrixFactors::owned_bytes) + ordering_bytes
    }

    /// The structure handle of static factors, if any (see
    /// [`MatrixFactors::shared_structure`]).
    pub fn shared_structure(&self) -> Option<&Arc<LuStructure>> {
        self.factors
            .as_ref()
            .and_then(MatrixFactors::shared_structure)
    }
}

/// The output of a LUDEM solver: one decomposition per matrix plus a report.
#[derive(Debug, Clone)]
pub struct LudemSolution {
    /// Per-matrix decompositions, in sequence order.
    pub decomposed: Vec<DecomposedMatrix>,
    /// Timing and accounting for the run.
    pub report: RunReport,
}

impl LudemSolution {
    /// Solves `A_i x = b` for snapshot `i`.
    pub fn solve(&self, i: usize, b: &[f64]) -> LuResult<Vec<f64>> {
        self.decomposed[i].solve(b)
    }
}

/// A solver for the LUDEM problem (Definition 3).
pub trait LudemSolver {
    /// Short display name ("BF", "INC", "CINC", "CLUDE", …).
    fn name(&self) -> &'static str;

    /// Determines an ordering and the LU factors for every matrix of `ems`.
    fn solve(&self, ems: &EvolvingMatrixSequence, config: &SolverConfig)
        -> LuResult<LudemSolution>;
}

/// Records one decomposed member in the report and the output.
fn push_member(
    index: usize,
    ordering: &Arc<Ordering>,
    factor_nnz: usize,
    factors: Option<MatrixFactors>,
    report: &mut RunReport,
    out: &mut Vec<DecomposedMatrix>,
) {
    report.orderings.push(Arc::clone(ordering));
    report.factor_nnz.push(factor_nnz);
    out.push(DecomposedMatrix {
        index,
        ordering: Arc::clone(ordering),
        factors,
    });
}

/// Refuses a sequence holding a NaN or an infinity, as
/// [`LuError::InvalidParameter`] named `"matrix"` — before any clustering or
/// factorization, so no Bennett step ever sees one (and no member delta
/// silently drops one: [`CsrMatrix::delta_to`] reads a NaN as no change).
pub(crate) fn ensure_finite(ems: &EvolvingMatrixSequence) -> LuResult<()> {
    match ems
        .iter()
        .flat_map(CsrMatrix::iter)
        .find(|&(_, _, v)| !v.is_finite())
    {
        Some((_, _, value)) => Err(LuError::InvalidParameter {
            name: "matrix",
            value,
        }),
        None => Ok(()),
    }
}

/// Member `i`'s changes from member `i - 1` as `(row, col, old, new)`,
/// taken in original coordinates and renamed through the cluster ordering's
/// `old → new` maps (inverted once per cluster) — no member is permuted just
/// to be diffed; `apply_delta_with` sorts its input by `(col, row)`, so the
/// sweeps see what a diff of the two reordered matrices would have given
/// them.
fn member_delta(
    ems: &EvolvingMatrixSequence,
    i: usize,
    row_old_to_new: &[usize],
    col_old_to_new: &[usize],
) -> Vec<(usize, usize, f64, f64)> {
    let mut delta = ems
        .matrix(i - 1)
        .delta_to(ems.matrix(i), 0.0)
        .expect("matrices of an EMS share a shape");
    for entry in &mut delta {
        entry.0 = row_old_to_new[entry.0];
        entry.1 = col_old_to_new[entry.1];
    }
    delta
}

/// One Bennett step: `delta` applied to `factors` through the cluster's
/// shared workspace, timed as incremental work and counted in the report.
fn bennett_step<S: LuStorage>(
    factors: &mut S,
    workspace: &mut BennettWorkspace,
    delta: &[(usize, usize, f64, f64)],
    report: &mut RunReport,
) -> LuResult<BennettStats> {
    let t = Instant::now();
    let stats = apply_delta_with(factors, workspace, delta)?;
    report.timings.incremental += t.elapsed();
    report.bennett.merge(&stats);
    report.bennett_members += 1;
    Ok(stats)
}

/// Distinct columns `delta` changes: the rank-one updates Bennett spends on
/// it.
fn changed_columns(delta: &[(usize, usize, f64, f64)]) -> usize {
    let mut columns: Vec<usize> = delta.iter().map(|&(_, c, _, _)| c).collect();
    columns.sort_unstable();
    columns.dedup();
    columns.len()
}

/// The two exact updates that reach a CLUDE cluster member from its
/// predecessor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MemberArm {
    /// One Bennett rank-one sweep per changed column, from the predecessor's
    /// factors.
    Bennett,
    /// A numeric factorization of the member over the cluster's universal
    /// structure — a full pass, whatever the member changed.
    Numeric,
}

/// What a CLUDE cluster's member steps carry from one member to the next:
/// the shared structure and ordering, the Bennett workspace, the running
/// reach the sweeps are predicted from, and the numeric pass's price,
/// counted once per cluster (the structure is the same for every member).
#[derive(Debug, Clone)]
struct UniversalMembers {
    structure: Arc<LuStructure>,
    ordering: Arc<Ordering>,
    row_old_to_new: Vec<usize>,
    col_old_to_new: Vec<usize>,
    workspace: BennettWorkspace,
    reach: RunningReach,
    numeric_cost: f64,
    bennett_only: bool,
}

impl UniversalMembers {
    fn new(structure: &Arc<LuStructure>, ordering: &Arc<Ordering>, bennett_only: bool) -> Self {
        UniversalMembers {
            structure: Arc::clone(structure),
            ordering: Arc::clone(ordering),
            row_old_to_new: ordering.row().old_to_new(),
            col_old_to_new: ordering.col().old_to_new(),
            workspace: BennettWorkspace::with_order(structure.n()),
            reach: RunningReach::default(),
            numeric_cost: cost::numeric_pass_ns(structure.nnz(), structure.elimination_work()),
            bennett_only,
        }
    }

    /// Bennett's predicted cost on `delta`: one rank-one update per distinct
    /// changed column, each at the running reach share of the structure.
    fn sweep_cost(&self, delta: &[(usize, usize, f64, f64)]) -> f64 {
        let updates = changed_columns(delta);
        cost::sweep_ns(self.reach.predicted_entries(updates, self.structure.nnz()))
    }

    /// The cheaper arm for `delta`; Bennett on a tie, and always in the
    /// paper-faithful mode.
    fn decide(&self, delta: &[(usize, usize, f64, f64)]) -> MemberArm {
        if !self.bennett_only && self.numeric_cost < self.sweep_cost(delta) {
            MemberArm::Numeric
        } else {
            MemberArm::Bennett
        }
    }

    /// Reaches member `i` from `factors`, its predecessor's, by `arm`.  A
    /// numeric pass that fails leaves `factors` untouched, and the member
    /// falls back to Bennett from them.  Each Bennett step updates the
    /// running reach.
    fn step(
        &mut self,
        ems: &EvolvingMatrixSequence,
        i: usize,
        arm: MemberArm,
        delta: &[(usize, usize, f64, f64)],
        factors: &mut LuFactors,
        report: &mut RunReport,
    ) -> LuResult<()> {
        if arm == MemberArm::Numeric {
            let t = Instant::now();
            let member = ems
                .matrix(i)
                .reorder(&self.ordering)
                .expect("ordering matches the matrix order");
            let numeric = LuFactors::factorize(Arc::clone(&self.structure), &member);
            report.timings.full_decomposition += t.elapsed();
            if let Ok(numeric) = numeric {
                *factors = numeric;
                report.numeric_members += 1;
                return Ok(());
            }
        }
        let nnz = factors.nnz();
        let stats = bennett_step(factors, &mut self.workspace, delta, report)?;
        self.reach.observe(&stats, nnz);
        Ok(())
    }
}

/// Decomposes one cluster the INC/CINC way (Algorithm 2): the Markowitz
/// ordering of the cluster's *first* matrix is shared by every member, the
/// first matrix is fully decomposed into dynamic adjacency lists, and the
/// rest are obtained by Bennett updates with insertion-on-demand.
///
/// When `ordering` is `Some`, that ordering is used instead of computing the
/// first matrix's Markowitz ordering (β-clustering passes the ordering it
/// already computed during cluster formation).
pub fn decompose_cluster_incremental(
    ems: &EvolvingMatrixSequence,
    cluster: &Cluster,
    ordering: Option<Ordering>,
    config: &SolverConfig,
    report: &mut RunReport,
    out: &mut Vec<DecomposedMatrix>,
) -> LuResult<()> {
    let timings = &mut report.timings;
    // Ordering of the first matrix of the cluster.
    let ordering = Arc::new(match ordering {
        Some(o) => o,
        None => {
            let t = Instant::now();
            let o = markowitz_ordering(&ems.pattern(cluster.start)).ordering;
            timings.ordering += t.elapsed();
            o
        }
    });

    // Full decomposition of the first matrix (dynamic storage).
    let t = Instant::now();
    let first_reordered = ems
        .matrix(cluster.start)
        .reorder(&ordering)
        .expect("ordering matches the matrix order");
    timings.symbolic += t.elapsed();
    let t = Instant::now();
    let mut factors = DynamicLuFactors::factorize(&first_reordered)?;
    timings.full_decomposition += t.elapsed();
    factors.reset_structural_stats();

    let keep = |f: &DynamicLuFactors| {
        config
            .keep_factors
            .then(|| MatrixFactors::Dynamic(f.clone()))
    };
    report.cluster_sizes.push(cluster.len());
    let kept = keep(&factors);
    push_member(cluster.start, &ordering, factors.nnz(), kept, report, out);

    // Bennett updates for the remaining members, all sharing one workspace
    // so the steady-state sweep never allocates.
    let row_old_to_new = ordering.row().old_to_new();
    let col_old_to_new = ordering.col().old_to_new();
    let mut workspace = BennettWorkspace::with_order(factors.n());
    for i in cluster.start + 1..cluster.end {
        let t = Instant::now();
        let delta = member_delta(ems, i, &row_old_to_new, &col_old_to_new);
        report.timings.incremental += t.elapsed();
        bennett_step(&mut factors, &mut workspace, &delta, report)?;
        let kept = keep(&factors);
        push_member(i, &ordering, factors.nnz(), kept, report, out);
    }
    let s = factors.structural_stats();
    report.structural.inserts += s.inserts;
    report.structural.removals += s.removals;
    report.structural.probes += s.probes;
    Ok(())
}

/// A CLUDE cluster's shared ordering — `ordering`, or the Markowitz ordering
/// of `A_∪` when `None` — and the universal static structure its symbolic
/// decomposition of `A_∪^{O_∪}` defines (Theorem 1).
fn universal_structure(
    union: &SparsityPattern,
    ordering: Option<Ordering>,
    report: &mut RunReport,
) -> (Arc<Ordering>, Arc<LuStructure>) {
    let ordering = Arc::new(match ordering {
        Some(o) => o,
        None => {
            let t = Instant::now();
            let o = markowitz_ordering(union).ordering;
            report.timings.ordering += t.elapsed();
            o
        }
    });
    let t = Instant::now();
    let reordered_union = clude_lu::reorder_pattern(union, &ordering);
    let ussp = clude_lu::symbolic_decomposition(&reordered_union).pattern;
    let structure = LuStructure::from_closed_pattern_unchecked(&ussp).into_shared();
    report.timings.symbolic += t.elapsed();
    (ordering, structure)
}

/// Decomposes one cluster the CLUDE way (Algorithm 3): the Markowitz ordering
/// of the cluster's union matrix `A_∪` is shared by every member, its
/// symbolic decomposition defines a universal static structure, the first
/// matrix is fully decomposed into that structure, and the rest are reached
/// from their predecessor without ever modifying the structure — by Bennett
/// updates, or, outside [`SolverConfig::bennett_only`], by a numeric pass
/// over the structure when [`clude_lu::cost`] prices it lower (one sweep per
/// changed column at the running reach share of the structure's slots,
/// against the slots plus the structure's elimination multiply-adds).
///
/// `union` is the pattern of the cluster's `A_∪` (Definition 7), which the
/// clustering pass that formed the cluster already holds
/// ([`crate::cluster::alpha_clustering_with_unions`];
/// [`crate::cluster::cluster_union_pattern`] builds it for any other
/// cluster).
pub fn decompose_cluster_universal(
    ems: &EvolvingMatrixSequence,
    cluster: &Cluster,
    union: &SparsityPattern,
    ordering: Option<Ordering>,
    config: &SolverConfig,
    report: &mut RunReport,
    out: &mut Vec<DecomposedMatrix>,
) -> LuResult<()> {
    let (ordering, structure) = universal_structure(union, ordering, report);

    // Full decomposition of the first matrix over the shared structure.
    let t = Instant::now();
    let first_reordered = ems
        .matrix(cluster.start)
        .reorder(&ordering)
        .expect("ordering matches the matrix order");
    let mut factors = LuFactors::factorize(Arc::clone(&structure), &first_reordered)?;
    report.timings.full_decomposition += t.elapsed();

    let keep = |f: &LuFactors| {
        config
            .keep_factors
            .then(|| MatrixFactors::Static(f.clone()))
    };
    report.cluster_sizes.push(cluster.len());
    let kept = keep(&factors);
    push_member(cluster.start, &ordering, factors.nnz(), kept, report, out);

    // The remaining members, each by the cheaper exact update.
    let mut members = UniversalMembers::new(&structure, &ordering, config.bennett_only);
    for i in cluster.start + 1..cluster.end {
        let t = Instant::now();
        let delta = member_delta(ems, i, &members.row_old_to_new, &members.col_old_to_new);
        let arm = members.decide(&delta);
        report.timings.incremental += t.elapsed();
        members.step(ems, i, arm, &delta, &mut factors, report)?;
        let kept = keep(&factors);
        push_member(i, &ordering, factors.nnz(), kept, report, out);
    }
    Ok(())
}

/// Verifies that a solution's factors reproduce the original matrices (used
/// by tests and the verification example).  Returns the largest entry-wise
/// reconstruction error across the sequence.
pub fn max_reconstruction_error(
    ems: &EvolvingMatrixSequence,
    solution: &LudemSolution,
) -> Option<f64> {
    let mut worst: f64 = 0.0;
    for d in &solution.decomposed {
        let factors = d.factors.as_ref()?;
        let reordered: CsrMatrix = ems
            .matrix(d.index)
            .reorder(&d.ordering)
            .expect("ordering matches");
        let reconstructed = match factors {
            MatrixFactors::Static(f) => f.reconstruct(),
            MatrixFactors::Dynamic(f) => f.reconstruct(),
        };
        worst = worst.max(
            reconstructed
                .max_abs_diff(&reordered)
                .expect("shapes agree"),
        );
    }
    Some(worst)
}

/// Sums a timing breakdown's total; helper for speed comparisons in tests.
pub fn total_time(t: &TimingBreakdown) -> std::time::Duration {
    t.total()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{Clude, ClusterIncremental};
    use crate::cluster::alpha_clustering_with_unions;
    use crate::qc::CludeQc;
    use crate::test_support::{small_random_walk_ems, small_symmetric_ems};
    use clude_graph::generators::{wiki_like, WikiLikeConfig};
    use clude_graph::MatrixKind;
    use clude_sparse::CooMatrix;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// `egs-clude`'s wiki-like shape at a fifth of its pages.
    fn egs_shape(seed: u64) -> EvolvingMatrixSequence {
        let config = WikiLikeConfig {
            n_pages: 500,
            initial_links: 1_500,
            final_links: 1_900,
            n_snapshots: 50,
            removals_per_snapshot: 8,
            burst_probability: 0.08,
            burst_size: 10,
        };
        let egs = wiki_like::generate(&config, &mut StdRng::seed_from_u64(seed));
        EvolvingMatrixSequence::from_egs(&egs, MatrixKind::random_walk_default())
    }

    /// A sequence whose every step rescales the off-diagonal entries of one
    /// column: one rank-one update a member.
    fn one_column_per_step(seed: u64) -> EvolvingMatrixSequence {
        let first = egs_shape(seed).matrix(0).clone();
        let n = first.n_rows();
        let mut matrices = vec![first];
        for step in 0..30 {
            let column = (step * 37 + 11) % n;
            let last = matrices.last().expect("seeded");
            let mut coo = CooMatrix::new(n, n);
            for (i, j, v) in last.iter() {
                let scaled = if j == column && i != j { 0.9 * v } else { v };
                coo.push(i, j, scaled).expect("in bounds");
            }
            matrices.push(CsrMatrix::from_coo(&coo));
        }
        EvolvingMatrixSequence::new(matrices).expect("one shape")
    }

    /// Per CLUDE member, both arms run from the same state and are costed
    /// by the model on what they counted; returns the model cost of the
    /// arms the free decision chose and of the per-member better arms, and
    /// checks the two fixed points of the rule on the way: a one-column
    /// delta takes Bennett, a delta of sixteen or more columns the numeric
    /// pass.
    fn chosen_and_better(ems: &EvolvingMatrixSequence) -> (f64, f64, [usize; 2]) {
        let (clustering, unions) = alpha_clustering_with_unions(ems, 0.95).unwrap();
        let (mut chosen, mut better, mut arms) = (0.0, 0.0, [0, 0]);
        let mut report = RunReport::new("decision");
        for (cluster, union) in clustering.clusters().iter().zip(&unions) {
            let (ordering, structure) = universal_structure(union, None, &mut report);
            let first = ems.matrix(cluster.start).reorder(&ordering).unwrap();
            let mut factors = LuFactors::factorize(Arc::clone(&structure), &first).unwrap();
            let mut members = UniversalMembers::new(&structure, &ordering, false);
            for i in cluster.start + 1..cluster.end {
                let delta = member_delta(ems, i, &members.row_old_to_new, &members.col_old_to_new);
                let cost_of = |arm: MemberArm| {
                    let (mut fork, mut f) = (members.clone(), factors.clone());
                    let mut counted = RunReport::new("fork");
                    fork.step(ems, i, arm, &delta, &mut f, &mut counted)
                        .unwrap();
                    let numeric = (arm == MemberArm::Numeric) as usize;
                    assert_eq!(counted.numeric_members, numeric, "member {i}");
                    match arm {
                        MemberArm::Bennett => {
                            cost::sweep_ns(counted.bennett.entries_touched as u64)
                        }
                        MemberArm::Numeric => members.numeric_cost,
                    }
                };
                let (bennett, numeric) = (cost_of(MemberArm::Bennett), cost_of(MemberArm::Numeric));
                let arm = members.decide(&delta);
                let columns = changed_columns(&delta);
                if columns == 1 {
                    assert_eq!(arm, MemberArm::Bennett, "member {i}");
                }
                if columns >= 16 {
                    assert_eq!(arm, MemberArm::Numeric, "member {i}: {columns} columns");
                }
                chosen += if arm == MemberArm::Bennett {
                    bennett
                } else {
                    numeric
                };
                better += bennett.min(numeric);
                arms[arm as usize] += 1;
                members
                    .step(ems, i, arm, &delta, &mut factors, &mut report)
                    .unwrap();
            }
        }
        (chosen, better, arms)
    }

    #[test]
    fn the_member_decision_stays_within_a_tenth_of_the_better_arm() {
        // Counts only, so the verdict is the same on every machine.
        for (name, ems) in [
            ("egs shape, seed 11", egs_shape(11)),
            ("egs shape, seed 97", egs_shape(97)),
            ("one column a step", one_column_per_step(11)),
        ] {
            let (chosen, better, arms) = chosen_and_better(&ems);
            assert!(
                chosen <= 1.10 * better,
                "{name}: chose {chosen:.0} ns of modelled work, the better arms {better:.0} \
                 ({arms:?} Bennett / numeric)"
            );
        }
    }

    const FAITHFUL: SolverConfig = SolverConfig {
        keep_factors: true,
        bennett_only: true,
    };

    /// `solver` under `config` refuses a NaN or an infinity in a member
    /// that is not its cluster's first — the one Bennett would reach — as
    /// the `"matrix"` parameter, carrying the value.
    fn refuses_non_finite(
        solver: &dyn LudemSolver,
        ems: &EvolvingMatrixSequence,
        config: &SolverConfig,
    ) {
        let clean = solver.solve(ems, config).unwrap();
        let mut start = 0;
        let member = clean
            .report
            .cluster_sizes
            .iter()
            .find_map(|&size| {
                let second = (size >= 2).then_some(start + 1);
                start += size;
                second
            })
            .expect("a cluster of two or more");
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut matrices = ems.matrices().to_vec();
            let (i, j, _) = matrices[member]
                .iter()
                .find(|&(i, j, _)| i != j)
                .expect("an off-diagonal entry");
            assert!(matrices[member].set(i, j, bad));
            let poisoned = EvolvingMatrixSequence::new(matrices).unwrap();
            let err = solver.solve(&poisoned, config).unwrap_err();
            assert!(
                matches!(err, LuError::InvalidParameter { name: "matrix", value }
                    if value.to_bits() == bad.to_bits()),
                "{} ({config:?}), {bad} in member {member}: {err:?}",
                solver.name()
            );
        }
    }

    #[test]
    fn clude_refuses_a_non_finite_member_in_the_default_mode() {
        refuses_non_finite(
            &Clude::new(0.95),
            &small_random_walk_ems(30, 12, 3),
            &SolverConfig::default(),
        );
    }

    #[test]
    fn clude_refuses_a_non_finite_member_in_the_faithful_mode() {
        refuses_non_finite(
            &Clude::new(0.95),
            &small_random_walk_ems(30, 12, 3),
            &FAITHFUL,
        );
    }

    #[test]
    fn clude_qc_refuses_a_non_finite_member_in_the_default_mode() {
        refuses_non_finite(
            &CludeQc::new(0.2),
            &small_symmetric_ems(25, 8, 11),
            &SolverConfig::default(),
        );
    }

    #[test]
    fn clude_qc_refuses_a_non_finite_member_in_the_faithful_mode() {
        refuses_non_finite(
            &CludeQc::new(0.2),
            &small_symmetric_ems(25, 8, 11),
            &FAITHFUL,
        );
    }

    #[test]
    fn cinc_refuses_a_non_finite_member_in_the_default_mode() {
        refuses_non_finite(
            &ClusterIncremental::new(0.95),
            &small_random_walk_ems(30, 12, 3),
            &SolverConfig::default(),
        );
    }

    #[test]
    fn cinc_refuses_a_non_finite_member_in_the_faithful_mode() {
        refuses_non_finite(
            &ClusterIncremental::new(0.95),
            &small_random_walk_ems(30, 12, 3),
            &FAITHFUL,
        );
    }
}
