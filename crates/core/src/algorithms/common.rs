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
//!   from the cluster's union matrix (Algorithm 3, used by CLUDE).

use crate::cluster::Cluster;
use crate::ems::EvolvingMatrixSequence;
use crate::report::{RunReport, TimingBreakdown};
use clude_lu::{
    apply_delta_with, markowitz_ordering, solve_original_into, solve_original_many_into,
    BennettWorkspace, DynamicLuFactors, LuError, LuFactors, LuResult, LuStorage, LuStructure,
    PanelScratch, SolveScratch,
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
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig { keep_factors: true }
    }
}

impl SolverConfig {
    /// Configuration used by the speed benchmarks: factors are not retained.
    pub fn timing_only() -> Self {
        SolverConfig {
            keep_factors: false,
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
    /// `out` (capacities are reused, previous contents discarded).  This is
    /// the per-shard solve of the engine's coupled query path, called once
    /// per shard per sweep — the reason it must not allocate.
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

/// The Bennett steps of a cluster: every member after the first is reached
/// from its predecessor's factors by the delta between the two matrices,
/// all steps sharing one workspace so the steady-state sweep never
/// allocates.  The delta is taken in original coordinates and renamed
/// through the ordering's `old → new` maps (inverted once per cluster) — no
/// member is permuted just to be diffed; `apply_delta_with` sorts its input
/// by `(col, row)`, so the sweeps see what a diff of the two reordered
/// matrices would have given them.  `member_done(i, factors)` runs after
/// member `i`'s step.
fn sweep_members<S: LuStorage>(
    ems: &EvolvingMatrixSequence,
    cluster: &Cluster,
    ordering: &Ordering,
    factors: &mut S,
    report: &mut RunReport,
    mut member_done: impl FnMut(usize, &S, &mut RunReport),
) -> LuResult<()> {
    let row_old_to_new = ordering.row().old_to_new();
    let col_old_to_new = ordering.col().old_to_new();
    let mut workspace = BennettWorkspace::with_order(factors.order());
    for i in cluster.start + 1..cluster.end {
        let t = Instant::now();
        let mut delta = ems
            .matrix(i - 1)
            .delta_to(ems.matrix(i), 0.0)
            .expect("matrices of an EMS share a shape");
        for entry in &mut delta {
            entry.0 = row_old_to_new[entry.0];
            entry.1 = col_old_to_new[entry.1];
        }
        let stats = apply_delta_with(factors, &mut workspace, &delta)?;
        report.timings.incremental += t.elapsed();
        report.bennett.merge(&stats);
        member_done(i, factors, report);
    }
    Ok(())
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

    // Bennett updates for the remaining members.
    sweep_members(
        ems,
        cluster,
        &ordering,
        &mut factors,
        report,
        |i, f, report| push_member(i, &ordering, f.nnz(), keep(f), report, out),
    )?;
    let s = factors.structural_stats();
    report.structural.inserts += s.inserts;
    report.structural.removals += s.removals;
    report.structural.probes += s.probes;
    Ok(())
}

/// Decomposes one cluster the CLUDE way (Algorithm 3): the Markowitz ordering
/// of the cluster's union matrix `A_∪` is shared by every member, its
/// symbolic decomposition defines a universal static structure, the first
/// matrix is fully decomposed into that structure, and the rest are obtained
/// by Bennett updates that never modify the structure.
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
    // Markowitz ordering of A_∪.
    let ordering = Arc::new(match ordering {
        Some(o) => o,
        None => {
            let t = Instant::now();
            let o = markowitz_ordering(union).ordering;
            report.timings.ordering += t.elapsed();
            o
        }
    });

    // Symbolic decomposition of A_∪^{O_∪} and the universal static structure.
    let t = Instant::now();
    let reordered_union = clude_lu::reorder_pattern(union, &ordering);
    let ussp = clude_lu::symbolic_decomposition(&reordered_union).pattern;
    let structure: Arc<LuStructure> =
        LuStructure::from_closed_pattern_unchecked(&ussp).into_shared();
    report.timings.symbolic += t.elapsed();

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

    // Bennett updates over the static structure for the remaining members.
    sweep_members(
        ems,
        cluster,
        &ordering,
        &mut factors,
        report,
        |i, f, report| push_member(i, &ordering, f.nnz(), keep(f), report, out),
    )
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
