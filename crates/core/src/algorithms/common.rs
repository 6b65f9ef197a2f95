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

use crate::cluster::{cluster_union_pattern, Cluster};
use crate::ems::EvolvingMatrixSequence;
use crate::report::{RunReport, TimingBreakdown};
use clude_lu::{
    apply_delta_with, markowitz_ordering, solve_original_into, solve_original_many_into,
    BennettWorkspace, DynamicLuFactors, LuError, LuFactors, LuResult, LuStructure, PanelScratch,
    SolveScratch,
};
use clude_sparse::{CsrMatrix, Ordering};
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
    /// The ordering `O_i` applied before decomposition.
    pub ordering: Ordering,
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
    let ordering = match ordering {
        Some(o) => o,
        None => {
            let t = Instant::now();
            let o = markowitz_ordering(&ems.pattern(cluster.start)).ordering;
            timings.ordering += t.elapsed();
            o
        }
    };

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

    report.cluster_sizes.push(cluster.len());
    report.orderings.push(ordering.clone());
    report.factor_nnz.push(factors.nnz());
    out.push(DecomposedMatrix {
        index: cluster.start,
        ordering: ordering.clone(),
        factors: config
            .keep_factors
            .then(|| MatrixFactors::Dynamic(factors.clone())),
    });

    // Bennett updates for the remaining members, all sharing one workspace
    // so the steady-state sweep never allocates.
    let mut workspace = BennettWorkspace::with_order(factors.n());
    let mut prev_reordered = first_reordered;
    for i in cluster.start + 1..cluster.end {
        let t = Instant::now();
        let current_reordered = ems
            .matrix(i)
            .reorder(&ordering)
            .expect("ordering matches the matrix order");
        let delta = prev_reordered
            .delta_to(&current_reordered, 0.0)
            .expect("matrices share a shape");
        let stats = apply_delta_with(&mut factors, &mut workspace, &delta)?;
        timings.incremental += t.elapsed();
        report.bennett.merge(&stats);
        report.orderings.push(ordering.clone());
        report.factor_nnz.push(factors.nnz());
        out.push(DecomposedMatrix {
            index: i,
            ordering: ordering.clone(),
            factors: config
                .keep_factors
                .then(|| MatrixFactors::Dynamic(factors.clone())),
        });
        prev_reordered = current_reordered;
    }
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
pub fn decompose_cluster_universal(
    ems: &EvolvingMatrixSequence,
    cluster: &Cluster,
    ordering: Option<Ordering>,
    config: &SolverConfig,
    report: &mut RunReport,
    out: &mut Vec<DecomposedMatrix>,
) -> LuResult<()> {
    // Union pattern of the cluster (Definition 7) — counted as clustering
    // work, as in the paper's breakdown.
    let t = Instant::now();
    let union = cluster_union_pattern(ems, cluster);
    report.timings.clustering += t.elapsed();

    // Markowitz ordering of A_∪.
    let ordering = match ordering {
        Some(o) => o,
        None => {
            let t = Instant::now();
            let o = markowitz_ordering(&union).ordering;
            report.timings.ordering += t.elapsed();
            o
        }
    };

    // Symbolic decomposition of A_∪^{O_∪} and the universal static structure.
    let t = Instant::now();
    let reordered_union = clude_lu::reorder_pattern(&union, &ordering);
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

    report.cluster_sizes.push(cluster.len());
    report.orderings.push(ordering.clone());
    report.factor_nnz.push(factors.nnz());
    out.push(DecomposedMatrix {
        index: cluster.start,
        ordering: ordering.clone(),
        factors: config
            .keep_factors
            .then(|| MatrixFactors::Static(factors.clone())),
    });

    // Bennett updates over the static structure for the remaining members,
    // all sharing one workspace so the steady-state sweep never allocates.
    let mut workspace = BennettWorkspace::with_order(factors.n());
    let mut prev_reordered = first_reordered;
    for i in cluster.start + 1..cluster.end {
        let t = Instant::now();
        let current_reordered = ems
            .matrix(i)
            .reorder(&ordering)
            .expect("ordering matches the matrix order");
        let delta = prev_reordered
            .delta_to(&current_reordered, 0.0)
            .expect("matrices share a shape");
        let stats = apply_delta_with(&mut factors, &mut workspace, &delta)?;
        report.timings.incremental += t.elapsed();
        report.bennett.merge(&stats);
        report.orderings.push(ordering.clone());
        report.factor_nnz.push(factors.nnz());
        out.push(DecomposedMatrix {
            index: i,
            ordering: ordering.clone(),
            factors: config
                .keep_factors
                .then(|| MatrixFactors::Static(factors.clone())),
        });
        prev_reordered = current_reordered;
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
