//! Shared machinery of the LUDEM solvers.
//!
//! All four algorithms of the paper (BF, INC, CINC, CLUDE) produce the same
//! kind of output — an ordering and the flat LU factors ([`LuFactors`]) of
//! every matrix of the sequence — and differ only in how they group
//! matrices, which ordering they share, and which storage they maintain from
//! one member to the next.  This module holds the shared output types, the
//! solver trait, and the two per-cluster decomposition routines the concrete
//! algorithms are built from:
//!
//! * [`decompose_cluster_incremental`] — one ordering per cluster, dynamic
//!   adjacency-list storage, Bennett updates with insertion-on-demand
//!   (Algorithm 2, used by INC and CINC), each kept member a flat copy of
//!   the lists;
//! * [`decompose_cluster_universal`] — ordering and static structure derived
//!   from the cluster's union matrix (Algorithm 3, used by CLUDE), each member
//!   after the first reached by a numeric pass over the changed rows'
//!   elimination reach in the universal structure, with Bennett's updates as
//!   the fallback of a failed pass and the paper-faithful mode's only step.

use crate::cluster::Cluster;
use crate::ems::EvolvingMatrixSequence;
use crate::report::RunReport;
use clude_lu::{
    apply_delta_with, markowitz_ordering, solve_original_into, solve_original_transposed_into,
    BennettStats, BennettWorkspace, DynamicLuFactors, LuError, LuFactors, LuResult, LuStructure,
    Maintainer, SolveScratch,
};
use clude_sparse::{CooMatrix, CsrMatrix, Ordering, SparsityPattern};
use std::sync::Arc;
use std::time::Instant;

/// Tuning knobs shared by all solvers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SolverConfig {
    /// When `true` (default), the solution keeps a decomposition of every
    /// matrix so queries can be answered per snapshot; when `false` it keeps
    /// none, and the orderings are read off [`RunReport::orderings`].  Speed
    /// benchmarks disable this so the measured time contains only the work
    /// the paper's algorithms perform.
    pub keep_factors: bool,
    /// When `true`, CLUDE reaches every cluster member after the first by
    /// Bennett's updates, as the paper's Algorithm 3 does — the mode the
    /// figure experiments run, whose claims are about Bennett's share of the
    /// time.  When `false` (default), each such member takes a numeric pass
    /// over the changed rows' elimination reach, and Bennett's updates only
    /// when that pass fails.  INC, CINC and BF ignore it.
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

/// The decomposition of one matrix of the sequence.
#[derive(Debug, Clone)]
pub struct DecomposedMatrix {
    /// Position of the matrix in the sequence.
    pub index: usize,
    /// The ordering `O_i` applied before decomposition — one allocation per
    /// cluster (or per engine block re-order), shared by every matrix
    /// decomposed under it.
    pub ordering: Arc<Ordering>,
    /// The factors of `A_i^{O_i}`.  INC and CINC maintain dynamic lists and
    /// keep a flat copy of each member here.
    pub factors: LuFactors,
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
        solve_original_into(&self.factors, &self.ordering, b, scratch, out)
    }

    /// The transposed twin of [`DecomposedMatrix::solve_into`]: solves
    /// `A_iᵀ x = b`, the row and column permutations swapping roles
    /// ([`clude_lu::solve_original_transposed_into`]).
    pub fn solve_transposed_into(
        &self,
        b: &[f64],
        scratch: &mut SolveScratch,
        out: &mut Vec<f64>,
    ) -> LuResult<()> {
        solve_original_transposed_into(&self.factors, &self.ordering, b, scratch, out)
    }

    /// Rough resident size of this decomposition in bytes — 8 per factor
    /// value slot plus the ordering's two permutation maps — without the
    /// structure the factors sit on, which every matrix of a CLUDE cluster,
    /// and consecutive engine snapshots of a block whose pattern did not
    /// move, share: an accounting that walks many decompositions counts each
    /// distinct structure handle ([`Arc::ptr_eq`]) once.
    pub fn owned_bytes(&self) -> usize {
        let ordering_bytes = 2 * self.ordering.row().len() * std::mem::size_of::<usize>();
        self.factors.nnz() * std::mem::size_of::<f64>() + ordering_bytes
    }
}

/// The output of a LUDEM solver: one decomposition per matrix plus a report.
#[derive(Debug, Clone)]
pub struct LudemSolution {
    /// Per-matrix decompositions, in sequence order — none when the run was
    /// timing-only ([`SolverConfig::keep_factors`] off), whose orderings are
    /// in [`RunReport::orderings`].
    pub decomposed: Vec<DecomposedMatrix>,
    /// Timing and accounting for the run.
    pub report: RunReport,
}

impl LudemSolution {
    /// The decomposition of snapshot `i`: an [`LuError::InvalidParameter`]
    /// named `"snapshot"` when the solution keeps none for `i` — `i` past the
    /// sequence, or a timing-only run.
    pub fn decomposition(&self, i: usize) -> LuResult<&DecomposedMatrix> {
        self.decomposed.get(i).ok_or(LuError::InvalidParameter {
            name: "snapshot",
            value: i as f64,
        })
    }

    /// Solves `A_i x = b` for snapshot `i`.
    pub fn solve(&self, i: usize, b: &[f64]) -> LuResult<Vec<f64>> {
        self.decomposition(i)?.solve(b)
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

/// Records one decomposed member in the report and, when its factors were
/// kept, in the output.
pub(crate) fn push_member(
    index: usize,
    ordering: &Arc<Ordering>,
    factor_nnz: usize,
    factors: Option<LuFactors>,
    report: &mut RunReport,
    out: &mut Vec<DecomposedMatrix>,
) {
    report.orderings.push(Arc::clone(ordering));
    report.factor_nnz.push(factor_nnz);
    if let Some(factors) = factors {
        out.push(DecomposedMatrix {
            index,
            ordering: Arc::clone(ordering),
            factors,
        });
    }
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

/// Counts one member reached by Bennett's sweeps, which counted `stats` in
/// the time since `t`.
fn count_bennett(report: &mut RunReport, stats: &BennettStats, t: Instant) {
    report.timings.incremental += t.elapsed();
    report.bennett.merge(stats);
    report.bennett_members += 1;
}

/// What a CLUDE cluster's member steps carry from one member to the next:
/// the [`Maintainer`] holding the current member in factor coordinates — over
/// the reordered `A_∪` pattern — and its delta, the copy of the
/// predecessor's factors the reach pass runs on and the workspace of
/// Bennett's sweeps, each made by the first pass or sweep that needs it.
#[derive(Debug, Clone)]
struct UniversalMembers {
    maintainer: Maintainer,
    spare: Option<LuFactors>,
    bennett: BennettWorkspace,
    bennett_only: bool,
}

impl UniversalMembers {
    /// Steps on from `member`, held under `ordering`.
    fn new(member: CsrMatrix, ordering: &Ordering, bennett_only: bool) -> Self {
        UniversalMembers {
            maintainer: Maintainer::new(ordering, member),
            spare: None,
            bennett: BennettWorkspace::new(),
            bennett_only,
        }
    }

    /// Takes member `i`'s delta from its predecessor and writes it into the
    /// held member (in place: the union pattern holds every member's
    /// entries).
    fn advance(&mut self, ems: &EvolvingMatrixSequence, i: usize) {
        let delta = ems
            .matrix(i - 1)
            .delta_to(ems.matrix(i), 0.0)
            .expect("matrices of an EMS share a shape");
        self.maintainer.take(&delta);
        let stored = self.maintainer.matrix().nnz();
        self.maintainer.write();
        debug_assert_eq!(
            self.maintainer.matrix().nnz(),
            stored,
            "a position off the union"
        );
    }

    /// Reaches the held member from `factors`, its predecessor's: by the
    /// numeric pass over the delta's rows' elimination reach, run on the
    /// spare copy — the two swap on success — so a pass that fails leaves
    /// `factors` untouched and the member falls back to Bennett's sweeps from
    /// them; in the paper-faithful mode by the sweeps alone.
    fn step(&mut self, factors: &mut LuFactors, report: &mut RunReport) -> LuResult<()> {
        if !self.bennett_only {
            let t = Instant::now();
            let spare = match &mut self.spare {
                Some(spare) => {
                    spare.clone_from(factors);
                    spare
                }
                None => self.spare.insert(factors.clone()),
            };
            let pass = self.maintainer.refactor_reach(spare);
            report.timings.full_decomposition += t.elapsed();
            if pass.is_ok() {
                std::mem::swap(factors, spare);
                report.numeric_members += 1;
                return Ok(());
            }
        }
        let t = Instant::now();
        let stats = apply_delta_with(factors, &mut self.bennett, self.maintainer.delta())?;
        count_bennett(report, &stats, t);
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

    // A kept member is a flat copy of the lists, bit for bit.
    let keep = |f: &DynamicLuFactors| {
        config
            .keep_factors
            .then(|| LuFactors::from_sorted_entries(f.n(), &f.export_entries()))
            .transpose()
    };
    report.cluster_sizes.push(cluster.len());
    let kept = keep(&factors)?;
    push_member(cluster.start, &ordering, factors.nnz(), kept, report, out);

    // Bennett updates for the remaining members, all sharing one workspace
    // so the steady-state sweep never allocates.
    let row_old_to_new = ordering.row().old_to_new();
    let col_old_to_new = ordering.col().old_to_new();
    let mut workspace = BennettWorkspace::with_order(factors.n());
    for i in cluster.start + 1..cluster.end {
        let t = Instant::now();
        let delta = member_delta(ems, i, &row_old_to_new, &col_old_to_new);
        let stats = apply_delta_with(&mut factors, &mut workspace, &delta)?;
        count_bennett(report, &stats, t);
        let kept = keep(&factors)?;
        push_member(i, &ordering, factors.nnz(), kept, report, out);
    }
    let s = factors.structural_stats();
    report.structural.inserts += s.inserts;
    report.structural.removals += s.removals;
    report.structural.probes += s.probes;
    Ok(())
}

/// A CLUDE cluster's shared ordering — `ordering`, or the Markowitz ordering
/// of `A_∪` when `None` — the pattern of `A_∪^{O_∪}`, and the universal
/// static structure its symbolic decomposition defines (Theorem 1).
fn universal_structure(
    union: &SparsityPattern,
    ordering: Option<Ordering>,
    report: &mut RunReport,
) -> (Arc<Ordering>, SparsityPattern, Arc<LuStructure>) {
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
    (ordering, reordered_union, structure)
}

/// `matrix` under `ordering`, zero on the positions of `pattern` (which
/// holds every reordered entry) that it does not store.
fn reordered_over(pattern: &SparsityPattern, matrix: &CsrMatrix, ordering: &Ordering) -> CsrMatrix {
    let (rows, cols) = (ordering.row().old_to_new(), ordering.col().old_to_new());
    let mut coo = CooMatrix::with_capacity(matrix.n_rows(), matrix.n_cols(), pattern.nnz());
    let zeros = pattern.iter().map(|(i, j)| (i, j, 0.0));
    for (i, j, v) in zeros.chain(matrix.iter().map(|(i, j, v)| (rows[i], cols[j], v))) {
        coo.push(i, j, v)
            .expect("an ordering keeps entries in range");
    }
    CsrMatrix::from_coo(&coo)
}

/// Decomposes one cluster the CLUDE way (Algorithm 3): the Markowitz ordering
/// of the cluster's union matrix `A_∪` is shared by every member, its
/// symbolic decomposition defines a universal static structure, the first
/// matrix is fully decomposed into that structure, and the rest are reached
/// from their predecessor without ever modifying the structure — by Bennett
/// updates under [`SolverConfig::bennett_only`], else by a numeric pass over
/// the changed rows' elimination reach, with Bennett's updates only where
/// that pass fails.  Each member's delta is written into the previous one in
/// factor coordinates, so no member is reordered.
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
    let (ordering, reordered_union, structure) = universal_structure(union, ordering, report);

    // Full decomposition of the first matrix over the shared structure.
    let t = Instant::now();
    let first = reordered_over(&reordered_union, ems.matrix(cluster.start), &ordering);
    let mut factors = LuFactors::factorize(structure, &first)?;
    report.timings.full_decomposition += t.elapsed();

    let keep = |f: &LuFactors| config.keep_factors.then(|| f.clone());
    report.cluster_sizes.push(cluster.len());
    let kept = keep(&factors);
    push_member(cluster.start, &ordering, factors.nnz(), kept, report, out);

    // The remaining members, each from its predecessor.
    let mut members = UniversalMembers::new(first, &ordering, config.bennett_only);
    for i in cluster.start + 1..cluster.end {
        let t = Instant::now();
        members.advance(ems, i);
        report.timings.incremental += t.elapsed();
        members.step(&mut factors, report)?;
        let kept = keep(&factors);
        push_member(i, &ordering, factors.nnz(), kept, report, out);
    }
    Ok(())
}

/// Verifies that a solution's factors reproduce the original matrices (used
/// by tests and the verification example).  Returns the largest entry-wise
/// reconstruction error across the sequence, or `None` when the solution
/// keeps no decompositions (a timing-only run).
pub fn max_reconstruction_error(
    ems: &EvolvingMatrixSequence,
    solution: &LudemSolution,
) -> Option<f64> {
    if solution.decomposed.is_empty() {
        return None;
    }
    let mut worst: f64 = 0.0;
    for d in &solution.decomposed {
        let reordered: CsrMatrix = ems
            .matrix(d.index)
            .reorder(&d.ordering)
            .expect("ordering matches");
        worst = worst.max(
            d.factors
                .reconstruct()
                .max_abs_diff(&reordered)
                .expect("shapes agree"),
        );
    }
    Some(worst)
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

    /// `held` is member `i` of `ems` reordered: equal on every entry the
    /// member stores, zero on every other position it holds.
    fn assert_holds_member(held: &CsrMatrix, ems: &EvolvingMatrixSequence, i: usize, o: &Ordering) {
        let member = ems.matrix(i).reorder(o).unwrap();
        for (row, col, v) in member.iter() {
            assert_eq!(
                held.get(row, col).to_bits(),
                v.to_bits(),
                "member {i} ({row}, {col})"
            );
        }
        for (row, col, v) in held.iter() {
            assert_eq!(v, member.get(row, col), "member {i} ({row}, {col})");
        }
    }

    #[test]
    fn the_held_member_is_the_reordered_member_after_either_arm() {
        for ems in [egs_shape(11), one_column_per_step(11)] {
            let (clustering, unions) = alpha_clustering_with_unions(&ems, 0.95).unwrap();
            let mut report = RunReport::new("held");
            for (cluster, union) in clustering.clusters().iter().zip(&unions) {
                let (ordering, reordered_union, structure) =
                    universal_structure(union, None, &mut report);
                let first = reordered_over(&reordered_union, ems.matrix(cluster.start), &ordering);
                assert_holds_member(&first, &ems, cluster.start, &ordering);
                let mut factors = LuFactors::factorize(structure, &first).unwrap();
                let mut members = UniversalMembers::new(first, &ordering, false);
                for i in cluster.start + 1..cluster.end {
                    members.advance(&ems, i);
                    let mut fork = members.clone();
                    fork.bennett_only = true;
                    fork.step(&mut factors.clone(), &mut report).unwrap();
                    assert_holds_member(fork.maintainer.matrix(), &ems, i, &ordering);
                    members.step(&mut factors, &mut report).unwrap();
                    assert_holds_member(members.maintainer.matrix(), &ems, i, &ordering);
                }
            }
        }
    }

    #[test]
    fn a_faithful_cluster_never_copies_its_factors() {
        let ems = egs_shape(11);
        let (clustering, unions) = alpha_clustering_with_unions(&ems, 0.95).unwrap();
        let mut report = RunReport::new("faithful");
        for (cluster, union) in clustering.clusters().iter().zip(&unions) {
            let (ordering, reordered_union, structure) =
                universal_structure(union, None, &mut report);
            let first = reordered_over(&reordered_union, ems.matrix(cluster.start), &ordering);
            let mut factors = LuFactors::factorize(structure, &first).unwrap();
            let mut members = UniversalMembers::new(first, &ordering, true);
            for i in cluster.start + 1..cluster.end {
                members.advance(&ems, i);
                members.step(&mut factors, &mut report).unwrap();
            }
            assert!(members.spare.is_none(), "cluster {cluster:?}");
        }
        assert!(report.bennett_members > 0);
        assert_eq!(report.numeric_members, 0);
    }

    #[test]
    fn the_default_mode_reconstructs_every_member() {
        for (name, ems) in [
            ("egs shape, seed 11", egs_shape(11)),
            ("egs shape, seed 97", egs_shape(97)),
            ("one column a step", one_column_per_step(11)),
        ] {
            let solution = Clude::new(0.95)
                .solve(&ems, &SolverConfig::default())
                .unwrap();
            let error = max_reconstruction_error(&ems, &solution).unwrap();
            assert!(
                error <= 1e-9,
                "{name}: {error:e} over {} numeric / {} Bennett members",
                solution.report.numeric_members,
                solution.report.bennett_members
            );
        }
    }

    #[test]
    fn every_default_mode_member_holds_the_bits_of_its_own_factorization() {
        // A reach pass recomputes the changed rows' elimination reach by the
        // row kernel a factorization runs and keeps every other row, so each
        // kept member is, bit for bit, its own factorization over the
        // cluster's universal structure.
        let bits = |f: &LuFactors| {
            f.export_entries()
                .into_iter()
                .map(|(i, j, v)| (i, j, v.to_bits()))
                .collect::<Vec<_>>()
        };
        for (name, ems) in [
            ("egs shape, seed 11", egs_shape(11)),
            ("egs shape, seed 97", egs_shape(97)),
            ("one column a step", one_column_per_step(11)),
        ] {
            let solution = Clude::new(0.95)
                .solve(&ems, &SolverConfig::default())
                .unwrap();
            assert_eq!(solution.report.bennett_members, 0, "{name}");
            for d in &solution.decomposed {
                let f = &d.factors;
                let member = ems.matrix(d.index).reorder(&d.ordering).unwrap();
                let own = LuFactors::factorize(Arc::clone(f.structure()), &member).unwrap();
                assert_eq!(bits(f), bits(&own), "{name}: member {}", d.index);
            }
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
