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
//!   elimination reach in the universal structure — a pass that meets a zero
//!   pivot ends the cluster, and the rest of it starts a new one — or, in
//!   the paper-faithful mode, by Bennett's updates.
//!
//! CLUDE runs the second on up to [`CLUSTER_WORKERS`] clusters at once.

use crate::cluster::{cluster_union_pattern, Cluster};
use crate::ems::EvolvingMatrixSequence;
use crate::report::RunReport;
use clude_lu::{
    apply_delta_with, markowitz_ordering, solve_original_into, solve_original_transposed_into,
    BennettStats, BennettWorkspace, DynamicLuFactors, LuError, LuFactors, LuResult, LuStructure,
    Maintainer, SolveScratch,
};
use clude_sparse::{CsrMatrix, Ordering, SparsityPattern};
use std::num::NonZeroUsize;
use std::sync::{Arc, Mutex, PoisonError};
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
    /// over the changed rows' elimination reach, and a pass that fails ends
    /// its cluster.  INC, CINC and BF ignore it.
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
/// the reordered `A_∪` pattern — and its delta, and in the paper-faithful
/// mode the workspace of Bennett's sweeps.
#[derive(Debug, Clone)]
struct UniversalMembers {
    maintainer: Maintainer,
    /// `Some` in the paper-faithful mode, whose members take Bennett's
    /// sweeps; `None` in the default mode, whose members take the pass.
    bennett: Option<BennettWorkspace>,
}

impl UniversalMembers {
    /// Steps on from `member`, held under `ordering`.
    fn new(member: CsrMatrix, ordering: &Ordering, bennett_only: bool) -> Self {
        UniversalMembers {
            maintainer: Maintainer::new(ordering, member),
            bennett: bennett_only.then(BennettWorkspace::new),
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

    /// Reaches the held member from `factors`, its predecessor's, in place:
    /// by the numeric pass over the delta's rows' elimination reach, or in
    /// the paper-faithful mode by Bennett's sweeps.  `Ok(false)` when the
    /// pass met a zero pivot — the cluster's ordering does not serve this
    /// member, and `factors` hold no member any more.
    fn step(&mut self, factors: &mut LuFactors, report: &mut RunReport) -> LuResult<bool> {
        let t = Instant::now();
        let Some(workspace) = &mut self.bennett else {
            let pass = self.maintainer.refactor_reach(factors);
            report.timings.full_decomposition += t.elapsed();
            return match pass {
                Ok(_) => {
                    report.numeric_members += 1;
                    Ok(true)
                }
                Err(LuError::SingularPivot { .. }) => Ok(false),
                Err(err) => Err(err),
            };
        };
        let stats = apply_delta_with(factors, workspace, self.maintainer.delta())?;
        count_bennett(report, &stats, t);
        Ok(true)
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
/// static structure its symbolic decomposition defines (Theorem 1), closed
/// by the kernel straight into the structure's layout.  `union` is dropped
/// as soon as it is reordered.
fn universal_structure(
    union: SparsityPattern,
    ordering: Option<Ordering>,
    report: &mut RunReport,
) -> LuResult<(Arc<Ordering>, SparsityPattern, Arc<LuStructure>)> {
    let ordering = Arc::new(match ordering {
        Some(o) => o,
        None => {
            let t = Instant::now();
            let o = markowitz_ordering(&union).ordering;
            report.timings.ordering += t.elapsed();
            o
        }
    });
    let t = Instant::now();
    let reordered_union = clude_lu::reorder_pattern(&union, &ordering);
    drop(union);
    let structure = LuStructure::from_pattern(&reordered_union)?.into_shared();
    report.timings.symbolic += t.elapsed();
    Ok((ordering, reordered_union, structure))
}

/// `matrix` under `ordering`, zero on the positions of `pattern` that it
/// does not store, written row by row into CSR: each row is the pattern's,
/// and each entry of `matrix` lands on its slot by a search of its row.  An
/// entry off `pattern` is [`LuError::EntryOutsideStructure`].
fn reordered_over(
    pattern: SparsityPattern,
    matrix: &CsrMatrix,
    ordering: &Ordering,
) -> LuResult<CsrMatrix> {
    let (n, nnz) = (pattern.n_rows(), pattern.nnz());
    let col_old_to_new = ordering.col().old_to_new();
    let mut row_ptr = Vec::with_capacity(n + 1);
    row_ptr.push(0);
    let (mut col_idx, mut values) = (Vec::with_capacity(nnz), Vec::with_capacity(nnz));
    for i in 0..n {
        let start = col_idx.len();
        col_idx.extend_from_slice(pattern.row(i));
        values.resize(col_idx.len(), 0.0);
        let (cols, vals) = matrix.row(ordering.row().new_to_old(i));
        for (&c, &v) in cols.iter().zip(vals) {
            let col = col_old_to_new[c];
            let slot = col_idx[start..].binary_search(&col);
            let slot = slot.map_err(|_| LuError::EntryOutsideStructure { row: i, col })?;
            values[start + slot] = v;
        }
        row_ptr.push(col_idx.len());
    }
    Ok(CsrMatrix::from_raw_parts(n, n, row_ptr, col_idx, values))
}

/// Decomposes one cluster the CLUDE way (Algorithm 3): the Markowitz ordering
/// of the cluster's union matrix `A_∪` is shared by every member, its
/// symbolic decomposition defines a universal static structure, the first
/// matrix is fully decomposed into that structure, and the rest are reached
/// from their predecessor without ever modifying the structure — by Bennett
/// updates under [`SolverConfig::bennett_only`], else by a numeric pass over
/// the changed rows' elimination reach.  Each member's delta is written into
/// the previous one in factor coordinates, so no member is reordered.
///
/// A pass that meets a zero pivot ends the cluster where it stands: the
/// member it failed on and the rest start a new cluster under the Markowitz
/// ordering of their own union ([`cluster_union_pattern`], billed as
/// clustering) — an engine shard re-orders on the same condition — so
/// [`RunReport::cluster_sizes`] records the two parts.
///
/// `union` is the pattern of the cluster's `A_∪` (Definition 7), which the
/// clustering pass that formed the cluster already holds
/// ([`crate::cluster::alpha_clustering_with_unions`];
/// [`cluster_union_pattern`] builds it for any other cluster); it is dropped
/// once reordered.
pub fn decompose_cluster_universal(
    ems: &EvolvingMatrixSequence,
    cluster: &Cluster,
    union: SparsityPattern,
    ordering: Option<Ordering>,
    config: &SolverConfig,
    report: &mut RunReport,
    out: &mut Vec<DecomposedMatrix>,
) -> LuResult<()> {
    let (ordering, reordered_union, structure) = universal_structure(union, ordering, report)?;

    // Full decomposition of the first matrix over the shared structure.
    let t = Instant::now();
    let first = reordered_over(reordered_union, ems.matrix(cluster.start), &ordering)?;
    let mut factors = LuFactors::factorize(structure, &first)?;
    report.timings.full_decomposition += t.elapsed();

    let keep = |f: &LuFactors| config.keep_factors.then(|| f.clone());
    let kept = keep(&factors);
    push_member(cluster.start, &ordering, factors.nnz(), kept, report, out);

    // The remaining members, each from its predecessor.
    let mut members = UniversalMembers::new(first, &ordering, config.bennett_only);
    for i in cluster.start + 1..cluster.end {
        let t = Instant::now();
        members.advance(ems, i);
        report.timings.incremental += t.elapsed();
        if !members.step(&mut factors, report)? {
            // The rest of the cluster starts over, once this one's working
            // set is freed.
            report.cluster_sizes.push(i - cluster.start);
            drop((members, factors));
            let rest = Cluster {
                start: i,
                end: cluster.end,
            };
            let t = Instant::now();
            let union = cluster_union_pattern(ems, &rest);
            report.timings.clustering += t.elapsed();
            return decompose_cluster_universal(ems, &rest, union, None, config, report, out);
        }
        let kept = keep(&factors);
        push_member(i, &ordering, factors.nnz(), kept, report, out);
    }
    report.cluster_sizes.push(cluster.len());
    Ok(())
}

/// A cluster for [`decompose_clusters_universal`]: its span, the pattern of
/// its `A_∪` and, when the clustering pass chose one, its ordering.
pub(crate) type ClusterJob = (Cluster, SparsityPattern, Option<Ordering>);

/// Most clusters a CLUDE solve decomposes at once: each one in flight holds
/// its own working set, and two keep the peak resident set within a few
/// percent of a one-at-a-time solve's ([`crate::algorithms::clude`]).
pub const CLUSTER_WORKERS: usize = 2;

/// Decomposes `clusters`, consecutive and in sequence order, by
/// [`decompose_cluster_universal`] on the calling thread and up to
/// [`CLUSTER_WORKERS`]` − 1` scoped threads, each taking the largest cluster
/// left; the parts are merged in sequence order, and the error returned is
/// that of the first failing cluster, as a one-at-a-time loop would.
pub(crate) fn decompose_clusters_universal(
    ems: &EvolvingMatrixSequence,
    clusters: Vec<ClusterJob>,
    config: &SolverConfig,
    report: &mut RunReport,
    out: &mut Vec<DecomposedMatrix>,
) -> LuResult<()> {
    let workers = std::thread::available_parallelism()
        .map_or(1, NonZeroUsize::get)
        .min(clusters.len())
        .min(CLUSTER_WORKERS);
    // Smallest first, so `pop` hands out the largest.
    let mut queue: Vec<(usize, ClusterJob)> = clusters.into_iter().enumerate().collect();
    queue.sort_by_key(|(k, (cluster, ..))| (cluster.len(), std::cmp::Reverse(*k)));
    let queue = Mutex::new(queue);
    let work = || {
        let mut parts = Vec::new();
        let next = || queue.lock().unwrap_or_else(PoisonError::into_inner).pop();
        while let Some((k, (cluster, union, ordering))) = next() {
            let mut part = LudemSolution {
                decomposed: Vec::new(),
                report: RunReport::new(""),
            };
            let (report, out) = (&mut part.report, &mut part.decomposed);
            let done =
                decompose_cluster_universal(ems, &cluster, union, ordering, config, report, out);
            parts.push((k, done.map(|()| part)));
        }
        parts
    };
    let mut parts = std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..workers).map(|_| scope.spawn(work)).collect();
        let mut parts = work();
        for helper in helpers {
            let theirs = helper.join();
            parts.extend(theirs.unwrap_or_else(|panic| std::panic::resume_unwind(panic)));
        }
        parts
    });
    parts.sort_unstable_by_key(|&(k, _)| k);
    for (_, part) in parts {
        let part = part?;
        report.merge(part.report);
        out.extend(part.decomposed);
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

    /// The triplet build `reordered_over` replaced: zeros over `pattern`,
    /// then the reordered entries, summed by `CsrMatrix::from_coo`.
    fn reordered_over_triplets(
        pattern: &SparsityPattern,
        matrix: &CsrMatrix,
        ordering: &Ordering,
    ) -> CsrMatrix {
        let (rows, cols) = (ordering.row().old_to_new(), ordering.col().old_to_new());
        let mut coo = CooMatrix::with_capacity(matrix.n_rows(), matrix.n_cols(), pattern.nnz());
        let zeros = pattern.iter().map(|(i, j)| (i, j, 0.0));
        for (i, j, v) in zeros.chain(matrix.iter().map(|(i, j, v)| (rows[i], cols[j], v))) {
            coo.push(i, j, v).unwrap();
        }
        CsrMatrix::from_coo(&coo)
    }

    /// `(row, col, value bits)` of every stored entry.
    fn entry_bits(m: &CsrMatrix) -> Vec<(usize, usize, u64)> {
        m.iter().map(|(i, j, v)| (i, j, v.to_bits())).collect()
    }

    #[test]
    fn the_first_member_written_row_by_row_is_the_triplet_build_bit_for_bit() {
        for ems in [
            egs_shape(11),
            egs_shape(97),
            small_random_walk_ems(30, 12, 3),
        ] {
            let (clustering, unions) = alpha_clustering_with_unions(&ems, 0.95).unwrap();
            let mut report = RunReport::new("first");
            for (cluster, union) in clustering.clusters().iter().zip(unions) {
                let (ordering, reordered_union, _) =
                    universal_structure(union, None, &mut report).unwrap();
                for i in cluster.range() {
                    let oracle =
                        reordered_over_triplets(&reordered_union, ems.matrix(i), &ordering);
                    let got = reordered_over(reordered_union.clone(), ems.matrix(i), &ordering);
                    assert_eq!(entry_bits(&got.unwrap()), entry_bits(&oracle), "member {i}");
                }
            }
        }
        // An entry the pattern does not hold is a typed error.
        let matrix = small_random_walk_ems(12, 2, 5).matrix(0).clone();
        let identity = Ordering::identity(matrix.n_rows());
        let err = reordered_over(SparsityPattern::identity(12), &matrix, &identity).unwrap_err();
        assert!(
            matches!(err, LuError::EntryOutsideStructure { .. }),
            "{err:?}"
        );
    }

    #[test]
    fn the_held_member_is_the_reordered_member_after_either_arm() {
        for ems in [egs_shape(11), one_column_per_step(11)] {
            let (clustering, unions) = alpha_clustering_with_unions(&ems, 0.95).unwrap();
            let mut report = RunReport::new("held");
            for (cluster, union) in clustering.clusters().iter().zip(unions) {
                let (ordering, reordered_union, structure) =
                    universal_structure(union, None, &mut report).unwrap();
                let first =
                    reordered_over(reordered_union, ems.matrix(cluster.start), &ordering).unwrap();
                assert_holds_member(&first, &ems, cluster.start, &ordering);
                let mut factors = LuFactors::factorize(structure, &first).unwrap();
                let mut members = UniversalMembers::new(first, &ordering, false);
                for i in cluster.start + 1..cluster.end {
                    members.advance(&ems, i);
                    let mut fork = members.clone();
                    fork.bennett = Some(BennettWorkspace::new());
                    assert!(fork.step(&mut factors.clone(), &mut report).unwrap());
                    assert_holds_member(fork.maintainer.matrix(), &ems, i, &ordering);
                    assert!(members.step(&mut factors, &mut report).unwrap());
                    assert_holds_member(members.maintainer.matrix(), &ems, i, &ordering);
                }
            }
        }
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

    /// `(row, col, value bits)` of every factor entry.
    fn factor_bits(f: &LuFactors) -> Vec<(usize, usize, u64)> {
        f.export_entries()
            .into_iter()
            .map(|(i, j, v)| (i, j, v.to_bits()))
            .collect()
    }

    /// The `n × n` matrix with `diag0` at `(0, 0)`, 4 on the rest of the
    /// diagonal and 1 at each of `off` and its mirror.
    fn member(n: usize, diag0: f64, off: &[(usize, usize)]) -> CsrMatrix {
        let mut coo = CooMatrix::new(n, n);
        coo.push(0, 0, diag0).unwrap();
        for i in 1..n {
            coo.push(i, i, 4.0).unwrap();
        }
        for &(i, j) in off {
            coo.push(i, j, 1.0).unwrap();
            coo.push(j, i, 1.0).unwrap();
        }
        CsrMatrix::from_coo(&coo)
    }

    #[test]
    fn a_member_whose_pass_meets_a_zero_pivot_starts_a_new_cluster() {
        // The union of all three members eliminates node 2 and then node 0
        // first; member 1 stores neither `(0, 0)` nor `(0, 2)`, so its pass
        // meets a zero pivot at node 0.  Members 1 and 2 alone eliminate
        // node 1 before node 0, whose pivot is then −1/4.
        let hub = [(0, 1), (1, 3), (1, 4), (1, 5)];
        let ems = EvolvingMatrixSequence::new(vec![
            member(6, 4.0, &hub),
            member(6, 0.0, &[(0, 1)]).prune(0.0),
            member(6, 0.0, &[(0, 1), (0, 2)]).prune(0.0),
        ])
        .unwrap();
        let solution = Clude::new(0.0)
            .solve(&ems, &SolverConfig::default())
            .unwrap();
        let report = &solution.report;
        assert_eq!(report.cluster_sizes, vec![1, 2]);
        assert_eq!((report.numeric_members, report.bennett_members), (1, 0));
        assert!(!Arc::ptr_eq(&report.orderings[0], &report.orderings[1]));
        assert!(Arc::ptr_eq(&report.orderings[1], &report.orderings[2]));
        for d in &solution.decomposed {
            let f = &d.factors;
            let held = ems.matrix(d.index).reorder(&d.ordering).unwrap();
            let own = LuFactors::factorize(Arc::clone(f.structure()), &held).unwrap();
            assert_eq!(factor_bits(f), factor_bits(&own), "member {}", d.index);
        }
        assert!(max_reconstruction_error(&ems, &solution).unwrap() <= 1e-12);
        // The faithful mode's Bennett sweeps meet the same pivot, and fail.
        let err = Clude::new(0.0).solve(&ems, &FAITHFUL).unwrap_err();
        assert!(matches!(err, LuError::SingularPivot { .. }), "{err:?}");
    }

    /// `ems`'s clusters decomposed one after another on this thread: the
    /// oracle of the concurrent solve.
    fn serial(
        ems: &EvolvingMatrixSequence,
        jobs: Vec<ClusterJob>,
        config: &SolverConfig,
    ) -> LuResult<LudemSolution> {
        let mut report = RunReport::new("serial");
        let mut decomposed = Vec::new();
        for (cluster, union, ordering) in jobs {
            decompose_cluster_universal(
                ems,
                &cluster,
                union,
                ordering,
                config,
                &mut report,
                &mut decomposed,
            )?;
        }
        Ok(LudemSolution { decomposed, report })
    }

    fn alpha_jobs(ems: &EvolvingMatrixSequence, alpha: f64) -> Vec<ClusterJob> {
        let (clustering, unions) = alpha_clustering_with_unions(ems, alpha).unwrap();
        let clusters = clustering.clusters().iter().cloned().zip(unions);
        clusters.map(|(c, union)| (c, union, None)).collect()
    }

    /// `got` and `want` hold the same clusters, orderings, factor sizes,
    /// member counts and, entry for entry, factor bits.
    fn assert_same_solution(got: &LudemSolution, want: &LudemSolution, what: &str) {
        let (g, w) = (&got.report, &want.report);
        assert_eq!(g.cluster_sizes, w.cluster_sizes, "{what}");
        assert_eq!(g.orderings, w.orderings, "{what}");
        assert_eq!(g.factor_nnz, w.factor_nnz, "{what}");
        assert_eq!(g.bennett, w.bennett, "{what}");
        assert_eq!(
            (g.bennett_members, g.numeric_members),
            (w.bennett_members, w.numeric_members),
            "{what}"
        );
        assert_eq!(got.decomposed.len(), want.decomposed.len(), "{what}");
        for (x, y) in got.decomposed.iter().zip(&want.decomposed) {
            assert_eq!((x.index, &x.ordering), (y.index, &y.ordering), "{what}");
            let (x_bits, y_bits) = (factor_bits(&x.factors), factor_bits(&y.factors));
            assert_eq!(x_bits, y_bits, "{what}: member {}", x.index);
        }
    }

    #[test]
    fn the_concurrent_solve_equals_the_serial_loop_in_both_modes() {
        for config in [SolverConfig::default(), FAITHFUL] {
            for seed in [11, 97] {
                let ems = egs_shape(seed);
                let got = Clude::new(0.98).solve(&ems, &config).unwrap();
                let want = serial(&ems, alpha_jobs(&ems, 0.98), &config).unwrap();
                assert!(
                    want.report.cluster_count() >= 4,
                    "{:?}",
                    want.report.cluster_sizes
                );
                assert!(want.report.cluster_sizes.iter().any(|&size| size > 1));
                assert_same_solution(&got, &want, &format!("CLUDE, seed {seed}, {config:?}"));
            }
        }
    }

    #[test]
    fn the_concurrent_qc_solve_equals_the_serial_loop_in_both_modes() {
        let ems = small_symmetric_ems(40, 14, 7);
        let beta = crate::qc::beta_clustering_clude(&ems, 0.05);
        let jobs = || -> Vec<ClusterJob> {
            let clusters = beta.clustering.clusters().iter().cloned();
            let orderings = beta.orderings.iter().cloned();
            let union = |c: &Cluster| crate::cluster::cluster_union_pattern(&ems, c);
            clusters
                .zip(orderings)
                .map(|(c, o)| (c.clone(), union(&c), Some(o)))
                .collect()
        };
        for config in [SolverConfig::default(), FAITHFUL] {
            let got = CludeQc::new(0.05).solve(&ems, &config).unwrap();
            let want = serial(&ems, jobs(), &config).unwrap();
            assert!(
                want.report.cluster_count() >= 4,
                "{:?}",
                want.report.cluster_sizes
            );
            assert!(want.report.cluster_sizes.iter().any(|&size| size > 1));
            assert_same_solution(&got, &want, &format!("CLUDE-QC, {config:?}"));
        }
    }

    #[test]
    fn of_two_failing_clusters_the_earlier_ones_error_is_returned() {
        // Four clusters of one pattern each (α = 1): [0, 2), [2, 4), [4, 7),
        // [7, 8).  The first members of the second and third hold a pivot
        // below the singular tolerance, each its own; the third cluster is
        // the largest, so it is taken first.
        let (early, late) = (1e-310, 2e-310);
        let ems = EvolvingMatrixSequence::new(vec![
            member(6, 4.0, &[(1, 2)]),
            member(6, 4.0, &[(1, 2)]),
            member(6, early, &[(2, 3)]),
            member(6, 4.0, &[(2, 3)]),
            member(6, late, &[(3, 4)]),
            member(6, 4.0, &[(3, 4)]),
            member(6, 4.0, &[(3, 4)]),
            member(6, 4.0, &[(4, 5)]),
        ])
        .unwrap();
        assert_eq!(alpha_jobs(&ems, 1.0).len(), 4);
        let pivot = |err: LuError| match err {
            LuError::SingularPivot { value, .. } => value,
            other => panic!("{other:?}"),
        };
        for config in [SolverConfig::default(), FAITHFUL] {
            let got = Clude::new(1.0).solve(&ems, &config).unwrap_err();
            let want = serial(&ems, alpha_jobs(&ems, 1.0), &config).unwrap_err();
            assert_eq!(got, want, "{config:?}");
            assert_eq!(pivot(got).to_bits(), early.to_bits(), "{config:?}");
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
