//! α-clustering of an evolving matrix sequence (Algorithm 1).
//!
//! CLUDE's cluster-based algorithms group *consecutive* matrices of an EMS
//! into clusters so that one ordering (and, for CLUDE, one static structure)
//! can serve every matrix in a cluster.  A cluster `C` is summarised by the
//! bounding matrices `A_∩` and `A_∪` (Definition 7) and is *α-bounded* when
//! `mes(A_∩, A_∪) ≥ α` (Definition 8).  Because snapshots evolve gradually,
//! the paper partitions the sequence greedily from left to right; this module
//! implements that segmentation.

use crate::ems::EvolvingMatrixSequence;
use clude_lu::{LuError, LuResult};
use clude_sparse::pattern::count_intersection;
use clude_sparse::{CsrMatrix, SparsityPattern};
use std::ops::Range;

/// A contiguous cluster of matrix indices `[start, end)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cluster {
    /// Index of the first matrix of the cluster.
    pub start: usize,
    /// One past the index of the last matrix of the cluster.
    pub end: usize,
}

impl Cluster {
    /// The indices covered by this cluster.
    pub fn range(&self) -> Range<usize> {
        self.start..self.end
    }

    /// Number of matrices in the cluster.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Returns `true` for a degenerate empty cluster (never produced by the
    /// clustering routines).
    pub fn is_empty(&self) -> bool {
        self.start >= self.end
    }
}

/// A partition of an EMS into consecutive clusters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Clustering {
    clusters: Vec<Cluster>,
}

impl Clustering {
    /// Builds a clustering from explicit clusters (they must tile `0..T`).
    pub fn new(clusters: Vec<Cluster>) -> Self {
        debug_assert!(!clusters.is_empty());
        debug_assert!(clusters[0].start == 0);
        debug_assert!(clusters.windows(2).all(|w| w[0].end == w[1].start));
        Clustering { clusters }
    }

    /// The clusters, in sequence order.
    pub fn clusters(&self) -> &[Cluster] {
        &self.clusters
    }

    /// Number of clusters.
    pub fn len(&self) -> usize {
        self.clusters.len()
    }

    /// Always `false`: a clustering covers at least one matrix.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Sizes of all clusters.
    pub fn sizes(&self) -> Vec<usize> {
        self.clusters.iter().map(Cluster::len).collect()
    }

    /// Average cluster size.
    pub fn average_size(&self) -> f64 {
        let total: usize = self.sizes().iter().sum();
        total as f64 / self.clusters.len() as f64
    }
}

/// Replaces the sorted list `acc` by `acc ∪ row`, merging through `scratch`
/// (whose allocation is what `acc` held before); an equal row costs one
/// comparison.
fn unite_into(acc: &mut Vec<usize>, row: &[usize], scratch: &mut Vec<usize>) {
    if acc[..] == *row {
        return;
    }
    scratch.clear();
    let (mut ia, mut ib) = (0, 0);
    while ia < acc.len() && ib < row.len() {
        match acc[ia].cmp(&row[ib]) {
            std::cmp::Ordering::Less => {
                scratch.push(acc[ia]);
                ia += 1;
            }
            std::cmp::Ordering::Greater => {
                scratch.push(row[ib]);
                ib += 1;
            }
            std::cmp::Ordering::Equal => {
                scratch.push(acc[ia]);
                ia += 1;
                ib += 1;
            }
        }
    }
    scratch.extend_from_slice(&acc[ia..]);
    scratch.extend_from_slice(&row[ib..]);
    std::mem::swap(acc, scratch);
}

/// The sorted column lists of a matrix's rows.
fn rows_of(matrix: &CsrMatrix) -> Vec<Vec<usize>> {
    (0..matrix.n_rows())
        .map(|i| matrix.row(i).0.to_vec())
        .collect()
}

/// Definition 6 on a nested pair `A ⊆ B`, from the two sizes alone:
/// `mes = 2|A ∩ B| / (|A| + |B|)` with `|A ∩ B| = |A|`.
fn nested_mes(inner: usize, outer: usize) -> f64 {
    if inner + outer == 0 {
        return 1.0;
    }
    2.0 * inner as f64 / (inner + outer) as f64
}

/// Incrementally maintained cluster bounds `A_∩` / `A_∪` (patterns only).
///
/// The clustering algorithms repeatedly ask "would adding the next matrix
/// keep the cluster α-bounded?".  The bounds are per-row column lists that
/// live as long as the clustering pass: a candidate is judged by *counting*
/// `|A_∩ ∩ sp(A)|` and `|A_∪ ∪ sp(A)|` against its CSR rows, and only an
/// accepted candidate writes — to the rows where it differs from a bound.
#[derive(Debug, Clone)]
pub struct ClusterBounds {
    n_cols: usize,
    intersection: Vec<Vec<usize>>,
    union: Vec<Vec<usize>>,
    intersection_nnz: usize,
    union_nnz: usize,
    /// Rows in which the candidate being judged differs from a bound.
    differing: Vec<usize>,
    scratch: Vec<usize>,
}

impl ClusterBounds {
    /// Starts a cluster containing a single matrix.
    pub fn new(first: &CsrMatrix) -> Self {
        let rows = rows_of(first);
        ClusterBounds {
            n_cols: first.n_cols(),
            intersection: rows.clone(),
            union: rows,
            intersection_nnz: first.nnz(),
            union_nnz: first.nnz(),
            differing: Vec::new(),
            scratch: Vec::new(),
        }
    }

    /// Closes the current cluster, handing out the pattern of its `A_∪`, and
    /// starts the next one from `first`.
    pub fn restart(&mut self, first: &CsrMatrix) -> SparsityPattern {
        for (i, row) in self.intersection.iter_mut().enumerate() {
            row.clear();
            row.extend_from_slice(first.row(i).0);
        }
        self.intersection_nnz = first.nnz();
        self.union_nnz = first.nnz();
        let closed = std::mem::replace(&mut self.union, rows_of(first));
        SparsityPattern::from_sorted_rows(self.n_cols, closed)
    }

    /// The pattern of `A_∩`.
    pub fn intersection(&self) -> SparsityPattern {
        SparsityPattern::from_sorted_rows(self.n_cols, self.intersection.clone())
    }

    /// The pattern of `A_∪`.
    pub fn union(&self) -> SparsityPattern {
        SparsityPattern::from_sorted_rows(self.n_cols, self.union.clone())
    }

    /// Closes the last cluster: the pattern of its `A_∪`.
    pub fn into_union(self) -> SparsityPattern {
        SparsityPattern::from_sorted_rows(self.n_cols, self.union)
    }

    /// `mes(A_∩, A_∪)` — the compactness of the cluster.
    pub fn compactness(&self) -> f64 {
        nested_mes(self.intersection_nnz, self.union_nnz)
    }

    /// Adds `matrix` to the cluster if that keeps it α-bounded; otherwise
    /// leaves the bounds as they were and returns `false`.
    ///
    /// # Panics
    /// Panics when `matrix` has another shape than the cluster's members.
    pub fn try_absorb(&mut self, matrix: &CsrMatrix, alpha: f64) -> bool {
        assert_eq!(
            (matrix.n_rows(), matrix.n_cols()),
            (self.union.len(), self.n_cols),
            "matrices of a cluster share a shape"
        );
        // Count the bounds the cluster would have: `|A_∩ ∩ sp(A)|` and
        // `|A_∪ ∪ sp(A)|`, row by row.
        self.differing.clear();
        let (mut intersection_nnz, mut union_nnz) = (0, 0);
        for i in 0..self.union.len() {
            let row = matrix.row(i).0;
            let (kept, seen) = (&self.intersection[i], &self.union[i]);
            if kept[..] == *row && seen[..] == *row {
                intersection_nnz += row.len();
                union_nnz += row.len();
            } else {
                self.differing.push(i);
                intersection_nnz += count_intersection(kept, row);
                union_nnz += seen.len() + row.len() - count_intersection(seen, row);
            }
        }
        if nested_mes(intersection_nnz, union_nnz) < alpha {
            return false;
        }
        for &i in &self.differing {
            let row = matrix.row(i).0;
            let mut k = 0;
            self.intersection[i].retain(|&c| {
                while k < row.len() && row[k] < c {
                    k += 1;
                }
                k < row.len() && row[k] == c
            });
            unite_into(&mut self.union[i], row, &mut self.scratch);
        }
        self.intersection_nnz = intersection_nnz;
        self.union_nnz = union_nnz;
        true
    }
}

/// Algorithm 1: greedy α-clustering of the sequence.
///
/// An `alpha` that is NaN or outside `[0, 1]` is
/// [`LuError::InvalidParameter`].
pub fn alpha_clustering(ems: &EvolvingMatrixSequence, alpha: f64) -> LuResult<Clustering> {
    alpha_clustering_with_unions(ems, alpha).map(|(clustering, _)| clustering)
}

/// [`alpha_clustering`], also handing out the pattern of every cluster's
/// `A_∪` — the bound the pass maintained anyway, and the input of CLUDE's
/// universal symbolic sparsity pattern (Theorem 1).
pub fn alpha_clustering_with_unions(
    ems: &EvolvingMatrixSequence,
    alpha: f64,
) -> LuResult<(Clustering, Vec<SparsityPattern>)> {
    if !(0.0..=1.0).contains(&alpha) {
        return Err(LuError::InvalidParameter {
            name: "alpha",
            value: alpha,
        });
    }
    let mut clusters = Vec::new();
    let mut unions = Vec::new();
    let mut start = 0usize;
    let mut bounds = ClusterBounds::new(ems.matrix(0));
    for i in 1..ems.len() {
        if !bounds.try_absorb(ems.matrix(i), alpha) {
            clusters.push(Cluster { start, end: i });
            unions.push(bounds.restart(ems.matrix(i)));
            start = i;
        }
    }
    clusters.push(Cluster {
        start,
        end: ems.len(),
    });
    unions.push(bounds.into_union());
    Ok((Clustering::new(clusters), unions))
}

/// The union pattern `sp(A_∪)` of a cluster of matrices — the input of
/// CLUDE's universal symbolic sparsity pattern (Theorem 1).
pub fn cluster_union_pattern(ems: &EvolvingMatrixSequence, cluster: &Cluster) -> SparsityPattern {
    let mut rows = rows_of(ems.matrix(cluster.start));
    let mut scratch = Vec::new();
    for member in &ems.matrices()[cluster.start + 1..cluster.end] {
        for (i, acc) in rows.iter_mut().enumerate() {
            unite_into(acc, member.row(i).0, &mut scratch);
        }
    }
    SparsityPattern::from_sorted_rows(ems.order(), rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use clude_sparse::{CooMatrix, CsrMatrix};
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    /// The reference implementation [`ClusterBounds`] must agree with: the
    /// bounds as materialised patterns, a candidate's bounds built whole by
    /// `SparsityPattern::intersection` / `union` and judged by `mes`.
    #[derive(Debug, Clone)]
    struct PatternBounds {
        intersection: SparsityPattern,
        union: SparsityPattern,
    }

    impl PatternBounds {
        fn new(first: SparsityPattern) -> Self {
            PatternBounds {
                intersection: first.clone(),
                union: first,
            }
        }

        fn with(&self, pattern: &SparsityPattern) -> PatternBounds {
            PatternBounds {
                intersection: self.intersection.intersection(pattern).unwrap(),
                union: self.union.union(pattern).unwrap(),
            }
        }

        fn compactness(&self) -> f64 {
            self.intersection.mes(&self.union).unwrap()
        }
    }

    /// Algorithm 1 over [`PatternBounds`], with each cluster's union.
    fn alpha_clustering_by_patterns(
        ems: &EvolvingMatrixSequence,
        alpha: f64,
    ) -> (Clustering, Vec<SparsityPattern>) {
        let mut clusters = Vec::new();
        let mut unions = Vec::new();
        let mut start = 0usize;
        let mut bounds = PatternBounds::new(ems.pattern(0));
        for i in 1..ems.len() {
            let candidate = bounds.with(&ems.pattern(i));
            if candidate.compactness() >= alpha {
                bounds = candidate;
            } else {
                clusters.push(Cluster { start, end: i });
                unions.push(bounds.union);
                start = i;
                bounds = PatternBounds::new(ems.pattern(i));
            }
        }
        clusters.push(Cluster {
            start,
            end: ems.len(),
        });
        unions.push(bounds.union);
        (Clustering::new(clusters), unions)
    }

    /// Builds a sequence whose patterns drift: each matrix adds one new
    /// off-diagonal entry and keeps the previous ones.
    fn drifting_ems(t: usize, n: usize) -> EvolvingMatrixSequence {
        let mut matrices = Vec::new();
        let mut extra: Vec<(usize, usize)> = Vec::new();
        for step in 0..t {
            let mut coo = CooMatrix::new(n, n);
            for i in 0..n {
                coo.push(i, i, 3.0).unwrap();
            }
            extra.push(((step + 1) % n, (step * 2 + 3) % n));
            for &(i, j) in &extra {
                if i != j {
                    coo.push(i, j, -1.0).unwrap();
                }
            }
            matrices.push(CsrMatrix::from_coo(&coo));
        }
        EvolvingMatrixSequence::new(matrices).unwrap()
    }

    /// A random drifting sequence: a random base pattern (rows may be empty,
    /// the diagonal may be missing), then per step a few positions toggled —
    /// added when absent, removed when present.
    fn random_drift() -> impl Strategy<Value = EvolvingMatrixSequence> {
        (
            1usize..13,
            proptest::collection::vec((0usize..12, 0usize..12), 0..50),
            proptest::collection::vec(
                proptest::collection::vec((0usize..12, 0usize..12), 0..5),
                0..10,
            ),
        )
            .prop_map(|(n, base, steps)| {
                let mut entries: BTreeSet<(usize, usize)> =
                    base.into_iter().map(|(i, j)| (i % n, j % n)).collect();
                let matrix = |entries: &BTreeSet<(usize, usize)>| {
                    let mut coo = CooMatrix::new(n, n);
                    for &(i, j) in entries {
                        coo.push(i, j, 1.0 + (i + 2 * j) as f64).unwrap();
                    }
                    CsrMatrix::from_coo(&coo)
                };
                let mut matrices = vec![matrix(&entries)];
                for step in steps {
                    for (i, j) in step {
                        let at = (i % n, j % n);
                        if !entries.remove(&at) {
                            entries.insert(at);
                        }
                    }
                    matrices.push(matrix(&entries));
                }
                EvolvingMatrixSequence::new(matrices).unwrap()
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn counting_bounds_cluster_like_materialised_patterns(ems in random_drift()) {
            for alpha in [0.0, 0.5, 0.9, 0.95, 0.99, 1.0] {
                let (clustering, unions) = alpha_clustering_with_unions(&ems, alpha).unwrap();
                let (want, want_unions) = alpha_clustering_by_patterns(&ems, alpha);
                prop_assert_eq!(&clustering, &want);
                prop_assert_eq!(&alpha_clustering(&ems, alpha).unwrap(), &want);
                prop_assert_eq!(&unions, &want_unions);
                for (cluster, union) in clustering.clusters().iter().zip(&want_unions) {
                    prop_assert_eq!(&cluster_union_pattern(&ems, cluster), union);
                }
            }
        }

        #[test]
        fn counting_bounds_track_both_patterns_step_by_step(ems in random_drift()) {
            let mut bounds = ClusterBounds::new(ems.matrix(0));
            let mut want = PatternBounds::new(ems.pattern(0));
            for i in 1..ems.len() {
                // A rejected candidate leaves no trace ...
                let before = (bounds.intersection(), bounds.union());
                prop_assert!(!bounds.try_absorb(ems.matrix(i), 2.0));
                prop_assert_eq!(&(bounds.intersection(), bounds.union()), &before);
                // ... an accepted one moves both bounds.
                prop_assert!(bounds.try_absorb(ems.matrix(i), 0.0));
                want = want.with(&ems.pattern(i));
                prop_assert_eq!(&bounds.intersection(), &want.intersection);
                prop_assert_eq!(&bounds.union(), &want.union);
                prop_assert_eq!(bounds.compactness().to_bits(), want.compactness().to_bits());
            }
        }
    }

    #[test]
    fn alpha_one_makes_singleton_clusters_under_drift() {
        let ems = drifting_ems(6, 10);
        let clustering = alpha_clustering(&ems, 1.0).unwrap();
        // Every addition changes the pattern, so mes(A∩,A∪) < 1 as soon as a
        // second distinct matrix joins.
        assert_eq!(clustering.len(), 6);
        assert!(clustering.sizes().iter().all(|&s| s == 1));
        assert_eq!(clustering.average_size(), 1.0);
    }

    #[test]
    fn alpha_zero_yields_single_cluster() {
        let ems = drifting_ems(6, 10);
        let clustering = alpha_clustering(&ems, 0.0).unwrap();
        assert_eq!(clustering.len(), 1);
        assert_eq!(clustering.clusters()[0], Cluster { start: 0, end: 6 });
        assert!(!clustering.is_empty());
    }

    #[test]
    fn intermediate_alpha_produces_contiguous_tiling() {
        let ems = drifting_ems(12, 10);
        let clustering = alpha_clustering(&ems, 0.93).unwrap();
        let clusters = clustering.clusters();
        assert!(clusters.len() >= 2, "expected some segmentation");
        assert_eq!(clusters[0].start, 0);
        assert_eq!(clusters.last().unwrap().end, 12);
        for w in clusters.windows(2) {
            assert_eq!(w[0].end, w[1].start);
        }
        // Every cluster is alpha-bounded by construction.
        for c in clusters {
            let mut bounds = PatternBounds::new(ems.pattern(c.start));
            for i in c.start + 1..c.end {
                bounds = bounds.with(&ems.pattern(i));
            }
            assert!(bounds.compactness() >= 0.93);
        }
    }

    #[test]
    fn larger_alpha_never_produces_fewer_clusters() {
        let ems = drifting_ems(15, 12);
        let loose = alpha_clustering(&ems, 0.90).unwrap().len();
        let tight = alpha_clustering(&ems, 0.97).unwrap().len();
        assert!(tight >= loose);
    }

    #[test]
    fn cluster_union_pattern_covers_members() {
        let ems = drifting_ems(5, 8);
        let cluster = Cluster { start: 1, end: 4 };
        let union = cluster_union_pattern(&ems, &cluster);
        for i in cluster.range() {
            assert!(ems.pattern(i).is_subset_of(&union));
        }
        assert_eq!(cluster.len(), 3);
        assert!(!cluster.is_empty());
    }

    #[test]
    fn bounds_track_intersection_and_union() {
        let ems = drifting_ems(3, 6);
        let mut bounds = ClusterBounds::new(ems.matrix(0));
        assert!(bounds.try_absorb(ems.matrix(1), 0.0));
        assert!(bounds.try_absorb(ems.matrix(2), 0.0));
        assert!(bounds.intersection().is_subset_of(&bounds.union()));
        assert!(bounds.compactness() <= 1.0);
        assert!(bounds.compactness() > 0.0);
    }

    #[test]
    fn invalid_alpha_is_a_typed_error() {
        let ems = drifting_ems(2, 4);
        for alpha in [1.5, -0.1, f64::NAN, f64::INFINITY] {
            match alpha_clustering(&ems, alpha) {
                Err(LuError::InvalidParameter {
                    name: "alpha",
                    value,
                }) => {
                    assert!(value == alpha || (value.is_nan() && alpha.is_nan()));
                }
                other => panic!("alpha {alpha}: expected InvalidParameter, got {other:?}"),
            }
        }
    }
}
