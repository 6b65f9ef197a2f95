//! Symbolic decomposition (the SD-phase of §2.3).
//!
//! Given the sparsity pattern of a square matrix, this module computes the
//! *fill-in pattern* `fp(A)` (Eq. 2 of the paper — the fill-path
//! characterisation of Rose & Tarjan) and the *symbolic sparsity pattern*
//! `s̃p(A) = sp(A) ∪ fp(A)` (Eq. 3).  `s̃p(A)` covers every position that can
//! become non-zero in the LU factors, so the data structures holding the
//! factors can be allocated before any numeric work.
//!
//! Eq. 2 reads as a symbolic Gaussian elimination: process pivots in order
//! and, for every pivot `k`, add `(i, j)` for each structurally non-zero
//! `(i, k)` below the pivot and `(k, j)` to its right.  The computation here
//! produces the same set row by row instead (the up-looking form of the same
//! elimination): the filled row `i` is row `i` of `A` merged with the
//! strictly-upper part of every finished row `k < i` that row `i` reaches,
//! taken in ascending `k` so that fill landing left of the diagonal is itself
//! eliminated.  A dense marker makes each merge a scan — no ordered-set
//! insertions — and the set-based reading of Eq. 2 stays in this module's
//! tests as the oracle.

use clude_sparse::SparsityPattern;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The result of a symbolic decomposition.
#[derive(Debug, Clone)]
pub struct SymbolicDecomposition {
    /// The symbolic sparsity pattern `s̃p(A)` (always includes the diagonal).
    pub pattern: SparsityPattern,
    /// Number of fill-ins, `|s̃p(A)| − |sp(A) ∪ diag|`.
    pub fill_ins: usize,
}

impl SymbolicDecomposition {
    /// Size of the symbolic sparsity pattern, `|s̃p(A)|`.
    pub fn size(&self) -> usize {
        self.pattern.nnz()
    }
}

/// Computes the symbolic sparsity pattern `s̃p(A)` of a square pattern.
///
/// The diagonal is always included: LU factorization requires every pivot
/// position to exist, and the matrices the paper derives from graphs
/// (`A = I − dW`, shifted Laplacians) always carry a structural diagonal.
///
/// # Panics
/// Panics if the pattern is not square.
pub fn symbolic_decomposition(sp: &SparsityPattern) -> SymbolicDecomposition {
    assert_eq!(
        sp.n_rows(),
        sp.n_cols(),
        "symbolic decomposition needs a square pattern"
    );
    let n = sp.n_rows();
    // Finished rows (sorted); `upper[k]` is where row k's strictly-upper part
    // starts.  `mark[j] == i` says column j is already in row i.
    let mut filled_rows: Vec<Vec<usize>> = Vec::with_capacity(n);
    let mut upper: Vec<usize> = Vec::with_capacity(n);
    let mut mark = vec![usize::MAX; n];
    // Columns left of the diagonal still to eliminate, smallest first.
    let mut lower: BinaryHeap<Reverse<usize>> = BinaryHeap::new();
    let mut base_nnz = 0usize;
    for i in 0..n {
        let mut row = Vec::with_capacity(sp.row(i).len() + 1);
        for j in std::iter::once(i).chain(sp.row(i).iter().copied()) {
            if mark[j] != i {
                mark[j] = i;
                row.push(j);
                if j < i {
                    lower.push(Reverse(j));
                }
            }
        }
        base_nnz += row.len();
        while let Some(Reverse(k)) = lower.pop() {
            for &j in &filled_rows[k][upper[k]..] {
                if mark[j] != i {
                    mark[j] = i;
                    row.push(j);
                    if j < i {
                        lower.push(Reverse(j));
                    }
                }
            }
        }
        row.sort_unstable();
        upper.push(row.partition_point(|&j| j <= i));
        filled_rows.push(row);
    }
    let pattern = SparsityPattern::from_sorted_rows(n, filled_rows);
    let fill_ins = pattern.nnz() - base_nnz;
    SymbolicDecomposition { pattern, fill_ins }
}

/// The fill-in pattern `fp(A)`: positions of `s̃p(A)` that are not in `sp(A)`
/// (and not on the diagonal, which we always treat as structural).
pub fn fill_in_pattern(sp: &SparsityPattern) -> SparsityPattern {
    let symbolic = symbolic_decomposition(sp);
    let n = sp.n_rows();
    let entries = symbolic
        .pattern
        .iter()
        .filter(|&(i, j)| !(sp.contains(i, j) || i == j));
    SparsityPattern::from_entries(n, n, entries).expect("indices come from a valid pattern")
}

/// `|s̃p(A)|` without keeping the pattern (convenience for quality metrics).
pub fn symbolic_size(sp: &SparsityPattern) -> usize {
    symbolic_decomposition(sp).size()
}

#[cfg(test)]
mod tests {
    use super::*;
    use clude_graph::generators::{
        dblp_like, patent_like, wiki_like, DblpLikeConfig, PatentLikeConfig, WikiLikeConfig,
    };
    use clude_graph::{measure_matrix, MatrixKind};
    use clude_sparse::SparsityPattern;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::BTreeSet;

    /// Eq. 2 as written: for every pivot `k` in order, the outer product of
    /// the rows below it with the columns right of it joins the pattern.
    fn closure_by_definition(sp: &SparsityPattern) -> SparsityPattern {
        let n = sp.n_rows();
        let mut rows: Vec<BTreeSet<usize>> = (0..n)
            .map(|i| sp.row(i).iter().copied().chain([i]).collect())
            .collect();
        let mut cols: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); n];
        for (i, row) in rows.iter().enumerate() {
            for &j in row {
                cols[j].insert(i);
            }
        }
        for k in 0..n {
            let below: Vec<usize> = cols[k].range(k + 1..).copied().collect();
            let right: Vec<usize> = rows[k].range(k + 1..).copied().collect();
            for &i in &below {
                for &j in &right {
                    if rows[i].insert(j) {
                        cols[j].insert(i);
                    }
                }
            }
        }
        let rows = rows.into_iter().map(|r| r.into_iter().collect()).collect();
        SparsityPattern::from_sorted_rows(n, rows)
    }

    #[test]
    fn row_merge_equals_the_set_definition_on_the_generators() {
        let kind = MatrixKind::RandomWalk { damping: 0.85 };
        for seed in [11u64, 12, 97] {
            let mut rng = StdRng::seed_from_u64(seed);
            let wiki = wiki_like::generate(&WikiLikeConfig::tiny(), &mut rng);
            let patent = patent_like::generate(&PatentLikeConfig::tiny(), &mut rng).egs;
            let dblp = dblp_like::generate(&DblpLikeConfig::tiny(), &mut rng);
            for egs in [wiki, patent, dblp] {
                for graph in [egs.snapshot(0), egs.snapshot(egs.len() - 1)] {
                    let natural = measure_matrix(&graph, kind).pattern();
                    let ordered = crate::ordering::reorder_pattern(
                        &natural,
                        &crate::ordering::markowitz_ordering(&natural).ordering,
                    );
                    for sp in [natural, ordered] {
                        let sd = symbolic_decomposition(&sp);
                        let oracle = closure_by_definition(&sp);
                        assert_eq!(sd.pattern, oracle, "seed {seed}");
                        let diag_missing = (0..sp.n_rows()).filter(|&i| !sp.contains(i, i));
                        assert_eq!(sd.fill_ins, oracle.nnz() - sp.nnz() - diag_missing.count());
                    }
                }
            }
        }
    }

    /// The arrow-head pattern: dense first row and column, diagonal elsewhere.
    /// Eliminating the first pivot fills the entire matrix.
    fn arrowhead(n: usize) -> SparsityPattern {
        let mut entries = Vec::new();
        for i in 0..n {
            entries.push((i, i));
            if i > 0 {
                entries.push((0, i));
                entries.push((i, 0));
            }
        }
        SparsityPattern::from_entries(n, n, entries).unwrap()
    }

    /// The same structure but with the hub last: no fill at all.
    fn reversed_arrowhead(n: usize) -> SparsityPattern {
        let mut entries = Vec::new();
        let hub = n - 1;
        for i in 0..n {
            entries.push((i, i));
            if i != hub {
                entries.push((hub, i));
                entries.push((i, hub));
            }
        }
        SparsityPattern::from_entries(n, n, entries).unwrap()
    }

    #[test]
    fn diagonal_pattern_has_no_fill() {
        let sp = SparsityPattern::identity(5);
        let sd = symbolic_decomposition(&sp);
        assert_eq!(sd.fill_ins, 0);
        assert_eq!(sd.size(), 5);
        assert!(fill_in_pattern(&sp).nnz() == 0);
    }

    #[test]
    fn arrowhead_fills_completely() {
        let n = 5;
        let sd = symbolic_decomposition(&arrowhead(n));
        assert_eq!(
            sd.size(),
            n * n,
            "bad ordering of an arrowhead fills everything"
        );
        // fill-ins = n^2 - (3n - 2)
        assert_eq!(sd.fill_ins, n * n - (3 * n - 2));
    }

    #[test]
    fn reversed_arrowhead_has_no_fill() {
        let n = 5;
        let sd = symbolic_decomposition(&reversed_arrowhead(n));
        assert_eq!(sd.fill_ins, 0);
        assert_eq!(sd.size(), 3 * n - 2);
    }

    #[test]
    fn fill_path_example_from_paper_definition() {
        // Path 0 -> 1 -> 2 with all diagonal entries: (2,0) and (0,2) are
        // *not* fill because the intermediate node (1) is larger than 0;
        // but eliminating node 0 of a pattern with (1,0) and (0,2) creates
        // (1,2).
        let sp = SparsityPattern::from_entries(3, 3, vec![(0, 0), (1, 1), (2, 2), (1, 0), (0, 2)])
            .unwrap();
        let fp = fill_in_pattern(&sp);
        assert!(fp.contains(1, 2));
        assert_eq!(fp.nnz(), 1);
    }

    #[test]
    fn symbolic_pattern_contains_original_and_diagonal() {
        let sp = SparsityPattern::from_entries(4, 4, vec![(0, 3), (3, 0), (1, 2)]).unwrap();
        let sd = symbolic_decomposition(&sp);
        for (i, j) in sp.iter() {
            assert!(sd.pattern.contains(i, j));
        }
        for i in 0..4 {
            assert!(sd.pattern.contains(i, i));
        }
    }

    #[test]
    fn monotonicity_lemma_1() {
        // Lemma 1: sp(Aa) ⊆ sp(Ab) implies s̃p(Aa) ⊆ s̃p(Ab).
        let small =
            SparsityPattern::from_entries(5, 5, vec![(0, 1), (1, 0), (2, 4), (4, 2), (1, 3)])
                .unwrap();
        let mut big = small.clone();
        big.insert(0, 4);
        big.insert(3, 2);
        let sd_small = symbolic_decomposition(&small);
        let sd_big = symbolic_decomposition(&big);
        assert!(sd_small.pattern.is_subset_of(&sd_big.pattern));
    }

    #[test]
    fn symbolic_size_matches_decomposition() {
        let sp = arrowhead(6);
        assert_eq!(symbolic_size(&sp), symbolic_decomposition(&sp).size());
    }

    #[test]
    #[should_panic(expected = "square")]
    fn rejects_rectangular_patterns() {
        symbolic_decomposition(&SparsityPattern::empty(2, 3));
    }
}
