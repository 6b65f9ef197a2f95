//! Fill-reducing orderings.
//!
//! The paper uses the Markowitz criterion \[20\] as its reference ordering: at
//! every elimination step, pick the pivot minimising `(r − 1)(c − 1)`, where
//! `r` and `c` are the pivot row's and column's non-zero counts in the active
//! submatrix.
//!
//! This implementation restricts pivots to the *diagonal* of the active
//! submatrix, i.e. it produces a symmetric ordering `P A Pᵀ` (Tinney scheme
//! 2).  Two reasons, documented in DESIGN.md:
//!
//! 1. The matrices the paper derives from graphs (`A = I − dW`, shifted
//!    Laplacians) are column diagonally dominant; a symmetric permutation
//!    preserves that dominance, so the subsequent LU factorization (and the
//!    Bennett updates) are numerically safe *without* pivoting — which is
//!    what the paper's pipeline assumes.
//! 2. For symmetric matrices the criterion degenerates to minimum degree,
//!    exactly the "fast Markowitz for symmetric matrices" the paper's
//!    LUDEM-QC section relies on; the same code therefore serves both the
//!    general and the symmetric case.
//!
//! The routine also returns `|s̃p(A^O)|` — the size of the symbolic pattern
//! that the chosen ordering induces — because both the quality-loss metric
//! (Definition 4) and β-clustering need that number and it falls out of the
//! elimination for free.

use clude_sparse::{Ordering, Permutation, SparsityPattern};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A fill-reducing ordering together with the symbolic-pattern size it
/// induces on the matrix it was computed from.
#[derive(Debug, Clone)]
pub struct OrderingResult {
    /// The ordering `O = (P, Q)` (symmetric: `Q = Pᵀ` in matrix terms).
    pub ordering: Ordering,
    /// `|s̃p(A^O)|`: the number of non-zeros (original + fill) the LU factors
    /// of the reordered matrix will hold.
    pub symbolic_size: usize,
}

/// Computes the Markowitz (diagonal-pivot) ordering of a square pattern.
///
/// Every step eliminates the active node with the lexicographically smallest
/// `(r·c, index)`, `r` and `c` being its off-diagonal row and column counts
/// in the active submatrix — ties go to the lowest index.  The minimum comes
/// from a heap keyed by that pair: an elimination changes the counts of the
/// pivot's neighbours only, so only they are re-keyed (a superseded key stays
/// in the heap and is skipped when it surfaces), and a pivot costs its
/// neighbourhood rather than a scan of every candidate.
///
/// # Panics
/// Panics if the pattern is not square.
pub fn markowitz_ordering(sp: &SparsityPattern) -> OrderingResult {
    assert_eq!(sp.n_rows(), sp.n_cols(), "ordering needs a square pattern");
    let n = sp.n_rows();
    // Off-diagonal structure of the progressively filled matrix.  A list may
    // still name eliminated nodes; they are dropped when it is next walked.
    let mut rows: Vec<Vec<usize>> = (0..n)
        .map(|i| sp.row(i).iter().copied().filter(|&j| j != i).collect())
        .collect();
    let mut cols: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, row) in rows.iter().enumerate() {
        for &j in row {
            cols[j].push(i);
        }
    }
    let mut active = vec![true; n];
    // Active off-diagonal counts per row / column.
    let mut row_count: Vec<usize> = rows.iter().map(Vec::len).collect();
    let mut col_count: Vec<usize> = cols.iter().map(Vec::len).collect();
    // `key[v]` is the Markowitz cost `v` is currently queued under.
    let mut key: Vec<usize> = (0..n).map(|v| row_count[v] * col_count[v]).collect();
    let mut queue: BinaryHeap<Reverse<(usize, usize)>> = key
        .iter()
        .enumerate()
        .map(|(v, &k)| Reverse((k, v)))
        .collect();
    // `stamp[j] == epoch` while `j` is a member of the row being filled.
    let mut stamp = vec![0usize; n];
    let mut epoch = 0usize;

    let mut order = Vec::with_capacity(n);
    let mut symbolic_size = 0usize;

    for _ in 0..n {
        // The active diagonal pivot with the minimal Markowitz cost, lowest
        // index first among equals.
        let v = loop {
            let Reverse((cost, v)) = queue.pop().expect("every active node is queued");
            if active[v] && cost == key[v] {
                break v;
            }
        };

        // Contribution of this pivot to |s̃p(A^O)|: its U row, its L column
        // and the diagonal.
        symbolic_size += row_count[v] + col_count[v] + 1;
        order.push(v);
        active[v] = false;

        let mut row_v = std::mem::take(&mut rows[v]);
        let mut col_v = std::mem::take(&mut cols[v]);
        row_v.retain(|&j| active[j]);
        col_v.retain(|&i| active[i]);

        // The pivot leaves the active submatrix: its neighbours lose one.
        for &j in &row_v {
            col_count[j] -= 1;
        }
        for &i in &col_v {
            row_count[i] -= 1;
        }

        // Elimination fill: every (i, j) with i in col(v), j in row(v).
        for &i in &col_v {
            epoch += 1;
            rows[i].retain(|&j| {
                stamp[j] = epoch;
                active[j]
            });
            for &j in &row_v {
                if i != j && stamp[j] != epoch {
                    rows[i].push(j);
                    cols[j].push(i);
                    row_count[i] += 1;
                    col_count[j] += 1;
                }
            }
        }

        // Only the pivot's neighbours saw a count move.
        for &u in row_v.iter().chain(&col_v) {
            let cost = row_count[u] * col_count[u];
            if cost != key[u] {
                key[u] = cost;
                queue.push(Reverse((cost, u)));
            }
        }
    }

    let perm = Permutation::from_new_to_old(order).expect("each node eliminated exactly once");
    OrderingResult {
        ordering: Ordering::symmetric(perm),
        symbolic_size,
    }
}

/// The symbolic-pattern size induced by the *identity* ordering (no
/// reordering), i.e. `|s̃p(A)|`.  Used to express how much a fill-reducing
/// ordering saves.
pub fn natural_order_symbolic_size(sp: &SparsityPattern) -> usize {
    crate::symbolic::symbolic_size(sp)
}

/// The symbolic-pattern size induced by an arbitrary given ordering, i.e.
/// `|s̃p(A^O)|`.  This is what Definition 4's quality-loss compares against
/// the Markowitz reference.
pub fn symbolic_size_under(sp: &SparsityPattern, ordering: &Ordering) -> usize {
    let reordered = reorder_pattern(sp, ordering);
    crate::symbolic::symbolic_size(&reordered)
}

/// Reorders a pattern by an ordering: position `(i, j)` of the result is
/// position `(P(i), Q(j))` of the input.
pub fn reorder_pattern(sp: &SparsityPattern, ordering: &Ordering) -> SparsityPattern {
    let n = sp.n_rows();
    assert_eq!(ordering.row().len(), n, "ordering length mismatch");
    assert_eq!(
        ordering.col().len(),
        sp.n_cols(),
        "ordering length mismatch"
    );
    let col_old_to_new = ordering.col().old_to_new();
    let mut rows: Vec<Vec<usize>> = Vec::with_capacity(n);
    for new_i in 0..n {
        let old_i = ordering.row().new_to_old(new_i);
        let mut cols: Vec<usize> = sp.row(old_i).iter().map(|&j| col_old_to_new[j]).collect();
        cols.sort_unstable();
        rows.push(cols);
    }
    SparsityPattern::from_sorted_rows(sp.n_cols(), rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbolic::symbolic_decomposition;
    use clude_graph::generators::{dblp_like, patent_like, wiki_like};
    use clude_graph::generators::{DblpLikeConfig, PatentLikeConfig, WikiLikeConfig};
    use clude_graph::{DiGraph, MatrixKind};
    use clude_sparse::SparsityPattern;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::BTreeSet;

    /// The reference implementation [`markowitz_ordering`] must reproduce
    /// pivot for pivot: a linear scan for the first minimum of `r·c` over
    /// every active node, on `BTreeSet` rows.
    fn markowitz_by_scan(sp: &SparsityPattern) -> OrderingResult {
        let n = sp.n_rows();
        let mut rows: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); n];
        let mut cols: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); n];
        for (i, j) in sp.iter() {
            if i != j {
                rows[i].insert(j);
                cols[j].insert(i);
            }
        }
        let mut active = vec![true; n];
        let mut row_count: Vec<usize> = rows.iter().map(BTreeSet::len).collect();
        let mut col_count: Vec<usize> = cols.iter().map(BTreeSet::len).collect();
        let mut order = Vec::with_capacity(n);
        let mut symbolic_size = 0usize;
        for _ in 0..n {
            let mut best: Option<(usize, usize)> = None; // (cost, node)
            for v in 0..n {
                if !active[v] {
                    continue;
                }
                let cost = row_count[v] * col_count[v];
                match best {
                    Some((c, _)) if c <= cost => {}
                    _ => best = Some((cost, v)),
                }
            }
            let (_, v) = best.expect("there is always an active node left");
            symbolic_size += row_count[v] + col_count[v] + 1;
            order.push(v);
            active[v] = false;
            let row_v: Vec<usize> = rows[v].iter().copied().filter(|&j| active[j]).collect();
            let col_v: Vec<usize> = cols[v].iter().copied().filter(|&i| active[i]).collect();
            for &j in &row_v {
                col_count[j] -= 1;
            }
            for &i in &col_v {
                row_count[i] -= 1;
            }
            for &i in &col_v {
                for &j in &row_v {
                    if i != j && rows[i].insert(j) {
                        cols[j].insert(i);
                        row_count[i] += 1;
                        col_count[j] += 1;
                    }
                }
            }
        }
        let perm = Permutation::from_new_to_old(order).expect("each node eliminated once");
        OrderingResult {
            ordering: Ordering::symmetric(perm),
            symbolic_size,
        }
    }

    fn assert_same_as_scan(sp: &SparsityPattern) {
        let got = markowitz_ordering(sp);
        let want = markowitz_by_scan(sp);
        assert_eq!(got.ordering, want.ordering);
        assert_eq!(got.symbolic_size, want.symbolic_size);
    }

    /// Random square patterns of order ≤ 60 with the shapes that stress the
    /// tie-break and the fill bookkeeping: rows left empty, diagonals
    /// missing, one dense row, or an all-ties ring under the random entries.
    fn square_pattern() -> impl Strategy<Value = SparsityPattern> {
        (
            1usize..61,
            proptest::collection::vec((0usize..60, 0usize..60), 0..240),
            0usize..4,
            0usize..60,
        )
            .prop_map(|(n, raw, shape, pick)| {
                let mut entries: Vec<(usize, usize)> =
                    raw.into_iter().map(|(i, j)| (i % n, j % n)).collect();
                match shape {
                    // Full diagonal.
                    0 => entries.extend((0..n).map(|i| (i, i))),
                    // Nothing added: empty rows and missing diagonals stay.
                    1 => {}
                    // One dense row.
                    2 => entries.extend((0..n).map(|j| (pick % n, j))),
                    // A ring: every node starts with the same cost.
                    _ => entries.extend((0..n).flat_map(|i| [(i, i), (i, (i + 1) % n)])),
                }
                SparsityPattern::from_entries(n, n, entries).unwrap()
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn keyed_queue_picks_the_scan_s_pivots(sp in square_pattern()) {
            let got = markowitz_ordering(&sp);
            let want = markowitz_by_scan(&sp);
            prop_assert_eq!(got.ordering, want.ordering);
            prop_assert_eq!(got.symbolic_size, want.symbolic_size);
        }
    }

    #[test]
    fn keyed_queue_matches_the_scan_on_an_all_ties_ring_and_the_empty_pattern() {
        let ring = SparsityPattern::from_entries(7, 7, (0..7).map(|i| (i, (i + 1) % 7))).unwrap();
        assert_same_as_scan(&ring);
        assert_eq!(
            markowitz_ordering(&ring).ordering.row().as_new_to_old()[0],
            0,
            "ties go to the lowest index"
        );
        assert_same_as_scan(&SparsityPattern::empty(5, 5));
        assert_same_as_scan(&SparsityPattern::empty(0, 0));
    }

    #[test]
    fn keyed_queue_matches_the_scan_on_the_dataset_generators() {
        let kind = MatrixKind::RandomWalk { damping: 0.85 };
        let pattern = |g: &DiGraph| clude_graph::measure_matrix(g, kind).pattern();
        let wiki = wiki_like::generate(&WikiLikeConfig::default(), &mut StdRng::seed_from_u64(11));
        let dblp = dblp_like::generate(&DblpLikeConfig::default(), &mut StdRng::seed_from_u64(12));
        let patent =
            patent_like::generate(&PatentLikeConfig::default(), &mut StdRng::seed_from_u64(13));
        for egs in [&wiki, &patent.egs] {
            assert_same_as_scan(&pattern(&egs.snapshot(0)));
            assert_same_as_scan(&pattern(&egs.snapshot(egs.len() - 1)));
        }
        // The co-authorship cliques fill heavily (170 k factor entries at
        // order 1,500) and the scan takes seconds on the first snapshot
        // already, so only that one is checked.
        assert_same_as_scan(&pattern(&dblp.snapshot(0)));
    }

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

    #[test]
    fn markowitz_avoids_arrowhead_fill() {
        let n = 8;
        let sp = arrowhead(n);
        // Natural order fills everything...
        assert_eq!(natural_order_symbolic_size(&sp), n * n);
        // ...Markowitz defers the hub to the end and produces no fill.
        let result = markowitz_ordering(&sp);
        assert_eq!(result.symbolic_size, 3 * n - 2);
        // The hub (node 0) must be deferred to the very end (ties may let a
        // final leaf swap with it, so allow the last two positions).
        let hub_position = result.ordering.row().old_to_new()[0];
        assert!(
            hub_position >= n - 2,
            "hub eliminated too early: {hub_position}"
        );
    }

    #[test]
    fn reported_size_matches_symbolic_decomposition_of_reordered_pattern() {
        let sp = SparsityPattern::from_entries(
            6,
            6,
            vec![
                (0, 0),
                (1, 1),
                (2, 2),
                (3, 3),
                (4, 4),
                (5, 5),
                (0, 3),
                (3, 0),
                (1, 4),
                (4, 1),
                (2, 3),
                (3, 2),
                (0, 5),
                (5, 0),
                (4, 5),
                (5, 4),
            ],
        )
        .unwrap();
        let result = markowitz_ordering(&sp);
        let reordered = reorder_pattern(&sp, &result.ordering);
        let direct = symbolic_decomposition(&reordered);
        assert_eq!(result.symbolic_size, direct.size());
    }

    #[test]
    fn markowitz_never_worse_than_reported_by_symbolic_size_under() {
        let sp = arrowhead(6);
        let result = markowitz_ordering(&sp);
        assert_eq!(
            symbolic_size_under(&sp, &result.ordering),
            result.symbolic_size
        );
    }

    #[test]
    fn identity_ordering_keeps_pattern() {
        let sp = arrowhead(4);
        let id = Ordering::identity(4);
        let reordered = reorder_pattern(&sp, &id);
        assert_eq!(reordered, sp);
        assert_eq!(
            symbolic_size_under(&sp, &id),
            natural_order_symbolic_size(&sp)
        );
    }

    #[test]
    fn ordering_is_symmetric_permutation() {
        let sp = arrowhead(5);
        let result = markowitz_ordering(&sp);
        assert!(result.ordering.is_symmetric());
    }

    #[test]
    fn diagonal_only_pattern_gets_identity_cost() {
        let sp = SparsityPattern::identity(4);
        let result = markowitz_ordering(&sp);
        assert_eq!(result.symbolic_size, 4);
    }

    #[test]
    fn reorder_pattern_moves_entries() {
        let sp = SparsityPattern::from_entries(3, 3, vec![(0, 0), (1, 1), (2, 2), (0, 2)]).unwrap();
        let perm = clude_sparse::Permutation::from_new_to_old(vec![2, 1, 0]).unwrap();
        let o = Ordering::symmetric(perm);
        let r = reorder_pattern(&sp, &o);
        // (0,2) old becomes (new of 0 = 2, new of 2 = 0) = (2,0).
        assert!(r.contains(2, 0));
        assert!(!r.contains(0, 2));
        assert_eq!(r.nnz(), sp.nnz());
    }

    #[test]
    #[should_panic(expected = "square")]
    fn rejects_rectangular() {
        markowitz_ordering(&SparsityPattern::empty(2, 3));
    }
}
