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
//!
//! The elimination runs on flat lists: every node's row and column of the
//! filled matrix are `u32` runs in one arena, laid out from the pattern with
//! room to grow, and a run that outgrows its room moves to the arena's end.
//! The pivot comes from an indexed min-heap of packed `(cost, node)` keys, so
//! each pivot is one pop and each neighbour whose count moved is re-keyed in
//! place.  Eliminated nodes linger in a neighbour's run only until that run
//! is next walked.

use clude_sparse::{Ordering, Permutation, SparsityPattern};

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
/// from an indexed heap keyed by that pair: an elimination changes the
/// counts of the pivot's neighbours only, so only they are re-keyed, and a
/// pivot costs its neighbourhood rather than a scan of every candidate.
///
/// # Panics
/// Panics if the pattern is not square, or has more than `u32::MAX` rows.
pub fn markowitz_ordering(sp: &SparsityPattern) -> OrderingResult {
    assert_eq!(sp.n_rows(), sp.n_cols(), "ordering needs a square pattern");
    let n = sp.n_rows();
    assert!(u32::try_from(n).is_ok(), "ordering indexes nodes as u32");
    let mut lists = Lists::from_pattern(sp);
    // Active off-diagonal counts per row / column.  A run may be longer than
    // its count while it still names eliminated nodes.
    let mut row_count: Vec<u32> = (0..n).map(|v| lists.len(row(v))).collect();
    let mut col_count: Vec<u32> = (0..n).map(|v| lists.len(col(v))).collect();
    let cost = |r: u32, c: u32| u64::from(r) * u64::from(c);
    let mut heap = PivotHeap::new((0..n).map(|v| cost(row_count[v], col_count[v])));
    let mut active = vec![true; n];
    // `stamp[j] == epoch` while `j` is a member of the row being filled.
    let mut stamp = vec![0u32; n];
    let mut epoch = 0u32;
    let (mut row_v, mut col_v) = (Vec::new(), Vec::new());

    let mut order = Vec::with_capacity(n);
    let mut symbolic_size = 0usize;

    for _ in 0..n {
        let v = heap.pop();
        order.push(v);
        active[v] = false;
        let is_active = |j: &u32| active[*j as usize];
        row_v.clear();
        row_v.extend(lists.run(row(v)).iter().filter(|j| is_active(j)));
        col_v.clear();
        col_v.extend(lists.run(col(v)).iter().filter(|i| is_active(i)));

        // Contribution of this pivot to |s̃p(A^O)|: its U row, its L column
        // and the diagonal.
        symbolic_size += row_v.len() + col_v.len() + 1;

        // The pivot leaves the active submatrix: its neighbours lose one.
        for &j in &row_v {
            col_count[j as usize] -= 1;
        }

        // Elimination fill: every (i, j) with i in col(v), j in row(v).
        for &i in &col_v {
            let iu = i as usize;
            let fills_possible = match row_v[..] {
                [] => false,
                [j] => j != i,
                _ => true,
            };
            if !fills_possible {
                // `v` stays in row `i`'s run until the run is next walked.
                row_count[iu] -= 1;
                continue;
            }
            epoch = epoch.wrapping_add(1);
            if epoch == 0 {
                stamp.fill(0);
                epoch = 1;
            }
            lists.retain(row(iu), |j| {
                let keep = active[j as usize];
                if keep {
                    stamp[j as usize] = epoch;
                }
                keep
            });
            lists.reserve(row(iu), row_v.len());
            let mut filled = lists.len(row(iu));
            for &j in &row_v {
                if j != i && stamp[j as usize] != epoch {
                    lists.put(row(iu), filled, j);
                    filled += 1;
                    let ju = j as usize;
                    if lists.is_full(col(ju)) {
                        lists.retain(col(ju), |k| active[k as usize]);
                        lists.reserve(col(ju), 1);
                    }
                    lists.push(col(ju), i);
                    col_count[ju] += 1;
                }
            }
            lists.set_len(row(iu), filled);
            row_count[iu] = filled;
        }

        // Only the pivot's neighbours saw a count move.
        for &u in row_v.iter().chain(&col_v) {
            let u = u as usize;
            heap.rekey(u, cost(row_count[u], col_count[u]));
        }
    }

    let perm = Permutation::from_new_to_old(order).expect("each node eliminated exactly once");
    OrderingResult {
        ordering: Ordering::symmetric(perm),
        symbolic_size,
    }
}

/// The arena index of node `v`'s row run.
fn row(v: usize) -> usize {
    2 * v
}

/// The arena index of node `v`'s column run.
fn col(v: usize) -> usize {
    2 * v + 1
}

/// One run of the arena: `arena[start..start + len]`, with room up to
/// `start + cap`.
#[derive(Debug, Clone, Copy)]
struct Span {
    start: usize,
    len: u32,
    cap: u32,
}

/// The off-diagonal structure of the progressively filled matrix: node
/// `v`'s row (the columns of its entries) and column (the rows of its
/// entries) as runs of one `u32` arena.
#[derive(Debug)]
struct Lists {
    arena: Vec<u32>,
    spans: Vec<Span>,
}

impl Lists {
    /// Lays out every row and column of the pattern, diagonal left out, each
    /// with half its length again as room.
    fn from_pattern(sp: &SparsityPattern) -> Self {
        let n = sp.n_rows();
        let mut col_len = vec![0u32; n];
        for i in 0..n {
            for &j in sp.row(i) {
                if j != i {
                    col_len[j] += 1;
                }
            }
        }
        let room = |len: u32| len + len / 2 + 2;
        let mut spans = Vec::with_capacity(2 * n);
        let mut start = 0usize;
        for (v, &c) in col_len.iter().enumerate() {
            let r = (sp.row(v).len() - usize::from(sp.contains(v, v))) as u32;
            for len in [r, c] {
                spans.push(Span {
                    start,
                    len: 0,
                    cap: room(len),
                });
                start += room(len) as usize;
            }
        }
        let mut lists = Lists {
            arena: vec![0; start],
            spans,
        };
        for i in 0..n {
            for &j in sp.row(i) {
                if j != i {
                    lists.push(row(i), j as u32);
                    lists.push(col(j), i as u32);
                }
            }
        }
        lists
    }

    fn len(&self, l: usize) -> u32 {
        self.spans[l].len
    }

    fn is_full(&self, l: usize) -> bool {
        self.spans[l].len == self.spans[l].cap
    }

    fn run(&self, l: usize) -> &[u32] {
        let s = self.spans[l];
        &self.arena[s.start..s.start + s.len as usize]
    }

    /// Keeps the entries of run `l` that `keep` accepts, in place.
    fn retain(&mut self, l: usize, mut keep: impl FnMut(u32) -> bool) {
        let s = self.spans[l];
        let run = &mut self.arena[s.start..s.start + s.len as usize];
        let mut kept = 0;
        for k in 0..run.len() {
            let x = run[k];
            if keep(x) {
                run[kept] = x;
                kept += 1;
            }
        }
        self.spans[l].len = kept as u32;
    }

    /// Makes room in run `l` for `extra` more entries: a run without it
    /// grows in place when it ends the arena, and otherwise moves to the
    /// arena's end with twice the room it needs.
    fn reserve(&mut self, l: usize, extra: usize) {
        let s = self.spans[l];
        let need = s.len as usize + extra;
        if need <= s.cap as usize {
            return;
        }
        let cap = 2 * need;
        if s.start + s.cap as usize == self.arena.len() {
            self.arena.resize(s.start + cap, 0);
        } else {
            let start = self.arena.len();
            self.arena
                .extend_from_within(s.start..s.start + s.len as usize);
            self.arena.resize(start + cap, 0);
            self.spans[l].start = start;
        }
        self.spans[l].cap = u32::try_from(cap).expect("a run holds fewer than 2³¹ nodes");
    }

    /// Writes `x` at place `at` of run `l`'s room; [`Lists::set_len`]
    /// then takes it into the run.
    fn put(&mut self, l: usize, at: u32, x: u32) {
        let s = self.spans[l];
        debug_assert!(at < s.cap, "write past a run's room");
        self.arena[s.start + at as usize] = x;
    }

    fn set_len(&mut self, l: usize, len: u32) {
        self.spans[l].len = len;
    }

    /// Appends `x` to run `l`, which has room for it.
    fn push(&mut self, l: usize, x: u32) {
        let s = &mut self.spans[l];
        debug_assert!(s.len < s.cap, "push past a run's room");
        self.arena[s.start + s.len as usize] = x;
        s.len += 1;
    }
}

/// An indexed binary min-heap over the active nodes.  A node is held as one
/// packed key `cost << 32 | node`, so keys compare as `(cost, node)` for any
/// `u64` cost, and `pos[node]` is its place in the heap, where a re-key
/// sifts it.
#[derive(Debug)]
struct PivotHeap {
    keys: Vec<u128>,
    pos: Vec<u32>,
}

fn pack(cost: u64, v: usize) -> u128 {
    (u128::from(cost) << 32) | v as u128
}

fn node_of(key: u128) -> usize {
    (key & u128::from(u32::MAX)) as usize
}

impl PivotHeap {
    fn new(costs: impl Iterator<Item = u64>) -> Self {
        let keys: Vec<u128> = costs.enumerate().map(|(v, c)| pack(c, v)).collect();
        let pos = (0..keys.len() as u32).collect();
        let mut heap = PivotHeap { keys, pos };
        for at in (0..heap.keys.len() / 2).rev() {
            heap.sift_down(at);
        }
        heap
    }

    /// Removes and returns the node with the smallest `(cost, node)`.
    fn pop(&mut self) -> usize {
        let top = self.keys[0];
        let last = self.keys.pop().expect("every active node is queued");
        if !self.keys.is_empty() {
            self.keys[0] = last;
            self.sift_down(0);
        }
        node_of(top)
    }

    /// Gives active node `v` the cost `cost`.
    fn rekey(&mut self, v: usize, cost: u64) {
        let at = self.pos[v] as usize;
        let (old, new) = (self.keys[at], pack(cost, v));
        self.keys[at] = new;
        if new < old {
            self.sift_up(at);
        } else if new > old {
            self.sift_down(at);
        }
    }

    fn place(&mut self, at: usize, key: u128) {
        self.keys[at] = key;
        self.pos[node_of(key)] = at as u32;
    }

    fn sift_up(&mut self, mut at: usize) {
        let key = self.keys[at];
        while at > 0 {
            let parent = (at - 1) / 2;
            if self.keys[parent] <= key {
                break;
            }
            self.place(at, self.keys[parent]);
            at = parent;
        }
        self.place(at, key);
    }

    fn sift_down(&mut self, mut at: usize) {
        let key = self.keys[at];
        let len = self.keys.len();
        loop {
            let mut child = 2 * at + 1;
            if child >= len {
                break;
            }
            if child + 1 < len && self.keys[child + 1] < self.keys[child] {
                child += 1;
            }
            if self.keys[child] >= key {
                break;
            }
            self.place(at, self.keys[child]);
            at = child;
        }
        self.place(at, key);
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
    fn keyed_queue_keeps_the_pivot_order_when_a_cost_exceeds_u32() {
        // The hub's first cost, (n − 1)², does not fit 32 bits: a key that
        // truncated it would pick the hub among the first pivots.
        let n = 70_000;
        assert!((n - 1) * (n - 1) > u32::MAX as usize);
        let result = markowitz_ordering(&arrowhead(n));
        // Every leaf costs 1 and goes first, lowest index first; the hub
        // reaches cost 1 with one leaf left and wins the tie by index.
        let mut want: Vec<usize> = (1..n - 1).collect();
        want.extend([0, n - 1]);
        assert_eq!(result.ordering.row().as_new_to_old(), &want[..]);
        assert_eq!(result.symbolic_size, 3 * n - 2);
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
