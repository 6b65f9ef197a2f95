//! Dynamic adjacency-list sparse matrices (paper Figure 4).
//!
//! The paper stores a matrix and its LU factors as adjacency lists: one list
//! of `(column, value)` nodes per row and one list of `(row, value)` nodes per
//! column.  When an incremental algorithm (Bennett) creates a fill-in that is
//! not yet present, the lists must be *structurally* modified, and the paper
//! reports that roughly 70 % of the incremental algorithm's time goes into
//! such structural maintenance.  [`AdjacencyMatrix`] reproduces this data
//! structure and counts every structural operation so the reproduction can
//! report the same cost breakdown.
//!
//! The layout is indexed for the Bennett hot path: each row keeps its column
//! indices and values in two parallel sorted arrays, and each column keeps a
//! sorted array of row indices with an O(1) fast path for appends at the
//! tail.  Bennett's sweep does not look entries up by coordinate: it walks a
//! row ([`AdjacencyMatrix::update_row_from`]) or a column
//! ([`AdjacencyMatrix::update_col_after`]) with a cursor, merged against the
//! sweep's own sorted support, and a fill-in is spliced in at the cursor.

use crate::csr::CsrMatrix;
use crate::pattern::SparsityPattern;

/// Counters describing how much structural work a dynamic matrix has done.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StructuralStats {
    /// Number of list nodes inserted (new structural non-zeros).
    pub inserts: usize,
    /// Number of list nodes removed.
    pub removals: usize,
    /// Number of list traversal steps performed while searching positions
    /// on the mutating paths (reads through `&self` are not billed).
    pub probes: usize,
}

impl StructuralStats {
    /// Total number of structural list modifications.
    pub fn modifications(&self) -> usize {
        self.inserts + self.removals
    }
}

/// The traversal cost of one binary search over a sorted list of `len`
/// entries: the number of elements examined, `⌊log₂ len⌋ + 1` (an empty list
/// still costs one step — the probe that finds it empty).
#[inline]
fn search_steps(len: usize) -> usize {
    (usize::BITS - len.max(1).leading_zeros()) as usize
}

/// One step of Bennett's ascending merge of a stored index list with the
/// sweep's sorted support: given the stored list's head (`None` when
/// exhausted) and the support cursor `s`, returns the smaller index and
/// whether the stored list holds it, consuming it from the support if it is
/// there — or `None` when both lists are exhausted.  Every storage walk
/// (dynamic rows and columns here, static slots in `clude-lu`) steps through
/// this, so "merged with the support" means one thing.
#[inline]
pub fn merge_step(
    stored: Option<usize>,
    support: &[usize],
    s: &mut usize,
) -> Option<(usize, bool)> {
    let stored = stored.unwrap_or(usize::MAX);
    let wanted = support.get(*s).copied().unwrap_or(usize::MAX);
    let index = stored.min(wanted);
    if index == usize::MAX {
        return None;
    }
    if wanted == index {
        *s += 1;
    }
    Some((index, stored == index))
}

/// A mutable sparse matrix stored as row-wise and column-wise adjacency lists.
#[derive(Debug, Clone)]
pub struct AdjacencyMatrix {
    n_rows: usize,
    n_cols: usize,
    /// Per row: sorted column indices, parallel to `row_vals`.
    row_cols: Vec<Vec<usize>>,
    /// Per row: the values at `row_cols`' positions.
    row_vals: Vec<Vec<f64>>,
    /// Per column: sorted list of row indices (structure only; values live in
    /// the row arrays).  Kept so column scans, as required by Crout's method
    /// and by Markowitz counts, do not need a full matrix sweep.
    cols: Vec<Vec<usize>>,
    /// The structural counters only move through `&mut self`: the paper's
    /// cost model bills list *maintenance* — the searches and splices of
    /// `set` / `add_to` / `remove` and of the cursor walks — and no `&self`
    /// lookup is billed (the engine publishes frozen `LuFactors`, so the only
    /// `&self` lookups left are `get` / `contains` behind the ingest thread's
    /// delta classification and test accessors).  Hence plain counters.
    inserts: usize,
    removals: usize,
    probes: usize,
}

impl AdjacencyMatrix {
    /// Creates an empty dynamic matrix.
    pub fn zeros(n_rows: usize, n_cols: usize) -> Self {
        AdjacencyMatrix {
            n_rows,
            n_cols,
            row_cols: vec![Vec::new(); n_rows],
            row_vals: vec![Vec::new(); n_rows],
            cols: vec![Vec::new(); n_cols],
            inserts: 0,
            removals: 0,
            probes: 0,
        }
    }

    /// Builds a dynamic matrix from a CSR matrix.
    pub fn from_csr(csr: &CsrMatrix) -> Self {
        let mut m = AdjacencyMatrix::zeros(csr.n_rows(), csr.n_cols());
        for (i, j, v) in csr.iter() {
            m.row_cols[i].push(j);
            m.row_vals[i].push(v);
            m.cols[j].push(i);
        }
        // CSR iteration is row-major sorted, so rows are sorted; columns were
        // pushed with increasing row index, so they are sorted too.
        m
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of columns.
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.row_cols.iter().map(Vec::len).sum()
    }

    /// Structural operation counters accumulated so far.
    pub fn stats(&self) -> StructuralStats {
        StructuralStats {
            inserts: self.inserts,
            removals: self.removals,
            probes: self.probes,
        }
    }

    /// Resets the structural counters.
    pub fn reset_stats(&mut self) {
        self.inserts = 0;
        self.removals = 0;
        self.probes = 0;
    }

    /// Binary-searches row `i` for column `j`, accounting the search steps:
    /// `Ok(pos)` when present, `Err(pos)` with the insert position when not.
    #[inline]
    pub fn locate(&mut self, i: usize, j: usize) -> Result<usize, usize> {
        let row = &self.row_cols[i];
        self.probes += search_steps(row.len());
        row.binary_search(&j)
    }

    /// Inserts `i` into the sorted row list of column `j`, with an O(1) fast
    /// path for appends past the current tail (the common case when fill-ins
    /// arrive in ascending row order).
    fn col_index_insert(&mut self, i: usize, j: usize) {
        let steps = match self.cols[j].last() {
            Some(&last) if last >= i => {
                let col = &mut self.cols[j];
                let steps = search_steps(col.len());
                let pos = col.binary_search(&i).unwrap_err();
                col.insert(pos, i);
                steps
            }
            _ => {
                self.cols[j].push(i);
                1
            }
        };
        self.probes += steps;
    }

    /// Inserts `(i, j) = value` at row position `pos` (from a failed row
    /// search), maintaining the column index and the insert counter.
    fn insert_at(&mut self, i: usize, j: usize, pos: usize, value: f64) {
        self.inserts += 1;
        self.row_cols[i].insert(pos, j);
        self.row_vals[i].insert(pos, value);
        self.col_index_insert(i, j);
    }

    /// Reads the value at `(i, j)`; absent positions read as `0.0`.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        match self.row_cols[i].binary_search(&j) {
            Ok(pos) => self.row_vals[i][pos],
            Err(_) => 0.0,
        }
    }

    /// Returns `true` when `(i, j)` is structurally present.
    pub fn contains(&self, i: usize, j: usize) -> bool {
        self.row_cols[i].binary_search(&j).is_ok()
    }

    /// Sets `(i, j)` to `value`, inserting a node if the position is absent.
    /// Returns `true` when a structural insert happened.
    pub fn set(&mut self, i: usize, j: usize, value: f64) -> bool {
        assert!(i < self.n_rows && j < self.n_cols, "index out of bounds");
        match self.locate(i, j) {
            Ok(pos) => {
                self.row_vals[i][pos] = value;
                false
            }
            Err(pos) => {
                self.insert_at(i, j, pos, value);
                true
            }
        }
    }

    /// Rewrites row `i` from list position `start` on — Bennett's "row `k` of
    /// `U`" when `start` is one past the diagonal.  Visits, in ascending
    /// column order, every stored entry at or after `start` together with
    /// every column of `support` (sorted, all greater than the column before
    /// `start`), calls `f(column, old)` with `old = 0.0` for an absent
    /// position, and stores the result where it differs from `old`.  The
    /// cursor needs no search: a fill-in (a non-zero result on an absent
    /// position) is spliced in where the cursor stands; an exact zero on an
    /// absent position inserts nothing, so the lists only grow for genuine
    /// fill-ins, while a zero on a present position keeps its node.
    pub fn update_row_from(
        &mut self,
        i: usize,
        start: usize,
        support: &[usize],
        mut f: impl FnMut(usize, f64) -> f64,
    ) {
        let (mut pos, mut s) = (start, 0);
        while let Some((j, present)) =
            merge_step(self.row_cols[i].get(pos).copied(), support, &mut s)
        {
            if present {
                let old = self.row_vals[i][pos];
                let new = f(j, old);
                if new != old {
                    self.row_vals[i][pos] = new;
                }
            } else {
                let new = f(j, 0.0);
                if new == 0.0 {
                    continue;
                }
                assert!(j < self.n_cols, "index out of bounds");
                self.insert_at(i, j, pos, new);
            }
            pos += 1;
        }
    }

    /// Rewrites column `j` below row `after` — Bennett's "column `k` of `L`"
    /// when `after == j`.  Same visiting order and write rule as
    /// [`AdjacencyMatrix::update_row_from`], over the column's row list
    /// merged with `support` (sorted rows, all `> after`).  Values live in
    /// the row arrays, so a stored entry costs **one** search of its row,
    /// serving both the read and the write; a row that only `support` names
    /// is absent from the column by the lists' own invariant, reads as zero
    /// without a search, and is searched only when a fill-in has to be
    /// spliced into it (the column list takes the row at the cursor).
    pub fn update_col_after(
        &mut self,
        j: usize,
        after: usize,
        support: &[usize],
        mut f: impl FnMut(usize, f64) -> f64,
    ) {
        self.probes += search_steps(self.cols[j].len());
        let mut cpos = self.cols[j].partition_point(|&r| r <= after);
        let mut s = 0;
        while let Some((i, present)) = merge_step(self.cols[j].get(cpos).copied(), support, &mut s)
        {
            if present {
                if let Ok(pos) = self.locate(i, j) {
                    let old = self.row_vals[i][pos];
                    let new = f(i, old);
                    if new != old {
                        self.row_vals[i][pos] = new;
                    }
                }
            } else {
                let new = f(i, 0.0);
                if new == 0.0 {
                    continue;
                }
                assert!(i < self.n_rows, "index out of bounds");
                if let Err(pos) = self.locate(i, j) {
                    self.inserts += 1;
                    self.row_cols[i].insert(pos, j);
                    self.row_vals[i].insert(pos, new);
                    self.cols[j].insert(cpos, i);
                }
            }
            cpos += 1;
        }
    }

    /// Adds `delta` to `(i, j)` with a single search, inserting the position
    /// when absent.
    pub fn add_to(&mut self, i: usize, j: usize, delta: f64) {
        assert!(i < self.n_rows && j < self.n_cols, "index out of bounds");
        match self.locate(i, j) {
            Ok(pos) => {
                self.row_vals[i][pos] += delta;
            }
            Err(pos) => {
                self.insert_at(i, j, pos, delta);
            }
        }
    }

    /// Structurally removes `(i, j)`; returns `true` when something was
    /// removed.
    pub fn remove(&mut self, i: usize, j: usize) -> bool {
        match self.locate(i, j) {
            Ok(pos) => {
                self.row_cols[i].remove(pos);
                self.row_vals[i].remove(pos);
                self.probes += search_steps(self.cols[j].len());
                if let Ok(cpos) = self.cols[j].binary_search(&i) {
                    self.cols[j].remove(cpos);
                }
                self.removals += 1;
                true
            }
            Err(_) => false,
        }
    }

    /// Sorted `(columns, values)` parallel slices of row `i`.
    pub fn row(&self, i: usize) -> (&[usize], &[f64]) {
        (&self.row_cols[i], &self.row_vals[i])
    }

    /// Sorted columns of row `i` together with a *mutable* view of its
    /// values.  Rewriting values through this slice is a purely numeric
    /// operation: the structure (and with it `nnz` and the structural
    /// counters) cannot change, which is exactly the contract a
    /// pattern-frozen refactorization needs.
    pub fn row_mut(&mut self, i: usize) -> (&[usize], &mut [f64]) {
        (&self.row_cols[i], &mut self.row_vals[i])
    }

    /// Sorted column indices of row `i`.
    pub fn row_cols(&self, i: usize) -> &[usize] {
        &self.row_cols[i]
    }

    /// Values of row `i`, parallel to [`AdjacencyMatrix::row_cols`].
    pub fn row_vals(&self, i: usize) -> &[f64] {
        &self.row_vals[i]
    }

    /// Sorted row indices with a structural entry in column `j`.
    pub fn col_rows(&self, j: usize) -> &[usize] {
        &self.cols[j]
    }

    /// The current sparsity pattern.
    pub fn pattern(&self) -> SparsityPattern {
        let rows = self.row_cols.to_vec();
        SparsityPattern::from_sorted_rows(self.n_cols, rows)
    }

    /// Converts to CSR (dropping the structural counters).
    pub fn to_csr(&self) -> CsrMatrix {
        let mut row_ptr = Vec::with_capacity(self.n_rows + 1);
        let mut col_idx = Vec::with_capacity(self.nnz());
        let mut values = Vec::with_capacity(self.nnz());
        row_ptr.push(0);
        for i in 0..self.n_rows {
            col_idx.extend_from_slice(&self.row_cols[i]);
            values.extend_from_slice(&self.row_vals[i]);
            row_ptr.push(col_idx.len());
        }
        CsrMatrix::from_raw_parts(self.n_rows, self.n_cols, row_ptr, col_idx, values)
    }

    /// Rebuilds the matrix so its structure exactly matches `pattern`,
    /// retaining values at retained positions and zero-filling new positions.
    /// Every inserted or removed node is counted in the structural stats —
    /// this is the "restructuring" cost that dominates a straightforwardly
    /// incremental implementation (paper §4, discussion before CLUDE).
    pub fn restructure_to(&mut self, pattern: &SparsityPattern) {
        assert_eq!(pattern.n_rows(), self.n_rows);
        assert_eq!(pattern.n_cols(), self.n_cols);
        let mut stats = self.stats();
        let mut new_row_cols: Vec<Vec<usize>> = Vec::with_capacity(self.n_rows);
        let mut new_row_vals: Vec<Vec<f64>> = Vec::with_capacity(self.n_rows);
        let mut new_cols: Vec<Vec<usize>> = vec![Vec::new(); self.n_cols];
        for i in 0..self.n_rows {
            let old_cols = &self.row_cols[i];
            let old_vals = &self.row_vals[i];
            let target = pattern.row(i);
            let mut merged_cols = Vec::with_capacity(target.len());
            let mut merged_vals = Vec::with_capacity(target.len());
            let mut oi = 0;
            for &j in target {
                // Advance through old entries, counting removals for entries
                // that are not retained.
                while oi < old_cols.len() && old_cols[oi] < j {
                    stats.removals += 1;
                    stats.probes += 1;
                    oi += 1;
                }
                stats.probes += 1;
                merged_cols.push(j);
                if oi < old_cols.len() && old_cols[oi] == j {
                    merged_vals.push(old_vals[oi]);
                    oi += 1;
                } else {
                    stats.inserts += 1;
                    merged_vals.push(0.0);
                }
                new_cols[j].push(i);
            }
            while oi < old_cols.len() {
                stats.removals += 1;
                stats.probes += 1;
                oi += 1;
            }
            new_row_cols.push(merged_cols);
            new_row_vals.push(merged_vals);
        }
        self.row_cols = new_row_cols;
        self.row_vals = new_row_vals;
        self.cols = new_cols;
        self.inserts = stats.inserts;
        self.removals = stats.removals;
        self.probes = stats.probes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;

    fn sample_csr() -> CsrMatrix {
        let mut coo = CooMatrix::new(3, 3);
        for &(i, j, v) in &[(0, 0, 1.0), (0, 2, 2.0), (1, 1, 3.0), (2, 0, 4.0)] {
            coo.push(i, j, v).unwrap();
        }
        CsrMatrix::from_coo(&coo)
    }

    #[test]
    fn from_csr_preserves_entries() {
        let csr = sample_csr();
        let adj = AdjacencyMatrix::from_csr(&csr);
        assert_eq!(adj.nnz(), 4);
        assert_eq!(adj.get(0, 2), 2.0);
        assert_eq!(adj.get(1, 0), 0.0);
        assert_eq!(adj.to_csr(), csr);
    }

    #[test]
    fn set_inserts_and_updates() {
        let mut adj = AdjacencyMatrix::zeros(2, 2);
        assert!(adj.set(0, 1, 5.0));
        assert!(!adj.set(0, 1, 6.0));
        assert_eq!(adj.get(0, 1), 6.0);
        assert_eq!(adj.stats().inserts, 1);
        assert!(adj.contains(0, 1));
        assert!(!adj.contains(1, 0));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn set_out_of_bounds_panics() {
        let mut adj = AdjacencyMatrix::zeros(2, 2);
        adj.set(5, 0, 1.0);
    }

    #[test]
    fn add_to_accumulates() {
        let mut adj = AdjacencyMatrix::zeros(2, 2);
        adj.add_to(1, 1, 2.0);
        adj.add_to(1, 1, 3.0);
        assert_eq!(adj.get(1, 1), 5.0);
        assert_eq!(adj.stats().inserts, 1);
    }

    #[test]
    fn add_to_uses_one_search_per_call() {
        let mut adj = AdjacencyMatrix::zeros(4, 4);
        adj.set(1, 2, 1.0);
        let before = adj.stats().probes;
        adj.add_to(1, 2, 1.0);
        // Row 1 has one entry: a single binary search costs one step.
        assert_eq!(adj.stats().probes - before, search_steps(1));
    }

    #[test]
    fn walks_skip_absent_zero_writes_and_keep_present_zeros() {
        let mut adj = AdjacencyMatrix::zeros(4, 4);
        adj.set(0, 0, 5.0);
        // Row walk past the diagonal: an exact zero on an absent position
        // inserts nothing, a non-zero is spliced in at the cursor.
        adj.update_row_from(0, 1, &[1, 3], |j, old| {
            assert_eq!(old, 0.0);
            if j == 3 {
                2.0
            } else {
                0.0
            }
        });
        assert_eq!(adj.row(0), (&[0usize, 3][..], &[5.0, 2.0][..]));
        assert_eq!(adj.col_rows(3), &[0]);
        assert_eq!(adj.stats().inserts, 2);
        // A present position accepts an exact zero (cancellation keeps the
        // node), and the walk reads the stored value back.
        adj.update_row_from(0, 1, &[], |j, old| {
            assert_eq!((j, old), (3, 2.0));
            0.0
        });
        assert!(adj.contains(0, 3));
        assert_eq!(adj.get(0, 3), 0.0);
        assert_eq!(adj.stats().inserts, 2);
        // Column walk: stored rows and support rows merge in ascending order,
        // fill-ins land in both the row arrays and the column list.
        adj.set(2, 0, 7.0);
        let mut seen = Vec::new();
        adj.update_col_after(0, 0, &[1, 2, 3], |i, old| {
            seen.push((i, old));
            if i == 1 {
                0.0
            } else {
                old + 1.0
            }
        });
        assert_eq!(seen, vec![(1, 0.0), (2, 7.0), (3, 0.0)]);
        assert_eq!(adj.col_rows(0), &[0, 2, 3]);
        assert_eq!(adj.get(2, 0), 8.0);
        assert_eq!(adj.get(3, 0), 1.0);
        assert!(!adj.contains(1, 0));
    }

    #[test]
    fn only_mutating_paths_count_search_steps() {
        let mut adj = AdjacencyMatrix::from_csr(&sample_csr());
        // Reads through `&self` are not billed.
        adj.get(0, 2);
        adj.contains(0, 1);
        assert_eq!(adj.stats().probes, 0);
        // Row 0 has 2 entries: a search costs floor(log2(2)) + 1 = 2 steps.
        assert_eq!(adj.locate(0, 2), Ok(1));
        assert_eq!(adj.stats().probes, 2);
        assert_eq!(adj.locate(0, 1), Err(1));
        assert_eq!(adj.stats().probes, 4);
        // An empty row still costs one step.
        let mut empty = AdjacencyMatrix::zeros(2, 2);
        assert_eq!(empty.locate(0, 0), Err(0));
        assert_eq!(empty.stats().probes, 1);
        // A row walk splices at its cursor: the only search a fill-in costs
        // is the column-index insert, and stored entries cost none.
        adj.reset_stats();
        adj.update_row_from(0, 1, &[1], |_, old| old + 1.0);
        assert_eq!(adj.row(0), (&[0usize, 1, 2][..], &[1.0, 1.0, 3.0][..]));
        assert_eq!(adj.stats().probes, search_steps(1));
    }

    #[test]
    fn remove_deletes_structure() {
        let mut adj = AdjacencyMatrix::from_csr(&sample_csr());
        assert!(adj.remove(0, 2));
        assert!(!adj.remove(0, 2));
        assert!(!adj.contains(0, 2));
        assert_eq!(adj.stats().removals, 1);
        assert_eq!(adj.col_rows(2), &[] as &[usize]);
    }

    #[test]
    fn column_lists_track_rows() {
        let adj = AdjacencyMatrix::from_csr(&sample_csr());
        assert_eq!(adj.col_rows(0), &[0, 2]);
        assert_eq!(adj.col_rows(1), &[1]);
    }

    #[test]
    fn out_of_order_column_inserts_stay_sorted() {
        let mut adj = AdjacencyMatrix::zeros(5, 5);
        adj.set(4, 1, 1.0);
        adj.set(0, 1, 2.0);
        adj.set(2, 1, 3.0);
        assert_eq!(adj.col_rows(1), &[0, 2, 4]);
    }

    #[test]
    fn pattern_matches_csr_pattern() {
        let csr = sample_csr();
        let adj = AdjacencyMatrix::from_csr(&csr);
        assert_eq!(adj.pattern(), csr.pattern());
    }

    #[test]
    fn restructure_counts_inserts_and_removals() {
        let csr = sample_csr();
        let mut adj = AdjacencyMatrix::from_csr(&csr);
        // Target pattern: keep (0,0), (1,1); drop (0,2),(2,0); add (2,2),(1,2).
        let target =
            SparsityPattern::from_entries(3, 3, vec![(0, 0), (1, 1), (1, 2), (2, 2)]).unwrap();
        adj.restructure_to(&target);
        assert_eq!(adj.pattern(), target);
        // Retained values survive, new positions are zero.
        assert_eq!(adj.get(0, 0), 1.0);
        assert_eq!(adj.get(1, 1), 3.0);
        assert_eq!(adj.get(2, 2), 0.0);
        let stats = adj.stats();
        assert_eq!(stats.inserts, 2);
        assert_eq!(stats.removals, 2);
        assert!(stats.modifications() == 4);
    }

    #[test]
    fn reset_stats_clears_counters() {
        let mut adj = AdjacencyMatrix::zeros(2, 2);
        adj.set(0, 0, 1.0);
        assert_ne!(adj.stats(), StructuralStats::default());
        adj.reset_stats();
        assert_eq!(adj.stats(), StructuralStats::default());
    }
}
