//! Static LU storage structures.
//!
//! A [`LuStructure`] is the "universal adjacency-lists structure" idea of the
//! paper made concrete: it fixes, ahead of any numeric work, every position
//! that the combined factors `Â = L + U` may occupy.  CLUDE builds one such
//! structure per cluster from the universal symbolic sparsity pattern
//! `s̃p(A_∪^{O_∪})`; the baseline algorithms build one per matrix from that
//! matrix's own `s̃p`.  Because the structure is immutable, the numeric phase
//! and the Bennett updates never perform structural maintenance — which is
//! precisely where CLUDE gets its speed.
//!
//! The layout is row-major.  Bennett's sweeps over static storage also walk
//! "column `k` of `L`", so a structure builds a strictly-lower column index
//! the first time [`LuStructure::lower_col`] asks for one; a structure that
//! is never swept (an engine block, extended and refactorized row by row)
//! never holds one.

use crate::error::{LuError, LuResult};
use crate::symbolic::closed_structure;
use clude_sparse::SparsityPattern;
use std::sync::{Arc, OnceLock};

/// An immutable slot layout for the combined LU factors of one (or many)
/// matrices sharing a symbolic sparsity pattern.
///
/// Rows are stored contiguously with sorted column indices.  The strictly
/// lower part of every column is indexed on first ask
/// ([`LuStructure::lower_col`]), so Bennett's algorithm can walk "column `k`
/// of `L`" directly.
#[derive(Debug, Clone)]
pub struct LuStructure {
    pub(crate) n: usize,
    pub(crate) row_ptr: Vec<usize>,
    pub(crate) col_idx: Vec<usize>,
    /// Slot of the diagonal entry of each row.
    pub(crate) diag_slot: Vec<usize>,
    /// The strictly-lower column index, built on first ask.
    lower: OnceLock<LowerIndex>,
    /// [`LuStructure::is_elimination_closed`], computed on first ask.
    pub(crate) closed: OnceLock<bool>,
}

/// CSC-like view of the strictly lower triangle: for every column `j`, the
/// rows `i > j` with a structural entry, and the row-major slot of each.
#[derive(Debug, Clone)]
struct LowerIndex {
    col_ptr: Vec<usize>,
    rows: Vec<usize>,
    slots: Vec<usize>,
}

/// Two structures are equal when they lay out the same slots; whether either
/// has built its column index or been asked about closure yet is not part of
/// the layout.
impl PartialEq for LuStructure {
    fn eq(&self, other: &Self) -> bool {
        self.n == other.n
            && self.row_ptr == other.row_ptr
            && self.col_idx == other.col_idx
            && self.diag_slot == other.diag_slot
    }
}

impl LuStructure {
    /// Builds a structure from an arbitrary square pattern.
    ///
    /// The pattern is first closed under symbolic elimination (and the
    /// diagonal added), so the resulting structure can hold the factors of
    /// any matrix whose sparsity pattern is a subset of `pattern`.  The
    /// closure is the pattern-only run of the up-looking kernel
    /// ([`crate::symbolic`]), written straight into the layout.
    pub fn from_pattern(pattern: &SparsityPattern) -> LuResult<Self> {
        if pattern.n_rows() != pattern.n_cols() {
            return Err(LuError::NotSquare {
                n_rows: pattern.n_rows(),
                n_cols: pattern.n_cols(),
            });
        }
        Ok(closed_structure(pattern))
    }

    /// Builds a structure from a pattern that is already a symbolic sparsity
    /// pattern (i.e. closed under elimination and containing the diagonal).
    ///
    /// This is the entry point CLUDE uses after performing the symbolic
    /// decomposition of `A_∪^{O_∪}` explicitly (Algorithm 3, line 3); it does
    /// not repeat the closure.
    pub fn from_closed_pattern_unchecked(closed: &SparsityPattern) -> Self {
        debug_assert_eq!(closed.n_rows(), closed.n_cols());
        let n = closed.n_rows();
        Self::from_sorted_rows(n, closed.nnz(), |i| closed.row(i))
            .expect("a closed pattern always contains the diagonal")
    }

    /// Builds the slot layout whose row `i` holds exactly the columns
    /// `row(i)` (strictly ascending, `< n`), `nnz` in total — **no symbolic
    /// closure**: the layout covers what the rows list and nothing more.
    ///
    /// This is how factors are rebuilt from an exported entry list
    /// ([`crate::LuFactors::from_sorted_entries`]): the rows are slices of
    /// one column array, read in place, so the build is `O(nnz)` with a
    /// constant number of allocations.  A row without its diagonal is a
    /// [`LuError::SingularPivot`] (value `0.0`): factors missing a pivot
    /// cannot be substituted through.
    pub fn from_sorted_rows<'a>(
        n: usize,
        nnz: usize,
        row: impl Fn(usize) -> &'a [usize],
    ) -> LuResult<Self> {
        let mut structure = Self::growing(n, nnz, OnceLock::new());
        for i in 0..n {
            let cols = row(i);
            debug_assert!(cols.windows(2).all(|w| w[0] < w[1]));
            debug_assert!(cols.last().is_none_or(|&j| j < n));
            let lower = cols.partition_point(|&j| j < i);
            if cols.get(lower) != Some(&i) {
                return Err(LuError::SingularPivot {
                    index: i,
                    value: 0.0,
                });
            }
            structure.push_row(&cols[..lower], &cols[lower + 1..]);
        }
        Ok(structure.finish())
    }

    /// An order-`n` layout with no rows yet, for [`LuStructure::push_row`]
    /// to grow and [`LuStructure::finish`] to complete; `closed` is what is
    /// known about [`LuStructure::is_elimination_closed`].
    pub(crate) fn growing(n: usize, nnz: usize, closed: OnceLock<bool>) -> Self {
        let mut row_ptr = Vec::with_capacity(n + 1);
        row_ptr.push(0);
        LuStructure {
            n,
            row_ptr,
            col_idx: Vec::with_capacity(nnz),
            diag_slot: Vec::with_capacity(n),
            lower: OnceLock::new(),
            closed,
        }
    }

    /// Appends the next row: its diagonal between the columns `lower` and
    /// `upper`, each strictly ascending and on its side of the diagonal.
    pub(crate) fn push_row(&mut self, lower: &[usize], upper: &[usize]) {
        let i = self.diag_slot.len();
        self.col_idx.extend_from_slice(lower);
        self.diag_slot.push(self.col_idx.len());
        self.col_idx.push(i);
        self.col_idx.extend_from_slice(upper);
        self.row_ptr.push(self.col_idx.len());
    }

    /// Completes a grown layout.
    pub(crate) fn finish(mut self) -> Self {
        debug_assert_eq!(self.diag_slot.len(), self.n);
        self.col_idx.shrink_to_fit();
        self
    }

    /// The strictly-lower column index, built on first ask.
    fn lower_index(&self) -> &LowerIndex {
        self.lower.get_or_init(|| {
            let (mut col_ptr, mut rows, mut slots) = (Vec::new(), Vec::new(), Vec::new());
            self.index_lower_into(&mut col_ptr, &mut rows, Some(&mut slots));
            LowerIndex {
                col_ptr,
                rows,
                slots,
            }
        })
    }

    /// Lays the strictly-lower column index out in the given buffers, by
    /// counting sort over the rows' `L` slots: column `j`'s rows, ascending,
    /// are `rows[col_ptr[j]..col_ptr[j + 1]]`, and beside them their slots
    /// when `slots` is given.  The buffers' old contents go, their capacity
    /// stays.
    pub(crate) fn index_lower_into(
        &self,
        col_ptr: &mut Vec<usize>,
        rows: &mut Vec<usize>,
        mut slots: Option<&mut Vec<usize>>,
    ) {
        let n = self.n;
        col_ptr.clear();
        col_ptr.resize(n + 1, 0);
        for i in 0..n {
            for &j in &self.col_idx[self.lower_row_slots(i)] {
                col_ptr[j + 1] += 1;
            }
        }
        for j in 0..n {
            col_ptr[j + 1] += col_ptr[j];
        }
        let total = col_ptr[n];
        rows.clear();
        rows.resize(total, 0);
        if let Some(slots) = slots.as_deref_mut() {
            slots.clear();
            slots.resize(total, 0);
        }
        // `col_ptr[j]` is column j's next free position while the rows are
        // dealt out, and its end afterwards: shifted back by one column.
        for i in 0..n {
            for slot in self.lower_row_slots(i) {
                let pos = &mut col_ptr[self.col_idx[slot]];
                rows[*pos] = i;
                if let Some(slots) = slots.as_deref_mut() {
                    slots[*pos] = slot;
                }
                *pos += 1;
            }
        }
        col_ptr.copy_within(0..n, 1);
        col_ptr[0] = 0;
    }

    /// Whether [`LuStructure::lower_col`] has built the column index yet.
    pub fn has_lower_index(&self) -> bool {
        self.lower.get().is_some()
    }

    /// Whether the layout is closed under elimination: for every stored
    /// `L` slot `(i, k)` and every stored `U` slot `(k, j)` past `k`'s
    /// diagonal, `(i, j)` is stored too.  Then eliminating row `i` of any
    /// matrix the layout covers never leaves row `i`'s slots, so the row's
    /// factors depend on the matrix's row `i` and on the `U` rows its `L`
    /// slots name, and on nothing else — what lets a frozen-pattern pass
    /// recompute only the elimination reach of the rows a batch changed
    /// ([`crate::refactor_frozen_reach`]).
    ///
    /// A symbolic closure ([`LuStructure::from_pattern`], the structure of
    /// any factorization over the matrix's own pattern, an extension by
    /// [`crate::extend_structure`]) always is, and the up-looking kernel
    /// marks it so as it builds it; a layout rebuilt from an arbitrary entry
    /// list may not be.  For any other layout it is learned once, at
    /// `O(nnz + elimination work)`, and remembered: every block sharing the
    /// `Arc` reads the same answer.
    pub fn is_elimination_closed(&self) -> bool {
        *self.closed.get_or_init(|| {
            // `mark[j] == i` while row i's columns are marked.
            let mut mark = vec![usize::MAX; self.n];
            (0..self.n).all(|i| {
                for &j in self.row_cols(i) {
                    mark[j] = i;
                }
                self.col_idx[self.row_ptr[i]..self.diag_slot[i]]
                    .iter()
                    .all(|&k| self.upper_row_cols(k).iter().all(|&j| mark[j] == i))
            })
        })
    }

    /// Matrix order `n`.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Total number of slots, i.e. `|s̃p|` of the underlying pattern.
    pub fn nnz(&self) -> usize {
        self.col_idx.len()
    }

    /// Rough resident size in bytes (the row layout, plus the strictly-lower
    /// column index once built), for memory accountings that charge a shared
    /// structure once.
    pub fn approx_bytes(&self) -> usize {
        let index = self
            .lower
            .get()
            .map_or(0, |l| l.col_ptr.len() + l.rows.len() + l.slots.len());
        (self.row_ptr.len() + self.col_idx.len() + self.diag_slot.len() + index)
            * std::mem::size_of::<usize>()
    }

    /// The slot range of row `i`.
    #[inline]
    pub fn row_range(&self, i: usize) -> std::ops::Range<usize> {
        self.row_ptr[i]..self.row_ptr[i + 1]
    }

    /// The column index stored at `slot`.
    #[inline]
    pub fn col_of_slot(&self, slot: usize) -> usize {
        self.col_idx[slot]
    }

    /// Columns of row `i`, ascending.
    #[inline]
    pub fn row_cols(&self, i: usize) -> &[usize] {
        &self.col_idx[self.row_ptr[i]..self.row_ptr[i + 1]]
    }

    /// Slot of the diagonal entry of row `i`.
    #[inline]
    pub fn diag_slot(&self, i: usize) -> usize {
        self.diag_slot[i]
    }

    /// The slot of position `(i, j)`, or `None` when the structure does not
    /// cover it.
    pub fn slot(&self, i: usize, j: usize) -> Option<usize> {
        if i >= self.n || j >= self.n {
            return None;
        }
        let range = self.row_range(i);
        let row = &self.col_idx[range.clone()];
        row.binary_search(&j).ok().map(|pos| range.start + pos)
    }

    /// Returns `true` when the structure covers `(i, j)`.
    pub fn contains(&self, i: usize, j: usize) -> bool {
        self.slot(i, j).is_some()
    }

    /// Slots of the upper-triangular (including diagonal) part of row `i`,
    /// i.e. the `U` entries of that row in ascending column order.
    pub fn upper_row_slots(&self, i: usize) -> std::ops::Range<usize> {
        self.diag_slot[i]..self.row_ptr[i + 1]
    }

    /// Slots of the strictly-lower part of row `i` (its `L` entries),
    /// ascending column order.
    #[inline]
    pub fn lower_row_slots(&self, i: usize) -> std::ops::Range<usize> {
        self.row_ptr[i]..self.diag_slot[i]
    }

    /// The strictly-upper columns of row `i` (its `U` entries past the
    /// diagonal), ascending — a borrowed slice into the row-major layout, so
    /// Bennett's sweep can walk "row `i` of `U`" without materialising it.
    pub fn upper_row_cols(&self, i: usize) -> &[usize] {
        &self.col_idx[self.diag_slot[i] + 1..self.row_ptr[i + 1]]
    }

    /// The strictly-lower entries of column `j`: parallel slices of row
    /// indices (`i > j`, ascending) and their row-major slots.  The first
    /// call builds the column index, `O(nnz)`; later calls read it.
    #[inline]
    pub fn lower_col(&self, j: usize) -> (&[usize], &[usize]) {
        let index = self.lower_index();
        let range = index.col_ptr[j]..index.col_ptr[j + 1];
        (&index.rows[range.clone()], &index.slots[range])
    }

    /// The pattern covered by this structure.
    pub fn pattern(&self) -> SparsityPattern {
        let rows = (0..self.n)
            .map(|i| self.row_cols(i).to_vec())
            .collect::<Vec<_>>();
        SparsityPattern::from_sorted_rows(self.n, rows)
    }

    /// Wraps the structure in an [`Arc`] so many factor sets (one per matrix
    /// of a cluster) can share it without copying.
    pub fn into_shared(self) -> Arc<LuStructure> {
        Arc::new(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clude_sparse::SparsityPattern;

    fn sample_structure() -> LuStructure {
        // Pattern with one fill-in: (1,0),(0,2) present => fill at (1,2).
        let sp = SparsityPattern::from_entries(3, 3, vec![(0, 0), (1, 1), (2, 2), (1, 0), (0, 2)])
            .unwrap();
        LuStructure::from_pattern(&sp).unwrap()
    }

    #[test]
    fn closure_adds_fill_slots() {
        let s = sample_structure();
        assert_eq!(s.n(), 3);
        // 5 original (incl. diag) + 1 fill at (1,2).
        assert_eq!(s.nnz(), 6);
        assert!(s.contains(1, 2));
        assert!(!s.contains(2, 0));
    }

    #[test]
    fn diag_and_row_partitions() {
        let s = sample_structure();
        for i in 0..3 {
            assert_eq!(s.col_of_slot(s.diag_slot(i)), i);
            let lower: Vec<usize> = s.lower_row_slots(i).map(|sl| s.col_of_slot(sl)).collect();
            assert!(lower.iter().all(|&c| c < i));
            let upper: Vec<usize> = s.upper_row_slots(i).map(|sl| s.col_of_slot(sl)).collect();
            assert!(upper.iter().all(|&c| c >= i));
            assert_eq!(upper[0], i);
        }
    }

    #[test]
    fn lower_col_lists_match_row_slots() {
        let s = sample_structure();
        let (rows, slots) = s.lower_col(0);
        assert_eq!(rows, &[1]);
        assert_eq!(s.col_of_slot(slots[0]), 0);
        let (rows2, _) = s.lower_col(2);
        assert!(rows2.is_empty());
    }

    /// Column `j`'s strictly-lower entries by definition: every row below
    /// `j` whose slots cover `(i, j)`, with that slot.
    fn lower_col_by_definition(s: &LuStructure, j: usize) -> (Vec<usize>, Vec<usize>) {
        (j + 1..s.n())
            .filter_map(|i| s.slot(i, j).map(|slot| (i, slot)))
            .unzip()
    }

    #[test]
    fn the_column_index_is_built_on_first_ask_and_lists_every_lower_slot() {
        let mut coo = clude_sparse::CooMatrix::new(6, 6);
        for (i, j, v) in [
            (1, 0, 1.0),
            (3, 0, -1.0),
            (0, 4, 1.0),
            (4, 2, 0.5),
            (5, 3, 1.0),
        ] {
            coo.push(i, j, v).unwrap();
        }
        for i in 0..6 {
            coo.push(i, i, 8.0).unwrap();
        }
        let fresh = crate::factorize_fresh(&clude_sparse::CsrMatrix::from_coo(&coo)).unwrap();
        let extended = crate::extend_structure(&fresh, [(5, 1), (2, 5)]).unwrap();
        let restored =
            crate::LuFactors::from_sorted_entries(6, &extended.export_entries()).unwrap();
        let rows: [&[usize]; 3] = [&[0, 2], &[0, 1], &[2]];
        let sorted_rows = LuStructure::from_sorted_rows(3, 5, |i| rows[i]).unwrap();
        for s in [
            fresh.structure().as_ref(),
            extended.structure().as_ref(),
            restored.structure().as_ref(),
            &sorted_rows,
        ] {
            assert!(!s.has_lower_index());
            let unbuilt = s.approx_bytes();
            for j in 0..s.n() {
                let (rows, slots) = s.lower_col(j);
                assert_eq!(
                    (rows.to_vec(), slots.to_vec()),
                    lower_col_by_definition(s, j)
                );
            }
            assert!(s.has_lower_index());
            let lower = (0..s.n())
                .map(|i| s.lower_row_slots(i).len())
                .sum::<usize>();
            let word = std::mem::size_of::<usize>();
            assert_eq!(s.approx_bytes(), unbuilt + (s.n() + 1 + 2 * lower) * word);
            // The index is not part of the layout, and a clone keeps it.
            let unindexed = LuStructure::from_sorted_rows(s.n(), s.nnz(), |i| s.row_cols(i));
            assert_eq!(&unindexed.unwrap(), s);
            assert!(s.clone().has_lower_index());
        }
        assert!(extended.nnz() > fresh.nnz());
    }

    #[test]
    fn slot_lookup() {
        let s = sample_structure();
        assert!(s.slot(0, 2).is_some());
        assert!(s.slot(2, 0).is_none());
        assert!(s.slot(5, 0).is_none());
        assert_eq!(s.slot(1, 1), Some(s.diag_slot(1)));
    }

    #[test]
    fn pattern_roundtrip_is_closed() {
        let s = sample_structure();
        let p = s.pattern();
        assert_eq!(p.nnz(), s.nnz());
        // Closed pattern: building again from it changes nothing.
        let s2 = LuStructure::from_pattern(&p).unwrap();
        assert_eq!(s2.nnz(), s.nnz());
        let s3 = LuStructure::from_closed_pattern_unchecked(&p);
        assert_eq!(s3, s2);
    }

    #[test]
    fn symbolic_closures_are_closed_under_elimination_and_a_dropped_fill_is_not() {
        let s = sample_structure();
        assert!(s.is_elimination_closed());
        // The same rows without the fill slot (1, 2): L(1, 0) meets U(0, 2).
        let rows: [&[usize]; 3] = [&[0, 2], &[0, 1], &[2]];
        let open = LuStructure::from_sorted_rows(3, 5, |i| rows[i]).unwrap();
        assert!(!open.is_elimination_closed());
        // Memoized, and not part of the layout's equality.
        let fresh = LuStructure::from_sorted_rows(3, 5, |i| rows[i]).unwrap();
        assert_eq!(open, fresh);
        assert!(!open.clone().is_elimination_closed());
    }

    #[test]
    fn rejects_rectangular_pattern() {
        let err = LuStructure::from_pattern(&SparsityPattern::empty(2, 3)).unwrap_err();
        assert!(matches!(err, LuError::NotSquare { .. }));
    }

    #[test]
    fn shared_structure_is_cheap_to_clone() {
        let s = sample_structure().into_shared();
        let s2 = Arc::clone(&s);
        assert_eq!(s.nnz(), s2.nnz());
        assert_eq!(Arc::strong_count(&s), 2);
    }
}
