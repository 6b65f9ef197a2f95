//! Sparsity patterns (`sp(A)` in the paper).
//!
//! A [`SparsityPattern`] is the set of index pairs `(i, j)` at which a matrix
//! holds a structurally non-zero value (Definition 1 of the paper).  It is the
//! object on which the paper's similarity measure (`mes`, Definition 6), the
//! bounding matrices `A_∩` / `A_∪` (Definition 7) and the symbolic machinery
//! of the LU engine operate.
//!
//! The pattern is stored row-major with sorted column indices per row, which
//! is the layout the symbolic elimination in `clude-lu` consumes directly.

use crate::error::{SparseError, SparseResult};

/// The set of structurally non-zero positions of a sparse matrix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SparsityPattern {
    n_rows: usize,
    n_cols: usize,
    /// For each row, the sorted list of column indices with a non-zero.
    rows: Vec<Vec<usize>>,
}

impl SparsityPattern {
    /// Creates an empty pattern of the given shape.
    pub fn empty(n_rows: usize, n_cols: usize) -> Self {
        SparsityPattern {
            n_rows,
            n_cols,
            rows: vec![Vec::new(); n_rows],
        }
    }

    /// Creates a pattern with non-zeros on the main diagonal only.
    pub fn identity(n: usize) -> Self {
        SparsityPattern {
            n_rows: n,
            n_cols: n,
            rows: (0..n).map(|i| vec![i]).collect(),
        }
    }

    /// Builds a pattern from an iterator of `(row, col)` pairs.
    ///
    /// Duplicates are tolerated and collapsed.  Returns an error if any index
    /// is out of bounds.
    pub fn from_entries<I>(n_rows: usize, n_cols: usize, entries: I) -> SparseResult<Self>
    where
        I: IntoIterator<Item = (usize, usize)>,
    {
        let mut rows: Vec<Vec<usize>> = vec![Vec::new(); n_rows];
        for (r, c) in entries {
            if r >= n_rows || c >= n_cols {
                return Err(SparseError::IndexOutOfBounds {
                    row: r,
                    col: c,
                    n_rows,
                    n_cols,
                });
            }
            rows[r].push(c);
        }
        for row in &mut rows {
            row.sort_unstable();
            row.dedup();
        }
        Ok(SparsityPattern {
            n_rows,
            n_cols,
            rows,
        })
    }

    /// Builds a pattern directly from per-row sorted column lists.
    ///
    /// The caller must guarantee each row is sorted, deduplicated and in
    /// bounds; this is checked with debug assertions only.
    pub fn from_sorted_rows(n_cols: usize, rows: Vec<Vec<usize>>) -> Self {
        #[cfg(debug_assertions)]
        for row in &rows {
            debug_assert!(row.windows(2).all(|w| w[0] < w[1]), "rows must be sorted");
            debug_assert!(row.iter().all(|&c| c < n_cols), "column out of bounds");
        }
        SparsityPattern {
            n_rows: rows.len(),
            n_cols,
            rows,
        }
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of columns.
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// Number of structural non-zeros, i.e. `|sp(A)|`.
    pub fn nnz(&self) -> usize {
        self.rows.iter().map(Vec::len).sum()
    }

    /// Returns `true` when position `(i, j)` is in the pattern.
    pub fn contains(&self, i: usize, j: usize) -> bool {
        i < self.n_rows && self.rows[i].binary_search(&j).is_ok()
    }

    /// Inserts `(i, j)`; returns `true` if it was newly added.
    ///
    /// # Panics
    /// Panics when the index is out of bounds.
    pub fn insert(&mut self, i: usize, j: usize) -> bool {
        assert!(i < self.n_rows && j < self.n_cols, "index out of bounds");
        match self.rows[i].binary_search(&j) {
            Ok(_) => false,
            Err(pos) => {
                self.rows[i].insert(pos, j);
                true
            }
        }
    }

    /// The sorted column indices of row `i`.
    pub fn row(&self, i: usize) -> &[usize] {
        &self.rows[i]
    }

    /// Iterates over all `(row, col)` pairs in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.rows
            .iter()
            .enumerate()
            .flat_map(|(r, cols)| cols.iter().map(move |&c| (r, c)))
    }

    /// Set union of two patterns of the same shape (the pattern of `A_∪`).
    pub fn union(&self, other: &SparsityPattern) -> SparseResult<SparsityPattern> {
        self.check_shape(other)?;
        let rows = self
            .rows
            .iter()
            .zip(other.rows.iter())
            .map(|(a, b)| merge_union(a, b))
            .collect();
        Ok(SparsityPattern {
            n_rows: self.n_rows,
            n_cols: self.n_cols,
            rows,
        })
    }

    /// Set intersection of two patterns of the same shape (the pattern of `A_∩`).
    pub fn intersection(&self, other: &SparsityPattern) -> SparseResult<SparsityPattern> {
        self.check_shape(other)?;
        let rows = self
            .rows
            .iter()
            .zip(other.rows.iter())
            .map(|(a, b)| merge_intersection(a, b))
            .collect();
        Ok(SparsityPattern {
            n_rows: self.n_rows,
            n_cols: self.n_cols,
            rows,
        })
    }

    /// Number of positions present in both patterns, `|sp(A) ∩ sp(B)|`,
    /// computed without materialising the intersection.
    pub fn intersection_size(&self, other: &SparsityPattern) -> SparseResult<usize> {
        self.check_shape(other)?;
        Ok(self
            .rows
            .iter()
            .zip(other.rows.iter())
            .map(|(a, b)| count_intersection(a, b))
            .sum())
    }

    /// Returns `true` if every entry of `self` also appears in `other`.
    pub fn is_subset_of(&self, other: &SparsityPattern) -> bool {
        if self.n_rows != other.n_rows || self.n_cols != other.n_cols {
            return false;
        }
        self.rows
            .iter()
            .zip(other.rows.iter())
            .all(|(a, b)| count_intersection(a, b) == a.len())
    }

    /// The *matrix edit similarity* of Definition 6:
    ///
    /// `mes(A, B) = 2 |sp(A) ∩ sp(B)| / (|sp(A)| + |sp(B)|)`.
    ///
    /// Two empty patterns are defined to have similarity 1.
    pub fn mes(&self, other: &SparsityPattern) -> SparseResult<f64> {
        let inter = self.intersection_size(other)?;
        let denom = self.nnz() + other.nnz();
        if denom == 0 {
            return Ok(1.0);
        }
        Ok(2.0 * inter as f64 / denom as f64)
    }

    /// Returns `true` when the pattern is structurally symmetric
    /// (`(i, j)` present iff `(j, i)` present).  Requires a square shape.
    pub fn is_symmetric(&self) -> bool {
        if self.n_rows != self.n_cols {
            return false;
        }
        self.iter().all(|(i, j)| self.contains(j, i))
    }

    /// Transposed pattern.
    pub fn transpose(&self) -> SparsityPattern {
        let mut rows: Vec<Vec<usize>> = vec![Vec::new(); self.n_cols];
        for (i, j) in self.iter() {
            rows[j].push(i);
        }
        // Row-major iteration pushes rows in increasing i, so each list is
        // already sorted.
        SparsityPattern {
            n_rows: self.n_cols,
            n_cols: self.n_rows,
            rows,
        }
    }

    fn check_shape(&self, other: &SparsityPattern) -> SparseResult<()> {
        if self.n_rows != other.n_rows || self.n_cols != other.n_cols {
            return Err(SparseError::ShapeMismatch {
                left: (self.n_rows, self.n_cols),
                right: (other.n_rows, other.n_cols),
            });
        }
        Ok(())
    }
}

fn merge_union(a: &[usize], b: &[usize]) -> Vec<usize> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut ia, mut ib) = (0, 0);
    while ia < a.len() && ib < b.len() {
        match a[ia].cmp(&b[ib]) {
            std::cmp::Ordering::Less => {
                out.push(a[ia]);
                ia += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[ib]);
                ib += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(a[ia]);
                ia += 1;
                ib += 1;
            }
        }
    }
    out.extend_from_slice(&a[ia..]);
    out.extend_from_slice(&b[ib..]);
    out
}

fn merge_intersection(a: &[usize], b: &[usize]) -> Vec<usize> {
    let mut out = Vec::new();
    let (mut ia, mut ib) = (0, 0);
    while ia < a.len() && ib < b.len() {
        match a[ia].cmp(&b[ib]) {
            std::cmp::Ordering::Less => ia += 1,
            std::cmp::Ordering::Greater => ib += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[ia]);
                ia += 1;
                ib += 1;
            }
        }
    }
    out
}

/// `|a ∩ b|` of two sorted, deduplicated index lists.
pub fn count_intersection(a: &[usize], b: &[usize]) -> usize {
    let mut count = 0;
    let (mut ia, mut ib) = (0, 0);
    while ia < a.len() && ib < b.len() {
        match a[ia].cmp(&b[ib]) {
            std::cmp::Ordering::Less => ia += 1,
            std::cmp::Ordering::Greater => ib += 1,
            std::cmp::Ordering::Equal => {
                count += 1;
                ia += 1;
                ib += 1;
            }
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pat(entries: &[(usize, usize)]) -> SparsityPattern {
        SparsityPattern::from_entries(4, 4, entries.iter().copied()).unwrap()
    }

    #[test]
    fn empty_pattern_has_no_entries() {
        let p = SparsityPattern::empty(3, 5);
        assert_eq!(p.nnz(), 0);
        assert_eq!(p.n_rows(), 3);
        assert_eq!(p.n_cols(), 5);
        assert!(!p.contains(0, 0));
    }

    #[test]
    fn identity_pattern() {
        let p = SparsityPattern::identity(3);
        assert_eq!(p.nnz(), 3);
        assert!(p.contains(0, 0) && p.contains(1, 1) && p.contains(2, 2));
        assert!(!p.contains(0, 1));
        assert!(p.is_symmetric());
    }

    #[test]
    fn from_entries_dedups_and_sorts() {
        let p = pat(&[(0, 3), (0, 1), (0, 3), (2, 2)]);
        assert_eq!(p.nnz(), 3);
        assert_eq!(p.row(0), &[1, 3]);
        assert_eq!(p.row(2), &[2]);
    }

    #[test]
    fn from_entries_rejects_out_of_bounds() {
        let err = SparsityPattern::from_entries(2, 2, vec![(0, 5)]).unwrap_err();
        assert!(matches!(err, SparseError::IndexOutOfBounds { .. }));
    }

    #[test]
    fn insert_reports_novelty() {
        let mut p = SparsityPattern::empty(2, 2);
        assert!(p.insert(0, 1));
        assert!(!p.insert(0, 1));
        assert!(p.contains(0, 1));
        assert_eq!(p.nnz(), 1);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn insert_panics_out_of_bounds() {
        let mut p = SparsityPattern::empty(2, 2);
        p.insert(5, 0);
    }

    #[test]
    fn union_and_intersection() {
        let a = pat(&[(0, 0), (0, 1), (1, 2)]);
        let b = pat(&[(0, 1), (1, 2), (3, 3)]);
        let u = a.union(&b).unwrap();
        let i = a.intersection(&b).unwrap();
        assert_eq!(u.nnz(), 4);
        assert_eq!(i.nnz(), 2);
        assert!(u.contains(3, 3) && u.contains(0, 0));
        assert!(i.contains(0, 1) && i.contains(1, 2));
        assert!(!i.contains(0, 0));
        assert_eq!(a.intersection_size(&b).unwrap(), 2);
    }

    #[test]
    fn union_shape_mismatch_errors() {
        let a = SparsityPattern::empty(2, 2);
        let b = SparsityPattern::empty(3, 3);
        assert!(matches!(
            a.union(&b).unwrap_err(),
            SparseError::ShapeMismatch { .. }
        ));
    }

    #[test]
    fn subset_relation() {
        let a = pat(&[(0, 0), (1, 2)]);
        let b = pat(&[(0, 0), (1, 2), (3, 3)]);
        assert!(a.is_subset_of(&b));
        assert!(!b.is_subset_of(&a));
        assert!(a.is_subset_of(&a));
    }

    #[test]
    fn mes_matches_definition() {
        // |sp(A)| = 3, |sp(B)| = 3, intersection = 2 -> mes = 2*2/6
        let a = pat(&[(0, 0), (0, 1), (1, 2)]);
        let b = pat(&[(0, 1), (1, 2), (3, 3)]);
        let m = a.mes(&b).unwrap();
        assert!((m - 4.0 / 6.0).abs() < 1e-12);
        // Identical patterns have similarity 1.
        assert!((a.mes(&a).unwrap() - 1.0).abs() < 1e-12);
        // Disjoint patterns have similarity 0.
        let c = pat(&[(2, 0)]);
        assert_eq!(a.mes(&c).unwrap(), 0.0);
    }

    #[test]
    fn mes_of_empty_patterns_is_one() {
        let a = SparsityPattern::empty(3, 3);
        assert_eq!(a.mes(&a).unwrap(), 1.0);
    }

    #[test]
    fn symmetry_detection() {
        let s = pat(&[(0, 1), (1, 0), (2, 2)]);
        assert!(s.is_symmetric());
        let ns = pat(&[(0, 1)]);
        assert!(!ns.is_symmetric());
        let rect = SparsityPattern::empty(2, 3);
        assert!(!rect.is_symmetric());
    }

    #[test]
    fn transpose_roundtrip() {
        let a = pat(&[(0, 1), (1, 3), (2, 0), (3, 3)]);
        let t = a.transpose();
        assert_eq!(t.nnz(), a.nnz());
        for (i, j) in a.iter() {
            assert!(t.contains(j, i));
        }
        assert_eq!(t.transpose(), a);
    }

    #[test]
    fn iter_is_row_major_sorted() {
        let a = pat(&[(1, 2), (0, 3), (0, 1), (1, 0)]);
        let collected: Vec<_> = a.iter().collect();
        assert_eq!(collected, vec![(0, 1), (0, 3), (1, 0), (1, 2)]);
    }
}
