//! Compressed sparse row (CSR) matrices.
//!
//! [`CsrMatrix`] is the workhorse read-only representation used throughout the
//! reproduction: every matrix `A_i` of an evolving matrix sequence is a CSR
//! matrix.  It supports the operations the CLUDE algorithms need: pattern
//! extraction, reordering by an [`crate::perm::Ordering`], matrix-vector
//! products, entry lookup, deltas between successive snapshots and conversion
//! to/from the assembly and dense formats.

use crate::coo::CooMatrix;
use crate::dense::DenseMatrix;
use crate::error::{SparseError, SparseResult};
use crate::pattern::SparsityPattern;
use crate::perm::Ordering;

/// A sparse matrix in compressed sparse row format.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    n_rows: usize,
    n_cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Builds a CSR matrix from a triplet matrix, summing duplicates.
    ///
    /// Entries whose accumulated value is exactly `0.0` are *kept* so that the
    /// structural pattern of an assembled matrix is reproducible; use
    /// [`CsrMatrix::prune`] to drop them when required.
    ///
    /// Duplicates of one position are summed **in insertion order** (the
    /// scatter and the per-row sort are both stable), so the result is a
    /// function of the triplet list alone.  The assembly is a counting sort
    /// by row into one flat buffer — row counts, prefix sums, stable scatter
    /// — followed by an in-place sort and duplicate merge of each row's
    /// segment; no per-row container is allocated.
    pub fn from_coo(coo: &CooMatrix) -> Self {
        let n_rows = coo.n_rows();
        let n_cols = coo.n_cols();
        let mut row_ptr = vec![0usize; n_rows + 1];
        for (r, _, _) in coo.iter() {
            row_ptr[r + 1] += 1;
        }
        for r in 0..n_rows {
            row_ptr[r + 1] += row_ptr[r];
        }
        let mut next = row_ptr.clone();
        let mut entries = vec![(0usize, 0.0f64); coo.nnz()];
        for (r, c, v) in coo.iter() {
            entries[next[r]] = (c, v);
            next[r] += 1;
        }
        // Sort each row's segment (skipped when the triplets already arrived
        // column-sorted, the common case for row-major assembly) and fold
        // duplicates towards the front of the buffer.
        let mut col_idx = Vec::with_capacity(entries.len());
        let mut values = Vec::with_capacity(entries.len());
        for r in 0..n_rows {
            let (lo, hi) = (row_ptr[r], next[r]);
            let row = &mut entries[lo..hi];
            if !row.windows(2).all(|w| w[0].0 < w[1].0) {
                row.sort_by_key(|&(c, _)| c);
            }
            row_ptr[r] = col_idx.len();
            let mut k = 0;
            while k < row.len() {
                let col = row[k].0;
                let mut sum = 0.0;
                while k < row.len() && row[k].0 == col {
                    sum += row[k].1;
                    k += 1;
                }
                col_idx.push(col);
                values.push(sum);
            }
        }
        row_ptr[n_rows] = col_idx.len();
        CsrMatrix {
            n_rows,
            n_cols,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Builds a CSR matrix from raw parts.
    ///
    /// # Panics
    /// Debug-asserts the CSR invariants (monotone `row_ptr`, sorted column
    /// indices per row, matching lengths).
    pub fn from_raw_parts(
        n_rows: usize,
        n_cols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<usize>,
        values: Vec<f64>,
    ) -> Self {
        debug_assert_eq!(row_ptr.len(), n_rows + 1);
        debug_assert_eq!(col_idx.len(), values.len());
        debug_assert_eq!(*row_ptr.last().unwrap_or(&0), col_idx.len());
        #[cfg(debug_assertions)]
        for r in 0..n_rows {
            let row = &col_idx[row_ptr[r]..row_ptr[r + 1]];
            debug_assert!(row.windows(2).all(|w| w[0] < w[1]));
            debug_assert!(row.iter().all(|&c| c < n_cols));
        }
        CsrMatrix {
            n_rows,
            n_cols,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// The `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        CsrMatrix {
            n_rows: n,
            n_cols: n,
            row_ptr: (0..=n).collect(),
            col_idx: (0..n).collect(),
            values: vec![1.0; n],
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

    /// Returns `true` when the matrix is square.
    pub fn is_square(&self) -> bool {
        self.n_rows == self.n_cols
    }

    /// Number of stored (structural) non-zeros.
    pub fn nnz(&self) -> usize {
        self.col_idx.len()
    }

    /// The value at `(i, j)`, or `0.0` when the position is not stored.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        if i >= self.n_rows {
            return 0.0;
        }
        let (lo, hi) = (self.row_ptr[i], self.row_ptr[i + 1]);
        match self.col_idx[lo..hi].binary_search(&j) {
            Ok(pos) => self.values[lo + pos],
            Err(_) => 0.0,
        }
    }

    /// Overwrites the value of the stored entry at `(i, j)` in place.
    /// Returns `false` (and changes nothing) when the position is not part
    /// of the stored pattern — the pattern itself never changes.
    pub fn set(&mut self, i: usize, j: usize, value: f64) -> bool {
        if i >= self.n_rows {
            return false;
        }
        let (lo, hi) = (self.row_ptr[i], self.row_ptr[i + 1]);
        match self.col_idx[lo..hi].binary_search(&j) {
            Ok(pos) => {
                self.values[lo + pos] = value;
                true
            }
            Err(_) => false,
        }
    }

    /// The matrix after a batch of point writes, in one pass over the rows.
    ///
    /// `writes` holds `(row, col, value)` triplets at distinct positions,
    /// sorted ascending by `(row, col)`.  A non-zero value overwrites the
    /// stored entry or inserts one; a zero (`value == 0.0`) removes the entry
    /// and is a no-op where none is stored.  Runs of rows no write names are
    /// copied in bulk with their `row_ptr` shifted, so the cost is one copy
    /// of the arrays plus `O(writes)` — the result is, array for array, what
    /// assembling the written-through entry set from scratch gives.
    ///
    /// # Panics
    /// Panics when a position is out of bounds or the list is not strictly
    /// ascending: the merge would otherwise hand back a matrix that breaks
    /// the CSR invariants.
    pub fn merge_writes(&self, writes: &[(usize, usize, f64)]) -> CsrMatrix {
        assert!(
            writes
                .iter()
                .all(|&(i, j, _)| i < self.n_rows && j < self.n_cols),
            "write outside the {}x{} matrix",
            self.n_rows,
            self.n_cols
        );
        assert!(
            writes
                .windows(2)
                .all(|w| (w[0].0, w[0].1) < (w[1].0, w[1].1)),
            "writes must be strictly ascending by (row, col)"
        );
        let capacity = self.nnz() + writes.len();
        let mut row_ptr = Vec::with_capacity(self.n_rows + 1);
        let mut col_idx = Vec::with_capacity(capacity);
        let mut values = Vec::with_capacity(capacity);
        row_ptr.push(0);
        let mut rest = writes;
        while let Some(&(row, _, _)) = rest.first() {
            self.copy_rows_into(row, &mut row_ptr, &mut col_idx, &mut values);
            let (run, tail) = rest.split_at(rest.partition_point(|w| w.0 == row));
            rest = tail;
            // Two-pointer merge of the stored row with its writes.
            let (cols, vals) = self.row(row);
            let mut k = 0;
            for &(_, col, value) in run {
                let kept = k + cols[k..].partition_point(|&c| c < col);
                col_idx.extend_from_slice(&cols[k..kept]);
                values.extend_from_slice(&vals[k..kept]);
                k = kept + usize::from(cols.get(kept) == Some(&col));
                if value != 0.0 {
                    col_idx.push(col);
                    values.push(value);
                }
            }
            col_idx.extend_from_slice(&cols[k..]);
            values.extend_from_slice(&vals[k..]);
            row_ptr.push(col_idx.len());
        }
        self.copy_rows_into(self.n_rows, &mut row_ptr, &mut col_idx, &mut values);
        CsrMatrix {
            n_rows: self.n_rows,
            n_cols: self.n_cols,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Appends the rows from the one `row_ptr` is up to (`row_ptr.len() − 1`)
    /// to `until` (exclusive), unchanged, onto a CSR under assembly.
    fn copy_rows_into(
        &self,
        until: usize,
        row_ptr: &mut Vec<usize>,
        col_idx: &mut Vec<usize>,
        values: &mut Vec<f64>,
    ) {
        let from = row_ptr.len() - 1;
        let (lo, hi) = (self.row_ptr[from], self.row_ptr[until]);
        let at = col_idx.len();
        row_ptr.extend(self.row_ptr[from + 1..=until].iter().map(|&p| p - lo + at));
        col_idx.extend_from_slice(&self.col_idx[lo..hi]);
        values.extend_from_slice(&self.values[lo..hi]);
    }

    /// The stored entries of row `i` as parallel slices `(columns, values)`.
    ///
    /// `#[inline]`: the coupled solve's gather and the coupling plan's
    /// weight pass call it once per row from other crates, where an
    /// out-of-line call costs more than the row's one or two entries.
    #[inline]
    pub fn row(&self, i: usize) -> (&[usize], &[f64]) {
        let (lo, hi) = (self.row_ptr[i], self.row_ptr[i + 1]);
        (&self.col_idx[lo..hi], &self.values[lo..hi])
    }

    /// Iterates over all stored entries in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        (0..self.n_rows).flat_map(move |i| {
            let (cols, vals) = self.row(i);
            cols.iter().zip(vals.iter()).map(move |(&c, &v)| (i, c, v))
        })
    }

    /// The sparsity pattern `sp(A)` of the stored entries.
    pub fn pattern(&self) -> SparsityPattern {
        let rows = (0..self.n_rows)
            .map(|i| self.row(i).0.to_vec())
            .collect::<Vec<_>>();
        SparsityPattern::from_sorted_rows(self.n_cols, rows)
    }

    /// Removes stored entries with magnitude at most `tol` (but always keeps
    /// explicitly stored diagonal entries so factorizations stay well posed).
    pub fn prune(&self, tol: f64) -> CsrMatrix {
        let mut coo = CooMatrix::with_capacity(self.n_rows, self.n_cols, self.nnz());
        for (i, j, v) in self.iter() {
            if v.abs() > tol || i == j {
                coo.push(i, j, v).expect("indices are in bounds");
            }
        }
        CsrMatrix::from_coo(&coo)
    }

    /// Matrix-vector product `y = A x`.
    pub fn mul_vec(&self, x: &[f64]) -> SparseResult<Vec<f64>> {
        if x.len() != self.n_cols {
            return Err(SparseError::ShapeMismatch {
                left: (self.n_rows, self.n_cols),
                right: (x.len(), 1),
            });
        }
        let mut y = vec![0.0; self.n_rows];
        for i in 0..self.n_rows {
            let (cols, vals) = self.row(i);
            let mut acc = 0.0;
            for (&c, &v) in cols.iter().zip(vals.iter()) {
                acc += v * x[c];
            }
            y[i] = acc;
        }
        Ok(y)
    }

    /// Transposed-matrix-vector product `y = Aᵀ x`.
    pub fn mul_vec_transposed(&self, x: &[f64]) -> SparseResult<Vec<f64>> {
        if x.len() != self.n_rows {
            return Err(SparseError::ShapeMismatch {
                left: (self.n_cols, self.n_rows),
                right: (x.len(), 1),
            });
        }
        let mut y = vec![0.0; self.n_cols];
        for i in 0..self.n_rows {
            let (cols, vals) = self.row(i);
            for (&c, &v) in cols.iter().zip(vals.iter()) {
                y[c] += v * x[i];
            }
        }
        Ok(y)
    }

    /// The transposed matrix.
    pub fn transpose(&self) -> CsrMatrix {
        let mut coo = CooMatrix::with_capacity(self.n_cols, self.n_rows, self.nnz());
        for (i, j, v) in self.iter() {
            coo.push(j, i, v).expect("indices are in bounds");
        }
        CsrMatrix::from_coo(&coo)
    }

    /// Element-wise linear combination `alpha * self + beta * other`.
    pub fn add_scaled(&self, alpha: f64, other: &CsrMatrix, beta: f64) -> SparseResult<CsrMatrix> {
        if self.n_rows != other.n_rows || self.n_cols != other.n_cols {
            return Err(SparseError::ShapeMismatch {
                left: (self.n_rows, self.n_cols),
                right: (other.n_rows, other.n_cols),
            });
        }
        let mut coo = CooMatrix::with_capacity(self.n_rows, self.n_cols, self.nnz() + other.nnz());
        for (i, j, v) in self.iter() {
            coo.push(i, j, alpha * v)?;
        }
        for (i, j, v) in other.iter() {
            coo.push(i, j, beta * v)?;
        }
        Ok(CsrMatrix::from_coo(&coo))
    }

    /// The entry-wise difference `other - self` as a list of `(row, col,
    /// old_value, new_value)` for every position where the two matrices differ
    /// structurally or numerically (beyond `tol`).
    ///
    /// This is the `ΔA` consumed by Bennett's algorithm when moving from one
    /// snapshot matrix to the next.
    pub fn delta_to(
        &self,
        other: &CsrMatrix,
        tol: f64,
    ) -> SparseResult<Vec<(usize, usize, f64, f64)>> {
        if self.n_rows != other.n_rows || self.n_cols != other.n_cols {
            return Err(SparseError::ShapeMismatch {
                left: (self.n_rows, self.n_cols),
                right: (other.n_rows, other.n_cols),
            });
        }
        let mut out = Vec::new();
        for i in 0..self.n_rows {
            let (ca, va) = self.row(i);
            let (cb, vb) = other.row(i);
            let (mut ia, mut ib) = (0, 0);
            while ia < ca.len() || ib < cb.len() {
                if ib >= cb.len() || (ia < ca.len() && ca[ia] < cb[ib]) {
                    if va[ia].abs() > tol {
                        out.push((i, ca[ia], va[ia], 0.0));
                    }
                    ia += 1;
                } else if ia >= ca.len() || cb[ib] < ca[ia] {
                    if vb[ib].abs() > tol {
                        out.push((i, cb[ib], 0.0, vb[ib]));
                    }
                    ib += 1;
                } else {
                    if (va[ia] - vb[ib]).abs() > tol {
                        out.push((i, ca[ia], va[ia], vb[ib]));
                    }
                    ia += 1;
                    ib += 1;
                }
            }
        }
        Ok(out)
    }

    /// Applies an ordering `O = (P, Q)`, producing `A^O = P A Q`.
    ///
    /// With the convention of [`crate::perm::Permutation`], entry `(i, j)` of
    /// the result is entry `(P.new_to_old(i), Q.new_to_old(j))` of `self`.
    pub fn reorder(&self, ordering: &Ordering) -> SparseResult<CsrMatrix> {
        if ordering.row().len() != self.n_rows || ordering.col().len() != self.n_cols {
            return Err(SparseError::ShapeMismatch {
                left: (self.n_rows, self.n_cols),
                right: (ordering.row().len(), ordering.col().len()),
            });
        }
        // The permuted CSR is built directly: each new row is one old row
        // with its columns renamed — still distinct, so sorting the segment
        // has one answer — and every stored entry, zeros included, is kept.
        let col_old_to_new = ordering.col().old_to_new();
        let mut row_ptr = Vec::with_capacity(self.n_rows + 1);
        let mut col_idx = Vec::with_capacity(self.nnz());
        let mut values = Vec::with_capacity(self.nnz());
        let mut segment: Vec<(usize, f64)> = Vec::new();
        row_ptr.push(0);
        for &old_i in ordering.row().as_new_to_old() {
            let (cols, vals) = self.row(old_i);
            segment.clear();
            segment.extend(cols.iter().zip(vals).map(|(&j, &v)| (col_old_to_new[j], v)));
            segment.sort_unstable_by_key(|&(j, _)| j);
            col_idx.extend(segment.iter().map(|&(j, _)| j));
            values.extend(segment.iter().map(|&(_, v)| v));
            row_ptr.push(col_idx.len());
        }
        Ok(CsrMatrix {
            n_rows: self.n_rows,
            n_cols: self.n_cols,
            row_ptr,
            col_idx,
            values,
        })
    }

    /// Converts to a dense matrix (intended for tests and small examples).
    pub fn to_dense(&self) -> DenseMatrix {
        let mut d = DenseMatrix::zeros(self.n_rows, self.n_cols);
        for (i, j, v) in self.iter() {
            d.set(i, j, v);
        }
        d
    }

    /// Frobenius norm of the matrix.
    pub fn frobenius_norm(&self) -> f64 {
        self.values.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Scales every stored value by `s`.
    pub fn scale(&self, s: f64) -> CsrMatrix {
        let mut out = self.clone();
        for v in &mut out.values {
            *v *= s;
        }
        out
    }

    /// Maximum absolute difference between two matrices over the union of
    /// their patterns.  Useful for approximate equality in tests.
    pub fn max_abs_diff(&self, other: &CsrMatrix) -> SparseResult<f64> {
        let delta = self.delta_to(other, 0.0)?;
        Ok(delta
            .iter()
            .map(|&(_, _, a, b)| (a - b).abs())
            .fold(0.0, f64::max))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perm::Permutation;

    fn sample() -> CsrMatrix {
        // [ 2 0 1 ]
        // [ 0 3 0 ]
        // [ 4 0 5 ]
        let mut coo = CooMatrix::new(3, 3);
        for &(i, j, v) in &[
            (0, 0, 2.0),
            (0, 2, 1.0),
            (1, 1, 3.0),
            (2, 0, 4.0),
            (2, 2, 5.0),
        ] {
            coo.push(i, j, v).unwrap();
        }
        CsrMatrix::from_coo(&coo)
    }

    #[test]
    fn from_coo_sums_duplicates() {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, 1.0).unwrap();
        coo.push(0, 0, 2.5).unwrap();
        coo.push(1, 1, -1.0).unwrap();
        let m = CsrMatrix::from_coo(&coo);
        assert_eq!(m.nnz(), 2);
        assert_eq!(m.get(0, 0), 3.5);
        assert_eq!(m.get(1, 1), -1.0);
    }

    #[test]
    fn get_returns_zero_for_missing() {
        let m = sample();
        assert_eq!(m.get(0, 1), 0.0);
        assert_eq!(m.get(2, 2), 5.0);
        assert_eq!(m.get(9, 9), 0.0);
    }

    #[test]
    fn identity_matrix() {
        let i = CsrMatrix::identity(3);
        assert_eq!(i.nnz(), 3);
        assert_eq!(i.get(1, 1), 1.0);
        assert_eq!(i.get(0, 1), 0.0);
        assert!(i.is_square());
    }

    #[test]
    fn mul_vec_matches_dense() {
        let m = sample();
        let x = vec![1.0, 2.0, 3.0];
        let y = m.mul_vec(&x).unwrap();
        assert_eq!(
            y,
            vec![2.0 * 1.0 + 1.0 * 3.0, 3.0 * 2.0, 4.0 * 1.0 + 5.0 * 3.0]
        );
        assert!(m.mul_vec(&[1.0]).is_err());
    }

    #[test]
    fn mul_vec_transposed_matches_transpose() {
        let m = sample();
        let x = vec![1.0, -1.0, 2.0];
        let a = m.mul_vec_transposed(&x).unwrap();
        let b = m.transpose().mul_vec(&x).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn pattern_matches_entries() {
        let m = sample();
        let p = m.pattern();
        assert_eq!(p.nnz(), 5);
        assert!(p.contains(2, 0));
        assert!(!p.contains(0, 1));
    }

    #[test]
    fn transpose_swaps_indices() {
        let m = sample();
        let t = m.transpose();
        assert_eq!(t.get(0, 2), 4.0);
        assert_eq!(t.get(2, 0), 1.0);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn add_scaled_combines_entries() {
        let m = sample();
        let s = m.add_scaled(1.0, &m, 1.0).unwrap();
        assert_eq!(s.get(0, 0), 4.0);
        let z = m.add_scaled(1.0, &m, -1.0).unwrap();
        assert_eq!(z.frobenius_norm(), 0.0);
    }

    #[test]
    fn delta_to_lists_changes() {
        let a = sample();
        let mut coo = CooMatrix::new(3, 3);
        for (i, j, v) in a.iter() {
            coo.push(i, j, v).unwrap();
        }
        coo.push(1, 0, 7.0).unwrap(); // new entry
        coo.push(0, 2, -1.0).unwrap(); // 1.0 -> 0.0 numeric change (sums to 0)
        let b = CsrMatrix::from_coo(&coo);
        let delta = a.delta_to(&b, 1e-12).unwrap();
        // (0,2): 1 -> 0 and (1,0): 0 -> 7
        assert!(delta.contains(&(0, 2, 1.0, 0.0)));
        assert!(delta.contains(&(1, 0, 0.0, 7.0)));
        assert_eq!(delta.len(), 2);
        assert!(a.delta_to(&a, 0.0).unwrap().is_empty());
    }

    #[test]
    fn merge_writes_overwrites_inserts_and_removes() {
        let m = sample();
        // Overwrite (0,0), insert (0,1), drop (2,0), zero on the absent (2,1).
        let merged = m.merge_writes(&[(0, 0, -2.0), (0, 1, 7.0), (2, 0, 0.0), (2, 1, 0.0)]);
        let entries: Vec<_> = merged.iter().collect();
        assert_eq!(
            entries,
            vec![
                (0, 0, -2.0),
                (0, 1, 7.0),
                (0, 2, 1.0),
                (1, 1, 3.0),
                (2, 2, 5.0)
            ]
        );
        // The untouched middle row came through the bulk copy.
        assert_eq!(merged.row(1), m.row(1));
        assert_eq!(merged.nnz(), 5);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn merge_writes_rejects_a_repeated_position() {
        sample().merge_writes(&[(1, 1, 1.0), (1, 1, 2.0)]);
    }

    #[test]
    #[should_panic(expected = "outside the 3x3 matrix")]
    fn merge_writes_rejects_an_out_of_bounds_write() {
        sample().merge_writes(&[(1, 3, 1.0)]);
    }

    #[test]
    fn reorder_permutes_rows_and_columns() {
        let m = sample();
        // Reverse both rows and columns.
        let p = Permutation::from_new_to_old(vec![2, 1, 0]).unwrap();
        let o = Ordering::new(p.clone(), p);
        let r = m.reorder(&o).unwrap();
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(r.get(i, j), m.get(2 - i, 2 - j));
            }
        }
    }

    #[test]
    fn reorder_identity_is_noop() {
        let m = sample();
        let o = Ordering::identity(3);
        assert_eq!(m.reorder(&o).unwrap(), m);
    }

    #[test]
    fn prune_drops_small_offdiagonal_entries() {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, 0.0).unwrap();
        coo.push(0, 1, 1e-15).unwrap();
        coo.push(1, 1, 2.0).unwrap();
        let m = CsrMatrix::from_coo(&coo).prune(1e-12);
        assert!(m.pattern().contains(0, 0)); // diagonal kept
        assert!(!m.pattern().contains(0, 1));
        assert_eq!(m.get(1, 1), 2.0);
    }

    #[test]
    fn to_dense_roundtrip_values() {
        let m = sample();
        let d = m.to_dense();
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(d.get(i, j), m.get(i, j));
            }
        }
    }

    #[test]
    fn max_abs_diff_detects_difference() {
        let a = sample();
        let b = a.scale(1.0);
        assert_eq!(a.max_abs_diff(&b).unwrap(), 0.0);
        let c = a.scale(2.0);
        assert_eq!(a.max_abs_diff(&c).unwrap(), 5.0);
    }
}
