//! Numeric LU factors over a static structure (the ND-phase of §2.3).
//!
//! [`LuFactors`] stores the combined factors `Â = L + U` of one matrix in the
//! slot layout of a shared [`LuStructure`].  `L` is unit lower triangular
//! (its implicit diagonal is not stored); the diagonal slots hold the pivots
//! of `U`.  The numeric phase is a row-wise sparse Gaussian elimination
//! (equivalent to Crout/Doolittle) that scatters each row into a dense
//! workspace, eliminates against the previously computed rows of `U`, and
//! gathers the result back into the slots — no structural work happens here,
//! by construction.  That row kernel is also what the up-looking kernel of
//! [`crate::symbolic`] and the reach-limited [`crate::refactor_frozen_reach`]
//! run.

use crate::bennett::{LuStorage, FILL_DROP_TOL};
use crate::error::{LuError, LuResult};
use crate::refactor::FrozenRows;
use crate::structure::LuStructure;
use crate::symbolic::factorize_up_looking;
use clude_sparse::adjacency::merge_step;
use clude_sparse::{CooMatrix, CsrMatrix};
use std::sync::Arc;

/// Pivot magnitudes below this threshold are treated as singular.
pub const SINGULAR_TOL: f64 = 1e-300;

/// The numeric LU factors of one matrix, laid out over a shared structure.
#[derive(Debug)]
pub struct LuFactors {
    structure: Arc<LuStructure>,
    values: Vec<f64>,
}

impl Clone for LuFactors {
    fn clone(&self) -> Self {
        LuFactors {
            structure: Arc::clone(&self.structure),
            values: self.values.clone(),
        }
    }

    /// Copies `source`'s values into this allocation, reusing it.
    fn clone_from(&mut self, source: &Self) {
        self.structure.clone_from(&source.structure);
        self.values.clone_from(&source.values);
    }
}

impl LuFactors {
    /// Factorizes `a` over the given structure.
    ///
    /// Every structural entry of `a` must be covered by the structure, which
    /// is closed under elimination and may cover more (those slots simply
    /// hold zeros, which is how CLUDE shares one universal structure across a
    /// whole cluster).  The same row kernel factorizes a matrix over its own
    /// pattern ([`factorize_fresh`]) and recomputes a changed matrix's reach
    /// ([`crate::refactor_frozen_reach`]).
    pub fn factorize(structure: Arc<LuStructure>, a: &CsrMatrix) -> LuResult<Self> {
        if !a.is_square() {
            return Err(LuError::NotSquare {
                n_rows: a.n_rows(),
                n_cols: a.n_cols(),
            });
        }
        if a.n_rows() != structure.n() {
            return Err(LuError::DimensionMismatch {
                expected: structure.n(),
                actual: a.n_rows(),
            });
        }
        let mut values = vec![0.0; structure.nnz()];
        let mut work = vec![0.0; structure.n()];
        for i in 0..structure.n() {
            factorize_row(&structure, i, a.row(i), &mut values, &mut work, 0.0)?;
        }
        Ok(LuFactors { structure, values })
    }

    /// Rebuilds factors of order `n` from an [`LuFactors::export_entries`]
    /// list: row-major, ascending columns, every row holding its diagonal,
    /// every value finite.  The structure holds exactly the listed slots,
    /// zeros included, so the result exports the same list bit for bit.
    ///
    /// The list may have been read from a file, so anything else is corrupt
    /// or foreign input and an error, never a panic: an entry out of
    /// range or out of order is an [`LuError::EntryOutsideStructure`], a
    /// missing diagonal an [`LuError::SingularPivot`] (value `0.0`), a NaN or
    /// infinite value an [`LuError::InvalidParameter`] named `"factors"`.
    pub fn from_sorted_entries(n: usize, entries: &[(usize, usize, f64)]) -> LuResult<Self> {
        let mut row_ptr = vec![0usize; n + 1];
        let mut cols = Vec::with_capacity(entries.len());
        let mut values = Vec::with_capacity(entries.len());
        let mut last = None;
        for &(i, j, v) in entries {
            if i >= n || j >= n || last >= Some((i, j)) {
                return Err(LuError::EntryOutsideStructure { row: i, col: j });
            }
            if !v.is_finite() {
                return Err(LuError::InvalidParameter {
                    name: "factors",
                    value: v,
                });
            }
            last = Some((i, j));
            row_ptr[i + 1] += 1;
            cols.push(j);
            values.push(v);
        }
        for i in 0..n {
            row_ptr[i + 1] += row_ptr[i];
        }
        let structure =
            LuStructure::from_sorted_rows(n, cols.len(), |i| &cols[row_ptr[i]..row_ptr[i + 1]])?;
        Ok(LuFactors::from_values(Arc::new(structure), values))
    }

    /// Factors whose slot values, in `structure`'s row-major order, are
    /// `values`.
    pub(crate) fn from_values(structure: Arc<LuStructure>, values: Vec<f64>) -> Self {
        debug_assert_eq!(values.len(), structure.nnz());
        LuFactors { structure, values }
    }

    /// Every slot's value, in the structure's row-major slot order.
    pub(crate) fn values(&self) -> &[f64] {
        &self.values
    }

    /// Values of row `i`'s slots, parallel to [`LuStructure::row_cols`].
    #[inline]
    pub(crate) fn row_values(&self, i: usize) -> &[f64] {
        &self.values[self.structure.row_range(i)]
    }

    /// Every slot as `(row, col, value)`, row-major with ascending columns
    /// per row — **including slots holding an exact zero** — the list
    /// [`LuFactors::from_sorted_entries`] rebuilds the factors from.
    pub fn export_entries(&self) -> Vec<(usize, usize, f64)> {
        let mut out = Vec::with_capacity(self.nnz());
        for i in 0..self.n() {
            for slot in self.structure.row_range(i) {
                out.push((i, self.structure.col_of_slot(slot), self.values[slot]));
            }
        }
        out
    }

    /// The shared structure underlying these factors.
    #[inline]
    pub fn structure(&self) -> &Arc<LuStructure> {
        &self.structure
    }

    /// Matrix order `n`.
    #[inline]
    pub fn n(&self) -> usize {
        self.structure.n()
    }

    /// Number of slots (`|s̃p|` of the structure), i.e. the size of the
    /// decomposed representation `Â`.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Number of slots holding a numerically non-zero value.  With a
    /// structure tailored to the matrix this approximates `|sp(Â)|`; with a
    /// universal structure it shows how much of the slack is actually used.
    pub fn numeric_nnz(&self) -> usize {
        self.values.iter().filter(|v| **v != 0.0).count()
    }

    /// The value of `L(i, j)` (`i > j`); the implicit unit diagonal and zeros
    /// outside the structure are returned as such.
    pub fn l(&self, i: usize, j: usize) -> f64 {
        if i == j {
            return 1.0;
        }
        if j > i {
            return 0.0;
        }
        self.structure
            .slot(i, j)
            .map_or(0.0, |slot| self.values[slot])
    }

    /// The value of `U(i, j)` (`j ≥ i`); zeros outside the structure are
    /// returned as such.
    pub fn u(&self, i: usize, j: usize) -> f64 {
        if j < i {
            return 0.0;
        }
        self.structure
            .slot(i, j)
            .map_or(0.0, |slot| self.values[slot])
    }

    /// Raw slot value access.
    pub(crate) fn value(&self, slot: usize) -> f64 {
        self.values[slot]
    }

    /// Solves `L U x = b` by forward then backward substitution.
    pub fn solve(&self, b: &[f64]) -> LuResult<Vec<f64>> {
        let mut x = Vec::new();
        self.solve_into(b, &mut x)?;
        Ok(x)
    }

    /// Allocation-free variant of [`LuFactors::solve`]: copies `b` into `x`,
    /// reusing its capacity (the previous content is discarded), and
    /// substitutes there with [`LuFactors::solve_in_place`].
    pub fn solve_into(&self, b: &[f64], x: &mut Vec<f64>) -> LuResult<()> {
        x.clear();
        x.extend_from_slice(b);
        self.solve_in_place(x)
    }

    /// Solves `L U x = b` by forward then backward substitution, overwriting
    /// `x`, which holds `b` on entry — the one single right-hand-side
    /// substitution kernel.  On an error `x` holds a partial substitution.
    pub fn solve_in_place(&self, x: &mut [f64]) -> LuResult<()> {
        let n = self.n();
        if x.len() != n {
            return Err(LuError::DimensionMismatch {
                expected: n,
                actual: x.len(),
            });
        }
        // Forward: L y = b (unit diagonal).
        for i in 0..n {
            let mut acc = x[i];
            for slot in self.structure.lower_row_slots(i) {
                let k = self.structure.col_of_slot(slot);
                acc -= self.values[slot] * x[k];
            }
            x[i] = acc;
        }
        // Backward: U x = y.
        for i in (0..n).rev() {
            let mut acc = x[i];
            let mut upper = self.structure.upper_row_slots(i);
            let diag_slot = upper.next().expect("diagonal always present");
            for slot in upper {
                let j = self.structure.col_of_slot(slot);
                acc -= self.values[slot] * x[j];
            }
            let pivot = self.values[diag_slot];
            if !pivot.is_finite() || pivot.abs() < SINGULAR_TOL {
                return Err(LuError::SingularPivot {
                    index: i,
                    value: pivot,
                });
            }
            x[i] = acc / pivot;
        }
        Ok(())
    }

    /// Panel variant of [`LuFactors::solve_into`]: solves `n_rhs` systems
    /// whose right-hand sides are stacked column-major in `b` (`n_rhs`
    /// contiguous stripes of length `n`), writing the solutions into `x` in
    /// the same layout, through [`LuFactors::solve_many_in_place`].
    pub fn solve_many_into(&self, b: &[f64], n_rhs: usize, x: &mut Vec<f64>) -> LuResult<()> {
        x.clear();
        x.extend_from_slice(b);
        self.solve_many_in_place(x, n_rhs)
    }

    /// Panel variant of [`LuFactors::solve_in_place`] over `n_rhs` stripes
    /// of length `n` stacked column-major in `x`.
    ///
    /// The factor structure is traversed **once** for the whole panel: the
    /// loop order is rows outer, structural slots middle, panel columns
    /// inner.  Per panel column the floating-point operation sequence is
    /// exactly that of [`LuFactors::solve_in_place`], so each stripe of the
    /// result is bit-identical to a single right-hand-side solve.
    pub fn solve_many_in_place(&self, x: &mut [f64], n_rhs: usize) -> LuResult<()> {
        let n = self.n();
        if x.len() != n * n_rhs {
            return Err(LuError::DimensionMismatch {
                expected: n * n_rhs,
                actual: x.len(),
            });
        }
        // Forward: L y = b (unit diagonal), all panel columns per slot.
        for i in 0..n {
            for slot in self.structure.lower_row_slots(i) {
                let k = self.structure.col_of_slot(slot);
                let v = self.values[slot];
                for c in 0..n_rhs {
                    x[c * n + i] -= v * x[c * n + k];
                }
            }
        }
        // Backward: U x = y.
        for i in (0..n).rev() {
            let mut upper = self.structure.upper_row_slots(i);
            let diag_slot = upper.next().expect("diagonal always present");
            for slot in upper {
                let j = self.structure.col_of_slot(slot);
                let v = self.values[slot];
                for c in 0..n_rhs {
                    x[c * n + i] -= v * x[c * n + j];
                }
            }
            let pivot = self.values[diag_slot];
            if !pivot.is_finite() || pivot.abs() < SINGULAR_TOL {
                return Err(LuError::SingularPivot {
                    index: i,
                    value: pivot,
                });
            }
            for c in 0..n_rhs {
                x[c * n + i] /= pivot;
            }
        }
        Ok(())
    }

    /// Solves the transposed system `(L U)ᵀ x = b` in place: `Uᵀ` forward,
    /// then `Lᵀ` backward (unit diagonal).  The factors are stored by rows,
    /// which are the columns of the transposes, so each step finishes one
    /// entry and scatters it down that row's slots — the same multiply-adds
    /// as [`LuFactors::solve_in_place`].  A pivot that is not finite or
    /// below [`SINGULAR_TOL`] is an [`LuError::SingularPivot`]; on an error
    /// `x` holds a partial substitution.
    pub fn solve_transposed_in_place(&self, x: &mut [f64]) -> LuResult<()> {
        let n = self.n();
        if x.len() != n {
            return Err(LuError::DimensionMismatch {
                expected: n,
                actual: x.len(),
            });
        }
        // Forward: Uᵀ y = b — entry i is final once divided by its pivot.
        for i in 0..n {
            let mut upper = self.structure.upper_row_slots(i);
            let diag_slot = upper.next().expect("diagonal always present");
            let pivot = self.values[diag_slot];
            if !pivot.is_finite() || pivot.abs() < SINGULAR_TOL {
                return Err(LuError::SingularPivot {
                    index: i,
                    value: pivot,
                });
            }
            x[i] /= pivot;
            for slot in upper {
                let j = self.structure.col_of_slot(slot);
                x[j] -= self.values[slot] * x[i];
            }
        }
        // Backward: Lᵀ x = y (unit diagonal).
        for i in (0..n).rev() {
            for slot in self.structure.lower_row_slots(i) {
                let k = self.structure.col_of_slot(slot);
                x[k] -= self.values[slot] * x[i];
            }
        }
        Ok(())
    }

    /// The lower factor `L` (with its unit diagonal) as a CSR matrix.
    pub fn l_matrix(&self) -> CsrMatrix {
        let n = self.n();
        let mut coo = CooMatrix::with_capacity(n, n, self.nnz());
        for i in 0..n {
            for slot in self.structure.lower_row_slots(i) {
                let j = self.structure.col_of_slot(slot);
                let v = self.values[slot];
                if v != 0.0 {
                    coo.push(i, j, v).expect("in bounds");
                }
            }
            coo.push(i, i, 1.0).expect("in bounds");
        }
        CsrMatrix::from_coo(&coo)
    }

    /// The upper factor `U` as a CSR matrix.
    pub fn u_matrix(&self) -> CsrMatrix {
        let n = self.n();
        let mut coo = CooMatrix::with_capacity(n, n, self.nnz());
        for i in 0..n {
            for slot in self.structure.upper_row_slots(i) {
                let j = self.structure.col_of_slot(slot);
                let v = self.values[slot];
                if v != 0.0 || j == i {
                    coo.push(i, j, v).expect("in bounds");
                }
            }
        }
        CsrMatrix::from_coo(&coo)
    }

    /// Recomputes `L·U`, which should reproduce the factorized matrix.  Used
    /// by tests and by the verification examples.
    pub fn reconstruct(&self) -> CsrMatrix {
        let n = self.n();
        let u = self.u_matrix();
        let mut coo = CooMatrix::with_capacity(n, n, self.nnz() * 4);
        for i in 0..n {
            // Row i of L (including implicit diagonal) times U.
            let mut l_entries: Vec<(usize, f64)> = self
                .structure
                .lower_row_slots(i)
                .filter_map(|slot| {
                    let v = self.values[slot];
                    (v != 0.0).then(|| (self.structure.col_of_slot(slot), v))
                })
                .collect();
            l_entries.push((i, 1.0));
            for (k, lv) in l_entries {
                let (cols, vals) = u.row(k);
                for (&j, &uv) in cols.iter().zip(vals.iter()) {
                    coo.push(i, j, lv * uv).expect("in bounds");
                }
            }
        }
        CsrMatrix::from_coo(&coo)
    }
}

/// Row `i` of the numeric phase, in place — the one numeric row kernel over
/// a structure closed under elimination, so every update lands on a slot.
/// The `U` rows that row `i`'s `L` slots name must be finished in `values`.
/// One merge walk scatters `a_row` onto the row's slots of the dense `work`,
/// zeroing the rest; an entry off the slots is an
/// [`LuError::EntryOutsideStructure`], a non-finite one the
/// [`LuError::InvalidParameter`] named `"matrix"`.  The row then eliminates
/// against those `U` rows in ascending column order; a pivot that is not
/// finite, below [`SINGULAR_TOL`] or below `degrade_tol` times the row's
/// largest magnitude (`0.0` disables that guard) is an
/// [`LuError::SingularPivot`].  Only a row that passed writes its slots.
/// Returns the row's multiply-adds.
#[inline]
pub(crate) fn factorize_row(
    structure: &LuStructure,
    i: usize,
    (cols, vals): (&[usize], &[f64]),
    values: &mut [f64],
    work: &mut [f64],
    degrade_tol: f64,
) -> LuResult<u64> {
    let row = structure.row_cols(i);
    let mut next = 0;
    for &j in row {
        work[j] = 0.0;
        if cols.get(next) == Some(&j) {
            let value = vals[next];
            if !value.is_finite() {
                return Err(LuError::InvalidParameter {
                    name: "matrix",
                    value,
                });
            }
            work[j] = value;
            next += 1;
        }
    }
    // The walk stalls at the first entry off the slots.
    if let Some(&col) = cols.get(next) {
        return Err(LuError::EntryOutsideStructure { row: i, col });
    }
    let mut multiply_adds = 0;
    for &k in &row[..structure.lower_row_slots(i).len()] {
        let lik = work[k] / values[structure.diag_slot(k)];
        work[k] = lik;
        if lik != 0.0 {
            let upper = structure.upper_row_cols(k);
            let first = structure.diag_slot(k) + 1;
            multiply_adds += upper.len() as u64;
            for (&j, &ukj) in upper.iter().zip(&values[first..first + upper.len()]) {
                work[j] -= lik * ukj;
            }
        }
    }
    let row_max = row.iter().fold(0.0f64, |max, &j| max.max(work[j].abs()));
    let pivot = work[i];
    if !pivot.is_finite() || pivot.abs() < SINGULAR_TOL || pivot.abs() < degrade_tol * row_max {
        return Err(LuError::SingularPivot {
            index: i,
            value: pivot,
        });
    }
    for (value, &j) in values[structure.row_range(i)].iter_mut().zip(row) {
        *value = work[j];
    }
    Ok(multiply_adds)
}

/// One Bennett walk over static slots: visits, ascending, the structural
/// indices `covered` (the value of `covered[p]` lives in `values[slot_of(p)]`)
/// merged with the sweep's sorted `support`, and stores `f(index, old)` where
/// it differs from `old`.  No search happens: the structure hands over slots,
/// not coordinates.  An index only `support` names is outside the structure:
/// it reads as zero and may receive nothing but numerical noise — a result
/// above [`FILL_DROP_TOL`] is the error `outside(index, magnitude)`.
fn walk_slots(
    values: &mut [f64],
    covered: &[usize],
    slot_of: impl Fn(usize) -> usize,
    support: &[usize],
    mut f: impl FnMut(usize, f64) -> f64,
    outside: impl Fn(usize, f64) -> LuError,
) -> LuResult<()> {
    let (mut p, mut s) = (0, 0);
    while let Some((index, present)) = merge_step(covered.get(p).copied(), support, &mut s) {
        if present {
            let value = &mut values[slot_of(p)];
            let new = f(index, *value);
            if new != *value {
                *value = new;
            }
            p += 1;
        } else {
            let new = f(index, 0.0);
            if new.abs() <= FILL_DROP_TOL {
                continue;
            }
            return Err(outside(index, new.abs()));
        }
    }
    Ok(())
}

/// Static storage addresses column `k` of `L` through the structure's
/// strictly-lower column index (`(rows, slots)` — the values themselves are
/// row-major), which the first sweep over a structure builds and every
/// factor set sharing it then reads, and row `k` of `U` through the
/// contiguous slots past the diagonal.
impl LuStorage for LuFactors {
    fn order(&self) -> usize {
        self.n()
    }

    fn pivot(&mut self, k: usize) -> f64 {
        self.values[self.structure.diag_slot(k)]
    }

    fn set_pivot(&mut self, k: usize, value: f64) {
        self.values[self.structure.diag_slot(k)] = value;
    }

    fn update_l_col(
        &mut self,
        k: usize,
        support: &[usize],
        f: impl FnMut(usize, f64) -> f64,
    ) -> LuResult<()> {
        let (rows, slots) = self.structure.lower_col(k);
        walk_slots(
            &mut self.values,
            rows,
            |p| slots[p],
            support,
            f,
            |row, magnitude| LuError::FillOutsideStructure {
                row,
                col: k,
                magnitude,
            },
        )
    }

    fn update_u_row(
        &mut self,
        k: usize,
        support: &[usize],
        f: impl FnMut(usize, f64) -> f64,
    ) -> LuResult<()> {
        let first = self.structure.diag_slot(k) + 1;
        walk_slots(
            &mut self.values,
            self.structure.upper_row_cols(k),
            |p| first + p,
            support,
            f,
            |col, magnitude| LuError::FillOutsideStructure {
                row: k,
                col,
                magnitude,
            },
        )
    }
}

/// A flat block: the structure answers whether it is closed.
impl FrozenRows for LuFactors {
    #[inline]
    fn order(&self) -> usize {
        self.n()
    }

    #[inline]
    fn row(&self, i: usize) -> (&[usize], &[f64]) {
        (self.structure.row_cols(i), self.row_values(i))
    }

    #[inline]
    fn row_mut(&mut self, i: usize) -> (&[usize], &mut [f64]) {
        let range = self.structure.row_range(i);
        (self.structure.row_cols(i), &mut self.values[range])
    }

    #[inline]
    fn closed_mut(&mut self) -> Option<(&Arc<LuStructure>, &mut [f64])> {
        let closed = self.structure.is_elimination_closed();
        closed.then_some((&self.structure, &mut self.values))
    }
}

/// Factorizes a matrix over a structure built from its own symbolic sparsity
/// pattern (the per-matrix workflow of BF): the up-looking kernel
/// ([`crate::symbolic`]), pattern and values in one pass, with the guards of
/// [`LuFactors::factorize`].
pub fn factorize_fresh(a: &CsrMatrix) -> LuResult<LuFactors> {
    factorize_up_looking(a)
}

#[cfg(test)]
mod tests {
    use super::*;
    use clude_sparse::{CooMatrix, DenseMatrix};

    fn sample_matrix() -> CsrMatrix {
        // Diagonally dominant, with some sparsity and a fill-in-producing
        // pattern.
        let mut coo = CooMatrix::new(4, 4);
        let entries = [
            (0, 0, 4.0),
            (0, 2, 1.0),
            (1, 0, -1.0),
            (1, 1, 5.0),
            (2, 1, -2.0),
            (2, 2, 6.0),
            (2, 3, 1.0),
            (3, 0, 1.0),
            (3, 3, 3.0),
        ];
        for &(i, j, v) in &entries {
            coo.push(i, j, v).unwrap();
        }
        CsrMatrix::from_coo(&coo)
    }

    #[test]
    fn factorization_reconstructs_matrix() {
        let a = sample_matrix();
        let f = factorize_fresh(&a).unwrap();
        let back = f.reconstruct();
        assert!(back.max_abs_diff(&a).unwrap() < 1e-12);
    }

    #[test]
    fn factorization_matches_dense_oracle() {
        let a = sample_matrix();
        let f = factorize_fresh(&a).unwrap();
        let (dl, du) = a.to_dense().lu_no_pivoting().unwrap();
        for i in 0..4 {
            for j in 0..4 {
                assert!((f.l(i, j) - dl.get(i, j)).abs() < 1e-12, "L({i},{j})");
                assert!((f.u(i, j) - du.get(i, j)).abs() < 1e-12, "U({i},{j})");
            }
        }
    }

    #[test]
    fn solve_matches_dense_solution() {
        let a = sample_matrix();
        let f = factorize_fresh(&a).unwrap();
        let b = vec![1.0, 2.0, -1.0, 0.5];
        let x = f.solve(&b).unwrap();
        let x_dense = a.to_dense().solve_gaussian(&b).unwrap();
        for (u, v) in x.iter().zip(x_dense.iter()) {
            assert!((u - v).abs() < 1e-10);
        }
        // And A x = b indeed.
        let ax = a.mul_vec(&x).unwrap();
        for (l, r) in ax.iter().zip(b.iter()) {
            assert!((l - r).abs() < 1e-10);
        }
    }

    #[test]
    fn l_and_u_are_triangular() {
        let f = factorize_fresh(&sample_matrix()).unwrap();
        let l = f.l_matrix();
        let u = f.u_matrix();
        for (i, j, _) in l.iter() {
            assert!(i >= j);
        }
        for (i, j, _) in u.iter() {
            assert!(j >= i);
        }
        for i in 0..4 {
            assert_eq!(l.get(i, i), 1.0);
        }
    }

    #[test]
    fn universal_structure_accepts_sub_pattern_matrices() {
        // A structure built for a superset pattern factorizes a matrix whose
        // pattern is a subset (this is the USSP mechanism).
        let a = sample_matrix();
        let mut bigger = a.pattern();
        bigger.insert(3, 1);
        bigger.insert(0, 3);
        let structure = LuStructure::from_pattern(&bigger).unwrap().into_shared();
        let f = LuFactors::factorize(structure, &a).unwrap();
        assert!(f.reconstruct().max_abs_diff(&a).unwrap() < 1e-12);
        assert!(f.nnz() >= factorize_fresh(&a).unwrap().nnz());
        assert!(f.numeric_nnz() <= f.nnz());
    }

    #[test]
    fn entry_outside_structure_is_rejected() {
        let a = sample_matrix();
        // Structure built from a *smaller* pattern must reject the matrix.
        let small = CsrMatrix::identity(4).pattern();
        let structure = LuStructure::from_pattern(&small).unwrap().into_shared();
        let err = LuFactors::factorize(structure, &a).unwrap_err();
        assert!(matches!(err, LuError::EntryOutsideStructure { .. }));
    }

    #[test]
    fn singular_matrix_is_detected() {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, 1.0).unwrap();
        coo.push(1, 0, 1.0).unwrap();
        coo.push(0, 1, 1.0).unwrap();
        coo.push(1, 1, 1.0).unwrap();
        let a = CsrMatrix::from_coo(&coo);
        let err = factorize_fresh(&a).unwrap_err();
        assert!(matches!(err, LuError::SingularPivot { index: 1, .. }));
    }

    #[test]
    fn dimension_checks() {
        let a = sample_matrix();
        let structure = LuStructure::from_pattern(&CsrMatrix::identity(3).pattern())
            .unwrap()
            .into_shared();
        assert!(matches!(
            LuFactors::factorize(structure, &a).unwrap_err(),
            LuError::DimensionMismatch { .. }
        ));
        let f = factorize_fresh(&a).unwrap();
        assert!(matches!(
            f.solve(&[1.0, 2.0]).unwrap_err(),
            LuError::DimensionMismatch { .. }
        ));
    }

    #[test]
    fn solve_identity_is_identity() {
        let a = CsrMatrix::identity(5);
        let f = factorize_fresh(&a).unwrap();
        let b = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(f.solve(&b).unwrap(), b);
        assert_eq!(f.numeric_nnz(), 5);
    }

    #[test]
    fn larger_random_like_matrix_roundtrip() {
        // A 20x20 diagonally dominant banded matrix.
        let n = 20;
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 10.0 + i as f64).unwrap();
            if i + 1 < n {
                coo.push(i, i + 1, -1.0).unwrap();
                coo.push(i + 1, i, -2.0).unwrap();
            }
            if i + 5 < n {
                coo.push(i, i + 5, -0.5).unwrap();
            }
        }
        let a = CsrMatrix::from_coo(&coo);
        let f = factorize_fresh(&a).unwrap();
        assert!(f.reconstruct().max_abs_diff(&a).unwrap() < 1e-10);
        let d = DenseMatrix::from_rows(
            (0..n)
                .map(|i| (0..n).map(|j| a.get(i, j)).collect())
                .collect(),
        );
        let b: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let x = f.solve(&b).unwrap();
        let xd = d.solve_gaussian(&b).unwrap();
        for (u, v) in x.iter().zip(xd.iter()) {
            assert!((u - v).abs() < 1e-9);
        }
    }

    /// The measure matrices of the first and last snapshot of a tiny
    /// wiki-like sequence, each factorized in natural and in Markowitz order.
    fn generator_factors() -> Vec<LuFactors> {
        use clude_graph::generators::{wiki_like, WikiLikeConfig};
        use clude_graph::{evolving_matrix_sequence, MatrixKind};
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let egs = wiki_like::generate(&WikiLikeConfig::tiny(), &mut rng);
        let ems = evolving_matrix_sequence(&egs, MatrixKind::random_walk_default());
        let mut out = Vec::new();
        for a in [&ems[0], &ems[ems.len() - 1]] {
            out.push(factorize_fresh(a).unwrap());
            let ordering = crate::markowitz_ordering(&a.pattern()).ordering;
            out.push(factorize_fresh(&a.reorder(&ordering).unwrap()).unwrap());
        }
        out
    }

    #[test]
    fn solve_in_place_is_the_substitution_solve_into_copies_into() {
        for f in generator_factors() {
            let n = f.n();
            let b: Vec<f64> = (0..n).map(|i| ((i * 13) % 7) as f64 - 2.5).collect();
            let mut copied = Vec::new();
            f.solve_into(&b, &mut copied).unwrap();
            let mut in_place = b.clone();
            f.solve_in_place(&mut in_place).unwrap();
            let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&in_place), bits(&copied));
            // Every stripe of the panel kernel is the same solve.
            let mut panel = b.clone();
            panel.extend(b.iter().map(|v| -2.0 * v));
            f.solve_many_in_place(&mut panel, 2).unwrap();
            assert_eq!(bits(&panel[..n]), bits(&copied));
            let mut second = b.iter().map(|v| -2.0 * v).collect::<Vec<_>>();
            f.solve_in_place(&mut second).unwrap();
            assert_eq!(bits(&panel[n..]), bits(&second));
        }
    }

    #[test]
    fn transposed_solve_matches_a_dense_transposed_solve() {
        // Unpermuted factors of `A` hold `L U = A`, so the transposed kernel
        // solves `Aᵀ x = b`.
        let mut cases = vec![sample_matrix()];
        {
            use clude_graph::generators::{wiki_like, WikiLikeConfig};
            use clude_graph::{evolving_matrix_sequence, MatrixKind};
            use rand::SeedableRng;
            let mut rng = rand::rngs::StdRng::seed_from_u64(11);
            let egs = wiki_like::generate(&WikiLikeConfig::tiny(), &mut rng);
            let ems = evolving_matrix_sequence(&egs, MatrixKind::random_walk_default());
            let a = &ems[0];
            let ordering = crate::markowitz_ordering(&a.pattern()).ordering;
            cases.push(a.reorder(&ordering).unwrap());
        }
        for a in cases {
            let f = factorize_fresh(&a).unwrap();
            let n = f.n();
            let b: Vec<f64> = (0..n).map(|i| ((i * 7) % 5) as f64 - 1.5).collect();
            let mut x = b.clone();
            f.solve_transposed_in_place(&mut x).unwrap();
            let dense = a.transpose().to_dense().solve_gaussian(&b).unwrap();
            for (got, want) in x.iter().zip(&dense) {
                assert!((got - want).abs() < 1e-10, "{got} vs {want}");
            }
            // And `Aᵀ x = b` indeed.
            for (l, r) in a.mul_vec_transposed(&x).unwrap().iter().zip(&b) {
                assert!((l - r).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn a_zero_pivot_fails_the_transposed_kernels() {
        for at in [0, 5, 31] {
            for mut f in generator_factors() {
                f.set_pivot(at, 0.0);
                let is_at = |err: LuError| matches!(err, LuError::SingularPivot { index, value } if index == at && value == 0.0);
                let b = vec![1.0; f.n()];
                assert!(is_at(
                    f.solve_transposed_in_place(&mut b.clone()).unwrap_err()
                ));
            }
        }
        let f = factorize_fresh(&sample_matrix()).unwrap();
        assert!(matches!(
            f.solve_transposed_in_place(&mut [1.0, 2.0]).unwrap_err(),
            LuError::DimensionMismatch { .. }
        ));
    }

    #[test]
    fn a_bad_pivot_fails_every_kernel_at_its_index() {
        for (bad, at) in [(0.0, 0), (f64::NAN, 5), (f64::INFINITY, 17), (0.0, 31)] {
            for mut f in generator_factors() {
                f.set_pivot(at, bad);
                let b = vec![1.0; f.n()];
                let is_at = |err: LuError| {
                    matches!(err, LuError::SingularPivot { index, value }
                        if index == at && value.to_bits() == bad.to_bits())
                };
                assert!(is_at(f.solve_into(&b, &mut Vec::new()).unwrap_err()));
                assert!(is_at(f.solve_in_place(&mut b.clone()).unwrap_err()));
                let mut panel = [b.clone(), b.clone()].concat();
                assert!(is_at(f.solve_many_in_place(&mut panel, 2).unwrap_err()));
            }
        }
    }
}
