//! Dynamically structured LU factors.
//!
//! [`DynamicLuFactors`] stores the combined factors `Â = L + U` in the
//! adjacency-list representation of the paper's Figure 4, where fill-ins that
//! appear during an incremental update are *inserted* into the lists on
//! demand.  This is the storage the straightforward incremental algorithms
//! (INC, CINC) use, and the structural maintenance it performs — node
//! insertions, list probes — is the cost the paper measures at roughly 70 %
//! of Bennett's running time.  The counters of the underlying
//! [`AdjacencyMatrix`] expose that cost to the benchmark harness.

use crate::bennett::LuStorage;
use crate::error::{LuError, LuResult};
use crate::factors::{factorize_fresh, LuFactors, SINGULAR_TOL};
use crate::refactor::FrozenRows;
use clude_sparse::{AdjacencyMatrix, CooMatrix, CsrMatrix, StructuralStats};

/// LU factors held in mutable adjacency lists (row lists with values plus
/// per-column structural lists).
#[derive(Debug, Clone)]
pub struct DynamicLuFactors {
    n: usize,
    /// Strictly-lower slots hold `L`, diagonal and upper slots hold `U`.
    values: AdjacencyMatrix,
    /// List position of the diagonal in the row [`LuStorage::pivot`] last
    /// located; checked before use, so a stale hint costs a search and
    /// nothing else.
    diag_hint: usize,
}

impl DynamicLuFactors {
    /// Performs a full decomposition of `a` ([`crate::factorize_fresh`], the
    /// up-looking kernel) and converts it with
    /// [`DynamicLuFactors::from_static`].
    pub fn factorize(a: &CsrMatrix) -> LuResult<Self> {
        factorize_fresh(a).map(|factors| Self::from_static(&factors))
    }

    /// Converts a statically structured factorization into dynamic storage.
    pub fn from_static(factors: &LuFactors) -> Self {
        let n = factors.n();
        let mut values = AdjacencyMatrix::zeros(n, n);
        for i in 0..n {
            for slot in factors.structure().row_range(i) {
                let j = factors.structure().col_of_slot(slot);
                let v = factors.value(slot);
                if v != 0.0 || i == j {
                    values.set(i, j, v);
                }
            }
        }
        values.reset_stats();
        DynamicLuFactors {
            n,
            values,
            diag_hint: 0,
        }
    }

    /// Matrix order.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of stored list nodes (`|sp(Â)|` of the current factors).
    pub fn nnz(&self) -> usize {
        self.values.nnz()
    }

    /// Structural-maintenance counters accumulated by updates so far.
    pub fn structural_stats(&self) -> StructuralStats {
        self.values.stats()
    }

    /// Resets the structural-maintenance counters.
    pub fn reset_structural_stats(&mut self) {
        self.values.reset_stats();
    }

    /// `L(i, j)` with the implicit unit diagonal.
    pub fn l(&self, i: usize, j: usize) -> f64 {
        if i == j {
            1.0
        } else if j > i {
            0.0
        } else {
            self.values.get(i, j)
        }
    }

    /// `U(i, j)`.
    pub fn u(&self, i: usize, j: usize) -> f64 {
        if j < i {
            0.0
        } else {
            self.values.get(i, j)
        }
    }

    /// Whether position `(i, j)` is structurally present in the factors —
    /// explicitly stored zeros count as present, values merely implied (the
    /// unit diagonal of `L`, anything outside the lists) do not.
    ///
    /// This is the membership test the engine's value-only/structural delta
    /// classification runs against: an update whose every entry lands on a
    /// present position can be refactored down the frozen pattern.
    pub fn has_entry(&self, i: usize, j: usize) -> bool {
        self.values.contains(i, j)
    }

    /// List position of `(k, k)` in row `k`: the hint when it still points
    /// at the diagonal — the sweep reads a pivot, overwrites it and walks the
    /// row past it, and row `k` does not change in between — else one search.
    fn diag_pos(&mut self, k: usize) -> Option<usize> {
        if self.values.row_cols(k).get(self.diag_hint) != Some(&k) {
            self.diag_hint = self.values.locate(k, k).ok()?;
        }
        Some(self.diag_hint)
    }

    /// Solves `L U x = b`.
    pub fn solve(&self, b: &[f64]) -> LuResult<Vec<f64>> {
        let mut x = Vec::new();
        self.solve_into(b, &mut x)?;
        Ok(x)
    }

    /// Allocation-free variant of [`DynamicLuFactors::solve`]: substitutes
    /// in place inside `x`, reusing its capacity (the previous content is
    /// discarded).
    pub fn solve_into(&self, b: &[f64], x: &mut Vec<f64>) -> LuResult<()> {
        if b.len() != self.n {
            return Err(LuError::DimensionMismatch {
                expected: self.n,
                actual: b.len(),
            });
        }
        x.clear();
        x.extend_from_slice(b);
        for i in 0..self.n {
            let mut acc = x[i];
            let (cols, vals) = self.values.row(i);
            for (&j, &v) in cols.iter().zip(vals.iter()) {
                if j < i {
                    acc -= v * x[j];
                } else {
                    break;
                }
            }
            x[i] = acc;
        }
        for i in (0..self.n).rev() {
            let mut acc = x[i];
            let mut diag = 0.0;
            let (cols, vals) = self.values.row(i);
            for (&j, &v) in cols.iter().zip(vals.iter()) {
                if j > i {
                    acc -= v * x[j];
                } else if j == i {
                    diag = v;
                }
            }
            if !diag.is_finite() || diag.abs() < SINGULAR_TOL {
                return Err(LuError::SingularPivot {
                    index: i,
                    value: diag,
                });
            }
            x[i] = acc / diag;
        }
        Ok(())
    }

    /// Panel variant of [`DynamicLuFactors::solve_into`]: solves `n_rhs`
    /// systems stacked column-major in `b` (`n_rhs` stripes of length `n`),
    /// writing the solutions into `x` in the same layout.  The adjacency
    /// lists are traversed once per row for the whole panel; per column the
    /// floating-point sequence matches the single-RHS path exactly, so every
    /// stripe is bit-identical to a sequential solve.
    pub fn solve_many_into(&self, b: &[f64], n_rhs: usize, x: &mut Vec<f64>) -> LuResult<()> {
        let n = self.n;
        if b.len() != n * n_rhs {
            return Err(LuError::DimensionMismatch {
                expected: n * n_rhs,
                actual: b.len(),
            });
        }
        x.clear();
        x.extend_from_slice(b);
        for i in 0..n {
            let (cols, vals) = self.values.row(i);
            for (&j, &v) in cols.iter().zip(vals.iter()) {
                if j < i {
                    for c in 0..n_rhs {
                        x[c * n + i] -= v * x[c * n + j];
                    }
                } else {
                    break;
                }
            }
        }
        for i in (0..n).rev() {
            let mut diag = 0.0;
            let (cols, vals) = self.values.row(i);
            for (&j, &v) in cols.iter().zip(vals.iter()) {
                if j > i {
                    for c in 0..n_rhs {
                        x[c * n + i] -= v * x[c * n + j];
                    }
                } else if j == i {
                    diag = v;
                }
            }
            if !diag.is_finite() || diag.abs() < SINGULAR_TOL {
                return Err(LuError::SingularPivot {
                    index: i,
                    value: diag,
                });
            }
            for c in 0..n_rhs {
                x[c * n + i] /= diag;
            }
        }
        Ok(())
    }

    /// Every stored list node as `(row, col, value)`, row-major with
    /// ascending columns per row — **including explicitly stored zeros**.
    ///
    /// Bennett updates write through the cursor walks of [`AdjacencyMatrix`],
    /// which keep a zero landing on a *present* position as a stored entry;
    /// dropping those zeros on export would change `nnz()` (and with it the
    /// quality-loss metric and every downstream refresh decision), so the
    /// durable form must carry them.  Together with
    /// [`DynamicLuFactors::from_sorted_entries`] this is a bit-identical
    /// round trip: same structure, same values, same `nnz`.
    pub fn export_entries(&self) -> Vec<(usize, usize, f64)> {
        let mut out = Vec::with_capacity(self.nnz());
        for i in 0..self.n {
            let (cols, vals) = self.values.row(i);
            for (&j, &v) in cols.iter().zip(vals.iter()) {
                out.push((i, j, v));
            }
        }
        out
    }

    /// Rebuilds factors of order `n` from an [`export_entries`] list
    /// (row-major, ascending columns, in-bounds).  The adjacency lists are
    /// reconstructed node by node through the structural `set` path — zeros
    /// included — so the result is bit-identical to the exported factors.
    ///
    /// Entries out of bounds or out of order are rejected (the list may have
    /// been read from a file, so the validation failure is corrupt or
    /// foreign input, never a programming error on the hot path).
    ///
    /// [`export_entries`]: DynamicLuFactors::export_entries
    pub fn from_sorted_entries(n: usize, entries: &[(usize, usize, f64)]) -> LuResult<Self> {
        let mut values = AdjacencyMatrix::zeros(n, n);
        let mut last: Option<(usize, usize)> = None;
        for &(i, j, v) in entries {
            if i >= n || j >= n {
                return Err(LuError::EntryOutsideStructure { row: i, col: j });
            }
            if let Some(prev) = last {
                if (i, j) <= prev {
                    return Err(LuError::EntryOutsideStructure { row: i, col: j });
                }
            }
            last = Some((i, j));
            values.set(i, j, v);
        }
        values.reset_stats();
        Ok(DynamicLuFactors {
            n,
            values,
            diag_hint: 0,
        })
    }

    /// The lower factor `L` (with unit diagonal) as CSR.
    pub fn l_matrix(&self) -> CsrMatrix {
        let mut coo = CooMatrix::with_capacity(self.n, self.n, self.nnz());
        for i in 0..self.n {
            let (cols, vals) = self.values.row(i);
            for (&j, &v) in cols.iter().zip(vals.iter()) {
                if j < i && v != 0.0 {
                    coo.push(i, j, v).expect("in bounds");
                }
            }
            coo.push(i, i, 1.0).expect("in bounds");
        }
        CsrMatrix::from_coo(&coo)
    }

    /// The upper factor `U` as CSR.
    pub fn u_matrix(&self) -> CsrMatrix {
        let mut coo = CooMatrix::with_capacity(self.n, self.n, self.nnz());
        for i in 0..self.n {
            let (cols, vals) = self.values.row(i);
            for (&j, &v) in cols.iter().zip(vals.iter()) {
                if j == i || (j > i && v != 0.0) {
                    coo.push(i, j, v).expect("in bounds");
                }
            }
        }
        CsrMatrix::from_coo(&coo)
    }

    /// Recomputes `L·U` for verification.
    pub fn reconstruct(&self) -> CsrMatrix {
        let l = self.l_matrix();
        let u = self.u_matrix();
        let mut coo = CooMatrix::with_capacity(self.n, self.n, self.nnz() * 4);
        for i in 0..self.n {
            let (lcols, lvals) = l.row(i);
            for (&k, &lv) in lcols.iter().zip(lvals.iter()) {
                let (ucols, uvals) = u.row(k);
                for (&j, &uv) in ucols.iter().zip(uvals.iter()) {
                    coo.push(i, j, lv * uv).expect("in bounds");
                }
            }
        }
        CsrMatrix::from_coo(&coo)
    }
}

/// Dynamic storage walks row `k` of `U` with a cursor over the row's own
/// arrays (a fill-in is spliced in where the cursor stands) and column `k` of
/// `L` through the column's row list, one row search per stored entry.
impl LuStorage for DynamicLuFactors {
    fn order(&self) -> usize {
        self.n
    }

    fn pivot(&mut self, k: usize) -> f64 {
        match self.diag_pos(k) {
            Some(pos) => self.values.row_vals(k)[pos],
            None => 0.0,
        }
    }

    fn set_pivot(&mut self, k: usize, value: f64) {
        if let Some(pos) = self.diag_pos(k) {
            self.values.row_mut(k).1[pos] = value;
        }
    }

    fn update_l_col(
        &mut self,
        k: usize,
        support: &[usize],
        f: impl FnMut(usize, f64) -> f64,
    ) -> LuResult<()> {
        self.values.update_col_after(k, k, support, f);
        Ok(())
    }

    fn update_u_row(
        &mut self,
        k: usize,
        support: &[usize],
        f: impl FnMut(usize, f64) -> f64,
    ) -> LuResult<()> {
        let Some(diag) = self.diag_pos(k) else {
            return Err(LuError::SingularPivot {
                index: k,
                value: 0.0,
            });
        };
        self.values.update_row_from(k, diag + 1, support, f);
        Ok(())
    }
}

/// The lists know no closed layout, so every frozen pass over them is a
/// full pass of the queue kernel.
impl FrozenRows for DynamicLuFactors {
    #[inline]
    fn order(&self) -> usize {
        self.n
    }

    #[inline]
    fn row(&self, i: usize) -> (&[usize], &[f64]) {
        self.values.row(i)
    }

    #[inline]
    fn row_mut(&mut self, i: usize) -> (&[usize], &mut [f64]) {
        self.values.row_mut(i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::factors::factorize_fresh;
    use crate::test_support::write_entry;
    use clude_sparse::CooMatrix;

    fn sample_matrix() -> CsrMatrix {
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
    fn export_import_round_trip_is_bit_identical() {
        let a = sample_matrix();
        let mut dynamic = DynamicLuFactors::factorize(&a).unwrap();
        // Force an explicitly stored zero: writing 0.0 to a present position
        // keeps the list node (the Bennett write path does this routinely).
        write_entry(&mut dynamic, 0, 2, 0.0);
        let entries = dynamic.export_entries();
        assert_eq!(entries.len(), dynamic.nnz());
        assert!(entries
            .iter()
            .any(|&(i, j, v)| i == 0 && j == 2 && v == 0.0));
        let rebuilt = DynamicLuFactors::from_sorted_entries(dynamic.n(), &entries).unwrap();
        assert_eq!(rebuilt.n(), dynamic.n());
        assert_eq!(rebuilt.nnz(), dynamic.nnz());
        assert_eq!(rebuilt.export_entries(), entries);
        // Same solves, bit for bit.
        let b = vec![1.0, -2.0, 0.5, 3.0];
        let x0 = dynamic.solve(&b).unwrap();
        let x1 = rebuilt.solve(&b).unwrap();
        for (a, b) in x0.iter().zip(x1.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn a_flat_copy_of_updated_lists_solves_bit_for_bit_as_the_lists() {
        // What INC and CINC keep of each member: the lists after Bennett's
        // updates, copied into flat storage, stored zeros included.
        let mut lists = DynamicLuFactors::factorize(&sample_matrix()).unwrap();
        let delta = [(0, 2, 1.0, 0.0), (3, 1, 0.0, 2.0), (2, 2, 6.0, 7.5)];
        let mut ws = crate::bennett::BennettWorkspace::new();
        crate::bennett::apply_delta_with(&mut lists, &mut ws, &delta).unwrap();
        let entries = lists.export_entries();
        assert!(entries.iter().any(|&(_, _, v)| v == 0.0), "a stored zero");
        let flat = crate::LuFactors::from_sorted_entries(lists.n(), &entries).unwrap();
        assert_eq!(flat.export_entries(), entries);
        let bits = |x: Vec<f64>| x.into_iter().map(f64::to_bits).collect::<Vec<_>>();
        for b in [vec![1.0, -2.0, 0.5, 3.0], vec![0.25; 4]] {
            let (by_lists, by_copy) = (lists.solve(&b).unwrap(), flat.solve(&b).unwrap());
            assert_eq!(bits(by_lists), bits(by_copy));
        }
    }

    #[test]
    fn from_sorted_entries_rejects_bad_input() {
        // Out of bounds.
        let err = DynamicLuFactors::from_sorted_entries(2, &[(0, 5, 1.0)]).unwrap_err();
        assert!(matches!(err, LuError::EntryOutsideStructure { col: 5, .. }));
        // Out of order (decoded from a corrupt payload).
        let err =
            DynamicLuFactors::from_sorted_entries(3, &[(1, 1, 1.0), (0, 0, 1.0)]).unwrap_err();
        assert!(matches!(err, LuError::EntryOutsideStructure { .. }));
        // Duplicate position.
        let err =
            DynamicLuFactors::from_sorted_entries(3, &[(1, 1, 1.0), (1, 1, 2.0)]).unwrap_err();
        assert!(matches!(err, LuError::EntryOutsideStructure { .. }));
    }

    #[test]
    fn dynamic_factorization_matches_static() {
        let a = sample_matrix();
        let dynamic = DynamicLuFactors::factorize(&a).unwrap();
        let fixed = factorize_fresh(&a).unwrap();
        for i in 0..4 {
            for j in 0..4 {
                assert!((dynamic.l(i, j) - fixed.l(i, j)).abs() < 1e-14);
                assert!((dynamic.u(i, j) - fixed.u(i, j)).abs() < 1e-14);
            }
        }
        assert!(dynamic.reconstruct().max_abs_diff(&a).unwrap() < 1e-12);
    }

    #[test]
    fn solve_matches_static_solve() {
        let a = sample_matrix();
        let dynamic = DynamicLuFactors::factorize(&a).unwrap();
        let fixed = factorize_fresh(&a).unwrap();
        let b = vec![0.5, -1.0, 2.0, 3.0];
        let xd = dynamic.solve(&b).unwrap();
        let xs = fixed.solve(&b).unwrap();
        for (u, v) in xd.iter().zip(xs.iter()) {
            assert!((u - v).abs() < 1e-12);
        }
        assert!(dynamic.solve(&[1.0]).is_err());
    }

    #[test]
    fn structural_counters_start_clean_and_track_writes() {
        let a = sample_matrix();
        let mut dynamic = DynamicLuFactors::factorize(&a).unwrap();
        assert_eq!(dynamic.structural_stats(), StructuralStats::default());
        // A write to a brand-new position is a structural insert.
        assert!(!dynamic.has_entry(3, 1));
        write_entry(&mut dynamic, 3, 1, 0.25);
        assert_eq!(dynamic.structural_stats().inserts, 1);
        assert_eq!(dynamic.l(3, 1), 0.25);
        // Writing an exact zero to an absent position does nothing.
        write_entry(&mut dynamic, 1, 3, 0.0);
        assert_eq!(dynamic.structural_stats().inserts, 1);
        assert!(!dynamic.has_entry(1, 3));
        dynamic.reset_structural_stats();
        assert_eq!(dynamic.structural_stats(), StructuralStats::default());
    }

    #[test]
    fn triangular_views() {
        let a = sample_matrix();
        let dynamic = DynamicLuFactors::factorize(&a).unwrap();
        for (i, j, _) in dynamic.l_matrix().iter() {
            assert!(i >= j);
        }
        for (i, j, _) in dynamic.u_matrix().iter() {
            assert!(j >= i);
        }
        // The Bennett walks see exactly the strict triangles of pivot 0.
        let mut dynamic = dynamic;
        let mut lower0 = Vec::new();
        dynamic
            .update_l_col(0, &[], |i, old| {
                lower0.push(i);
                old
            })
            .unwrap();
        assert_eq!(lower0, vec![1, 3]);
        let mut upper0 = Vec::new();
        dynamic
            .update_u_row(0, &[], |j, old| {
                upper0.push(j);
                old
            })
            .unwrap();
        assert_eq!(upper0, vec![2]);
    }
}
