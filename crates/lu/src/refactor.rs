//! Pattern-frozen refactorization (the KLU `refactor` idea).
//!
//! When a delta batch changes only edge *values* — the steady-state case on
//! real evolving-graph workloads — the symbolic pattern of the factors is
//! still valid: the new matrix's fill is covered by the slots the factors
//! already hold.  Redoing the numerics down that frozen pattern in one
//! row-wise pass is then much cheaper than replaying the batch as per-entry
//! Bennett rank-one sweeps, because the pass costs one factorization's worth
//! of flops *total* instead of one partial sweep *per changed entry*, and it
//! performs no structural probes or insertions at all.
//!
//! [`refactor_frozen`] is that pass.  It consumes the updated matrix (in
//! factor coordinates, i.e. already reordered) and rewrites the values of a
//! [`DynamicLuFactors`] in place through the mutable-row view — the adjacency
//! lists themselves are never touched.  Three things abort the pass, and each
//! maps onto a distinct engine fallback:
//!
//! * an input entry outside the stored pattern
//!   ([`LuError::EntryOutsideStructure`]) — the batch was mis-classified as
//!   value-only; the caller should fall back to Bennett sweeps or refresh;
//! * elimination fill landing outside the stored pattern above
//!   [`FILL_DROP_TOL`] ([`LuError::FillOutsideStructure`]) — the frozen
//!   pattern no longer covers this matrix (possible after stored-zero slots
//!   were dropped by earlier sweeps); refresh re-derives the pattern;
//! * a pivot collapsing below [`SINGULAR_TOL`] or degrading past
//!   [`PIVOT_DEGRADE_TOL`] relative to its row
//!   ([`LuError::SingularPivot`]) — numerics demand a fresh factorization
//!   with a new ordering.
//!
//! On error the factors hold partially rewritten values (the structure is
//! intact but rows before the failure point already carry new numbers), so
//! the caller **must** rebuild them via a full refresh — which is exactly
//! what the engine's fallback path does.

// lint: hot-path

use crate::dynamic::DynamicLuFactors;
use crate::error::{LuError, LuResult};
use crate::factors::SINGULAR_TOL;
use clude_sparse::CsrMatrix;

/// Magnitude below which elimination fill landing outside the frozen pattern
/// is dropped as numerical noise (mirrors the Bennett sweep's convention).
pub use crate::bennett::FILL_DROP_TOL;

/// A refactor pivot smaller than this fraction of its row's largest entry is
/// treated as degraded: without pivoting, continuing would amplify rounding
/// error, so the pass aborts and the caller refreshes with a new ordering.
pub const PIVOT_DEGRADE_TOL: f64 = 1e-12;

/// Work counters for one frozen-pattern refactorization.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RefactorStats {
    /// Rows whose values were recomputed (the matrix order on success).
    pub rows_refactored: usize,
    /// Factor slots rewritten.
    pub entries_written: usize,
    /// Row-elimination steps performed (one per nonzero `L` coefficient).
    pub eliminations: usize,
    /// Multiply-adds those steps performed (the eliminated-against row's
    /// stored entries past its diagonal, per step).
    pub multiply_adds: u64,
}

/// Reusable scratch for [`refactor_frozen`]: one dense epoch-stamped row
/// workspace plus the pending-pivot queue, retained across calls so the
/// steady-state pass is allocation-free (the same discipline as
/// [`crate::bennett::BennettWorkspace`]).
#[derive(Debug, Clone, Default)]
pub struct RefactorWorkspace {
    epoch: u64,
    work: Vec<f64>,
    stamp: Vec<u64>,
    /// Columns touched in the current row, unsorted.
    touched: Vec<usize>,
    /// Sorted queue of lower-triangular pivots still to eliminate against;
    /// `pending[..pending_pos]` is already processed.
    pending: Vec<usize>,
    pending_pos: usize,
}

impl RefactorWorkspace {
    /// Creates an empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        RefactorWorkspace::default()
    }

    /// Creates a workspace with dense scratch pre-sized for order `n`.
    pub fn with_order(n: usize) -> Self {
        let mut ws = RefactorWorkspace::new();
        ws.grow(n);
        ws
    }

    /// The order the dense scratch currently covers.
    pub fn capacity(&self) -> usize {
        self.work.len()
    }

    fn grow(&mut self, n: usize) {
        if self.work.len() < n {
            self.work.resize(n, 0.0);
            self.stamp.resize(n, 0);
        }
    }

    /// Readies the workspace for one row of order-`n` elimination.
    fn begin_row(&mut self, n: usize) {
        self.grow(n);
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.stamp.fill(0);
            self.epoch = 1;
        }
        self.touched.clear();
        self.pending.clear();
        self.pending_pos = 0;
    }

    #[inline]
    fn get(&self, j: usize) -> f64 {
        if self.stamp[j] == self.epoch {
            self.work[j]
        } else {
            0.0
        }
    }

    /// Marks `j` touched (zero-initialised on first touch); returns whether
    /// it was newly touched.
    #[inline]
    fn touch(&mut self, j: usize) -> bool {
        if self.stamp[j] != self.epoch {
            self.stamp[j] = self.epoch;
            self.work[j] = 0.0;
            self.touched.push(j);
            true
        } else {
            false
        }
    }

    #[inline]
    fn pending_pop(&mut self) -> Option<usize> {
        let k = *self.pending.get(self.pending_pos)?;
        self.pending_pos += 1;
        Some(k)
    }

    /// Queues pivot `k`; sweep insertions always satisfy `k >` the last
    /// popped pivot, so only the unprocessed tail is searched.
    fn pending_push(&mut self, k: usize) {
        debug_assert!(self.pending_pos == 0 || k > self.pending[self.pending_pos - 1]);
        if let Err(pos) = self.pending[self.pending_pos..].binary_search(&k) {
            self.pending.insert(self.pending_pos + pos, k);
        }
    }
}

/// Recomputes the values of `factors` so they factorize `a`, without changing
/// the stored pattern.  `a` must be given in the factors' own (reordered)
/// coordinates.  See the module docs for the failure contract.
pub fn refactor_frozen(
    factors: &mut DynamicLuFactors,
    a: &CsrMatrix,
    ws: &mut RefactorWorkspace,
) -> LuResult<RefactorStats> {
    let n = factors.n();
    if a.n_rows() != n || a.n_cols() != n {
        return Err(LuError::DimensionMismatch {
            expected: n,
            actual: a.n_rows(),
        });
    }
    let mut stats = RefactorStats::default();
    for i in 0..n {
        ws.begin_row(n);
        // Scatter row i of A.  Every input entry must sit on a stored slot —
        // anything else means the batch was not value-only after all.  Both
        // column lists ascend, so membership is one merge walk down the row.
        let (cols, vals) = a.row(i);
        let stored = factors.row_entries(i).0;
        let mut pos = 0;
        for (&j, &v) in cols.iter().zip(vals.iter()) {
            while stored.get(pos).is_some_and(|&c| c < j) {
                pos += 1;
            }
            if stored.get(pos) != Some(&j) {
                return Err(LuError::EntryOutsideStructure { row: i, col: j });
            }
            ws.touch(j);
            ws.work[j] = v;
            if j < i {
                ws.pending_push(j);
            }
        }
        // Eliminate against the already-recomputed rows of U, in ascending
        // pivot order; fill spawned left of the diagonal re-enters the queue.
        while let Some(k) = ws.pending_pop() {
            let (kcols, kvals) = factors.row_entries(k);
            let diag_pos = kcols.partition_point(|&c| c < k);
            let ukk = if kcols.get(diag_pos) == Some(&k) {
                kvals[diag_pos]
            } else {
                0.0
            };
            if !ukk.is_finite() || ukk.abs() < SINGULAR_TOL {
                return Err(LuError::SingularPivot {
                    index: k,
                    value: ukk,
                });
            }
            let lik = ws.get(k) / ukk;
            ws.work[k] = lik;
            if lik == 0.0 {
                continue;
            }
            stats.eliminations += 1;
            stats.multiply_adds += (kcols.len() - diag_pos - 1) as u64;
            for (&j, &ukj) in kcols[diag_pos + 1..].iter().zip(&kvals[diag_pos + 1..]) {
                if ukj == 0.0 {
                    continue;
                }
                if ws.touch(j) && j < i {
                    ws.pending_push(j);
                }
                ws.work[j] -= lik * ukj;
            }
        }
        // Pivot health: absolute floor plus relative degradation against the
        // largest magnitude the elimination produced in this row.
        let pivot = ws.get(i);
        let row_max = ws
            .touched
            .iter()
            .map(|&j| ws.work[j].abs())
            .fold(0.0f64, f64::max);
        if !pivot.is_finite()
            || pivot.abs() < SINGULAR_TOL
            || pivot.abs() < PIVOT_DEGRADE_TOL * row_max
        {
            return Err(LuError::SingularPivot {
                index: i,
                value: pivot,
            });
        }
        // Fill escaping the frozen pattern?  Tolerate noise, abort otherwise.
        // One pass down the stored row counts the touched columns it covers;
        // only when some touched column is left over (rare) is each one
        // looked up to find the escapee.
        let row_cols = factors.row_entries(i).0;
        let epoch = ws.epoch;
        let covered = row_cols.iter().filter(|&&j| ws.stamp[j] == epoch).count();
        if covered != ws.touched.len() {
            for t in 0..ws.touched.len() {
                let j = ws.touched[t];
                let v = ws.work[j];
                if v != 0.0 && row_cols.binary_search(&j).is_err() && v.abs() > FILL_DROP_TOL {
                    return Err(LuError::FillOutsideStructure {
                        row: i,
                        col: j,
                        magnitude: v.abs(),
                    });
                }
                // Sub-tolerance fill outside the pattern is dropped, matching
                // the Bennett sweep.
            }
        }
        // Gather: rewrite every stored slot of row i in place.  Slots the
        // elimination never reached are genuinely zero in the new factors
        // (stored zeros keep their node — the pattern is frozen).
        let (cols, vals_mut) = factors.row_entries_mut(i);
        for (pos, &j) in cols.iter().enumerate() {
            vals_mut[pos] = if ws.stamp[j] == epoch {
                ws.work[j]
            } else {
                0.0
            };
        }
        stats.entries_written += cols.len();
        stats.rows_refactored += 1;
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bennett::apply_delta_with;
    use crate::bennett::BennettWorkspace;
    use clude_sparse::CooMatrix;

    fn diag_dominant(n: usize, extra: &[(usize, usize, f64)]) -> CsrMatrix {
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 8.0 + i as f64).unwrap();
        }
        for &(i, j, v) in extra {
            coo.push(i, j, v).unwrap();
        }
        CsrMatrix::from_coo(&coo)
    }

    fn base_matrix() -> CsrMatrix {
        diag_dominant(
            5,
            &[
                (0, 2, 1.0),
                (1, 0, -1.5),
                (2, 1, 2.0),
                (3, 2, -0.5),
                (4, 0, 1.0),
                (2, 4, 0.5),
            ],
        )
    }

    /// Applies a value-only delta list to a matrix.
    fn perturbed(a: &CsrMatrix, delta: &[(usize, usize, f64, f64)]) -> CsrMatrix {
        let mut coo = CooMatrix::new(a.n_rows(), a.n_cols());
        for (i, j, v) in a.iter() {
            coo.push(i, j, v).unwrap();
        }
        for &(i, j, old, new) in delta {
            coo.push(i, j, new - old).unwrap();
        }
        CsrMatrix::from_coo(&coo)
    }

    #[test]
    fn refactor_matches_fresh_factorization() {
        let a = base_matrix();
        let mut factors = DynamicLuFactors::factorize(&a).unwrap();
        let delta = vec![
            (0usize, 2usize, 1.0f64, 1.4f64),
            (1, 0, -1.5, -0.9),
            (2, 4, 0.5, 0.1),
        ];
        let a_new = perturbed(&a, &delta);
        let mut ws = RefactorWorkspace::new();
        let stats = refactor_frozen(&mut factors, &a_new, &mut ws).unwrap();
        assert_eq!(stats.rows_refactored, 5);
        assert!(stats.entries_written >= factors.nnz());
        let fresh = DynamicLuFactors::factorize(&a_new).unwrap();
        for i in 0..5 {
            for j in 0..5 {
                assert!(
                    (factors.l(i, j) - fresh.l(i, j)).abs() < 1e-12,
                    "L({i},{j})"
                );
                assert!(
                    (factors.u(i, j) - fresh.u(i, j)).abs() < 1e-12,
                    "U({i},{j})"
                );
            }
        }
    }

    #[test]
    fn refactor_agrees_with_bennett_sweeps() {
        let a = base_matrix();
        let mut via_refactor = DynamicLuFactors::factorize(&a).unwrap();
        let mut via_bennett = via_refactor.clone();
        let delta = vec![
            (0usize, 0usize, 8.0f64, 9.5f64),
            (2, 1, 2.0, -1.0),
            (4, 0, 1.0, 0.25),
        ];
        let a_new = perturbed(&a, &delta);
        let mut rws = RefactorWorkspace::new();
        refactor_frozen(&mut via_refactor, &a_new, &mut rws).unwrap();
        let mut bws = BennettWorkspace::new();
        apply_delta_with(&mut via_bennett, &mut bws, &delta).unwrap();
        for i in 0..5 {
            for j in 0..5 {
                assert!(
                    (via_refactor.l(i, j) - via_bennett.l(i, j)).abs() < 1e-9,
                    "L({i},{j})"
                );
                assert!(
                    (via_refactor.u(i, j) - via_bennett.u(i, j)).abs() < 1e-9,
                    "U({i},{j})"
                );
            }
        }
    }

    #[test]
    fn zeroed_entry_keeps_the_frozen_slot() {
        // Removing an edge zeroes a matrix entry; the refactor keeps the slot
        // as a stored zero and the numerics match a fresh factorization.
        let a = base_matrix();
        let mut factors = DynamicLuFactors::factorize(&a).unwrap();
        let nnz_before = factors.nnz();
        let delta = vec![(2usize, 4usize, 0.5f64, 0.0f64)];
        let a_new = perturbed(&a, &delta);
        let mut ws = RefactorWorkspace::new();
        refactor_frozen(&mut factors, &a_new, &mut ws).unwrap();
        assert_eq!(factors.nnz(), nnz_before);
        let fresh = DynamicLuFactors::factorize(&a_new).unwrap();
        let b = vec![1.0, -2.0, 0.5, 3.0, 0.25];
        let x0 = factors.solve(&b).unwrap();
        let x1 = fresh.solve(&b).unwrap();
        for (u, v) in x0.iter().zip(x1.iter()) {
            assert!((u - v).abs() < 1e-10);
        }
    }

    #[test]
    fn entry_outside_pattern_is_rejected() {
        let a = base_matrix();
        let mut factors = DynamicLuFactors::factorize(&a).unwrap();
        // (3, 1) is neither a matrix entry nor fill of this pattern.
        assert!(!factors.has_entry(3, 1));
        let a_new = perturbed(&a, &[(3, 1, 0.0, 2.0)]);
        let mut ws = RefactorWorkspace::new();
        let err = refactor_frozen(&mut factors, &a_new, &mut ws).unwrap_err();
        assert!(matches!(
            err,
            LuError::EntryOutsideStructure { row: 3, col: 1 }
        ));
    }

    #[test]
    fn fill_escaping_the_frozen_pattern_is_rejected_above_the_tolerance() {
        // Row 1 eliminates against row 0, whose (0, 2) entry spawns fill at
        // (1, 2) — a position these factors (decoded without that node, as
        // after a sweep dropped a stored zero) do not hold.
        let entries = [
            (0, 0, 4.0),
            (0, 2, 1.0),
            (1, 0, 0.5),
            (1, 1, 5.0),
            (2, 2, 6.0),
        ];
        let matrix = |a02: f64| {
            let mut coo = CooMatrix::new(3, 3);
            for (i, j, v) in [
                (0, 0, 4.0),
                (0, 2, a02),
                (1, 0, 2.0),
                (1, 1, 5.0),
                (2, 2, 6.0),
            ] {
                coo.push(i, j, v).unwrap();
            }
            CsrMatrix::from_coo(&coo)
        };
        let mut ws = RefactorWorkspace::new();
        let mut factors = DynamicLuFactors::from_sorted_entries(3, &entries).unwrap();
        let err = refactor_frozen(&mut factors, &matrix(1.0), &mut ws).unwrap_err();
        assert!(matches!(
            err,
            LuError::FillOutsideStructure { row: 1, col: 2, magnitude } if magnitude == 0.5
        ));
        // The same fill under FILL_DROP_TOL is noise: dropped, pass succeeds.
        let mut factors = DynamicLuFactors::from_sorted_entries(3, &entries).unwrap();
        refactor_frozen(&mut factors, &matrix(1e-10), &mut ws).unwrap();
        assert_eq!(factors.nnz(), entries.len());
        assert_eq!(factors.l(1, 0), 0.5);
        assert_eq!(factors.u(0, 2), 1e-10);
    }

    #[test]
    fn degraded_pivot_is_rejected() {
        let a = base_matrix();
        let mut factors = DynamicLuFactors::factorize(&a).unwrap();
        // Collapse the (0,0) pivot to zero.
        let a_new = perturbed(&a, &[(0, 0, 8.0, 0.0)]);
        let mut ws = RefactorWorkspace::new();
        let err = refactor_frozen(&mut factors, &a_new, &mut ws).unwrap_err();
        assert!(matches!(err, LuError::SingularPivot { index: 0, .. }));
    }

    #[test]
    fn dimension_mismatch_is_rejected() {
        let a = base_matrix();
        let mut factors = DynamicLuFactors::factorize(&a).unwrap();
        let small = diag_dominant(3, &[]);
        let mut ws = RefactorWorkspace::new();
        assert!(matches!(
            refactor_frozen(&mut factors, &small, &mut ws).unwrap_err(),
            LuError::DimensionMismatch { .. }
        ));
    }

    #[test]
    fn workspace_is_reusable_across_orders() {
        let mut ws = RefactorWorkspace::new();
        let large = diag_dominant(8, &[(5, 1, 1.0), (2, 6, -0.5)]);
        let mut f_large = DynamicLuFactors::factorize(&large).unwrap();
        let large_new = perturbed(&large, &[(5, 1, 1.0, 2.0)]);
        refactor_frozen(&mut f_large, &large_new, &mut ws).unwrap();
        assert_eq!(ws.capacity(), 8);
        let small = diag_dominant(3, &[(1, 0, 0.5)]);
        let mut f_small = DynamicLuFactors::factorize(&small).unwrap();
        let small_new = perturbed(&small, &[(1, 0, 0.5, -0.25)]);
        refactor_frozen(&mut f_small, &small_new, &mut ws).unwrap();
        assert_eq!(ws.capacity(), 8);
        let fresh_small = DynamicLuFactors::factorize(&small_new).unwrap();
        let fresh_large = DynamicLuFactors::factorize(&large_new).unwrap();
        for i in 0..3 {
            for j in 0..3 {
                assert!((f_small.u(i, j) - fresh_small.u(i, j)).abs() < 1e-12);
            }
        }
        for i in 0..8 {
            for j in 0..8 {
                assert!((f_large.u(i, j) - fresh_large.u(i, j)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn repeated_refactors_do_not_drift() {
        // A long value-churn stream refactored step after step stays within
        // fresh-factorization accuracy (no error accumulation: each pass
        // recomputes from the matrix, unlike incremental sweeps).
        let a = base_matrix();
        let mut factors = DynamicLuFactors::factorize(&a).unwrap();
        let mut current = a;
        let mut ws = RefactorWorkspace::new();
        for step in 0..20 {
            let s = step as f64;
            let delta = vec![
                (0usize, 2usize, current.get(0, 2), 1.0 + 0.1 * s),
                (2, 1, current.get(2, 1), 2.0 - 0.05 * s),
            ];
            current = perturbed(&current, &delta);
            refactor_frozen(&mut factors, &current, &mut ws).unwrap();
        }
        let fresh = DynamicLuFactors::factorize(&current).unwrap();
        for i in 0..5 {
            for j in 0..5 {
                assert!((factors.l(i, j) - fresh.l(i, j)).abs() < 1e-12);
                assert!((factors.u(i, j) - fresh.u(i, j)).abs() < 1e-12);
            }
        }
    }
}
