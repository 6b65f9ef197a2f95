//! Pattern-frozen refactorization (the KLU `refactor` idea).
//!
//! When a delta batch changes only edge *values* — the steady-state case on
//! real evolving-graph workloads — the symbolic pattern of the factors is
//! still valid, and redoing the numerics down it in one row-wise pass costs
//! one factorization's worth of flops *total* instead of one partial Bennett
//! sweep *per changed entry*, with no structural probes or insertions.
//!
//! [`refactor_frozen_reach`] is that pass over either row storage
//! ([`FrozenRows`]): a flat [`LuFactors`] block — the engine's live factors,
//! a CLUDE member over its cluster's universal structure — or the INC
//! baselines' [`DynamicLuFactors`] lists.  It consumes the updated matrix in
//! the factors' own (reordered) coordinates and rewrites values only.
//! [`refactor_frozen`] is its full pass.
//!
//! **Over a closed structure, only the elimination reach.**  When the
//! storage's structure is closed under elimination
//! ([`LuStructure::is_elimination_closed`]), the pass recomputes only the
//! changed rows' reach — a row whose matrix row changed, or one with an `L`
//! slot naming a row in the reach, found with a marker array by one
//! ascending scan of the rows' `L` columns from the first changed row, or,
//! over a structure the workspace reached over before, by a walk down the
//! `L` columns it listed then — in ascending order, by the one numeric row
//! kernel of
//! [`LuFactors::factorize`], in place.  Row `i` of the factors is a function
//! of row `i` of the matrix and of the `U` rows its `L` slots name, so every
//! other row keeps its values bit for bit, and the guard verdicts it was
//! written under: started from [`LuFactors::factorize`] of the old matrix,
//! the pass leaves every slot what [`LuFactors::factorize`] of the new one
//! writes.  The engine's blocks are always closed
//! ([`crate::extend_structure`] keeps them so across structural batches).
//! Storage with no closed structure — the lists; a block rebuilt from an
//! arbitrary entry list — takes the queue kernel over every row: each row's
//! `L` columns are found as fill spawns them, through a sorted queue, and
//! fill off the stored pattern is checked.
//!
//! Three things abort the pass, and each maps onto a distinct engine
//! fallback:
//!
//! * an input entry outside the stored pattern
//!   ([`LuError::EntryOutsideStructure`]), on any storage — the batch was
//!   mis-classified as value-only; the caller should fall back to Bennett
//!   sweeps or refresh;
//! * elimination fill landing outside the stored pattern above
//!   [`FILL_DROP_TOL`] ([`LuError::FillOutsideStructure`]), only without a
//!   closed structure, which fill cannot escape (the lists, after sweeps
//!   dropped stored-zero slots) — refresh re-derives the pattern;
//! * a pivot collapsing below [`SINGULAR_TOL`] or degrading past
//!   [`PIVOT_DEGRADE_TOL`] relative to its row ([`LuError::SingularPivot`]),
//!   on any storage — numerics demand a fresh ordering.
//!
//! The closed kernel also refuses a non-finite matrix entry as the
//! [`LuError::InvalidParameter`] named `"matrix"`.
//!
//! **A failure writes nothing the caller keeps.**  Each row is rewritten in
//! place once it passed its guards, so on error the rows before the failing
//! one hold new values and the storage must be discarded: the engine runs
//! the pass on a copy of the shard's published block (the copy *is* the next
//! block on success), CLUDE on a spare copy of the predecessor's factors.  A
//! caller that names the changed rows must name every one (a row left out is
//! taken to hold the matrix row its factors were computed from).

// lint: hot-path

use crate::error::{LuError, LuResult};
use crate::factors::{factorize_row, SINGULAR_TOL};
use crate::structure::LuStructure;
#[cfg(doc)]
use crate::{DynamicLuFactors, LuFactors};
use clude_sparse::CsrMatrix;
use std::sync::{Arc, Weak};

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
    /// Rows whose values were recomputed: the elimination reach of the
    /// changed rows, or the matrix order for a full pass.
    pub rows_refactored: usize,
    /// Multiply-adds performed: per nonzero `L` coefficient, the
    /// eliminated-against row's stored entries past its diagonal.
    pub multiply_adds: u64,
}

/// Row-major factor storage a frozen-pattern pass runs over.  The pattern
/// is read, never changed: [`FrozenRows::row_mut`] lends out values only.
pub trait FrozenRows {
    /// Matrix order.
    fn order(&self) -> usize;
    /// Sorted columns and their values of combined-factor row `i` (`L`
    /// strictly left of the diagonal, `U` from it rightwards).
    fn row(&self, i: usize) -> (&[usize], &[f64]);
    /// Row `i`'s sorted columns beside a mutable view of its values.
    fn row_mut(&mut self, i: usize) -> (&[usize], &mut [f64]);
    /// The storage's shared slot layout beside every slot's value, when the
    /// layout is closed under elimination — what lets a pass run the closed
    /// kernel over the reach alone — else `None`.
    #[inline]
    fn closed_mut(&mut self) -> Option<(&Arc<LuStructure>, &mut [f64])> {
        None
    }
}

/// Reusable scratch for [`refactor_frozen_reach`]: one dense epoch-stamped
/// row workspace (its stamps double as the reach's marker array), the
/// queue kernel's pending-pivot queue, the rows a pass recomputes and the
/// reach's own column lists, retained across calls so the steady-state pass
/// is allocation-free (the same discipline as
/// [`crate::bennett::BennettWorkspace`]).
#[derive(Debug, Clone, Default)]
pub struct RefactorWorkspace {
    epoch: u64,
    work: Vec<f64>,
    stamp: Vec<u64>,
    /// Columns touched in the current row, unsorted.
    touched: Vec<usize>,
    /// The queue kernel's sorted queue of lower-triangular pivots still to
    /// eliminate against; `pending[..pending_pos]` is already processed.
    pending: Vec<usize>,
    pending_pos: usize,
    /// The rows the current (or last successful) pass recomputes, ascending.
    rows: Vec<usize>,
    /// The structure the last reach was found over: a [`Weak`] pins its
    /// identity without keeping its slots alive.
    seen: Weak<LuStructure>,
    /// Once a second reach runs over `seen`, its strictly-lower columns'
    /// rows: column `k`'s are `lower_rows[lower_ptr[k]..lower_ptr[k + 1]]`.
    /// Empty until then.
    lower_ptr: Vec<usize>,
    lower_rows: Vec<usize>,
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

    /// The rows the last successful pass recomputed, ascending (empty after
    /// a failed one).
    pub fn refactored_rows(&self) -> &[usize] {
        &self.rows
    }

    #[inline]
    fn grow(&mut self, n: usize) {
        if self.work.len() < n {
            self.work.resize(n, 0.0);
            self.stamp.resize(n, 0);
        }
    }

    /// Fills `rows` with the elimination reach of `changed` over the closed
    /// `structure`, ascending — every row when `changed` is `None`.  A row is
    /// reached when it changed or an `L` slot of it names a reached row, and
    /// the stamps mark the rows reached.
    ///
    /// The first reach over a structure scans its rows once, down from the
    /// first changed one: every row left of a row's diagonal is settled
    /// before the scan gets to it.  That costs the rows below the first
    /// changed one, so a structure reached over again — a block whose
    /// batches all land on stored positions — has its `L` columns' rows
    /// listed here, once, and later reaches walk down them from the changed
    /// rows, at the cost of the reach.  The structure itself builds no
    /// column index.
    fn reach(&mut self, structure: &Arc<LuStructure>, changed: Option<&[usize]>) -> LuResult<()> {
        let n = structure.n();
        self.rows.clear();
        let Some(changed) = changed else {
            self.rows.extend(0..n);
            return Ok(());
        };
        if let Some(&i) = changed.iter().find(|&&i| i >= n) {
            return Err(LuError::DimensionMismatch {
                expected: n,
                actual: i + 1,
            });
        }
        let epoch = self.next_epoch();
        if std::ptr::eq(self.seen.as_ptr(), Arc::as_ptr(structure)) {
            if self.lower_ptr.is_empty() {
                structure.index_lower_into(&mut self.lower_ptr, &mut self.lower_rows, None);
            }
            self.walk(changed, epoch);
        } else {
            self.seen = Arc::downgrade(structure);
            self.lower_ptr.clear();
            self.scan(structure, changed, epoch);
        }
        Ok(())
    }

    /// The reach by one ascending scan of the rows' `L` columns.
    fn scan(&mut self, structure: &LuStructure, changed: &[usize], epoch: u64) {
        let Some(&first) = changed.iter().min() else {
            return;
        };
        for &i in changed {
            self.stamp[i] = epoch;
        }
        let (row_ptr, diag_slot, col_idx) =
            (&structure.row_ptr, &structure.diag_slot, &structure.col_idx);
        for i in first..structure.n() {
            if self.stamp[i] != epoch {
                // Only L columns from `first` on can be stamped: the row's
                // are read from its last, its largest, down.
                let lower = &col_idx[row_ptr[i]..diag_slot[i]];
                let mut from_first = lower.iter().rev().take_while(|&&k| k >= first);
                if !from_first.any(|&k| self.stamp[k] == epoch) {
                    continue;
                }
                self.stamp[i] = epoch;
            }
            self.rows.push(i);
        }
    }

    /// The reach by a walk down the listed `L` columns, `rows` its queue,
    /// sorted afterwards.
    fn walk(&mut self, changed: &[usize], epoch: u64) {
        let RefactorWorkspace {
            stamp,
            rows,
            lower_ptr,
            lower_rows,
            ..
        } = self;
        let (mut next, mut found) = (0, changed);
        loop {
            for &i in found {
                if stamp[i] != epoch {
                    stamp[i] = epoch;
                    rows.push(i);
                }
            }
            let Some(&k) = rows.get(next) else { break };
            next += 1;
            found = &lower_rows[lower_ptr[k]..lower_ptr[k + 1]];
        }
        rows.sort_unstable();
    }

    /// A stamp no slot holds yet.
    #[inline]
    fn next_epoch(&mut self) -> u64 {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.stamp.fill(0);
            self.epoch = 1;
        }
        self.epoch
    }

    /// Readies the workspace for one row of the queue kernel.
    #[inline]
    fn begin_row(&mut self) {
        self.next_epoch();
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

    /// Queues pivot `k` unless it is already queued; insertions always
    /// satisfy `k >` the last popped pivot, so only the unprocessed tail is
    /// searched.
    #[inline]
    fn pending_push(&mut self, k: usize) {
        debug_assert!(self.pending_pos == 0 || k > self.pending[self.pending_pos - 1]);
        if let Err(pos) = self.pending[self.pending_pos..].binary_search(&k) {
            self.pending.insert(self.pending_pos + pos, k);
        }
    }
}

/// Recomputes the values of `factors` so they factorize `a`, without changing
/// the stored pattern: the full pass of [`refactor_frozen_reach`].  `a` must
/// be given in the factors' own (reordered) coordinates.  See the module docs
/// for the failure contract.
pub fn refactor_frozen<S: FrozenRows + ?Sized>(
    factors: &mut S,
    a: &CsrMatrix,
    ws: &mut RefactorWorkspace,
) -> LuResult<RefactorStats> {
    refactor_frozen_reach(factors, a, None, ws)
}

/// Recomputes the values of `factors` so they factorize `a` — given in the
/// factors' own (reordered) coordinates — without changing the stored
/// pattern.
///
/// `changed` names every row in which `a` differs from the matrix the
/// factors currently hold (any order, repeats allowed).  Over a structure
/// closed under elimination only those rows' elimination reach is
/// recomputed, in ascending order by the closed kernel, and every other row
/// keeps its values; without `changed` every row is.  Storage with no closed
/// structure takes the queue kernel over every row.  The rows recomputed are
/// [`RefactorWorkspace::refactored_rows`] afterwards.  See the module docs
/// for the exactness rule and the failure contract.
pub fn refactor_frozen_reach<S: FrozenRows + ?Sized>(
    factors: &mut S,
    a: &CsrMatrix,
    changed: Option<&[usize]>,
    ws: &mut RefactorWorkspace,
) -> LuResult<RefactorStats> {
    let n = factors.order();
    if a.n_rows() != n || a.n_cols() != n {
        return Err(LuError::DimensionMismatch {
            expected: n,
            actual: a.n_rows(),
        });
    }
    ws.grow(n);
    let multiply_adds = match factors.closed_mut() {
        // The closed kernel over the reach, ascending.
        Some((structure, values)) => ws.reach(structure, changed).and_then(|()| {
            ws.rows.iter().try_fold(0, |adds, &i| {
                let row = a.row(i);
                Ok(adds
                    + factorize_row(structure, i, row, values, &mut ws.work, PIVOT_DEGRADE_TOL)?)
            })
        }),
        None => {
            ws.rows.clear();
            ws.rows.extend(0..n);
            (0..n).try_fold(0, |adds, i| Ok(adds + refactor_row(factors, a, i, ws)?))
        }
    };
    match multiply_adds {
        Ok(multiply_adds) => Ok(RefactorStats {
            rows_refactored: ws.rows.len(),
            multiply_adds,
        }),
        Err(err) => {
            ws.rows.clear();
            Err(err)
        }
    }
}

/// The queue kernel, for storage with no closed structure: recomputes row
/// `i` in place, eliminating against the rows above it as the storage holds
/// them — rewritten already in this pass — with fill spawned left of the
/// diagonal queued in sorted order, and fill off the stored pattern checked
/// against [`FILL_DROP_TOL`].  Returns the row's multiply-adds.
fn refactor_row<S: FrozenRows + ?Sized>(
    factors: &mut S,
    a: &CsrMatrix,
    i: usize,
    ws: &mut RefactorWorkspace,
) -> LuResult<u64> {
    ws.begin_row();
    // Scatter row i of A.  Every input entry must sit on a stored slot —
    // anything else means the batch was not value-only after all.  Both
    // column lists ascend, so membership is one merge walk down the row.
    let (cols, vals) = a.row(i);
    let stored = factors.row(i).0;
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
    let mut multiply_adds = 0;
    while let Some(k) = ws.pending_pop() {
        let (kcols, kvals) = factors.row(k);
        // A row that does not store its diagonal holds a zero pivot.
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
        multiply_adds += (kcols.len() - diag_pos - 1) as u64;
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
    if !pivot.is_finite() || pivot.abs() < SINGULAR_TOL || pivot.abs() < PIVOT_DEGRADE_TOL * row_max
    {
        return Err(LuError::SingularPivot {
            index: i,
            value: pivot,
        });
    }
    // Fill escaping the frozen pattern?  Tolerate noise, abort otherwise.
    // One pass down the stored row counts the touched columns it covers;
    // only when some touched column is left over (rare) is each one looked
    // up to find the escapee.
    let row_cols = factors.row(i).0;
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
            // Sub-tolerance fill outside the pattern is dropped, matching the
            // Bennett sweep.
        }
    }
    // Gather: rewrite every stored slot of row i in place.  Slots the
    // elimination never reached are genuinely zero in the new factors
    // (stored zeros keep their slot — the pattern is frozen).
    let (cols, values) = factors.row_mut(i);
    for (value, &j) in values.iter_mut().zip(cols) {
        *value = if ws.stamp[j] == epoch {
            ws.work[j]
        } else {
            0.0
        };
    }
    Ok(multiply_adds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bennett::apply_delta_with;
    use crate::bennett::BennettWorkspace;
    use crate::{DynamicLuFactors, LuFactors};
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
        assert!(ws.refactored_rows().is_empty());
        // The same fill under FILL_DROP_TOL is noise: dropped, pass succeeds.
        let mut factors = DynamicLuFactors::from_sorted_entries(3, &entries).unwrap();
        refactor_frozen(&mut factors, &matrix(1e-10), &mut ws).unwrap();
        assert_eq!(factors.nnz(), entries.len());
        assert_eq!(factors.l(1, 0), 0.5);
        assert_eq!(factors.u(0, 2), 1e-10);
    }

    fn bits(entries: &[(usize, usize, f64)]) -> Vec<(usize, usize, u64)> {
        entries
            .iter()
            .map(|&(i, j, v)| (i, j, v.to_bits()))
            .collect()
    }

    /// Static factors of `a` over the symbolic closure of its pattern, its
    /// values rewritten by one full frozen pass over `a` — the state a
    /// reach-limited pass follows.
    fn after_a_full_pass(a: &CsrMatrix, ws: &mut RefactorWorkspace) -> LuFactors {
        let mut factors = crate::factors::factorize_fresh(a).unwrap();
        assert!(factors.structure().is_elimination_closed());
        refactor_frozen(&mut factors, a, ws).unwrap();
        factors
    }

    #[test]
    fn a_reach_pass_recomputes_only_the_reach_and_equals_the_full_pass() {
        // base_matrix's closed structure: rows 1 and 4 hang off column 0,
        // row 2 off column 1, rows 3 and 4 off column 2, nothing off 3 — so
        // a change in row 3 reaches row 3 alone and one in row 0 everything.
        let a = base_matrix();
        let mut ws = RefactorWorkspace::new();
        let before = after_a_full_pass(&a, &mut ws);
        for (delta, reach) in [
            (vec![(3usize, 2usize, -0.5f64, -0.7f64)], vec![3usize]),
            (vec![(2, 1, 2.0, 1.5)], vec![2, 3, 4]),
            (
                vec![(0, 2, 1.0, 1.25), (3, 3, 11.0, 12.0)],
                vec![0, 1, 2, 3, 4],
            ),
        ] {
            let a_new = perturbed(&a, &delta);
            let changed: Vec<usize> = delta.iter().map(|e| e.0).collect();
            let mut reach_pass = before.clone();
            let stats =
                refactor_frozen_reach(&mut reach_pass, &a_new, Some(&changed), &mut ws).unwrap();
            assert_eq!(ws.refactored_rows(), &reach[..]);
            assert_eq!(stats.rows_refactored, reach.len());
            let mut full_pass = before.clone();
            let full = refactor_frozen(&mut full_pass, &a_new, &mut ws).unwrap();
            assert_eq!(full.rows_refactored, 5);
            assert!(stats.multiply_adds <= full.multiply_adds);
            assert_eq!(
                bits(&reach_pass.export_entries()),
                bits(&full_pass.export_entries())
            );
            // The rows outside the reach were not written at all.
            for i in (0..5).filter(|i| !reach.contains(i)) {
                assert_eq!(reach_pass.row_values(i), before.row_values(i), "row {i}");
            }
            // The lists run the same body to the same bits (a full pass: they
            // know no closed structure).
            let mut lists =
                DynamicLuFactors::from_sorted_entries(5, &before.export_entries()).unwrap();
            let listed = refactor_frozen_reach(&mut lists, &a_new, Some(&changed), &mut ws);
            assert_eq!(listed.unwrap().rows_refactored, 5);
            assert_eq!(
                bits(&lists.export_entries()),
                bits(&full_pass.export_entries())
            );
        }
        // No changed row, nothing to recompute.
        let mut untouched = before.clone();
        let stats = refactor_frozen_reach(&mut untouched, &a, Some(&[]), &mut ws).unwrap();
        assert_eq!(stats, RefactorStats::default());
        // A changed row outside the order is refused.
        assert!(matches!(
            refactor_frozen_reach(&mut untouched, &a, Some(&[5]), &mut ws),
            Err(LuError::DimensionMismatch {
                expected: 5,
                actual: 6
            })
        ));
    }

    #[test]
    fn an_open_structure_is_detected_and_takes_the_full_pass() {
        // The 3×3 example of the fill test as a flat block: L(1, 0) meets
        // U(0, 2) but (1, 2) has no slot, so the layout is not closed and a
        // change named in row 0 alone still recomputes every row — where
        // row 1's fill escapes.
        let entries = [
            (0, 0, 4.0),
            (0, 2, 1e-10),
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
        let mut block = LuFactors::from_sorted_entries(3, &entries).unwrap();
        assert!(!block.structure().is_elimination_closed());
        assert_eq!(bits(&block.export_entries()), bits(&entries));
        let mut ws = RefactorWorkspace::new();
        let stats = refactor_frozen_reach(&mut block, &matrix(2e-10), Some(&[0]), &mut ws).unwrap();
        assert_eq!(stats.rows_refactored, 3);
        assert_eq!(ws.refactored_rows(), &[0, 1, 2]);
        assert_eq!(block.u(0, 2), 2e-10);
        // Above the tolerance the full pass finds the escapee in row 1 —
        // with row 0 rewritten already, which is why the engine runs the
        // pass on a copy of its block.
        let err = refactor_frozen_reach(&mut block, &matrix(1.0), Some(&[0]), &mut ws).unwrap_err();
        assert!(matches!(
            err,
            LuError::FillOutsideStructure { row: 1, col: 2, magnitude } if magnitude == 0.5
        ));
        assert_eq!(block.u(0, 2), 1.0);
        assert!(ws.refactored_rows().is_empty());
    }

    #[test]
    fn each_guard_fires_inside_the_reach() {
        let a = base_matrix();
        let mut ws = RefactorWorkspace::new();
        let block = after_a_full_pass(&a, &mut ws);
        let lists = DynamicLuFactors::from_sorted_entries(5, &block.export_entries()).unwrap();
        let entries = bits(&block.export_entries());
        // Every change sits in row 3, whose reach is row 3 alone: (3, 1) has
        // no slot, and (3, 3) collapses to zero.  The reach pass fails on
        // the one row it recomputes, before writing it; the lists' full
        // pass fails at the same row.
        assert!(!block.structure().contains(3, 1));
        for (delta, want) in [
            (
                (3usize, 1usize, 0.0f64, 2.0f64),
                LuError::EntryOutsideStructure { row: 3, col: 1 },
            ),
            (
                (3, 3, 11.0, 0.0),
                LuError::SingularPivot {
                    index: 3,
                    value: 0.0,
                },
            ),
        ] {
            let a_new = perturbed(&a, &[delta]);
            let mut reach_pass = block.clone();
            let err = refactor_frozen_reach(&mut reach_pass, &a_new, Some(&[delta.0]), &mut ws)
                .unwrap_err();
            assert_eq!(err, want);
            assert_eq!(bits(&reach_pass.export_entries()), entries);
            let mut live = lists.clone();
            let err =
                refactor_frozen_reach(&mut live, &a_new, Some(&[delta.0]), &mut ws).unwrap_err();
            assert_eq!(err, want);
        }
        // A pivot of 1e-3 beside a stored slot (3, 4) of 1e10: degraded
        // past PIVOT_DEGRADE_TOL, far above the absolute floor.
        let degrade = perturbed(&a, &[(3, 3, 11.0, 1e-3), (3, 4, 0.0, 1e10)]);
        let mut reach_pass = block.clone();
        let err =
            refactor_frozen_reach(&mut reach_pass, &degrade, Some(&[3]), &mut ws).unwrap_err();
        assert!(
            matches!(err, LuError::SingularPivot { index: 3, value } if value > 1e-4),
            "{err:?}"
        );
        assert_eq!(bits(&reach_pass.export_entries()), entries);
        assert!(ws.refactored_rows().is_empty());
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

    /// `entries` as a matrix of order `n`.
    fn matrix(n: usize, entries: &[(usize, usize, f64)]) -> CsrMatrix {
        let mut coo = CooMatrix::new(n, n);
        for &(i, j, v) in entries {
            coo.push(i, j, v).unwrap();
        }
        CsrMatrix::from_coo(&coo)
    }

    /// `base_matrix`'s factors over the closure of its pattern: the closed
    /// kernel's storage.
    fn closed_block() -> LuFactors {
        let block = crate::factors::factorize_fresh(&base_matrix()).unwrap();
        assert!(block.structure().is_elimination_closed());
        block
    }

    /// Runs the reach pass over `changed` and the full pass on copies of
    /// `block`; both must fail with `want`, writing no slot.
    fn both_passes_refuse(block: &LuFactors, a: &CsrMatrix, changed: &[usize], want: LuError) {
        let mut ws = RefactorWorkspace::new();
        for changed in [Some(changed), None] {
            let mut copy = block.clone();
            let err = refactor_frozen_reach(&mut copy, a, changed, &mut ws).unwrap_err();
            assert_eq!(err, want, "changed {changed:?}");
            assert_eq!(bits(&copy.export_entries()), bits(&block.export_entries()));
            assert!(ws.refactored_rows().is_empty());
        }
    }

    #[test]
    fn the_closed_kernel_refuses_a_non_finite_entry_as_the_matrix_parameter() {
        // On the diagonal or off it, in the first row or a later one.
        let block = closed_block();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for (i, j) in [(0, 0), (0, 2), (3, 2), (4, 4)] {
                let mut a = base_matrix();
                assert!(a.set(i, j, bad));
                let mut ws = RefactorWorkspace::new();
                let mut copy = block.clone();
                let err = refactor_frozen_reach(&mut copy, &a, Some(&[i]), &mut ws).unwrap_err();
                assert!(
                    matches!(err, LuError::InvalidParameter { name: "matrix", value }
                        if value.to_bits() == bad.to_bits()),
                    "{bad} at ({i}, {j}): {err:?}"
                );
                // Rows of the reach before row i are rewritten; row i is not.
                assert_eq!(copy.row_values(i), block.row_values(i));
            }
        }
    }

    #[test]
    fn the_closed_kernel_refuses_an_entry_off_the_structure() {
        // Every column row 3 holds no slot for — left of its first slot,
        // between slots, right of its last — whatever the entry's value.
        let block = closed_block();
        let slots = block.structure().row_cols(3).to_vec();
        let off: Vec<usize> = (0..5).filter(|j| !slots.contains(j)).collect();
        assert!(!off.is_empty());
        for col in off {
            for value in [2.0, 0.0] {
                let a = perturbed(&base_matrix(), &[(3, col, 0.0, value)]);
                let want = LuError::EntryOutsideStructure { row: 3, col };
                both_passes_refuse(&block, &a, &[3], want);
            }
        }
    }

    #[test]
    fn the_closed_kernel_keeps_a_pivot_at_the_degradation_threshold_and_refuses_one_ulp_below() {
        // Row 0 is [p, 1]: its largest magnitude is 1, so the threshold is
        // PIVOT_DEGRADE_TOL itself.  At it and one ulp above, the factors
        // are the matrix's own entries; one ulp below, the pivot is refused.
        let with_pivot = |p: f64| matrix(2, &[(0, 0, p), (0, 1, 1.0), (1, 1, 1.0)]);
        let block = crate::factors::factorize_fresh(&with_pivot(1.0)).unwrap();
        let mut ws = RefactorWorkspace::new();
        for p in [PIVOT_DEGRADE_TOL, PIVOT_DEGRADE_TOL.next_up()] {
            let mut copy = block.clone();
            refactor_frozen_reach(&mut copy, &with_pivot(p), Some(&[0]), &mut ws).unwrap();
            assert_eq!(ws.refactored_rows(), &[0]);
            let want = [(0, 0, p), (0, 1, 1.0), (1, 1, 1.0)];
            assert_eq!(bits(&copy.export_entries()), bits(&want));
        }
        let below = PIVOT_DEGRADE_TOL.next_down();
        let want = LuError::SingularPivot {
            index: 0,
            value: below,
        };
        both_passes_refuse(&block, &with_pivot(below), &[0], want);
    }

    #[test]
    fn an_empty_change_recomputes_no_row_and_keeps_every_bit() {
        // Even against a matrix that differs: the caller names every changed
        // row, and naming none is a promise nothing changed.
        let block = closed_block();
        let a_new = perturbed(&base_matrix(), &[(0, 0, 8.0, 9.0), (3, 2, -0.5, 1.0)]);
        let mut ws = RefactorWorkspace::new();
        let mut copy = block.clone();
        let stats = refactor_frozen_reach(&mut copy, &a_new, Some(&[]), &mut ws).unwrap();
        assert_eq!(stats, RefactorStats::default());
        assert!(ws.refactored_rows().is_empty());
        assert_eq!(bits(&copy.export_entries()), bits(&block.export_entries()));
    }

    #[test]
    fn the_closed_kernel_runs_at_orders_zero_and_one() {
        let mut ws = RefactorWorkspace::new();
        let mut empty = LuFactors::factorize(
            LuStructure::from_pattern(&CsrMatrix::identity(0).pattern())
                .unwrap()
                .into_shared(),
            &CsrMatrix::identity(0),
        )
        .unwrap();
        assert!(empty.structure().is_elimination_closed());
        for changed in [Some(&[][..]), None] {
            let stats =
                refactor_frozen_reach(&mut empty, &CsrMatrix::identity(0), changed, &mut ws)
                    .unwrap();
            assert_eq!(stats, RefactorStats::default());
        }
        let block = crate::factors::factorize_fresh(&matrix(1, &[(0, 0, 4.0)])).unwrap();
        assert!(block.structure().is_elimination_closed());
        let mut one = block.clone();
        let stats =
            refactor_frozen_reach(&mut one, &matrix(1, &[(0, 0, -2.0)]), Some(&[0]), &mut ws)
                .unwrap();
        assert_eq!(stats.rows_refactored, 1);
        assert_eq!(bits(&one.export_entries()), bits(&[(0, 0, -2.0)]));
        assert_eq!(
            refactor_frozen_reach(&mut one, &matrix(1, &[]), Some(&[1]), &mut ws).unwrap_err(),
            LuError::DimensionMismatch {
                expected: 1,
                actual: 2
            }
        );
        let want = LuError::SingularPivot {
            index: 0,
            value: 0.0,
        };
        both_passes_refuse(&block, &matrix(1, &[]), &[0], want);
    }

    /// The reach as it was walked before the scan: a queue of reached rows,
    /// each one's `L` column read through [`LuStructure::lower_col`], then
    /// sorted.  The oracle the scan must match.
    fn reach_by_walk(
        ws: &mut RefactorWorkspace,
        structure: &LuStructure,
        changed: &[usize],
    ) -> LuResult<Vec<usize>> {
        let n = structure.n();
        ws.grow(n);
        if let Some(&i) = changed.iter().find(|&&i| i >= n) {
            return Err(LuError::DimensionMismatch {
                expected: n,
                actual: i + 1,
            });
        }
        let (epoch, mut next, mut found) = (ws.next_epoch(), 0, changed);
        let mut rows = Vec::new();
        loop {
            for &i in found {
                if ws.stamp[i] != epoch {
                    ws.stamp[i] = epoch;
                    rows.push(i);
                }
            }
            let Some(&k) = rows.get(next) else { break };
            next += 1;
            found = structure.lower_col(k).0;
        }
        rows.sort_unstable();
        Ok(rows)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

        /// On random closed structures — the factors of a diagonally
        /// dominant matrix — and a few passes of random changed rows, repeats
        /// and empty lists among them, and now and then a row past the
        /// order: every reach finds the old walk's rows, ascending, or
        /// refuses the same row.  The first pass over a structure scans it
        /// and lists no column; a later one walks the columns it listed.
        /// One workspace serves every reach and another every oracle walk,
        /// across cases, so stale stamps or lists would show.
        #[test]
        fn the_reach_finds_what_the_column_walk_finds(
            n in 1usize..40,
            entries in proptest::collection::vec((0usize..40, 0usize..40), 0..160),
            passes in proptest::collection::vec(proptest::collection::vec(0usize..40, 0..8), 1..4),
            past in 0usize..12,
        ) {
            let extra: Vec<_> = entries
                .into_iter()
                .map(|(i, j)| (i % n, j % n, 0.5))
                .filter(|&(i, j, _)| i != j)
                .collect();
            let block = crate::factors::factorize_fresh(&diag_dominant(n, &extra)).unwrap();
            let structure = block.structure();
            proptest::prop_assert!(structure.is_elimination_closed());
            thread_local! {
                static WS: std::cell::RefCell<(RefactorWorkspace, RefactorWorkspace)> =
                    Default::default();
            }
            WS.with_borrow_mut(|(ws, oracle)| {
                ws.grow(n);
                let mut reached_before = false;
                for (pass, changed) in passes.iter().enumerate() {
                    let mut changed: Vec<usize> = changed.iter().map(|&i| i % n).collect();
                    if past == pass {
                        changed.push(n + changed.len());
                    }
                    let want = reach_by_walk(oracle, structure, &changed);
                    let got = ws.reach(structure, Some(&changed)).map(|()| ws.rows.clone());
                    proptest::prop_assert_eq!(&got, &want);
                    if got.is_ok() {
                        proptest::prop_assert_eq!(ws.lower_ptr.is_empty(), !reached_before);
                        reached_before = true;
                    }
                }
                Ok(())
            })?;
        }
    }
}
