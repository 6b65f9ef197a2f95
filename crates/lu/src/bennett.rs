//! Bennett's algorithm for updating triangular factors (Bennett, 1965).
//!
//! Given the factors `A = L·U` (unit lower `L`) and a rank-one modification
//! `A' = A + g·x·yᵀ`, Bennett's algorithm rewrites `L` and `U` in place into
//! the factors of `A'` by a single sweep over the pivots.  For pivot `k` with
//! old pivot value `u_kk` and new value `u'_kk = u_kk + g·x_k·y_k`:
//!
//! ```text
//! L'(i,k) = (L(i,k)·u_kk + g·y_k·x_i) / u'_kk          for i > k
//! x_i    ← x_i − x_k·L(i,k)                            (old L)
//! U'(k,j) = U(k,j) + g·x_k·y_j                         for j > k
//! y_j    ← y_j − y_k·U(k,j)/u_kk                       (old U)
//! g      ← g·u_kk / u'_kk
//! ```
//!
//! Only pivots where `x_k` or `y_k` is non-zero do any work, so a sparse
//! change to a sparse matrix touches a small part of the factors.  The sweep
//! is storage-agnostic and never asks for an entry by coordinate: per pivot
//! it hands the storage ([`LuStorage`]) the sorted support of `x` (resp. `y`)
//! past the pivot and the recurrence above as a closure, and the storage
//! walks "column `k` of `L`" (resp. "row `k` of `U`") merged with that
//! support through its own cursors — slots of the static structure (CLUDE),
//! list positions of the dynamic adjacency lists (INC/CINC).  The two differ
//! precisely in how they absorb a fill-in that is not yet represented.
//!
//! The sweep itself is allocation-free in the steady state: all mutable
//! scratch (the dense `x`/`y` vectors, their sparse supports and the pending
//! pivot queue) lives in a caller-owned [`BennettWorkspace`] that is reused
//! from one update to the next.  Dense scratch is epoch-stamped, so preparing
//! the workspace for a new update costs O(support), not O(n).
//!
//! A sparse update `ΔA` of arbitrary shape is applied as a sequence of
//! rank-one updates, one per column of `ΔA` (`x` = changed column values,
//! `y = e_j`, `g = 1`), as [`apply_delta_with`] does.

// lint: hot-path

use crate::error::{LuError, LuResult};
use crate::factors::SINGULAR_TOL;
use std::mem;

/// Magnitude below which a would-be fill-in outside a static structure is
/// treated as numerical noise and dropped rather than reported as an error.
pub const FILL_DROP_TOL: f64 = 1e-9;

/// Work counters for Bennett updates.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BennettStats {
    /// Number of rank-one updates performed.
    pub rank_one_updates: usize,
    /// Number of pivots visited across all updates.
    pub pivots_processed: usize,
    /// Number of `L`/`U` entries read or written.
    pub entries_touched: usize,
}

impl BennettStats {
    /// Accumulates another stats record into `self`.
    pub fn merge(&mut self, other: &BennettStats) {
        self.rank_one_updates += other.rank_one_updates;
        self.pivots_processed += other.pivots_processed;
        self.entries_touched += other.entries_touched;
    }
}

/// Storage back-ends Bennett's sweep can run against.
///
/// The interface is pivot-granular: the storage owns *addressing* (how the
/// entries of one column of `L` or one row of `U` are reached) and the *write
/// rule* (what happens to a result on a position it does not hold), the sweep
/// owns the arithmetic.  Both walks visit, in ascending index order, the
/// union of the storage's structural entries past the pivot and `support`
/// (sorted, deduplicated, every index `> k` and `< order()`), call
/// `f(index, old)` exactly once per visited index — `old` is `0.0` for an
/// absent position — and store the result where it differs from `old`.
/// Implementations must neither allocate nor search per structural entry
/// they already hold a cursor to.
pub trait LuStorage {
    /// Matrix order.
    fn order(&self) -> usize;
    /// The pivot `U(k, k)`; `0.0` when the storage holds no such entry.
    fn pivot(&mut self, k: usize) -> f64;
    /// Overwrites the pivot `U(k, k)` that [`LuStorage::pivot`] just read.
    fn set_pivot(&mut self, k: usize, value: f64);
    /// Walks column `k` of `L` below the diagonal, merged with the rows of
    /// `support`.
    fn update_l_col(
        &mut self,
        k: usize,
        support: &[usize],
        f: impl FnMut(usize, f64) -> f64,
    ) -> LuResult<()>;
    /// Walks row `k` of `U` right of the diagonal, merged with the columns of
    /// `support`.
    fn update_u_row(
        &mut self,
        k: usize,
        support: &[usize],
        f: impl FnMut(usize, f64) -> f64,
    ) -> LuResult<()>;
}

/// One of the sweep's two sparse vectors (`x` or `y`): epoch-stamped dense
/// values plus the sorted list of indices past the current pivot that hold a
/// non-zero.
///
/// A pivot's walk visits every live index (the storage merges `live` into
/// its structural entries), so the walk's closure rebuilds the list as it
/// goes — every visited index whose value is non-zero afterwards is appended
/// to `next`, in the walk's ascending order — and the two lists swap when the
/// walk ends.  Entries cancelled to exactly zero drop out that way, new ones
/// enter, and no search or shifting insert is ever needed.
#[derive(Debug, Clone, Default)]
struct SweepVector {
    /// Entries are valid only where `stamp` equals the workspace epoch.
    val: Vec<f64>,
    stamp: Vec<u64>,
    live: Vec<usize>,
    next: Vec<usize>,
}

impl SweepVector {
    fn grow(&mut self, n: usize) {
        if self.val.len() < n {
            self.val.resize(n, 0.0);
            self.stamp.resize(n, 0);
        }
    }

    /// Scatters one update's entry list (any order, duplicates accumulate;
    /// an index cancelled back to exactly zero stays out of the support).
    fn seed(&mut self, epoch: u64, n: usize, entries: &[(usize, f64)], name: char) {
        self.live.clear();
        for &(i, v) in entries {
            // Hard bounds check: the dense scratch may be larger than this
            // update's order (workspaces are shared across matrices), so an
            // out-of-range index would otherwise be absorbed silently and
            // surface later as a misleading singular-pivot error.
            assert!(i < n, "{name} index {i} out of range for order {n}");
            if self.stamp[i] != epoch {
                self.stamp[i] = epoch;
                self.val[i] = 0.0;
                self.live.push(i);
            }
            self.val[i] += v;
        }
        self.live.sort_unstable();
        let val = &self.val;
        self.live.retain(|&i| val[i] != 0.0);
    }
}

#[inline]
fn stamped(val: &[f64], stamp: &[u64], epoch: u64, i: usize) -> f64 {
    if stamp[i] == epoch {
        val[i]
    } else {
        0.0
    }
}

/// The part of a sorted index list strictly past `k`.
#[inline]
fn past(list: &[usize], k: usize) -> &[usize] {
    &list[list.partition_point(|&i| i <= k)..]
}

/// The sweep's pivot queue: every index that entered a support during this
/// update (a later cancellation does not withdraw it), sorted, popped in
/// ascending order.
#[derive(Debug, Clone, Default)]
struct PivotQueue {
    /// `sorted[..done]` is already processed.
    sorted: Vec<usize>,
    done: usize,
}

impl PivotQueue {
    /// Pops the smallest unprocessed pivot.
    #[inline]
    fn pop(&mut self) -> Option<usize> {
        let k = *self.sorted.get(self.done)?;
        self.done += 1;
        Some(k)
    }

    /// Queues pivot `i`.  All sweep insertions satisfy `i >` the last popped
    /// pivot, so searching the unprocessed tail suffices and the processed
    /// prefix is never disturbed.
    fn push(&mut self, i: usize) {
        debug_assert!(self.done == 0 || i > self.sorted[self.done - 1]);
        if let Err(pos) = self.sorted[self.done..].binary_search(&i) {
            self.sorted.insert(self.done + pos, i);
        }
    }
}

/// Reusable scratch for Bennett sweeps.
///
/// One workspace serves any number of sequential [`rank_one_update_with`] /
/// [`apply_delta_with`] calls against matrices of any order: the dense
/// `x`/`y` vectors grow monotonically to the largest order seen and are
/// invalidated between updates by bumping an epoch stamp instead of zeroing,
/// and the sparse support lists and pivot queue are plain sorted vectors
/// whose capacity is retained across calls.  In the steady state a sweep
/// performs no heap allocation at all.
#[derive(Debug, Clone, Default)]
pub struct BennettWorkspace {
    /// Current update's epoch.  Starts at 0 (matching no stamp) and is bumped
    /// by [`BennettWorkspace::seed`].
    epoch: u64,
    x: SweepVector,
    y: SweepVector,
    pending: PivotQueue,
    /// `(col, row, input position, change)` scratch for grouping a ΔA by
    /// column.
    delta_buf: Vec<(usize, usize, usize, f64)>,
    /// Per-column `x` entry list scratch for [`apply_delta_with`].
    x_buf: Vec<(usize, f64)>,
}

impl BennettWorkspace {
    /// Creates an empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        BennettWorkspace::default()
    }

    /// Creates a workspace with dense scratch pre-sized for order `n`.
    pub fn with_order(n: usize) -> Self {
        let mut ws = BennettWorkspace::new();
        ws.x.grow(n);
        ws.y.grow(n);
        ws
    }

    /// The order the dense scratch currently covers.
    pub fn capacity(&self) -> usize {
        self.x.val.len()
    }

    /// Readies the workspace for one rank-one update of order `n` and scatters
    /// the sparse `x`/`y` entry lists into the dense scratch.
    fn seed(&mut self, n: usize, x_entries: &[(usize, f64)], y_entries: &[(usize, f64)]) {
        self.x.grow(n);
        self.y.grow(n);
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // u64 wrap-around: stale stamps could collide, so clear them once.
            self.x.stamp.fill(0);
            self.y.stamp.fill(0);
            self.epoch = 1;
        }
        self.x.seed(self.epoch, n, x_entries, 'x');
        self.y.seed(self.epoch, n, y_entries, 'y');
        // The pivots that may do work are exactly the union of both supports.
        self.pending.done = 0;
        merge_union_into(&mut self.pending.sorted, &self.x.live, &self.y.live);
    }
}

/// Merges two sorted, deduplicated slices into `out` (cleared first), keeping
/// order and dropping duplicates.
fn merge_union_into(out: &mut Vec<usize>, a: &[usize], b: &[usize]) {
    out.clear();
    out.reserve(a.len() + b.len());
    let (mut ia, mut ib) = (0, 0);
    while ia < a.len() && ib < b.len() {
        let (av, bv) = (a[ia], b[ib]);
        if av < bv {
            out.push(av);
            ia += 1;
        } else if bv < av {
            out.push(bv);
            ib += 1;
        } else {
            out.push(av);
            ia += 1;
            ib += 1;
        }
    }
    out.extend_from_slice(&a[ia..]);
    out.extend_from_slice(&b[ib..]);
}

/// Applies the rank-one update `A ← A + g·x·yᵀ` to factors held in `storage`,
/// using `ws` for every piece of mutable scratch.
///
/// `x` and `y` are given as sparse entry lists; indices refer to the
/// (reordered) numbering of the factors.  Reusing one workspace across a
/// stream of updates makes the steady-state sweep allocation-free.
pub fn rank_one_update_with<S: LuStorage>(
    storage: &mut S,
    ws: &mut BennettWorkspace,
    x_entries: &[(usize, f64)],
    y_entries: &[(usize, f64)],
    g: f64,
) -> LuResult<BennettStats> {
    let n = storage.order();
    let mut stats = BennettStats {
        rank_one_updates: 1,
        ..BennettStats::default()
    };
    if g == 0.0 || x_entries.is_empty() || y_entries.is_empty() {
        return Ok(stats);
    }
    ws.seed(n, x_entries, y_entries);
    let epoch = ws.epoch;
    let (x, y, pending) = (&mut ws.x, &mut ws.y, &mut ws.pending);
    let mut g = g;

    while let Some(k) = pending.pop() {
        stats.pivots_processed += 1;
        let xk = stamped(&x.val, &x.stamp, epoch, k);
        let yk = stamped(&y.val, &y.stamp, epoch, k);
        if xk == 0.0 && yk == 0.0 {
            continue;
        }
        let ukk_old = storage.pivot(k);
        if !ukk_old.is_finite() || ukk_old.abs() < SINGULAR_TOL {
            return Err(LuError::SingularPivot {
                index: k,
                value: ukk_old,
            });
        }
        let ukk_new = ukk_old + g * xk * yk;
        if !ukk_new.is_finite() || ukk_new.abs() < SINGULAR_TOL {
            return Err(LuError::SingularPivot {
                index: k,
                value: ukk_new,
            });
        }
        storage.set_pivot(k, ukk_new);
        let mut touched = 1;

        // Column k of L and the x vector, over the union of the structural
        // column and the live x support below the pivot.
        x.next.clear();
        storage.update_l_col(k, past(&x.live, k), |i, l_old| {
            touched += 1;
            let x_old = stamped(&x.val, &x.stamp, epoch, i);
            let mut x_new = x_old;
            if xk != 0.0 && l_old != 0.0 {
                x_new = x_old - xk * l_old;
                x.val[i] = x_new;
                x.stamp[i] = epoch;
                if x_old == 0.0 && x_new != 0.0 {
                    pending.push(i);
                }
            }
            if x_new != 0.0 {
                x.next.push(i);
            }
            (l_old * ukk_old + g * yk * x_old) / ukk_new
        })?;
        mem::swap(&mut x.live, &mut x.next);

        // Row k of U and the y vector, likewise right of the pivot.
        y.next.clear();
        storage.update_u_row(k, past(&y.live, k), |j, u_old| {
            touched += 1;
            let y_old = stamped(&y.val, &y.stamp, epoch, j);
            let mut y_new = y_old;
            if yk != 0.0 && u_old != 0.0 {
                y_new = y_old - yk * u_old / ukk_old;
                y.val[j] = y_new;
                y.stamp[j] = epoch;
                if y_old == 0.0 && y_new != 0.0 {
                    pending.push(j);
                }
            }
            if y_new != 0.0 {
                y.next.push(j);
            }
            u_old + g * xk * y_old
        })?;
        mem::swap(&mut y.live, &mut y.next);

        stats.entries_touched += touched;
        g *= ukk_old / ukk_new;
    }
    Ok(stats)
}

/// Applies a sparse matrix update `ΔA` (given as `(row, col, old, new)`
/// tuples, as produced by [`clude_sparse::CsrMatrix::delta_to`]) to factors
/// held in `storage` by a sequence of column rank-one updates, all sharing
/// the caller's workspace.
pub fn apply_delta_with<S: LuStorage>(
    storage: &mut S,
    ws: &mut BennettWorkspace,
    delta: &[(usize, usize, f64, f64)],
) -> LuResult<BennettStats> {
    let mut stats = BennettStats::default();
    if delta.is_empty() {
        return Ok(stats);
    }
    // Group the changed entries by column in the reused scratch.
    let mut groups = mem::take(&mut ws.delta_buf);
    groups.clear();
    for (position, &(i, j, old, new)) in delta.iter().enumerate() {
        let change = new - old;
        if change != 0.0 {
            groups.push((j, i, position, change));
        }
    }
    // Entries repeating a coordinate (legal, if unusual, input) keep their
    // relative order, so accumulation order — and hence the exact
    // floating-point result — matches applying the list as given.  The input
    // position in the key gives that order without a stable sort's merge
    // buffer: the keys are distinct, so the unstable sort has one answer.
    groups.sort_unstable_by_key(|&(col, row, position, _)| (col, row, position));
    let mut x_buf = mem::take(&mut ws.x_buf);
    let mut result = Ok(());
    let mut start = 0;
    while start < groups.len() {
        let col = groups[start].0;
        x_buf.clear();
        let mut end = start;
        while end < groups.len() && groups[end].0 == col {
            x_buf.push((groups[end].1, groups[end].3));
            end += 1;
        }
        match rank_one_update_with(storage, ws, &x_buf, &[(col, 1.0)], 1.0) {
            Ok(s) => stats.merge(&s),
            Err(err) => {
                result = Err(err);
                break;
            }
        }
        start = end;
    }
    ws.delta_buf = groups;
    ws.x_buf = x_buf;
    result.map(|()| stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynamic::DynamicLuFactors;
    use crate::factors::{factorize_fresh, LuFactors};
    use crate::structure::LuStructure;
    use crate::test_support::{apply_delta, rank_one_update};
    use clude_sparse::{CooMatrix, CsrMatrix};
    use std::sync::Arc;

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

    /// Builds the updated matrix from a delta list.
    fn apply_delta_to_matrix(a: &CsrMatrix, delta: &[(usize, usize, f64, f64)]) -> CsrMatrix {
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
    fn rank_one_update_on_static_matches_refactorization() {
        let a = base_matrix();
        // The static structure must cover the fill of both the old and the
        // new matrix; build it from the union pattern (what CLUDE does).
        let delta: Vec<(usize, usize, f64, f64)> = vec![(3, 0, 0.0, 0.7)];
        let a_new = apply_delta_to_matrix(&a, &delta);
        let union_pattern = a.pattern().union(&a_new.pattern()).unwrap();
        let structure = LuStructure::from_pattern(&union_pattern)
            .unwrap()
            .into_shared();
        let mut factors = LuFactors::factorize(Arc::clone(&structure), &a).unwrap();
        let x = [(3usize, 0.7f64)];
        let y = [(0usize, 1.0f64)];
        let stats = rank_one_update(&mut factors, &x, &y, 1.0).unwrap();
        assert!(stats.pivots_processed >= 1);
        let fresh = LuFactors::factorize(structure, &a_new).unwrap();
        for i in 0..5 {
            for j in 0..5 {
                assert!(
                    (factors.l(i, j) - fresh.l(i, j)).abs() < 1e-10,
                    "L({i},{j}) {} vs {}",
                    factors.l(i, j),
                    fresh.l(i, j)
                );
                assert!(
                    (factors.u(i, j) - fresh.u(i, j)).abs() < 1e-10,
                    "U({i},{j}) {} vs {}",
                    factors.u(i, j),
                    fresh.u(i, j)
                );
            }
        }
    }

    #[test]
    fn apply_delta_on_dynamic_matches_refactorization() {
        let a = base_matrix();
        let mut dynamic = DynamicLuFactors::factorize(&a).unwrap();
        let delta = vec![
            (0usize, 2usize, 1.0f64, 0.0f64), // entry removed
            (1, 0, -1.5, -2.0),               // entry changed
            (4, 3, 0.0, 0.9),                 // entry added (new fill path)
            (2, 4, 0.5, 0.8),
        ];
        let a_new = apply_delta_to_matrix(&a, &delta);
        let stats = apply_delta(&mut dynamic, &delta).unwrap();
        assert!(stats.rank_one_updates >= 3);
        assert!(dynamic.reconstruct().max_abs_diff(&a_new).unwrap() < 1e-10);
        // Solves agree with a fresh factorization.
        let fresh = factorize_fresh(&a_new).unwrap();
        let b = vec![1.0, -2.0, 0.5, 3.0, 0.25];
        let x1 = dynamic.solve(&b).unwrap();
        let x2 = fresh.solve(&b).unwrap();
        for (u, v) in x1.iter().zip(x2.iter()) {
            assert!((u - v).abs() < 1e-9);
        }
    }

    #[test]
    fn reused_workspace_matches_throwaway_workspace() {
        let a = base_matrix();
        let mut with_reuse = DynamicLuFactors::factorize(&a).unwrap();
        let mut with_fresh = with_reuse.clone();
        let mut ws = BennettWorkspace::new();
        let steps: Vec<Vec<(usize, usize, f64, f64)>> = vec![
            vec![(0, 4, 0.0, 0.4), (1, 0, -1.5, -1.0)],
            vec![(4, 0, 1.0, 0.0), (3, 1, 0.0, 0.6)],
            vec![(2, 1, 2.0, 2.5), (0, 2, 1.0, 1.2), (4, 2, 0.0, -0.3)],
        ];
        for delta in &steps {
            let s1 = apply_delta_with(&mut with_reuse, &mut ws, delta).unwrap();
            let s2 = apply_delta(&mut with_fresh, delta).unwrap();
            assert_eq!(s1, s2);
            for i in 0..5 {
                for j in 0..5 {
                    assert_eq!(
                        with_reuse.l(i, j).to_bits(),
                        with_fresh.l(i, j).to_bits(),
                        "L({i},{j}) diverged"
                    );
                    assert_eq!(
                        with_reuse.u(i, j).to_bits(),
                        with_fresh.u(i, j).to_bits(),
                        "U({i},{j}) diverged"
                    );
                }
            }
        }
        // The dense scratch grew once to the matrix order and stayed there.
        assert_eq!(ws.capacity(), 5);
    }

    #[test]
    fn workspace_serves_mixed_orders() {
        // A workspace used for a large matrix keeps serving smaller ones (and
        // vice versa) — stale dense entries must never leak across epochs.
        let mut ws = BennettWorkspace::new();
        let small = diag_dominant(3, &[(1, 0, 0.5)]);
        let large = diag_dominant(8, &[(5, 1, 1.0), (2, 6, -0.5)]);
        let mut f_large = DynamicLuFactors::factorize(&large).unwrap();
        let delta_large = vec![(5usize, 1usize, 1.0f64, 2.0f64), (7, 0, 0.0, 0.3)];
        apply_delta_with(&mut f_large, &mut ws, &delta_large).unwrap();
        let mut f_small = DynamicLuFactors::factorize(&small).unwrap();
        let delta_small = vec![(1usize, 0usize, 0.5f64, -0.5f64), (2, 1, 0.0, 0.25)];
        apply_delta_with(&mut f_small, &mut ws, &delta_small).unwrap();
        let small_new = apply_delta_to_matrix(&small, &delta_small);
        let large_new = apply_delta_to_matrix(&large, &delta_large);
        assert!(f_small.reconstruct().max_abs_diff(&small_new).unwrap() < 1e-10);
        assert!(f_large.reconstruct().max_abs_diff(&large_new).unwrap() < 1e-10);
    }

    #[test]
    fn cancellation_evicts_support_entries() {
        // Construct an update whose x entries cancel exactly during seeding:
        // the support (and so the pivot queue) must not retain the index.
        let a = base_matrix();
        let mut factors = DynamicLuFactors::factorize(&a).unwrap();
        let before: Vec<f64> = (0..5).map(|i| factors.u(i, i)).collect();
        let stats = rank_one_update(
            &mut factors,
            &[(3, 0.7), (3, -0.7)], // cancels to zero
            &[(0, 1.0)],
            1.0,
        )
        .unwrap();
        // Pivot 0 still runs (y side), but no x work propagates.
        assert!(stats.pivots_processed >= 1);
        let after: Vec<f64> = (0..5).map(|i| factors.u(i, i)).collect();
        assert_eq!(before, after);
    }

    #[test]
    fn dynamic_update_inserts_fill_nodes() {
        let a = diag_dominant(4, &[(1, 0, 1.0)]);
        let mut dynamic = DynamicLuFactors::factorize(&a).unwrap();
        dynamic.reset_structural_stats();
        // Adding entry (2,1) creates fill at (2,0)? No: updating column 1 with
        // x = e2 touches L(2,1), a brand new position -> structural insert.
        let delta = vec![(2usize, 1usize, 0.0f64, 3.0f64)];
        apply_delta(&mut dynamic, &delta).unwrap();
        assert!(dynamic.structural_stats().inserts >= 1);
        let a_new = apply_delta_to_matrix(&a, &delta);
        assert!(dynamic.reconstruct().max_abs_diff(&a_new).unwrap() < 1e-10);
    }

    #[test]
    fn static_update_outside_structure_is_rejected() {
        let a = diag_dominant(4, &[(1, 0, 1.0)]);
        // Structure tailored to A only: an update creating a genuinely new
        // entry must be reported.
        let structure = LuStructure::from_pattern(&a.pattern())
            .unwrap()
            .into_shared();
        let mut factors = LuFactors::factorize(structure, &a).unwrap();
        let err = rank_one_update(&mut factors, &[(2, 5.0)], &[(1, 1.0)], 1.0).unwrap_err();
        assert!(matches!(err, LuError::FillOutsideStructure { .. }));
    }

    #[test]
    fn workspace_survives_failed_updates() {
        // A rejected update must leave the workspace reusable for the next.
        let a = diag_dominant(4, &[(1, 0, 1.0)]);
        let structure = LuStructure::from_pattern(&a.pattern())
            .unwrap()
            .into_shared();
        let mut factors = LuFactors::factorize(Arc::clone(&structure), &a).unwrap();
        let mut ws = BennettWorkspace::new();
        let err = rank_one_update_with(&mut factors, &mut ws, &[(2, 5.0)], &[(1, 1.0)], 1.0);
        assert!(err.is_err());
        // An in-structure update through the same workspace still works.
        let mut ok_factors = LuFactors::factorize(structure, &a).unwrap();
        let stats =
            rank_one_update_with(&mut ok_factors, &mut ws, &[(1, 0.5)], &[(0, 1.0)], 1.0).unwrap();
        assert!(stats.pivots_processed >= 1);
        let a_new = apply_delta_to_matrix(&a, &[(1, 0, 1.0, 1.5)]);
        let fresh = factorize_fresh(&a_new).unwrap();
        for i in 0..4 {
            for j in 0..4 {
                assert!((ok_factors.l(i, j) - fresh.l(i, j)).abs() < 1e-10);
                assert!((ok_factors.u(i, j) - fresh.u(i, j)).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn zero_and_empty_updates_are_noops() {
        let a = base_matrix();
        let mut factors = factorize_fresh(&a).unwrap();
        let before: Vec<f64> = (0..5).map(|i| factors.u(i, i)).collect();
        rank_one_update(&mut factors, &[], &[(0, 1.0)], 1.0).unwrap();
        rank_one_update(&mut factors, &[(0, 1.0)], &[], 1.0).unwrap();
        rank_one_update(&mut factors, &[(0, 1.0)], &[(0, 1.0)], 0.0).unwrap();
        let stats = apply_delta(&mut factors, &[]).unwrap();
        assert_eq!(stats, BennettStats::default());
        let after: Vec<f64> = (0..5).map(|i| factors.u(i, i)).collect();
        assert_eq!(before, after);
    }

    #[test]
    fn sequence_of_updates_tracks_matrix_sequence() {
        // Simulate a small evolving matrix sequence and keep the dynamic
        // factors in sync via Bennett, checking against refactorization at
        // every step.
        let mut current = base_matrix();
        let mut dynamic = DynamicLuFactors::factorize(&current).unwrap();
        let mut ws = BennettWorkspace::new();
        let steps: Vec<Vec<(usize, usize, f64, f64)>> = vec![
            vec![(0, 4, 0.0, 0.4), (1, 0, -1.5, -1.0)],
            vec![(4, 0, 1.0, 0.0), (3, 1, 0.0, 0.6)],
            vec![(2, 1, 2.0, 2.5), (0, 2, 1.0, 1.2), (4, 2, 0.0, -0.3)],
        ];
        for delta in steps {
            let next = apply_delta_to_matrix(&current, &delta);
            apply_delta_with(&mut dynamic, &mut ws, &delta).unwrap();
            assert!(dynamic.reconstruct().max_abs_diff(&next).unwrap() < 1e-9);
            current = next;
        }
    }

    #[test]
    fn stats_merge_accumulates() {
        let mut a = BennettStats {
            rank_one_updates: 1,
            pivots_processed: 2,
            entries_touched: 3,
        };
        let b = BennettStats {
            rank_one_updates: 4,
            pivots_processed: 5,
            entries_touched: 6,
        };
        a.merge(&b);
        assert_eq!(a.rank_one_updates, 5);
        assert_eq!(a.pivots_processed, 7);
        assert_eq!(a.entries_touched, 9);
    }

    #[test]
    fn singular_update_is_detected() {
        // Make the (0,0) pivot collapse to zero.
        let a = diag_dominant(3, &[]);
        let mut factors = factorize_fresh(&a).unwrap();
        let err = rank_one_update(&mut factors, &[(0, -8.0)], &[(0, 1.0)], 1.0).unwrap_err();
        assert!(matches!(err, LuError::SingularPivot { index: 0, .. }));
    }

    #[test]
    fn merge_union_handles_overlap_and_tails() {
        let mut out = Vec::new();
        merge_union_into(&mut out, &[1, 3, 5], &[2, 3, 7, 9]);
        assert_eq!(out, vec![1, 2, 3, 5, 7, 9]);
        merge_union_into(&mut out, &[], &[4]);
        assert_eq!(out, vec![4]);
        merge_union_into(&mut out, &[0], &[]);
        assert_eq!(out, vec![0]);
    }
}
