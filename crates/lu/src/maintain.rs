//! What a loop of exact factor updates carries from one matrix to the next.
//!
//! CLUDE reaches each member of a cluster from its predecessor under one
//! ordering, and the engine reaches each snapshot of a shard's block from the
//! last one the same way: both hold the matrix their factors factorize, in
//! the factors' own (reordered) coordinates, write each step's delta into it,
//! and bring the factors up to date — CLUDE by the cheaper of Bennett's
//! sweeps and a numeric pass over the changed rows' elimination reach, the
//! engine always by the pass.  A [`Maintainer`] is that state — the matrix,
//! the running reach the sweeps are priced from, and the two arms' scratch —
//! and the operations on it.  Which update runs, and on which copy of the
//! factors, stays the caller's decision.

use crate::bennett::{apply_delta_with, BennettStats, BennettWorkspace, LuStorage};
use crate::cost::{self, RunningReach};
use crate::error::LuResult;
use crate::refactor::{refactor_frozen_reach, FrozenRows, RefactorStats, RefactorWorkspace};
use clude_sparse::CsrMatrix;

/// The matrix a set of factors factorizes, in factor coordinates, with the
/// running reach of the sweeps that kept them current and the scratch of
/// both update arms: the reach pass's pre-sized to the matrix's order and
/// reused, changed rows and all, so a steady-state pass allocates nothing;
/// the sweeps' grown by the first sweep, so a maintainer that never sweeps
/// holds none.
///
/// Deltas are `(row, col, old, new)` in factor coordinates, each position at
/// most once.
#[derive(Debug, Clone)]
pub struct Maintainer {
    matrix: CsrMatrix,
    reach: RunningReach,
    bennett: BennettWorkspace,
    refactor: RefactorWorkspace,
    /// The rows of the delta a reach pass starts from.
    changed: Vec<usize>,
}

impl Maintainer {
    /// Holds `matrix`, the matrix the factors factorize; the reach starts at
    /// the model's prior.
    pub fn new(matrix: CsrMatrix) -> Self {
        let n = matrix.n_rows();
        Maintainer {
            matrix,
            reach: RunningReach::default(),
            bennett: BennettWorkspace::new(),
            refactor: RefactorWorkspace::with_order(n),
            changed: Vec::new(),
        }
    }

    /// The held matrix.  Positions a delta emptied in place stay stored, as
    /// zeros.
    pub fn matrix(&self) -> &CsrMatrix {
        &self.matrix
    }

    /// Holds `matrix` instead — the matrix of factors computed afresh, under
    /// the same ordering or a new one; the reach and the scratch carry over.
    pub fn set_matrix(&mut self, matrix: CsrMatrix) {
        self.matrix = matrix;
    }

    /// Writes `delta`'s new values into the held matrix: in place when it
    /// stores every position, else in one merge that also drops the
    /// positions the delta empties ([`CsrMatrix::merge_writes`]).
    pub fn write(&mut self, delta: &[(usize, usize, f64, f64)]) {
        if delta
            .iter()
            .all(|&(i, j, _, new)| self.matrix.set(i, j, new))
        {
            return;
        }
        let mut writes: Vec<(usize, usize, f64)> =
            delta.iter().map(|&(i, j, _, new)| (i, j, new)).collect();
        writes.sort_unstable_by_key(|&(i, j, _)| (i, j));
        self.matrix = self.matrix.merge_writes(&writes);
    }

    /// [`cost::sweep_ns`] of Bennett's sweeps over `delta`: one rank-one
    /// update per distinct changed column, each predicted at the running
    /// reach's share of `factor_nnz` entries.
    pub fn sweep_ns(&self, delta: &[(usize, usize, f64, f64)], factor_nnz: usize) -> f64 {
        let mut columns: Vec<usize> = delta.iter().map(|&(_, j, ..)| j).collect();
        columns.sort_unstable();
        columns.dedup();
        cost::sweep_ns(self.reach.predicted_entries(columns.len(), factor_nnz))
    }

    /// Bennett's sweeps over `delta`, in place on `factors`
    /// ([`apply_delta_with`]), folded into the running reach as a share of
    /// `factor_nnz` — the entries the factors held before the step.  On an
    /// error the factors are partially rewritten and the reach is unchanged.
    pub fn sweep<S: LuStorage>(
        &mut self,
        factors: &mut S,
        delta: &[(usize, usize, f64, f64)],
        factor_nnz: usize,
    ) -> LuResult<BennettStats> {
        let stats = apply_delta_with(factors, &mut self.bennett, delta)?;
        self.reach.observe(&stats, factor_nnz);
        Ok(stats)
    }

    /// The numeric pass over the elimination reach of `delta`'s rows, in
    /// place on `factors`, against the held matrix — which must already hold
    /// `delta` ([`Maintainer::write`]).  See [`refactor_frozen_reach`] for
    /// what an error leaves behind.
    pub fn refactor_reach<S: FrozenRows + ?Sized>(
        &mut self,
        factors: &mut S,
        delta: &[(usize, usize, f64, f64)],
    ) -> LuResult<RefactorStats> {
        self.changed.clear();
        self.changed.extend(delta.iter().map(|&(i, ..)| i));
        refactor_frozen_reach(
            factors,
            &self.matrix,
            Some(&self.changed),
            &mut self.refactor,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::apply_delta;
    use crate::{factorize_fresh, DynamicLuFactors};
    use clude_sparse::CooMatrix;

    fn matrix(n: usize, extra: &[(usize, usize, f64)]) -> CsrMatrix {
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 4.0 + i as f64).unwrap();
        }
        for &(i, j, v) in extra {
            coo.push(i, j, v).unwrap();
        }
        CsrMatrix::from_coo(&coo)
    }

    #[test]
    fn writes_land_in_place_or_merge_in_new_positions() {
        let mut m = Maintainer::new(matrix(4, &[(0, 2, 1.0), (3, 1, -2.0)]));
        // Every position stored: values change, the pattern does not, and an
        // emptied position stays stored as a zero.
        m.write(&[(0, 2, 1.0, 0.0), (3, 1, -2.0, 0.5)]);
        assert_eq!(m.matrix().nnz(), 6);
        assert_eq!(m.matrix().get(0, 2), 0.0);
        assert_eq!(m.matrix().get(3, 1), 0.5);
        // A new position merges, unsorted input and all, and the merge drops
        // what the same delta empties.
        m.write(&[(2, 0, 0.0, 3.0), (3, 1, 0.5, 0.0), (1, 3, 0.0, -1.0)]);
        let expected = matrix(4, &[(0, 2, 0.0), (1, 3, -1.0), (2, 0, 3.0)]);
        assert_eq!(
            m.matrix().iter().collect::<Vec<_>>(),
            expected.iter().collect::<Vec<_>>()
        );
    }

    #[test]
    fn a_reused_maintainer_sweeps_what_a_throwaway_workspace_does() {
        // Two steps through the maintainer's pre-sized, reused workspace
        // against the same steps each through a fresh one.
        let a = matrix(5, &[(0, 2, 1.0), (3, 1, -2.0)]);
        let mut m = Maintainer::new(a.clone());
        let mut with_maintainer = DynamicLuFactors::factorize(&a).unwrap();
        let mut with_throwaway = with_maintainer.clone();
        for delta in [
            [(0usize, 2usize, 1.0f64, 2.5f64), (3, 1, -2.0, 0.5)],
            [(0, 2, 2.5, -1.0), (4, 4, 8.0, 9.0)],
        ] {
            let nnz = with_maintainer.nnz();
            let stats = m.sweep(&mut with_maintainer, &delta, nnz).unwrap();
            assert_eq!(stats, apply_delta(&mut with_throwaway, &delta).unwrap());
        }
        for i in 0..5 {
            for j in 0..5 {
                assert_eq!(with_maintainer.l(i, j), with_throwaway.l(i, j));
                assert_eq!(with_maintainer.u(i, j), with_throwaway.u(i, j));
            }
        }
        // Both sweeps taught the reach: a later sweep is priced from it.
        let prior = Maintainer::new(a);
        let delta = [(0, 2, 0.0, 1.0)];
        assert_ne!(m.sweep_ns(&delta, 100), prior.sweep_ns(&delta, 100));
    }

    #[test]
    fn a_sweep_is_priced_per_distinct_changed_column() {
        let m = Maintainer::new(matrix(4, &[]));
        let one = m.sweep_ns(&[(0, 1, 0.0, 1.0), (2, 1, 0.0, 1.0)], 1_000);
        let two = m.sweep_ns(&[(0, 1, 0.0, 1.0), (2, 3, 0.0, 1.0)], 1_000);
        assert_eq!(
            one,
            cost::sweep_ns(RunningReach::default().predicted_entries(1, 1_000))
        );
        assert_eq!(
            two,
            cost::sweep_ns(RunningReach::default().predicted_entries(2, 1_000))
        );
    }

    #[test]
    fn the_reach_pass_refactorizes_the_written_matrix() {
        let a = matrix(5, &[(0, 2, 1.0), (2, 0, 1.0), (3, 1, -2.0)]);
        let mut m = Maintainer::new(a.clone());
        let mut factors = factorize_fresh(&a).unwrap();
        let delta = [(2, 0, 1.0, 2.0), (3, 1, -2.0, 0.0)];
        m.write(&delta);
        let stats = m.refactor_reach(&mut factors, &delta).unwrap();
        assert!(stats.rows_refactored >= 2);
        let fresh = factorize_fresh(m.matrix()).unwrap();
        let bits = |f: &crate::LuFactors| {
            f.export_entries()
                .into_iter()
                .map(|(i, j, v)| (i, j, v.to_bits()))
                .collect::<Vec<_>>()
        };
        assert_eq!(bits(&factors), bits(&fresh));
    }
}
