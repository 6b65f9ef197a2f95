//! One step of a loop of exact factor updates, from one matrix to the next.
//!
//! CLUDE reaches each member of a cluster from its predecessor under one
//! ordering (Algorithm 3), and the engine reaches each snapshot of a shard's
//! block from the last one the same way: both hold the matrix their factors
//! factorize, in the factors' own (reordered) coordinates, rename each
//! step's delta into those coordinates, write it into that matrix, and bring
//! the factors up to date by a numeric pass over the changed rows'
//! elimination reach — over a structure first extended to cover the delta
//! when an entry escapes it.  A [`Maintainer`] is that state — the
//! ordering's `old → new` maps, the matrix, the step's delta, the pass's
//! scratch — and the operations of the step.  On which copy of the factors
//! the pass runs, and what follows a failed one (CLUDE's new cluster, the
//! engine's re-order), stays the caller's decision.

use crate::error::LuResult;
use crate::factors::LuFactors;
use crate::refactor::{refactor_frozen_reach, FrozenRows, RefactorStats, RefactorWorkspace};
use crate::structure::LuStructure;
use crate::symbolic::extend_structure;
use clude_sparse::{CsrMatrix, Ordering};

/// The matrix a set of factors factorizes, in factor coordinates, with the
/// ordering's `old → new` maps, the current step's delta and the reach
/// pass's scratch, pre-sized to the matrix's order and reused, so a
/// steady-state step allocates nothing.
///
/// Deltas are `(row, col, old, new)`, each position at most once.
#[derive(Debug, Clone)]
pub struct Maintainer {
    row_old_to_new: Vec<usize>,
    col_old_to_new: Vec<usize>,
    matrix: CsrMatrix,
    /// The step's delta, in factor coordinates.
    delta: Vec<(usize, usize, f64, f64)>,
    refactor: RefactorWorkspace,
    /// The rows of the delta a reach pass starts from.
    changed: Vec<usize>,
}

impl Maintainer {
    /// Holds `matrix`, the matrix the factors factorize under `ordering`,
    /// given in factor coordinates.
    pub fn new(ordering: &Ordering, matrix: CsrMatrix) -> Self {
        let n = matrix.n_rows();
        Maintainer {
            row_old_to_new: ordering.row().old_to_new(),
            col_old_to_new: ordering.col().old_to_new(),
            matrix,
            delta: Vec::new(),
            refactor: RefactorWorkspace::with_order(n),
            changed: Vec::new(),
        }
    }

    /// Holds `matrix` under `ordering` instead — the matrix of factors
    /// computed afresh after a re-order; the scratch carries over.
    pub fn reset(&mut self, ordering: &Ordering, matrix: CsrMatrix) {
        self.row_old_to_new = ordering.row().old_to_new();
        self.col_old_to_new = ordering.col().old_to_new();
        self.matrix = matrix;
    }

    /// The held matrix.  Positions a delta emptied in place stay stored, as
    /// zeros.
    pub fn matrix(&self) -> &CsrMatrix {
        &self.matrix
    }

    /// The step's delta, in factor coordinates.
    pub fn delta(&self) -> &[(usize, usize, f64, f64)] {
        &self.delta
    }

    /// Takes `delta`, given in the ordering's original coordinates, as the
    /// step's delta, renamed into factor coordinates.
    pub fn take(&mut self, delta: &[(usize, usize, f64, f64)]) {
        let (rows, cols) = (&self.row_old_to_new, &self.col_old_to_new);
        self.delta.clear();
        self.delta.extend(
            delta
                .iter()
                .map(|&(i, j, old, new)| (rows[i], cols[j], old, new)),
        );
    }

    /// Whether an entry of the delta lies outside `structure`.  An entry
    /// with a nonzero old value is a stored position of the held matrix,
    /// which the structure covers: only the others are looked up.
    pub fn escapes(&self, structure: &LuStructure) -> bool {
        self.delta
            .iter()
            .any(|&(i, j, old, _)| old == 0.0 && !structure.contains(i, j))
    }

    /// `factors` over their structure extended to cover every position of
    /// the delta ([`extend_structure`]).
    pub fn extended(&self, factors: &LuFactors) -> LuResult<LuFactors> {
        extend_structure(factors, self.delta.iter().map(|&(i, j, ..)| (i, j)))
    }

    /// Writes the delta's new values into the held matrix: in place when it
    /// stores every position, else in one merge that also drops the
    /// positions the delta empties ([`CsrMatrix::merge_writes`]).
    pub fn write(&mut self) {
        let matrix = &mut self.matrix;
        if self
            .delta
            .iter()
            .all(|&(i, j, _, new)| matrix.set(i, j, new))
        {
            return;
        }
        let mut writes: Vec<(usize, usize, f64)> = self
            .delta
            .iter()
            .map(|&(i, j, _, new)| (i, j, new))
            .collect();
        writes.sort_unstable_by_key(|&(i, j, _)| (i, j));
        self.matrix = self.matrix.merge_writes(&writes);
    }

    /// The numeric pass over the elimination reach of the delta's rows, in
    /// place on `factors`, against the held matrix — which must already hold
    /// the delta ([`Maintainer::write`]).  See [`refactor_frozen_reach`] for
    /// what an error leaves behind.
    pub fn refactor_reach<S: FrozenRows + ?Sized>(
        &mut self,
        factors: &mut S,
    ) -> LuResult<RefactorStats> {
        self.changed.clear();
        self.changed.extend(self.delta.iter().map(|&(i, ..)| i));
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
    use crate::factorize_fresh;
    use clude_sparse::{CooMatrix, Permutation};

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
        let a = matrix(4, &[(0, 2, 1.0), (3, 1, -2.0)]);
        let mut m = Maintainer::new(&Ordering::identity(4), a);
        // Every position stored: values change, the pattern does not, and an
        // emptied position stays stored as a zero.
        m.take(&[(0, 2, 1.0, 0.0), (3, 1, -2.0, 0.5)]);
        m.write();
        assert_eq!(m.matrix().nnz(), 6);
        assert_eq!(m.matrix().get(0, 2), 0.0);
        assert_eq!(m.matrix().get(3, 1), 0.5);
        // A new position merges, unsorted input and all, and the merge drops
        // what the same delta empties.
        m.take(&[(2, 0, 0.0, 3.0), (3, 1, 0.5, 0.0), (1, 3, 0.0, -1.0)]);
        m.write();
        let expected = matrix(4, &[(0, 2, 0.0), (1, 3, -1.0), (2, 0, 3.0)]);
        assert_eq!(
            m.matrix().iter().collect::<Vec<_>>(),
            expected.iter().collect::<Vec<_>>()
        );
    }

    #[test]
    fn the_reach_pass_refactorizes_the_written_matrix() {
        let bits = |f: &LuFactors| {
            f.export_entries()
                .into_iter()
                .map(|(i, j, v)| (i, j, v.to_bits()))
                .collect::<Vec<_>>()
        };
        // Original 3, 0, 4, 1, 2 become factor 0 … 4: original (0, 2),
        // (2, 0) and (3, 1) sit at factor (1, 4), (4, 1) and (0, 3).
        let ordering =
            Ordering::symmetric(Permutation::from_new_to_old(vec![3, 0, 4, 1, 2]).unwrap());
        let a = matrix(5, &[(0, 2, 1.0), (2, 0, 1.0), (3, 1, -2.0)]);
        let held = a.reorder(&ordering).unwrap();
        let mut m = Maintainer::new(&ordering, held.clone());
        let factors = factorize_fresh(&held).unwrap();
        // Two stored entries change, and original (1, 4) — factor (3, 2),
        // outside the structure — is new.
        m.take(&[(2, 0, 1.0, 2.0), (3, 1, -2.0, -1.0), (1, 4, 0.0, 0.5)]);
        assert_eq!(
            m.delta(),
            &[(4, 1, 1.0, 2.0), (0, 3, -2.0, -1.0), (3, 2, 0.0, 0.5)]
        );
        assert!(!factors.structure().contains(3, 2));
        assert!(m.escapes(factors.structure()));
        let mut extended = m.extended(&factors).unwrap();
        assert!(extended.structure().contains(3, 2));
        m.write();
        let stats = m.refactor_reach(&mut extended).unwrap();
        assert!(stats.rows_refactored >= 3);
        let fresh = factorize_fresh(m.matrix()).unwrap();
        assert_eq!(bits(&extended), bits(&fresh));
        // An entry with a nonzero old value is taken to be stored, so it is
        // never looked up: the same position escapes only with old value 0.
        assert!(!fresh.structure().contains(2, 0));
        let (i, j) = (ordering.row().new_to_old(2), ordering.col().new_to_old(0));
        m.take(&[(i, j, 1.0, 2.0)]);
        assert!(!m.escapes(fresh.structure()));
        m.take(&[(i, j, 0.0, 2.0)]);
        assert!(m.escapes(fresh.structure()));
    }
}
