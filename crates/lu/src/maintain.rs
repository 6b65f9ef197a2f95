//! What a loop of exact factor updates carries from one matrix to the next.
//!
//! CLUDE reaches each member of a cluster from its predecessor under one
//! ordering, and the engine reaches each snapshot of a shard's block from the
//! last one the same way: both hold the matrix their factors factorize, in
//! the factors' own (reordered) coordinates, write each step's delta into it,
//! and bring the factors up to date by a numeric pass over the changed rows'
//! elimination reach.  A [`Maintainer`] is that state — the matrix, the
//! pass's scratch and the changed rows — and the operations on it.  On which
//! copy of the factors the pass runs, and what follows a failed one (CLUDE's
//! Bennett sweeps, the engine's re-order), stays the caller's decision.

use crate::error::LuResult;
use crate::refactor::{refactor_frozen_reach, FrozenRows, RefactorStats, RefactorWorkspace};
use clude_sparse::CsrMatrix;

/// The matrix a set of factors factorizes, in factor coordinates, with the
/// reach pass's scratch, pre-sized to the matrix's order and reused, changed
/// rows and all, so a steady-state pass allocates nothing.
///
/// Deltas are `(row, col, old, new)` in factor coordinates, each position at
/// most once.
#[derive(Debug, Clone)]
pub struct Maintainer {
    matrix: CsrMatrix,
    refactor: RefactorWorkspace,
    /// The rows of the delta a reach pass starts from.
    changed: Vec<usize>,
}

impl Maintainer {
    /// Holds `matrix`, the matrix the factors factorize.
    pub fn new(matrix: CsrMatrix) -> Self {
        let n = matrix.n_rows();
        Maintainer {
            matrix,
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
    /// the same ordering or a new one; the scratch carries over.
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
    use crate::factorize_fresh;
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
