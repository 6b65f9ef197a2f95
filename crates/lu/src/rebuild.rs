//! Refactorization under a held ordering: the pruned reach, then the
//! numeric pass, row by row.
//!
//! A batch that changes many columns of one block pays the elimination
//! reach once per Bennett rank-one update, while the block's matrix, already
//! in the held ordering's coordinates, factorizes from scratch in one
//! up-looking pass ([`crate::symbolic`]) whatever the batch changed.
//! [`rebuild_under_ordering`] is that arm — the third way, beside a Bennett
//! sweep and the pattern-frozen [`crate::refactor_frozen`], of keeping an
//! ordering and updating the factors — writing flat static [`LuFactors`]
//! over a fresh structure, closed under elimination by construction, under
//! the frozen pass's guards ([`PIVOT_DEGRADE_TOL`] included).  A failure
//! leaves the caller's factors untouched: nothing is written until the pass
//! succeeded.  Its arrays are allocated in `symbolic` and `structure`; this
//! file adds none and stays under the allocation lint.

// lint: hot-path

use crate::error::LuResult;
use crate::factors::LuFactors;
use crate::refactor::PIVOT_DEGRADE_TOL;
use crate::symbolic::factorize_up_looking;
use clude_sparse::CsrMatrix;

/// Work counters of one [`rebuild_under_ordering`] pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RebuildStats {
    /// Multiply-adds of the numeric pass.
    pub multiply_adds: u64,
}

/// Factorizes `a` — given in the held ordering's (reordered) coordinates —
/// from scratch over the symbolic closure of its own pattern, with the
/// relative pivot guard.  See the module docs for the failure contract.
pub fn rebuild_under_ordering(a: &CsrMatrix) -> LuResult<(LuFactors, RebuildStats)> {
    let (factors, multiply_adds) = factorize_up_looking(a, PIVOT_DEGRADE_TOL)?;
    Ok((factors, RebuildStats { multiply_adds }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::LuError;
    use crate::factors::factorize_fresh;
    use clude_sparse::CooMatrix;

    fn matrix(n: usize, entries: &[(usize, usize, f64)]) -> CsrMatrix {
        let mut coo = CooMatrix::new(n, n);
        for &(i, j, v) in entries {
            coo.push(i, j, v).unwrap();
        }
        CsrMatrix::from_coo(&coo)
    }

    fn sample() -> CsrMatrix {
        matrix(
            4,
            &[
                (0, 0, 4.0),
                (0, 2, 1.0),
                (1, 0, -1.0),
                (1, 1, 5.0),
                (2, 1, -2.0),
                (2, 2, 6.0),
                (2, 3, 1.0),
                (3, 0, 1.0),
                (3, 3, 3.0),
            ],
        )
    }

    #[test]
    fn rebuild_is_bit_identical_to_a_fresh_static_factorization() {
        let a = sample();
        let (rebuilt, stats) = rebuild_under_ordering(&a).unwrap();
        let fresh = factorize_fresh(&a).unwrap();
        assert_eq!(rebuilt.structure().as_ref(), fresh.structure().as_ref());
        assert_eq!(rebuilt.export_entries(), fresh.export_entries());
        assert!(stats.multiply_adds > 0);
        assert!(rebuilt.reconstruct().max_abs_diff(&a).unwrap() < 1e-12);
    }

    #[test]
    fn a_degraded_pivot_aborts_the_rebuild() {
        // Eliminating row 1 against row 0 leaves 1e-14 on the diagonal
        // beside a fill of magnitude 1: relative degradation, far above the
        // absolute floor a plain factorization checks.
        let a = matrix(
            3,
            &[
                (0, 0, 1.0),
                (0, 1, 1.0),
                (0, 2, 1.0),
                (1, 0, 1.0),
                (1, 1, 1.0 + 1e-14),
                (2, 2, 1.0),
            ],
        );
        assert!(factorize_fresh(&a).is_ok());
        assert!(matches!(
            rebuild_under_ordering(&a),
            Err(LuError::SingularPivot { index: 1, .. })
        ));
        // An exactly singular matrix fails both ways.
        let singular = matrix(2, &[(0, 0, 1.0), (0, 1, 1.0), (1, 0, 1.0), (1, 1, 1.0)]);
        assert!(matches!(
            rebuild_under_ordering(&singular),
            Err(LuError::SingularPivot { index: 1, .. })
        ));
    }

    #[test]
    fn rectangular_input_is_rejected() {
        let mut coo = CooMatrix::new(2, 3);
        coo.push(0, 0, 1.0).unwrap();
        assert!(matches!(
            rebuild_under_ordering(&CsrMatrix::from_coo(&coo)),
            Err(LuError::NotSquare { .. })
        ));
    }
}
