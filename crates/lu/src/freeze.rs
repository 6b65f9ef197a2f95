//! Freezing live dynamic factors into flat, shareable static factors.
//!
//! The streaming engine maintains its factors in [`DynamicLuFactors`]
//! (fill-ins insert list nodes on demand) but *publishes* them to the query
//! side as [`LuFactors`] over an [`Arc<LuStructure>`]: one contiguous slot
//! array instead of three heap vectors per row.  As long as the pattern has
//! not moved since the previous freeze, the new block shares the previous
//! block's structure and the freeze is a copy of the values; when it has
//! moved, the structure is rebuilt straight from the lists' sorted row
//! slices.  Either way the frozen block stores exactly the list nodes of the
//! dynamic factors — explicit zeros included, nothing added — so both
//! storages substitute through the same entries in the same order and answer
//! bit-identically.
//!
//! Per-row allocation here is what made publication cost proportional to the
//! whole block; this file is under the allocation lint so it stays out.

// lint: hot-path

use crate::dynamic::DynamicLuFactors;
use crate::error::{LuError, LuResult};
use crate::factors::LuFactors;
use crate::structure::LuStructure;
use std::sync::Arc;

impl DynamicLuFactors {
    /// Freezes the current factors into static storage.
    ///
    /// `structure` is the layout of an earlier freeze of these factors whose
    /// pattern is still current — the caller's claim, checked per row by
    /// length — or `None` to build the layout from the lists.  The result's
    /// [`LuFactors::structure`] is the handle to pass next time.
    ///
    /// Errors: a missing diagonal ([`LuError::SingularPivot`], see
    /// [`LuStructure::from_sorted_rows`]) or a stale `structure`
    /// ([`LuError::EntryOutsideStructure`] at the first row that disagrees).
    pub fn freeze(&self, structure: Option<&Arc<LuStructure>>) -> LuResult<LuFactors> {
        let n = self.n();
        let structure = match structure {
            Some(shared) => Arc::clone(shared),
            None => Arc::new(LuStructure::from_sorted_rows(n, self.nnz(), |i| {
                self.row_entries(i).0
            })?),
        };
        if structure.n() != n {
            return Err(LuError::DimensionMismatch {
                expected: n,
                actual: structure.n(),
            });
        }
        let mut frozen = LuFactors::zeroed(structure);
        for i in 0..n {
            let (cols, vals) = self.row_entries(i);
            let slots = frozen.row_values_mut(i);
            if slots.len() != vals.len() {
                return Err(LuError::EntryOutsideStructure {
                    row: i,
                    col: cols.last().copied().unwrap_or(i),
                });
            }
            slots.copy_from_slice(vals);
        }
        debug_assert!((0..n).all(|i| frozen.structure().row_cols(i) == self.row_entries(i).0));
        Ok(frozen)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::write_entry;
    use clude_sparse::{CooMatrix, CsrMatrix};

    fn sample_matrix() -> CsrMatrix {
        let mut coo = CooMatrix::new(4, 4);
        for &(i, j, v) in &[
            (0, 0, 4.0),
            (0, 2, 1.0),
            (1, 0, -1.0),
            (1, 1, 5.0),
            (2, 1, -2.0),
            (2, 2, 6.0),
            (2, 3, 1.0),
            (3, 0, 1.0),
            (3, 3, 3.0),
        ] {
            coo.push(i, j, v).unwrap();
        }
        CsrMatrix::from_coo(&coo)
    }

    fn assert_same_bits(a: &[f64], b: &[f64]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn frozen_factors_export_and_solve_like_the_dynamic_ones() {
        let mut dynamic = DynamicLuFactors::factorize(&sample_matrix()).unwrap();
        // An explicitly stored zero must survive the freeze as a slot.
        write_entry(&mut dynamic, 0, 2, 0.0);
        let frozen = dynamic.freeze(None).unwrap();
        assert_eq!(frozen.nnz(), dynamic.nnz());
        assert_eq!(frozen.export_entries(), dynamic.export_entries());
        let b = [1.0, -2.0, 0.5, 3.0, 0.25, 1.5, -1.0, 2.0];
        let (mut xd, mut xs) = (Vec::new(), Vec::new());
        dynamic.solve_many_into(&b, 2, &mut xd).unwrap();
        frozen.solve_many_into(&b, 2, &mut xs).unwrap();
        assert_same_bits(&xd, &xs);
        assert_same_bits(
            &dynamic.solve(&b[..4]).unwrap(),
            &frozen.solve(&b[..4]).unwrap(),
        );
    }

    #[test]
    fn an_unchanged_pattern_shares_the_structure_and_a_moved_one_is_rejected() {
        let mut dynamic = DynamicLuFactors::factorize(&sample_matrix()).unwrap();
        let first = dynamic.freeze(None).unwrap();
        // Value-only rewrite: same pattern, the structure handle is reused.
        write_entry(&mut dynamic, 1, 1, 7.0);
        let second = dynamic.freeze(Some(first.structure())).unwrap();
        assert!(Arc::ptr_eq(first.structure(), second.structure()));
        assert_eq!(second.export_entries(), dynamic.export_entries());
        assert_eq!(first.u(1, 1), 5.0, "the earlier block is immutable");
        // A fill-in moves the pattern: the stale handle is refused, a fresh
        // build covers the new node.
        write_entry(&mut dynamic, 3, 1, 0.25);
        assert!(matches!(
            dynamic.freeze(Some(first.structure())),
            Err(LuError::EntryOutsideStructure { row: 3, .. })
        ));
        let third = dynamic.freeze(None).unwrap();
        assert!(!Arc::ptr_eq(first.structure(), third.structure()));
        assert_eq!(third.export_entries(), dynamic.export_entries());
    }

    #[test]
    fn a_block_without_a_pivot_does_not_freeze() {
        // Decoded checkpoint payloads are the one source of such factors.
        let broken = DynamicLuFactors::from_sorted_entries(2, &[(0, 0, 1.0), (1, 0, 0.5)]).unwrap();
        assert!(matches!(
            broken.freeze(None),
            Err(LuError::SingularPivot { index: 1, .. })
        ));
    }
}
