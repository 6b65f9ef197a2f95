//! Property-based tests for the LU engine: factorization against the dense
//! oracle, reordered solves, symbolic coverage and the structural behaviour
//! of the two storage back-ends.

mod common;

use clude_lu::{
    amd_ordering, apply_delta_with, factorize_fresh, markowitz_ordering, refactor_frozen,
    refactor_frozen_reach, solve_original, symbolic_decomposition, BennettWorkspace,
    DynamicLuFactors, LuFactors, LuStructure, RefactorWorkspace,
};
use clude_sparse::{CooMatrix, CsrMatrix};
use common::apply_delta;
use proptest::prelude::*;

/// Applies a `(row, col, old, new)` delta list to a matrix.
fn updated_matrix(a: &CsrMatrix, delta: &[(usize, usize, f64, f64)]) -> CsrMatrix {
    let mut coo = CooMatrix::new(a.n_rows(), a.n_cols());
    for (i, j, v) in a.iter() {
        coo.push(i, j, v).unwrap();
    }
    for &(i, j, old, new) in delta {
        coo.push(i, j, new - old).unwrap();
    }
    CsrMatrix::from_coo(&coo)
}

/// A random sequence of off-diagonal delta lists against the running matrix.
fn delta_sequence() -> impl Strategy<Value = Vec<Vec<(usize, usize, f64)>>> {
    proptest::collection::vec(
        proptest::collection::vec((0usize..9, 0usize..9, -0.2f64..0.2), 1..4),
        1..4,
    )
}

fn diag_dominant(n: usize, extra: usize) -> impl Strategy<Value = CsrMatrix> {
    proptest::collection::vec((0..n, 0..n, -1.0f64..1.0), 0..extra.max(1)).prop_map(
        move |entries| {
            let mut coo = CooMatrix::new(n, n);
            let mut row_sums = vec![0.0; n];
            let mut offdiag = Vec::new();
            for (i, j, v) in entries {
                if i != j {
                    row_sums[i] += v.abs();
                    offdiag.push((i, j, v));
                }
            }
            for (i, sum) in row_sums.iter().enumerate() {
                coo.push(i, i, sum + 1.0).unwrap();
            }
            for (i, j, v) in offdiag {
                coo.push(i, j, v).unwrap();
            }
            CsrMatrix::from_coo(&coo)
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn sparse_lu_matches_dense_oracle(a in diag_dominant(10, 28)) {
        let f = factorize_fresh(&a).unwrap();
        let (dl, du) = a.to_dense().lu_no_pivoting().unwrap();
        for i in 0..10 {
            for j in 0..10 {
                prop_assert!((f.l(i, j) - dl.get(i, j)).abs() < 1e-9);
                prop_assert!((f.u(i, j) - du.get(i, j)).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn reordered_solve_equals_dense_solve(a in diag_dominant(10, 30), rhs in proptest::collection::vec(-2.0f64..2.0, 10)) {
        let result = markowitz_ordering(&a.pattern());
        let reordered = a.reorder(&result.ordering).unwrap();
        let structure = LuStructure::from_pattern(&reordered.pattern()).unwrap().into_shared();
        let factors = LuFactors::factorize(structure, &reordered).unwrap();
        let x = solve_original(&factors, &result.ordering, &rhs).unwrap();
        let dense = a.to_dense().solve_gaussian(&rhs).unwrap();
        for (u, v) in x.iter().zip(dense.iter()) {
            prop_assert!((u - v).abs() < 1e-8);
        }
    }

    #[test]
    fn markowitz_symbolic_size_never_exceeds_natural(a in diag_dominant(12, 40)) {
        let pattern = a.pattern();
        let natural = symbolic_decomposition(&pattern).size();
        let ordered = markowitz_ordering(&pattern).symbolic_size;
        prop_assert!(ordered <= natural);
        // And the size is at least n (the diagonal is always present).
        prop_assert!(ordered >= 12);
    }

    #[test]
    fn dynamic_and_static_storage_agree_after_updates(
        a in diag_dominant(9, 22),
        changes in proptest::collection::vec((0usize..9, 0usize..9, -0.3f64..0.3), 1..5),
    ) {
        let delta: Vec<(usize, usize, f64, f64)> = changes
            .into_iter()
            .filter(|&(i, j, _)| i != j)
            .map(|(i, j, v)| (i, j, a.get(i, j), a.get(i, j) + v))
            .collect();
        prop_assume!(!delta.is_empty());
        // Dynamic path.
        let mut dynamic = DynamicLuFactors::factorize(&a).unwrap();
        apply_delta(&mut dynamic, &delta).unwrap();
        // Static path over the union pattern.
        let mut coo = CooMatrix::new(9, 9);
        for (i, j, v) in a.iter() {
            coo.push(i, j, v).unwrap();
        }
        for &(i, j, old, new) in &delta {
            coo.push(i, j, new - old).unwrap();
        }
        let a_new = CsrMatrix::from_coo(&coo);
        let union = a.pattern().union(&a_new.pattern()).unwrap();
        let structure = LuStructure::from_pattern(&union).unwrap().into_shared();
        let mut fixed = LuFactors::factorize(structure, &a).unwrap();
        apply_delta(&mut fixed, &delta).unwrap();
        // Both agree on every solve.
        let b: Vec<f64> = (0..9).map(|i| 1.0 + i as f64 * 0.1).collect();
        let x1 = dynamic.solve(&b).unwrap();
        let x2 = fixed.solve(&b).unwrap();
        for (u, v) in x1.iter().zip(x2.iter()) {
            prop_assert!((u - v).abs() < 1e-8);
        }
    }

    #[test]
    fn reused_workspace_sweep_is_bit_identical(
        a in diag_dominant(9, 22),
        steps in delta_sequence(),
    ) {
        // One workspace threaded through a whole delta sequence must produce
        // exactly the factors (to the bit) a throwaway workspace per delta
        // produces — reuse is purely an allocation optimisation.
        let mut reused = DynamicLuFactors::factorize(&a).unwrap();
        let mut fresh = reused.clone();
        let mut ws = BennettWorkspace::new();
        let mut current = a.clone();
        for changes in steps {
            let delta: Vec<(usize, usize, f64, f64)> = changes
                .into_iter()
                .filter(|&(i, j, _)| i != j)
                .map(|(i, j, v)| (i, j, current.get(i, j), current.get(i, j) + v))
                .collect();
            if delta.is_empty() {
                continue;
            }
            let r1 = apply_delta_with(&mut reused, &mut ws, &delta);
            let r2 = apply_delta(&mut fresh, &delta);
            prop_assert_eq!(r1.is_ok(), r2.is_ok(), "reuse changed the outcome");
            if r1.is_err() {
                break;
            }
            prop_assert_eq!(r1.unwrap(), r2.unwrap());
            for i in 0..9 {
                for j in 0..9 {
                    prop_assert_eq!(
                        reused.l(i, j).to_bits(),
                        fresh.l(i, j).to_bits(),
                        "L({},{}) diverged", i, j
                    );
                    prop_assert_eq!(
                        reused.u(i, j).to_bits(),
                        fresh.u(i, j).to_bits(),
                        "U({},{}) diverged", i, j
                    );
                }
            }
            current = updated_matrix(&current, &delta);
        }
    }

    #[test]
    fn dynamic_storage_tracks_fresh_factorization_through_sequences(
        a in diag_dominant(9, 22),
        steps in delta_sequence(),
    ) {
        // After any delta sequence, the incrementally maintained dynamic
        // factors must solve like a from-scratch factorization of the final
        // matrix.
        let mut dynamic = DynamicLuFactors::factorize(&a).unwrap();
        let mut ws = BennettWorkspace::with_order(9);
        let mut current = a.clone();
        for changes in steps {
            let delta: Vec<(usize, usize, f64, f64)> = changes
                .into_iter()
                .filter(|&(i, j, _)| i != j)
                .map(|(i, j, v)| (i, j, current.get(i, j), current.get(i, j) + v))
                .collect();
            if delta.is_empty() {
                continue;
            }
            if apply_delta_with(&mut dynamic, &mut ws, &delta).is_err() {
                // A singular intermediate pivot: nothing to compare.
                return Ok(());
            }
            current = updated_matrix(&current, &delta);
        }
        let oracle = match factorize_fresh(&current) {
            Ok(f) => f,
            Err(_) => return Ok(()),
        };
        let b: Vec<f64> = (0..9).map(|i| 0.5 + i as f64 * 0.3).collect();
        let x1 = dynamic.solve(&b).unwrap();
        let x2 = oracle.solve(&b).unwrap();
        for (u, v) in x1.iter().zip(x2.iter()) {
            prop_assert!((u - v).abs() < 1e-9, "{} vs {}", u, v);
        }
    }

    #[test]
    fn both_storages_track_fresh_factorization_entry_by_entry(
        a in diag_dominant(9, 22),
        steps in delta_sequence(),
    ) {
        // Random sparse deltas — value changes, insertions into absent
        // positions, removals by cancellation — through the pivot-granular
        // interface of both storages: after every step each factor entry
        // matches a from-scratch factorization, and the storages match each
        // other.  The sequence is materialised first because static storage
        // needs the universal structure up front.
        let mut matrices = vec![a.clone()];
        let mut deltas = Vec::new();
        for changes in steps {
            let current = &matrices[matrices.len() - 1];
            let delta: Vec<(usize, usize, f64, f64)> = changes
                .into_iter()
                .filter(|&(i, j, _)| i != j)
                .map(|(i, j, v)| (i, j, current.get(i, j), current.get(i, j) + v))
                .collect();
            if !delta.is_empty() {
                matrices.push(updated_matrix(current, &delta));
                deltas.push(delta);
            }
        }
        let universal = matrices[1..]
            .iter()
            .fold(a.pattern(), |acc, m| acc.union(&m.pattern()).unwrap());
        let structure = LuStructure::from_pattern(&universal).unwrap().into_shared();
        let mut fixed = LuFactors::factorize(structure, &a).unwrap();
        let mut dynamic = DynamicLuFactors::factorize(&a).unwrap();
        let mut ws = BennettWorkspace::new();
        for (delta, next) in deltas.iter().zip(&matrices[1..]) {
            let on_dynamic = apply_delta_with(&mut dynamic, &mut ws, delta);
            let on_static = apply_delta_with(&mut fixed, &mut ws, delta);
            prop_assert_eq!(on_dynamic.is_ok(), on_static.is_ok(), "storages disagree on failure");
            let (Ok(on_dynamic), Ok(on_static)) = (on_dynamic, on_static) else {
                // A singular intermediate pivot: nothing to compare.
                return Ok(());
            };
            prop_assert_eq!(on_dynamic.pivots_processed, on_static.pivots_processed);
            let Ok(fresh) = factorize_fresh(next) else {
                return Ok(());
            };
            for i in 0..9 {
                for j in 0..9 {
                    for (name, got_dynamic, got_static, want) in [
                        ("L", dynamic.l(i, j), fixed.l(i, j), fresh.l(i, j)),
                        ("U", dynamic.u(i, j), fixed.u(i, j), fresh.u(i, j)),
                    ] {
                        prop_assert!(
                            (got_dynamic - want).abs() <= 1e-10,
                            "dynamic {}({},{}) {} vs fresh {}", name, i, j, got_dynamic, want
                        );
                        prop_assert!(
                            (got_static - want).abs() <= 1e-10,
                            "static {}({},{}) {} vs fresh {}", name, i, j, got_static, want
                        );
                        prop_assert!(
                            (got_dynamic - got_static).abs() <= 1e-10,
                            "{}({},{}) dynamic {} vs static {}", name, i, j, got_dynamic, got_static
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn structure_covers_matrices_with_sub_patterns(a in diag_dominant(10, 30)) {
        // Build a structure from the matrix's pattern plus extra entries; the
        // factorization of the original matrix through that larger structure
        // must still be exact.
        let mut pattern = a.pattern();
        for k in 0..5usize {
            pattern.insert((k * 3) % 10, (k * 7 + 1) % 10);
        }
        let structure = LuStructure::from_pattern(&pattern).unwrap().into_shared();
        let loose = LuFactors::factorize(structure, &a).unwrap();
        let tight = factorize_fresh(&a).unwrap();
        prop_assert!(loose.nnz() >= tight.nnz());
        let b = vec![1.0; 10];
        let x1 = loose.solve(&b).unwrap();
        let x2 = tight.solve(&b).unwrap();
        for (u, v) in x1.iter().zip(x2.iter()) {
            prop_assert!((u - v).abs() < 1e-9);
        }
    }

    #[test]
    fn amd_ordering_is_a_valid_permutation_and_solves_exactly(
        a in diag_dominant(10, 30),
        rhs in proptest::collection::vec(-2.0f64..2.0, 10),
    ) {
        let result = amd_ordering(&a.pattern());
        let ord = &result.ordering;
        // Both permutations must be bijections on 0..n.
        for perm in [ord.row(), ord.col()] {
            prop_assert_eq!(perm.len(), 10);
            let mut seen = [false; 10];
            for i in 0..10 {
                let old = perm.new_to_old(i);
                prop_assert!(old < 10 && !seen[old], "duplicate image {}", old);
                seen[old] = true;
            }
        }
        // Factorizing through the AMD order solves the original system to
        // the same answer as the unordered fresh factorization.
        let reordered = a.reorder(ord).unwrap();
        let structure = LuStructure::from_pattern(&reordered.pattern())
            .unwrap()
            .into_shared();
        let factors = LuFactors::factorize(structure, &reordered).unwrap();
        let x = solve_original(&factors, ord, &rhs).unwrap();
        let fresh = factorize_fresh(&a).unwrap().solve(&rhs).unwrap();
        for (u, v) in x.iter().zip(fresh.iter()) {
            prop_assert!((u - v).abs() < 1e-9, "{} vs {}", u, v);
        }
    }

    #[test]
    fn refactor_matches_bennett_on_value_only_streams(
        a in diag_dominant(9, 24),
        // One bump per potential off-diagonal; zip truncates to the actual
        // count, which is at most the 24 generated entries.
        bumps in proptest::collection::vec(-0.15f64..0.15, 24),
    ) {
        let offdiag: Vec<(usize, usize, f64)> =
            a.iter().filter(|&(i, j, _)| i != j).collect();
        if offdiag.is_empty() {
            return Ok(());
        }
        // A value-only delta: every touched position already exists, so the
        // frozen-pattern refactorization and the Bennett sweep must agree.
        let delta: Vec<(usize, usize, f64, f64)> = offdiag
            .iter()
            .zip(&bumps)
            .map(|(&(i, j, v), &d)| (i, j, v, v + d))
            .collect();
        let mut bennett = DynamicLuFactors::factorize(&a).unwrap();
        let mut frozen = DynamicLuFactors::factorize(&a).unwrap();
        let mut ws = BennettWorkspace::new();
        if apply_delta_with(&mut bennett, &mut ws, &delta).is_err() {
            // A singular intermediate pivot: nothing to compare.
            return Ok(());
        }
        let updated = updated_matrix(&a, &delta);
        let mut rws = RefactorWorkspace::with_order(9);
        if refactor_frozen(&mut frozen, &updated, &mut rws).is_err() {
            return Ok(());
        }
        let b: Vec<f64> = (0..9).map(|i| 1.0 + 0.2 * i as f64).collect();
        let x1 = bennett.solve(&b).unwrap();
        let x2 = frozen.solve(&b).unwrap();
        for (u, v) in x1.iter().zip(x2.iter()) {
            prop_assert!((u - v).abs() < 1e-9, "{} vs {}", u, v);
        }
    }

    #[test]
    fn reach_limited_pass_after_a_full_pass_equals_a_full_pass_bit_for_bit(
        a in diag_dominant(12, 40),
        extra in proptest::collection::vec((0usize..12, 0usize..12), 0..6),
        bumps in proptest::collection::vec((0usize..400, -0.3f64..0.3), 1..6),
    ) {
        // A random closed structure: the symbolic closure of the matrix's
        // pattern and a few more positions.
        let mut pattern = a.pattern();
        for (i, j) in extra {
            pattern.insert(i, j);
        }
        let structure = LuStructure::from_pattern(&pattern).unwrap().into_shared();
        prop_assert!(structure.is_elimination_closed());
        let mut ws = RefactorWorkspace::new();
        let mut before = LuFactors::factorize(structure.clone(), &a).unwrap();
        refactor_frozen(&mut before, &a, &mut ws).unwrap();
        // A random value-only delta: bumps on slots of the structure, fill
        // slots and the diagonal included, repeats summing.
        let slots: Vec<(usize, usize)> = (0..12)
            .flat_map(|i| structure.row_cols(i).iter().map(move |&j| (i, j)))
            .collect();
        let delta: Vec<(usize, usize, f64, f64)> = bumps
            .iter()
            .map(|&(pick, d)| {
                let (i, j) = slots[pick % slots.len()];
                (i, j, 0.0, d)
            })
            .collect();
        let changed: Vec<usize> = delta.iter().map(|e| e.0).collect();
        let updated = updated_matrix(&a, &delta);
        let mut reach = before.clone();
        let by_reach = refactor_frozen_reach(&mut reach, &updated, Some(&changed), &mut ws);
        let recomputed = ws.refactored_rows().to_vec();
        let mut full = before.clone();
        let by_full = refactor_frozen(&mut full, &updated, &mut ws);
        let bits = |f: &LuFactors| {
            f.export_entries()
                .into_iter()
                .map(|(i, j, v)| (i, j, v.to_bits()))
                .collect::<Vec<_>>()
        };
        match (by_reach, by_full) {
            (Ok(stats), Ok(full_stats)) => {
                prop_assert_eq!(bits(&reach), bits(&full));
                prop_assert_eq!(stats.rows_refactored, recomputed.len());
                prop_assert!(stats.multiply_adds <= full_stats.multiply_adds);
                for &i in &changed {
                    prop_assert!(recomputed.contains(&i));
                }
                let outside = |f: &LuFactors| {
                    bits(f)
                        .into_iter()
                        .filter(|e| !recomputed.contains(&e.0))
                        .collect::<Vec<_>>()
                };
                prop_assert_eq!(outside(&reach), outside(&before));
            }
            // A pivot the bumps broke fails both passes at the same row.
            (Err(reach_err), Err(full_err)) => prop_assert_eq!(reach_err, full_err),
            (r, f) => prop_assert!(false, "reach {:?} vs full {:?}", r, f),
        }
    }

    #[test]
    fn a_reach_pass_from_a_factorization_is_the_factorization_of_the_updated_matrix(
        a in diag_dominant(12, 40),
        extra in proptest::collection::vec((0usize..12, 0usize..12), 0..6),
        bumps in proptest::collection::vec((0usize..400, -0.3f64..0.3), 0..6),
    ) {
        // A random closed structure: the symbolic closure of the matrix's
        // pattern and a few more positions.
        let mut pattern = a.pattern();
        for (i, j) in extra {
            pattern.insert(i, j);
        }
        let structure = LuStructure::from_pattern(&pattern).unwrap().into_shared();
        prop_assert!(structure.is_elimination_closed());
        let before = LuFactors::factorize(structure.clone(), &a).unwrap();
        // A random value-only delta on slots of the structure, fill slots
        // and the diagonal included, repeats summing.
        let slots: Vec<(usize, usize)> = (0..12)
            .flat_map(|i| structure.row_cols(i).iter().map(move |&j| (i, j)))
            .collect();
        let delta: Vec<(usize, usize, f64, f64)> = bumps
            .iter()
            .map(|&(pick, d)| {
                let (i, j) = slots[pick % slots.len()];
                (i, j, 0.0, d)
            })
            .collect();
        let changed: Vec<usize> = delta.iter().map(|e| e.0).collect();
        let updated = updated_matrix(&a, &delta);
        let mut ws = RefactorWorkspace::new();
        let mut reach = before.clone();
        let Ok(stats) = refactor_frozen_reach(&mut reach, &updated, Some(&changed), &mut ws) else {
            // A pivot the bumps broke or degraded: nothing to compare.
            return Ok(());
        };
        let recomputed = ws.refactored_rows().to_vec();
        prop_assert_eq!(stats.rows_refactored, recomputed.len());
        let bits = |f: &LuFactors, rows: &dyn Fn(usize) -> bool| {
            f.export_entries()
                .into_iter()
                .filter(|e| rows(e.0))
                .map(|(i, j, v)| (i, j, v.to_bits()))
                .collect::<Vec<_>>()
        };
        // Every slot, bit for bit, is what factorizing the updated matrix
        // writes there.
        let fresh = LuFactors::factorize(structure, &updated).unwrap();
        prop_assert_eq!(bits(&reach, &|_| true), bits(&fresh, &|_| true));
        // The rows outside the reach were not written at all.
        let outside = |i: usize| !recomputed.contains(&i);
        prop_assert_eq!(bits(&reach, &outside), bits(&before, &outside));
        // The queue kernel's full pass over the same factors as lists
        // computes the same values (up to the sign of a zero).
        let mut lists = DynamicLuFactors::from_sorted_entries(12, &before.export_entries()).unwrap();
        let listed = refactor_frozen_reach(&mut lists, &updated, Some(&changed), &mut ws).unwrap();
        prop_assert_eq!(listed.rows_refactored, 12);
        prop_assert_eq!(lists.export_entries(), reach.export_entries());
    }
}
