//! Property-based tests (proptest) on the core invariants of the
//! reproduction: factorization correctness, Bennett-update equivalence with
//! refactorization, symbolic-pattern coverage, USSP coverage, similarity
//! metric properties and permutation round-trips.

// Indexed loops mirror the paper's matrix notation.
#![allow(clippy::needless_range_loop)]

#[path = "../crates/lu/tests/common/mod.rs"]
mod common;

use clude_lu::{
    factorize_fresh, markowitz_ordering, symbolic_decomposition, DynamicLuFactors, LuFactors,
    LuStructure,
};
use clude_sparse::{CooMatrix, CsrMatrix, Ordering, Permutation, SparsityPattern};
use common::apply_delta;
use proptest::prelude::*;

/// Strategy: a random sparse, strictly diagonally dominant matrix of order
/// `n` with `extra` off-diagonal entries (such matrices factorize without
/// pivoting, like the paper's `I − dW` matrices).
fn diag_dominant_matrix(n: usize, extra: usize) -> impl Strategy<Value = CsrMatrix> {
    let offdiag = proptest::collection::vec((0..n, 0..n, -1.0f64..1.0), 0..extra.max(1));
    offdiag.prop_map(move |entries| {
        let mut coo = CooMatrix::new(n, n);
        let mut row_sums = vec![0.0; n];
        let mut filtered = Vec::new();
        for (i, j, v) in entries {
            if i != j {
                row_sums[i] += v.abs();
                filtered.push((i, j, v));
            }
        }
        for i in 0..n {
            coo.push(i, i, row_sums[i] + 1.0).unwrap();
        }
        for (i, j, v) in filtered {
            coo.push(i, j, v).unwrap();
        }
        CsrMatrix::from_coo(&coo)
    })
}

/// Strategy: a sparse delta touching existing or new positions.
fn delta_entries(n: usize, count: usize) -> impl Strategy<Value = Vec<(usize, usize, f64)>> {
    proptest::collection::vec((0..n, 0..n, -0.4f64..0.4), 1..count.max(2))
}

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn lu_factorization_reconstructs_the_matrix(a in diag_dominant_matrix(12, 30)) {
        let f = factorize_fresh(&a).unwrap();
        let err = f.reconstruct().max_abs_diff(&a).unwrap();
        prop_assert!(err < 1e-9, "reconstruction error {err}");
    }

    #[test]
    fn lu_solve_satisfies_the_system(a in diag_dominant_matrix(10, 25), seed in 0usize..10) {
        let f = factorize_fresh(&a).unwrap();
        let mut b = vec![0.0; 10];
        b[seed] = 1.0;
        let x = f.solve(&b).unwrap();
        let ax = a.mul_vec(&x).unwrap();
        for (l, r) in ax.iter().zip(b.iter()) {
            prop_assert!((l - r).abs() < 1e-8);
        }
    }

    #[test]
    fn factor_pattern_is_covered_by_symbolic_pattern(a in diag_dominant_matrix(12, 30)) {
        let f = factorize_fresh(&a).unwrap();
        let symbolic = symbolic_decomposition(&a.pattern()).pattern;
        // Non-zero slots of L+U all lie inside s̃p(A).
        let l = f.l_matrix();
        let u = f.u_matrix();
        for (i, j, v) in l.iter().chain(u.iter()) {
            if v != 0.0 && i != j {
                prop_assert!(symbolic.contains(i, j), "({i},{j}) outside s̃p");
            }
        }
    }

    #[test]
    fn bennett_dynamic_update_matches_refactorization(
        a in diag_dominant_matrix(10, 22),
        raw_delta in delta_entries(10, 6),
    ) {
        let mut dynamic = DynamicLuFactors::factorize(&a).unwrap();
        // Build an exact (row, col, old, new) delta keeping the diagonal
        // dominant enough to stay factorizable.
        let delta: Vec<(usize, usize, f64, f64)> = raw_delta
            .into_iter()
            .filter(|&(i, j, _)| i != j)
            .map(|(i, j, v)| (i, j, a.get(i, j), a.get(i, j) + v))
            .collect();
        prop_assume!(!delta.is_empty());
        let a_new = apply_delta_to_matrix(&a, &delta);
        // The updated matrix may become singular in rare cases; skip those.
        let fresh = match factorize_fresh(&a_new) {
            Ok(f) => f,
            Err(_) => return Ok(()),
        };
        apply_delta(&mut dynamic, &delta).unwrap();
        let b: Vec<f64> = (0..10).map(|i| (i as f64 * 0.7).cos()).collect();
        let x1 = dynamic.solve(&b).unwrap();
        let x2 = fresh.solve(&b).unwrap();
        for (u, v) in x1.iter().zip(x2.iter()) {
            prop_assert!((u - v).abs() < 1e-7, "{u} vs {v}");
        }
    }

    #[test]
    fn bennett_static_update_matches_refactorization_within_union_structure(
        a in diag_dominant_matrix(10, 22),
        raw_delta in delta_entries(10, 5),
    ) {
        let delta: Vec<(usize, usize, f64, f64)> = raw_delta
            .into_iter()
            .filter(|&(i, j, _)| i != j)
            .map(|(i, j, v)| (i, j, a.get(i, j), a.get(i, j) + v))
            .collect();
        prop_assume!(!delta.is_empty());
        let a_new = apply_delta_to_matrix(&a, &delta);
        let union = a.pattern().union(&a_new.pattern()).unwrap();
        let structure = LuStructure::from_pattern(&union).unwrap().into_shared();
        let mut factors = LuFactors::factorize(structure.clone(), &a).unwrap();
        let fresh = match LuFactors::factorize(structure, &a_new) {
            Ok(f) => f,
            Err(_) => return Ok(()),
        };
        apply_delta(&mut factors, &delta).unwrap();
        for i in 0..10 {
            for j in 0..10 {
                prop_assert!((factors.l(i, j) - fresh.l(i, j)).abs() < 1e-7);
                prop_assert!((factors.u(i, j) - fresh.u(i, j)).abs() < 1e-7);
            }
        }
    }

    #[test]
    fn markowitz_never_loses_to_natural_order(a in diag_dominant_matrix(14, 40)) {
        let pattern = a.pattern();
        let natural = symbolic_decomposition(&pattern).size();
        let markowitz = markowitz_ordering(&pattern).symbolic_size;
        prop_assert!(markowitz <= natural, "markowitz {markowitz} vs natural {natural}");
    }

    #[test]
    fn mes_is_symmetric_bounded_and_reflexive(
        entries_a in proptest::collection::vec((0usize..8, 0usize..8), 0..20),
        entries_b in proptest::collection::vec((0usize..8, 0usize..8), 0..20),
    ) {
        let a = SparsityPattern::from_entries(8, 8, entries_a).unwrap();
        let b = SparsityPattern::from_entries(8, 8, entries_b).unwrap();
        let ab = a.mes(&b).unwrap();
        let ba = b.mes(&a).unwrap();
        prop_assert!((ab - ba).abs() < 1e-12);
        prop_assert!((0.0..=1.0).contains(&ab));
        prop_assert!((a.mes(&a).unwrap() - 1.0).abs() < 1e-12);
        // Monotonicity of the union/intersection bounds.
        let union = a.union(&b).unwrap();
        let inter = a.intersection(&b).unwrap();
        prop_assert!(inter.is_subset_of(&a) && inter.is_subset_of(&b));
        prop_assert!(a.is_subset_of(&union) && b.is_subset_of(&union));
    }

    #[test]
    fn symbolic_pattern_is_monotone_in_the_input(
        entries in proptest::collection::vec((0usize..8, 0usize..8), 0..18),
        extra in proptest::collection::vec((0usize..8, 0usize..8), 0..6),
    ) {
        // Lemma 1 of the paper.
        let small = SparsityPattern::from_entries(8, 8, entries.clone()).unwrap();
        let big = SparsityPattern::from_entries(8, 8, entries.into_iter().chain(extra)).unwrap();
        let s_small = symbolic_decomposition(&small).pattern;
        let s_big = symbolic_decomposition(&big).pattern;
        prop_assert!(s_small.is_subset_of(&s_big));
    }

    #[test]
    fn permutation_roundtrip_and_reorder_preserve_values(
        a in diag_dominant_matrix(9, 20),
        perm_seed in proptest::collection::vec(0u64..1000, 9),
    ) {
        // Build a permutation by sorting the seed values.
        let mut idx: Vec<usize> = (0..9).collect();
        idx.sort_by_key(|&i| perm_seed[i]);
        let p = Permutation::from_new_to_old(idx).unwrap();
        let o = Ordering::symmetric(p.clone());
        let reordered = a.reorder(&o).unwrap();
        prop_assert_eq!(reordered.nnz(), a.nnz());
        for (i, j, v) in reordered.iter() {
            prop_assert_eq!(a.get(p.new_to_old(i), p.new_to_old(j)), v);
        }
        // Vector gather/scatter round-trip.
        let x: Vec<f64> = (0..9).map(|i| i as f64).collect();
        let y = p.apply_vec(&x).unwrap();
        let back = p.apply_inverse_vec(&y).unwrap();
        prop_assert_eq!(back, x);
    }
}
