//! Error paths of the pivot-granular storage interface, and an oracle for the
//! sweep that shares no code with it.

mod common;

use clude_graph::{measure_matrix, DiGraph, MatrixKind};
use clude_lu::{
    apply_delta_with, BennettWorkspace, DynamicLuFactors, LuError, LuFactors, LuStructure,
};
use clude_sparse::{CooMatrix, CsrMatrix, SparsityPattern};
use common::rank_one_update;

fn matrix(n: usize, entries: &[(usize, usize, f64)]) -> CsrMatrix {
    let mut coo = CooMatrix::new(n, n);
    for &(i, j, v) in entries {
        coo.push(i, j, v).unwrap();
    }
    CsrMatrix::from_coo(&coo)
}

/// `diag(8, 9, 10, 11)` plus `(1, 0) = 1`, factorized over its own pattern:
/// the structure has no room for any further fill.
fn tight_static_factors() -> LuFactors {
    let a = matrix(
        4,
        &[
            (0, 0, 8.0),
            (1, 1, 9.0),
            (2, 2, 10.0),
            (3, 3, 11.0),
            (1, 0, 1.0),
        ],
    );
    let structure = LuStructure::from_pattern(&a.pattern())
        .unwrap()
        .into_shared();
    LuFactors::factorize(structure, &a).unwrap()
}

#[test]
fn fill_outside_a_static_structure_names_its_position() {
    // L side: x reaches row 2 under pivot 1, and (2, 1) has no slot.
    let err = rank_one_update(&mut tight_static_factors(), &[(2, 5.0)], &[(1, 1.0)], 1.0);
    match err.unwrap_err() {
        LuError::FillOutsideStructure {
            row,
            col,
            magnitude,
        } => {
            assert_eq!((row, col), (2, 1));
            assert_eq!(magnitude, 5.0 / 9.0);
        }
        other => panic!("expected FillOutsideStructure, got {other:?}"),
    }
    // U side: y reaches column 3 under pivot 1, and (1, 3) has no slot.
    let err = rank_one_update(
        &mut tight_static_factors(),
        &[(1, 2.0)],
        &[(1, 1.0), (3, 0.5)],
        1.0,
    );
    match err.unwrap_err() {
        LuError::FillOutsideStructure {
            row,
            col,
            magnitude,
        } => {
            assert_eq!((row, col), (1, 3));
            assert_eq!(magnitude, 1.0);
        }
        other => panic!("expected FillOutsideStructure, got {other:?}"),
    }
}

#[test]
fn fill_outside_a_static_structure_below_the_tolerance_is_dropped() {
    let mut factors = tight_static_factors();
    let before = factors.export_entries();
    // The would-be L(2, 1) is 1e-10 / 9 and the would-be U(1, 3) is 2e-10:
    // both under FILL_DROP_TOL, so the update goes through and leaves no
    // trace outside the structure (there is nowhere to leave one).
    rank_one_update(&mut factors, &[(2, 1e-10)], &[(1, 1.0)], 1.0).unwrap();
    assert_eq!(factors.export_entries(), before);
    rank_one_update(&mut factors, &[(1, 2.0)], &[(1, 1.0), (3, 1e-10)], 1.0).unwrap();
    assert_eq!(factors.u(1, 1), 11.0);
    assert_eq!(factors.export_entries().len(), before.len());
}

#[test]
fn a_pivot_collapsing_mid_sweep_is_reported_with_its_index() {
    // A = [[4, 0], [2, 8]]; A + x·yᵀ with x = (4, -14), y = (1, 1) is
    // [[8, 4], [-12, -6]], singular.  Every intermediate is exact in binary:
    // pivot 0 goes through (4 -> 8), pivot 1 lands on exactly zero.
    let a = matrix(2, &[(0, 0, 4.0), (1, 0, 2.0), (1, 1, 8.0)]);
    let (x, y) = ([(0, 4.0), (1, -14.0)], [(0, 1.0), (1, 1.0)]);
    let mut dynamic = DynamicLuFactors::factorize(&a).unwrap();
    let err = rank_one_update(&mut dynamic, &x, &y, 1.0).unwrap_err();
    assert!(matches!(err, LuError::SingularPivot { index: 1, value } if value == 0.0));
    assert_eq!(dynamic.u(0, 0), 8.0, "pivot 0 was already rewritten");

    let full = SparsityPattern::from_entries(2, 2, vec![(0, 0), (0, 1), (1, 0), (1, 1)]).unwrap();
    let structure = LuStructure::from_pattern(&full).unwrap().into_shared();
    let mut fixed = LuFactors::factorize(structure, &a).unwrap();
    let err = rank_one_update(&mut fixed, &x, &y, 1.0).unwrap_err();
    assert!(matches!(err, LuError::SingularPivot { index: 1, value } if value == 0.0));
}

#[test]
#[should_panic(expected = "x index 4 out of range for order 4")]
fn an_out_of_range_x_index_fails_loudly() {
    let _ = rank_one_update(&mut tight_static_factors(), &[(4, 1.0)], &[(0, 1.0)], 1.0);
}

#[test]
#[should_panic(expected = "y index 9 out of range for order 4")]
fn an_out_of_range_y_index_fails_loudly() {
    // A workspace grown by a larger matrix must not absorb the index.
    let mut ws = BennettWorkspace::with_order(16);
    let _ = clude_lu::rank_one_update_with(
        &mut tight_static_factors(),
        &mut ws,
        &[(0, 1.0)],
        &[(9, 1.0)],
        1.0,
    );
}

/// Inserting one edge `u -> v` changes one column of `A = I − dW` (column
/// `u` is renormalised), i.e. `A' = A + c·e_uᵀ`.  The closed-form rank-one
/// update of the inverse (Sherman–Morrison; Ranjan et al., arXiv:1304.2300,
/// state it for an edge insertion into a Laplacian pseudo-inverse) gives
///
/// ```text
/// A'⁻¹ e_s = A⁻¹ e_s − A⁻¹c · (A⁻¹ e_s)_u / (1 + (A⁻¹c)_u)
/// ```
///
/// computed here from dense Gaussian-elimination solves on the *old* matrix
/// only — no factor, no sweep.
#[test]
fn a_single_edge_insertion_reproduces_the_closed_form_rank_one_update() {
    let n = 12;
    let mut graph = DiGraph::new(n);
    for u in 0..n {
        graph.add_edge(u, (u + 1) % n);
        graph.add_edge(u, (u * 5 + 3) % n);
        if u % 3 == 0 {
            graph.add_edge(u, (u + 7) % n);
        }
    }
    let kind = MatrixKind::RandomWalk { damping: 0.85 };
    let a = measure_matrix(&graph, kind);
    let (u, v) = (4, 10);
    assert!(graph.add_edge(u, v), "the edge is new");
    let a_new = measure_matrix(&graph, kind);
    let delta = a.delta_to(&a_new, 0.0).unwrap();
    assert!(delta.iter().all(|&(_, col, _, _)| col == u), "one column");
    assert!(delta.iter().any(|&(row, _, old, _)| row == v && old == 0.0));

    // Closed form, from the old matrix alone.
    let dense = a.to_dense();
    let mut c = vec![0.0; n];
    for &(row, _, old, new) in &delta {
        c[row] = new - old;
    }
    let a_inv_c = dense.solve_gaussian(&c).unwrap();

    // The sweep, on both storages.
    let mut ws = BennettWorkspace::new();
    let mut dynamic = DynamicLuFactors::factorize(&a).unwrap();
    apply_delta_with(&mut dynamic, &mut ws, &delta).unwrap();
    let union = a.pattern().union(&a_new.pattern()).unwrap();
    let structure = LuStructure::from_pattern(&union).unwrap().into_shared();
    let mut fixed = LuFactors::factorize(structure, &a).unwrap();
    apply_delta_with(&mut fixed, &mut ws, &delta).unwrap();

    for s in 0..n {
        let mut e_s = vec![0.0; n];
        e_s[s] = 1.0;
        let a_inv_s = dense.solve_gaussian(&e_s).unwrap();
        let scale = a_inv_s[u] / (1.0 + a_inv_c[u]);
        let from_dynamic = dynamic.solve(&e_s).unwrap();
        let from_static = fixed.solve(&e_s).unwrap();
        for i in 0..n {
            let closed_form = a_inv_s[i] - a_inv_c[i] * scale;
            assert!(
                (from_dynamic[i] - closed_form).abs() <= 1e-12,
                "dynamic, source {s}, node {i}: {} vs {closed_form}",
                from_dynamic[i]
            );
            assert!(
                (from_static[i] - closed_form).abs() <= 1e-12,
                "static, source {s}, node {i}: {} vs {closed_form}",
                from_static[i]
            );
        }
    }
}
