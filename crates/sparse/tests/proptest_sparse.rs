//! Property-based tests for the sparse substrate: CSR arithmetic, pattern
//! algebra and the dynamic adjacency-list matrix.

use clude_sparse::{AdjacencyMatrix, CooMatrix, CsrMatrix, Ordering, Permutation, SparsityPattern};
use proptest::prelude::*;

fn csr(n: usize, max_entries: usize) -> impl Strategy<Value = CsrMatrix> {
    proptest::collection::vec((0..n, 0..n, -5.0f64..5.0), 0..max_entries).prop_map(move |entries| {
        let mut coo = CooMatrix::new(n, n);
        for (i, j, v) in entries {
            coo.push(i, j, v).unwrap();
        }
        CsrMatrix::from_coo(&coo)
    })
}

/// A uniformly random permutation of `0..n`: the argsort of random keys.
fn permutation(n: usize) -> impl Strategy<Value = Permutation> {
    proptest::collection::vec(0u64..u64::MAX, n).prop_map(|keys| {
        let mut new_to_old: Vec<usize> = (0..keys.len()).collect();
        new_to_old.sort_by_key(|&i| (keys[i], i));
        Permutation::from_new_to_old(new_to_old).unwrap()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `from_coo` against a per-position accumulator: sorted rows, one entry
    /// per position (zeros sums kept), duplicates summed in insertion order
    /// bit for bit, empty rows and rectangular shapes included.
    #[test]
    fn from_coo_sums_duplicates_in_insertion_order(
        entries in proptest::collection::vec((0usize..7, 0usize..5, -5.0f64..5.0), 0..80),
    ) {
        let mut coo = CooMatrix::new(7, 5);
        let mut model: std::collections::BTreeMap<(usize, usize), f64> = Default::default();
        for &(i, j, v) in &entries {
            // A few exact cancellations, so explicit zeros show up.
            let v = if (i + j) % 3 == 0 { v.round() } else { v };
            coo.push(i, j, v).unwrap();
            *model.entry((i, j)).or_insert(0.0) += v;
        }
        let m = CsrMatrix::from_coo(&coo);
        prop_assert_eq!(m.nnz(), model.len());
        let got: Vec<(usize, usize, u64)> = m.iter().map(|(i, j, v)| (i, j, v.to_bits())).collect();
        let want: Vec<(usize, usize, u64)> =
            model.iter().map(|(&(i, j), v)| (i, j, v.to_bits())).collect();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn transpose_is_involutive_and_preserves_values(a in csr(9, 40)) {
        let t = a.transpose();
        prop_assert_eq!(t.transpose(), a.clone());
        for (i, j, v) in a.iter() {
            prop_assert_eq!(t.get(j, i), v);
        }
    }

    #[test]
    fn mul_vec_agrees_with_dense(a in csr(8, 30), x in proptest::collection::vec(-3.0f64..3.0, 8)) {
        let sparse = a.mul_vec(&x).unwrap();
        let dense = a.to_dense().mul_vec(&x).unwrap();
        for (s, d) in sparse.iter().zip(dense.iter()) {
            prop_assert!((s - d).abs() < 1e-12);
        }
        // Transposed product agrees with the transpose's product.
        let t1 = a.mul_vec_transposed(&x).unwrap();
        let t2 = a.transpose().mul_vec(&x).unwrap();
        for (s, d) in t1.iter().zip(t2.iter()) {
            prop_assert!((s - d).abs() < 1e-12);
        }
    }

    #[test]
    fn add_scaled_is_linear(a in csr(8, 30), b in csr(8, 30), x in proptest::collection::vec(-2.0f64..2.0, 8)) {
        let combo = a.add_scaled(2.0, &b, -0.5).unwrap();
        let lhs = combo.mul_vec(&x).unwrap();
        let av = a.mul_vec(&x).unwrap();
        let bv = b.mul_vec(&x).unwrap();
        for i in 0..8 {
            prop_assert!((lhs[i] - (2.0 * av[i] - 0.5 * bv[i])).abs() < 1e-10);
        }
    }

    /// `reorder` builds the permuted CSR directly; the triplet route it
    /// replaced (`CooMatrix` + `from_coo`) is the oracle — identical arrays
    /// under independent row and column permutations, stored zeros kept.
    #[test]
    fn reorder_matches_the_triplet_route(
        entries in proptest::collection::vec((0usize..9, 0usize..9, -5.0f64..5.0), 0..50),
        rows in permutation(9),
        cols in permutation(9),
    ) {
        let mut coo = CooMatrix::new(9, 9);
        for (i, j, v) in entries {
            // Explicit zeros must survive the permutation as stored entries.
            coo.push(i, j, if (i + j) % 4 == 0 { 0.0 } else { v }).unwrap();
        }
        let a = CsrMatrix::from_coo(&coo);
        let ordering = Ordering::new(
            rows,
            cols,
        );
        let col_old_to_new = ordering.col().old_to_new();
        let mut permuted = CooMatrix::new(9, 9);
        for new_i in 0..9 {
            let (c, v) = a.row(ordering.row().new_to_old(new_i));
            for (&j, &v) in c.iter().zip(v) {
                permuted.push(new_i, col_old_to_new[j], v).unwrap();
            }
        }
        let want = CsrMatrix::from_coo(&permuted);
        let got = a.reorder(&ordering).unwrap();
        prop_assert_eq!(got.nnz(), a.nnz());
        let bits = |m: &CsrMatrix| m.iter().map(|(i, j, v)| (i, j, v.to_bits())).collect::<Vec<_>>();
        prop_assert_eq!(bits(&got), bits(&want));
        prop_assert_eq!(got, want);
    }

    /// `merge_writes` against the triplet route (apply the writes to a
    /// per-position map, assemble through `from_coo`): identical `row_ptr` /
    /// `col_idx` / `values` on rectangular matrices with empty rows — an
    /// empty matrix included — under zero writes on absent and on stored
    /// positions, writes that empty a whole row, and writes in the first and
    /// the last row.
    #[test]
    fn merge_writes_matches_the_triplet_route(
        entries in proptest::collection::vec((0usize..7, 0usize..9, 1usize..4), 0..40),
        writes in proptest::collection::vec((0usize..7, 0usize..9, 0usize..4), 0..24),
        emptied in proptest::collection::vec(0usize..7, 0..3),
    ) {
        let value = |v: usize| [0.0, -0.25, 0.5, -1.0][v];
        let mut model: std::collections::BTreeMap<(usize, usize), f64> = Default::default();
        for &(i, j, v) in &entries {
            model.insert((i, j), value(v));
        }
        let assemble = |model: &std::collections::BTreeMap<(usize, usize), f64>| {
            let mut coo = CooMatrix::new(7, 9);
            for (&(i, j), &v) in model {
                coo.push(i, j, v).unwrap();
            }
            CsrMatrix::from_coo(&coo)
        };
        let before = assemble(&model);

        // Distinct positions, ascending: the random writes (last one at a
        // position wins) plus a zero at every stored entry of an emptied row.
        let mut batch: std::collections::BTreeMap<(usize, usize), f64> = Default::default();
        for &(i, j, v) in &writes {
            batch.insert((i, j), value(v));
        }
        for &row in &emptied {
            for &j in before.row(row).0 {
                batch.insert((row, j), 0.0);
            }
        }
        let sorted: Vec<(usize, usize, f64)> =
            batch.iter().map(|(&(i, j), &v)| (i, j, v)).collect();
        for (&position, &v) in &batch {
            if v == 0.0 {
                model.remove(&position);
            } else {
                model.insert(position, v);
            }
        }

        let merged = before.merge_writes(&sorted);
        let want = assemble(&model);
        let bits = |m: &CsrMatrix| m.iter().map(|(i, j, v)| (i, j, v.to_bits())).collect::<Vec<_>>();
        prop_assert_eq!(bits(&merged), bits(&want));
        // Derived equality compares the three arrays and the shape.
        prop_assert_eq!(&merged, &want);
        prop_assert!(merged.iter().all(|(_, _, v)| v != 0.0));
        for &row in &emptied {
            prop_assert!(sorted.iter().any(|w| w.0 == row && w.2 != 0.0) || merged.row(row).0.is_empty());
        }
        // No writes: a plain copy.
        prop_assert_eq!(&before.merge_writes(&[]), &before);
    }

    #[test]
    fn delta_roundtrip_rebuilds_target(a in csr(8, 25), b in csr(8, 25)) {
        let delta = a.delta_to(&b, 0.0).unwrap();
        // Applying the delta entrywise to `a` yields `b` (up to stored zeros).
        let mut coo = CooMatrix::new(8, 8);
        for (i, j, v) in a.iter() {
            coo.push(i, j, v).unwrap();
        }
        for &(i, j, old, new) in &delta {
            coo.push(i, j, new - old).unwrap();
        }
        let rebuilt = CsrMatrix::from_coo(&coo);
        prop_assert!(rebuilt.max_abs_diff(&b).unwrap() < 1e-12);
    }

    #[test]
    fn pattern_union_and_intersection_sizes_are_consistent(a in csr(10, 35), b in csr(10, 35)) {
        let pa = a.pattern();
        let pb = b.pattern();
        let union = pa.union(&pb).unwrap();
        let inter = pa.intersection(&pb).unwrap();
        // Inclusion–exclusion on set sizes.
        prop_assert_eq!(union.nnz() + inter.nnz(), pa.nnz() + pb.nnz());
        prop_assert_eq!(inter.nnz(), pa.intersection_size(&pb).unwrap());
    }

    #[test]
    fn adjacency_matrix_roundtrips_csr(a in csr(9, 40)) {
        let adj = AdjacencyMatrix::from_csr(&a);
        prop_assert_eq!(adj.to_csr(), a.clone());
        prop_assert_eq!(adj.pattern(), a.pattern());
        prop_assert_eq!(adj.nnz(), a.nnz());
    }

    #[test]
    fn adjacency_restructure_preserves_retained_values(a in csr(9, 40), extra in proptest::collection::vec((0usize..9, 0usize..9), 0..10)) {
        let mut target = a.pattern();
        for (i, j) in extra {
            target.insert(i, j);
        }
        let mut adj = AdjacencyMatrix::from_csr(&a);
        adj.restructure_to(&target);
        prop_assert_eq!(adj.pattern(), target);
        for (i, j, v) in a.iter() {
            prop_assert_eq!(adj.get(i, j), v);
        }
    }

    #[test]
    fn mes_reflects_containment(entries in proptest::collection::vec((0usize..7, 0usize..7), 1..20)) {
        let p = SparsityPattern::from_entries(7, 7, entries).unwrap();
        let empty = SparsityPattern::empty(7, 7);
        // Similarity with itself is 1, with the empty pattern it is 0.
        prop_assert!((p.mes(&p).unwrap() - 1.0).abs() < 1e-12);
        if p.nnz() > 0 {
            prop_assert_eq!(p.mes(&empty).unwrap(), 0.0);
        }
    }
}
