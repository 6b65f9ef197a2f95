//! Property tests for the structural layer: a BTF partition of a randomly
//! generated DAG-coupled graph makes block Gauss–Seidel exact in a
//! single sweep, matching a dense solve of the whole measure matrix to solver
//! precision.

use clude_engine::{ShardedFactorStore, SolveTolerance};
use clude_graph::{btf_partition, measure_matrix, DiGraph, MatrixKind};
use clude_measures::{measure_rhs, MeasureQuery};
use proptest::prelude::*;

/// Three strongly connected blocks (directed cycles plus random chords),
/// bridged only from earlier blocks to later ones — the SCC condensation is
/// a path, so the cross-shard coupling of the BTF partition is triangular.
fn dag_coupled_graph() -> impl Strategy<Value = DiGraph> {
    (
        proptest::collection::vec(3usize..6, 3),
        proptest::collection::vec((0usize..2, 0usize..8, 0usize..8), 1..6),
        proptest::collection::vec((0usize..3, 0usize..8, 0usize..8), 0..6),
    )
        .prop_map(|(sizes, bridges, chords)| {
            let offsets: Vec<usize> = sizes
                .iter()
                .scan(0, |acc, &s| {
                    let o = *acc;
                    *acc += s;
                    Some(o)
                })
                .collect();
            let n: usize = sizes.iter().sum();
            let mut g = DiGraph::new(n);
            for (b, &sz) in sizes.iter().enumerate() {
                for i in 0..sz {
                    g.add_edge(offsets[b] + i, offsets[b] + (i + 1) % sz);
                }
            }
            // Bridges go from block `b` to block `b + 1` only, keeping the
            // condensation acyclic; chords stay inside one block, which can
            // only thicken an SCC, never merge two.
            for (b, fi, ti) in bridges {
                g.add_edge(
                    offsets[b] + fi % sizes[b],
                    offsets[b + 1] + ti % sizes[b + 1],
                );
            }
            for (b, fi, ti) in chords {
                g.add_edge(offsets[b] + fi % sizes[b], offsets[b] + ti % sizes[b]);
            }
            g
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn btf_gauss_seidel_matches_monolithic_in_one_sweep(g in dag_coupled_graph()) {
        let kind = MatrixKind::random_walk_default();
        let (partition, report) = btf_partition(&g, kind, 3);
        prop_assert!(report.transversal_full);
        prop_assert_eq!(report.n_sccs, 3);
        let store =
            ShardedFactorStore::new(g.clone(), kind, f64::INFINITY, partition)
                .unwrap()
                .with_tolerance(SolveTolerance {
                        tol: 1e-13,
                        max_sweeps: 1,
                    })
                .unwrap();
        prop_assert!(store.snapshot().coupling_plan().is_triangular());
        // Reference: dense Gaussian elimination on the unpartitioned matrix —
        // no partition, ordering or factor code in common with the store.
        let dense = measure_matrix(&g, kind).to_dense();
        let queries = [
            MeasureQuery::PageRank { damping: 0.85 },
            MeasureQuery::Rwr {
                seed: 0,
                damping: 0.85,
            },
        ];
        for q in &queries {
            let a = store.snapshot().query(q).unwrap();
            let mut b = dense
                .solve_gaussian(&measure_rhs(q, g.n_nodes()).unwrap())
                .unwrap();
            clude_sparse::vector::normalize_l1(&mut b);
            for (x, y) in a.iter().zip(b.iter()) {
                prop_assert!((x - y).abs() <= 1e-9, "{:?}: sharded {} vs dense {}", q, x, y);
            }
        }
    }
}
