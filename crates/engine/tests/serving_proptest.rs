//! Property-based tests for the serving tier: multi-RHS panel solves must be
//! bit-identical to sequential solves through the coupled iteration, and
//! bounded-staleness serving must never exceed its configured lag budget.

use clude_engine::{
    CouplingConfig, EngineStats, QueryService, RefreshPolicy, ShardedFactorStore, SolveTolerance,
    StalenessBudget,
};
use clude_graph::{DiGraph, GraphDelta, MatrixKind, NodePartition};
use clude_measures::{measure_rhs, MeasureQuery, MeasureSolver};
use clude_telemetry::TelemetryRegistry;
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::Arc;

const N: usize = 14;
const SHARDS: usize = 3;
/// A coupled-solve tolerance under the rounding noise of one block pass.
const FLOOR_TOL: f64 = 3e-17;

/// A connected random digraph: a Hamiltonian ring plus random extra edges
/// (deduplicated, no self-loops), so every node has an out-edge and the
/// random-walk matrix is well-behaved.
fn graph_edges() -> impl Strategy<Value = Vec<(usize, usize)>> {
    proptest::collection::vec((0..N, 0..N), 0..3 * N).prop_map(|extra| {
        let mut edges: BTreeSet<(usize, usize)> = (0..N).map(|i| (i, (i + 1) % N)).collect();
        edges.extend(extra.into_iter().filter(|(u, v)| u != v));
        edges.into_iter().collect()
    })
}

/// All four measure kinds, driven by a `(kind, a, b)` triple: RWR is drawn
/// most often (as a serving workload would), PPR seed sets are the sorted
/// dedup of `{a, b}`.
fn query_strategy() -> impl Strategy<Value = MeasureQuery> {
    (0usize..6, 0..N, 0..N).prop_map(|(kind, a, b)| match kind {
        0..=2 => MeasureQuery::Rwr {
            seed: a,
            damping: 0.85,
        },
        3 => MeasureQuery::PageRank { damping: 0.85 },
        4 => MeasureQuery::PprSeedSet {
            seeds: if a == b {
                vec![a]
            } else {
                vec![a.min(b), a.max(b)]
            },
            damping: 0.85,
        },
        _ => MeasureQuery::HittingTime {
            target: a,
            damping: 0.85,
        },
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// `query_batch` (one panel solve per snapshot) returns, per query, the
    /// exact bit pattern of the sequential `query` path, over randomly
    /// partitioned random graphs (so the panel goes through the joint block
    /// passes of the Krylov iteration, every column in its own phase).
    #[test]
    fn panel_batches_are_bit_identical_to_sequential_solves(
        edges in graph_edges(),
        mut assignments in proptest::collection::vec(0usize..SHARDS, N),
        queries in proptest::collection::vec(query_strategy(), 1..7),
    ) {
        // Pin the first SHARDS nodes to distinct shards so none is empty.
        for (s, a) in assignments.iter_mut().take(SHARDS).enumerate() {
            *a = s;
        }
        let graph = DiGraph::from_edges(N, edges);
        let partition = NodePartition::from_assignments(assignments);
        let store = ShardedFactorStore::new(
            graph,
            MatrixKind::random_walk_default(),
            RefreshPolicy::default(),
            partition,
        )
        .unwrap();
        let snapshot = store.snapshot();
        let refs: Vec<&MeasureQuery> = queries.iter().collect();
        match snapshot.query_batch(&refs) {
            Ok(batched) => {
                prop_assert_eq!(batched.len(), queries.len());
                for (query, panel) in queries.iter().zip(&batched) {
                    let sequential = snapshot.query(query).unwrap();
                    prop_assert_eq!(sequential.len(), panel.len());
                    for (i, (a, b)) in sequential.iter().zip(panel.iter()).enumerate() {
                        prop_assert_eq!(
                            a.to_bits(),
                            b.to_bits(),
                            "query {:?}, row {}: {} vs {}",
                            query, i, a, b
                        );
                    }
                }
            }
            Err(_) => {
                // A panel-wide convergence failure must mirror a failure
                // of at least one sequential solve — never mask success.
                prop_assert!(
                    queries.iter().any(|q| snapshot.query(q).is_err()),
                    "batch failed but every sequential solve succeeded"
                );
            }
        }
    }

    /// Columns that finish at different passes — a zero right-hand side at
    /// the first, PageRank and RWR columns after their own Arnoldi counts,
    /// and, under a tolerance at the rounding floor, some only in a second
    /// cycle — share every block pass of the panel, and each stripe is still
    /// the exact bit pattern of its width-1 solve.
    #[test]
    fn mixed_phase_panels_are_bit_identical_to_width_one_solves(
        edges in graph_edges(),
        mut assignments in proptest::collection::vec(0usize..SHARDS, N),
        seeds in proptest::collection::vec(0..N, 1..5),
        zero_at in 0usize..6,
        at_the_floor in 0usize..2,
    ) {
        for (s, a) in assignments.iter_mut().take(SHARDS).enumerate() {
            *a = s;
        }
        // 1e-13 is the default; 3e-17 sits under the rounding noise of a
        // pass, so a first check fails and the column restarts from it.
        let tolerance = SolveTolerance {
            tol: if at_the_floor == 1 { FLOOR_TOL } else { 1e-13 },
            max_sweeps: 200,
        };
        let store = ShardedFactorStore::new(
            DiGraph::from_edges(N, edges),
            MatrixKind::random_walk_default(),
            RefreshPolicy::default(),
            NodePartition::from_assignments(assignments),
        )
        .unwrap()
        .with_coupling_config(CouplingConfig { tolerance, ..CouplingConfig::default() })
        .unwrap();
        let snapshot = store.snapshot();
        let mut columns = vec![measure_rhs(&MeasureQuery::PageRank { damping: 0.85 }, N).unwrap()];
        for seed in seeds {
            columns.push(measure_rhs(&MeasureQuery::Rwr { seed, damping: 0.85 }, N).unwrap());
        }
        columns.insert(zero_at % (columns.len() + 1), vec![0.0; N]);
        let panel: Vec<f64> = columns.concat();
        match snapshot.solve_measure_systems(&panel, columns.len()) {
            Ok(solved) => {
                for (c, (b, stripe)) in columns.iter().zip(solved.chunks_exact(N)).enumerate() {
                    let alone = snapshot.solve_measure_system(b).unwrap();
                    for (i, (a, p)) in alone.iter().zip(stripe).enumerate() {
                        prop_assert_eq!(
                            a.to_bits(),
                            p.to_bits(),
                            "column {}, row {}: {} vs {}",
                            c, i, a, p
                        );
                    }
                }
            }
            Err(_) => {
                prop_assert!(
                    columns.iter().any(|b| snapshot.solve_measure_system(b).is_err()),
                    "panel failed but every width-1 solve succeeded"
                );
            }
        }
    }

    /// A cached result is served for a newer snapshot exactly when its lag
    /// is within the configured staleness budget; beyond it, the service
    /// solves afresh.
    #[test]
    fn stale_serving_respects_the_budget(max_lag in 0u64..4, lag in 1u64..6) {
        let mut g = DiGraph::from_edges(8, (0..8).map(|i| (i, (i + 1) % 8)).collect::<Vec<_>>());
        g.add_edge(2, 0);
        let mut store = ShardedFactorStore::new(
            g,
            MatrixKind::random_walk_default(),
            RefreshPolicy::default(),
            NodePartition::singleton(8),
        )
        .unwrap();
        let telemetry = Arc::new(TelemetryRegistry::default());
        let service = QueryService::new(2, 16, Arc::clone(&telemetry), StalenessBudget { max_lag });
        let q = MeasureQuery::Rwr {
            seed: 1,
            damping: 0.85,
        };
        let snap0 = Arc::new(store.snapshot());
        let at0 = service.query(&snap0, &q).unwrap();
        for i in 0..lag {
            store
                .advance(&GraphDelta {
                    added: vec![(i as usize, (i as usize + 3) % 8)],
                    removed: vec![],
                })
                .unwrap();
        }
        let lagged = Arc::new(store.snapshot());
        prop_assert_eq!(lagged.id(), lag);
        let served = service.query(&lagged, &q).unwrap();
        if lag <= max_lag {
            prop_assert!(
                Arc::ptr_eq(&at0, &served),
                "lag {} within budget {} must serve the cached result",
                lag,
                max_lag
            );
            prop_assert_eq!(EngineStats::from_registry(&telemetry).cache_misses, 1);
        } else {
            prop_assert!(
                !Arc::ptr_eq(&at0, &served),
                "lag {} beyond budget {} must solve afresh",
                lag,
                max_lag
            );
            prop_assert_eq!(EngineStats::from_registry(&telemetry).cache_misses, 2);
        }
    }
}
