//! Property-based tests for the serving tier: answers through the coupled
//! iteration must match an oracle that shares no LU code with the engine.

use clude_engine::{ShardedFactorStore, SolveTolerance};
use clude_graph::{measure_matrix, DiGraph, MatrixKind, NodePartition};
use clude_lu::LuError;
use clude_measures::linear_system::normalize_scores;
use clude_measures::{discounted_hitting_time, measure_rhs, MeasureQuery};
use proptest::prelude::*;
use std::collections::BTreeSet;

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

    /// Every query kind through the coupled iteration over randomly
    /// partitioned random graphs (random partitions couple the shards
    /// cyclically), at the default tolerance and at one under the rounding
    /// noise of a pass, where a first check fails and the iteration restarts
    /// from it.  Each answer is within 1e-9 of an oracle that shares no LU
    /// code with the engine: dense elimination on the measure matrix, or the
    /// batch hitting time on the graph.  The one error allowed is a
    /// `ConvergenceFailure`, and only at the rounding floor.
    #[test]
    fn coupled_answers_match_an_independent_oracle(
        edges in graph_edges(),
        mut assignments in proptest::collection::vec(0usize..SHARDS, N),
        queries in proptest::collection::vec(query_strategy(), 1..7),
        at_the_floor in 0usize..2,
    ) {
        // Pin the first SHARDS nodes to distinct shards so none is empty.
        for (s, a) in assignments.iter_mut().take(SHARDS).enumerate() {
            *a = s;
        }
        let graph = DiGraph::from_edges(N, edges);
        let kind = MatrixKind::random_walk_default();
        let tolerance = SolveTolerance {
            tol: if at_the_floor == 1 { FLOOR_TOL } else { 1e-13 },
            ..SolveTolerance::default()
        };
        let store = ShardedFactorStore::new(
            graph.clone(),
            kind,
            1.0,
            NodePartition::from_assignments(assignments),
        )
        .unwrap()
        .with_tolerance(tolerance)
        .unwrap();
        let snapshot = store.snapshot();
        let dense = measure_matrix(&graph, kind).to_dense();
        for query in &queries {
            let oracle = match (measure_rhs(query, N), query) {
                (Some(b), _) => normalize_scores(dense.solve_gaussian(&b).unwrap()),
                (None, MeasureQuery::HittingTime { target, damping }) => {
                    discounted_hitting_time(&graph, *target, *damping).unwrap()
                }
                (None, _) => unreachable!("only hitting time has no forward right-hand side"),
            };
            match snapshot.query(query) {
                Ok(answer) => {
                    prop_assert_eq!(answer.len(), N);
                    for (i, (got, want)) in answer.iter().zip(&oracle).enumerate() {
                        prop_assert!(
                            (got - want).abs() <= 1e-9,
                            "query {:?}, row {}: {} vs {}",
                            query, i, got, want
                        );
                    }
                }
                Err(LuError::ConvergenceFailure { .. }) if at_the_floor == 1 => {}
                Err(err) => prop_assert!(false, "query {:?}: {:?}", query, err),
            }
        }
    }
}
