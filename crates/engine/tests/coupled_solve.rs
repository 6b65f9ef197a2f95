//! The coupled solve through the public API: machine-independent gates on
//! the number of block passes a cold query costs, and an oracle for the
//! answers that shares nothing with LU.

use clude_engine::{CludeEngine, EngineConfig, ShardedFactorStore};
use clude_graph::generators::wiki_like::{self, WikiLikeConfig};
use clude_graph::{DiGraph, EvolvingGraphSequence, MatrixKind, NodePartition};
use clude_measures::{MeasureQuery, MeasureSolver};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const QUERIES: usize = 60;

/// 1,000 pages growing from 3,000 to 12,000 links: the first snapshot cuts
/// into a near-triangular coupling, the last into a strongly cyclic one.
fn wiki_sequence() -> EvolvingGraphSequence {
    let config = WikiLikeConfig {
        n_pages: 1_000,
        initial_links: 3_000,
        final_links: 12_000,
        n_snapshots: 10,
        removals_per_snapshot: 8,
        burst_probability: 0.04,
        burst_size: 25,
    };
    wiki_like::generate(&config, &mut StdRng::seed_from_u64(11))
}

fn engine(graph: DiGraph, n_shards: usize, damping: f64) -> CludeEngine {
    CludeEngine::new(
        graph,
        EngineConfig {
            n_shards,
            matrix_kind: MatrixKind::RandomWalk { damping },
            ..EngineConfig::default()
        },
    )
    .unwrap()
}

/// Asks 60 seeded RWR queries of a 4-shard engine and its 1-shard twin,
/// checks they agree to 1e-12, and returns the most block passes any of the
/// 4-shard solves took.
fn max_passes_against_one_shard_twin(graph: &DiGraph, damping: f64) -> u64 {
    let sharded = engine(graph.clone(), 4, damping);
    let twin = engine(graph.clone(), 1, damping);
    assert_eq!(sharded.n_shards(), 4);
    assert!(sharded.stats().coupling_nnz > 0);
    let mut rng = StdRng::seed_from_u64(11);
    let mut asked = std::collections::BTreeSet::new();
    for _ in 0..QUERIES {
        let seed = rng.gen_range(0..graph.n_nodes());
        asked.insert(seed);
        let query = MeasureQuery::Rwr { seed, damping };
        let a = sharded.query(&query).unwrap();
        let b = twin.query(&query).unwrap();
        for (x, y) in a.iter().zip(b.iter()) {
            assert!((x - y).abs() <= 1e-12, "{query:?}: {x} vs {y}");
        }
    }
    // One sample per solved right-hand side; a repeated seed is a cache hit.
    let passes = sharded.telemetry().coupling_sweeps();
    assert_eq!(passes.count(), asked.len() as u64);
    passes.max()
}

#[test]
fn a_cold_query_over_cyclic_coupling_is_a_bounded_number_of_block_passes() {
    // The stationary Gauss–Seidel loop this replaced took 53 passes at
    // d = 0.85 and 704 at d = 0.99 on the same solves: its count grew as
    // log(1/tol)/log(1/ρ), the Krylov iteration's does not.
    let egs = wiki_sequence();
    let last = egs.snapshot(egs.len() - 1);
    let at_085 = max_passes_against_one_shard_twin(&last, 0.85);
    assert!(at_085 <= 20, "d = 0.85: {at_085} passes");
    let at_099 = max_passes_against_one_shard_twin(&last, 0.99);
    assert!(at_099 <= 24, "d = 0.99: {at_099} passes");
}

/// Asks 30 seeded hitting-time queries — each two transposed solves — of a
/// 4-shard engine and its 1-shard twin, checks they agree to 1e-9 relative,
/// and returns the most block passes any 4-shard solve took.
fn max_transposed_passes_against_one_shard_twin(graph: &DiGraph, damping: f64) -> u64 {
    let sharded = engine(graph.clone(), 4, damping);
    let twin = engine(graph.clone(), 1, damping);
    assert_eq!(sharded.n_shards(), 4);
    assert!(sharded.stats().coupling_nnz > 0);
    let mut rng = StdRng::seed_from_u64(11);
    let mut asked = std::collections::BTreeSet::new();
    for _ in 0..QUERIES / 2 {
        let target = rng.gen_range(0..graph.n_nodes());
        asked.insert(target);
        let query = MeasureQuery::HittingTime { target, damping };
        let a = sharded.query(&query).unwrap();
        let b = twin.query(&query).unwrap();
        for (x, y) in a.iter().zip(b.iter()) {
            assert!(
                (x - y).abs() <= 1e-9 * y.abs().max(1.0),
                "{query:?}: {x} vs {y}"
            );
        }
    }
    // One sample per transposed solve, two per query.
    let passes = sharded.telemetry().coupling_sweeps();
    assert_eq!(passes.count(), 2 * asked.len() as u64);
    passes.max()
}

#[test]
fn a_transposed_solve_over_cyclic_coupling_takes_as_few_passes() {
    // Reverse-order block Gauss–Seidel on Aᵀ has the spectrum of the
    // forward pass on A, so hitting time keeps the forward gates.
    let egs = wiki_sequence();
    let last = egs.snapshot(egs.len() - 1);
    let at_085 = max_transposed_passes_against_one_shard_twin(&last, 0.85);
    assert!(at_085 <= 20, "d = 0.85: {at_085} passes");
    let at_099 = max_transposed_passes_against_one_shard_twin(&last, 0.99);
    assert!(at_099 <= 24, "d = 0.99: {at_099} passes");
}

#[test]
fn near_triangular_coupling_costs_at_most_one_pass_more_than_plain_sweeps() {
    // The one place the Krylov iteration is not ahead: a coupling the plain
    // sweep already solved in at most 7 passes, where the accepting pass is
    // one extra.
    let base = wiki_sequence().snapshot(0);
    let passes = max_passes_against_one_shard_twin(&base, 0.85);
    assert!(passes <= 7 + 1, "{passes} passes");
}

#[test]
fn shifted_laplacian_inverse_is_doubly_stochastic_at_four_shards() {
    // On a symmetric graph L = D − A has zero row and column sums, so
    // (I + L)·1 = 1 and 1ᵀ·(I + L) = 1ᵀ: the inverse is doubly stochastic,
    // and non-negative because I + L is an M-matrix (Sun et al.,
    // arXiv:2409.05503).  Every column of the inverse, solved through the
    // 4-shard coupled path, must say so — no factorization in the oracle.
    let n = 48;
    let mut graph = DiGraph::new(n);
    for i in 0..n {
        for step in [1, 5, 17] {
            graph.add_undirected_edge(i, (i + step) % n);
        }
    }
    let store = ShardedFactorStore::new(
        graph,
        MatrixKind::SymmetricLaplacian { shift: 1.0 },
        f64::INFINITY,
        NodePartition::contiguous(n, 4),
    )
    .unwrap();
    let snapshot = store.snapshot();
    assert!(snapshot.coupling_nnz() > 0);
    assert!(!snapshot.coupling_plan().is_triangular());
    let mut row_sums = vec![0.0; n];
    for i in 0..n {
        let mut e_i = vec![0.0; n];
        e_i[i] = 1.0;
        let column = snapshot.solve_measure_system(&e_i).unwrap();
        assert!(column.iter().all(|&v| v >= 0.0), "column {i}: {column:?}");
        let sum: f64 = column.iter().sum();
        assert!((sum - 1.0).abs() <= 1e-12, "column {i} sums to {sum}");
        for (acc, v) in row_sums.iter_mut().zip(&column) {
            *acc += v;
        }
    }
    for (i, sum) in row_sums.iter().enumerate() {
        assert!((sum - 1.0).abs() <= 1e-12, "row {i} sums to {sum}");
    }
}

#[test]
fn a_solve_that_cannot_converge_fails_within_a_handful_of_restart_cycles() {
    use clude_engine::{EngineError, SolveTolerance};
    use clude_lu::LuError;
    use clude_telemetry::{EngineEvent, EventKind};
    // The default pass budget is a few hundred block passes, milliseconds —
    // where the stationary loop's 100,000 were seconds of spinning.
    let default_budget = SolveTolerance::default().max_sweeps;
    assert!(
        default_budget <= 10 * 26,
        "{default_budget} passes is not a handful of cycles"
    );
    let egs = wiki_sequence();
    let last = egs.snapshot(egs.len() - 1);
    let config = |max_sweeps: usize| EngineConfig {
        n_shards: 4,
        tolerance: SolveTolerance {
            max_sweeps,
            ..SolveTolerance::default()
        },
        ..EngineConfig::default()
    };
    let query = MeasureQuery::Rwr {
        seed: 7,
        damping: 0.85,
    };
    // The healthy solve, counted by the engine's own telemetry: the default
    // budget is not tight — the query is done in under a tenth of it.
    let healthy = CludeEngine::new(last.clone(), config(default_budget)).unwrap();
    healthy.query(&query).unwrap();
    let passes = healthy.telemetry().coupling_sweeps();
    assert_eq!(passes.count(), 1);
    let needed = passes.max() as usize;
    assert!(needed * 10 <= default_budget, "{needed} passes");
    // One pass short of what the same solve needs, it cannot converge
    // whatever the rounding: it must give up loudly at exactly the budget.
    let budget = needed - 1;
    let hopeless = CludeEngine::new(last, config(budget)).unwrap();
    let err = hopeless.query(&query).unwrap_err();
    assert!(
        matches!(
            err,
            EngineError::Lu(LuError::ConvergenceFailure { iterations, .. }) if iterations == budget
        ),
        "{err}"
    );
    // The failure is journalled with exactly the budget, and no pass
    // histogram sample is recorded for a column that never converged.
    let telemetry = hopeless.telemetry();
    assert!(telemetry.coupling_sweeps().is_empty());
    assert_eq!(
        telemetry.journal().count_of(EventKind::ConvergenceFailure),
        1
    );
    assert!(telemetry.journal().entries().iter().any(|e| matches!(
        e.event,
        EngineEvent::ConvergenceFailure { sweeps, .. } if sweeps == budget as u64
    )));
}
