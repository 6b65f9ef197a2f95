//! Cross-crate integration tests of the streaming engine: equivalence with
//! the batch CLUDE solver, and property tests over random ingest/query
//! interleavings.

use clude::algorithms::{Clude, LudemSolver, SolverConfig};
use clude::ems::EvolvingMatrixSequence;
use clude_engine::{CludeEngine, EngineConfig, ShardedFactorStore};
use clude_graph::generators::wiki_like::{self, WikiLikeConfig};
use clude_graph::{
    coupling_matrix, measure_matrix, DiGraph, GraphDelta, MatrixKind, NodePartition,
};
use clude_measures::{measure_rhs, MeasureQuery};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const DAMPING: f64 = 0.85;

/// Streaming the archived deltas of an EGS through the engine must produce,
/// snapshot for snapshot, the same RWR scores as decomposing the equivalent
/// matrix sequence with the batch CLUDE solver.
#[test]
fn streaming_rwr_matches_batch_clude() {
    let egs = wiki_like::generate(&WikiLikeConfig::tiny(), &mut StdRng::seed_from_u64(99));
    let n = egs.n_nodes();

    // Batch side: decompose the whole sequence at once.
    let ems = EvolvingMatrixSequence::from_egs(&egs, MatrixKind::RandomWalk { damping: DAMPING });
    let batch = Clude::new(0.9)
        .solve(&ems, &SolverConfig::default())
        .expect("batch CLUDE decomposition succeeds");

    // Streaming side: replay the same deltas; one flush per snapshot keeps
    // engine snapshot ids aligned with sequence indices.
    let engine = CludeEngine::new(
        egs.snapshot(0),
        EngineConfig {
            max_batch_ops: usize::MAX,
            max_quality_loss: 1.0,
            ring_capacity: 4,
            ..EngineConfig::default()
        },
    )
    .expect("base snapshot factorizes");

    let seeds = [0usize, 7, 42, n - 1];
    for i in 0..egs.len() {
        if i > 0 {
            let delta = egs.delta(i - 1);
            for &(u, v) in &delta.removed {
                engine.remove_edge(u, v).expect("removal accepted");
            }
            for &(u, v) in &delta.added {
                engine.insert_edge(u, v).expect("insertion accepted");
            }
            assert_eq!(engine.flush().expect("batch applies"), Some(i as u64));
        }
        for &seed in &seeds {
            let streamed = engine
                .query(&MeasureQuery::Rwr {
                    seed,
                    damping: DAMPING,
                })
                .expect("engine answers");
            let batched =
                clude_measures::rwr(&batch.decomposed[i], n, seed, DAMPING).expect("batch answers");
            for (a, b) in streamed.iter().zip(batched.iter()) {
                assert!(
                    (a - b).abs() <= 1e-9,
                    "snapshot {i}, seed {seed}: streamed {a} vs batch {b}"
                );
            }
        }
    }
    let stats = engine.stats();
    assert_eq!(stats.batches_applied, (egs.len() - 1) as u64);
}

/// The pending-batch coalescing must not change what the snapshots see:
/// add/remove churn inside one batch collapses to the net delta.
#[test]
fn coalesced_churn_matches_direct_construction() {
    let base = DiGraph::from_edges(8, (0..8).map(|i| (i, (i + 1) % 8)).collect::<Vec<_>>());
    let engine = CludeEngine::new(
        base.clone(),
        EngineConfig {
            max_batch_ops: usize::MAX,
            ..EngineConfig::default()
        },
    )
    .unwrap();
    // Churn: add, remove again, re-add, plus one real change.
    engine.insert_edge(0, 4).unwrap();
    engine.remove_edge(0, 4).unwrap();
    engine.insert_edge(2, 6).unwrap();
    engine.remove_edge(3, 4).unwrap();
    engine.insert_edge(3, 4).unwrap();
    engine.flush().unwrap();

    let mut expected_graph = base;
    expected_graph.add_edge(2, 6);
    let oracle = CludeEngine::new(expected_graph, EngineConfig::default()).unwrap();

    let q = MeasureQuery::PageRank { damping: DAMPING };
    let streamed = engine.query(&q).unwrap();
    let direct = oracle.query(&q).unwrap();
    for (a, b) in streamed.iter().zip(direct.iter()) {
        assert!((a - b).abs() <= 1e-9, "{a} vs {b}");
    }
}

/// The reference every store is held to: dense Gaussian elimination on the
/// snapshot's measure matrix, normalised like a served answer.  It shares no
/// partition, ordering or factor code with the store under test.  (Hitting
/// time, which the store answers by transposed solves through its factors,
/// is held to the batch function, which factorizes the target's own system
/// of the independently maintained `graph`.)
fn dense_answer(graph: &DiGraph, kind: MatrixKind, query: &MeasureQuery) -> Vec<f64> {
    let Some(b) = measure_rhs(query, graph.n_nodes()) else {
        let MeasureQuery::HittingTime { target, damping } = query else {
            unreachable!("only hitting time has no snapshot-matrix right-hand side")
        };
        return clude_measures::discounted_hitting_time(graph, *target, *damping).unwrap();
    };
    let mut x = measure_matrix(graph, kind)
        .to_dense()
        .solve_gaussian(&b)
        .unwrap();
    clude_sparse::vector::normalize_l1(&mut x);
    x
}

fn ring_base(n: usize) -> DiGraph {
    let mut g = DiGraph::from_edges(n, (0..n).map(|i| (i, (i + 1) % n)).collect::<Vec<_>>());
    g.add_edge(2, 0);
    g.add_edge(n / 2, 0);
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random interleavings of inserts, removes, flushes and queries never
    /// panic, and every answered distribution is sane.
    #[test]
    fn random_interleavings_never_panic(
        ops in proptest::collection::vec((0usize..6, 0usize..12, 0usize..12), 1..60),
    ) {
        let n = 12;
        let engine = CludeEngine::new(
            ring_base(n),
            EngineConfig {
                max_batch_ops: 5,
                ring_capacity: 3,
                ..EngineConfig::default()
            },
        )
        .unwrap();
        for (kind, a, b) in ops {
            match kind {
                0 | 1 => {
                    engine.insert_edge(a, b).unwrap();
                }
                2 => {
                    engine.remove_edge(a, b).unwrap();
                }
                3 => {
                    engine.flush().unwrap();
                }
                4 => {
                    let scores = engine
                        .query(&MeasureQuery::Rwr { seed: a, damping: DAMPING })
                        .unwrap();
                    let sum: f64 = scores.iter().sum();
                    prop_assert!((sum - 1.0).abs() < 1e-6, "RWR mass {sum}");
                }
                _ => {
                    let ids = engine.retained_snapshot_ids();
                    let id = ids[a % ids.len()];
                    let scores = engine
                        .query_at(id, &MeasureQuery::PageRank { damping: DAMPING })
                        .unwrap();
                    prop_assert!(scores.iter().all(|s| s.is_finite()));
                }
            }
        }
    }

    /// The coupled solve of a k-shard store — GMRES over the block
    /// Gauss–Seidel pass, the one solver — and the one-shard store (the former monolithic
    /// configuration) must agree with a dense solve of the snapshot's
    /// measure matrix on every measure query to 1e-9 over random edge-op
    /// streams: intra-shard edges, cross-shard edges and removals alike, at
    /// every snapshot along the way.
    #[test]
    fn all_coupling_solvers_match_monolithic_on_random_streams(
        ops in proptest::collection::vec((0usize..2, 0usize..18, 0usize..18), 1..40),
        n_shards in 2usize..5,
    ) {
        let n = 18;
        let base = ring_base(n);
        let kind = MatrixKind::RandomWalk { damping: DAMPING };
        let budget = 0.5;
        // k shards, and the same machine at k = 1: one block, no coupling,
        // no iteration.
        let mut stores = [
            NodePartition::contiguous(n, n_shards),
            NodePartition::singleton(n),
        ]
        .map(|partition| ShardedFactorStore::new(base.clone(), kind, budget, partition).unwrap());

        // Replay in small batches of net-effective changes (the stores take
        // deltas, so mirror the ingestor's no-op dropping against a shadow
        // graph).
        let mut shadow = base;
        let mut applied = 0u64;
        let queries = [
            MeasureQuery::PageRank { damping: DAMPING },
            MeasureQuery::Rwr { seed: 0, damping: DAMPING },
            MeasureQuery::Rwr { seed: n - 1, damping: DAMPING },
            MeasureQuery::PprSeedSet { seeds: vec![2, 11], damping: DAMPING },
            MeasureQuery::HittingTime { target: 1, damping: DAMPING },
        ];
        for chunk in ops.chunks(4) {
            let mut delta = GraphDelta::empty();
            for &(op, u, v) in chunk {
                let insert = op == 0;
                if u == v {
                    continue;
                }
                // Mirror the ingestor's cancellation: opposite operations on
                // one edge inside a chunk annihilate, so the delta stays a
                // valid net change against the stores' graphs.
                if insert && !shadow.has_edge(u, v) {
                    shadow.add_edge(u, v);
                    if let Some(pos) = delta.removed.iter().position(|&e| e == (u, v)) {
                        delta.removed.swap_remove(pos);
                    } else {
                        delta.added.push((u, v));
                    }
                } else if !insert && shadow.has_edge(u, v) {
                    shadow.remove_edge(u, v);
                    if let Some(pos) = delta.added.iter().position(|&e| e == (u, v)) {
                        delta.added.swap_remove(pos);
                    } else {
                        delta.removed.push((u, v));
                    }
                }
            }
            if delta.is_empty() {
                continue;
            }
            applied += 1;
            let expected: Vec<Vec<f64>> =
                queries.iter().map(|q| dense_answer(&shadow, kind, q)).collect();
            for store in &mut stores {
                let report = store.advance(&delta).unwrap();
                prop_assert_eq!(report.snapshot_id, applied);
                let snap = store.snapshot();
                for (q, b) in queries.iter().zip(&expected) {
                    let a = snap.query(q).unwrap();
                    for (x, y) in a.iter().zip(b.iter()) {
                        prop_assert!(
                            (x - y).abs() <= 1e-9,
                            "{:?} on {} shard(s) diverged: store {} vs dense {}",
                            q, snap.n_shards(), x, y
                        );
                    }
                }
            }
        }
    }

    /// The copy-on-write snapshot ring must be observationally identical to
    /// the old full-clone snapshots: under a random mixed intra/cross delta
    /// stream, every retained snapshot answers every query *bit-identically*
    /// to the answer computed the moment it was published (which is what a
    /// deep-cloned snapshot would keep returning), no matter how much the
    /// store mutates afterwards.  Along the way, the structural-sharing
    /// invariant is checked batch by batch: a shard's handle is re-frozen
    /// exactly when the batch touched that shard, the frozen coupling — and
    /// with it the plan — exactly when a cross-shard entry changed, and the
    /// coupling's structure exactly when a position did; the coupling's
    /// live entries are the graph's after every batch.
    #[test]
    fn cow_ring_answers_bit_identically_to_full_clone_snapshots(
        ops in proptest::collection::vec((0usize..2, 0usize..18, 0usize..18), 1..32),
        n_shards in 2usize..5,
    ) {
        let n = 18;
        let base = ring_base(n);
        let kind = MatrixKind::RandomWalk { damping: DAMPING };
        let mut store = ShardedFactorStore::new(
            base.clone(),
            kind,
            0.5,
            NodePartition::contiguous(n, n_shards),
        )
        .unwrap();
        let queries = [
            MeasureQuery::PageRank { damping: DAMPING },
            MeasureQuery::Rwr { seed: 3, damping: DAMPING },
            MeasureQuery::PprSeedSet { seeds: vec![0, 17], damping: DAMPING },
        ];
        // The "ring": every published snapshot plus its answers recorded at
        // publish time — exactly what full-clone snapshots would serve.
        let mut ring = Vec::new();
        let snap0 = store.snapshot();
        let immediate: Vec<Vec<f64>> = queries.iter().map(|q| snap0.query(q).unwrap()).collect();
        ring.push((snap0, immediate));

        let mut shadow = base;
        for chunk in ops.chunks(3) {
            let mut delta = GraphDelta::empty();
            for &(op, u, v) in chunk {
                if u == v {
                    continue;
                }
                // Opposite operations on one edge inside a chunk annihilate
                // (as the engine's ingestor would coalesce them), keeping the
                // delta a valid net change against the store's graph.
                if op == 0 && !shadow.has_edge(u, v) {
                    shadow.add_edge(u, v);
                    if let Some(pos) = delta.removed.iter().position(|&e| e == (u, v)) {
                        delta.removed.swap_remove(pos);
                    } else {
                        delta.added.push((u, v));
                    }
                } else if op == 1 && shadow.has_edge(u, v) {
                    shadow.remove_edge(u, v);
                    if let Some(pos) = delta.added.iter().position(|&e| e == (u, v)) {
                        delta.added.swap_remove(pos);
                    } else {
                        delta.removed.push((u, v));
                    }
                }
            }
            if delta.is_empty() {
                continue;
            }
            let report = store.advance(&delta).unwrap();
            let snap = store.snapshot();
            // Sharing invariant against the previous ring entry: untouched
            // shards are pointer-shared, touched shards re-frozen.
            let (prev, _) = ring.last().unwrap();
            prop_assert_eq!(snap.n_shards(), n_shards);
            for s in 0..n_shards {
                let shared = std::sync::Arc::ptr_eq(
                    &prev.shards()[s],
                    &snap.shards()[s],
                );
                let touched = report.per_shard[s].entries_applied > 0;
                prop_assert_eq!(
                    shared, !touched,
                    "shard {} sharing ({}) disagrees with touched ({})", s, shared, touched
                );
            }
            prop_assert_eq!(
                std::sync::Arc::ptr_eq(prev.shared_coupling(), snap.shared_coupling()),
                !report.coupling_republished
            );
            // The plan is a function of (partition, coupling), held with the
            // coupling and built by the first solve over it: shared exactly
            // when the coupling is.
            prop_assert_eq!(
                std::ptr::eq(prev.coupling_plan(), snap.coupling_plan()),
                !report.coupling_republished
            );
            // The coupling is the graph's: its nonzero entries are
            // `coupling_matrix` with zeros dropped, `coupling_nnz` counts
            // them, and a solve plans the order and verdict a fresh store
            // over the same graph and partition plans.
            let coupling = snap.shared_coupling();
            let bits = |(i, j, v): (usize, usize, f64)| (i, j, v.to_bits());
            let live: Vec<_> = coupling.entries().filter(|e| e.2 != 0.0).map(bits).collect();
            let graph_entries: Vec<_> = coupling_matrix(store.graph(), kind, store.partition())
                .iter()
                .filter(|e| e.2 != 0.0)
                .map(bits)
                .collect();
            prop_assert_eq!(&live, &graph_entries);
            prop_assert_eq!((snap.coupling_nnz(), store.coupling_nnz()), (live.len(), live.len()));
            let fresh = ShardedFactorStore::new(
                store.graph().clone(),
                kind,
                f64::INFINITY,
                store.partition().clone(),
            )
            .unwrap()
            .snapshot();
            prop_assert_eq!(snap.coupling_plan().gs_order(), fresh.coupling_plan().gs_order());
            prop_assert_eq!(
                snap.coupling_plan().is_triangular(),
                fresh.coupling_plan().is_triangular()
            );
            // Its structure is shared exactly when no live position was
            // new and no shard's ordering moved.
            let slots: std::collections::HashSet<(usize, usize)> =
                prev.shared_coupling().entries().map(|(i, j, _)| (i, j)).collect();
            let new_position = live.iter().any(|&(i, j, _)| !slots.contains(&(i, j)));
            let moved = prev.shards().iter().zip(snap.shards()).any(|(a, b)| {
                !std::sync::Arc::ptr_eq(&a.ordering, &b.ordering)
            });
            prop_assert_eq!(
                std::sync::Arc::ptr_eq(prev.shared_coupling().structure(), coupling.structure()),
                !(new_position || moved)
            );
            let immediate: Vec<Vec<f64>> =
                queries.iter().map(|q| snap.query(q).unwrap()).collect();
            ring.push((snap, immediate));
        }

        // Time travel over the whole ring: bit-identical replies.
        for (snap, immediate) in &ring {
            for (q, expected) in queries.iter().zip(immediate.iter()) {
                let got = snap.query(q).unwrap();
                prop_assert_eq!(&got, expected, "snapshot {} drifted on {:?}", snap.id(), q);
            }
        }
    }

    /// A cache hit returns exactly what the uncached solve produced.
    #[test]
    fn cache_hits_equal_uncached_solves(
        churn in proptest::collection::vec((0usize..12, 0usize..12), 1..12),
        seed in 0usize..12,
    ) {
        let engine = CludeEngine::new(ring_base(12), EngineConfig::default()).unwrap();
        for &(u, v) in &churn {
            engine.insert_edge(u, v).unwrap();
        }
        engine.flush().unwrap();
        let q = MeasureQuery::Rwr { seed, damping: DAMPING };
        let miss = engine.query(&q).unwrap();    // uncached solve
        let hit = engine.query(&q).unwrap();     // served from cache
        prop_assert_eq!(&*miss, &*hit);
        prop_assert!(engine.stats().cache_hits >= 1);
        // A control engine replaying the same stream solves the same system
        // from scratch; its uncached answer must be bit-identical to the
        // first engine's cached one.
        let control = CludeEngine::new(ring_base(12), EngineConfig::default()).unwrap();
        for &(u, v) in &churn {
            control.insert_edge(u, v).unwrap();
        }
        control.flush().unwrap();
        let uncached = control.query(&q).unwrap();
        prop_assert_eq!(&*uncached, &*hit);
    }
}
