//! Per-layer probes: the traced run times calls into each layer's public
//! functions, from outside, on inputs captured from the workload it is
//! tracing (its base and final matrices, its first batches, its queries).

use crate::gen;
use crate::spans::Recorder;
use crate::stats;
use clude_engine::{CludeEngine, EdgeOp};
use clude_graph::{
    measure_matrix, shard_measure_matrix, DiGraph, GraphDelta, MatrixKind, NodePartition,
};
use clude_lu::{
    amd_ordering, apply_delta_with, markowitz_ordering, refactor_frozen, reorder_pattern,
    solve_original_into, solve_original_many_into, symbolic_decomposition, BennettWorkspace,
    DynamicLuFactors, LuFactors, LuStructure, PanelScratch, RefactorWorkspace, SolveScratch,
};
use clude_measures::MeasureQuery;
use clude_sparse::{AdjacencyMatrix, CooMatrix, CsrMatrix};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Where probe readings accumulate, keyed by per-layer metric name.
pub type Layer = BTreeMap<String, f64>;

/// Runs `f`, records a span named `name` around it, and returns its result
/// with the elapsed seconds.
pub fn timed<T>(rec: &mut Recorder, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let value = f();
    let end = Instant::now();
    rec.leaf(name, 0, start, end, 1);
    (value, (end - start).as_secs_f64())
}

/// A matrix before and after the workload's stream: the whole measure matrix
/// for the batch solver and the 1-shard engine, one pair per shard otherwise.
#[derive(Debug)]
pub struct MatrixPair {
    pub base: CsrMatrix,
    pub last: CsrMatrix,
}

/// The shard matrices of `base` and `last` under the partition the engine
/// derives for `shards` shards.
pub fn shard_pairs(base: &DiGraph, last: &DiGraph, partition: &NodePartition) -> Vec<MatrixPair> {
    let kind = MatrixKind::random_walk_default();
    (0..partition.n_shards())
        .map(|s| MatrixPair {
            base: shard_measure_matrix(base, kind, partition, s),
            last: shard_measure_matrix(last, kind, partition, s),
        })
        .collect()
}

/// `clude-sparse`: dynamic-storage upserts, CSR assembly, matrix deltas.
pub fn sparse(rec: &mut Recorder, pairs: &[MatrixPair], out: &mut Layer) {
    let (mut upsert_s, mut upserts) = (0.0, 0usize);
    let (mut coo_s, mut delta_s) = (Vec::new(), Vec::new());
    for pair in pairs {
        // Writing the final matrix over the base one mixes value updates
        // with structural inserts in the workload's own proportion.
        let mut adjacency = AdjacencyMatrix::from_csr(&pair.base);
        let entries: Vec<(usize, usize, f64)> = pair.last.iter().collect();
        let ((), s) = timed(rec, "sparse.adjacency_upsert", || {
            for &(i, j, v) in &entries {
                adjacency.set(i, j, v);
            }
        });
        black_box(adjacency.nnz());
        upsert_s += s;
        upserts += entries.len();

        let mut coo =
            CooMatrix::with_capacity(pair.last.n_rows(), pair.last.n_cols(), entries.len());
        for &(i, j, v) in &entries {
            coo.push(i, j, v)
                .expect("entries come from a matrix of this shape");
        }
        let (csr, s) = timed(rec, "sparse.csr_from_coo", || CsrMatrix::from_coo(&coo));
        black_box(csr.nnz());
        coo_s.push(s);

        let (delta, s) = timed(rec, "sparse.delta_to", || {
            pair.base.delta_to(&pair.last, 0.0)
        });
        black_box(delta.map_or(0, |d| d.len()));
        delta_s.push(s);
    }
    out.insert(
        "sparse.adjacency_upsert_ns".into(),
        upsert_s * 1e9 / upserts.max(1) as f64,
    );
    out.insert(
        "sparse.csr_from_coo_us".into(),
        coo_s.iter().sum::<f64>() * 1e6,
    );
    out.insert(
        "sparse.delta_to_us".into(),
        delta_s.iter().sum::<f64>() * 1e6,
    );
}

/// `clude-graph`: matrix composition, batch routing, the per-batch graph
/// copy.  `ops` is the workload's stream; its first 64 batches are routed.
pub fn graph(
    rec: &mut Recorder,
    last: &DiGraph,
    partition: &NodePartition,
    ops: &[EdgeOp],
    out: &mut Layer,
) {
    let kind = MatrixKind::random_walk_default();
    let (m, s) = timed(rec, "graph.measure_matrix", || measure_matrix(last, kind));
    black_box(m.nnz());
    out.insert("graph.measure_matrix_us".into(), s * 1e6);

    let batches: Vec<GraphDelta> = ops
        .chunks(64)
        .take(64)
        .map(|chunk| {
            let mut delta = GraphDelta::empty();
            for op in chunk {
                match *op {
                    EdgeOp::Insert(u, v) => delta.added.push((u, v)),
                    EdgeOp::Remove(u, v) => delta.removed.push((u, v)),
                }
            }
            delta
        })
        .collect();
    let ((), s) = timed(rec, "graph.split_by", || {
        for delta in &batches {
            black_box(delta.split_by(partition));
        }
    });
    out.insert(
        "graph.split_by_us".into(),
        s * 1e6 / batches.len().max(1) as f64,
    );

    let (copy, s) = timed(rec, "graph.digraph_clone", || last.clone());
    black_box(copy.n_edges());
    out.insert("graph.digraph_clone_us".into(), s * 1e6);
}

/// `clude-lu`: the ordering contest, symbolic and numeric factorization, the
/// Bennett sweep from `base` to `last`, a pattern-frozen refactor pass, and
/// the triangular solves.  `static_storage` runs Bennett the way the batch
/// solver does (one static structure over the union pattern) instead of on
/// the engine's dynamic lists.
pub fn lu(rec: &mut Recorder, pairs: &[MatrixPair], static_storage: bool, out: &mut Layer) {
    let mut pivots = 0usize;
    let (mut markowitz_s, mut amd_s) = (0.0, 0.0);
    let (mut fill_markowitz, mut fill_amd) = (0usize, 0usize);
    let (mut symbolic_s, mut factorize_s) = (0.0, 0.0);
    let (mut bennett_s, mut bennett_pivots) = (0.0, 0usize);
    let mut refactor_s = Vec::new();
    let (mut single_s, mut panel_s, mut factor_nnz) = (Vec::new(), Vec::new(), 0usize);
    for pair in pairs {
        let n = pair.base.n_rows();
        pivots += n;
        // The contest runs on the union pattern, so the winning structure
        // can hold both ends of the stream (what CLUDE does per cluster).
        let union = pair
            .base
            .pattern()
            .union(&pair.last.pattern())
            .expect("both ends share a shape");
        let (markowitz, s) = timed(rec, "lu.markowitz_ordering", || markowitz_ordering(&union));
        markowitz_s += s;
        fill_markowitz += markowitz.symbolic_size;
        let (amd, s) = timed(rec, "lu.amd_ordering", || amd_ordering(&union));
        amd_s += s;
        fill_amd += amd.symbolic_size;

        let ordering = markowitz.ordering;
        let reordered_union = reorder_pattern(&union, &ordering);
        let (symbolic, s) = timed(rec, "lu.symbolic_decomposition", || {
            symbolic_decomposition(&reordered_union)
        });
        symbolic_s += s;
        let base = pair.base.reorder(&ordering).expect("ordering fits");
        let last = pair.last.reorder(&ordering).expect("ordering fits");
        let structure = LuStructure::from_closed_pattern_unchecked(&symbolic.pattern).into_shared();
        let (factors, s) = timed(rec, "lu.factorize", || {
            LuFactors::factorize(structure, &base)
        });
        factorize_s += s;
        let mut factors = factors.expect("the base matrix factorizes");
        factor_nnz += factors.nnz();

        let delta = base.delta_to(&last, 0.0).expect("both ends share a shape");
        let mut workspace = BennettWorkspace::with_order(n);
        let mut dynamic = DynamicLuFactors::from_static(&factors);
        let (swept, s) = timed(rec, "lu.apply_delta_with", || {
            if static_storage {
                apply_delta_with(&mut factors, &mut workspace, &delta)
            } else {
                apply_delta_with(&mut dynamic, &mut workspace, &delta)
            }
        });
        bennett_s += s;
        bennett_pivots += swept
            .expect("the stream stays factorizable")
            .pivots_processed;

        // A value-only change: same positions, off-diagonal weights halved.
        let mut halved = CooMatrix::with_capacity(n, n, last.nnz());
        for (i, j, v) in last.iter() {
            let value = if i == j { v } else { v * 0.5 };
            halved.push(i, j, value).expect("in bounds");
        }
        let halved = CsrMatrix::from_coo(&halved);
        let mut frozen = DynamicLuFactors::from_static(
            &LuFactors::factorize(
                LuStructure::from_closed_pattern_unchecked(&symbolic.pattern).into_shared(),
                &last,
            )
            .expect("the final matrix factorizes"),
        );
        let mut refactor_ws = RefactorWorkspace::with_order(n);
        let (pass, s) = timed(rec, "lu.refactor_frozen", || {
            refactor_frozen(&mut frozen, &halved, &mut refactor_ws)
        });
        pass.expect("a value-only change stays inside the frozen pattern");
        refactor_s.push(s);

        let rhs: Vec<f64> = (0..n).map(|i| 1.0 / (1 + i) as f64).collect();
        let (mut scratch, mut x) = (SolveScratch::with_order(n), Vec::new());
        const SOLVES: usize = 64;
        let ((), s) = timed(rec, "lu.solve_original_into", || {
            for _ in 0..SOLVES {
                solve_original_into(&frozen, &ordering, &rhs, &mut scratch, &mut x)
                    .expect("factors solve");
                black_box(&x);
            }
        });
        single_s.push(s / SOLVES as f64);
        let panel: Vec<f64> = rhs.iter().cycle().take(16 * n).copied().collect();
        let mut panel_scratch = PanelScratch::with_panel(n, 16);
        let ((), s) = timed(rec, "lu.solve_original_many_into", || {
            for _ in 0..SOLVES / 16 {
                solve_original_many_into(
                    &frozen,
                    &ordering,
                    &panel,
                    16,
                    &mut panel_scratch,
                    &mut x,
                )
                .expect("factors solve");
                black_box(&x);
            }
        });
        panel_s.push(s / SOLVES as f64);
    }
    let per_pivot = |seconds: f64, count: usize| seconds * 1e6 / count.max(1) as f64;
    out.insert(
        "lu.markowitz_us_per_pivot".into(),
        per_pivot(markowitz_s, pivots),
    );
    out.insert("lu.amd_us_per_pivot".into(), per_pivot(amd_s, pivots));
    out.insert("lu.fill_markowitz".into(), fill_markowitz as f64);
    out.insert("lu.fill_amd".into(), fill_amd as f64);
    out.insert("lu.symbolic_us".into(), symbolic_s * 1e6);
    out.insert("lu.factorize_us".into(), factorize_s * 1e6);
    out.insert(
        "lu.bennett_us_per_pivot".into(),
        if bennett_pivots == 0 {
            0.0
        } else {
            per_pivot(bennett_s, bennett_pivots)
        },
    );
    out.insert("lu.bennett_pivots".into(), bennett_pivots as f64);
    out.insert(
        "lu.refactor_us_per_pass".into(),
        stats::mean(&refactor_s) * 1e6,
    );
    out.insert(
        "lu.solve_single_us".into(),
        single_s.iter().sum::<f64>() * 1e6,
    );
    out.insert(
        "lu.solve_panel16_us_per_rhs".into(),
        panel_s.iter().sum::<f64>() * 1e6,
    );
    out.insert("lu.factor_nnz".into(), factor_nnz as f64);
}

/// `clude-measures` through `engine.query`: the latency of a never-asked key
/// per query kind, and the cold throughput of two reader threads on disjoint
/// seeds.  `engine` must be fresh — nothing asked of it yet.
pub fn queries(rec: &mut Recorder, engine: &CludeEngine, n: usize, out: &mut Layer) {
    let damping = gen::DAMPING;
    let mean_us = |rec: &mut Recorder, name: &'static str, queries: Vec<MeasureQuery>| {
        let ((), s) = timed(rec, name, || {
            for q in &queries {
                black_box(engine.query(q).expect("probe query succeeds"));
            }
        });
        s * 1e6 / queries.len().max(1) as f64
    };
    // Seeds from the top of the id range; the reader threads below take the
    // bottom, so every key here and there is asked exactly once.
    let count = 16.min(n / 4).max(1);
    let pagerank = mean_us(
        rec,
        "query.pagerank",
        vec![MeasureQuery::PageRank { damping }],
    );
    let rwr = mean_us(
        rec,
        "query.rwr",
        (0..count)
            .map(|i| MeasureQuery::Rwr {
                seed: n - 1 - i,
                damping,
            })
            .collect(),
    );
    let ppr = mean_us(
        rec,
        "query.ppr",
        (0..count)
            .map(|i| MeasureQuery::PprSeedSet {
                seeds: vec![n - 1 - i, n / 2 + i],
                damping,
            })
            .collect(),
    );
    out.insert("query.pagerank_us".into(), pagerank);
    out.insert("query.rwr_us".into(), rwr);
    out.insert("query.ppr_us".into(), ppr);

    let per_thread = (n / 4).clamp(1, 64);
    let ((), s) = timed(rec, "query.cold_2t", || {
        std::thread::scope(|scope| {
            for t in 0..2 {
                scope.spawn(move || {
                    for i in 0..per_thread {
                        let seed = t * per_thread + i;
                        black_box(
                            engine
                                .query(&MeasureQuery::Rwr { seed, damping })
                                .expect("probe query succeeds"),
                        );
                    }
                });
            }
        });
    });
    out.insert("query.cold_qps_2t".into(), (2 * per_thread) as f64 / s);
}
