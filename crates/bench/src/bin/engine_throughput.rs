//! Engine throughput: replay a Wiki-like delta stream with concurrent
//! queries and report ingest rate, queries/sec and query latency quantiles.
//!
//! Run with:
//! ```text
//! cargo run --release --bin engine_throughput -- [n_pages] [n_query_threads] \
//!     [--shards N] [--batch N] [--repartition-budget N] [--query-threads N] \
//!     [--batch-window-us U] [--stale-budget K] [--smoke] \
//!     [--churn value|structure|mixed] \
//!     [--metrics-out PATH] [--no-telemetry] \
//!     [--wal-dir PATH] [--checkpoint-every N] [--group-commit W]
//! ```
//!
//! `--shards N` maintains the factors in `N` factor shards over an
//! edge-locality partition (`1`, the default, is the whole graph as one
//! block with no coupling) and reports a per-shard ingest breakdown alongside the aggregate
//! deltas/sec and the query latency quantiles.  `--batch N` sets the ingest
//! batch-cut size (default 64) — smaller batches touch fewer shards each,
//! which is the regime where the snapshot ring's copy-on-write sharing pays
//! (the sharing stats are printed either way).  Sharded queries are solved
//! by block Gauss–Seidel over the coupling (sweeps per query are in the
//! `coupling |` stats line); `--repartition-budget` enables adaptive
//! re-partitioning when the live coupling crosses the given entry count.  `--query-threads N` sets the
//! reader thread count explicitly (same as the second positional), and the
//! report breaks queries/sec down per thread.  `--batch-window-us U` makes
//! the query batcher's leader dwell `U` microseconds so concurrent cache
//! misses coalesce into wider multi-RHS panel solves (the batch-occupancy
//! histogram is printed either way); `--stale-budget K` lets the cache serve
//! results up to `K` snapshots behind the queried one.  `--smoke` shrinks
//! the replay
//! for CI so both code paths build and execute on every push.
//! `--metrics-out PATH` dumps the engine's telemetry registry (per-stage
//! latency histograms, counters, gauges, journal counts) in the Prometheus
//! text format after the replay, and `--no-telemetry` runs the engine with
//! recording compiled down to no-ops (the overhead baseline).
//!
//! `--churn` shapes the replayed stream: `structure` (default) replays the
//! wiki-like growth stream as before; `value` toggles a stable pool of
//! base-snapshot edges in alternating remove/re-insert rounds, so every
//! batch stays inside the frozen factor pattern and exercises the
//! pattern-frozen refactorization fast path; `mixed` interleaves the two.
//! After the replay the final engine answers are checked against a dense
//! Gaussian-elimination solve of the final graph's measure matrix to 1e-9.
//!
//! `--wal-dir PATH` opens the engine durably over a spool directory: every
//! batch is written ahead to a checksummed WAL and a checkpoint generation
//! is cut every `--checkpoint-every N` batches (default 64); `--group-commit
//! W` syncs the WAL every `W` appends (default 8).  On a warm spool the run
//! first *recovers* — the printed recovery report shows the checkpoint used
//! and the WAL records replayed — so killing a durable run (e.g. `kill -9`)
//! and re-running it exercises the full crash path.  The ingest line labels
//! the rate `durable` instead of `in-memory` so the WAL overhead is
//! directly comparable.
//!
//! The full stream replays at least 10 000 edge operations; query threads
//! fire RWR / PageRank / PPR queries against the live engine the whole time.

// CLI tool: printing the report is its entire purpose.
#![allow(clippy::print_stdout, clippy::print_stderr)]

use clude_engine::{
    BatchPolicy, CludeEngine, CouplingConfig, DurabilityConfig, EngineConfig, RefreshPolicy,
    StalenessBudget,
};
use clude_graph::generators::wiki_like::{self, WikiLikeConfig};
use clude_graph::EvolvingGraphSequence;
use clude_measures::MeasureQuery;
use clude_telemetry::{LogHistogram, Stage, TelemetryConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

const MIN_DELTAS: usize = 10_000;

/// One streamed edge operation of the replay.
#[derive(Clone, Copy)]
enum Op {
    Insert(usize, usize),
    Remove(usize, usize),
}

/// Flattens an EGS archive into a single edge-operation stream.
fn op_stream(egs: &EvolvingGraphSequence) -> Vec<Op> {
    let mut ops = Vec::new();
    for step in 0..egs.len() - 1 {
        let delta = egs.delta(step);
        for &(u, v) in &delta.removed {
            ops.push(Op::Remove(u, v));
        }
        for &(u, v) in &delta.added {
            ops.push(Op::Insert(u, v));
        }
    }
    ops
}

/// The shape of the replayed delta stream.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Churn {
    /// Remove/re-insert rounds over a stable pool of base-snapshot edges:
    /// every touched position keeps its frozen factor slot, so with the
    /// refactor path on each batch redoes numerics down the frozen pattern.
    Value,
    /// The wiki-like growth stream — mostly new edges, mostly structural.
    Structure,
    /// The two streams interleaved one-for-one.
    Mixed,
}

impl Churn {
    fn name(self) -> &'static str {
        match self {
            Churn::Value => "value",
            Churn::Structure => "structure",
            Churn::Mixed => "mixed",
        }
    }
}

/// Alternating full-pool remove and re-insert rounds over `pool_size` edges
/// of the base snapshot.  The pool is at least one batch wide, so each cut
/// batch is homogeneous — all removals or all in-pattern re-insertions — and
/// classifies as value-only against the frozen factor pattern.  Edges in
/// `exclude` (touched by an interleaved structural stream) are skipped so the
/// toggle presence invariant survives interleaving.
fn value_toggle_stream(
    egs: &EvolvingGraphSequence,
    target: usize,
    pool_size: usize,
    exclude: &std::collections::HashSet<(usize, usize)>,
) -> Vec<Op> {
    let base = egs.snapshot(0);
    // Prefer edges whose source has a high out-degree — the hot-page regime:
    // each toggle rescales the source's whole column, so the per-entry
    // Bennett cost is maximal while the frozen-pattern refactor pass stays
    // one sweep regardless.
    let mut candidates: Vec<(usize, usize)> =
        base.edges().filter(|e| !exclude.contains(e)).collect();
    candidates.sort_by_key(|&(u, v)| (std::cmp::Reverse(base.out_degree(u)), u, v));
    let pool: Vec<(usize, usize)> = candidates.into_iter().take(pool_size).collect();
    assert!(!pool.is_empty(), "base snapshot has no edges to toggle");
    let mut ops = Vec::with_capacity(target + 2 * pool.len());
    let mut removing = true;
    while ops.len() < target {
        for &(u, v) in &pool {
            ops.push(if removing {
                Op::Remove(u, v)
            } else {
                Op::Insert(u, v)
            });
        }
        removing = !removing;
    }
    // `removing` now names the round that would come next; if it is a
    // re-insert round the pool is currently absent — run it, so the final
    // graph returns to the base topology.
    if !removing {
        for &(u, v) in &pool {
            ops.push(Op::Insert(u, v));
        }
    }
    ops
}

fn main() {
    let mut n_pages: Option<usize> = None;
    let mut n_query_threads: Option<usize> = None;
    let mut n_shards: usize = 1;
    let mut batch_size: usize = 64;
    let mut repartition_budget: Option<usize> = None;
    let mut batch_window_us: u64 = 0;
    let mut stale_budget: u64 = 0;
    let mut smoke = false;
    let mut churn = Churn::Structure;
    let mut metrics_out: Option<String> = None;
    let mut telemetry_enabled = true;
    let mut wal_dir: Option<String> = None;
    let mut checkpoint_every: u64 = 64;
    let mut group_commit: usize = 8;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--shards" => {
                n_shards = args
                    .next()
                    .and_then(|a| a.parse().ok())
                    .expect("--shards needs a positive integer");
                assert!(n_shards >= 1, "--shards needs a positive integer");
            }
            "--batch" => {
                batch_size = args
                    .next()
                    .and_then(|a| a.parse().ok())
                    .expect("--batch needs a positive integer");
                assert!(batch_size >= 1, "--batch needs a positive integer");
            }
            "--repartition-budget" => {
                repartition_budget = Some(
                    args.next()
                        .and_then(|a| a.parse().ok())
                        .expect("--repartition-budget needs a non-negative integer"),
                );
            }
            "--query-threads" => {
                let threads: usize = args
                    .next()
                    .and_then(|a| a.parse().ok())
                    .expect("--query-threads needs a positive integer");
                assert!(threads >= 1, "--query-threads needs a positive integer");
                n_query_threads = Some(threads);
            }
            "--batch-window-us" => {
                batch_window_us = args
                    .next()
                    .and_then(|a| a.parse().ok())
                    .expect("--batch-window-us needs a non-negative integer");
            }
            "--stale-budget" => {
                stale_budget = args
                    .next()
                    .and_then(|a| a.parse().ok())
                    .expect("--stale-budget needs a non-negative integer");
            }
            "--smoke" => smoke = true,
            "--churn" => {
                churn = match args.next().as_deref() {
                    Some("value") => Churn::Value,
                    Some("structure") => Churn::Structure,
                    Some("mixed") => Churn::Mixed,
                    other => {
                        panic!("unknown --churn {other:?} (expected value, structure or mixed)")
                    }
                };
            }
            "--metrics-out" => {
                metrics_out = Some(args.next().expect("--metrics-out needs a file path"));
            }
            "--no-telemetry" => telemetry_enabled = false,
            "--wal-dir" => {
                wal_dir = Some(args.next().expect("--wal-dir needs a directory path"));
            }
            "--checkpoint-every" => {
                checkpoint_every = args
                    .next()
                    .and_then(|a| a.parse().ok())
                    .expect("--checkpoint-every needs a positive integer");
                assert!(
                    checkpoint_every >= 1,
                    "--checkpoint-every needs a positive integer"
                );
            }
            "--group-commit" => {
                group_commit = args
                    .next()
                    .and_then(|a| a.parse().ok())
                    .expect("--group-commit needs a positive integer");
                assert!(group_commit >= 1, "--group-commit needs a positive integer");
            }
            other => {
                let value: usize = other
                    .parse()
                    .unwrap_or_else(|_| panic!("unrecognised argument {other:?}"));
                if n_pages.is_none() {
                    n_pages = Some(value);
                } else if n_query_threads.is_none() {
                    n_query_threads = Some(value);
                } else {
                    panic!("unexpected extra positional argument {other:?}");
                }
            }
        }
    }
    let n_pages = n_pages.unwrap_or(if smoke { 150 } else { 400 });
    // Default to cores − 1 query threads (min 1) so the ingest thread is not
    // starved on small machines; pass an explicit count to override.
    let n_query_threads: usize = n_query_threads.unwrap_or_else(|| {
        if smoke {
            1
        } else {
            std::thread::available_parallelism()
                .map(|p| p.get().saturating_sub(1).max(1))
                .unwrap_or(1)
        }
    });

    // Scale the sequence so the replay comfortably clears the delta floor
    // (full runs only; smoke keeps CI fast).
    let config = if smoke {
        WikiLikeConfig {
            n_pages,
            initial_links: n_pages * 3,
            final_links: n_pages * 3 + 1_500,
            n_snapshots: 30,
            removals_per_snapshot: 4,
            burst_probability: 0.08,
            burst_size: 10,
        }
    } else {
        WikiLikeConfig {
            n_pages,
            initial_links: n_pages * 3,
            final_links: n_pages * 3 + 9_200,
            n_snapshots: 120,
            removals_per_snapshot: 8,
            burst_probability: 0.08,
            burst_size: 25,
        }
    };
    let egs = wiki_like::generate(&config, &mut StdRng::seed_from_u64(7));
    let structural = op_stream(&egs);
    // The toggle pool must be at least one batch wide, or a batch would
    // contain an edge's remove *and* re-insert and merge them away.
    let toggle_pool = batch_size.max(512);
    let ops = match churn {
        Churn::Structure => structural,
        Churn::Value => value_toggle_stream(
            &egs,
            structural.len(),
            toggle_pool,
            &std::collections::HashSet::new(),
        ),
        Churn::Mixed => {
            // Toggle only edges the structural stream never touches, so each
            // toggled edge keeps its strict remove/insert alternation.
            let touched: std::collections::HashSet<(usize, usize)> = structural
                .iter()
                .map(|op| match *op {
                    Op::Insert(u, v) | Op::Remove(u, v) => (u, v),
                })
                .collect();
            let toggles = value_toggle_stream(&egs, structural.len(), toggle_pool, &touched);
            structural
                .iter()
                .copied()
                .zip(toggles)
                .flat_map(|(s, t)| [s, t])
                .collect()
        }
    };
    assert!(
        smoke || ops.len() >= MIN_DELTAS,
        "replay too small: {} ops (need >= {MIN_DELTAS})",
        ops.len()
    );
    println!(
        "replay: {} pages, {} snapshots archived, {} edge operations ({} churn), {} query threads, {} factor shard(s), batch {}{}{}",
        egs.n_nodes(),
        egs.len(),
        ops.len(),
        churn.name(),
        n_query_threads,
        n_shards,
        batch_size,
        match repartition_budget {
            Some(b) => format!(", repartition-budget {b}"),
            None => String::new(),
        },
        if smoke { " [smoke]" } else { "" }
    );

    let engine_config = EngineConfig {
        batch: BatchPolicy::by_count(batch_size),
        // A tight budget keeps the factors near the Markowitz
        // reference: Bennett cascades stay short, and the periodic
        // refresh is far cheaper than the fill it prevents.
        refresh: RefreshPolicy::QualityTriggered {
            max_quality_loss: 0.25,
        },
        ring_capacity: 8,
        cache_shards: 16,
        cache_capacity_per_shard: 256,
        n_shards,
        coupling: CouplingConfig {
            repartition_budget,
            ..CouplingConfig::default()
        },
        telemetry: if telemetry_enabled {
            TelemetryConfig::default()
        } else {
            TelemetryConfig::disabled()
        },
        staleness: StalenessBudget {
            max_lag: stale_budget,
        },
        batch_window_us,
        ..EngineConfig::default()
    };
    let matrix_kind = engine_config.matrix_kind;
    // The fill-reducing ordering contest every shard build runs, shown here
    // on the whole base measure matrix: predicted factor size `|s̃p(A^O)|`
    // and ordering cost per pivot for the paper's Markowitz rule vs AMD.
    {
        let pattern = clude_graph::measure_matrix(&egs.snapshot(0), matrix_kind).pattern();
        let n = pattern.n_rows();
        let t = Instant::now();
        let markowitz = clude_lu::markowitz_ordering(&pattern);
        let t_markowitz = t.elapsed();
        let t = Instant::now();
        let amd = clude_lu::amd_ordering(&pattern);
        let t_amd = t.elapsed();
        println!(
            "ordering contest on the base matrix ({n} pivots): markowitz fill {} ({:.3?}, {:.2} us/pivot), amd fill {} ({:.3?}, {:.2} us/pivot)",
            markowitz.symbolic_size,
            t_markowitz,
            t_markowitz.as_micros() as f64 / n as f64,
            amd.symbolic_size,
            t_amd,
            t_amd.as_micros() as f64 / n as f64,
        );
        // Same contest on the shard matrices the engine actually refreshes at
        // the end of the replay: the densified end-state is where the
        // deficiency tie-break separates the two orderings.
        if n_shards > 1 {
            let last = egs.len() - 1;
            let final_graph = egs.snapshot(last);
            let partition = clude::partition::edge_locality_partition(&egs.snapshot(0), n_shards);
            let (mut fills, mut times) = ((0usize, 0usize), (0f64, 0f64));
            let mut pivots = 0usize;
            for shard in 0..partition.n_shards() {
                let m =
                    clude_graph::shard_measure_matrix(&final_graph, matrix_kind, &partition, shard);
                let p = m.pattern();
                pivots += p.n_rows();
                let t = Instant::now();
                fills.0 += clude_lu::markowitz_ordering(&p).symbolic_size;
                times.0 += t.elapsed().as_micros() as f64;
                let t = Instant::now();
                fills.1 += clude_lu::amd_ordering(&p).symbolic_size;
                times.1 += t.elapsed().as_micros() as f64;
            }
            println!(
                "ordering contest on final-state shard matrices ({} shards, {pivots} pivots): markowitz fill {} ({:.2} us/pivot), amd fill {} ({:.2} us/pivot)",
                partition.n_shards(),
                fills.0,
                times.0 / pivots as f64,
                fills.1,
                times.1 / pivots as f64,
            );
        }
    }
    let engine = Arc::new(match &wal_dir {
        Some(dir) => {
            let durability = DurabilityConfig::new(dir)
                .group_commit(group_commit)
                .checkpoint_every(checkpoint_every);
            let (engine, report) =
                CludeEngine::open_durable(egs.snapshot(0), engine_config, durability)
                    .expect("durable open succeeds");
            println!(
                "durable spool {dir}: checkpoint snapshot {:?} (gen {:?}), {} WAL records replayed, {} truncated, resumed at {:?}",
                report.checkpoint_snapshot,
                report.checkpoint_gen,
                report.wal_records_replayed,
                report.wal_records_truncated,
                report.recovered_snapshot,
            );
            engine
        }
        None => CludeEngine::new(egs.snapshot(0), engine_config).expect("base snapshot factorizes"),
    });
    let running = Arc::new(AtomicBool::new(true));
    let n = egs.n_nodes();
    // End-to-end query latency as the reader sees it (cache hits included),
    // shared lock-free across the reader threads.
    let latency_hist = Arc::new(LogHistogram::new());

    // Query threads: mixed RWR / PageRank / PPR workload with skewed seeds
    // (a hot set of 32 pages gets most of the traffic, as a real serving
    // tier would see).
    let readers: Vec<_> = (0..n_query_threads)
        .map(|t| {
            let engine = Arc::clone(&engine);
            let running = Arc::clone(&running);
            let latency_hist = Arc::clone(&latency_hist);
            std::thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(1000 + t as u64);
                let mut answered = 0u64;
                // lint: allow(atomic-ordering) — stop flag: readers only
                // need eventual visibility, not ordering with the workload.
                while running.load(Ordering::Relaxed) {
                    let query = match rng.gen_range(0usize..10) {
                        0..=6 => MeasureQuery::Rwr {
                            seed: if rng.gen_bool(0.8) {
                                rng.gen_range(0..32.min(n))
                            } else {
                                rng.gen_range(0..n)
                            },
                            damping: 0.85,
                        },
                        7..=8 => MeasureQuery::PageRank { damping: 0.85 },
                        _ => MeasureQuery::PprSeedSet {
                            seeds: vec![rng.gen_range(0..n), rng.gen_range(0..n)],
                            damping: 0.85,
                        },
                    };
                    let start = Instant::now();
                    let scores = engine.query(&query).expect("query succeeds");
                    latency_hist.record_duration(start.elapsed());
                    assert_eq!(scores.len(), n);
                    answered += 1;
                    // Give the ingest thread a scheduling slot on small
                    // machines; a no-op when cores are plentiful.
                    std::thread::yield_now();
                }
                answered
            })
        })
        .collect();

    // Ingest thread (this one): replay the stream as fast as possible.
    let ingest_start = Instant::now();
    for op in &ops {
        match *op {
            Op::Insert(u, v) => engine.insert_edge(u, v).expect("insert applies"),
            Op::Remove(u, v) => engine.remove_edge(u, v).expect("remove applies"),
        };
    }
    engine.flush().expect("final batch applies");
    let ingest_elapsed = ingest_start.elapsed();
    // lint: allow(atomic-ordering) — stop flag; the join below is the
    // synchronisation point, the flag only needs eventual visibility.
    running.store(false, Ordering::Relaxed);

    let per_thread: Vec<u64> = readers
        .into_iter()
        .map(|r| r.join().expect("query thread clean exit"))
        .collect();
    let n_queries = latency_hist.count();

    let stats = engine.stats();
    let qps = n_queries as f64 / ingest_elapsed.as_secs_f64();
    let dps = ops.len() as f64 / ingest_elapsed.as_secs_f64();
    let refactor_passes = engine
        .telemetry()
        .stage_histogram(Stage::ShardRefactor)
        .count();
    println!("\n--- ingest ---");
    println!(
        "replayed {} ops in {:.3?} -> {:.0} {} deltas/sec ({} batches, {} refreshes, {} refactor passes, final snapshot {})",
        ops.len(),
        ingest_elapsed,
        dps,
        if wal_dir.is_some() {
            "durable"
        } else {
            "in-memory"
        },
        stats.batches_applied,
        stats.refreshes,
        refactor_passes,
        engine.current_snapshot_id()
    );
    // The maintenance stage in isolation: time spent keeping factor values
    // current (Bennett sweeps + pattern-frozen refactor passes + refreshes),
    // excluding the shared pipeline around it (merge, routing, coupling
    // republish, snapshot freeze).  This is the direct refactor-vs-sweep
    // comparison; the end-to-end rate above dilutes it with the shared work.
    let telemetry = engine.telemetry();
    let maintenance_ns: u64 = [Stage::ShardSweep, Stage::ShardRefactor, Stage::ShardRefresh]
        .iter()
        .map(|&s| telemetry.stage_histogram(s).sum())
        .sum();
    if maintenance_ns > 0 {
        println!(
            "factor maintenance stage: {:.3?} total -> {:.0} deltas/sec through {}",
            std::time::Duration::from_nanos(maintenance_ns),
            ops.len() as f64 * 1e9 / maintenance_ns as f64,
            if refactor_passes > 0 {
                "refactor passes"
            } else {
                "Bennett sweeps"
            },
        );
    }
    if stats.per_shard.len() > 1 {
        println!("\n--- per-shard ingest breakdown ---");
        for s in &stats.per_shard {
            println!(
                "shard {:>3} | entries {:>8}  sweeps {:>8}  cross-edges {:>8}  refreshes {:>4}",
                s.shard, s.deltas_applied, s.sweeps_run, s.cross_shard_edges, s.refreshes
            );
        }
    }
    println!("\n--- snapshot ring (copy-on-write sharing) ---");
    let snapshots = stats.cow_shards_cloned + stats.cow_shards_shared;
    println!(
        "published {} snapshots over {} shard(s): {} blocks cloned, {} shared ({:.1}% share rate)",
        stats.batches_applied,
        engine.n_shards(),
        stats.cow_shards_cloned,
        stats.cow_shards_shared,
        100.0 * stats.cow_share_rate()
    );
    println!(
        "ring depth {}: ~{:.2} MiB factor blocks + couplings resident ({:.2} avg blocks cloned/snapshot)",
        stats.ring_depth,
        stats.resident_factor_bytes as f64 / (1024.0 * 1024.0),
        if stats.batches_applied == 0 {
            0.0
        } else {
            stats.cow_shards_cloned as f64 / stats.batches_applied as f64
        }
    );
    debug_assert_eq!(snapshots, stats.batches_applied * engine.n_shards() as u64);

    println!("\n--- queries (concurrent with ingest) ---");
    println!(
        "answered {} queries -> {:.0} queries/sec, cache hit-rate {:.1}%",
        n_queries,
        qps,
        100.0 * stats.hit_rate()
    );
    println!(
        "latency [{} shard(s), coupling nnz {}]:",
        n_shards, stats.coupling_nnz
    );
    println!(
        "  p50 {:?}  p90 {:?}  p95 {:?}  p99 {:?}  max {:?}",
        latency_hist.duration_at_quantile(0.50),
        latency_hist.duration_at_quantile(0.90),
        latency_hist.duration_at_quantile(0.95),
        latency_hist.duration_at_quantile(0.99),
        latency_hist.max_duration()
    );
    println!("\n--- per-thread queries ---");
    for (t, answered) in per_thread.iter().enumerate() {
        println!(
            "thread {t:>3} | {answered:>9} queries -> {:.0} queries/sec",
            *answered as f64 / ingest_elapsed.as_secs_f64()
        );
    }
    let occupancy = engine.batch_occupancy();
    println!(
        "\n--- batch occupancy (window {batch_window_us} us, stale budget {stale_budget}) ---"
    );
    println!(
        "{} panel solves drained, occupancy mean {:.2}, p50 {}, p90 {}, max {}",
        occupancy.count(),
        occupancy.mean(),
        occupancy.value_at_quantile(0.50),
        occupancy.value_at_quantile(0.90),
        occupancy.max()
    );
    println!("\n--- engine counters ---\n{stats}");

    // Exactness gate: whatever path the batches took (Bennett sweeps,
    // pattern-frozen refactorizations, refreshes), the served answers must
    // match dense Gaussian elimination on the final graph's measure matrix
    // to 1e-9 — a reference with no ordering, factor or routing code in
    // common with the engine.
    let mut final_graph = egs.snapshot(0);
    for op in &ops {
        match *op {
            Op::Insert(u, v) => {
                final_graph.add_edge(u, v);
            }
            Op::Remove(u, v) => {
                final_graph.remove_edge(u, v);
            }
        }
    }
    let oracle = clude_graph::measure_matrix(&final_graph, matrix_kind).to_dense();
    let mut max_diff = 0.0f64;
    for q in [
        MeasureQuery::PageRank { damping: 0.85 },
        MeasureQuery::Rwr {
            seed: 0,
            damping: 0.85,
        },
        MeasureQuery::Rwr {
            seed: n - 1,
            damping: 0.85,
        },
        MeasureQuery::PprSeedSet {
            seeds: vec![1, n / 2],
            damping: 0.85,
        },
    ] {
        let served = engine.query(&q).expect("verification query succeeds");
        let rhs = clude_measures::measure_rhs(&q, n).expect("a snapshot-matrix query");
        let mut exact = oracle.solve_gaussian(&rhs).expect("oracle solve succeeds");
        clude_sparse::vector::normalize_l1(&mut exact);
        for (a, b) in served.iter().zip(exact.iter()) {
            max_diff = max_diff.max((a - b).abs());
        }
    }
    assert!(
        max_diff <= 1e-9,
        "served answers drifted from the dense oracle: max |diff| {max_diff:.3e}"
    );
    println!("\nexactness vs dense oracle: max |diff| {max_diff:.3e} (gate 1e-9)");

    if let Some(path) = metrics_out {
        let dump = engine.render_prometheus();
        clude_telemetry::validate_prometheus(&dump).expect("exposition is well-formed");
        std::fs::write(&path, &dump).expect("metrics file is writable");
        println!(
            "\nwrote {} telemetry series bytes to {path} ({} spans, {} journal events)",
            dump.len(),
            engine.telemetry().spans_recorded(),
            engine.telemetry().journal().recorded()
        );
    }
}
