//! End-to-end telemetry: replay a stream through a sharded engine and check
//! that the spans, gauges, journal events and the Prometheus exposition all
//! reflect what the engine actually did.

use clude_engine::{
    BatchPolicy, CludeEngine, CouplingConfig, EngineConfig, EngineStats, MaintenanceArm,
};
use clude_graph::{DiGraph, NodePartition};
use clude_measures::MeasureQuery;
use clude_telemetry::{
    validate_prometheus, Counter, EventKind, ShardCounter, Stage, TelemetryConfig,
};
use std::time::Duration;

fn ring_graph(n: usize) -> DiGraph {
    let mut g = DiGraph::from_edges(n, (0..n).map(|i| (i, (i + 1) % n)).collect::<Vec<_>>());
    g.add_edge(2, 0);
    g
}

/// An interleaved partition of a ring is maximally coupled, so a tight
/// repartition budget trips on the first applied batch and every query is a
/// coupled Gauss–Seidel solve.
fn instrumented_engine(telemetry: TelemetryConfig) -> CludeEngine {
    let assignments = (0..12).map(|u| u % 3).collect::<Vec<_>>();
    CludeEngine::with_partition(
        ring_graph(12),
        EngineConfig {
            batch: BatchPolicy::by_count(1),
            ring_capacity: 3,
            coupling: CouplingConfig {
                repartition_budget: Some(4),
                ..CouplingConfig::default()
            },
            telemetry,
            ..EngineConfig::default()
        },
        NodePartition::from_assignments(assignments),
    )
    .unwrap()
}

fn replay(engine: &CludeEngine) {
    // The cross-edge batches below are value-only (rescales of stored
    // entries) and refactor; this one is structural — 0 and 3 share shard 0,
    // whose block holds no ring edge, so the new entry has no stored slot —
    // and Bennett-sweeps.
    engine.insert_edge(0, 3).unwrap();
    for i in 0..5 {
        engine.insert_edge(i, (i + 5) % 12).unwrap();
    }
    let q = MeasureQuery::PageRank { damping: 0.85 };
    for _ in 0..3 {
        engine.query(&q).unwrap();
    }
    engine
        .query(&MeasureQuery::Rwr {
            seed: 1,
            damping: 0.85,
        })
        .unwrap();
}

#[test]
fn replay_populates_spans_journal_and_exposition() {
    let engine = instrumented_engine(TelemetryConfig::default());
    replay(&engine);

    let telemetry = engine.telemetry();
    // Every instrumented stage of this replay saw work: batches were applied,
    // shards swept and re-frozen, coupled queries solved by Gauss–Seidel.
    for stage in [
        Stage::IngestMerge,
        Stage::IngestApply,
        Stage::ShardSweep,
        Stage::SnapshotFreeze,
        Stage::CouplingGaussSeidel,
        Stage::QuerySolve,
        Stage::QueryCacheHit,
    ] {
        assert!(
            telemetry.stage_histogram(stage).count() > 0,
            "stage {} recorded nothing",
            stage.name()
        );
    }

    // One sweep sample per solved right-hand side (two cold queries here;
    // the repeats are cache hits), and a cyclic coupling takes several.
    let sweeps = telemetry.coupling_sweeps();
    assert_eq!(sweeps.count(), 2);
    assert!(sweeps.value_at_quantile(0.5) > 1);

    // The journal saw the repartition (tight budget).
    let journal = telemetry.journal();
    assert!(journal.count_of(EventKind::Repartitioned) >= 1);
    assert!(journal
        .entries()
        .iter()
        .any(|e| e.event.kind() == EventKind::Repartitioned));

    // The exposition parses, renders every stage of the catalog, and
    // carries the key series with non-zero counts.
    let dump = engine.render_prometheus();
    validate_prometheus(&dump).expect("exposition parses");
    for stage in Stage::ALL {
        let series = format!("{}_duration_seconds_count ", stage.metric());
        assert!(dump.contains(&series), "missing {series}");
    }
    for needle in [
        "clude_journal_events_total{event=\"repartitioned\"}",
        "clude_coupling_sweeps_count 2\n",
    ] {
        assert!(dump.contains(needle), "missing {needle}");
    }
    assert!(!dump.contains("clude_coupling_gauss_seidel_duration_seconds_count 0"));
    assert!(!dump.contains("clude_shard_sweep_duration_seconds_count 0"));
    assert!(!dump.contains("clude_query_solve_duration_seconds_count 0"));

    // Gauges were refreshed by render_prometheus' stats pass.
    assert!(dump
        .lines()
        .any(|l| l.starts_with("clude_ring_depth ") && !l.ends_with(" 0")));

    // The stats record and its Display carry the telemetry section.
    let stats = engine.stats();
    assert!(stats.telemetry_enabled);
    assert!(stats.spans_recorded > 0);
    assert!(stats.journal_events >= 2);
    let text = stats.to_string();
    assert!(text.contains("telemetry |"));
    assert!(text.contains("coupling |"));

    // JSON snapshot is balanced and carries the journal payloads.
    let json = engine.telemetry_json();
    assert_eq!(json.matches('{').count(), json.matches('}').count());
    assert!(json.contains("\"kind\": \"repartitioned\""));
}

/// `ingest.apply` spans a batch until queries can see it — the store's
/// advance, the snapshot, the ring push and the publish — so on a 4-shard run
/// it contains every stage the batch ran (one-operation batches keep a single
/// shard active, so the arms run inline and the child spans do not overlap),
/// and the engine's ingest time is its busy sum.
#[test]
fn ingest_apply_contains_its_child_stages_on_a_four_shard_run() {
    let n = 32;
    let engine = CludeEngine::with_partition(
        ring_graph(n),
        EngineConfig {
            batch: BatchPolicy::by_count(1),
            ..EngineConfig::default()
        },
        NodePartition::contiguous(n, 4),
    )
    .unwrap();
    assert_eq!(engine.n_shards(), 4);
    let mut batches = 0;
    for u in 0..n {
        // Intra-shard chords (structural), cross-shard chords (coupling
        // writes and a rescale of the source's block), then removals of
        // both (value-only).
        for v in [(u + 2) % n, (u + 11) % n] {
            engine.insert_edge(u, v).unwrap();
            batches += 1;
        }
    }
    for u in (0..n).step_by(3) {
        engine.remove_edge(u, (u + 2) % n).unwrap();
        engine.remove_edge(u, (u + 11) % n).unwrap();
        batches += 2;
    }

    let telemetry = engine.telemetry();
    let busy = |stage: Stage| telemetry.stage_histogram(stage).sum();
    let apply = telemetry.stage_histogram(Stage::IngestApply);
    assert_eq!(apply.count(), batches);
    let children = [
        Stage::ShardSweep,
        Stage::ShardRefactor,
        Stage::ShardRefresh,
        Stage::SnapshotFreeze,
    ];
    for stage in [
        Stage::ShardSweep,
        Stage::ShardRefactor,
        Stage::SnapshotFreeze,
    ] {
        assert!(busy(stage) > 0, "stage {} recorded nothing", stage.name());
    }
    let inside: u64 = children.into_iter().map(busy).sum();
    assert!(
        apply.sum() >= inside,
        "ingest.apply {} ns < its child stages {} ns",
        apply.sum(),
        inside
    );
    let stats = engine.stats();
    assert_eq!(stats.ingest_time.as_nanos() as u64, apply.sum());

    // The removals were frozen-pattern passes: the share of their blocks'
    // rows they recomputed is on the `arms |` line and, as the two counters
    // it is the ratio of, in the exposition.
    assert!(stats.frozen_block_rows > 0);
    assert!(stats.frozen_rows_refactored > 0);
    assert!(stats.frozen_rows_refactored <= stats.frozen_block_rows);
    let share = format!("refactor-rows {:>5.1}%", 100.0 * stats.frozen_row_share());
    assert!(stats.to_string().contains(&share), "{stats}");
    let dump = engine.render_prometheus();
    for (metric, value) in [
        (
            "clude_frozen_rows_refactored_total",
            stats.frozen_rows_refactored,
        ),
        ("clude_frozen_block_rows_total", stats.frozen_block_rows),
    ] {
        let line = format!("{metric} {value}\n");
        assert!(dump.contains(&line), "missing {line}");
    }
}

#[test]
fn disabled_telemetry_stops_the_clock_but_keeps_counting() {
    let engine = instrumented_engine(TelemetryConfig::disabled());
    replay(&engine);

    // Off: spans, the stage and block-pass histograms, the journal.
    let telemetry = engine.telemetry();
    assert!(!telemetry.enabled());
    assert_eq!(telemetry.spans_recorded(), 0);
    assert!(telemetry.coupling_sweeps().is_empty());
    assert_eq!(telemetry.journal().recorded(), 0);

    // On: the counters, which are what the stats are read from.
    let stats = engine.stats();
    assert!(!stats.telemetry_enabled);
    assert!(stats.batches_applied >= 5);
    for (counter, value) in [
        (Counter::OpsIngested, stats.ops_ingested),
        (Counter::OpsCoalesced, stats.ops_coalesced),
        (Counter::BatchesApplied, stats.batches_applied),
        (Counter::BatchesReordered, stats.refreshes),
        (Counter::BennettPivots, stats.bennett_pivots),
        (
            Counter::SweepArm,
            stats.arm_count(MaintenanceArm::BennettSweep),
        ),
        (
            Counter::RefactorArm,
            stats.arm_count(MaintenanceArm::FrozenRefactor),
        ),
        (
            Counter::RebuildArm,
            stats.arm_count(MaintenanceArm::Rebuild),
        ),
        (Counter::FrozenRowsRefactored, stats.frozen_rows_refactored),
        (Counter::FrozenBlockRows, stats.frozen_block_rows),
        (Counter::SlotsAdded, stats.slots_added),
        (Counter::QueriesServed, stats.queries),
        (Counter::CacheHits, stats.cache_hits),
        (Counter::CowShardsCloned, stats.cow_shards_cloned),
        (Counter::CowShardsShared, stats.cow_shards_shared),
        (Counter::Repartitions, stats.repartitions),
    ] {
        assert_eq!(telemetry.counter(counter), value, "{}", counter.name());
    }
    assert_eq!(stats.queries, 4);
    assert_eq!(stats.cache_hits, 2);
    assert!(stats.repartitions >= 1);
    for shard in &stats.per_shard {
        for (counter, value) in [
            (ShardCounter::EntriesApplied, shard.deltas_applied),
            (ShardCounter::Sweeps, shard.sweeps_run),
            (ShardCounter::CrossShardEdges, shard.cross_shard_edges),
            (ShardCounter::Reorders, shard.refreshes),
        ] {
            assert_eq!(telemetry.shard_counter(shard.shard, counter), value);
        }
    }
    assert!(stats.to_string().contains("telemetry | off"));

    // The exposition still parses and carries the counts.
    let dump = engine.render_prometheus();
    validate_prometheus(&dump).expect("exposition parses");
    let line = format!("clude_batches_applied_total {}\n", stats.batches_applied);
    assert!(dump.contains(&line), "missing {line}");
}

/// One stream — structural and value-only batches, coalesced operations, a
/// repartition at 4 shards, cache hits and misses — replayed into an engine
/// with the given telemetry.
fn counted_replay(n_shards: usize, telemetry: TelemetryConfig) -> EngineStats {
    let n = 24;
    let config = EngineConfig {
        batch: BatchPolicy::by_count(3),
        ring_capacity: 3,
        coupling: CouplingConfig {
            repartition_budget: Some(18),
            ..CouplingConfig::default()
        },
        telemetry,
        ..EngineConfig::default()
    };
    // Interleaved, the ring is maximally coupled: the first batch crosses
    // the budget and repartitions.
    let partition = NodePartition::from_assignments((0..n).map(|u| u % n_shards).collect());
    let engine = CludeEngine::with_partition(ring_graph(n), config, partition).unwrap();
    let queries = [
        MeasureQuery::PageRank { damping: 0.85 },
        MeasureQuery::Rwr {
            seed: 3,
            damping: 0.85,
        },
    ];
    for round in 0..4 {
        for u in (round..n).step_by(5) {
            engine.insert_edge(u, (u + 7) % n).unwrap();
            // Already present: the ingestor drops it.
            engine.insert_edge(u, (u + 1) % n).unwrap();
        }
        engine.flush().unwrap();
        for q in &queries {
            engine.query(q).unwrap();
            engine.query(q).unwrap();
        }
        for u in (round..n).step_by(5) {
            engine.remove_edge(u, (u + 7) % n).unwrap();
        }
        engine.flush().unwrap();
    }
    engine.stats()
}

/// Every count of `EngineStats` is the same with telemetry on or off; only
/// the durations, read from the stage histograms, need the clock.
#[test]
fn stats_counts_are_the_same_with_telemetry_on_or_off() {
    for n_shards in [1, 4] {
        let on = counted_replay(n_shards, TelemetryConfig::default());
        let off = counted_replay(n_shards, TelemetryConfig::disabled());
        for (name, on_time, off_time) in [
            ("ingest", on.ingest_time, off.ingest_time),
            ("query", on.query_time, off.query_time),
        ] {
            assert!(on_time > Duration::ZERO, "{n_shards} shards: {name} time");
            assert_eq!(off_time, Duration::ZERO, "{n_shards} shards: {name} time");
        }
        assert_eq!(off.refresh_time, Duration::ZERO);
        assert_eq!(on.refresh_time > Duration::ZERO, on.refreshes > 0);
        // The clock- and journal-derived fields aside, the records agree
        // field for field, `per_shard` included.
        let counts = |s: &EngineStats| EngineStats {
            ingest_time: Duration::ZERO,
            refresh_time: Duration::ZERO,
            query_time: Duration::ZERO,
            coupling_sweeps_p50: 0,
            coupling_sweeps_max: 0,
            telemetry_enabled: false,
            spans_recorded: 0,
            journal_events: 0,
            journal_dropped: 0,
            query_solve_p50: Duration::ZERO,
            query_solve_p99: Duration::ZERO,
            ..s.clone()
        };
        assert_eq!(counts(&on), counts(&off), "{n_shards} shards");
        assert_eq!(on.batches_applied, 16);
        assert_eq!(on.ops_coalesced, 20);
        assert_eq!((on.queries, on.cache_hits, on.cache_misses), (16, 8, 8));
        assert_eq!(on.per_shard.len(), n_shards);
        assert_eq!(on.repartitions, u64::from(n_shards > 1));
    }
}
