//! Engine statistics: [`EngineStats`], a view over the [`TelemetryRegistry`]
//! that counts every engine event once, printed in the style of the batch
//! solvers' `clude::report::TimingBreakdown`.

use crate::store::MaintenanceArm;
use clude_telemetry::{Counter, ShardCounter, Stage, TelemetryRegistry};
use std::fmt;
use std::time::Duration;

/// A point-in-time copy of one shard's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// The shard id.
    pub shard: usize,
    /// Changed matrix entries applied to this shard's factors.
    pub deltas_applied: u64,
    /// Cross-shard edge changes sourced from this shard's nodes.
    pub cross_shard_edges: u64,
    /// Re-orders (fresh ordering + factorization) of this shard's block.
    pub refreshes: u64,
}

/// A point-in-time copy of the engine's counts, read from its telemetry
/// registry by [`EngineStats::from_registry`]; `CludeEngine::stats` fills in
/// the ring and coupling fields (0 in a bare registry view).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Edge operations accepted.
    pub ops_ingested: u64,
    /// Edge operations coalesced away as no-ops.
    pub ops_coalesced: u64,
    /// Delta batches applied (snapshot advances).
    pub batches_applied: u64,
    /// Batches in which at least one shard re-ordered.
    pub refreshes: u64,
    /// Bennett rank-one updates performed: always 0, since no shard sweeps
    /// (kept for readers of the field).
    pub bennett_rank_one_updates: u64,
    /// Bennett pivots visited: always 0, like
    /// [`EngineStats::bennett_rank_one_updates`].
    pub bennett_pivots: u64,
    /// Shard-batches absorbed by each maintenance arm (see
    /// [`EngineStats::arm_count`]); re-orders are the per-shard ones summed.
    pub arms: [u64; MaintenanceArm::ALL.len()],
    /// Rows the numeric passes recomputed — the elimination reach of their
    /// slices' changed rows (see [`EngineStats::frozen_row_share`]).
    pub frozen_rows_refactored: u64,
    /// Rows of the blocks those passes ran on.
    pub frozen_block_rows: u64,
    /// Factor slots the structure extensions added: the fill and new
    /// entries the batches' structural slices brought into the blocks.
    pub slots_added: u64,
    /// Queries answered.
    pub queries: u64,
    /// Cache hits among them.
    pub cache_hits: u64,
    /// Cache misses among them: `queries − cache_hits`.
    pub cache_misses: u64,
    /// `ingest.apply` busy time, advance to publish (0 with telemetry off).
    pub ingest_time: Duration,
    /// `shard.refresh` busy time: the re-orders (0 with telemetry off).
    pub refresh_time: Duration,
    /// `query.solve` busy time: the cache misses (0 with telemetry off).
    pub query_time: Duration,
    /// Shard factor blocks replaced (each a copy its arm wrote) for
    /// published snapshots.
    pub cow_shards_cloned: u64,
    /// Shard factor blocks published snapshots shared with their previous.
    pub cow_shards_shared: u64,
    /// Snapshots currently retained in the time-travel ring.
    pub ring_depth: u64,
    /// Approximate factor and coupling bytes resident across the ring.
    pub resident_factor_bytes: u64,
    /// Cross-shard coupling entries of the newest snapshot.
    pub coupling_nnz: u64,
    /// Median block passes per coupled right-hand side (0 with telemetry
    /// off or before the first coupled solve).
    pub coupling_sweeps_p50: u64,
    /// Most block passes any coupled right-hand side needed.
    pub coupling_sweeps_max: u64,
    /// Whether the engine's telemetry registry is recording.
    pub telemetry_enabled: bool,
    /// Total timed-span observations across all stage histograms.
    pub spans_recorded: u64,
    /// Structured journal events recorded.
    pub journal_events: u64,
    /// Journal events shed by the bounded ring.
    pub journal_dropped: u64,
    /// Median `query.solve` stage latency.
    pub query_solve_p50: Duration,
    /// 99th-percentile `query.solve` stage latency.
    pub query_solve_p99: Duration,
    /// Per-shard ingest breakdown, indexed by shard id.
    pub per_shard: Vec<ShardStats>,
}

impl EngineStats {
    /// Reads the counts and busy times `telemetry` holds, deriving sums and differences.
    pub fn from_registry(telemetry: &TelemetryRegistry) -> EngineStats {
        let count = |c: Counter| telemetry.counter(c);
        let busy = |s: Stage| Duration::from_nanos(telemetry.stage_histogram(s).sum());
        let per_shard: Vec<ShardStats> = (0..telemetry.n_shards())
            .map(|shard| {
                let of = |c: ShardCounter| telemetry.shard_counter(shard, c);
                ShardStats {
                    shard,
                    deltas_applied: of(ShardCounter::EntriesApplied),
                    cross_shard_edges: of(ShardCounter::CrossShardEdges),
                    refreshes: of(ShardCounter::Reorders),
                }
            })
            .collect();
        let reorders = per_shard.iter().map(|s| s.refreshes).sum();
        // Hits first: every hit's query was counted before it.
        let (cache_hits, queries) = (count(Counter::CacheHits), count(Counter::QueriesServed));
        let solves = telemetry.stage_histogram(Stage::QuerySolve);
        EngineStats {
            ops_ingested: count(Counter::OpsIngested),
            ops_coalesced: count(Counter::OpsCoalesced),
            batches_applied: count(Counter::BatchesApplied),
            refreshes: count(Counter::BatchesReordered),
            arms: [count(Counter::RefactorArm), reorders],
            frozen_rows_refactored: count(Counter::FrozenRowsRefactored),
            frozen_block_rows: count(Counter::FrozenBlockRows),
            slots_added: count(Counter::SlotsAdded),
            queries,
            cache_hits,
            cache_misses: queries.saturating_sub(cache_hits),
            ingest_time: busy(Stage::IngestApply),
            refresh_time: busy(Stage::ShardRefresh),
            query_time: busy(Stage::QuerySolve),
            cow_shards_cloned: count(Counter::CowShardsCloned),
            cow_shards_shared: count(Counter::CowShardsShared),
            coupling_sweeps_p50: telemetry.coupling_sweeps().value_at_quantile(0.5),
            coupling_sweeps_max: telemetry.coupling_sweeps().max(),
            telemetry_enabled: telemetry.enabled(),
            spans_recorded: telemetry.spans_recorded(),
            journal_events: telemetry.journal().recorded(),
            journal_dropped: telemetry.journal().dropped(),
            query_solve_p50: solves.duration_at_quantile(0.5),
            query_solve_p99: solves.duration_at_quantile(0.99),
            per_shard,
            ..EngineStats::default()
        }
    }

    /// Cache hit rate in `[0, 1]` (0 when no queries ran).
    pub fn hit_rate(&self) -> f64 {
        ratio(self.cache_hits, self.queries)
    }

    /// Shard-batches `arm` absorbed (a guard failure's fallback is a re-order).
    pub fn arm_count(&self, arm: MaintenanceArm) -> u64 {
        self.arms[arm.index()]
    }

    /// Share of their blocks' rows the numeric passes recomputed, in
    /// `[0, 1]` (0 before the first pass).
    pub fn frozen_row_share(&self) -> f64 {
        ratio(self.frozen_rows_refactored, self.frozen_block_rows)
    }

    /// Average wall-clock per applied batch.
    pub fn avg_batch_time(&self) -> Duration {
        self.ingest_time / self.batches_applied.max(1) as u32
    }

    /// Fraction of per-snapshot shard blocks served by sharing instead of
    /// cloning, in `[0, 1]` (0 when no snapshot was published).
    pub fn cow_share_rate(&self) -> f64 {
        ratio(
            self.cow_shards_shared,
            self.cow_shards_cloned + self.cow_shards_shared,
        )
    }
}

/// `part / whole` for a part of a count, 0 when the count is.
fn ratio(part: u64, whole: u64) -> f64 {
    part as f64 / whole.max(1) as f64
}

/// Renders a byte count with a binary-unit suffix (`4.2 MiB`), for the
/// resident-memory line of the stats display.
fn format_bytes(bytes: u64) -> String {
    // The largest binary unit (up to GiB) the count fills at least once.
    let exp = (0..3).take_while(|&e| bytes >= 1024 << (10 * e)).count();
    let value = bytes as f64 / (1u64 << (10 * exp)) as f64;
    match exp {
        0 => format!("{bytes} B"),
        _ => format!("{value:.1} {}", ["KiB", "MiB", "GiB"][exp - 1]),
    }
}

impl fmt::Display for EngineStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self;
        writeln!(
            f,
            "ingest   | ops {:>10}  coalesced {:>8}  batches {:>7}  time {:>10.3?}",
            s.ops_ingested, s.ops_coalesced, s.batches_applied, s.ingest_time
        )?;
        writeln!(
            f,
            "factors  | refreshes {:>4}  slots-added {:>10}  refresh time {:>10.3?}",
            s.refreshes, s.slots_added, s.refresh_time
        )?;
        let [refactor, reorder] = MaintenanceArm::ALL.map(|a| s.arm_count(a));
        writeln!(
            f,
            "arms     | refactor {:>7}  re-order {:>6}  refactor-rows {:>5.1}%",
            refactor,
            reorder,
            100.0 * s.frozen_row_share()
        )?;
        writeln!(
            f,
            "queries  | total {:>8}  hits {:>10}  misses {:>8}  hit-rate {:>5.1}%  solve time {:>10.3?}",
            s.queries, s.cache_hits, s.cache_misses, 100.0 * s.hit_rate(), s.query_time
        )?;
        let (share, resident) = (100.0 * s.cow_share_rate(), s.resident_factor_bytes);
        writeln!(
            f,
            "ring     | depth {:>8}  cow-clones {:>6}  shared {:>8}  share-rate {:>5.1}%  resident ~{}",
            s.ring_depth, s.cow_shards_cloned, s.cow_shards_shared, share, format_bytes(resident)
        )?;
        writeln!(
            f,
            "coupling | nnz {:>8}  sweeps-p50 {:>4}  sweeps-max {:>6}",
            s.coupling_nnz, s.coupling_sweeps_p50, s.coupling_sweeps_max
        )?;
        let on = if s.telemetry_enabled { "on " } else { "off" };
        let (p50, p99) = (s.query_solve_p50, s.query_solve_p99);
        write!(
            f,
            "telemetry | {on}  spans {:>9}  journal {:>6} (dropped {:>4})  q-solve p50 {p50:>9.3?}  p99 {p99:>9.3?}",
            s.spans_recorded, s.journal_events, s.journal_dropped
        )?;
        // A one-shard engine keeps the display compact.
        for s in s.per_shard.iter().filter(|_| self.per_shard.len() > 1) {
            write!(
                f,
                "\nshard {:>3} | deltas {:>10}  cross-edges {:>8}  refreshes {:>4}",
                s.shard, s.deltas_applied, s.cross_shard_edges, s.refreshes
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clude_telemetry::TelemetryConfig;

    #[test]
    fn snapshot_reflects_counters() {
        let t = TelemetryRegistry::default();
        t.incr(Counter::QueriesServed);
        t.incr(Counter::QueriesServed);
        t.incr(Counter::CacheHits);
        t.observe(Stage::QuerySolve, Duration::from_micros(5));
        let s = EngineStats::from_registry(&t);
        assert_eq!(s.queries, 2);
        assert_eq!(s.cache_hits, 1);
        assert_eq!(s.cache_misses, 1);
        assert_eq!(s.query_time, Duration::from_micros(5));
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
        // The clock is off in a disabled registry; the counts are not.
        let off = TelemetryRegistry::disabled();
        off.incr(Counter::QueriesServed);
        off.observe(Stage::QuerySolve, Duration::from_micros(5));
        let s = EngineStats::from_registry(&off);
        assert_eq!((s.queries, s.cache_misses), (1, 1));
        assert_eq!(s.query_time, Duration::ZERO);
    }

    #[test]
    fn derived_rates_handle_zero() {
        let s = EngineStats::default();
        assert_eq!(s.hit_rate(), 0.0);
        assert_eq!(s.avg_batch_time(), Duration::ZERO);
        let with_batches = EngineStats {
            batches_applied: 4,
            ingest_time: Duration::from_millis(8),
            ..EngineStats::default()
        };
        assert_eq!(with_batches.avg_batch_time(), Duration::from_millis(2));
        assert_eq!(s.frozen_row_share(), 0.0);
        let with_passes = EngineStats {
            frozen_rows_refactored: 9,
            frozen_block_rows: 200,
            ..EngineStats::default()
        };
        assert!((with_passes.frozen_row_share() - 0.045).abs() < 1e-12);
    }

    fn registry(n_shards: usize) -> TelemetryRegistry {
        TelemetryRegistry::with_shards(TelemetryConfig::default(), n_shards)
    }

    #[test]
    fn per_shard_counters_snapshot_and_render() {
        let t = registry(2);
        t.add_shard(1, ShardCounter::EntriesApplied, 5);
        t.add_shard(0, ShardCounter::CrossShardEdges, 2);
        t.add_shard(0, ShardCounter::Reorders, 1);
        t.add_shard(1, ShardCounter::Reorders, 2);
        t.incr(Counter::RefactorArm);
        let s = EngineStats::from_registry(&t);
        assert_eq!(s.per_shard.len(), 2);
        assert_eq!(s.per_shard[0].shard, 0);
        assert_eq!(s.per_shard[1].deltas_applied, 5);
        assert_eq!(s.per_shard[0].cross_shard_edges, 2);
        assert_eq!(s.per_shard[0].refreshes, 1);
        // The re-order count the shards sum to is derived, not counted.
        assert_eq!(s.arms, [1, 3]);
        let text = s.to_string();
        assert!(text.contains("shard   0"));
        assert!(text.contains("shard   1"));
        assert!(text.contains("cross-edges"));
        // A one-shard engine keeps the display compact.
        let mono = EngineStats::from_registry(&registry(1));
        assert!(!mono.to_string().contains("shard   0"));
    }

    #[test]
    fn display_renders_all_sections() {
        let s = EngineStats {
            ops_ingested: 100,
            queries: 10,
            cache_hits: 5,
            cache_misses: 5,
            ..EngineStats::default()
        };
        let text = s.to_string();
        assert!(text.contains("ingest"));
        assert!(text.contains("factors"));
        assert!(text.contains("hit-rate"));
        assert!(text.contains("50.0%"));
        assert!(text.contains("ring"));
        assert!(text.contains("cow-clones"));
        assert!(text.contains("coupling"));
    }

    #[test]
    fn coupling_line_reports_solver_and_drift() {
        let s = EngineStats {
            coupling_nnz: 345,
            coupling_sweeps_p50: 21,
            coupling_sweeps_max: 1417,
            ..EngineStats::default()
        };
        let text = s.to_string();
        assert!(text.contains("nnz      345"));
        assert!(text.contains("sweeps-p50   21"));
        assert!(text.contains("sweeps-max   1417"));
        // Raw counter snapshots (no engine fill-in) degrade gracefully.
        let raw = EngineStats::from_registry(&registry(0));
        assert!(raw.to_string().contains("sweeps-p50    0"));
    }

    #[test]
    fn ring_section_reports_sharing() {
        let t = registry(4);
        t.add(Counter::CowShardsCloned, 2);
        t.add(Counter::CowShardsShared, 6);
        let mut s = EngineStats::from_registry(&t);
        s.ring_depth = 3;
        s.resident_factor_bytes = 3 * 1024 * 1024 / 2;
        assert_eq!(s.cow_shards_cloned, 2);
        assert_eq!(s.cow_shards_shared, 6);
        assert!((s.cow_share_rate() - 0.75).abs() < 1e-12);
        let text = s.to_string();
        assert!(text.contains("depth        3"));
        assert!(text.contains("75.0%"));
        assert!(text.contains("1.5 MiB"));
        // No snapshots published yet: rate degrades to 0 instead of NaN.
        assert_eq!(EngineStats::default().cow_share_rate(), 0.0);
    }

    #[test]
    fn display_golden_render() {
        // Golden rendering of a fully-populated stats record: any format
        // drift in the ring / coupling / telemetry lines fails here first.
        let s = EngineStats {
            ops_ingested: 1000,
            ops_coalesced: 12,
            batches_applied: 16,
            refreshes: 1,
            bennett_rank_one_updates: 0,
            bennett_pivots: 0,
            arms: [59, 1],
            frozen_rows_refactored: 63,
            frozen_block_rows: 1_400,
            slots_added: 25,
            queries: 50,
            cache_hits: 20,
            cache_misses: 30,
            ingest_time: Duration::from_millis(125),
            refresh_time: Duration::from_millis(25),
            query_time: Duration::from_millis(80),
            cow_shards_cloned: 2,
            cow_shards_shared: 6,
            ring_depth: 3,
            resident_factor_bytes: 2048,
            coupling_nnz: 88,
            coupling_sweeps_p50: 19,
            coupling_sweeps_max: 23,
            telemetry_enabled: true,
            spans_recorded: 321,
            journal_events: 12,
            journal_dropped: 2,
            query_solve_p50: Duration::from_micros(950),
            query_solve_p99: Duration::from_millis(4),
            per_shard: Vec::new(),
        };
        let text = s.to_string();
        let lines: Vec<&str> = text.lines().map(str::trim_end).collect();
        assert_eq!(
            lines,
            vec![
                "ingest   | ops       1000  coalesced       12  batches      16  time  125.000ms",
                "factors  | refreshes    1  slots-added         25  refresh time   25.000ms",
                "arms     | refactor      59  re-order      1  refactor-rows   4.5%",
                "queries  | total       50  hits         20  misses       30  hit-rate  40.0%  solve time   80.000ms",
                "ring     | depth        3  cow-clones      2  shared        6  share-rate  75.0%  resident ~2.0 KiB",
                "coupling | nnz       88  sweeps-p50   19  sweeps-max     23",
                "telemetry | on   spans       321  journal     12 (dropped    2)  q-solve p50 950.000µs  p99   4.000ms",
            ]
        );
    }

    #[test]
    fn byte_formatting_picks_binary_units() {
        assert_eq!(format_bytes(0), "0 B");
        assert_eq!(format_bytes(512), "512 B");
        assert_eq!(format_bytes(2048), "2.0 KiB");
        assert_eq!(format_bytes(5 * 1024 * 1024), "5.0 MiB");
        assert_eq!(format_bytes(3 * 1024 * 1024 * 1024), "3.0 GiB");
    }
}
