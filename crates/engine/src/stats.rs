//! Engine operation counters.
//!
//! The batch solvers report their work through `clude::report::TimingBreakdown`;
//! this module is the streaming counterpart: lock-free counters incremented
//! on the ingest and query paths, snapshotted into an [`EngineStats`] record
//! whose `Display` prints the same style of breakdown table.

use crate::store::MaintenanceArm;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Lock-free per-shard counters of the partitioned ingest path.
#[derive(Debug, Default)]
pub struct ShardCounters {
    /// Changed matrix entries applied to this shard's factors.
    pub deltas_applied: AtomicU64,
    /// Bennett rank-one updates (sweeps) run on this shard.
    pub sweeps_run: AtomicU64,
    /// Cross-shard edge changes sourced from this shard's nodes.
    pub cross_shard_edges: AtomicU64,
    /// Refreshes (fresh ordering + factorization) of this shard's block.
    pub refreshes: AtomicU64,
}

impl ShardCounters {
    fn snapshot(&self, shard: usize) -> ShardStats {
        ShardStats {
            shard,
            deltas_applied: EngineCounters::load(&self.deltas_applied),
            sweeps_run: EngineCounters::load(&self.sweeps_run),
            cross_shard_edges: EngineCounters::load(&self.cross_shard_edges),
            refreshes: EngineCounters::load(&self.refreshes),
        }
    }
}

/// A point-in-time copy of one shard's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// The shard id.
    pub shard: usize,
    /// Changed matrix entries applied to this shard's factors.
    pub deltas_applied: u64,
    /// Bennett rank-one updates (sweeps) run on this shard.
    pub sweeps_run: u64,
    /// Cross-shard edge changes sourced from this shard's nodes.
    pub cross_shard_edges: u64,
    /// Refreshes of this shard's block.
    pub refreshes: u64,
}

/// Lock-free counters shared by the ingest and query paths.
#[derive(Debug, Default)]
pub struct EngineCounters {
    /// Edge operations accepted (including ones coalesced away).
    pub ops_ingested: AtomicU64,
    /// Edge operations dropped as no-ops (already-present inserts, absent
    /// removes, add/remove pairs cancelling inside one batch).
    pub ops_coalesced: AtomicU64,
    /// Delta batches applied to the factors (snapshot advances).
    pub batches_applied: AtomicU64,
    /// Full refreshes (fresh ordering + factorization).
    pub refreshes: AtomicU64,
    /// Bennett rank-one updates performed.
    pub bennett_rank_one_updates: AtomicU64,
    /// Bennett pivots visited.
    pub bennett_pivots: AtomicU64,
    /// Shard-batches absorbed by each maintenance arm, indexed by
    /// [`MaintenanceArm::index`].
    pub arms: [AtomicU64; MaintenanceArm::ALL.len()],
    /// Rows the frozen-pattern passes recomputed (their elimination reach).
    pub frozen_rows_refactored: AtomicU64,
    /// Rows of the blocks those passes ran on.
    pub frozen_block_rows: AtomicU64,
    /// Queries answered (hit or miss).
    pub queries: AtomicU64,
    /// Queries answered from the result cache.
    pub cache_hits: AtomicU64,
    /// Queries that had to solve.
    pub cache_misses: AtomicU64,
    /// Nanoseconds spent applying batches (Bennett + delta assembly,
    /// including batches that ended in a refresh).
    pub ingest_nanos: AtomicU64,
    /// Nanoseconds spent in batches that ended in a full refresh (a subset
    /// of `ingest_nanos`).
    pub refresh_nanos: AtomicU64,
    /// Nanoseconds spent solving queries (cache misses only).
    pub query_nanos: AtomicU64,
    /// Shard factor blocks cloned (re-frozen) for a new snapshot because the
    /// batch touched them — the "copy" side of the copy-on-write ring.
    pub cow_shards_cloned: AtomicU64,
    /// Shard factor blocks shared with the previous snapshot because the
    /// batch left them untouched — the "write-free" side of the ring.
    pub cow_shards_shared: AtomicU64,
    /// Adaptive re-partitions: batches whose coupling growth crossed the
    /// budget and triggered a fresh edge-locality partition.
    pub repartitions: AtomicU64,
    /// Per-shard ingest counters, one entry per factor shard the store was
    /// constructed with.  Sized once: a coarsening repartition can only
    /// shrink the store's shard count, so every later shard id still indexes
    /// in range and the retired ids' tallies simply stop moving.
    pub per_shard: Vec<ShardCounters>,
}

impl EngineCounters {
    /// Counters for an engine whose factor store has `n_shards` shards.
    pub fn with_shards(n_shards: usize) -> Self {
        EngineCounters {
            per_shard: (0..n_shards).map(|_| ShardCounters::default()).collect(),
            ..EngineCounters::default()
        }
    }

    // Relaxed-ordering policy: every counter in this module is an independent
    // monotonic event tally read only for human-facing stats. No load or
    // store synchronises other memory, and cross-counter consistency is
    // explicitly not promised (`snapshot` is "consistent enough"), so all
    // atomic traffic funnels through these four helpers with `Relaxed`.

    /// Adds `d` to a duration counter.
    pub fn add_nanos(counter: &AtomicU64, d: Duration) {
        // lint: allow(atomic-ordering) — independent monotonic tally; see
        // the relaxed-ordering policy note above.
        counter.fetch_add(d.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Increments a counter by one.
    pub fn bump(counter: &AtomicU64) {
        // lint: allow(atomic-ordering) — independent monotonic tally; see
        // the relaxed-ordering policy note above.
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `v` to a counter.
    pub fn add(counter: &AtomicU64, v: u64) {
        // lint: allow(atomic-ordering) — independent monotonic tally; see
        // the relaxed-ordering policy note above.
        counter.fetch_add(v, Ordering::Relaxed);
    }

    /// Reads a counter for a stats snapshot.
    pub fn load(counter: &AtomicU64) -> u64 {
        // lint: allow(atomic-ordering) — independent monotonic tally; see
        // the relaxed-ordering policy note above.
        counter.load(Ordering::Relaxed)
    }

    /// Takes a consistent-enough snapshot of all counters.
    pub fn snapshot(&self) -> EngineStats {
        EngineStats {
            per_shard: self
                .per_shard
                .iter()
                .enumerate()
                .map(|(s, c)| c.snapshot(s))
                .collect(),
            ops_ingested: Self::load(&self.ops_ingested),
            ops_coalesced: Self::load(&self.ops_coalesced),
            batches_applied: Self::load(&self.batches_applied),
            refreshes: Self::load(&self.refreshes),
            bennett_rank_one_updates: Self::load(&self.bennett_rank_one_updates),
            bennett_pivots: Self::load(&self.bennett_pivots),
            arms: MaintenanceArm::ALL.map(|arm| Self::load(&self.arms[arm.index()])),
            frozen_rows_refactored: Self::load(&self.frozen_rows_refactored),
            frozen_block_rows: Self::load(&self.frozen_block_rows),
            queries: Self::load(&self.queries),
            cache_hits: Self::load(&self.cache_hits),
            cache_misses: Self::load(&self.cache_misses),
            ingest_time: Duration::from_nanos(Self::load(&self.ingest_nanos)),
            refresh_time: Duration::from_nanos(Self::load(&self.refresh_nanos)),
            query_time: Duration::from_nanos(Self::load(&self.query_nanos)),
            cow_shards_cloned: Self::load(&self.cow_shards_cloned),
            cow_shards_shared: Self::load(&self.cow_shards_shared),
            repartitions: Self::load(&self.repartitions),
            // Ring occupancy and the coupling view live outside the
            // counters; `CludeEngine::stats` fills these in from the live
            // ring and the newest snapshot.
            ring_depth: 0,
            resident_factor_bytes: 0,
            coupling_nnz: 0,
            coupling_sweeps_p50: 0,
            coupling_sweeps_max: 0,
            telemetry_enabled: false,
            spans_recorded: 0,
            journal_events: 0,
            journal_dropped: 0,
            query_solve_p50: Duration::ZERO,
            query_solve_p99: Duration::ZERO,
        }
    }
}

/// A point-in-time copy of the engine counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Edge operations accepted.
    pub ops_ingested: u64,
    /// Edge operations coalesced away as no-ops.
    pub ops_coalesced: u64,
    /// Delta batches applied (snapshot advances).
    pub batches_applied: u64,
    /// Full refreshes performed.
    pub refreshes: u64,
    /// Bennett rank-one updates performed.
    pub bennett_rank_one_updates: u64,
    /// Bennett pivots visited.
    pub bennett_pivots: u64,
    /// Shard-batches absorbed by each maintenance arm, indexed by
    /// [`MaintenanceArm::index`] (see [`EngineStats::arm_count`]): how the
    /// one maintenance decision split the write path.
    pub arms: [u64; MaintenanceArm::ALL.len()],
    /// Rows the frozen-pattern passes recomputed — the elimination reach of
    /// their slices' changed rows (see [`EngineStats::frozen_row_share`]).
    pub frozen_rows_refactored: u64,
    /// Rows of the blocks those passes ran on.
    pub frozen_block_rows: u64,
    /// Queries answered.
    pub queries: u64,
    /// Cache hits among them.
    pub cache_hits: u64,
    /// Cache misses among them.
    pub cache_misses: u64,
    /// Wall-clock spent applying batches (refresh-ending ones included).
    pub ingest_time: Duration,
    /// Wall-clock of the batches that ended in a refresh (subset of
    /// `ingest_time`).
    pub refresh_time: Duration,
    /// Wall-clock spent solving queries.
    pub query_time: Duration,
    /// Shard factor blocks cloned (re-frozen) across all published snapshots
    /// because their shard was swept or refreshed.
    pub cow_shards_cloned: u64,
    /// Shard factor blocks shared with the previous snapshot across all
    /// published snapshots (untouched shards).
    pub cow_shards_shared: u64,
    /// Snapshots currently retained in the time-travel ring (filled in by
    /// `CludeEngine::stats`; 0 when the stats came straight from counters).
    pub ring_depth: u64,
    /// Approximate bytes of factor blocks plus frozen couplings resident
    /// across the ring, counting each shared handle once (filled in by
    /// `CludeEngine::stats`).
    pub resident_factor_bytes: u64,
    /// Adaptive re-partitions triggered by coupling growth.
    pub repartitions: u64,
    /// Cross-shard coupling entries of the newest snapshot — the number to
    /// watch for dense-coupling drift (filled in by `CludeEngine::stats`).
    pub coupling_nnz: u64,
    /// Median block passes per coupled right-hand side — the residual pass,
    /// the Arnoldi steps and the accepting pass of the Krylov iteration —
    /// from the telemetry registry's histogram (filled in by
    /// `CludeEngine::stats`; 0 with telemetry off or before the first
    /// coupled solve).
    pub coupling_sweeps_p50: u64,
    /// Most block passes any coupled right-hand side needed (filled in by
    /// `CludeEngine::stats`).
    pub coupling_sweeps_max: u64,
    /// Whether the engine's telemetry registry is recording (filled in by
    /// `CludeEngine::stats`).
    pub telemetry_enabled: bool,
    /// Total timed-span observations across all stage histograms (filled in
    /// by `CludeEngine::stats`).
    pub spans_recorded: u64,
    /// Structured journal events recorded (filled in by
    /// `CludeEngine::stats`).
    pub journal_events: u64,
    /// Journal events shed by the bounded ring (filled in by
    /// `CludeEngine::stats`).
    pub journal_dropped: u64,
    /// Median `query.solve` stage latency (filled in by
    /// `CludeEngine::stats`).
    pub query_solve_p50: Duration,
    /// 99th-percentile `query.solve` stage latency (filled in by
    /// `CludeEngine::stats`).
    pub query_solve_p99: Duration,
    /// Per-shard ingest breakdown, indexed by shard id.
    pub per_shard: Vec<ShardStats>,
}

impl EngineStats {
    /// Cache hit rate in `[0, 1]` (0 when no queries ran).
    pub fn hit_rate(&self) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.queries as f64
        }
    }

    /// Shard-batches `arm` absorbed (a guard-failure fallback counts as the
    /// re-order it ended in).
    pub fn arm_count(&self, arm: MaintenanceArm) -> u64 {
        self.arms[arm.index()]
    }

    /// Share of their blocks' rows the frozen-pattern passes recomputed, in
    /// `[0, 1]` (0 before the first pass): 1 when every pass was a full one,
    /// the elimination reach's share of the block when the passes ran over
    /// structures closed under elimination.
    pub fn frozen_row_share(&self) -> f64 {
        if self.frozen_block_rows == 0 {
            0.0
        } else {
            self.frozen_rows_refactored as f64 / self.frozen_block_rows as f64
        }
    }

    /// Average wall-clock per applied batch.
    pub fn avg_batch_time(&self) -> Duration {
        if self.batches_applied == 0 {
            Duration::ZERO
        } else {
            self.ingest_time / self.batches_applied as u32
        }
    }

    /// Fraction of per-snapshot shard blocks served by sharing instead of
    /// cloning, in `[0, 1]` (0 when no snapshot was published).  `1 − rate`
    /// is the fraction of the old full-clone cost the ring still pays.
    pub fn cow_share_rate(&self) -> f64 {
        let total = self.cow_shards_cloned + self.cow_shards_shared;
        if total == 0 {
            0.0
        } else {
            self.cow_shards_shared as f64 / total as f64
        }
    }
}

/// Renders a byte count with a binary-unit suffix (`4.2 MiB`), for the
/// resident-memory line of the stats display.
fn format_bytes(bytes: u64) -> String {
    const UNITS: [&str; 4] = ["B", "KiB", "MiB", "GiB"];
    let mut value = bytes as f64;
    let mut unit = 0;
    while value >= 1024.0 && unit + 1 < UNITS.len() {
        value /= 1024.0;
        unit += 1;
    }
    if unit == 0 {
        format!("{bytes} B")
    } else {
        format!("{value:.1} {}", UNITS[unit])
    }
}

impl fmt::Display for EngineStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "ingest   | ops {:>10}  coalesced {:>8}  batches {:>7}  time {:>10.3?}",
            self.ops_ingested, self.ops_coalesced, self.batches_applied, self.ingest_time
        )?;
        writeln!(
            f,
            "factors  | refreshes {:>4}  rank-1 {:>10}  pivots {:>10}  refresh time {:>10.3?}",
            self.refreshes, self.bennett_rank_one_updates, self.bennett_pivots, self.refresh_time
        )?;
        writeln!(
            f,
            "arms     | sweep {:>8}  refactor {:>7}  rebuild {:>7}  re-order {:>6}  refactor-rows {:>5.1}%",
            self.arm_count(MaintenanceArm::BennettSweep),
            self.arm_count(MaintenanceArm::FrozenRefactor),
            self.arm_count(MaintenanceArm::Rebuild),
            self.arm_count(MaintenanceArm::Reorder),
            100.0 * self.frozen_row_share()
        )?;
        writeln!(
            f,
            "queries  | total {:>8}  hits {:>10}  misses {:>8}  hit-rate {:>5.1}%  solve time {:>10.3?}",
            self.queries,
            self.cache_hits,
            self.cache_misses,
            100.0 * self.hit_rate(),
            self.query_time
        )?;
        writeln!(
            f,
            "ring     | depth {:>8}  cow-clones {:>6}  shared {:>8}  share-rate {:>5.1}%  resident ~{}",
            self.ring_depth,
            self.cow_shards_cloned,
            self.cow_shards_shared,
            100.0 * self.cow_share_rate(),
            format_bytes(self.resident_factor_bytes)
        )?;
        write!(
            f,
            "coupling | nnz {:>8}  sweeps-p50 {:>4}  repartitions {:>4}  sweeps-max {:>6}",
            self.coupling_nnz,
            self.coupling_sweeps_p50,
            self.repartitions,
            self.coupling_sweeps_max
        )?;
        write!(
            f,
            "\ntelemetry | {}  spans {:>9}  journal {:>6} (dropped {:>4})  q-solve p50 {:>9.3?}  p99 {:>9.3?}",
            if self.telemetry_enabled { "on " } else { "off" },
            self.spans_recorded,
            self.journal_events,
            self.journal_dropped,
            self.query_solve_p50,
            self.query_solve_p99
        )?;
        if self.per_shard.len() > 1 {
            for s in &self.per_shard {
                write!(
                    f,
                    "\nshard {:>3} | deltas {:>10}  sweeps {:>10}  cross-edges {:>8}  refreshes {:>4}",
                    s.shard, s.deltas_applied, s.sweeps_run, s.cross_shard_edges, s.refreshes
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_counters() {
        let c = EngineCounters::default();
        EngineCounters::bump(&c.queries);
        EngineCounters::bump(&c.queries);
        EngineCounters::bump(&c.cache_hits);
        EngineCounters::add_nanos(&c.query_nanos, Duration::from_micros(5));
        let s = c.snapshot();
        assert_eq!(s.queries, 2);
        assert_eq!(s.cache_hits, 1);
        assert_eq!(s.query_time, Duration::from_micros(5));
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
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

    #[test]
    fn per_shard_counters_snapshot_and_render() {
        let c = EngineCounters::with_shards(2);
        EngineCounters::add(&c.per_shard[1].deltas_applied, 5);
        EngineCounters::add(&c.per_shard[1].sweeps_run, 3);
        EngineCounters::add(&c.per_shard[0].cross_shard_edges, 2);
        EngineCounters::bump(&c.per_shard[0].refreshes);
        let s = c.snapshot();
        assert_eq!(s.per_shard.len(), 2);
        assert_eq!(s.per_shard[0].shard, 0);
        assert_eq!(s.per_shard[1].deltas_applied, 5);
        assert_eq!(s.per_shard[1].sweeps_run, 3);
        assert_eq!(s.per_shard[0].cross_shard_edges, 2);
        assert_eq!(s.per_shard[0].refreshes, 1);
        let text = s.to_string();
        assert!(text.contains("shard   0"));
        assert!(text.contains("shard   1"));
        assert!(text.contains("cross-edges"));
        // A one-shard engine keeps the display compact.
        let mono = EngineCounters::with_shards(1).snapshot();
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
            repartitions: 2,
            coupling_nnz: 345,
            coupling_sweeps_p50: 21,
            coupling_sweeps_max: 1417,
            ..EngineStats::default()
        };
        let text = s.to_string();
        assert!(text.contains("nnz      345"));
        assert!(text.contains("sweeps-p50   21"));
        assert!(text.contains("repartitions    2"));
        assert!(text.contains("sweeps-max   1417"));
        // Raw counter snapshots (no engine fill-in) degrade gracefully.
        let raw = EngineCounters::default().snapshot();
        assert!(raw.to_string().contains("sweeps-p50    0"));
    }

    #[test]
    fn ring_section_reports_sharing() {
        let c = EngineCounters::with_shards(4);
        EngineCounters::add(&c.cow_shards_cloned, 2);
        EngineCounters::add(&c.cow_shards_shared, 6);
        let mut s = c.snapshot();
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
            bennett_rank_one_updates: 420,
            bennett_pivots: 9000,
            arms: [40, 7, 12, 1],
            frozen_rows_refactored: 63,
            frozen_block_rows: 1_400,
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
            repartitions: 1,
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
                "factors  | refreshes    1  rank-1        420  pivots       9000  refresh time   25.000ms",
                "arms     | sweep       40  refactor       7  rebuild      12  re-order      1  refactor-rows   4.5%",
                "queries  | total       50  hits         20  misses       30  hit-rate  40.0%  solve time   80.000ms",
                "ring     | depth        3  cow-clones      2  shared        6  share-rate  75.0%  resident ~2.0 KiB",
                "coupling | nnz       88  sweeps-p50   19  repartitions    1  sweeps-max     23",
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
