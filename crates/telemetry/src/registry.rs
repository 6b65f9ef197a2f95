//! The registry tying stages, counters, gauges and the journal together,
//! plus the Prometheus / JSON exposition.

use crate::hist::LogHistogram;
use crate::journal::{EngineEvent, EventJournal, EventKind};
use crate::stage::Stage;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::{Duration, Instant};

/// How a [`TelemetryRegistry`] behaves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// When false, spans never read the clock, and the stage and block-pass
    /// histograms and the event journal record nothing — each is a single
    /// branch.  Counters and gauges record either way: a relaxed add is what
    /// the engine's statistics are built from.
    pub enabled: bool,
    /// Entries the event journal retains (counts are kept regardless).
    pub journal_capacity: usize,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            enabled: true,
            journal_capacity: 256,
        }
    }
}

impl TelemetryConfig {
    /// A configuration that stops the clock and the journal; counters and
    /// gauges still record.
    pub const fn disabled() -> Self {
        TelemetryConfig {
            enabled: false,
            journal_capacity: 0,
        }
    }
}

/// A monotonic event counter, exposed as `clude_<name>_total`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Counter {
    /// Edge operations offered to the ingestor.
    OpsIngested,
    /// Batches applied to the factor store.
    BatchesApplied,
    /// Measure queries served (hits + misses).
    QueriesServed,
    /// Queries answered from the LRU cache.
    CacheHits,
    /// LRU entries evicted to make room.
    CacheEvictions,
    /// Coupling solves that failed: their block-pass budget exhausted, or a
    /// non-finite value in the iteration.
    ConvergenceFailures,
    /// Rows the frozen-pattern refactorizations recomputed (their
    /// elimination reach).
    FrozenRowsRefactored,
    /// Rows of the blocks those passes ran on: divided into
    /// [`Counter::FrozenRowsRefactored`], the share of a block a value-only
    /// batch costs.
    FrozenBlockRows,
    /// Factor slots the sweeps' structure extensions added: each extended
    /// copy's slots minus those of the block it extended.
    SlotsAdded,
    /// Edge operations dropped as no-ops: inserts of present edges or
    /// self-loops, absent removes, add/remove pairs cancelling inside one
    /// batch.
    OpsCoalesced,
    /// Batches in which at least one shard re-ordered.
    BatchesReordered,
    /// Bennett pivots visited.
    BennettPivots,
    /// Shard-batches absorbed by Bennett sweeps.
    SweepArm,
    /// Shard-batches absorbed by a frozen-pattern pass.
    RefactorArm,
    /// Shard-batches absorbed by a rebuild under the held ordering (the
    /// re-order arm is the sum of [`ShardCounter::Reorders`]).
    RebuildArm,
    /// Shard factor blocks re-frozen for a new snapshot because the batch
    /// touched them — the "copy" side of the copy-on-write ring.
    CowShardsCloned,
    /// Shard factor blocks a new snapshot shared with the previous one.
    CowShardsShared,
    /// Adaptive re-partitions triggered by coupling growth.
    Repartitions,
}

impl Counter {
    /// Every counter, in exposition order.
    pub const ALL: [Counter; 18] = [
        Counter::OpsIngested,
        Counter::BatchesApplied,
        Counter::QueriesServed,
        Counter::CacheHits,
        Counter::CacheEvictions,
        Counter::ConvergenceFailures,
        Counter::FrozenRowsRefactored,
        Counter::FrozenBlockRows,
        Counter::SlotsAdded,
        Counter::OpsCoalesced,
        Counter::BatchesReordered,
        Counter::BennettPivots,
        Counter::SweepArm,
        Counter::RefactorArm,
        Counter::RebuildArm,
        Counter::CowShardsCloned,
        Counter::CowShardsShared,
        Counter::Repartitions,
    ];

    /// Short snake_case name (JSON key).
    pub const fn name(self) -> &'static str {
        match self {
            Counter::OpsIngested => "ops_ingested",
            Counter::BatchesApplied => "batches_applied",
            Counter::QueriesServed => "queries_served",
            Counter::CacheHits => "cache_hits",
            Counter::CacheEvictions => "cache_evictions",
            Counter::ConvergenceFailures => "convergence_failures",
            Counter::FrozenRowsRefactored => "frozen_rows_refactored",
            Counter::FrozenBlockRows => "frozen_block_rows",
            Counter::SlotsAdded => "slots_added",
            Counter::OpsCoalesced => "ops_coalesced",
            Counter::BatchesReordered => "batches_reordered",
            Counter::BennettPivots => "bennett_pivots",
            Counter::SweepArm => "arm_sweep",
            Counter::RefactorArm => "arm_refactor",
            Counter::RebuildArm => "arm_rebuild",
            Counter::CowShardsCloned => "cow_shards_cloned",
            Counter::CowShardsShared => "cow_shards_shared",
            Counter::Repartitions => "repartitions",
        }
    }
}

/// A monotonic per-shard counter, exposed as
/// `clude_shard_<name>_total{shard="i"}`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShardCounter {
    /// Changed matrix entries applied to the shard's factors.
    EntriesApplied,
    /// Bennett rank-one updates run on the shard.
    Sweeps,
    /// Cross-shard edge changes sourced from the shard's nodes.
    CrossShardEdges,
    /// Re-orders (fresh ordering + factorization) of the shard's block.
    Reorders,
}

impl ShardCounter {
    /// Every per-shard counter, in exposition order.
    pub const ALL: [ShardCounter; 4] = [
        ShardCounter::EntriesApplied,
        ShardCounter::Sweeps,
        ShardCounter::CrossShardEdges,
        ShardCounter::Reorders,
    ];

    /// Short snake_case name (JSON key).
    pub const fn name(self) -> &'static str {
        match self {
            ShardCounter::EntriesApplied => "entries_applied",
            ShardCounter::Sweeps => "sweeps",
            ShardCounter::CrossShardEdges => "cross_shard_edges",
            ShardCounter::Reorders => "reorders",
        }
    }
}

/// A sampled gauge (last written value wins), exposed as `clude_<name>`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Gauge {
    /// Entries in the live cross-shard coupling store.
    CouplingNnz,
    /// Approximate factor bytes resident across the snapshot ring
    /// (shared handles counted once).
    ResidentFactorBytes,
    /// Snapshots currently retained in the ring.
    RingDepth,
}

impl Gauge {
    /// Every gauge, in exposition order.
    pub const ALL: [Gauge; 3] = [
        Gauge::CouplingNnz,
        Gauge::ResidentFactorBytes,
        Gauge::RingDepth,
    ];

    /// Short snake_case name (JSON key).
    pub const fn name(self) -> &'static str {
        match self {
            Gauge::CouplingNnz => "coupling_nnz",
            Gauge::ResidentFactorBytes => "resident_factor_bytes",
            Gauge::RingDepth => "ring_depth",
        }
    }
}

/// The engine-wide telemetry sink: one duration histogram per [`Stage`],
/// the coupled-solve block-pass histogram, the counters and per-shard
/// counters, the gauges, and the event journal.
///
/// All recording goes through `&self` with relaxed atomics (the journal's
/// rare events take a mutex), so one registry sits behind an `Arc` shared by
/// the ingest thread, the shard sweep threads, and every query reader.
/// Counters are independent monotonic tallies: no read or write of one
/// synchronises other memory, and a reader sees each counter on its own, so
/// cross-counter consistency is not promised.
#[derive(Debug)]
pub struct TelemetryRegistry {
    config: TelemetryConfig,
    stages: [LogHistogram; Stage::COUNT],
    /// Block passes per coupled right-hand side (a count, not a duration —
    /// the one histogram that is not a stage).
    coupling_sweeps: LogHistogram,
    counters: [AtomicU64; Counter::ALL.len()],
    /// One row of [`ShardCounter`]s per shard the registry was sized for.
    shards: Box<[[AtomicU64; ShardCounter::ALL.len()]]>,
    gauges: [AtomicU64; Gauge::ALL.len()],
    journal: EventJournal,
}

impl Default for TelemetryRegistry {
    fn default() -> Self {
        Self::new(TelemetryConfig::default())
    }
}

impl TelemetryRegistry {
    /// A registry with the given behavior and no per-shard counters.
    pub fn new(config: TelemetryConfig) -> Self {
        Self::with_shards(config, 0)
    }

    /// A registry with the given behavior and a row of per-shard counters
    /// for each of `n_shards` shards.  The count is fixed for the registry's
    /// life: an engine's shard count can only shrink, so every later shard id
    /// stays in range and a retired id's row simply stops moving.
    pub fn with_shards(config: TelemetryConfig, n_shards: usize) -> Self {
        TelemetryRegistry {
            config,
            stages: [const { LogHistogram::new() }; Stage::COUNT],
            coupling_sweeps: LogHistogram::new(),
            counters: [const { AtomicU64::new(0) }; Counter::ALL.len()],
            shards: (0..n_shards)
                .map(|_| [const { AtomicU64::new(0) }; ShardCounter::ALL.len()])
                .collect(),
            gauges: [const { AtomicU64::new(0) }; Gauge::ALL.len()],
            journal: EventJournal::new(config.journal_capacity),
        }
    }

    /// A registry that stops the clock and the journal (see
    /// [`TelemetryConfig::disabled`]).
    pub fn disabled() -> Self {
        Self::new(TelemetryConfig::disabled())
    }

    /// Whether recording is live.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.config.enabled
    }

    /// The configuration this registry was built with.
    pub fn config(&self) -> TelemetryConfig {
        self.config
    }

    /// Starts a RAII span that records its elapsed time into `stage`'s
    /// histogram when dropped. Disabled registries hand out inert spans
    /// that never read the clock.
    #[inline]
    #[must_use = "a span records on drop; dropping it immediately measures nothing"]
    pub fn span(&self, stage: Stage) -> Span<'_> {
        Span {
            registry: self,
            stage,
            start: if self.config.enabled {
                Some(Instant::now())
            } else {
                None
            },
        }
    }

    /// Records an already-measured duration into `stage`'s histogram.
    #[inline]
    pub fn observe(&self, stage: Stage, elapsed: Duration) {
        if self.config.enabled {
            self.stages[stage.index()].record_duration(elapsed);
        }
    }

    /// Records a raw nanosecond sample into `stage`'s histogram.
    #[inline]
    pub fn observe_ns(&self, stage: Stage, nanos: u64) {
        if self.config.enabled {
            self.stages[stage.index()].record(nanos);
        }
    }

    /// The histogram backing `stage` (records even when the registry is
    /// disabled — use [`Self::observe`] for gated recording).
    pub fn stage_histogram(&self, stage: Stage) -> &LogHistogram {
        &self.stages[stage.index()]
    }

    /// Records the number of block passes — the residual pass, the Arnoldi
    /// steps and the accepting pass — after which one right-hand side of a
    /// coupled solve was accepted (one sample per solved column, never per
    /// pass).
    #[inline]
    pub fn observe_coupling_sweeps(&self, sweeps: u64) {
        if self.config.enabled {
            self.coupling_sweeps.record(sweeps);
        }
    }

    /// Block passes to acceptance of every coupled right-hand side solved so
    /// far.
    pub fn coupling_sweeps(&self) -> &LogHistogram {
        &self.coupling_sweeps
    }

    /// Increments `counter` by one.
    #[inline]
    pub fn incr(&self, counter: Counter) {
        self.add(counter, 1);
    }

    /// Increments `counter` by `n`, whether or not the registry is enabled.
    #[inline]
    pub fn add(&self, counter: Counter, n: u64) {
        tally(&self.counters[counter as usize], n);
    }

    /// The current value of `counter`.
    pub fn counter(&self, counter: Counter) -> u64 {
        read(&self.counters[counter as usize])
    }

    /// Increments `shard`'s `counter` by `n`, whether or not the registry is
    /// enabled.
    ///
    /// # Panics
    /// Panics when `shard` is not below the count the registry was sized
    /// for ([`Self::with_shards`]).
    #[inline]
    pub fn add_shard(&self, shard: usize, counter: ShardCounter, n: u64) {
        tally(&self.shards[shard][counter as usize], n);
    }

    /// The current value of `shard`'s `counter`.
    pub fn shard_counter(&self, shard: usize, counter: ShardCounter) -> u64 {
        read(&self.shards[shard][counter as usize])
    }

    /// Shards the per-shard counters were sized for.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// Sets `gauge` to `value`, whether or not the registry is enabled.
    #[inline]
    pub fn set_gauge(&self, gauge: Gauge, value: u64) {
        // lint: allow(atomic-ordering) — last-writer-wins gauge for
        // exposition; readers tolerate any interleaving.
        self.gauges[gauge as usize].store(value, Relaxed);
    }

    /// The last value written to `gauge`.
    pub fn gauge(&self, gauge: Gauge) -> u64 {
        read(&self.gauges[gauge as usize])
    }

    /// Appends a structured event to the journal.
    #[inline]
    pub fn record_event(&self, event: EngineEvent) {
        if self.config.enabled {
            self.journal.record(event);
        }
    }

    /// The structured event journal.
    pub fn journal(&self) -> &EventJournal {
        &self.journal
    }

    /// Total span observations recorded across all stages.
    pub fn spans_recorded(&self) -> u64 {
        Stage::ALL
            .iter()
            .map(|s| self.stages[s.index()].count())
            .sum()
    }

    /// Renders every series in the Prometheus text exposition format.
    ///
    /// Stage histograms render as summary families in seconds
    /// (`clude_<stage>_duration_seconds{quantile="..."}` plus `_sum` /
    /// `_count`), the block-pass histogram as the unitless summary
    /// `clude_coupling_sweeps`, counters as `_total` series, per-shard
    /// counters as `{shard="i"}`-labelled `_total` series, gauges plainly,
    /// and journal per-kind counts as
    /// `clude_journal_events_total{event="..."}`.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::with_capacity(4096);
        for stage in Stage::ALL {
            push_summary(
                &mut out,
                &format!("{}_duration_seconds", stage.metric()),
                &format!("Latency of engine stage {}.", stage.name()),
                &self.stages[stage.index()],
                secs,
            );
        }
        push_summary(
            &mut out,
            "clude_coupling_sweeps",
            "Block passes per coupled right-hand side.",
            &self.coupling_sweeps,
            |sweeps| sweeps.to_string(),
        );
        for counter in Counter::ALL {
            let name = counter.name();
            let metric = format!("clude_{name}_total");
            out.push_str(&format!("# HELP {metric} Engine counter {name}.\n"));
            out.push_str(&format!("# TYPE {metric} counter\n"));
            out.push_str(&format!("{metric} {}\n", self.counter(counter)));
        }
        for counter in ShardCounter::ALL {
            let name = counter.name();
            let metric = format!("clude_shard_{name}_total");
            out.push_str(&format!("# HELP {metric} Per-shard counter {name}.\n"));
            out.push_str(&format!("# TYPE {metric} counter\n"));
            for shard in 0..self.n_shards() {
                out.push_str(&format!(
                    "{metric}{{shard=\"{shard}\"}} {}\n",
                    self.shard_counter(shard, counter)
                ));
            }
        }
        for gauge in Gauge::ALL {
            let name = gauge.name();
            let metric = format!("clude_{name}");
            out.push_str(&format!("# HELP {metric} Engine gauge {name}.\n"));
            out.push_str(&format!("# TYPE {metric} gauge\n"));
            out.push_str(&format!("{metric} {}\n", self.gauge(gauge)));
        }
        out.push_str("# HELP clude_journal_events_total Structured journal events by kind.\n");
        out.push_str("# TYPE clude_journal_events_total counter\n");
        for kind in EventKind::ALL {
            out.push_str(&format!(
                "clude_journal_events_total{{event=\"{}\"}} {}\n",
                kind.name(),
                self.journal.count_of(kind)
            ));
        }
        out.push_str(
            "# HELP clude_journal_events_dropped_total Journal events shed by the ring.\n",
        );
        out.push_str("# TYPE clude_journal_events_dropped_total counter\n");
        out.push_str(&format!(
            "clude_journal_events_dropped_total {}\n",
            self.journal.dropped()
        ));
        out
    }

    /// Renders the full registry state as a JSON document (stage quantiles
    /// in nanoseconds, journal entries with typed payloads).
    pub fn render_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\n");
        out.push_str(&format!("  \"enabled\": {},\n", self.config.enabled));
        out.push_str("  \"stages\": {\n");
        for (i, stage) in Stage::ALL.iter().enumerate() {
            let h = &self.stages[stage.index()];
            out.push_str(&format!(
                "    \"{}\": {{\"count\": {}, \"sum_ns\": {}, \"max_ns\": {}, \
                 \"p50_ns\": {}, \"p90_ns\": {}, \"p99_ns\": {}}}{}\n",
                stage.name(),
                h.count(),
                h.sum(),
                h.max(),
                h.value_at_quantile(0.5),
                h.value_at_quantile(0.9),
                h.value_at_quantile(0.99),
                comma(i, Stage::COUNT)
            ));
        }
        let sweeps = &self.coupling_sweeps;
        out.push_str(&format!(
            "  }},\n  \"coupling_sweeps\": {{\"count\": {}, \"sum\": {}, \"max\": {}, \
             \"p50\": {}, \"p90\": {}, \"p99\": {}}},\n  \"counters\": {{",
            sweeps.count(),
            sweeps.sum(),
            sweeps.max(),
            sweeps.value_at_quantile(0.5),
            sweeps.value_at_quantile(0.9),
            sweeps.value_at_quantile(0.99),
        ));
        for (i, counter) in Counter::ALL.iter().enumerate() {
            out.push_str(&format!(
                "\"{}\": {}{}",
                counter.name(),
                self.counter(*counter),
                comma(i, Counter::ALL.len())
            ));
        }
        out.push_str("},\n  \"shards\": [");
        for shard in 0..self.n_shards() {
            out.push_str(&format!("{{\"shard\": {shard}"));
            for counter in ShardCounter::ALL {
                let value = self.shard_counter(shard, counter);
                out.push_str(&format!(", \"{}\": {value}", counter.name()));
            }
            out.push_str(&format!("}}{}", comma(shard, self.n_shards())));
        }
        out.push_str("],\n  \"gauges\": {");
        for (i, gauge) in Gauge::ALL.iter().enumerate() {
            out.push_str(&format!(
                "\"{}\": {}{}",
                gauge.name(),
                self.gauge(*gauge),
                comma(i, Gauge::ALL.len())
            ));
        }
        out.push_str("},\n  \"journal\": {\n");
        out.push_str(&format!(
            "    \"recorded\": {}, \"dropped\": {},\n",
            self.journal.recorded(),
            self.journal.dropped()
        ));
        let entries = self.journal.entries();
        out.push_str("    \"events\": [\n");
        for (i, entry) in entries.iter().enumerate() {
            out.push_str(&format!(
                "      {}{}\n",
                event_json(entry.seq, &entry.event),
                comma(i, entries.len())
            ));
        }
        out.push_str("    ]\n  }\n}\n");
        out
    }
}

/// One histogram as a Prometheus summary family: p50 / p90 / p99 / max, then
/// `_sum` and `_count`, every value rendered by `unit`.
fn push_summary(
    out: &mut String,
    family: &str,
    help: &str,
    h: &LogHistogram,
    unit: fn(u64) -> String,
) {
    out.push_str(&format!("# HELP {family} {help}\n"));
    out.push_str(&format!("# TYPE {family} summary\n"));
    for (label, q) in [("0.5", 0.5), ("0.9", 0.9), ("0.99", 0.99)] {
        out.push_str(&format!(
            "{family}{{quantile=\"{label}\"}} {}\n",
            unit(h.value_at_quantile(q))
        ));
    }
    out.push_str(&format!("{family}{{quantile=\"1\"}} {}\n", unit(h.max())));
    out.push_str(&format!("{family}_sum {}\n", unit(h.sum())));
    out.push_str(&format!("{family}_count {}\n", h.count()));
}

/// Adds `n` to a counter cell.
#[inline]
fn tally(cell: &AtomicU64, n: u64) {
    // lint: allow(atomic-ordering) — counters are independent monotonic
    // tallies; they synchronise nothing.
    cell.fetch_add(n, Relaxed);
}

/// Reads a counter or gauge cell for exposition.
fn read(cell: &AtomicU64) -> u64 {
    // lint: allow(atomic-ordering) — exposition read of an independent cell;
    // cross-cell consistency is not promised.
    cell.load(Relaxed)
}

/// Nanoseconds rendered as fixed-point seconds.
fn secs(nanos: u64) -> String {
    format!("{:.9}", nanos as f64 * 1e-9)
}

fn comma(i: usize, len: usize) -> &'static str {
    if i + 1 < len {
        ","
    } else {
        ""
    }
}

/// A JSON number for `v`, with non-finite values mapped to `null`.
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        // `{:e}` keeps tiny residuals readable; JSON accepts the exponent.
        format!("{v:e}")
    } else {
        "null".to_string()
    }
}

fn event_json(seq: u64, event: &EngineEvent) -> String {
    let kind = event.kind().name();
    match event {
        EngineEvent::Repartitioned {
            coupling_nnz_before,
            coupling_nnz_after,
        } => format!(
            "{{\"seq\": {seq}, \"kind\": \"{kind}\", \"coupling_nnz_before\": {coupling_nnz_before}, \
             \"coupling_nnz_after\": {coupling_nnz_after}}}"
        ),
        EngineEvent::RefreshTriggered {
            shard,
            numeric,
            quality_loss,
        } => format!(
            "{{\"seq\": {seq}, \"kind\": \"{kind}\", \"shard\": {shard}, \"numeric\": {numeric}, \
             \"quality_loss\": {}}}",
            json_f64(*quality_loss)
        ),
        EngineEvent::ConvergenceFailure { sweeps, residual } => format!(
            "{{\"seq\": {seq}, \"kind\": \"{kind}\", \"sweeps\": {sweeps}, \"residual\": {}}}",
            json_f64(*residual)
        ),
        EngineEvent::CacheEvicted { snapshot } => {
            format!("{{\"seq\": {seq}, \"kind\": \"{kind}\", \"snapshot\": {snapshot}}}")
        }
        EngineEvent::CacheInvalidated {
            oldest_retained,
            dropped,
        } => format!(
            "{{\"seq\": {seq}, \"kind\": \"{kind}\", \"oldest_retained\": {oldest_retained}, \
             \"dropped\": {dropped}}}"
        ),
        EngineEvent::CheckpointWritten { bytes } => {
            format!("{{\"seq\": {seq}, \"kind\": \"{kind}\", \"bytes\": {bytes}}}")
        }
        EngineEvent::WalTruncated { records_dropped } => format!(
            "{{\"seq\": {seq}, \"kind\": \"{kind}\", \"records_dropped\": {records_dropped}}}"
        ),
        EngineEvent::RefactorFallback { shard, reason } => format!(
            "{{\"seq\": {seq}, \"kind\": \"{kind}\", \"shard\": {shard}, \"reason\": \"{}\"}}",
            reason.name()
        ),
    }
}

/// Checks that `text` is well-formed Prometheus text exposition: every line
/// is a `# HELP` / `# TYPE` comment or a `name[{labels}] value` sample with
/// a legal metric name and a parseable float value.
///
/// Used by the CI smoke step and the integration tests; returns the first
/// offending line on failure.
pub fn validate_prometheus(text: &str) -> Result<(), String> {
    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
    }
    for (lineno, line) in text.lines().enumerate() {
        let err = |what: &str| Err(format!("line {}: {what}: {line:?}", lineno + 1));
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            let rest = comment.trim_start();
            if !(rest.starts_with("HELP ") || rest.starts_with("TYPE ")) {
                return err("comment is neither HELP nor TYPE");
            }
            continue;
        }
        // `name{labels} value` or `name value`.
        let (name_and_labels, value) = match line.rsplit_once(' ') {
            Some(parts) => parts,
            None => return err("sample line has no value"),
        };
        let name = match name_and_labels.split_once('{') {
            Some((name, labels)) => {
                if !labels.ends_with('}') {
                    return err("unterminated label set");
                }
                let body = &labels[..labels.len() - 1];
                for pair in body.split(',') {
                    match pair.split_once('=') {
                        Some((k, v)) if valid_name(k) && v.starts_with('"') && v.ends_with('"') => {
                        }
                        _ => return err("malformed label pair"),
                    }
                }
                name
            }
            None => name_and_labels,
        };
        if !valid_name(name) {
            return err("illegal metric name");
        }
        if value.trim().parse::<f64>().is_err() {
            return err("unparseable sample value");
        }
    }
    Ok(())
}

/// A RAII guard recording the elapsed time into a stage histogram on drop.
///
/// Obtained from [`TelemetryRegistry::span`]; when the registry is disabled
/// the guard holds no start time and its drop is a branch on `None`.
#[derive(Debug)]
#[must_use = "a span records on drop; dropping it immediately measures nothing"]
pub struct Span<'a> {
    registry: &'a TelemetryRegistry,
    stage: Stage,
    start: Option<Instant>,
}

impl Span<'_> {
    /// Ends the span now (equivalent to dropping it).
    pub fn stop(self) {}

    /// Abandons the span without recording a sample — for probes that turn
    /// out not to match their stage (e.g. a cache probe that misses).
    pub fn cancel(mut self) {
        self.start = None;
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            self.registry.observe(self.stage, start.elapsed());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_record_into_their_stage() {
        let reg = TelemetryRegistry::default();
        {
            let _span = reg.span(Stage::ShardSweep);
            std::hint::black_box(42);
        }
        reg.span(Stage::QuerySolve).stop();
        assert_eq!(reg.stage_histogram(Stage::ShardSweep).count(), 1);
        assert_eq!(reg.stage_histogram(Stage::QuerySolve).count(), 1);
        assert_eq!(reg.spans_recorded(), 2);
    }

    #[test]
    fn disabled_registry_stops_the_clock_but_keeps_counting() {
        let reg = TelemetryRegistry::with_shards(TelemetryConfig::disabled(), 2);
        assert!(!reg.enabled());
        reg.span(Stage::ShardSweep).stop();
        reg.observe(Stage::QuerySolve, Duration::from_millis(5));
        reg.observe_ns(Stage::QuerySolve, 5);
        reg.record_event(EngineEvent::CacheEvicted { snapshot: 1 });
        reg.observe_coupling_sweeps(20);
        reg.incr(Counter::QueriesServed);
        reg.add_shard(1, ShardCounter::Sweeps, 3);
        reg.set_gauge(Gauge::RingDepth, 7);
        // Off: spans, stage and block-pass histograms, the journal.
        assert!(reg.coupling_sweeps().is_empty());
        assert_eq!(reg.spans_recorded(), 0);
        assert!(reg.stage_histogram(Stage::QuerySolve).is_empty());
        assert_eq!(reg.journal().recorded(), 0);
        // Still on: counters, per-shard counters and gauges.
        assert_eq!(reg.counter(Counter::QueriesServed), 1);
        assert_eq!(reg.shard_counter(1, ShardCounter::Sweeps), 3);
        assert_eq!(reg.shard_counter(0, ShardCounter::Sweeps), 0);
        assert_eq!(reg.gauge(Gauge::RingDepth), 7);
    }

    #[test]
    fn counters_and_gauges_roundtrip() {
        let reg = TelemetryRegistry::default();
        reg.incr(Counter::CacheHits);
        reg.add(Counter::CacheHits, 4);
        reg.set_gauge(Gauge::CouplingNnz, 123);
        reg.set_gauge(Gauge::CouplingNnz, 99);
        assert_eq!(reg.counter(Counter::CacheHits), 5);
        assert_eq!(reg.gauge(Gauge::CouplingNnz), 99);
    }

    #[test]
    fn prometheus_exposition_is_wellformed_and_complete() {
        let reg = TelemetryRegistry::default();
        reg.observe(Stage::ShardSweep, Duration::from_micros(120));
        reg.observe(Stage::QuerySolve, Duration::from_micros(250));
        reg.incr(Counter::BatchesApplied);
        reg.set_gauge(Gauge::RingDepth, 3);
        reg.record_event(EngineEvent::Repartitioned {
            coupling_nnz_before: 900,
            coupling_nnz_after: 300,
        });
        for sweeps in [18, 21, 21, 40] {
            reg.observe_coupling_sweeps(sweeps);
        }
        let text = reg.render_prometheus();
        validate_prometheus(&text).expect("exposition must parse");
        assert!(text.contains("clude_shard_sweep_duration_seconds_count 1"));
        assert!(text.contains("clude_query_solve_duration_seconds{quantile=\"0.99\"}"));
        assert!(text.contains("clude_batches_applied_total 1"));
        assert!(text.contains("clude_ring_depth 3"));
        assert!(text.contains("clude_journal_events_total{event=\"repartitioned\"} 1"));
        assert!(text.contains("clude_coupling_sweeps{quantile=\"0.5\"} 21\n"));
        assert!(text.contains("clude_coupling_sweeps{quantile=\"1\"} 40\n"));
        assert!(text.contains("clude_coupling_sweeps_sum 100\n"));
        assert!(text.contains("clude_coupling_sweeps_count 4\n"));
        // No per-shard rows on a registry sized for none.
        assert!(!text.contains("{shard="));
    }

    #[test]
    fn per_shard_counters_render_as_labelled_series() {
        let reg = TelemetryRegistry::with_shards(TelemetryConfig::default(), 3);
        assert_eq!(reg.n_shards(), 3);
        reg.add_shard(2, ShardCounter::EntriesApplied, 5);
        reg.add_shard(0, ShardCounter::Reorders, 1);
        let text = reg.render_prometheus();
        validate_prometheus(&text).expect("exposition must parse");
        for line in [
            "clude_shard_entries_applied_total{shard=\"2\"} 5\n",
            "clude_shard_entries_applied_total{shard=\"0\"} 0\n",
            "clude_shard_reorders_total{shard=\"0\"} 1\n",
            "clude_shard_cross_shard_edges_total{shard=\"1\"} 0\n",
        ] {
            assert!(text.contains(line), "missing {line}");
        }
        let json = reg.render_json();
        assert!(json.contains(
            "{\"shard\": 2, \"entries_applied\": 5, \"sweeps\": 0, \
             \"cross_shard_edges\": 0, \"reorders\": 0}"
        ));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn validator_rejects_malformed_lines() {
        assert!(validate_prometheus("clude_ok 1\n").is_ok());
        assert!(validate_prometheus("no-dashes-allowed 1\n").is_err());
        assert!(validate_prometheus("clude_ok notanumber\n").is_err());
        assert!(validate_prometheus("# BOGUS comment\n").is_err());
        assert!(validate_prometheus("clude_ok{unterminated=\"x\" 1\n").is_err());
    }

    #[test]
    fn json_snapshot_has_all_sections() {
        let reg = TelemetryRegistry::default();
        reg.observe(Stage::IngestMerge, Duration::from_nanos(800));
        reg.record_event(EngineEvent::ConvergenceFailure {
            sweeps: 100_000,
            residual: 4.2e-10,
        });
        reg.record_event(EngineEvent::RefreshTriggered {
            shard: 2,
            numeric: false,
            quality_loss: 0.31,
        });
        let json = reg.render_json();
        for needle in [
            "\"enabled\": true",
            "\"ingest.merge\"",
            "\"coupling_sweeps\": {\"count\": 0,",
            "\"counters\"",
            "\"gauges\"",
            "\"kind\": \"convergence_failure\"",
            "\"shard\": 2",
        ] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
        // Balanced braces as a cheap well-formedness check.
        let open = json.matches('{').count();
        let close = json.matches('}').count();
        assert_eq!(open, close);
    }
}
