//! The five engine workloads, one closed-loop driver: a single client thread
//! streams edge operations into a `CludeEngine` and asks it queries, waiting
//! for each reply.  The engine's own shard-parallel threads are part of the
//! program under test.

use crate::dict::{self, Workload};
use crate::fsclock::{FsClock, TimedFs};
use crate::gen::{self, Scale};
use crate::host;
use crate::oracle::{self, Oracle};
use crate::probes;
use crate::round::{Laps, Round};
use crate::spans::Recorder;
use crate::stats;
use clude::partition::edge_locality_partition;
use clude_engine::{CludeEngine, DurabilityConfig, EdgeOp, EngineConfig, EngineError, EngineStats};
use clude_graph::DiGraph;
use clude_measures::MeasureQuery;
use clude_telemetry::{Counter, Stage, TelemetryConfig, TelemetryRegistry};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Share of a timed phase's batches, and number of its queries, treated as
/// warm-up: excluded from percentiles, not from throughput.
const WARMUP_SHARE: f64 = 0.05;
const WARMUP_QUERIES: usize = 50;
/// Blocks the hot and the zipf read phase are timed in: each is one segment,
/// so a burst of outside noise spoils a block and not the phase.
const READ_BLOCKS: usize = 64;

type Answer = Arc<Vec<f64>>;

/// The generated inputs of one round.
struct Inputs {
    base: DiGraph,
    /// Replayed during set-up (serve-static only).
    prereplay: Vec<EdgeOp>,
    /// The timed stream.
    ops: Vec<EdgeOp>,
}

fn inputs(workload: Workload, scale: Scale, seed: u64) -> Inputs {
    let size = gen::sizing(workload, scale);
    let egs = gen::wiki_egs(&size.wiki, seed);
    let base = egs.snapshot(0);
    let (prereplay, ops) = match workload {
        Workload::IngestStructure | Workload::LiveMono => (vec![], gen::structural_stream(&egs)),
        Workload::IngestValue => (
            vec![],
            gen::value_toggle_stream(
                &base,
                size.toggle_ops,
                gen::TOGGLE_POOL,
                &Default::default(),
                seed,
            ),
        ),
        Workload::ServeStatic => (gen::structural_stream(&egs), vec![]),
        Workload::LiveDurable => (vec![], gen::mixed_stream(&egs, seed)),
        Workload::EgsClude => unreachable!("the batch workload has its own driver"),
    };
    Inputs {
        base,
        prereplay,
        ops,
    }
}

/// What ships: the default configuration at the workload's shard count.
/// End-to-end rounds turn telemetry off (it then never reads the clock); the
/// traced round leaves it at its default.
fn engine_config(shards: usize, traced: bool) -> EngineConfig {
    EngineConfig {
        n_shards: shards,
        telemetry: if traced {
            TelemetryConfig::default()
        } else {
            TelemetryConfig::disabled()
        },
        ..EngineConfig::default()
    }
}

/// A spool directory of this process, inside the working directory (the
/// benchmark writes nowhere else).
fn spool_dir(seed: u64) -> PathBuf {
    PathBuf::from(".clude_perf_spool").join(format!("{}-{seed:016x}", std::process::id()))
}

/// What ships — `DurabilityConfig::new` — over a filesystem that is the
/// engine's own with a clock around it (see `fsclock`).
fn durability(spool: &Path, clock: &Arc<FsClock>) -> DurabilityConfig {
    DurabilityConfig::new(spool).vfs(Arc::new(TimedFs::new(Arc::clone(clock))))
}

/// Bytes ever written to the spool, by file kind.  Spool files only grow
/// or get deleted, so the bytes written are the sum over files of the
/// largest size seen; the spool is scanned between calls.  (The record of a
/// checkpointing batch is appended to a segment the same call deletes, so
/// one WAL record in 64 goes unseen.)
#[derive(Debug, Default)]
struct SpoolMeter {
    largest: BTreeMap<String, u64>,
}

impl SpoolMeter {
    fn scan(&mut self, dir: &Path) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            if let Ok(meta) = entry.metadata() {
                let seen = self
                    .largest
                    .entry(entry.file_name().to_string_lossy().into_owned())
                    .or_default();
                *seen = (*seen).max(meta.len());
            }
        }
    }

    /// `(wal segment bytes, everything else)`.
    fn bytes(&self) -> (u64, u64) {
        self.largest
            .iter()
            .fold((0, 0), |(wal, rest), (name, len)| {
                if name.ends_with(".log") {
                    (wal + len, rest)
                } else {
                    (wal, rest + len)
                }
            })
    }
}

/// An answer waiting for the oracle: what was asked, what came back, and how
/// many operations of the stream the graph had absorbed by then.
struct Served {
    after_ops: usize,
    query: MeasureQuery,
    answer: Answer,
}

/// The query lists of the read phases (serve-static).
struct ReadPhases {
    cold: Vec<MeasureQuery>,
    hot_keys: Vec<MeasureQuery>,
    hot_picks: Vec<u16>,
    zipf_keys: Vec<MeasureQuery>,
    zipf_picks: Vec<u32>,
}

impl ReadPhases {
    fn generate(n: usize, size: &gen::Sizing, seed: u64) -> Self {
        let (hot_keys, hot_picks) = gen::hot_queries(n, size.hot_queries, seed);
        let (zipf_keys, zipf_picks) = gen::zipf_queries(n, size.zipf_keys, size.zipf_queries, seed);
        ReadPhases {
            cold: gen::cold_queries(n, size.cold_queries, seed),
            hot_keys,
            hot_picks,
            zipf_keys,
            zipf_picks,
        }
    }
}

fn send(engine: &CludeEngine, op: EdgeOp) -> Result<Option<u64>, EngineError> {
    match op {
        EdgeOp::Insert(u, v) => engine.insert_edge(u, v),
        EdgeOp::Remove(u, v) => engine.remove_edge(u, v),
    }
}

fn apply(graph: &mut DiGraph, op: EdgeOp) {
    match op {
        EdgeOp::Insert(u, v) => graph.add_edge(u, v),
        EdgeOp::Remove(u, v) => graph.remove_edge(u, v),
    };
}

/// The client: issues calls, reads the clock around each, keeps the samples.
struct Client<'a> {
    rec: &'a mut Recorder,
    /// The durable workload's filesystem clock; time inside it is the host's.
    fs: Arc<FsClock>,
    /// The timed section cut into its pieces, in the order they ran: per
    /// batch the calls that fed and cut it, each query, each block of a read
    /// phase, the recovery — seconds inside the program, filesystem time
    /// left out.  Repeats of one input are compared piece by piece.
    segments: Vec<f64>,
    /// Buffering calls since the last cut: they join that batch's segment.
    buffered_s: f64,
    /// Time inside ingest calls / inside query calls.
    ingest: Duration,
    querying: Duration,
    /// Calls that only buffered an operation: total time and count.
    merge: Duration,
    merge_calls: u64,
    batch_ms: Vec<f64>,
    cold_us: Vec<f64>,
    served: Vec<Served>,
    ops_sent: usize,
    attempted: u64,
    failed: u64,
    /// The open run of buffering calls, recorded as one span when it ends.
    run: Option<(Instant, Instant, u32)>,
    /// The live schedule: the queries asked after the previous batch with
    /// their answers, and how often asking them again returned the very
    /// answer handed out before.
    previous: Vec<(MeasureQuery, Answer)>,
    requeries: u64,
    requery_hits: u64,
}

impl<'a> Client<'a> {
    fn new(rec: &'a mut Recorder, fs: Arc<FsClock>) -> Self {
        Client {
            rec,
            fs,
            segments: Vec::new(),
            buffered_s: 0.0,
            ingest: Duration::ZERO,
            querying: Duration::ZERO,
            merge: Duration::ZERO,
            merge_calls: 0,
            batch_ms: Vec::new(),
            cold_us: Vec::new(),
            served: Vec::new(),
            ops_sent: 0,
            attempted: 0,
            failed: 0,
            run: None,
            previous: Vec::new(),
            requeries: 0,
            requery_hits: 0,
        }
    }

    fn batches(&self) -> u64 {
        self.batch_ms.len() as u64
    }

    /// Accounts for one ingest call; returns the snapshot id when it cut and
    /// applied a batch.
    fn ingested(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        fs_wait: Duration,
        outcome: Result<Option<u64>, EngineError>,
    ) -> Option<u64> {
        let elapsed = end - start;
        self.ingest += elapsed;
        self.attempted += 1;
        self.buffered_s += elapsed.saturating_sub(fs_wait).as_secs_f64();
        match outcome {
            Ok(Some(id)) => {
                if let Some((from, to, calls)) = self.run.take() {
                    self.rec.leaf("engine.offer_buffered", id, from, to, calls);
                }
                self.rec.leaf(name, id, start, end, 1);
                self.batch_ms.push(elapsed.as_secs_f64() * 1e3);
                self.segments.push(std::mem::take(&mut self.buffered_s));
                Some(id)
            }
            Ok(None) => {
                self.merge += elapsed;
                self.merge_calls += 1;
                self.run = Some(match self.run {
                    Some((from, _, calls)) => (from, end, calls + 1),
                    None => (start, end, 1),
                });
                None
            }
            Err(_) => {
                self.failed += 1;
                None
            }
        }
    }

    fn offer(&mut self, engine: &CludeEngine, op: EdgeOp) -> Option<u64> {
        let fs_before = self.fs.waited();
        let start = Instant::now();
        let outcome = send(engine, op);
        let end = Instant::now();
        let fs_wait = self.fs.waited() - fs_before;
        self.ops_sent += 1;
        self.ingested("engine.offer_cut", start, end, fs_wait, outcome)
    }

    /// Cuts whatever is pending; a no-op (not even a sample) when the stream
    /// ended exactly on a cut.
    fn flush(&mut self, engine: &CludeEngine) {
        if engine.pending_ops() > 0 {
            let fs_before = self.fs.waited();
            let start = Instant::now();
            let outcome = engine.flush();
            let end = Instant::now();
            let fs_wait = self.fs.waited() - fs_before;
            self.ingested("engine.flush", start, end, fs_wait, outcome);
        }
        // Buffering calls that cancelled out and left nothing to cut.
        if self.buffered_s > 0.0 {
            self.segments.push(std::mem::take(&mut self.buffered_s));
        }
    }

    /// One timed query; the answer is kept for the oracle.
    fn ask(
        &mut self,
        engine: &CludeEngine,
        query: &MeasureQuery,
        id: u64,
    ) -> Option<(Answer, Duration)> {
        let start = Instant::now();
        let outcome = engine.query(query);
        let end = Instant::now();
        self.rec.leaf("engine.query", id, start, end, 1);
        self.querying += end - start;
        self.segments.push((end - start).as_secs_f64());
        self.attempted += 1;
        match outcome {
            Ok(answer) => {
                self.served.push(Served {
                    after_ops: self.ops_sent,
                    query: query.clone(),
                    answer: Arc::clone(&answer),
                });
                Some((answer, end - start))
            }
            Err(_) => {
                self.failed += 1;
                None
            }
        }
    }

    /// A query on a key never asked before: its latency is a cold sample.
    fn ask_cold(&mut self, engine: &CludeEngine, query: &MeasureQuery, id: u64) -> Option<Answer> {
        let (answer, elapsed) = self.ask(engine, query, id)?;
        self.cold_us.push(elapsed.as_secs_f64() * 1e6);
        Some(answer)
    }

    /// The live schedule after batch `batch`: two never-asked RWR seeds,
    /// then the two asked after the previous batch — does publish-time
    /// promotion still serve those?
    fn live_queries(&mut self, engine: &CludeEngine, batch: u64, fresh: [usize; 2]) {
        let mut asked = Vec::with_capacity(2);
        for seed in fresh {
            let query = MeasureQuery::Rwr {
                seed,
                damping: gen::DAMPING,
            };
            if let Some(answer) = self.ask_cold(engine, &query, batch) {
                asked.push((query, answer));
            }
        }
        for (query, before) in std::mem::replace(&mut self.previous, asked) {
            if let Some((again, _)) = self.ask(engine, &query, batch) {
                self.requeries += 1;
                self.requery_hits += Arc::ptr_eq(&again, &before) as u64;
            }
        }
    }

    /// The three read phases; returns the seconds the hot and the zipf block
    /// took.
    fn read_phases(&mut self, engine: &CludeEngine, reads: &ReadPhases) -> (f64, f64) {
        self.rec.enter("phase.cold", 0);
        for (i, query) in reads.cold.iter().enumerate() {
            self.ask_cold(engine, query, i as u64);
        }
        self.rec.exit();

        // Every hot key is asked once before the clock starts, so the phase
        // times the cache path and not 289 first-touch solves.  Then a few
        // blocks, one pair of clock reads each: a hit costs less than a read.
        let mut errors = 0u64;
        for key in &reads.hot_keys {
            errors += engine.query(key).is_err() as u64;
        }
        let hot_calls = reads.hot_picks.len();
        let start = Instant::now();
        let mut hot_s = 0.0;
        for block in reads
            .hot_picks
            .chunks(hot_calls.div_ceil(READ_BLOCKS).max(1))
        {
            let from = Instant::now();
            for &pick in block {
                match engine.query(&reads.hot_keys[pick as usize]) {
                    Ok(answer) => {
                        black_box(answer);
                    }
                    Err(_) => errors += 1,
                }
            }
            let block_s = from.elapsed().as_secs_f64();
            self.segments.push(block_s);
            hot_s += block_s;
        }
        let end = Instant::now();
        self.rec.leaf("phase.hot", 0, start, end, hot_calls as u32);

        let zipf_calls = reads.zipf_picks.len();
        let mut zipf_answers: Vec<(u32, Answer)> = Vec::with_capacity(zipf_calls);
        let start = Instant::now();
        let mut zipf_s = 0.0;
        for block in reads
            .zipf_picks
            .chunks(zipf_calls.div_ceil(READ_BLOCKS).max(1))
        {
            let from = Instant::now();
            for &pick in block {
                match engine.query(&reads.zipf_keys[pick as usize]) {
                    Ok(answer) => zipf_answers.push((pick, answer)),
                    Err(_) => errors += 1,
                }
            }
            let block_s = from.elapsed().as_secs_f64();
            self.segments.push(block_s);
            zipf_s += block_s;
        }
        let end = Instant::now();
        self.rec
            .leaf("phase.zipf", 0, start, end, zipf_calls as u32);
        self.attempted += (hot_calls + zipf_calls) as u64;
        self.failed += errors;
        self.querying += Duration::from_secs_f64(hot_s + zipf_s);

        // After the timer: every hot key's cached answer, and every zipf
        // answer as served, goes to the oracle with the cold ones.
        for key in &reads.hot_keys {
            match engine.query(key) {
                Ok(answer) => self.served.push(Served {
                    after_ops: self.ops_sent,
                    query: key.clone(),
                    answer,
                }),
                Err(_) => self.failed += 1,
            }
        }
        for (pick, answer) in zipf_answers {
            self.served.push(Served {
                after_ops: self.ops_sent,
                query: reads.zipf_keys[pick as usize].clone(),
                answer,
            });
        }
        (hot_s, zipf_s)
    }

    /// Replays the stream's operations onto `graph` — the graph the timed
    /// section started from — and checks every kept answer against the
    /// measure matrix of the graph it was served from.  Returns the final
    /// graph.
    fn check_served(&mut self, mut graph: DiGraph, ops: &[EdgeOp]) -> DiGraph {
        let mut applied = 0;
        let mut oracle: Option<(usize, Oracle)> = None;
        for served in std::mem::take(&mut self.served) {
            for op in &ops[applied..served.after_ops] {
                apply(&mut graph, *op);
            }
            applied = served.after_ops;
            if oracle.as_ref().is_none_or(|(at, _)| *at != applied) {
                oracle = Some((applied, Oracle::new(&graph)));
            }
            self.attempted += 1;
            let (_, matrix) = oracle.as_ref().expect("just set");
            if !matrix.accepts(&served.query, &served.answer) {
                self.failed += 1;
            }
        }
        for op in &ops[applied..self.ops_sent] {
            apply(&mut graph, *op);
        }
        graph
    }
}

/// Asks the probe set (untimed) and returns the answers; a failed probe
/// yields an empty answer, which no check accepts.
fn ask_probes(engine: &CludeEngine, probes: &[MeasureQuery]) -> Vec<Answer> {
    probes
        .iter()
        .map(|q| engine.query(q).unwrap_or_default())
        .collect()
}

/// What recovery took and did.
#[derive(Debug, Default)]
struct Recovery {
    seconds: f64,
    replayed_records: f64,
    /// `(busy seconds, count)` of the recovered engine's replay stage.
    replay_stage: (f64, u64),
}

/// Reopens the spool a dropped engine left behind and holds the recovered
/// engine to the answers the dropped one gave for `probes`.
fn recover(
    client: &mut Client<'_>,
    base: &DiGraph,
    config: EngineConfig,
    spool: &Path,
    probes: &[MeasureQuery],
    before: &[Answer],
) -> Recovery {
    let durability = durability(spool, &client.fs);
    let fs_before = client.fs.waited();
    let start = Instant::now();
    let reopened = CludeEngine::open_durable(base.clone(), config, durability);
    let end = Instant::now();
    let fs_wait = client.fs.waited() - fs_before;
    client.rec.leaf("engine.open_durable", 0, start, end, 1);
    client
        .segments
        .push((end - start).saturating_sub(fs_wait).as_secs_f64());
    client.attempted += 1 + probes.len() as u64;
    let mut recovery = Recovery {
        seconds: (end - start).as_secs_f64(),
        ..Recovery::default()
    };
    match reopened {
        Ok((recovered, report)) => {
            recovery.replayed_records = report.wal_records_replayed as f64;
            recovery.replay_stage = stage_reading(recovered.telemetry(), "recovery.replay");
            client.failed += before
                .iter()
                .zip(&ask_probes(&recovered, probes))
                .filter(|(b, a)| oracle::max_abs_diff(b, a) > oracle::AGREEMENT_TOL)
                .count() as u64;
        }
        Err(_) => client.failed += 1 + probes.len() as u64,
    }
    recovery
}

/// `(busy seconds, count)` of the stage named `name`, found by iterating
/// `Stage::ALL`; a stage the engine does not have reads zero.
fn stage_reading(telemetry: &TelemetryRegistry, name: &str) -> (f64, u64) {
    Stage::ALL
        .iter()
        .find(|s| s.name() == name)
        .map_or((0.0, 0), |s| {
            let h = telemetry.stage_histogram(*s);
            (h.sum() as f64 / 1e9, h.count())
        })
}

/// What is read off the engine when its timed section ends — before it is
/// dropped, where the workload drops it.
struct EngineReadings {
    stats: EngineStats,
    telemetry: Arc<TelemetryRegistry>,
    occupancy_mean: f64,
}

/// The engine's half of the per-layer table: the stage table, the store,
/// coupling, cache and durability counters, and the shape they reveal.
fn engine_layer(
    round: &mut Round,
    client: &Client<'_>,
    engine: &EngineReadings,
    recovery: &Recovery,
    spool_bytes: (u64, u64),
) {
    let EngineReadings {
        stats,
        telemetry,
        occupancy_mean,
    } = engine;
    let busy_of = |name: &str| stage_reading(telemetry, name);
    let ingest_s = client.ingest.as_secs_f64();
    let layer = &mut round.layer;
    for (stage, _, _) in dict::STAGES {
        let (busy, count) = if *stage == "recovery.replay" {
            recovery.replay_stage
        } else {
            busy_of(stage)
        };
        layer.insert(format!("stage.{stage}.busy_s"), busy);
        layer.insert(format!("stage.{stage}.count"), count as f64);
    }
    // How the shard advances split between the two maintenance paths: a
    // value-only workload is all refactor passes, a structural one nearly
    // all sweeps.
    let (refactor_busy, refactor_passes) = busy_of("shard.refactor");
    let sweeps = busy_of("shard.sweep").1;
    let apply_busy = busy_of("ingest.apply").0;
    round.shape.extend([
        ("refactor_passes", refactor_passes as f64),
        (
            "refactor_share_of_advances",
            refactor_passes as f64 / (refactor_passes + sweeps).max(1) as f64,
        ),
        (
            "refactor_share_of_apply_busy",
            refactor_busy / apply_busy.max(f64::MIN_POSITIVE),
        ),
    ]);
    // Attributed = every leaf stage of the ingest path.  The shard and freeze
    // spans run inside `ingest.apply`, possibly in parallel, so their sum is
    // capped at the enclosing span's.
    let inside_apply: f64 = Stage::ALL
        .iter()
        .map(|s| s.name())
        .filter(|name| name.starts_with("shard.") || *name == "snapshot.freeze")
        .map(|name| busy_of(name).0)
        .sum();
    let attributed = busy_of("ingest.merge").0
        + busy_of("wal.append").0
        + busy_of("checkpoint.write").0
        + inside_apply.min(apply_busy);
    let evictions = Counter::ALL
        .iter()
        .find(|c| c.name() == "cache_evictions")
        .map_or(0, |c| telemetry.counter(*c));
    let readings = [
        (
            "engine.unattributed_share",
            if client.ops_sent > 0 {
                1.0 - attributed / ingest_s
            } else {
                0.0
            },
        ),
        ("engine.apply_busy_s", apply_busy),
        (
            "engine.merge_ns_per_op",
            client.merge.as_secs_f64() * 1e9 / client.merge_calls.max(1) as f64,
        ),
        ("store.refreshes", stats.refreshes as f64),
        (
            "store.rank_one_updates",
            stats.bennett_rank_one_updates as f64,
        ),
        ("store.pivots", stats.bennett_pivots as f64),
        ("store.cow_share_rate", stats.cow_share_rate()),
        (
            "store.resident_factor_mb",
            stats.resident_factor_bytes as f64 / (1024.0 * 1024.0),
        ),
        ("coupling.nnz", stats.coupling_nnz as f64),
        (
            "coupling.solve_share",
            busy_of("coupling.gauss_seidel").0 / busy_of("query.solve").0.max(f64::MIN_POSITIVE),
        ),
        ("cache.hit_rate", stats.hit_rate()),
        ("cache.evictions", evictions as f64),
        (
            "cache.requery_hit_rate",
            client.requery_hits as f64 / client.requeries.max(1) as f64,
        ),
        ("batcher.occupancy_mean", *occupancy_mean),
        ("wal.bytes", spool_bytes.0 as f64),
        ("checkpoint.bytes", spool_bytes.1 as f64),
        ("recovery.replayed_records", recovery.replayed_records),
        ("fs.wait_s", client.fs.waited().as_secs_f64()),
        ("fs.syncs", client.fs.syncs() as f64),
        ("telemetry.spans", stats.spans_recorded as f64),
    ];
    layer.extend(readings.map(|(name, value)| (name.to_string(), value)));
}

/// One round.  `thorough` adds the expensive agreement check against a fresh
/// 1-shard engine (the run's first round does it); the residual oracle runs
/// every round.
pub fn round(
    workload: Workload,
    scale: Scale,
    seed: u64,
    traced: bool,
    thorough: bool,
    rec: &mut Recorder,
) -> Round {
    let mut round = Round::default();
    let size = gen::sizing(workload, scale);
    let config = engine_config(size.shards, traced);
    let durable = workload == Workload::LiveDurable;
    let live = matches!(workload, Workload::LiveMono | Workload::LiveDurable);
    let spool = spool_dir(seed);

    // ---- set-up: inputs, engine, pre-replay, oracle preparation ----------
    let fs = Arc::new(FsClock::default());
    let mut setup = Laps::start();
    let inputs = inputs(workload, scale, seed);
    setup.cut(fs.waited());
    let n = inputs.base.n_nodes();
    let durability = durability(&spool, &fs);
    // The durable stream ends on a cut, with nothing pending, `WAL_TAIL`
    // batches past a checkpoint: that is the WAL tail recovery will replay.
    let durable_batches = size.durable_checkpoints * durability.checkpoint_every + gen::WAL_TAIL;
    let opened = if durable {
        CludeEngine::open_durable(inputs.base.clone(), config, durability).map(|(engine, _)| engine)
    } else {
        CludeEngine::new(inputs.base.clone(), config)
    };
    let Ok(engine) = opened else {
        round.attempted = 1;
        round.failed = 1;
        return round;
    };
    // The cold `open_durable` writes and syncs its first checkpoint: the
    // wait for the disk is not set-up work of the program.
    setup.cut(fs.waited());
    // The graph the timed section starts from: the base, plus the pre-replay,
    // one lap per batch it cut.
    let mut start_graph = inputs.base.clone();
    for &op in &inputs.prereplay {
        round.attempted += 1;
        match send(&engine, op) {
            Ok(None) => {}
            Ok(Some(_)) => setup.cut(fs.waited()),
            Err(_) => round.failed += 1,
        }
        apply(&mut start_graph, op);
    }
    round.failed += engine.flush().is_err() as u64;
    let batches_before = engine.stats().batches_applied;
    let fresh_seeds = gen::live_seeds(n, 2 * (inputs.ops.len() / 64 + 2), seed);
    let reads = (workload == Workload::ServeStatic).then(|| ReadPhases::generate(n, &size, seed));
    let probe_set = gen::probe_queries(n);
    setup.cut(fs.waited());
    round.setup_s = setup.segments.iter().sum();
    round.setup_segments = setup.segments;

    // ---- timed section ---------------------------------------------------
    rec.enter("round", seed);
    let mut client = Client::new(rec, Arc::clone(&fs));
    let mut meter = SpoolMeter::default();
    let mut fresh = fresh_seeds.chunks_exact(2).cycle();
    let mut stopped_on_cut = false;
    for &op in &inputs.ops {
        let Some(batch) = client.offer(&engine, op) else {
            continue;
        };
        if durable {
            meter.scan(&spool);
        }
        if live {
            let pair = fresh.next().expect("the seed list is not empty");
            client.live_queries(&engine, batch, [pair[0], pair[1]]);
        }
        if durable && client.batches() == durable_batches {
            stopped_on_cut = true;
            break;
        }
    }
    if !stopped_on_cut {
        client.flush(&engine);
    }
    let (hot_s, zipf_s) = reads
        .as_ref()
        .map_or((0.0, 0.0), |reads| client.read_phases(&engine, reads));

    // ---- drop and recover (live-durable) ---------------------------------
    let readings = EngineReadings {
        stats: engine.stats(),
        telemetry: Arc::clone(engine.telemetry()),
        occupancy_mean: engine.batch_occupancy().mean(),
    };
    let probes_before = ask_probes(&engine, &probe_set);
    let recovery = if durable {
        meter.scan(&spool);
        // No shutdown checkpoint: the engine is simply dropped.
        drop(engine);
        recover(
            &mut client,
            &inputs.base,
            config,
            &spool,
            &probe_set,
            &probes_before,
        )
    } else {
        Recovery::default()
    };
    let ingest_ops = client.ops_sent;
    let ingest_s = client.ingest.as_secs_f64();
    // Every call of the timed section is in exactly one segment.
    round.segments = std::mem::take(&mut client.segments);
    round.timed_s = round.segments.iter().sum();
    round.peak_rss_mb = host::peak_rss_mb();

    // ---- checks (untimed) -------------------------------------------------
    client.rec.enter("check", 0);
    let final_graph = client.check_served(start_graph, &inputs.ops);
    // The probe set: residual against the final graph, and agreement with a
    // fresh 1-shard engine built on it.
    let final_oracle = Oracle::new(&final_graph);
    client.attempted += probe_set.len() as u64;
    client.failed += probe_set
        .iter()
        .zip(&probes_before)
        .filter(|(q, x)| !final_oracle.accepts(q, x))
        .count() as u64;
    if thorough {
        client.attempted += probe_set.len() as u64;
        client.failed +=
            oracle::disagreements_with_fresh_engine(&final_graph, &probe_set, &probes_before);
    }
    client.rec.exit();

    // ---- readings -----------------------------------------------------------
    if ingest_ops > 0 {
        round
            .scalars
            .insert("ingest_deltas_per_s", ingest_ops as f64 / ingest_s);
        round.batch_ms = stats::trim_warmup(&client.batch_ms, WARMUP_SHARE, 0).to_vec();
    }
    round.query_us = stats::trim_warmup(&client.cold_us, 0.0, WARMUP_QUERIES).to_vec();
    if let Some(reads) = &reads {
        round
            .scalars
            .insert("query_hot_qps", reads.hot_picks.len() as f64 / hot_s);
        round
            .scalars
            .insert("query_zipf_qps", reads.zipf_picks.len() as f64 / zipf_s);
    }
    let spool_bytes = meter.bytes();
    if durable {
        round.scalars.insert("recovery_s", recovery.seconds);
        round.scalars.insert(
            "wal_bytes_per_op",
            (spool_bytes.0 + spool_bytes.1) as f64 / ingest_ops.max(1) as f64,
        );
        round
            .shape
            .insert("replayed_records", recovery.replayed_records);
    }
    round.attempted += client.attempted;
    round.failed += client.failed;
    let stats = &readings.stats;
    round.shape.extend([
        ("pages", n as f64),
        ("shards", size.shards as f64),
        ("ops", ingest_ops as f64),
        ("batches", (stats.batches_applied - batches_before) as f64),
        ("refreshes", stats.refreshes as f64),
        ("coupling_nnz", stats.coupling_nnz as f64),
        ("queries", stats.queries as f64),
        ("hit_rate", stats.hit_rate()),
        ("final_edges", final_graph.n_edges() as f64),
    ]);

    if traced {
        engine_layer(&mut round, &client, &readings, &recovery, spool_bytes);
        // Probes on inputs captured from this round.
        let (rec, layer) = (&mut *client.rec, &mut round.layer);
        let (partition, s) = probes::timed(rec, "core.partition", || {
            edge_locality_partition(&inputs.base, size.shards)
        });
        layer.insert("core.partition_us".into(), s * 1e6);
        let pairs = probes::shard_pairs(&inputs.base, &final_graph, &partition);
        probes::sparse(rec, &pairs, layer);
        let routed = if inputs.ops.is_empty() {
            &inputs.prereplay
        } else {
            &inputs.ops
        };
        probes::graph(rec, &final_graph, &partition, routed, layer);
        probes::lu(rec, &pairs, false, layer);
        if let Ok(fresh) = CludeEngine::new(final_graph.clone(), config) {
            probes::queries(rec, &fresh, n, layer);
        }
    }
    client.rec.exit();
    if durable {
        // Best effort: a leftover spool is ignored by git and by the next run.
        let _ = std::fs::remove_dir_all(&spool);
        let _ = std::fs::remove_dir(".clude_perf_spool");
    }
    round
}
