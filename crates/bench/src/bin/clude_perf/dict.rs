//! The benchmark's dictionaries: workloads, end-to-end metrics and per-layer
//! metrics, each with unit, direction, regression bound and the reason it
//! exists.  `clude_perf list` prints them; `BENCHMARK.json` carries the same
//! names.  The names are normative: later PRs are measured with them.

use crate::json::Json;

/// Whether a larger or a smaller reading is the better one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// The six workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Workload {
    EgsClude,
    IngestStructure,
    IngestValue,
    ServeStatic,
    LiveMono,
    LiveDurable,
}

impl Workload {
    pub const ALL: [Workload; 6] = [
        Workload::EgsClude,
        Workload::IngestStructure,
        Workload::IngestValue,
        Workload::ServeStatic,
        Workload::LiveMono,
        Workload::LiveDurable,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::EgsClude => "egs-clude",
            Workload::IngestStructure => "ingest-structure",
            Workload::IngestValue => "ingest-value",
            Workload::ServeStatic => "serve-static",
            Workload::LiveMono => "live-mono",
            Workload::LiveDurable => "live-durable",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists: what it stresses and what it bypasses.
    pub fn why(self) -> &'static str {
        match self {
            Workload::EgsClude => {
                "the paper's batch LUDEM: Clude::solve over a wiki-like EMS; no engine, Bennett on static USSP storage"
            }
            Workload::IngestStructure => {
                "structural churn at 4 shards, ingest only: Bennett sweeps on dynamic storage, refresh, routing, freeze; refactor idle"
            }
            Workload::IngestValue => {
                "value-only churn at 4 shards, ingest only: pattern-frozen refactor, so per-batch fixed costs dominate; Bennett idle"
            }
            Workload::ServeStatic => {
                "read-only at 4 shards: cold coupled solves, hot cache hits, and a Zipf key set 4x the cache; ingest idle"
            }
            Workload::LiveMono => {
                "1 shard, reads beside writes: the monolithic store and the no-coupling query path, 4 queries after every batch"
            }
            Workload::LiveDurable => {
                "durable 4-shard engine under mixed churn with queries, then drop and recover: WAL, checkpoints, replay"
            }
        }
    }

    /// Whether the workload drives `CludeEngine` (everything but the batch
    /// solver).
    pub fn uses_engine(self) -> bool {
        self != Workload::EgsClude
    }
}

/// One end-to-end metric of the dictionary.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen.
    pub bound: f64,
    /// A count that must repeat exactly for one seed.
    pub exact: bool,
    pub workloads: &'static [Workload],
    pub what: &'static str,
}

use Workload::{EgsClude, IngestStructure, IngestValue, LiveDurable, LiveMono, ServeStatic};

const EVERY: &[Workload] = &Workload::ALL;
const INGESTING: &[Workload] = &[IngestStructure, IngestValue, LiveMono, LiveDurable];
const COLD_QUERYING: &[Workload] = &[ServeStatic, LiveMono, LiveDurable];

/// The end-to-end metrics, in report order.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        exact: false,
        workloads: EVERY,
        what: "generate inputs, build the EMS or engine, pre-replay, oracle preparation, less the wait inside filesystem calls (per input the sum over its pieces of each piece's best repeat, then the median over the run's inputs)",
    },
    EndToEnd {
        name: "timed_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        exact: false,
        workloads: EVERY,
        what: "time inside calls into the program during one round's timed section, fixed work, less the wait inside filesystem calls (per input the sum over the section's calls of each call's best repeat, then the mean over the run's inputs)",
    },
    EndToEnd {
        name: "decompose_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.10,
        exact: false,
        workloads: &[EgsClude],
        what: "wall-clock of the one Clude::solve call over the whole sequence",
    },
    EndToEnd {
        name: "quality_loss",
        unit: "ratio",
        better: Better::Lower,
        bound: 0.01,
        exact: true,
        workloads: &[EgsClude],
        what: "mean quality-loss of CLUDE's orderings vs the Markowitz reference on 10 evenly spaced snapshots",
    },
    EndToEnd {
        name: "ingest_deltas_per_s",
        unit: "ops/s",
        better: Better::Higher,
        bound: 0.10,
        exact: false,
        workloads: INGESTING,
        what: "edge operations per second of time spent inside insert_edge/remove_edge/flush",
    },
    EndToEnd {
        name: "batch_apply_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.10,
        exact: false,
        workloads: INGESTING,
        what: "median duration of a call that cut and applied a batch: change-to-queryable latency",
    },
    EndToEnd {
        name: "batch_apply_tail_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        exact: false,
        workloads: INGESTING,
        what: "tail of the same durations (highest percentile with >= 10 samples beyond it)",
    },
    EndToEnd {
        name: "query_cold_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.10,
        exact: false,
        workloads: COLD_QUERYING,
        what: "median latency of a query whose key was never asked before",
    },
    EndToEnd {
        name: "query_cold_tail_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
        exact: false,
        workloads: COLD_QUERYING,
        what: "tail of the same latencies",
    },
    EndToEnd {
        name: "query_hot_qps",
        unit: "queries/s",
        better: Better::Higher,
        bound: 0.15,
        exact: false,
        workloads: &[ServeStatic],
        what: "queries per second over a key set that fits the cache, timed as one block",
    },
    EndToEnd {
        name: "query_zipf_qps",
        unit: "queries/s",
        better: Better::Higher,
        bound: 0.10,
        exact: false,
        workloads: &[ServeStatic],
        what: "queries per second, Zipf(1.0) over a key set four times the cache",
    },
    EndToEnd {
        name: "recovery_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.15,
        exact: false,
        workloads: &[LiveDurable],
        what: "wall-clock of the open_durable call that reopens the dropped spool",
    },
    EndToEnd {
        name: "wal_bytes_per_op",
        unit: "bytes/op",
        better: Better::Lower,
        bound: 0.01,
        exact: true,
        workloads: &[LiveDurable],
        what: "spool bytes written (WAL segments, checkpoint generations, manifest) per edge operation",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.10,
        exact: false,
        workloads: EVERY,
        what: "VmHWM of the process (one per workload and seed) when the first round's timed section ends, before any check has run",
    },
    EndToEnd {
        name: "failed_share",
        unit: "fraction",
        better: Better::Lower,
        bound: 0.0,
        exact: true,
        workloads: EVERY,
        what: "failed / attempted over operations, queries and correctness checks",
    },
];

/// The end-to-end metrics every workload reports and none reports as zero:
/// the subset `BENCHMARK.json` lists under `end_to_end` (its contract wants
/// every such metric from every workload).  The others appear there under
/// `per_layer`; a traced run measures them exactly as an untraced one does
/// before it traces.
pub const UNIVERSAL: &[&str] = &["setup_s", "timed_s", "peak_rss_mb"];

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// One per-layer metric: which layer owns it and which end-to-end metric it
/// should move.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub layer: &'static str,
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    layer: &'static str,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        layer,
        moves,
    }
}

use Better::{Higher, Lower};

/// Telemetry stages the per-layer table reports (`stage.<name>.busy_s` and
/// `.count`).  Looked up by `Stage::name()` while iterating `Stage::ALL`; a
/// stage the engine no longer has reads 0.
pub const STAGES: &[(&str, &str, &str)] = &[
    ("ingest.apply", "engine::engine", "ingest_deltas_per_s"),
    ("shard.sweep", "engine::store", "ingest_deltas_per_s"),
    ("shard.refresh", "engine::store", "batch_apply_tail_ms"),
    ("shard.refactor", "engine::store", "ingest_deltas_per_s"),
    ("snapshot.freeze", "engine::store", "batch_apply_p50_ms"),
    (
        "coupling.gauss_seidel",
        "engine::coupling",
        "query_cold_p50_us",
    ),
    ("query.solve", "engine::query", "query_cold_p50_us"),
    ("query.batch_solve", "engine::query", "query_cold_p50_us"),
    ("query.cache_hit", "engine::cache", "query_hot_qps"),
    ("wal.append", "engine::wal", "ingest_deltas_per_s"),
    (
        "checkpoint.write",
        "engine::checkpoint",
        "batch_apply_tail_ms",
    ),
    ("recovery.replay", "engine::recovery", "recovery_s"),
];

/// The per-layer metrics other than the stage table, in report order.
pub const PER_LAYER: &[PerLayer] = &[
    layer(
        "sparse.adjacency_upsert_ns",
        "ns",
        Lower,
        "clude-sparse",
        "ingest_deltas_per_s",
    ),
    layer(
        "sparse.csr_from_coo_us",
        "us",
        Lower,
        "clude-sparse",
        "setup_s",
    ),
    layer(
        "sparse.delta_to_us",
        "us",
        Lower,
        "clude-sparse",
        "decompose_s",
    ),
    layer(
        "graph.measure_matrix_us",
        "us",
        Lower,
        "clude-graph",
        "batch_apply_tail_ms",
    ),
    layer(
        "graph.split_by_us",
        "us",
        Lower,
        "clude-graph",
        "batch_apply_p50_ms",
    ),
    layer(
        "graph.digraph_clone_us",
        "us",
        Lower,
        "clude-graph",
        "batch_apply_p50_ms",
    ),
    layer(
        "lu.markowitz_us_per_pivot",
        "us",
        Lower,
        "clude-lu ordering",
        "batch_apply_tail_ms",
    ),
    layer(
        "lu.amd_us_per_pivot",
        "us",
        Lower,
        "clude-lu ordering",
        "batch_apply_tail_ms",
    ),
    layer(
        "lu.fill_markowitz",
        "count",
        Lower,
        "clude-lu ordering",
        "ingest_deltas_per_s",
    ),
    layer(
        "lu.fill_amd",
        "count",
        Lower,
        "clude-lu ordering",
        "ingest_deltas_per_s",
    ),
    layer(
        "lu.symbolic_us",
        "us",
        Lower,
        "clude-lu symbolic",
        "decompose_s",
    ),
    layer(
        "lu.factorize_us",
        "us",
        Lower,
        "clude-lu factors",
        "setup_s",
    ),
    layer(
        "lu.bennett_us_per_pivot",
        "us",
        Lower,
        "clude-lu bennett",
        "ingest_deltas_per_s",
    ),
    layer(
        "lu.bennett_pivots",
        "count",
        Lower,
        "clude-lu bennett",
        "ingest_deltas_per_s",
    ),
    layer(
        "lu.refactor_us_per_pass",
        "us",
        Lower,
        "clude-lu refactor",
        "ingest_deltas_per_s",
    ),
    layer(
        "lu.solve_single_us",
        "us",
        Lower,
        "clude-lu solve",
        "query_cold_p50_us",
    ),
    layer(
        "lu.solve_panel16_us_per_rhs",
        "us",
        Lower,
        "clude-lu solve",
        "query_cold_p50_us",
    ),
    layer(
        "lu.factor_nnz",
        "count",
        Lower,
        "clude-lu solve",
        "query_cold_p50_us",
    ),
    layer("core.clustering_s", "s", Lower, "clude core", "decompose_s"),
    layer("core.ordering_s", "s", Lower, "clude core", "decompose_s"),
    layer("core.symbolic_s", "s", Lower, "clude core", "decompose_s"),
    layer("core.full_lu_s", "s", Lower, "clude core", "decompose_s"),
    layer("core.bennett_s", "s", Lower, "clude core", "decompose_s"),
    layer("core.clusters", "count", Lower, "clude core", "decompose_s"),
    layer(
        "core.bennett_pivots",
        "count",
        Lower,
        "clude core",
        "decompose_s",
    ),
    layer("core.partition_us", "us", Lower, "clude core", "setup_s"),
    layer(
        "query.rwr_us",
        "us",
        Lower,
        "clude-measures",
        "query_cold_p50_us",
    ),
    layer(
        "query.pagerank_us",
        "us",
        Lower,
        "clude-measures",
        "query_cold_p50_us",
    ),
    layer(
        "query.ppr_us",
        "us",
        Lower,
        "clude-measures",
        "query_cold_p50_us",
    ),
    layer(
        "engine.merge_ns_per_op",
        "ns",
        Lower,
        "engine::ingest",
        "ingest_deltas_per_s",
    ),
    layer(
        "engine.apply_busy_s",
        "s",
        Lower,
        "engine::engine",
        "ingest_deltas_per_s",
    ),
    layer(
        "engine.unattributed_share",
        "fraction",
        Lower,
        "engine::engine",
        "ingest_deltas_per_s",
    ),
    layer(
        "store.refreshes",
        "count",
        Lower,
        "engine::store",
        "batch_apply_tail_ms",
    ),
    layer(
        "store.rank_one_updates",
        "count",
        Lower,
        "engine::store",
        "ingest_deltas_per_s",
    ),
    layer(
        "store.pivots",
        "count",
        Lower,
        "engine::store",
        "ingest_deltas_per_s",
    ),
    layer(
        "store.cow_share_rate",
        "fraction",
        Higher,
        "engine::store",
        "peak_rss_mb",
    ),
    layer(
        "store.resident_factor_mb",
        "MiB",
        Lower,
        "engine::store",
        "peak_rss_mb",
    ),
    layer(
        "coupling.nnz",
        "count",
        Lower,
        "engine::coupling",
        "query_cold_p50_us",
    ),
    layer(
        "coupling.solve_share",
        "fraction",
        Lower,
        "engine::coupling",
        "query_cold_p50_us",
    ),
    layer(
        "cache.hit_rate",
        "fraction",
        Higher,
        "engine::cache",
        "query_zipf_qps",
    ),
    layer(
        "cache.evictions",
        "count",
        Lower,
        "engine::cache",
        "query_zipf_qps",
    ),
    layer(
        "cache.requery_hit_rate",
        "fraction",
        Higher,
        "engine::cache",
        "query_cold_p50_us",
    ),
    layer(
        "batcher.occupancy_mean",
        "count",
        Higher,
        "engine::query",
        "query_zipf_qps",
    ),
    layer(
        "query.cold_qps_2t",
        "queries/s",
        Higher,
        "engine::query",
        "query_zipf_qps",
    ),
    layer(
        "wal.bytes",
        "bytes",
        Lower,
        "engine::wal",
        "wal_bytes_per_op",
    ),
    layer(
        "checkpoint.bytes",
        "bytes",
        Lower,
        "engine::checkpoint",
        "wal_bytes_per_op",
    ),
    layer(
        "recovery.replayed_records",
        "count",
        Lower,
        "engine::recovery",
        "recovery_s",
    ),
    layer("fs.wait_s", "s", Lower, "host filesystem", "none"),
    layer("fs.syncs", "count", Lower, "engine::wal", "recovery_s"),
    layer(
        "telemetry.overhead_share",
        "fraction",
        Lower,
        "clude-telemetry",
        "none",
    ),
    layer("telemetry.spans", "count", Lower, "clude-telemetry", "none"),
];

/// Per-layer counts that must repeat exactly for one seed (`clude_perf aa`
/// compares them for identity).
pub const EXACT_LAYER_COUNTS: &[&str] = &["lu.bennett_pivots", "recovery.replayed_records"];

/// Every name a traced run reports, in order: the stage table, the other
/// per-layer metrics, and the end-to-end metrics that are not universal.
pub fn traced_names() -> Vec<(String, &'static str, Better)> {
    let mut names = Vec::new();
    for (stage, _, _) in STAGES {
        names.push((format!("stage.{stage}.busy_s"), "s", Lower));
        names.push((format!("stage.{stage}.count"), "count", Lower));
    }
    for m in PER_LAYER {
        names.push((m.name.to_string(), m.unit, m.better));
    }
    for m in END_TO_END {
        if !UNIVERSAL.contains(&m.name) {
            names.push((m.name.to_string(), m.unit, m.better));
        }
    }
    names
}

/// Seconds one run measures when the driver of `BENCHMARK.json` starts it.
pub const RUN_SECONDS: u64 = 10;

/// The content of the repository's `BENCHMARK.json` (`clude_perf list
/// --json` prints it; a test holds the committed file to it).
pub fn benchmark_json() -> Json {
    let here = "crates/bench/src/bin/clude_perf";
    // The directory is the `clude_perf` bin of `clude-bench` (cargo finds
    // `src/bin/clude_perf/main.rs` by itself), so the workspace builds it.
    let command = [
        "cargo",
        "run",
        "--release",
        "--quiet",
        "-p",
        "clude-bench",
        "--bin",
        "clude_perf",
        "--",
    ];
    let metric = |name: &str, unit: &str, better: Better| {
        vec![
            ("name", Json::str(name)),
            ("unit", Json::str(unit)),
            ("better", Json::str(better.name())),
        ]
    };
    Json::obj([
        (
            "command",
            Json::Arr(command.iter().map(|part| Json::str(*part)).collect()),
        ),
        ("paths", Json::Arr(vec![Json::str(here)])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                Workload::ALL
                    .iter()
                    .map(|w| {
                        Json::obj([("name", Json::str(w.name())), ("why", Json::str(w.why()))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                UNIVERSAL
                    .iter()
                    .filter_map(|name| end_to_end(name))
                    .map(|m| {
                        let mut fields = metric(m.name, m.unit, m.better);
                        fields.push(("bound", Json::Num(m.bound)));
                        Json::obj(fields)
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                traced_names()
                    .iter()
                    .map(|(name, unit, better)| Json::obj(metric(name, unit, *better)))
                    .collect(),
            ),
        ),
    ])
}

/// Whether `name` fits the charset the benchmark contract allows.
#[cfg(test)]
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn every_name_is_unique_and_fits_the_charset() {
        let mut seen = BTreeSet::new();
        for w in Workload::ALL {
            assert!(valid_name(w.name()), "{}", w.name());
            assert!(seen.insert(w.name().to_string()));
            assert!(w.why().len() <= 200 && !w.why().contains('\n'));
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        for m in END_TO_END {
            assert!(valid_name(m.name), "{}", m.name);
            assert!(seen.insert(m.name.to_string()), "duplicate {}", m.name);
            assert!(m.bound <= 0.25);
        }
        for (name, unit, _) in traced_names() {
            assert!(valid_name(&name), "{name}");
            assert!(unit.len() <= 16);
            if end_to_end(&name).is_none() {
                assert!(seen.insert(name.clone()), "duplicate {name}");
            }
        }
        assert!(traced_names().len() <= 128);
        assert!(!valid_name("a b") && !valid_name("-x") && !valid_name(""));
        for u in UNIVERSAL {
            assert_eq!(end_to_end(u).unwrap().workloads.len(), Workload::ALL.len());
        }
    }

    #[test]
    fn committed_benchmark_json_matches_the_dictionaries() {
        let committed = include_str!("../../../../../BENCHMARK.json");
        assert!(committed.len() <= 64 * 1024);
        assert_eq!(Json::parse(committed).unwrap(), benchmark_json());
    }
}
