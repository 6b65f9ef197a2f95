//! The maintenance decision through the public API: it is a function of the
//! stream alone.  The same operations decide the same arms on every run —
//! also when the second half of the stream is applied by an engine recovered
//! from a checkpoint and a WAL tail — and whichever arms they are, the
//! answers stay those of the uninterrupted engine.  A golden grid pins what
//! the store decides and publishes, batch by batch, bit for bit.

use clude::partition::edge_locality_partition;
use clude_engine::{
    BatchPolicy, CludeEngine, CouplingConfig, DeltaIngestor, DurabilityConfig, EdgeOp,
    EngineConfig, FailpointFs, IngestOutcome, MaintenanceArm, PartitionStrategy, RefreshPolicy,
    ShardedFactorStore,
};
use clude_graph::generators::wiki_like::{self, WikiLikeConfig};
use clude_graph::{btf_partition, DiGraph, MatrixKind, NodePartition};
use clude_measures::MeasureQuery;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

const PAGES: usize = 160;
const SPOOL: &str = "/spool";

/// A densifying wiki-like stream over `PAGES` pages: the base graph and the
/// edge operations of every step, removals first.
fn stream() -> (DiGraph, Vec<EdgeOp>) {
    wiki_stream(PAGES, 900, 4, 11)
}

/// A densifying wiki-like stream of 20 snapshots over `pages` pages, from
/// `3 × pages` links to `added` more, `removals` links removed a snapshot.
fn wiki_stream(pages: usize, added: usize, removals: usize, seed: u64) -> (DiGraph, Vec<EdgeOp>) {
    let config = WikiLikeConfig {
        n_pages: pages,
        initial_links: 3 * pages,
        final_links: 3 * pages + added,
        n_snapshots: 20,
        removals_per_snapshot: removals,
        burst_probability: 0.08,
        burst_size: 10,
    };
    let egs = wiki_like::generate(&config, &mut StdRng::seed_from_u64(seed));
    let mut ops = Vec::new();
    for step in 0..egs.len() - 1 {
        let delta = egs.delta(step);
        ops.extend(delta.removed.iter().map(|&(u, v)| EdgeOp::Remove(u, v)));
        ops.extend(delta.added.iter().map(|&(u, v)| EdgeOp::Insert(u, v)));
    }
    (egs.snapshot(0), ops)
}

fn config(n_shards: usize) -> EngineConfig {
    EngineConfig {
        batch: BatchPolicy::by_count(48),
        n_shards,
        ..EngineConfig::default()
    }
}

/// Per-arm shard-batch counts after each applied batch: the arm sequence, as
/// far as the engine's own counters tell it.
type ArmSequence = Vec<[u64; MaintenanceArm::ALL.len()]>;

/// Streams `ops` and cuts the last batch; returns the arm sequence.
fn drive(engine: &CludeEngine, ops: &[EdgeOp]) -> ArmSequence {
    let mut sequence = Vec::new();
    for &op in ops {
        if engine.offer(op).unwrap().is_some() {
            sequence.push(engine.stats().arms);
        }
    }
    if engine.flush().unwrap().is_some() {
        sequence.push(engine.stats().arms);
    }
    sequence
}

fn answers(engine: &CludeEngine) -> Vec<Vec<f64>> {
    [
        MeasureQuery::PageRank { damping: 0.85 },
        MeasureQuery::Rwr {
            seed: 3,
            damping: 0.85,
        },
        MeasureQuery::Rwr {
            seed: PAGES - 1,
            damping: 0.85,
        },
    ]
    .iter()
    .map(|q| engine.query(q).unwrap().to_vec())
    .collect()
}

fn assert_close(a: &[Vec<f64>], b: &[Vec<f64>]) {
    for (x, y) in a.iter().flatten().zip(b.iter().flatten()) {
        assert!((x - y).abs() <= 1e-9, "{x} vs {y}");
    }
}

#[test]
fn the_same_stream_decides_the_same_arms_on_every_run() {
    let (base, ops) = stream();
    for n_shards in [1, 4] {
        let runs: Vec<(ArmSequence, Vec<Vec<f64>>)> = (0..2)
            .map(|_| {
                let engine = CludeEngine::new(base.clone(), config(n_shards)).unwrap();
                let sequence = drive(&engine, &ops);
                (sequence, answers(&engine))
            })
            .collect();
        assert_eq!(runs[0].0, runs[1].0, "{n_shards} shard(s)");
        assert_close(&runs[0].1, &runs[1].1);
        // Not vacuously: the stream is long enough to cut batches, and on
        // one block its batches change enough columns to be rebuilt.
        let last = runs[0].0.last().expect("the stream cuts batches");
        assert!(last.iter().sum::<u64>() >= runs[0].0.len() as u64);
        if n_shards == 1 {
            assert!(last[MaintenanceArm::Rebuild.index()] > 0, "{last:?}");
        }
    }
}

#[test]
fn a_recovered_engine_decides_the_same_way_on_every_recovery() {
    let (base, ops) = stream();
    let (head, tail) = ops.split_at(ops.len() * 3 / 5);
    for n_shards in [1, 4] {
        // The uninterrupted engine: the answers every recovery must match.
        let twin = CludeEngine::new(base.clone(), config(n_shards)).unwrap();
        drive(&twin, head);
        drive(&twin, tail);
        let expected = answers(&twin);

        let recoveries: Vec<ArmSequence> = (0..2)
            .map(|_| {
                let fs = FailpointFs::new();
                let durability = || DurabilityConfig::new(SPOOL).vfs(Arc::new(fs.disarmed()));
                {
                    let (durable, _) =
                        CludeEngine::open_durable(base.clone(), config(n_shards), durability())
                            .unwrap();
                    // A checkpoint part-way, then a WAL tail past it.
                    let (before, after) = head.split_at(head.len() / 2);
                    drive(&durable, before);
                    assert!(durable.checkpoint_now().unwrap());
                    drive(&durable, after);
                }
                let (recovered, report) =
                    CludeEngine::open_durable(base.clone(), config(n_shards), durability())
                        .unwrap();
                assert!(report.recovered_snapshot.is_some());
                assert!(report.wal_records_replayed > 0);
                let sequence = drive(&recovered, tail);
                assert_close(&answers(&recovered), &expected);
                sequence
            })
            .collect();
        assert!(!recoveries[0].is_empty());
        assert_eq!(recoveries[0], recoveries[1], "{n_shards} shard(s)");
    }
}

/// FNV-1a over a stream of words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn eat(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// One store of the golden grid: `(matrix kind, shards, partition strategy,
/// policy, ops a batch)`.
type GridPoint = (MatrixKind, usize, PartitionStrategy, RefreshPolicy, usize);

/// The grid, in the order of the golden table: both matrix kinds, one shard
/// and four shards under each strategy (`Btf` with a repartition budget),
/// the three policies, batches of 16 and 48 ops.
fn grid() -> Vec<GridPoint> {
    let mut points = Vec::new();
    for kind in [
        MatrixKind::random_walk_default(),
        MatrixKind::SymmetricLaplacian { shift: 1.0 },
    ] {
        for (n_shards, strategy) in [
            (1, PartitionStrategy::EdgeLocality),
            (4, PartitionStrategy::EdgeLocality),
            (4, PartitionStrategy::Btf),
        ] {
            for policy in [
                RefreshPolicy::Incremental,
                RefreshPolicy::default(),
                RefreshPolicy::QualityTriggered {
                    max_quality_loss: 0.2,
                },
            ] {
                for batch in [16, 48] {
                    points.push((kind, n_shards, strategy, policy, batch));
                }
            }
        }
    }
    points
}

/// Streams `ops` through a [`ShardedFactorStore`] over `base`, cut into
/// batches the way the engine cuts them, and returns the per-arm shard-batch
/// counts and a hash of, per batch, every shard's arm and the `(row, col,
/// value bits)` of every block the batch published.
fn pin_run(base: &DiGraph, ops: &[EdgeOp], point: GridPoint) -> ([u64; 4], u64) {
    let (kind, n_shards, strategy, policy, batch) = point;
    let partition = match (n_shards, strategy) {
        (1, _) => NodePartition::singleton(base.n_nodes()),
        (_, PartitionStrategy::EdgeLocality) => edge_locality_partition(base, n_shards),
        (_, PartitionStrategy::Btf) => btf_partition(base, kind, n_shards).0,
    };
    let mut store = ShardedFactorStore::new(base.clone(), kind, policy, partition)
        .unwrap()
        .with_partition_strategy(strategy);
    if strategy == PartitionStrategy::Btf {
        let budget = store.coupling_nnz() + 40;
        store = store
            .with_coupling_config(CouplingConfig {
                repartition_budget: Some(budget),
                ..CouplingConfig::default()
            })
            .unwrap();
    }
    let (mut arms, mut hash) = ([0u64; 4], Fnv::new());
    let mut absorb = |store: &mut ShardedFactorStore, delta| {
        let report = store.advance(&delta).unwrap();
        for shard in &report.per_shard {
            hash.eat(shard.arm.map_or(0, |arm| arm.index() as u64 + 1));
            if let Some(arm) = shard.arm {
                arms[arm.index()] += 1;
            }
        }
        for (s, shard) in store.snapshot().shards().iter().enumerate() {
            let block = shard.decomposed();
            if block.index as u64 != report.snapshot_id {
                continue;
            }
            hash.eat(s as u64);
            let Some(clude::MatrixFactors::Static(factors)) = &block.factors else {
                panic!("engine blocks hold static factors");
            };
            for (i, j, v) in factors.export_entries() {
                hash.eat(i as u64);
                hash.eat(j as u64);
                hash.eat(v.to_bits());
            }
        }
    };
    let mut ingest = DeltaIngestor::new(BatchPolicy::by_count(batch));
    for &op in ops {
        if let IngestOutcome::Flush(delta) = ingest.offer(op, store.graph()).unwrap() {
            absorb(&mut store, delta);
        }
    }
    if let Some(delta) = ingest.flush() {
        absorb(&mut store, delta);
    }
    (arms, hash.0)
}

/// The 160-page stream (`stream`): +900 links, 4 removals a snapshot, seed
/// 11.  Per grid point, in [`grid`] order: the per-arm shard-batch counts
/// (sweep / frozen / rebuild / re-order) and the hash [`pin_run`] returns.
/// Captured before the shards held their matrix in factor coordinates, like
/// [`GOLDEN_600`].
const GOLDEN_160: [([u64; 4], u64); 36] = [
    // random walk, 1 shard
    ([16, 0, 51, 0], 18233842153966431801),
    ([1, 0, 22, 0], 16395784448785433164),
    ([20, 0, 44, 3], 13048312884462568483),
    ([1, 0, 19, 3], 18026533661004565172),
    ([26, 0, 29, 12], 3835696048594915105),
    ([1, 0, 14, 8], 11136152450814304340),
    // random walk, 4 shards, edge locality
    ([146, 110, 0, 0], 8933251641226167549),
    ([74, 14, 2, 0], 11651446584532207288),
    ([148, 105, 0, 3], 8898006033419027012),
    ([75, 12, 0, 3], 17534793058471156568),
    ([144, 96, 0, 16], 7191556747427169730),
    ([65, 11, 0, 14], 7969507929793308866),
    // random walk, 4 shards, BTF
    ([95, 70, 14, 0], 10474420626881263479),
    ([19, 4, 17, 0], 14644196432343426100),
    ([95, 70, 14, 0], 10474420626881263479),
    ([19, 4, 16, 1], 4128976386993653982),
    ([93, 65, 11, 10], 16587447478955090782),
    ([18, 3, 12, 7], 6142910082092858632),
    // Laplacian, 1 shard
    ([3, 0, 64, 0], 5321201799142822397),
    ([1, 0, 22, 0], 10799289661757441063),
    ([4, 0, 60, 3], 15167123756112909021),
    ([1, 0, 19, 3], 1329657310785599584),
    ([5, 0, 50, 12], 6635659303631986746),
    ([1, 0, 14, 8], 7429565403236707499),
    // Laplacian, 4 shards, edge locality
    ([146, 118, 0, 0], 10392563206177878965),
    ([71, 14, 5, 0], 4710531347558337499),
    ([148, 113, 0, 3], 8879507971570211779),
    ([72, 12, 3, 3], 33507684787938521),
    ([144, 104, 0, 16], 3070082448423933375),
    ([63, 11, 2, 14], 5497139938675580730),
    // Laplacian, 4 shards, BTF
    ([102, 96, 17, 0], 4194425699569293619),
    ([49, 14, 11, 0], 732436480936645821),
    ([101, 95, 17, 2], 12675968770027830659),
    ([48, 14, 10, 2], 5521253822602716355),
    ([100, 91, 13, 11], 1004548597746670188),
    ([45, 13, 7, 9], 17360154763945333971),
];

/// A 600-page stream (`wiki_stream(600, 3_000, 20, 97)`): +3,000 links, 20
/// removals a snapshot, seed 97.
const GOLDEN_600: [([u64; 4], u64); 36] = [
    // random walk, 1 shard
    ([22, 7, 205, 0], 17037714195481360836),
    ([0, 0, 78, 0], 6414222419109841711),
    ([21, 6, 202, 5], 11502374888307551600),
    ([0, 0, 73, 5], 8346149119581217869),
    ([52, 6, 151, 25], 9233043249660290678),
    ([0, 0, 60, 18], 16139304766496874896),
    // random walk, 4 shards, edge locality
    ([470, 433, 0, 0], 3985954739028089478),
    ([258, 47, 7, 0], 8186361267997587658),
    ([474, 424, 0, 5], 2139081859355553618),
    ([261, 45, 1, 5], 1686624717558464110),
    ([465, 418, 0, 20], 1927267133330982320),
    ([251, 42, 0, 19], 5802138877288076759),
    // random walk, 4 shards, BTF
    ([255, 214, 87, 0], 17560122653934642241),
    ([121, 25, 47, 0], 5237536663176259864),
    ([253, 213, 87, 3], 4344908141255653031),
    ([120, 25, 45, 3], 17075085770281279676),
    ([255, 208, 73, 20], 18208242901818259293),
    ([111, 25, 39, 18], 6763903424211119008),
    // Laplacian, 1 shard
    ([2, 7, 225, 0], 6361604146420864151),
    ([0, 0, 78, 0], 6041431212967902134),
    ([2, 6, 221, 5], 17285010571473006386),
    ([0, 0, 73, 5], 8094634012683744420),
    ([1, 5, 202, 26], 9631022175322445825),
    ([0, 0, 60, 18], 11580976316746696286),
    // Laplacian, 4 shards, edge locality
    ([468, 457, 2, 0], 11853462214608664606),
    ([237, 47, 28, 0], 7746356824164683254),
    ([472, 448, 2, 5], 17832154128676714527),
    ([235, 45, 27, 5], 15669900573898916308),
    ([461, 444, 3, 19], 18346639754568225874),
    ([242, 42, 9, 19], 4974455935182710040),
    // Laplacian, 4 shards, BTF
    ([314, 394, 64, 0], 16667780334926610578),
    ([132, 75, 56, 0], 13464455984303103281),
    ([318, 387, 64, 3], 18304363973126509827),
    ([145, 75, 40, 3], 3382171590744407654),
    ([303, 388, 62, 19], 8494068925653080893),
    ([142, 75, 31, 15], 10138308680235206200),
];

/// Checks the six grid points of `group` (one matrix kind and shard
/// configuration, [`grid`] order) on both streams against the golden tables,
/// and reports every mismatch at once.
fn assert_pinned(group: usize) {
    let points = &grid()[6 * group..6 * (group + 1)];
    let mut mismatches = Vec::new();
    for ((base, ops), golden) in [
        (stream(), &GOLDEN_160),
        (wiki_stream(600, 3_000, 20, 97), &GOLDEN_600),
    ] {
        for (&point, &want) in points.iter().zip(&golden[6 * group..]) {
            let got = pin_run(&base, &ops, point);
            if got != want {
                let pages = base.n_nodes();
                mismatches.push(format!(
                    "{pages} pages, {point:?}: {got:?}, pinned {want:?}"
                ));
            }
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}

#[test]
fn random_walk_one_shard_publishes_the_pinned_blocks() {
    assert_pinned(0);
}

#[test]
fn random_walk_four_edge_locality_shards_publish_the_pinned_blocks() {
    assert_pinned(1);
}

#[test]
fn random_walk_four_btf_shards_publish_the_pinned_blocks() {
    assert_pinned(2);
}

#[test]
fn laplacian_one_shard_publishes_the_pinned_blocks() {
    assert_pinned(3);
}

#[test]
fn laplacian_four_edge_locality_shards_publish_the_pinned_blocks() {
    assert_pinned(4);
}

#[test]
fn laplacian_four_btf_shards_publish_the_pinned_blocks() {
    assert_pinned(5);
}
