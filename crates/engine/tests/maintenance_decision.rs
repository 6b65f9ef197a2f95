//! The maintenance decision through the public API: it is a function of the
//! stream alone.  The same operations decide the same arms on every run —
//! also when the second half of the stream is applied by an engine recovered
//! from a checkpoint and a WAL tail — and whichever arms they are, the
//! answers stay those of the uninterrupted engine.  A golden grid pins what
//! the store decides and publishes, batch by batch, bit for bit.

use clude::partition::edge_locality_partition;
use clude_engine::{
    BatchPolicy, CludeEngine, DeltaIngestor, DurabilityConfig, EdgeOp, EngineConfig, FailpointFs,
    IngestOutcome, MaintenanceArm, PartitionStrategy, ShardedFactorStore,
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

/// Per-arm shard-batch counts, in [`MaintenanceArm::ALL`] order.
type Arms = [u64; MaintenanceArm::ALL.len()];

/// Per-arm shard-batch counts after each applied batch: the arm sequence, as
/// far as the engine's own counters tell it.
type ArmSequence = Vec<Arms>;

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
        // Not vacuously: the stream is long enough to cut batches, and its
        // slices are absorbed by the reach pass over their blocks.
        let last = runs[0].0.last().expect("the stream cuts batches");
        assert!(last.iter().sum::<u64>() >= runs[0].0.len() as u64);
        assert!(last[MaintenanceArm::Refactor.index()] > 0, "{last:?}");
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
/// quality-loss budget, ops a batch)`.
type GridPoint = (MatrixKind, usize, PartitionStrategy, f64, usize);

/// The grid, in the order of the golden table: both matrix kinds, one shard
/// and four shards under each strategy, the three budgets (INC, the
/// default, 0.2), batches of 16
/// and 48 ops.
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
            for budget in [f64::INFINITY, 1.0, 0.2] {
                for batch in [16, 48] {
                    points.push((kind, n_shards, strategy, budget, batch));
                }
            }
        }
    }
    points
}

/// Streams `ops` through a [`ShardedFactorStore`] over `base`, partitioned
/// by the point's strategy for the whole stream and cut into batches the way
/// the engine cuts them, and returns the per-arm shard-batch counts and a
/// hash of, per batch, every shard's arm and the `(row, col, value bits)` of
/// every block the batch published.
fn pin_run(base: &DiGraph, ops: &[EdgeOp], point: GridPoint) -> (Arms, u64) {
    let (kind, n_shards, strategy, budget, batch) = point;
    let partition = match (n_shards, strategy) {
        (1, _) => NodePartition::singleton(base.n_nodes()),
        (_, PartitionStrategy::EdgeLocality) => edge_locality_partition(base, n_shards),
        (_, PartitionStrategy::Btf) => btf_partition(base, kind, n_shards).0,
    };
    let mut store = ShardedFactorStore::new(base.clone(), kind, budget, partition).unwrap();
    let (mut arms, mut hash) = ([0u64; MaintenanceArm::ALL.len()], Fnv::new());
    let mut absorb = |store: &mut ShardedFactorStore, delta| {
        let report = store.advance(&delta).unwrap();
        for shard in &report.per_shard {
            hash.eat(shard.arm.map_or(0, |arm| arm.index() as u64 + 1));
            if let Some(arm) = shard.arm {
                arms[arm.index()] += 1;
            }
        }
        for (s, block) in store.snapshot().shards().iter().enumerate() {
            if block.index as u64 != report.snapshot_id {
                continue;
            }
            hash.eat(s as u64);
            for (i, j, v) in block.factors.export_entries() {
                hash.eat(i as u64);
                hash.eat(j as u64);
                hash.eat(v.to_bits());
            }
        }
    };
    let mut ingest = DeltaIngestor::new(BatchPolicy::by_count(batch)).unwrap();
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
/// (reach pass / re-order) and the hash [`pin_run`] returns.  Captured when
/// every slice the quality trigger did not re-order took the reach pass over
/// its extended block, like [`GOLDEN_600`].
const GOLDEN_160: [(Arms, u64); 36] = [
    // random walk, 1 shard
    ([67, 0], 14061729011440564921),
    ([23, 0], 2401290077758664153),
    ([64, 3], 5240872561606714905),
    ([20, 3], 3926762771195780390),
    ([55, 12], 5389052807883945220),
    ([15, 8], 1734253875358735926),
    // random walk, 4 shards, edge locality
    ([256, 0], 15266654997669377094),
    ([90, 0], 9083998203102177115),
    ([253, 3], 3321602333532992538),
    ([87, 3], 17060126587696152217),
    ([240, 16], 4461030591014114488),
    ([76, 14], 15548469390352179136),
    // random walk, 4 shards, BTF
    ([257, 0], 7879022439695379233),
    ([90, 0], 9851497946564905951),
    ([252, 5], 7280741036301033341),
    ([85, 5], 837815670994144187),
    ([240, 17], 17785491737338041938),
    ([76, 14], 5994480589877320027),
    // Laplacian, 1 shard
    ([67, 0], 3074325159779102928),
    ([23, 0], 8818060776597988585),
    ([64, 3], 18032143295894179434),
    ([20, 3], 12319646803624895056),
    ([55, 12], 12063790379155007830),
    ([15, 8], 2439591846594891143),
    // Laplacian, 4 shards, edge locality
    ([264, 0], 9232431735895835165),
    ([90, 0], 1775579059752942603),
    ([261, 3], 1193029260114502362),
    ([87, 3], 4945261703585304887),
    ([248, 16], 10292776446555086232),
    ([76, 14], 17247737718465260284),
    // Laplacian, 4 shards, BTF
    ([263, 0], 12143995555835377279),
    ([91, 0], 6362208472607706670),
    ([259, 4], 10982729584980539917),
    ([87, 4], 7169762413773370646),
    ([247, 16], 8189842476155316289),
    ([78, 13], 8481608675435600184),
];

/// A 600-page stream (`wiki_stream(600, 3_000, 20, 97)`): +3,000 links, 20
/// removals a snapshot, seed 97.
const GOLDEN_600: [(Arms, u64); 36] = [
    // random walk, 1 shard
    ([234, 0], 13857610435120346806),
    ([78, 0], 4275418579722723567),
    ([228, 6], 18080652297051246507),
    ([73, 5], 10131919729908108493),
    ([209, 25], 5020060450064504008),
    ([60, 18], 3043057214484602486),
    // random walk, 4 shards, edge locality
    ([903, 0], 6181284788061057575),
    ([312, 0], 18205424245485467851),
    ([898, 5], 3224640073408967667),
    ([307, 5], 1192979709644802515),
    ([883, 20], 15536656296891586324),
    ([293, 19], 15607078333935807444),
    // random walk, 4 shards, BTF
    ([923, 0], 13010721453011682127),
    ([312, 0], 18214639837065144514),
    ([918, 5], 9771149040481126933),
    ([307, 5], 509287038092823462),
    ([900, 23], 2580941506536313362),
    ([291, 21], 11709793190334515941),
    // Laplacian, 1 shard
    ([234, 0], 887642570394055420),
    ([78, 0], 2519483713528507758),
    ([228, 6], 2198369224810638239),
    ([73, 5], 3265928636421109137),
    ([209, 25], 13829020510700384860),
    ([60, 18], 14358625854179530780),
    // Laplacian, 4 shards, edge locality
    ([927, 0], 8789336992080940450),
    ([312, 0], 8724340929681792184),
    ([922, 5], 4667590531913448220),
    ([307, 5], 8911461545582442782),
    ([907, 20], 17045968907959057508),
    ([293, 19], 13125848638296055490),
    // Laplacian, 4 shards, BTF
    ([930, 0], 8986809198104753986),
    ([312, 0], 16970636435304784955),
    ([925, 5], 12864335219513663981),
    ([308, 4], 4019668352805151468),
    ([910, 20], 7302724705178186155),
    ([294, 18], 7499924029894519272),
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
