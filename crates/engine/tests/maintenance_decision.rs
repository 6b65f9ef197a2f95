//! The maintenance decision through the public API: it is a function of the
//! stream alone.  The same operations decide the same arms on every run —
//! also when the second half of the stream is applied by an engine recovered
//! from a checkpoint and a WAL tail — and whichever arms they are, the
//! answers stay those of the uninterrupted engine.

use clude_engine::{
    BatchPolicy, CludeEngine, DurabilityConfig, EdgeOp, EngineConfig, FailpointFs, MaintenanceArm,
};
use clude_graph::generators::wiki_like::{self, WikiLikeConfig};
use clude_graph::DiGraph;
use clude_measures::MeasureQuery;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

const PAGES: usize = 160;
const SPOOL: &str = "/spool";

/// A densifying wiki-like stream: the base graph and the edge operations of
/// every step, removals first.
fn stream() -> (DiGraph, Vec<EdgeOp>) {
    let config = WikiLikeConfig {
        n_pages: PAGES,
        initial_links: 3 * PAGES,
        final_links: 3 * PAGES + 900,
        n_snapshots: 20,
        removals_per_snapshot: 4,
        burst_probability: 0.08,
        burst_size: 10,
    };
    let egs = wiki_like::generate(&config, &mut StdRng::seed_from_u64(11));
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
