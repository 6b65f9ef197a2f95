//! Crash-injection property tests for the durability layer.
//!
//! Each case streams a random (always-valid) edge-op sequence into two
//! engines with identical batch policies: an in-memory *twin* and a durable
//! engine over a [`FailpointFs`].  The failpoint kills the durable engine at
//! a random write — mid-WAL-append, mid-checkpoint, or not at all — and the
//! spool is then reopened through [`CludeEngine::open_durable`] on a
//! disarmed view of the same filesystem.  The recovered engine must agree
//! with the uncrashed twin to within `1e-9` on every measure query at every
//! snapshot id both engines retain.  A third family corrupts the WAL tail
//! *after* a clean run (truncation and bit flips) and additionally asserts
//! that the damage is detected, counted, and journalled — never silently
//! absorbed.

use clude_engine::{CludeEngine, DurabilityConfig, EdgeOp, EngineConfig, FailpointFs, Injection};
use clude_graph::DiGraph;
use clude_measures::MeasureQuery;
use clude_telemetry::{EventKind, Stage};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::path::Path;
use std::sync::Arc;

const N: usize = 12;
const BATCH: usize = 3;
const SPOOL: &str = "/spool";

/// Base graph: a Hamiltonian ring (never removed, so the random-walk matrix
/// stays well-behaved) plus one chord.
fn base_graph() -> DiGraph {
    let mut edges: Vec<(usize, usize)> = (0..N).map(|i| (i, (i + 1) % N)).collect();
    edges.push((2, 0));
    DiGraph::from_edges(N, edges)
}

fn base_edge_set() -> BTreeSet<(usize, usize)> {
    let mut set: BTreeSet<(usize, usize)> = (0..N).map(|i| (i, (i + 1) % N)).collect();
    set.insert((2, 0));
    set
}

fn config(n_shards: usize) -> EngineConfig {
    EngineConfig {
        max_batch_ops: BATCH,
        ring_capacity: 64,
        n_shards,
        ..EngineConfig::default()
    }
}

/// Turns raw random pairs into a stream of ops that are valid at the moment
/// they are offered: inserts of absent non-loop edges, removals of
/// previously inserted extras (ring edges are never removed).  Both engines
/// see the identical stream, so batch boundaries line up exactly.
fn materialize_ops(raw: &[(usize, usize)]) -> Vec<EdgeOp> {
    let ring: BTreeSet<(usize, usize)> = (0..N).map(|i| (i, (i + 1) % N)).collect();
    let mut present = base_edge_set();
    let mut ops = Vec::new();
    for &(u, v) in raw {
        if u == v {
            continue;
        }
        if present.contains(&(u, v)) {
            if !ring.contains(&(u, v)) {
                present.remove(&(u, v));
                ops.push(EdgeOp::Remove(u, v));
            }
        } else {
            present.insert((u, v));
            ops.push(EdgeOp::Insert(u, v));
        }
    }
    ops
}

fn queries() -> Vec<MeasureQuery> {
    vec![
        MeasureQuery::PageRank { damping: 0.85 },
        MeasureQuery::Rwr {
            seed: 0,
            damping: 0.85,
        },
        MeasureQuery::Rwr {
            seed: N / 2,
            damping: 0.85,
        },
        MeasureQuery::HittingTime {
            target: 1,
            damping: 0.85,
        },
    ]
}

/// Feeds `ops` into the twin (which must never fail) and into the durable
/// engine until it crashes or the stream ends.  Returns whether the durable
/// engine died mid-stream.
fn drive(twin: &CludeEngine, durable: &CludeEngine, ops: &[EdgeOp]) -> bool {
    let mut crashed = false;
    for &op in ops {
        twin.offer(op).expect("twin must not fail");
        if !crashed && durable.offer(op).is_err() {
            crashed = true;
        }
    }
    twin.flush().expect("twin must not fail");
    if !crashed && durable.flush().is_err() {
        crashed = true;
    }
    crashed
}

/// Recovers from `fs` and checks the recovered engine against the twin at
/// every snapshot id both retain.  Returns the number of ids compared.
fn assert_recovered_matches_twin(
    twin: &CludeEngine,
    fs: &FailpointFs,
    n_shards: usize,
) -> (CludeEngine, usize) {
    let durability = DurabilityConfig::new(SPOOL).vfs(Arc::new(fs.disarmed()));
    let (recovered, report) = CludeEngine::open_durable(base_graph(), config(n_shards), durability)
        .expect("recovery must succeed");
    let twin_ids: BTreeSet<u64> = twin.retained_snapshot_ids().into_iter().collect();
    let shared: Vec<u64> = recovered
        .retained_snapshot_ids()
        .into_iter()
        .filter(|id| twin_ids.contains(id))
        .collect();
    assert!(
        !shared.is_empty(),
        "no shared snapshot ids (report: {report:?})"
    );
    for &id in &shared {
        for q in queries() {
            let a = twin.query_at(id, &q).expect("twin query");
            let b = recovered.query_at(id, &q).expect("recovered query");
            assert_eq!(a.len(), b.len());
            for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
                assert!(
                    (x - y).abs() <= 1e-9,
                    "snapshot {id}, query {q:?}, node {i}: twin {x} vs recovered {y}"
                );
            }
        }
    }
    let count = shared.len();
    (recovered, count)
}

/// A one-shard spool goes through the same checkpoint image and the same
/// `restore` as every other shard count: two batches, a forced checkpoint,
/// one more logged batch, a kill in the middle of the next WAL append, and
/// a reopen that restores the checkpointed block and replays the tail.
#[test]
fn one_shard_spool_recovers_through_checkpoint_and_wal_tail() {
    let ops = materialize_ops(&[
        (0, 5),
        (3, 9),
        (7, 2),
        (4, 8),
        (1, 6),
        (9, 3),
        (5, 11),
        (2, 7),
        (6, 0),
        (10, 4),
        (8, 1),
        (11, 5),
    ]);
    assert_eq!(ops.len(), 4 * BATCH);
    let fs = FailpointFs::new();
    let durability = DurabilityConfig::new(SPOOL)
        .group_commit(1)
        .checkpoint_every(1_000_000)
        .vfs(Arc::new(fs.clone()));
    let twin = CludeEngine::new(base_graph(), config(1)).unwrap();
    let (durable, cold) = CludeEngine::open_durable(base_graph(), config(1), durability).unwrap();
    assert_eq!(cold.checkpoint_snapshot, None, "the spool starts cold");
    assert_eq!(durable.n_shards(), 1);

    let (head, tail) = ops.split_at(2 * BATCH);
    assert!(!drive(&twin, &durable, head));
    assert!(durable.checkpoint_now().unwrap());
    // Batch 3's record lands; batch 4's is torn and the process dies.
    fs.fail_at(fs.writes_seen() + 1, Injection::TornWrite { keep: 5 });
    assert!(drive(&twin, &durable, tail));
    assert!(fs.is_dead());
    // What the durable run left in its own telemetry: a `wal.append` span
    // per attempted record (the span closes on the torn fourth too), a
    // `checkpoint.write` for the bootstrap image and one for
    // `checkpoint_now`, each journalled.
    let telemetry = durable.telemetry();
    assert_eq!(telemetry.stage_histogram(Stage::WalAppend).count(), 4);
    assert_eq!(telemetry.stage_histogram(Stage::CheckpointWrite).count(), 2);
    assert_eq!(
        telemetry.journal().count_of(EventKind::CheckpointWritten),
        2
    );
    drop(durable);

    let (recovered, compared) = assert_recovered_matches_twin(&twin, &fs, 1);
    assert_eq!(recovered.n_shards(), 1);
    assert_eq!(twin.current_snapshot_id(), 4);
    assert_eq!(recovered.current_snapshot_id(), 3);
    assert!(compared >= 1);
    assert_eq!(
        recovered
            .telemetry()
            .stage_histogram(Stage::RecoveryReplay)
            .count(),
        1,
        "snapshot 3 is the checkpoint at 2 plus one replayed record"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Kill family 1: die mid-WAL-append (checkpoints effectively disabled,
    /// so every armed write is a WAL record append).  The recovered engine
    /// must match the twin at every shared snapshot.
    #[test]
    fn survives_wal_append_crashes(
        raw in proptest::collection::vec((0usize..N, 0usize..N), 9..40),
        kill in 0u64..30,
        torn_bit in 0usize..2,
        n_shards in 1usize..4,
    ) {
        let ops = materialize_ops(&raw);
        let fs = FailpointFs::new();
        let injection = if torn_bit == 1 {
            Injection::TornWrite { keep: 5 }
        } else {
            Injection::DropWrite
        };
        fs.fail_at(kill, injection);
        let durability = DurabilityConfig::new(SPOOL)
            .group_commit(1)
            .checkpoint_every(1_000_000)
            .vfs(Arc::new(fs.clone()));
        let twin = CludeEngine::new(base_graph(), config(n_shards)).unwrap();
        // The failpoint may already fire inside the bootstrap checkpoint —
        // that too is a kill site recovery must absorb.
        match CludeEngine::open_durable(base_graph(), config(n_shards), durability) {
            Ok((durable, _)) => {
                let crashed = drive(&twin, &durable, &ops);
                if crashed {
                    prop_assert!(fs.is_dead(), "only the failpoint may crash the durable engine");
                }
            }
            Err(_) => prop_assert!(fs.is_dead(), "only the failpoint may fail the open"),
        }
        assert_recovered_matches_twin(&twin, &fs, n_shards);
    }

    /// Kill family 2: die mid-checkpoint (aggressive checkpoint interval, so
    /// most armed writes belong to generation/manifest/rotation traffic).
    #[test]
    fn survives_checkpoint_crashes(
        raw in proptest::collection::vec((0usize..N, 0usize..N), 9..40),
        kill in 0u64..60,
        every in 1u64..4,
        n_shards in 1usize..4,
    ) {
        let ops = materialize_ops(&raw);
        let fs = FailpointFs::new();
        fs.fail_at(kill, Injection::TornWrite { keep: 9 });
        let durability = DurabilityConfig::new(SPOOL)
            .group_commit(1)
            .checkpoint_every(every)
            .vfs(Arc::new(fs.clone()));
        let twin = CludeEngine::new(base_graph(), config(n_shards)).unwrap();
        match CludeEngine::open_durable(base_graph(), config(n_shards), durability) {
            Ok((durable, _)) => {
                let crashed = drive(&twin, &durable, &ops);
                if crashed {
                    prop_assert!(fs.is_dead(), "only the failpoint may crash the durable engine");
                }
            }
            Err(_) => prop_assert!(fs.is_dead(), "only the failpoint may fail the open"),
        }
        assert_recovered_matches_twin(&twin, &fs, n_shards);
    }

    /// Kill family 3: a clean run whose WAL tail is then torn, truncated or
    /// bit-flipped.  The damage must be detected (non-zero truncation count,
    /// a `WalTruncated` journal event) and the surviving prefix must still
    /// match the twin.
    #[test]
    fn detects_and_journals_corrupt_wal_tails(
        raw in proptest::collection::vec((0usize..N, 0usize..N), 12..40),
        bite in 1usize..24,
        flip_bit in 0usize..2,
        n_shards in 1usize..4,
    ) {
        let ops = materialize_ops(&raw);
        prop_assume!(ops.len() >= 2 * BATCH);
        let fs = FailpointFs::new();
        let durability = DurabilityConfig::new(SPOOL)
            .group_commit(1)
            .checkpoint_every(1_000_000)
            .vfs(Arc::new(fs.clone()));
        let twin = CludeEngine::new(base_graph(), config(n_shards)).unwrap();
        let (durable, _) =
            CludeEngine::open_durable(base_graph(), config(n_shards), durability).unwrap();
        let crashed = drive(&twin, &durable, &ops);
        prop_assert!(!crashed, "no failpoint armed, the run must be clean");
        drop(durable);

        // The bootstrap checkpoint sits at snapshot 0, so the whole stream
        // is the tail of segment wal-1.log (8-byte header + records).
        let segment = Path::new(SPOOL).join("wal-1.log");
        let len = fs.len_of(&segment).expect("segment exists");
        prop_assume!(len > 8 + bite);
        fs.corrupt(&segment, |bytes| {
            if flip_bit == 1 {
                // Flip a bit strictly inside the record area (never the
                // 8-byte segment header, which is a *loud* failure instead).
                let at = 8 + (bite * 7) % (bytes.len() - 8);
                bytes[at] ^= 0x01;
            } else {
                let keep = bytes.len() - bite;
                bytes.truncate(keep.max(8));
            }
        });

        let (recovered, _) = assert_recovered_matches_twin(&twin, &fs, n_shards);
        let truncated = recovered
            .telemetry()
            .journal()
            .count_of(EventKind::WalTruncated);
        prop_assert_eq!(truncated, 1, "corruption must be journalled exactly once");
        prop_assert!(
            recovered.current_snapshot_id() <= twin.current_snapshot_id(),
            "recovery can only lose the tail, never invent state"
        );
    }
}
