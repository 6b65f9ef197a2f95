//! On-disk format pinning and write-ahead invariant tests.
//!
//! The byte layouts of the WAL segment, the checkpoint generation file and
//! the manifest are a compatibility contract: `golden_wal_segment_bytes`
//! pins the exact bytes today's writer produces (so any layout change must
//! consciously edit this fixture *and* bump the version tag), and the
//! version-mismatch tests prove that a reader meeting a foreign version
//! fails loudly instead of guessing.  The write-ahead tests drive the
//! documented invariant: the WAL record for batch `k` is durable before
//! snapshot `k` is published, so a crash inside the WAL append leaves both
//! the disk and the in-memory engine at `k-1`.

use clude_engine::{CludeEngine, DurabilityConfig, EngineConfig, FailpointFs, Injection, Vfs};
use clude_graph::DiGraph;
use std::path::Path;
use std::sync::Arc;

const N: usize = 8;
const SPOOL: &str = "/spool";

fn base_graph() -> DiGraph {
    let mut edges: Vec<(usize, usize)> = (0..N).map(|i| (i, (i + 1) % N)).collect();
    edges.push((2, 0));
    DiGraph::from_edges(N, edges)
}

fn config(batch: usize) -> EngineConfig {
    EngineConfig {
        max_batch_ops: batch,
        ring_capacity: 8,
        ..EngineConfig::default()
    }
}

fn durability(fs: &FailpointFs) -> DurabilityConfig {
    DurabilityConfig::new(SPOOL)
        .group_commit(1)
        .checkpoint_every(1_000_000)
        .vfs(Arc::new(fs.clone()))
}

/// The exact segment bytes after one single-edge batch.  8-byte segment
/// header (`CLWL`, version 1) followed by one length/crc-framed record for
/// snapshot 1 whose delta adds edge `(1, 3)`.
#[test]
fn golden_wal_segment_bytes() {
    let fs = FailpointFs::new();
    let (engine, _) = CludeEngine::open_durable(base_graph(), config(1), durability(&fs)).unwrap();
    assert_eq!(engine.insert_edge(1, 3).unwrap(), Some(1));
    let bytes = fs
        .read(Path::new(SPOOL).join("wal-1.log").as_path())
        .unwrap();
    let expected: Vec<u8> = vec![
        0x43, 0x4C, 0x57, 0x4C, // magic "CLWL"
        0x01, 0x00, 0x00, 0x00, // format version 1
        0x28, 0x00, 0x00, 0x00, // payload length = 40
        0x89, 0x7B, 0x9F, 0x1F, // crc32(payload)
        0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // snapshot id 1
        0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // 1 added edge
        0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // u = 1
        0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // v = 3
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // 0 removed edges
    ];
    assert_eq!(
        bytes, expected,
        "WAL segment layout changed — bump WAL_VERSION"
    );
}

/// A spool written by a future (or foreign) format version must be rejected
/// loudly, for each of the three file types.
#[test]
fn foreign_version_tags_fail_loudly() {
    for file in ["MANIFEST", "gen-0.ckpt", "wal-1.log"] {
        let fs = FailpointFs::new();
        let (engine, _) =
            CludeEngine::open_durable(base_graph(), config(1), durability(&fs)).unwrap();
        engine.insert_edge(1, 3).unwrap();
        drop(engine);
        // Bytes 4..8 of every durable file are its little-endian version tag.
        fs.corrupt(Path::new(SPOOL).join(file).as_path(), |bytes| {
            bytes[4] = 0x7F;
        });
        let err = CludeEngine::open_durable(base_graph(), config(1), durability(&fs))
            .expect_err("foreign version must not be readable");
        let msg = format!("{err}");
        assert!(
            msg.contains("version"),
            "error for {file} should name the version mismatch, got: {msg}"
        );
    }
}

/// Corrupting a file's magic is indistinguishable from pointing the engine
/// at someone else's data — also a loud failure.
#[test]
fn foreign_magic_fails_loudly() {
    let fs = FailpointFs::new();
    let (engine, _) = CludeEngine::open_durable(base_graph(), config(1), durability(&fs)).unwrap();
    engine.insert_edge(1, 3).unwrap();
    drop(engine);
    fs.corrupt(Path::new(SPOOL).join("MANIFEST").as_path(), |bytes| {
        bytes[0] = b'X';
    });
    CludeEngine::open_durable(base_graph(), config(1), durability(&fs))
        .expect_err("foreign magic must not be readable");
}

/// Write-ahead invariant, crash side: when the WAL append for batch `k`
/// dies, the batch is aborted *before* any in-memory state advances — the
/// live engine still serves `k-1`, and so does recovery.
#[test]
fn crashed_wal_append_aborts_the_batch_everywhere() {
    let fs = FailpointFs::new();
    let (engine, _) = CludeEngine::open_durable(base_graph(), config(1), durability(&fs)).unwrap();
    assert_eq!(engine.insert_edge(1, 3).unwrap(), Some(1));
    // The next armed append is the WAL record for batch 2: tear it.
    fs.fail_at(fs.writes_seen(), Injection::TornWrite { keep: 7 });
    engine
        .insert_edge(3, 1)
        .expect_err("the torn WAL append must abort the batch");
    assert!(fs.is_dead());
    // The failed batch never advanced the in-memory engine.
    assert_eq!(engine.current_snapshot_id(), 1);
    drop(engine);
    let (recovered, report) =
        CludeEngine::open_durable(base_graph(), config(1), durability(&fs.disarmed())).unwrap();
    assert_eq!(recovered.current_snapshot_id(), 1);
    assert_eq!(report.checkpoint_snapshot, Some(0));
    assert_eq!(report.wal_records_replayed, 1);
    assert_eq!(report.wal_records_truncated, 1);
}

/// Write-ahead invariant, durable side: a batch whose apply returned
/// successfully survives an immediate kill — the record was on disk before
/// the snapshot was published.
#[test]
fn applied_batches_survive_an_immediate_kill() {
    let fs = FailpointFs::new();
    let (engine, _) = CludeEngine::open_durable(base_graph(), config(1), durability(&fs)).unwrap();
    assert_eq!(engine.insert_edge(1, 3).unwrap(), Some(1));
    assert_eq!(engine.remove_edge(1, 3).unwrap(), Some(2));
    // Kill without any shutdown path: drop the engine, keep only the disk.
    drop(engine);
    let (recovered, report) =
        CludeEngine::open_durable(base_graph(), config(1), durability(&fs.disarmed())).unwrap();
    assert_eq!(recovered.current_snapshot_id(), 2);
    assert_eq!(report.wal_records_replayed, 2);
    assert_eq!(report.wal_records_truncated, 0);
    assert_eq!(report.recovered_snapshot, Some(2));
}

/// Recovery re-anchors the spool: reopening twice in a row replays nothing
/// the second time, because the first open wrote a fresh full checkpoint.
#[test]
fn recovery_reanchors_the_spool() {
    let fs = FailpointFs::new();
    let (engine, _) = CludeEngine::open_durable(base_graph(), config(1), durability(&fs)).unwrap();
    engine.insert_edge(1, 3).unwrap();
    engine.insert_edge(3, 6).unwrap();
    drop(engine);
    let (_, first) =
        CludeEngine::open_durable(base_graph(), config(1), durability(&fs.disarmed())).unwrap();
    assert_eq!(first.wal_records_replayed, 2);
    let (second_engine, second) =
        CludeEngine::open_durable(base_graph(), config(1), durability(&fs.disarmed())).unwrap();
    assert_eq!(second.wal_records_replayed, 0);
    assert_eq!(second.checkpoint_snapshot, Some(2));
    assert_eq!(second_engine.current_snapshot_id(), 2);
}
