//! Recovery: newest valid checkpoint + WAL replay.
//!
//! Opening a durable engine walks this state machine:
//!
//! 1. **Manifest scan** — parse `MANIFEST`, truncating a torn tail (and
//!    repairing the file so later appends land after valid bytes).  No
//!    records → cold start.
//! 2. **Checkpoint restore** — walk manifest records newest → oldest; the
//!    first whose one generation file validates (magic, version, checksum,
//!    decode) and holds the snapshot the record names wins, and the store
//!    re-derives its factors and coupling from that image.  Checksum/decode
//!    failures fall back to the previous record; a magic/version mismatch
//!    aborts loudly (that spool was written by an incompatible build,
//!    silently regressing to an old generation would be worse than
//!    stopping).
//! 3. **WAL replay** — scan all segments, keep each one's valid prefix,
//!    order records by snapshot id and replay the contiguous run
//!    `S+1, S+2, …` on top of the restored store.  Torn/corrupt tails and
//!    post-gap records are dropped and *counted*, never silently absorbed.
//! 4. **Re-anchor** — the caller writes a fresh full checkpoint so the next
//!    crash replays only new work and stale files can be collected.

use clude_graph::GraphDelta;
use std::path::Path;

use crate::checkpoint::{parse_manifest, read_gen, GenReadError, StoreImage, MANIFEST_NAME};
use crate::error::{EngineError, EngineResult};
use crate::vfs::Vfs;
use crate::wal::{io_err, scan_segment, segment_first_id};

/// What [`crate::CludeEngine::open_durable`] found and did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Snapshot id of the checkpoint the store was restored from (`None` on
    /// cold start).
    pub checkpoint_snapshot: Option<u64>,
    /// Generation number of that checkpoint.
    pub checkpoint_gen: Option<u64>,
    /// WAL records replayed on top of the checkpoint.
    pub wal_records_replayed: u64,
    /// Lower bound on records dropped from torn/corrupt WAL tails (at least
    /// this many; bytes past the first invalid record are unparseable, so
    /// their record count is unknowable).
    pub wal_records_truncated: u64,
    /// The snapshot id the engine resumed at (`None` on cold start).
    pub recovered_snapshot: Option<u64>,
}

/// The loadable checkpoint image plus the highest committed generation
/// number (the bootstrap after recovery numbers its fresh generation above
/// it).
pub(crate) struct LoadedCheckpoint {
    pub(crate) image: StoreImage,
    pub(crate) gen: u64,
    pub(crate) max_committed_gen: u64,
}

/// Restores the newest loadable checkpoint, or `None` when the spool has no
/// committed manifest record (cold start).
pub(crate) fn load_checkpoint(vfs: &dyn Vfs, dir: &Path) -> EngineResult<Option<LoadedCheckpoint>> {
    let path = dir.join(MANIFEST_NAME);
    if !vfs.exists(&path) {
        return Ok(None);
    }
    let bytes = vfs.read(&path).map_err(|e| io_err("read", &path, e))?;
    let (records, valid_len) = parse_manifest(&path, &bytes)?;
    if valid_len < bytes.len() {
        // Rewrite the valid prefix so future appends land after valid bytes,
        // not after a torn frame that would hide them from every reader.
        let mut file = vfs.create(&path).map_err(|e| io_err("repair", &path, e))?;
        file.append(&bytes[..valid_len])
            .map_err(|e| io_err("repair", &path, e))?;
        file.sync().map_err(|e| io_err("sync", &path, e))?;
    }
    if records.is_empty() {
        // A manifest header with no committed record: the very first
        // checkpoint crashed before its commit point.  Nothing was ever
        // durable, so this is a cold start.
        return Ok(None);
    }
    let max_committed_gen = records.iter().map(|r| r.gen).max().unwrap_or(0);
    let mut failures: Vec<String> = Vec::new();
    for record in records.iter().rev() {
        let why = match read_gen(vfs, dir, record.gen) {
            Ok(image) if image.snapshot_id == record.snapshot_id => {
                return Ok(Some(LoadedCheckpoint {
                    image,
                    gen: record.gen,
                    max_committed_gen,
                }))
            }
            Ok(image) => format!(
                "holds snapshot {} where the manifest committed {}",
                image.snapshot_id, record.snapshot_id
            ),
            Err(GenReadError::Hard(e)) => return Err(e),
            Err(GenReadError::Soft(msg)) => msg,
        };
        failures.push(format!("generation {}: {why}", record.gen));
    }
    Err(EngineError::Persistence(format!(
        "no loadable checkpoint generation in {} ({})",
        dir.display(),
        failures.join("; ")
    )))
}

/// The replayable WAL suffix: the contiguous records after `after`, plus a
/// lower bound on what was dropped.
pub(crate) struct WalReplay {
    /// `(snapshot_id, delta)` in replay order, ids `after+1, after+2, …`.
    pub(crate) records: Vec<(u64, GraphDelta)>,
    /// Records dropped: one per torn segment tail, plus every parsed record
    /// made unreachable by a gap in the id sequence.
    pub(crate) dropped: u64,
}

/// Scans every WAL segment in `dir` and assembles the replayable suffix for
/// a checkpoint at snapshot `after`.
pub(crate) fn read_wal(vfs: &dyn Vfs, dir: &Path, after: u64) -> EngineResult<WalReplay> {
    let mut segments: Vec<(u64, std::path::PathBuf)> = vfs
        .list(dir)
        .map_err(|e| io_err("list", dir, e))?
        .into_iter()
        .filter_map(|p| segment_first_id(&p).map(|id| (id, p)))
        .collect();
    segments.sort();
    let mut parsed: Vec<(u64, GraphDelta)> = Vec::new();
    let mut dropped = 0u64;
    for (_, path) in &segments {
        let bytes = vfs.read(path).map_err(|e| io_err("read", path, e))?;
        let scan = scan_segment(path, &bytes)?;
        if scan.torn {
            dropped += 1;
        }
        parsed.extend(scan.records);
    }
    let mut records = Vec::new();
    let mut expected = after + 1;
    for (id, delta) in parsed {
        if id <= after {
            continue; // covered by the checkpoint
        }
        if id == expected {
            records.push((id, delta));
            expected += 1;
        } else {
            // A gap (a lost segment or torn middle) makes everything later
            // unreachable: replaying it would skip states.
            dropped += 1;
        }
    }
    Ok(WalReplay { records, dropped })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::FailpointFs;
    use crate::wal::WalWriter;
    use std::path::PathBuf;

    fn delta(u: usize, v: usize) -> GraphDelta {
        GraphDelta {
            added: vec![(u, v)],
            removed: Vec::new(),
        }
    }

    #[test]
    fn replay_spans_segments_and_skips_covered_ids() {
        let fs = FailpointFs::new();
        let dir = PathBuf::from("/spool");
        let mut w1 = WalWriter::create(&fs, &dir.join("wal-1.log"), 1).unwrap();
        for id in 1..=3 {
            w1.append(id, &delta(0, id as usize)).unwrap();
        }
        let mut w2 = WalWriter::create(&fs, &dir.join("wal-4.log"), 1).unwrap();
        for id in 4..=5 {
            w2.append(id, &delta(1, id as usize)).unwrap();
        }
        let replay = read_wal(&fs, &dir, 2).unwrap();
        assert_eq!(replay.dropped, 0);
        let ids: Vec<u64> = replay.records.iter().map(|r| r.0).collect();
        assert_eq!(ids, vec![3, 4, 5]);
    }

    #[test]
    fn gap_drops_unreachable_records() {
        let fs = FailpointFs::new();
        let dir = PathBuf::from("/spool");
        let mut w1 = WalWriter::create(&fs, &dir.join("wal-1.log"), 1).unwrap();
        w1.append(1, &delta(0, 1)).unwrap();
        // Segment wal-3.log exists but record 2 was never durable.
        let mut w2 = WalWriter::create(&fs, &dir.join("wal-3.log"), 1).unwrap();
        w2.append(3, &delta(0, 2)).unwrap();
        w2.append(4, &delta(0, 3)).unwrap();
        let replay = read_wal(&fs, &dir, 0).unwrap();
        let ids: Vec<u64> = replay.records.iter().map(|r| r.0).collect();
        assert_eq!(ids, vec![1]);
        assert_eq!(replay.dropped, 2);
    }

    #[test]
    fn missing_manifest_is_a_cold_start() {
        let fs = FailpointFs::new();
        assert!(load_checkpoint(&fs, Path::new("/spool")).unwrap().is_none());
    }
}
