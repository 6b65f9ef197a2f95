//! Durability configuration and the per-engine persistence driver.
//!
//! [`DurabilityConfig`] is the user-facing knob set; the crate-private
//! `Persistence` driver is what the engine holds under its ingest lock.  It
//! owns the open WAL segment and the checkpoint writer and enforces the
//! write-ahead ordering: the WAL record for batch `k` is appended (and
//! synced per the group-commit window) *before* any in-memory state
//! advances, and the periodic checkpoint runs *after* snapshot `k` is
//! published.

use std::path::PathBuf;
use std::sync::Arc;

use clude_telemetry::{EngineEvent, Stage, TelemetryRegistry};

use crate::checkpoint::{Checkpointer, StoreImage};
use crate::error::EngineResult;
use crate::vfs::{StdFs, Vfs};
use crate::wal::{segment_name, WalWriter};
use clude_graph::GraphDelta;

/// Where and how an engine persists its deltas and checkpoints.
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// Spool directory holding WAL segments, generation files and the
    /// manifest.  Created on open when missing.
    pub dir: PathBuf,
    /// Group-commit window: sync the WAL every this many appended batches.
    /// `1` syncs per batch; larger windows trade the tail of a crash for
    /// throughput.
    pub group_commit: usize,
    /// Write a checkpoint generation every this many applied batches.
    pub checkpoint_every: u64,
    /// Filesystem implementation; tests substitute a crash-injecting one.
    pub vfs: Arc<dyn Vfs>,
}

impl DurabilityConfig {
    /// Defaults: group-commit window 8, checkpoint every 64 batches, real
    /// filesystem.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        DurabilityConfig {
            dir: dir.into(),
            group_commit: 8,
            checkpoint_every: 64,
            vfs: Arc::new(StdFs),
        }
    }

    /// Replaces the group-commit window.
    pub fn group_commit(mut self, window: usize) -> Self {
        self.group_commit = window.max(1);
        self
    }

    /// Replaces the checkpoint interval (in applied batches).
    pub fn checkpoint_every(mut self, batches: u64) -> Self {
        self.checkpoint_every = batches.max(1);
        self
    }

    /// Replaces the filesystem implementation.
    pub fn vfs(mut self, vfs: Arc<dyn Vfs>) -> Self {
        self.vfs = vfs;
        self
    }
}

/// The engine's durability driver: open WAL segment, checkpoint writer, and
/// the batch countdown to the next checkpoint.  Held inside the ingest
/// mutex, so all of this is single-writer by construction.
pub(crate) struct Persistence {
    vfs: Arc<dyn Vfs>,
    dir: PathBuf,
    wal: WalWriter,
    wal_path: PathBuf,
    ckpt: Checkpointer,
    group_commit: usize,
    checkpoint_every: u64,
    batches_since_checkpoint: u64,
    telemetry: Arc<TelemetryRegistry>,
}

impl Persistence {
    /// Stands up the spool for `image` and makes it durable: a generation
    /// at the image's snapshot id, a fresh WAL segment, and the committing
    /// manifest record.  Used both on cold start (the base graph must be
    /// durable before any batch is accepted) and after a recovery replay
    /// (re-anchoring so the next crash replays only new work).  `first_gen`
    /// must exceed every generation already in the manifest.
    pub(crate) fn bootstrap(
        config: &DurabilityConfig,
        telemetry: Arc<TelemetryRegistry>,
        image: &StoreImage,
        first_gen: u64,
    ) -> EngineResult<Self> {
        let ckpt = Checkpointer::new(Arc::clone(&config.vfs), config.dir.clone(), first_gen);
        // Placeholder writer, immediately replaced by the rotation below;
        // checkpoint_and_rotate never looks at the old writer on bootstrap.
        let wal_path = config.dir.join(segment_name(image.snapshot_id + 1));
        let wal = WalWriter::create(&*config.vfs, &wal_path, config.group_commit)?;
        let mut p = Persistence {
            vfs: Arc::clone(&config.vfs),
            dir: config.dir.clone(),
            wal,
            wal_path,
            ckpt,
            group_commit: config.group_commit,
            checkpoint_every: config.checkpoint_every,
            batches_since_checkpoint: 0,
            telemetry,
        };
        p.checkpoint_state(image)?;
        Ok(p)
    }

    /// Appends the WAL record for the batch that will become `snapshot_id`.
    /// Called *before* the in-memory advance — the write-ahead invariant.
    pub(crate) fn log_batch(&mut self, snapshot_id: u64, delta: &GraphDelta) -> EngineResult<()> {
        let span = self.telemetry.span(Stage::WalAppend);
        let result = self.wal.append(snapshot_id, delta);
        drop(span);
        result
    }

    /// Called after snapshot publication; returns whether the checkpoint
    /// interval elapsed.  Split from [`Persistence::checkpoint_state`] so
    /// the caller only captures a [`StoreImage`] (which copies the partition
    /// and the orderings) on the batches that actually checkpoint.
    pub(crate) fn note_applied(&mut self) -> bool {
        self.batches_since_checkpoint += 1;
        self.batches_since_checkpoint >= self.checkpoint_every
    }

    /// Writes one checkpoint generation holding `image` and rotates the WAL.
    ///
    /// Commit order — each step durable before the next, each prefix
    /// crash-consistent:
    /// 1. generation file written and synced (unreferenced until step 3);
    /// 2. fresh WAL segment created and synced (empty, harmless);
    /// 3. manifest record appended and synced — the commit point;
    /// 4. covered segments and every other generation deleted.
    pub(crate) fn checkpoint_state(&mut self, image: &StoreImage) -> EngineResult<()> {
        let span = self.telemetry.span(Stage::CheckpointWrite);
        let (gen, bytes) = self.ckpt.write_generation(image)?;
        let new_path = self.dir.join(segment_name(image.snapshot_id + 1));
        if new_path != self.wal_path {
            let new_wal = WalWriter::create(&*self.vfs, &new_path, self.group_commit)?;
            self.wal = new_wal;
            self.wal_path = new_path;
        }
        self.ckpt.commit_manifest(gen, image.snapshot_id)?;
        self.ckpt.cleanup(gen, &self.wal_path)?;
        self.batches_since_checkpoint = 0;
        drop(span);
        self.telemetry
            .record_event(EngineEvent::CheckpointWritten { bytes });
        Ok(())
    }

    /// Forces the WAL durability barrier (closing an open group-commit
    /// window early).
    pub(crate) fn sync_wal(&mut self) -> EngineResult<()> {
        self.wal.sync()
    }
}
