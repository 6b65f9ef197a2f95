//! Incremental checkpoints: generation files, the manifest chain, and the
//! change detector that decides which factor blocks each generation must
//! carry.
//!
//! A checkpoint *generation* (`gen-<g>.ckpt`) snapshots the durable part of
//! the factor store: the graph, the partition, the frozen coupling entries,
//! and — incrementally — only the factor blocks *republished since the
//! previous generation*.  Unchanged shards are covered by earlier
//! generations; the `MANIFEST` record committed for generation `g` carries,
//! per shard, the generation whose copy of that shard's block is current.
//! Change detection is pointer identity ([`Arc::ptr_eq`]) on the published
//! block `Arc`s: the copy-on-write ring republishes a block if and only if
//! an advance touched it, so pointer equality is exact, not heuristic.
//!
//! ## On-disk layout
//!
//! ```text
//! gen file  := magic:u32le version:u32le crc:u32le payload
//! payload   := gen:u64 snapshot_id:u64 kind graph partition
//!              next_repartition_flagged coupling_entries changed_blocks
//! block     := shard:usize index:u64 reference_nnz:u64 n:usize
//!              row_new_to_old:seq col_new_to_old:seq entries
//!
//! MANIFEST  := magic:u32le version:u32le record*
//! record    := len:u32le crc:u32le payload[len]
//! payload   := gen:u64 snapshot_id:u64 k:usize shard_gen:u64 × k
//! ```
//!
//! The gen-file `crc` covers the whole payload; a mismatch makes the
//! generation unusable and recovery falls back to the previous manifest
//! record.  The manifest itself is append-only with the same torn-tail rule
//! as the WAL.  Commit order is: gen file synced → fresh WAL segment synced
//! → manifest record synced → garbage (covered segments, unreferenced
//! generations) deleted.  A crash between any two steps leaves the previous
//! manifest record and everything it references intact.

use clude::DecomposedMatrix;
use clude_graph::{wire, DiGraph, MatrixKind, NodePartition, WireReader, WireWriter};
use clude_lu::LuFactors;
use clude_sparse::{Ordering, Permutation};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::error::{EngineError, EngineResult};
use crate::vfs::Vfs;
use crate::wal::{crc32, io_err};

/// `b"CLCK"`: CLude ChecKpoint generation file.
pub(crate) const CKPT_MAGIC: u32 = u32::from_le_bytes(*b"CLCK");
/// Generation-file format version; readers reject any other.
pub(crate) const CKPT_VERSION: u32 = 1;
/// `b"CLMF"`: CLude ManiFest.
pub(crate) const MANIFEST_MAGIC: u32 = u32::from_le_bytes(*b"CLMF");
/// Manifest format version; readers reject any other.
pub(crate) const MANIFEST_VERSION: u32 = 1;
/// File name of the manifest chaining checkpoint generations.
pub(crate) const MANIFEST_NAME: &str = "MANIFEST";

/// File name of generation `gen`.
pub(crate) fn gen_name(gen: u64) -> String {
    format!("gen-{gen}.ckpt")
}

/// Parses `gen-<g>.ckpt` back into `g`.
pub(crate) fn gen_of_path(path: &Path) -> Option<u64> {
    let name = path.file_name()?.to_str()?;
    let digits = name.strip_prefix("gen-")?.strip_suffix(".ckpt")?;
    digits.parse().ok()
}

/// The durable slice of a factor store, captured under the ingest lock.
///
/// `blocks[s]` is the published (copy-on-write) block of shard `s` plus the
/// shard's `reference_nnz` quality anchor.  The published block *is* the
/// shard's live storage, so serialising from the snapshot side is exact.
pub(crate) struct DurableState {
    pub(crate) snapshot_id: u64,
    pub(crate) kind: MatrixKind,
    pub(crate) graph: DiGraph,
    pub(crate) partition: NodePartition,
    pub(crate) next_repartition_at: Option<usize>,
    pub(crate) coupling: Vec<(usize, usize, f64)>,
    pub(crate) blocks: Vec<(Arc<DecomposedMatrix>, usize)>,
}

/// One shard's factor block decoded from a generation file, ready to be
/// rebuilt into live `OrderedFactors`.
pub(crate) struct RestoredBlock {
    pub(crate) index: u64,
    pub(crate) reference_nnz: usize,
    pub(crate) ordering: Ordering,
    pub(crate) factors: LuFactors,
}

/// A fully assembled store image: the newest generation's store-wide fields
/// plus, per shard, the block pulled from whichever generation last wrote
/// it.
pub(crate) struct StoreState {
    pub(crate) snapshot_id: u64,
    pub(crate) kind: MatrixKind,
    pub(crate) graph: DiGraph,
    pub(crate) partition: NodePartition,
    pub(crate) next_repartition_at: Option<usize>,
    pub(crate) coupling: Vec<(usize, usize, f64)>,
    pub(crate) blocks: Vec<RestoredBlock>,
}

/// A decoded generation file.
pub(crate) struct GenFile {
    pub(crate) gen: u64,
    pub(crate) snapshot_id: u64,
    pub(crate) kind: MatrixKind,
    pub(crate) graph: DiGraph,
    pub(crate) partition: NodePartition,
    pub(crate) next_repartition_at: Option<usize>,
    pub(crate) coupling: Vec<(usize, usize, f64)>,
    /// `(shard, block)` for every shard this generation carries.
    pub(crate) blocks: Vec<(usize, RestoredBlock)>,
}

/// Why a generation file could not be used.
pub(crate) enum GenReadError {
    /// Unrecoverable: wrong magic or a version this build cannot read.
    /// Falling back to an older generation would mask an operational error
    /// (pointing a new binary at an incompatible spool), so this aborts
    /// recovery.
    Hard(EngineError),
    /// Recoverable: missing file, bad checksum, or a payload that fails to
    /// decode.  Recovery falls back to the previous manifest record.
    Soft(String),
}

/// One manifest record: a committed generation and its per-shard coverage.
pub(crate) struct ManifestRecord {
    pub(crate) gen: u64,
    pub(crate) snapshot_id: u64,
    pub(crate) shard_gens: Vec<u64>,
}

impl ManifestRecord {
    /// Every generation this record needs on disk.
    pub(crate) fn live_gens(&self) -> BTreeSet<u64> {
        let mut live: BTreeSet<u64> = self.shard_gens.iter().copied().collect();
        live.insert(self.gen);
        live
    }
}

fn encode_kind(w: &mut WireWriter, kind: MatrixKind) {
    match kind {
        MatrixKind::RandomWalk { damping } => {
            w.put_u32(0);
            w.put_f64(damping);
        }
        MatrixKind::SymmetricLaplacian { shift } => {
            w.put_u32(1);
            w.put_f64(shift);
        }
    }
}

fn decode_kind(r: &mut WireReader<'_>) -> Result<MatrixKind, String> {
    let tag = r.get_u32().map_err(|e| e.to_string())?;
    let param = r.get_f64().map_err(|e| e.to_string())?;
    match tag {
        0 => Ok(MatrixKind::RandomWalk { damping: param }),
        1 => Ok(MatrixKind::SymmetricLaplacian { shift: param }),
        other => Err(format!("unknown matrix-kind tag {other}")),
    }
}

fn encode_block(w: &mut WireWriter, shard: usize, block: &DecomposedMatrix, reference_nnz: usize) {
    // Every slot of the live block, explicit zeros included: the entry list
    // `decode_block` rebuilds the same block from.
    let factors = crate::store::static_factors(block);
    w.put_usize(shard);
    w.put_u64(block.index as u64);
    w.put_u64(reference_nnz as u64);
    w.put_usize(factors.n());
    w.put_usize_seq(block.ordering.row().as_new_to_old());
    w.put_usize_seq(block.ordering.col().as_new_to_old());
    let entries = factors.export_entries();
    w.put_usize(entries.len());
    for (i, j, v) in entries {
        w.put_usize(i);
        w.put_usize(j);
        w.put_f64(v);
    }
}

fn decode_block(r: &mut WireReader<'_>) -> Result<(usize, RestoredBlock), String> {
    let shard = r.get_usize().map_err(|e| e.to_string())?;
    let index = r.get_u64().map_err(|e| e.to_string())?;
    let reference_nnz = r.get_u64().map_err(|e| e.to_string())? as usize;
    let n = r.get_usize().map_err(|e| e.to_string())?;
    let row = r.get_usize_seq().map_err(|e| e.to_string())?;
    let col = r.get_usize_seq().map_err(|e| e.to_string())?;
    if row.len() != n || col.len() != n {
        return Err(format!(
            "shard {shard} permutations of length {}/{} for order {n}",
            row.len(),
            col.len()
        ));
    }
    let count = r.get_usize().map_err(|e| e.to_string())?;
    let mut entries = Vec::new();
    for _ in 0..count {
        let i = r.get_usize().map_err(|e| e.to_string())?;
        let j = r.get_usize().map_err(|e| e.to_string())?;
        let v = r.get_f64().map_err(|e| e.to_string())?;
        entries.push((i, j, v));
    }
    let row = Permutation::from_new_to_old(row).map_err(|e| e.to_string())?;
    let col = Permutation::from_new_to_old(col).map_err(|e| e.to_string())?;
    let factors = LuFactors::from_sorted_entries(n, &entries)
        .map_err(|e| format!("shard {shard} factors: {e}"))?;
    Ok((
        shard,
        RestoredBlock {
            index,
            reference_nnz,
            ordering: Ordering::new(row, col),
            factors,
        },
    ))
}

fn encode_gen_payload(gen: u64, state: &DurableState, changed: &[usize]) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.put_u64(gen);
    w.put_u64(state.snapshot_id);
    encode_kind(&mut w, state.kind);
    wire::encode_graph(&mut w, &state.graph);
    wire::encode_partition(&mut w, &state.partition);
    match state.next_repartition_at {
        Some(at) => {
            w.put_u32(1);
            w.put_u64(at as u64);
        }
        None => {
            w.put_u32(0);
            w.put_u64(0);
        }
    }
    w.put_usize(state.coupling.len());
    for &(i, j, v) in &state.coupling {
        w.put_usize(i);
        w.put_usize(j);
        w.put_f64(v);
    }
    w.put_usize(changed.len());
    for &s in changed {
        let (block, reference_nnz) = &state.blocks[s];
        encode_block(&mut w, s, block, *reference_nnz);
    }
    w.into_bytes()
}

fn decode_gen_payload(payload: &[u8]) -> Result<GenFile, String> {
    let mut r = WireReader::new(payload);
    let gen = r.get_u64().map_err(|e| e.to_string())?;
    let snapshot_id = r.get_u64().map_err(|e| e.to_string())?;
    let kind = decode_kind(&mut r)?;
    let graph = wire::decode_graph(&mut r).map_err(|e| e.to_string())?;
    let partition = wire::decode_partition(&mut r).map_err(|e| e.to_string())?;
    let flag = r.get_u32().map_err(|e| e.to_string())?;
    let at = r.get_u64().map_err(|e| e.to_string())?;
    let next_repartition_at = (flag == 1).then_some(at as usize);
    let count = r.get_usize().map_err(|e| e.to_string())?;
    let mut coupling = Vec::new();
    for _ in 0..count {
        let i = r.get_usize().map_err(|e| e.to_string())?;
        let j = r.get_usize().map_err(|e| e.to_string())?;
        let v = r.get_f64().map_err(|e| e.to_string())?;
        coupling.push((i, j, v));
    }
    let n_blocks = r.get_usize().map_err(|e| e.to_string())?;
    let mut blocks = Vec::new();
    for _ in 0..n_blocks {
        blocks.push(decode_block(&mut r)?);
    }
    if !r.is_exhausted() {
        return Err(format!(
            "{} trailing bytes after the last block",
            r.remaining()
        ));
    }
    Ok(GenFile {
        gen,
        snapshot_id,
        kind,
        graph,
        partition,
        next_repartition_at,
        coupling,
        blocks,
    })
}

/// Reads and validates generation `gen` from `dir`.
pub(crate) fn read_gen(vfs: &dyn Vfs, dir: &Path, gen: u64) -> Result<GenFile, GenReadError> {
    let path = dir.join(gen_name(gen));
    let bytes = vfs
        .read(&path)
        .map_err(|e| GenReadError::Soft(format!("read {}: {e}", path.display())))?;
    if bytes.len() < 12 {
        return Err(GenReadError::Soft(format!(
            "{} too short for a generation header",
            path.display()
        )));
    }
    let magic = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
    let version = u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]);
    let crc = u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]);
    if magic != CKPT_MAGIC {
        return Err(GenReadError::Hard(EngineError::Persistence(format!(
            "{} is not a checkpoint generation (bad magic {magic:#010x})",
            path.display()
        ))));
    }
    if version != CKPT_VERSION {
        return Err(GenReadError::Hard(EngineError::Persistence(format!(
            "{} has checkpoint format version {version}, this build reads only {CKPT_VERSION}",
            path.display()
        ))));
    }
    let payload = &bytes[12..];
    if crc32(payload) != crc {
        return Err(GenReadError::Soft(format!(
            "{} fails its checksum",
            path.display()
        )));
    }
    let decoded = decode_gen_payload(payload)
        .map_err(|e| GenReadError::Soft(format!("{}: {e}", path.display())))?;
    if decoded.gen != gen {
        return Err(GenReadError::Soft(format!(
            "{} claims generation {} in its payload",
            path.display(),
            decoded.gen
        )));
    }
    Ok(decoded)
}

/// Parses the manifest, returning its valid records and the byte length of
/// the valid prefix (trailing torn bytes excluded).
pub(crate) fn parse_manifest(
    path: &Path,
    bytes: &[u8],
) -> EngineResult<(Vec<ManifestRecord>, usize)> {
    if bytes.len() < 8 {
        return Ok((Vec::new(), 0));
    }
    let magic = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
    let version = u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]);
    if magic != MANIFEST_MAGIC {
        return Err(EngineError::Persistence(format!(
            "{} is not a checkpoint manifest (bad magic {magic:#010x})",
            path.display()
        )));
    }
    if version != MANIFEST_VERSION {
        return Err(EngineError::Persistence(format!(
            "{} has manifest format version {version}, this build reads only {MANIFEST_VERSION}",
            path.display()
        )));
    }
    let mut records = Vec::new();
    let mut pos = 8usize;
    loop {
        let remaining = bytes.len() - pos;
        if remaining < 8 {
            break;
        }
        let len = u32::from_le_bytes([bytes[pos], bytes[pos + 1], bytes[pos + 2], bytes[pos + 3]])
            as usize;
        let crc = u32::from_le_bytes([
            bytes[pos + 4],
            bytes[pos + 5],
            bytes[pos + 6],
            bytes[pos + 7],
        ]);
        if remaining - 8 < len {
            break;
        }
        let payload = &bytes[pos + 8..pos + 8 + len];
        if crc32(payload) != crc {
            break;
        }
        let mut r = WireReader::new(payload);
        let Ok(gen) = r.get_u64() else { break };
        let Ok(snapshot_id) = r.get_u64() else { break };
        let Ok(k) = r.get_usize() else { break };
        let mut shard_gens = Vec::new();
        let mut ok = true;
        for _ in 0..k {
            match r.get_u64() {
                Ok(g) => shard_gens.push(g),
                Err(_) => {
                    ok = false;
                    break;
                }
            }
        }
        if !ok || !r.is_exhausted() {
            break;
        }
        records.push(ManifestRecord {
            gen,
            snapshot_id,
            shard_gens,
        });
        pos += 8 + len;
    }
    Ok((records, pos))
}

/// Assembles the store image for manifest `record`: store-wide fields from
/// its own generation, each shard's block from the generation the record
/// points at.  Any missing/corrupt piece is a [`GenReadError::Soft`].
pub(crate) fn assemble_store_state(
    vfs: &dyn Vfs,
    dir: &Path,
    record: &ManifestRecord,
) -> Result<StoreState, GenReadError> {
    let mut gens: Vec<(u64, GenFile)> = Vec::new();
    for gen in record.live_gens() {
        gens.push((gen, read_gen(vfs, dir, gen)?));
    }
    let own = gens
        .iter()
        .position(|(g, _)| *g == record.gen)
        .expect("record gen in live set");
    let k = record.shard_gens.len();
    let mut blocks: Vec<Option<RestoredBlock>> = (0..k).map(|_| None).collect();
    for (g, file) in gens.iter_mut() {
        for (shard, block) in file.blocks.drain(..) {
            if shard < k && record.shard_gens[shard] == *g {
                blocks[shard] = Some(block);
            }
        }
    }
    let mut assembled = Vec::with_capacity(k);
    for (shard, slot) in blocks.into_iter().enumerate() {
        match slot {
            Some(b) => assembled.push(b),
            None => {
                return Err(GenReadError::Soft(format!(
                    "generation {} carries no block for shard {shard}",
                    record.shard_gens[shard]
                )))
            }
        }
    }
    let own = &gens[own].1;
    if own.partition.n_shards() != k {
        return Err(GenReadError::Soft(format!(
            "manifest record covers {k} shards but generation {} partitions into {}",
            record.gen,
            own.partition.n_shards()
        )));
    }
    for (shard, block) in assembled.iter().enumerate() {
        if block.factors.n() != own.partition.shard_len(shard) {
            return Err(GenReadError::Soft(format!(
                "shard {shard} block of order {} does not fit its {}-node shard",
                block.factors.n(),
                own.partition.shard_len(shard)
            )));
        }
    }
    if own.snapshot_id != record.snapshot_id {
        return Err(GenReadError::Soft(format!(
            "manifest record claims snapshot {} but generation {} holds snapshot {}",
            record.snapshot_id, record.gen, own.snapshot_id
        )));
    }
    Ok(StoreState {
        snapshot_id: own.snapshot_id,
        kind: own.kind,
        graph: own.graph.clone(),
        partition: own.partition.clone(),
        next_repartition_at: own.next_repartition_at,
        coupling: own.coupling.clone(),
        blocks: assembled,
    })
}

/// Outcome of writing one generation file.
pub(crate) struct GenOutcome {
    pub(crate) gen: u64,
    pub(crate) blocks_written: usize,
    pub(crate) bytes: u64,
    pub(crate) incremental: bool,
}

/// The checkpoint writer: tracks the previous generation's published block
/// `Arc`s for pointer-identity change detection, the per-shard generation
/// pointers, and the next generation number.
pub(crate) struct Checkpointer {
    vfs: Arc<dyn Vfs>,
    dir: PathBuf,
    next_gen: u64,
    shard_gens: Vec<u64>,
    last_blocks: Vec<Arc<DecomposedMatrix>>,
}

impl Checkpointer {
    /// A checkpointer whose first generation will be `next_gen` and whose
    /// first write is always full (no retained `Arc`s to compare against).
    pub(crate) fn new(vfs: Arc<dyn Vfs>, dir: PathBuf, next_gen: u64) -> Self {
        Checkpointer {
            vfs,
            dir,
            next_gen,
            shard_gens: Vec::new(),
            last_blocks: Vec::new(),
        }
    }

    /// Writes (and syncs) the next generation file for `state`, carrying
    /// only the blocks whose published `Arc` changed since the previous
    /// generation.  Bookkeeping advances only after the file is durable, so
    /// a failed write leaves the checkpointer consistent with disk.
    pub(crate) fn write_generation(&mut self, state: &DurableState) -> EngineResult<GenOutcome> {
        let k = state.blocks.len();
        let comparable = self.last_blocks.len() == k;
        let changed: Vec<usize> = (0..k)
            .filter(|&s| !comparable || !Arc::ptr_eq(&self.last_blocks[s], &state.blocks[s].0))
            .collect();
        let gen = self.next_gen;
        let payload = encode_gen_payload(gen, state, &changed);
        let mut file_bytes = Vec::with_capacity(12 + payload.len());
        file_bytes.extend_from_slice(&CKPT_MAGIC.to_le_bytes());
        file_bytes.extend_from_slice(&CKPT_VERSION.to_le_bytes());
        file_bytes.extend_from_slice(&crc32(&payload).to_le_bytes());
        file_bytes.extend_from_slice(&payload);
        let path = self.dir.join(gen_name(gen));
        let mut file = self
            .vfs
            .create(&path)
            .map_err(|e| io_err("create", &path, e))?;
        file.append(&file_bytes)
            .map_err(|e| io_err("write", &path, e))?;
        file.sync().map_err(|e| io_err("sync", &path, e))?;
        self.next_gen = gen + 1;
        let mut shard_gens = if comparable {
            std::mem::take(&mut self.shard_gens)
        } else {
            vec![gen; k]
        };
        for &s in &changed {
            shard_gens[s] = gen;
        }
        self.shard_gens = shard_gens;
        self.last_blocks = state.blocks.iter().map(|(b, _)| Arc::clone(b)).collect();
        Ok(GenOutcome {
            gen,
            blocks_written: changed.len(),
            bytes: file_bytes.len() as u64,
            incremental: changed.len() < k,
        })
    }

    /// Appends (and syncs) the manifest record committing generation `gen`
    /// at `snapshot_id` with the current per-shard coverage.
    pub(crate) fn commit_manifest(&self, gen: u64, snapshot_id: u64) -> EngineResult<()> {
        let path = self.dir.join(MANIFEST_NAME);
        let mut payload = WireWriter::new();
        payload.put_u64(gen);
        payload.put_u64(snapshot_id);
        payload.put_usize(self.shard_gens.len());
        for &g in &self.shard_gens {
            payload.put_u64(g);
        }
        let payload = payload.into_bytes();
        let mut frame = WireWriter::new();
        frame.put_u32(payload.len() as u32);
        frame.put_u32(crc32(&payload));
        frame.put_bytes(&payload);
        let mut file = if self.vfs.exists(&path) {
            self.vfs
                .open_append(&path)
                .map_err(|e| io_err("open", &path, e))?
        } else {
            let mut f = self
                .vfs
                .create(&path)
                .map_err(|e| io_err("create", &path, e))?;
            let mut header = WireWriter::new();
            header.put_u32(MANIFEST_MAGIC);
            header.put_u32(MANIFEST_VERSION);
            f.append(header.bytes())
                .map_err(|e| io_err("write header of", &path, e))?;
            f
        };
        file.append(frame.bytes())
            .map_err(|e| io_err("append to", &path, e))?;
        file.sync().map_err(|e| io_err("sync", &path, e))?;
        Ok(())
    }

    /// The generations the latest committed record still references.
    pub(crate) fn live_gens(&self, committed_gen: u64) -> BTreeSet<u64> {
        let mut live: BTreeSet<u64> = self.shard_gens.iter().copied().collect();
        live.insert(committed_gen);
        live
    }

    /// Deletes WAL segments other than `keep_segment` and generation files
    /// not in `live`.  Runs only after a manifest commit, so everything
    /// removed is unreferenced.
    pub(crate) fn cleanup(&self, live: &BTreeSet<u64>, keep_segment: &Path) -> EngineResult<()> {
        let entries = self
            .vfs
            .list(&self.dir)
            .map_err(|e| io_err("list", &self.dir, e))?;
        for path in entries {
            let stale_wal = crate::wal::segment_first_id(&path).is_some() && path != keep_segment;
            let stale_gen = gen_of_path(&path).is_some_and(|g| !live.contains(&g));
            if stale_wal || stale_gen {
                self.vfs
                    .remove(&path)
                    .map_err(|e| io_err("remove", &path, e))?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::order_and_factorize;
    use crate::vfs::FailpointFs;
    use clude_graph::measure_matrix;

    fn state_for(graph: DiGraph, snapshot_id: u64) -> DurableState {
        let kind = MatrixKind::random_walk_default();
        let matrix = measure_matrix(&graph, kind);
        let of = order_and_factorize(&matrix, snapshot_id).unwrap();
        let published = Arc::clone(of.block());
        let n = graph.n_nodes();
        DurableState {
            snapshot_id,
            kind,
            graph,
            partition: NodePartition::singleton(n),
            next_repartition_at: None,
            coupling: Vec::new(),
            blocks: vec![(published, of.reference_nnz)],
        }
    }

    #[test]
    fn generation_round_trips_through_disk() {
        let fs: Arc<dyn Vfs> = Arc::new(FailpointFs::new());
        let dir = PathBuf::from("/ckpt");
        let graph = DiGraph::from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]);
        let state = state_for(graph.clone(), 7);
        let mut ck = Checkpointer::new(Arc::clone(&fs), dir.clone(), 0);
        let out = ck.write_generation(&state).unwrap();
        assert_eq!(out.gen, 0);
        assert_eq!(out.blocks_written, 1);
        assert!(!out.incremental, "first generation is always full");
        ck.commit_manifest(out.gen, 7).unwrap();

        let manifest = fs.read(&dir.join(MANIFEST_NAME)).unwrap();
        let (records, valid) = parse_manifest(&dir.join(MANIFEST_NAME), &manifest).unwrap();
        assert_eq!(valid, manifest.len());
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].shard_gens, vec![0]);
        let restored = assemble_store_state(&*fs, &dir, &records[0]).unwrap_or_else(|_| {
            panic!("assemble failed");
        });
        assert_eq!(restored.snapshot_id, 7);
        assert_eq!(restored.graph, graph);
        assert_eq!(restored.blocks.len(), 1);
        let original = crate::store::static_factors(&state.blocks[0].0).export_entries();
        assert_eq!(restored.blocks[0].factors.export_entries(), original);
        assert_eq!(restored.blocks[0].reference_nnz, state.blocks[0].1);
    }

    #[test]
    fn unchanged_blocks_are_skipped_incrementally() {
        let fs: Arc<dyn Vfs> = Arc::new(FailpointFs::new());
        let dir = PathBuf::from("/ckpt");
        let graph = DiGraph::from_edges(4, [(0, 1), (1, 2)]);
        let state = state_for(graph, 1);
        let mut ck = Checkpointer::new(Arc::clone(&fs), dir.clone(), 0);
        ck.write_generation(&state).unwrap();
        ck.commit_manifest(0, 1).unwrap();
        // Same Arc published again: the next generation carries zero blocks.
        let state2 = DurableState {
            snapshot_id: 2,
            ..state
        };
        let out = ck.write_generation(&state2).unwrap();
        assert_eq!(out.blocks_written, 0);
        assert!(out.incremental);
        ck.commit_manifest(out.gen, 2).unwrap();
        let manifest = fs.read(&dir.join(MANIFEST_NAME)).unwrap();
        let (records, _) = parse_manifest(&dir.join(MANIFEST_NAME), &manifest).unwrap();
        assert_eq!(records.len(), 2);
        // Newest record still points shard 0 at generation 0 for its block.
        assert_eq!(records[1].gen, 1);
        assert_eq!(records[1].shard_gens, vec![0]);
        let restored = assemble_store_state(&*fs, &dir, &records[1]).unwrap_or_else(|_| {
            panic!("assemble failed");
        });
        assert_eq!(restored.snapshot_id, 2);
    }

    #[test]
    fn corrupt_generation_is_soft_version_mismatch_is_hard() {
        let fs = FailpointFs::new();
        let shared: Arc<dyn Vfs> = Arc::new(fs.clone());
        let dir = PathBuf::from("/ckpt");
        let graph = DiGraph::from_edges(3, [(0, 1), (1, 2)]);
        let state = state_for(graph, 1);
        let mut ck = Checkpointer::new(Arc::clone(&shared), dir.clone(), 5);
        ck.write_generation(&state).unwrap();
        let path = dir.join(gen_name(5));
        fs.corrupt(&path, |b| {
            let last = b.len() - 1;
            b[last] ^= 0x10;
        });
        match read_gen(&*shared, &dir, 5) {
            Err(GenReadError::Soft(msg)) => assert!(msg.contains("checksum")),
            _ => panic!("corruption must be a soft failure"),
        }
        fs.corrupt(&path, |b| {
            let last = b.len() - 1;
            b[last] ^= 0x10; // undo
            b[4] = 9; // version
        });
        match read_gen(&*shared, &dir, 5) {
            Err(GenReadError::Hard(e)) => assert!(e.to_string().contains("version 9")),
            _ => panic!("version skew must be a hard failure"),
        }
    }

    #[test]
    fn torn_manifest_tail_keeps_valid_prefix() {
        let fs = FailpointFs::new();
        let shared: Arc<dyn Vfs> = Arc::new(fs.clone());
        let dir = PathBuf::from("/ckpt");
        let graph = DiGraph::from_edges(3, [(0, 1)]);
        let state = state_for(graph, 1);
        let mut ck = Checkpointer::new(shared, dir.clone(), 0);
        ck.write_generation(&state).unwrap();
        ck.commit_manifest(0, 1).unwrap();
        let out = ck.write_generation(&state).unwrap();
        ck.commit_manifest(out.gen, 2).unwrap();
        let path = dir.join(MANIFEST_NAME);
        let full = fs.read(&path).unwrap();
        fs.corrupt(&path, |b| {
            let cut = b.len() - 5;
            b.truncate(cut);
        });
        let torn = fs.read(&path).unwrap();
        let (records, valid) = parse_manifest(&path, &torn).unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].snapshot_id, 1);
        assert!(valid < full.len());
    }

    #[test]
    fn cleanup_removes_unreferenced_files() {
        let fs = FailpointFs::new();
        let shared: Arc<dyn Vfs> = Arc::new(fs.clone());
        let dir = PathBuf::from("/ckpt");
        let graph = DiGraph::from_edges(3, [(0, 1)]);
        let state = state_for(graph, 1);
        let mut ck = Checkpointer::new(Arc::clone(&shared), dir.clone(), 0);
        ck.write_generation(&state).unwrap();
        ck.commit_manifest(0, 1).unwrap();
        // Stale files a crashed rotation could leave behind.
        shared.create(&dir.join("wal-1.log")).unwrap();
        shared.create(&dir.join("wal-9.log")).unwrap();
        shared.create(&dir.join("gen-99.ckpt")).unwrap();
        ck.cleanup(&ck.live_gens(0), &dir.join("wal-2.log"))
            .unwrap();
        assert!(!fs.exists(&dir.join("wal-1.log")));
        assert!(!fs.exists(&dir.join("wal-9.log")));
        assert!(!fs.exists(&dir.join("gen-99.ckpt")));
        assert!(fs.exists(&dir.join(gen_name(0))));
        assert!(fs.exists(&dir.join(MANIFEST_NAME)));
    }

    /// A block record of order `n` under the identity ordering whose entry
    /// list claims `count` entries and holds `entries`.
    fn block_payload(n: usize, count: usize, entries: &[(usize, usize, f64)]) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.put_usize(0);
        w.put_u64(5);
        w.put_u64(entries.len() as u64);
        w.put_usize(n);
        let identity: Vec<usize> = (0..n).collect();
        w.put_usize_seq(&identity);
        w.put_usize_seq(&identity);
        w.put_usize(count);
        for &(i, j, v) in entries {
            w.put_usize(i);
            w.put_usize(j);
            w.put_f64(v);
        }
        w.into_bytes()
    }

    fn decode(payload: &[u8]) -> Result<RestoredBlock, String> {
        decode_block(&mut WireReader::new(payload)).map(|(_, block)| block)
    }

    /// The factors of `[[2, 1], [0.5, 3]]`, as a checkpoint lists them.
    const GOOD: [(usize, usize, f64); 4] = [(0, 0, 2.0), (0, 1, 1.0), (1, 0, 0.25), (1, 1, 2.75)];

    #[test]
    fn a_well_formed_block_decodes_to_the_factors_it_lists() {
        let block = decode(&block_payload(2, 4, &GOOD)).unwrap();
        assert_eq!(block.index, 5);
        assert_eq!(block.factors.export_entries(), GOOD);
        assert!(block.factors.structure().is_elimination_closed());
    }

    #[test]
    fn hostile_block_entry_lists_are_typed_errors() {
        let with = |at: usize, entry: (usize, usize, f64)| {
            let mut entries = GOOD.to_vec();
            entries[at] = entry;
            entries
        };
        let mut swapped = GOOD.to_vec();
        swapped.swap(0, 1);
        let hostile = [
            ("out of order", swapped),
            ("duplicated", with(1, (0, 0, 1.0))),
            ("column out of range", with(1, (0, 2, 1.0))),
            ("row out of range", with(3, (2, 1, 1.0))),
            ("missing diagonal", GOOD[..3].to_vec()),
            ("NaN", with(2, (1, 0, f64::NAN))),
            ("+inf", with(0, (0, 0, f64::INFINITY))),
            ("-inf", with(3, (1, 1, f64::NEG_INFINITY))),
        ];
        for (what, entries) in hostile {
            let err = match decode(&block_payload(2, entries.len(), &entries)) {
                Ok(_) => panic!("{what}: decoded"),
                Err(err) => err,
            };
            assert!(err.contains("shard 0 factors"), "{what}: {err}");
        }
        // A count past the payload, and a payload cut short anywhere.
        assert!(decode(&block_payload(2, 5, &GOOD)).is_err());
        assert!(decode(&block_payload(2, usize::MAX, &GOOD)).is_err());
        let full = block_payload(2, 4, &GOOD);
        for cut in 0..full.len() {
            assert!(decode(&full[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn a_generation_carrying_a_non_finite_factor_is_a_soft_failure() {
        // A checksummed generation file whose one block holds a NaN factor:
        // recovery must see a generation it cannot use, not a panic and not
        // factors holding NaN.
        let fs: Arc<dyn Vfs> = Arc::new(FailpointFs::new());
        let dir = PathBuf::from("/ckpt");
        let state = state_for(DiGraph::from_edges(2, [(0, 1)]), 1);
        let mut payload = encode_gen_payload(0, &state, &[]);
        payload.truncate(payload.len() - 8);
        let mut w = WireWriter::new();
        w.put_usize(1);
        payload.extend(w.into_bytes());
        let mut entries = GOOD.to_vec();
        entries[1].2 = f64::NAN;
        payload.extend(block_payload(2, 4, &entries));
        let mut file = Vec::new();
        file.extend(CKPT_MAGIC.to_le_bytes());
        file.extend(CKPT_VERSION.to_le_bytes());
        file.extend(crc32(&payload).to_le_bytes());
        file.extend(&payload);
        let path = dir.join(gen_name(0));
        fs.create_dir_all(&dir).unwrap();
        let mut handle = fs.create(&path).unwrap();
        handle.append(&file).unwrap();
        handle.sync().unwrap();
        match read_gen(&*fs, &dir, 0) {
            Err(GenReadError::Soft(why)) => assert!(why.contains("factors"), "{why}"),
            Err(GenReadError::Hard(err)) => panic!("hard failure: {err}"),
            Ok(_) => panic!("a NaN factor decoded"),
        }
    }

    /// Every truncation and every single-byte XOR of a valid three-record
    /// manifest parses to a typed [`EngineError::Persistence`] or to a prefix
    /// of the records committed whose valid length falls short of the input
    /// — flagged torn — unless the cut fell on a frame boundary: never a
    /// panic, never a record that was not committed.
    #[test]
    fn every_truncation_and_byte_flip_of_a_manifest_is_typed_or_a_torn_prefix() {
        let fs = FailpointFs::new();
        let shared: Arc<dyn Vfs> = Arc::new(fs.clone());
        let dir = PathBuf::from("/ckpt");
        let mut ck = Checkpointer::new(shared, dir.clone(), 0);
        let mut committed = Vec::new();
        let mut boundaries = vec![8];
        let path = dir.join(MANIFEST_NAME);
        for snapshot_id in [3, 5, 9] {
            let graph = DiGraph::from_edges(3, [(0, 1), (1, snapshot_id as usize % 3)]);
            let out = ck.write_generation(&state_for(graph, snapshot_id)).unwrap();
            ck.commit_manifest(out.gen, snapshot_id).unwrap();
            boundaries.push(fs.read(&path).unwrap().len());
        }
        let file = fs.read(&path).unwrap();
        let (records, valid) = parse_manifest(&path, &file).unwrap();
        assert_eq!((records.len(), valid), (3, file.len()));
        for record in &records {
            committed.push((record.gen, record.snapshot_id, record.shard_gens.clone()));
        }
        assert_eq!(committed.iter().map(|r| r.1).collect::<Vec<_>>(), [3, 5, 9]);
        let check = |bytes: &[u8], boundary: bool, what: &str| match parse_manifest(&path, bytes) {
            Err(EngineError::Persistence(_)) => {}
            Err(err) => panic!("{what}: untyped {err:?}"),
            Ok((records, valid)) => {
                assert!(records.len() <= committed.len(), "{what}");
                for (got, want) in records.iter().zip(&committed) {
                    let got = (got.gen, got.snapshot_id, got.shard_gens.clone());
                    assert_eq!(&got, want, "{what}: a record that was not committed");
                }
                assert!(valid <= bytes.len(), "{what}");
                let torn = valid < bytes.len();
                assert_eq!(torn, !boundary && !bytes.is_empty(), "{what}");
            }
        };
        for cut in 0..=file.len() {
            check(
                &file[..cut],
                boundaries.contains(&cut),
                &format!("cut at {cut}"),
            );
        }
        for at in 0..file.len() {
            for mask in 1..=u8::MAX {
                let mut flipped = file.clone();
                flipped[at] ^= mask;
                check(&flipped, false, &format!("byte {at} ^ {mask:#04x}"));
            }
        }
    }
}
