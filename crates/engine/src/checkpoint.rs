//! Checkpoints: generation files and the manifest that commits them.
//!
//! A checkpoint *generation* (`gen-<g>.ckpt`) is one self-contained
//! [`StoreImage`]: what the factor store cannot re-derive from the graph.
//! That is the snapshot id, the matrix kind, the partition, the graph and,
//! per shard, its fill-reducing ordering, its `reference_nnz` quality anchor
//! and its block index.  The image holds no
//! factor entry and no coupling entry.  CLUDE (§4) rests on the split this
//! follows: the ordering is the costly decision, while the numeric factors
//! under it are cheap to recompute from the matrix — so restore derives the
//! coupling from the graph and factorizes each shard under its ordering
//! (`ShardedFactorStore::restore`), as a build does.  A `MANIFEST` record
//! commits one generation at one snapshot id, and recovery reads that one
//! file.
//!
//! ## On-disk layout
//!
//! ```text
//! gen file  := magic:u32le version:u32le crc:u32le payload
//! payload   := gen:u64 snapshot_id:u64 kind partition graph
//!              k:usize shard × k
//! shard     := index:u64 reference_nnz:u64
//!              row_new_to_old:seq col_new_to_old:seq
//!
//! MANIFEST  := magic:u32le version:u32le record*
//! record    := len:u32le crc:u32le payload[len]
//! payload   := gen:u64 snapshot_id:u64
//! ```
//!
//! The partition precedes the graph, so the graph's node count is checked
//! against it before a node is allocated.  Decoding accepts exactly what
//! the writer produces: `k` is the partition's shard count, each ordering a
//! permutation of its shard's nodes, each quality anchor at least its
//! shard's node count (every factorization stores the diagonal), and nothing
//! follows the last shard.
//! Version 3 dropped version 2's re-partition countdown (a flag and a count
//! before `k`) with the repartitioner; a version-2 file is refused.
//!
//! The gen-file `crc` covers the whole payload; a mismatch makes the
//! generation unusable and recovery falls back to the previous manifest
//! record.  The manifest itself is append-only with the same torn-tail rule
//! as the WAL.  Commit order is: gen file synced → fresh WAL segment synced
//! → manifest record synced → garbage (covered segments, every other
//! generation) deleted.  A crash between any two steps leaves the previous
//! manifest record and the generation it commits intact.

use clude_graph::{wire, DiGraph, MatrixKind, NodePartition, WireError, WireReader, WireWriter};
use clude_sparse::{Ordering, Permutation};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::error::{EngineError, EngineResult};
use crate::vfs::Vfs;
use crate::wal::{crc32, io_err};

/// `b"CLCK"`: CLude ChecKpoint generation file.
pub(crate) const CKPT_MAGIC: u32 = u32::from_le_bytes(*b"CLCK");
/// Generation-file format version; readers reject any other.
pub(crate) const CKPT_VERSION: u32 = 3;
/// `b"CLMF"`: CLude ManiFest.
pub(crate) const MANIFEST_MAGIC: u32 = u32::from_le_bytes(*b"CLMF");
/// Manifest format version; readers reject any other.
pub(crate) const MANIFEST_VERSION: u32 = 2;
/// File name of the manifest committing checkpoint generations.
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

/// One shard's part of a [`StoreImage`]: its ordering and the bookkeeping a
/// restore keeps, local coordinates.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ShardImage {
    pub(crate) ordering: Ordering,
    pub(crate) reference_nnz: usize,
    pub(crate) index: u64,
}

/// What a factor store cannot re-derive from its graph, captured under the
/// ingest lock by `ShardedFactorStore::durable_state` and consumed by
/// `ShardedFactorStore::restore`; one generation file holds one.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct StoreImage {
    pub(crate) snapshot_id: u64,
    pub(crate) kind: MatrixKind,
    pub(crate) partition: NodePartition,
    pub(crate) graph: DiGraph,
    pub(crate) shards: Vec<ShardImage>,
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

/// One manifest record: a committed generation and the snapshot it holds.
pub(crate) struct ManifestRecord {
    pub(crate) gen: u64,
    pub(crate) snapshot_id: u64,
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

fn decode_kind(r: &mut WireReader<'_>) -> Result<MatrixKind, WireError> {
    let tag = r.get_u32()?;
    let param = r.get_f64()?;
    match tag {
        0 => Ok(MatrixKind::RandomWalk { damping: param }),
        1 => Ok(MatrixKind::SymmetricLaplacian { shift: param }),
        other => Err(WireError::Invalid(format!(
            "unknown matrix-kind tag {other}"
        ))),
    }
}

/// The payload of generation `gen` holding `image`.
fn encode_image(gen: u64, image: &StoreImage) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.put_u64(gen);
    w.put_u64(image.snapshot_id);
    encode_kind(&mut w, image.kind);
    wire::encode_partition(&mut w, &image.partition);
    wire::encode_graph(&mut w, &image.graph);
    w.put_usize(image.shards.len());
    for shard in &image.shards {
        w.put_u64(shard.index);
        w.put_usize(shard.reference_nnz);
        w.put_usize_seq(shard.ordering.row().as_new_to_old());
        w.put_usize_seq(shard.ordering.col().as_new_to_old());
    }
    w.into_bytes()
}

/// Shard `shard`'s permutation of its `len` nodes.
fn decode_permutation(
    r: &mut WireReader<'_>,
    shard: usize,
    len: usize,
) -> Result<Permutation, WireError> {
    let new_to_old = r.get_usize_seq()?;
    if new_to_old.len() != len {
        return Err(WireError::Invalid(format!(
            "shard {shard} ordering of length {} for its {len} nodes",
            new_to_old.len()
        )));
    }
    Permutation::from_new_to_old(new_to_old)
        .map_err(|e| WireError::Invalid(format!("shard {shard} ordering: {e}")))
}

/// The generation number and image a payload written by [`encode_image`]
/// holds.
fn decode_image(payload: &[u8]) -> Result<(u64, StoreImage), WireError> {
    let mut r = WireReader::new(payload);
    let gen = r.get_u64()?;
    let snapshot_id = r.get_u64()?;
    let kind = decode_kind(&mut r)?;
    let partition = wire::decode_partition(&mut r)?;
    let graph = wire::decode_graph(&mut r, partition.n_nodes())?;
    let k = r.get_usize()?;
    if k != partition.n_shards() {
        return Err(WireError::Invalid(format!(
            "{k} shards in an image partitioned into {}",
            partition.n_shards()
        )));
    }
    let mut shards = Vec::with_capacity(k);
    for s in 0..k {
        let index = r.get_u64()?;
        let reference_nnz = r.get_usize()?;
        let len = partition.shard_len(s);
        if reference_nnz < len {
            return Err(WireError::Invalid(format!(
                "shard {s} quality anchor {reference_nnz} below its {len} nodes"
            )));
        }
        let row = decode_permutation(&mut r, s, len)?;
        let col = decode_permutation(&mut r, s, len)?;
        shards.push(ShardImage {
            ordering: Ordering::new(row, col),
            reference_nnz,
            index,
        });
    }
    if !r.is_exhausted() {
        return Err(WireError::Invalid(format!(
            "{} trailing bytes after the last shard",
            r.remaining()
        )));
    }
    let image = StoreImage {
        snapshot_id,
        kind,
        partition,
        graph,
        shards,
    };
    Ok((gen, image))
}

/// Reads and validates generation `gen` from `dir`.
pub(crate) fn read_gen(vfs: &dyn Vfs, dir: &Path, gen: u64) -> Result<StoreImage, GenReadError> {
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
    let (decoded_gen, image) = decode_image(payload)
        .map_err(|e| GenReadError::Soft(format!("{}: {e}", path.display())))?;
    if decoded_gen != gen {
        return Err(GenReadError::Soft(format!(
            "{} claims generation {decoded_gen} in its payload",
            path.display()
        )));
    }
    Ok(image)
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
        let (Ok(gen), Ok(snapshot_id)) = (r.get_u64(), r.get_u64()) else {
            break;
        };
        if !r.is_exhausted() {
            break;
        }
        records.push(ManifestRecord { gen, snapshot_id });
        pos += 8 + len;
    }
    Ok((records, pos))
}

/// The checkpoint writer: the spool it writes into and the next generation
/// number.
pub(crate) struct Checkpointer {
    vfs: Arc<dyn Vfs>,
    dir: PathBuf,
    next_gen: u64,
}

impl Checkpointer {
    /// A checkpointer whose first generation will be `next_gen`.
    pub(crate) fn new(vfs: Arc<dyn Vfs>, dir: PathBuf, next_gen: u64) -> Self {
        Checkpointer { vfs, dir, next_gen }
    }

    /// Writes (and syncs) the next generation file holding `image`, and
    /// returns its number and its size in bytes.  The number advances only
    /// after the file is durable, so a failed write leaves the checkpointer
    /// consistent with disk.
    pub(crate) fn write_generation(&mut self, image: &StoreImage) -> EngineResult<(u64, u64)> {
        let gen = self.next_gen;
        let payload = encode_image(gen, image);
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
        Ok((gen, file_bytes.len() as u64))
    }

    /// Appends (and syncs) the manifest record committing generation `gen`
    /// at `snapshot_id`.
    pub(crate) fn commit_manifest(&self, gen: u64, snapshot_id: u64) -> EngineResult<()> {
        let path = self.dir.join(MANIFEST_NAME);
        let mut payload = WireWriter::new();
        payload.put_u64(gen);
        payload.put_u64(snapshot_id);
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

    /// Deletes WAL segments other than `keep_segment` and generation files
    /// other than `committed_gen`.  Runs only after the manifest committed
    /// `committed_gen`, so everything removed is unreferenced.
    pub(crate) fn cleanup(&self, committed_gen: u64, keep_segment: &Path) -> EngineResult<()> {
        let entries = self
            .vfs
            .list(&self.dir)
            .map_err(|e| io_err("list", &self.dir, e))?;
        for path in entries {
            let stale_wal = crate::wal::segment_first_id(&path).is_some() && path != keep_segment;
            let stale_gen = gen_of_path(&path).is_some_and(|g| g != committed_gen);
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
    use crate::sharded::ShardedFactorStore;
    use crate::vfs::FailpointFs;
    use clude_graph::GraphDelta;

    /// The image of a fresh `k`-shard store over `graph`.
    fn image_of(graph: DiGraph, k: usize) -> StoreImage {
        let n = graph.n_nodes();
        ShardedFactorStore::new(
            graph,
            MatrixKind::random_walk_default(),
            f64::INFINITY,
            NodePartition::contiguous(n, k),
        )
        .unwrap()
        .durable_state()
    }

    /// A 4-shard image of a 24-node graph with chords across the shards,
    /// two batches in: every field of the layout carries something.
    fn four_shard_image() -> StoreImage {
        let n = 24;
        let mut graph =
            DiGraph::from_edges(n, (0..n).map(|i| (i, (i + 1) % n)).collect::<Vec<_>>());
        for u in 0..n {
            graph.add_edge(u, (u * 7 + 3) % n);
        }
        let mut store = ShardedFactorStore::new(
            graph,
            MatrixKind::random_walk_default(),
            f64::INFINITY,
            NodePartition::contiguous(n, 4),
        )
        .unwrap();
        for delta in [
            GraphDelta {
                added: vec![(1, 4), (13, 2)],
                removed: vec![(5, 6)],
            },
            GraphDelta {
                added: vec![(20, 22)],
                removed: vec![(0, 1)],
            },
        ] {
            store.advance(&delta).unwrap();
        }
        let image = store.durable_state();
        assert_eq!(image.shards.len(), 4);
        image
    }

    /// Writes `payload` as a checksummed generation 0 into `dir` and reads
    /// it back.
    fn read_crafted(payload: &[u8]) -> Result<StoreImage, GenReadError> {
        let fs = FailpointFs::new();
        let dir = PathBuf::from("/ckpt");
        let mut file = Vec::new();
        file.extend(CKPT_MAGIC.to_le_bytes());
        file.extend(CKPT_VERSION.to_le_bytes());
        file.extend(crc32(payload).to_le_bytes());
        file.extend(payload);
        let mut handle = fs.create(&dir.join(gen_name(0))).unwrap();
        handle.append(&file).unwrap();
        handle.sync().unwrap();
        read_gen(&fs, &dir, 0)
    }

    fn soft_reason(read: Result<StoreImage, GenReadError>) -> String {
        match read {
            Err(GenReadError::Soft(why)) => why,
            Err(GenReadError::Hard(err)) => panic!("hard failure: {err}"),
            Ok(_) => panic!("a hostile generation decoded"),
        }
    }

    #[test]
    fn generation_round_trips_through_disk() {
        let fs: Arc<dyn Vfs> = Arc::new(FailpointFs::new());
        let dir = PathBuf::from("/ckpt");
        let image = four_shard_image();
        let mut ck = Checkpointer::new(Arc::clone(&fs), dir.clone(), 0);
        let (gen, bytes) = ck.write_generation(&image).unwrap();
        assert_eq!(gen, 0);
        assert_eq!(bytes, fs.read(&dir.join(gen_name(0))).unwrap().len() as u64);
        // The layout's fields and nothing else: no factor value, no coupling
        // entry.
        let header = 12 + 8 + 8 + 12;
        let partition = 8 + 8 * 24;
        let graph = 8 + 8 + 16 * image.graph.n_edges();
        let shards: usize = (image.shards.iter())
            .map(|s| 8 + 8 + 2 * (8 + 8 * s.ordering.row().len()))
            .sum();
        assert_eq!(bytes as usize, header + partition + graph + 8 + shards);
        ck.commit_manifest(gen, image.snapshot_id).unwrap();

        let manifest = fs.read(&dir.join(MANIFEST_NAME)).unwrap();
        let (records, valid) = parse_manifest(&dir.join(MANIFEST_NAME), &manifest).unwrap();
        assert_eq!(valid, manifest.len());
        assert_eq!(records.len(), 1);
        assert_eq!((records[0].gen, records[0].snapshot_id), (0, 2));
        // A record is its frame and two `u64`s.
        assert_eq!(manifest.len(), 8 + 8 + 16);
        let restored = read_gen(&*fs, &dir, 0).unwrap_or_else(|_| panic!("read failed"));
        assert_eq!(restored, image);
    }

    #[test]
    fn corrupt_generation_is_soft_version_mismatch_is_hard() {
        let fs = FailpointFs::new();
        let shared: Arc<dyn Vfs> = Arc::new(fs.clone());
        let dir = PathBuf::from("/ckpt");
        let image = image_of(DiGraph::from_edges(3, [(0, 1), (1, 2)]), 1);
        let mut ck = Checkpointer::new(Arc::clone(&shared), dir.clone(), 5);
        ck.write_generation(&image).unwrap();
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
        });
        // Version 2 is the layout before the re-partition countdown went: a
        // spool written by it is refused loudly, as any other version is.
        for version in [2u8, 9] {
            fs.corrupt(&path, |b| b[4] = version);
            match read_gen(&*shared, &dir, 5) {
                Err(GenReadError::Hard(e)) => {
                    assert!(e.to_string().contains(&format!("version {version}")))
                }
                _ => panic!("version {version} must be a hard failure"),
            }
        }
    }

    #[test]
    fn torn_manifest_tail_keeps_valid_prefix() {
        let fs = FailpointFs::new();
        let shared: Arc<dyn Vfs> = Arc::new(fs.clone());
        let dir = PathBuf::from("/ckpt");
        let image = image_of(DiGraph::from_edges(3, [(0, 1)]), 1);
        let mut ck = Checkpointer::new(shared, dir.clone(), 0);
        ck.write_generation(&image).unwrap();
        ck.commit_manifest(0, 1).unwrap();
        let (gen, _) = ck.write_generation(&image).unwrap();
        ck.commit_manifest(gen, 2).unwrap();
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
        let image = image_of(DiGraph::from_edges(3, [(0, 1)]), 1);
        let mut ck = Checkpointer::new(Arc::clone(&shared), dir.clone(), 0);
        ck.write_generation(&image).unwrap();
        ck.commit_manifest(0, 1).unwrap();
        // Stale files a crashed rotation could leave behind.
        shared.create(&dir.join("wal-1.log")).unwrap();
        shared.create(&dir.join("wal-9.log")).unwrap();
        shared.create(&dir.join("gen-99.ckpt")).unwrap();
        ck.cleanup(0, &dir.join("wal-2.log")).unwrap();
        assert!(!fs.exists(&dir.join("wal-1.log")));
        assert!(!fs.exists(&dir.join("wal-9.log")));
        assert!(!fs.exists(&dir.join("gen-99.ckpt")));
        assert!(fs.exists(&dir.join(gen_name(0))));
        assert!(fs.exists(&dir.join(MANIFEST_NAME)));
    }

    /// How many fields of the image `a` decodes to differ from `b`'s.
    fn changed_fields(a: &(u64, StoreImage), b: &(u64, StoreImage)) -> usize {
        let (x, y) = (&a.1, &b.1);
        let store_wide = [
            a.0 != b.0,
            x.snapshot_id != y.snapshot_id,
            x.kind != y.kind,
            x.partition != y.partition,
            x.graph != y.graph,
            x.shards.len() != y.shards.len(),
        ];
        let shards = x.shards.iter().zip(&y.shards).map(|(s, t)| s != t);
        store_wide.into_iter().chain(shards).filter(|&d| d).count()
    }

    /// Every truncation and every single-byte XOR of a valid 4-shard
    /// payload, checksum aside, decodes to a typed error or to the image its
    /// bytes spell: re-encoding it gives back exactly the bytes read, and it
    /// differs from the image written in at most the one field the flipped
    /// byte belongs to.  Never a panic, never an abort.
    #[test]
    fn a_cut_or_flipped_generation_payload_is_typed_or_reads_as_written() {
        let written = (3, four_shard_image());
        let payload = encode_image(written.0, &written.1);
        assert_eq!(decode_image(&payload).unwrap(), written);
        for cut in 0..payload.len() {
            assert!(decode_image(&payload[..cut]).is_err(), "cut at {cut}");
        }
        let mut misread = 0;
        for at in 0..payload.len() {
            for mask in 1..=u8::MAX {
                let mut flipped = payload.clone();
                flipped[at] ^= mask;
                let Ok(decoded) = decode_image(&flipped) else {
                    continue;
                };
                misread += 1;
                let what = format!("byte {at} ^ {mask:#04x}");
                assert_eq!(encode_image(decoded.0, &decoded.1), flipped, "{what}");
                assert_eq!(changed_fields(&decoded, &written), 1, "{what}");
            }
        }
        // Flips of values no check can know (ids, anchors that stay at or
        // above their shard's node count, edge endpoints, the damping) do
        // decode, and were checked above.
        assert!(misread > 0);
    }

    /// The same sweep over the whole file, checksum included, through
    /// [`read_gen`]: a flip of the magic or the version is a hard failure,
    /// every other flip and every truncation a soft one.
    #[test]
    fn every_truncation_and_byte_flip_of_a_generation_file_is_soft_or_hard() {
        let fs = FailpointFs::new();
        let shared: Arc<dyn Vfs> = Arc::new(fs.clone());
        let dir = PathBuf::from("/ckpt");
        let mut ck = Checkpointer::new(shared, dir.clone(), 0);
        ck.write_generation(&four_shard_image()).unwrap();
        let path = dir.join(gen_name(0));
        let file = fs.read(&path).unwrap();
        let read_as = |bytes: &[u8]| {
            fs.corrupt(&path, |b| {
                b.clear();
                b.extend_from_slice(bytes);
            });
            read_gen(&fs, &dir, 0)
        };
        for cut in 0..file.len() {
            assert!(
                matches!(read_as(&file[..cut]), Err(GenReadError::Soft(_))),
                "cut at {cut}"
            );
        }
        for at in 0..file.len() {
            for mask in 1..=u8::MAX {
                let mut flipped = file.clone();
                flipped[at] ^= mask;
                let what = format!("byte {at} ^ {mask:#04x}");
                match read_as(&flipped) {
                    Err(GenReadError::Hard(_)) => assert!(at < 8, "{what}"),
                    Err(GenReadError::Soft(_)) => assert!(at >= 8, "{what}"),
                    Ok(_) => panic!("{what}: read"),
                }
            }
        }
    }

    /// A shard record as a hostile writer would put it: the raw
    /// `(reference_nnz, row, col)`, unchecked.
    type ShardRecord = (usize, Vec<usize>, Vec<usize>);

    /// `image`'s payload with the shard records replaced by `k` and the
    /// records given.
    fn payload_with_shards(image: &StoreImage, k: usize, records: &[ShardRecord]) -> Vec<u8> {
        let head = StoreImage {
            shards: Vec::new(),
            ..image.clone()
        };
        let mut payload = encode_image(0, &head);
        payload.truncate(payload.len() - 8);
        let mut w = WireWriter::new();
        w.put_usize(k);
        for (reference_nnz, row, col) in records {
            w.put_u64(1);
            w.put_usize(*reference_nnz);
            w.put_usize_seq(row);
            w.put_usize_seq(col);
        }
        payload.extend(w.into_bytes());
        payload
    }

    #[test]
    fn hostile_shard_records_are_soft_failures_naming_the_fault() {
        let image = four_shard_image();
        let records: Vec<ShardRecord> = image
            .shards
            .iter()
            .map(|s| {
                let (row, col) = (s.ordering.row(), s.ordering.col());
                (
                    s.reference_nnz,
                    row.as_new_to_old().to_vec(),
                    col.as_new_to_old().to_vec(),
                )
            })
            .collect();
        assert!(read_crafted(&payload_with_shards(&image, 4, &records)).is_ok());
        let with_record = |edit: &dyn Fn(&mut ShardRecord)| {
            let mut records = records.clone();
            edit(&mut records[1]);
            payload_with_shards(&image, 4, &records)
        };
        let with_row = |edit: &dyn Fn(&mut Vec<usize>)| with_record(&|r| edit(&mut r.1));
        let cases = [
            (
                "a permutation of the wrong length",
                with_row(&|row| {
                    row.pop();
                }),
                "ordering of length 5 for its 6 nodes",
            ),
            (
                "a repeated index",
                with_row(&|row| row[1] = row[0]),
                "repeated index",
            ),
            (
                "an index past the shard",
                with_row(&|row| row[0] = 6),
                "index out of range",
            ),
            (
                "fewer shards than the partition's",
                payload_with_shards(&image, 3, &records[..3]),
                "3 shards in an image partitioned into 4",
            ),
            (
                "more shards than the partition's",
                payload_with_shards(&image, 5, &records),
                "5 shards in an image partitioned into 4",
            ),
            (
                "trailing bytes",
                [payload_with_shards(&image, 4, &records), vec![0]].concat(),
                "1 trailing bytes",
            ),
            (
                "a quality anchor of zero, which no factorization writes",
                with_record(&|r| r.0 = 0),
                "shard 1 quality anchor 0 below its 6 nodes",
            ),
            (
                "a quality anchor one below the shard's diagonal",
                with_record(&|r| r.0 = 5),
                "shard 1 quality anchor 5 below its 6 nodes",
            ),
        ];
        for (what, payload, fault) in cases {
            let why = soft_reason(read_crafted(&payload));
            assert!(why.contains(fault), "{what}: {why}");
        }
    }

    /// A checksummed generation reaches the wire decoders with whatever
    /// sizes its writer chose: a shard id or a node count past the image's
    /// is a soft failure, not an allocation that aborts the process.
    #[test]
    fn hostile_sizes_in_a_generation_are_soft_failures() {
        let head = |w: &mut WireWriter| {
            w.put_u64(0);
            w.put_u64(0);
            encode_kind(w, MatrixKind::random_walk_default());
        };
        let mut w = WireWriter::new();
        head(&mut w);
        w.put_usize_seq(&[0, 1 << 40]);
        assert!(soft_reason(read_crafted(w.bytes())).contains("shard id"));
        let mut w = WireWriter::new();
        head(&mut w);
        w.put_usize_seq(&[0, 0]);
        w.put_usize(1 << 50);
        w.put_edges(&[]);
        assert!(soft_reason(read_crafted(w.bytes())).contains("2 were expected"));
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
            let (gen, _) = ck.write_generation(&image_of(graph, 1)).unwrap();
            ck.commit_manifest(gen, snapshot_id).unwrap();
            boundaries.push(fs.read(&path).unwrap().len());
        }
        let file = fs.read(&path).unwrap();
        let (records, valid) = parse_manifest(&path, &file).unwrap();
        assert_eq!((records.len(), valid), (3, file.len()));
        for record in &records {
            committed.push((record.gen, record.snapshot_id));
        }
        assert_eq!(committed, [(0, 3), (1, 5), (2, 9)]);
        let check = |bytes: &[u8], boundary: bool, what: &str| match parse_manifest(&path, bytes) {
            Err(EngineError::Persistence(_)) => {}
            Err(err) => panic!("{what}: untyped {err:?}"),
            Ok((records, valid)) => {
                assert!(records.len() <= committed.len(), "{what}");
                for (got, want) in records.iter().zip(&committed) {
                    let got = (got.gen, got.snapshot_id);
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
