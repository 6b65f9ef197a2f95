//! Write-ahead delta log: segment format, writer, and reader.
//!
//! One WAL *segment* covers the batches applied since a checkpoint.  Its
//! file name is `wal-<first>.log` where `first` is the snapshot id of the
//! first record it may hold (checkpoint snapshot + 1); a checkpoint rotates
//! to a fresh segment and the committed manifest record makes the old ones
//! garbage.
//!
//! ## On-disk layout
//!
//! ```text
//! segment   := header record*
//! header    := magic:u32le version:u32le                      (8 bytes)
//! record    := len:u32le crc:u32le payload[len]
//! payload   := snapshot_id:u64le delta                        (clude_graph::wire)
//! ```
//!
//! `crc` is CRC-32 (IEEE, reflected) over `payload`.  A record that is
//! short, fails its checksum, or does not decode marks the *torn tail*: it
//! and everything after it are dropped at recovery (and reported, never
//! silently).  A bad header is different — the file is not a WAL segment of
//! this version, and recovery fails loudly instead of guessing.

use clude_graph::{wire, GraphDelta, WireWriter};
use std::io;
use std::path::{Path, PathBuf};

use crate::error::{EngineError, EngineResult};
use crate::vfs::{Vfs, VfsFile};

/// `b"CLWL"` little-endian: CLude Wal Log.
pub(crate) const WAL_MAGIC: u32 = u32::from_le_bytes(*b"CLWL");
/// Bumped on any incompatible layout change; readers reject other versions.
pub(crate) const WAL_VERSION: u32 = 1;

/// CRC-32 (IEEE 802.3, reflected) lookup table, built at compile time.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// CRC-32 (IEEE) of `bytes` — the checksum guarding every WAL record,
/// manifest record and checkpoint payload.
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = (crc >> 8) ^ CRC_TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

pub(crate) fn io_err(op: &str, path: &Path, e: io::Error) -> EngineError {
    EngineError::Persistence(format!("{op} {}: {e}", path.display()))
}

/// File name of the segment whose first admissible record is `first_id`.
pub(crate) fn segment_name(first_id: u64) -> String {
    format!("wal-{first_id}.log")
}

/// Parses `wal-<first>.log` back into `first`, rejecting other names.
pub(crate) fn segment_first_id(path: &Path) -> Option<u64> {
    let name = path.file_name()?.to_str()?;
    let digits = name.strip_prefix("wal-")?.strip_suffix(".log")?;
    digits.parse().ok()
}

/// Serialises one record (frame + payload) for `snapshot_id`/`delta`.
pub(crate) fn encode_record(snapshot_id: u64, delta: &GraphDelta) -> Vec<u8> {
    let mut payload = WireWriter::new();
    payload.put_u64(snapshot_id);
    wire::encode_delta(&mut payload, delta);
    let payload = payload.into_bytes();
    let mut framed = WireWriter::new();
    framed.put_u32(payload.len() as u32);
    framed.put_u32(crc32(&payload));
    framed.put_bytes(&payload);
    framed.into_bytes()
}

/// Append side of one WAL segment.
///
/// `group_commit` is the sync window: every `group_commit`-th append issues
/// the durability barrier, so at most `group_commit - 1` trailing batches
/// ride on the page cache at any moment.  `1` means sync-per-batch.
pub(crate) struct WalWriter {
    file: Box<dyn VfsFile>,
    path: PathBuf,
    group_commit: usize,
    unsynced: usize,
}

impl WalWriter {
    /// Creates the segment at `path`, writing (and syncing) the header.
    pub(crate) fn create(vfs: &dyn Vfs, path: &Path, group_commit: usize) -> EngineResult<Self> {
        let mut file = vfs.create(path).map_err(|e| io_err("create", path, e))?;
        let mut header = WireWriter::new();
        header.put_u32(WAL_MAGIC);
        header.put_u32(WAL_VERSION);
        file.append(header.bytes())
            .map_err(|e| io_err("write header of", path, e))?;
        file.sync().map_err(|e| io_err("sync", path, e))?;
        Ok(WalWriter {
            file,
            path: path.to_path_buf(),
            group_commit: group_commit.max(1),
            unsynced: 0,
        })
    }

    /// Appends the record for `snapshot_id`, syncing when the group-commit
    /// window closes.
    pub(crate) fn append(&mut self, snapshot_id: u64, delta: &GraphDelta) -> EngineResult<()> {
        let record = encode_record(snapshot_id, delta);
        self.file
            .append(&record)
            .map_err(|e| io_err("append to", &self.path, e))?;
        self.unsynced += 1;
        if self.unsynced >= self.group_commit {
            self.sync()?;
        }
        Ok(())
    }

    /// Forces the durability barrier regardless of the group-commit window.
    pub(crate) fn sync(&mut self) -> EngineResult<()> {
        if self.unsynced > 0 {
            self.file
                .sync()
                .map_err(|e| io_err("sync", &self.path, e))?;
            self.unsynced = 0;
        }
        Ok(())
    }
}

/// One parsed segment: the records of its valid prefix, plus how the tail
/// looked.
#[derive(Debug)]
pub(crate) struct SegmentScan {
    /// `(snapshot_id, delta)` per valid record, in file order.
    pub(crate) records: Vec<(u64, GraphDelta)>,
    /// `true` when trailing bytes after the last valid record were dropped
    /// (torn or corrupt tail).
    pub(crate) torn: bool,
}

/// Parses segment `bytes`.
///
/// A short or absent header on a non-empty... any file shorter than the
/// 8-byte header is treated as a torn creation (no records, torn tail); a
/// *complete* header with the wrong magic or version is a loud error.
pub(crate) fn scan_segment(path: &Path, bytes: &[u8]) -> EngineResult<SegmentScan> {
    if bytes.len() < 8 {
        return Ok(SegmentScan {
            records: Vec::new(),
            torn: !bytes.is_empty(),
        });
    }
    let magic = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
    let version = u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]);
    if magic != WAL_MAGIC {
        return Err(EngineError::Persistence(format!(
            "{} is not a WAL segment (bad magic {magic:#010x})",
            path.display()
        )));
    }
    if version != WAL_VERSION {
        return Err(EngineError::Persistence(format!(
            "{} has WAL format version {version}, this build reads only {WAL_VERSION}",
            path.display()
        )));
    }
    let mut records = Vec::new();
    let mut pos = 8usize;
    loop {
        let remaining = bytes.len() - pos;
        if remaining == 0 {
            return Ok(SegmentScan {
                records,
                torn: false,
            });
        }
        if remaining < 8 {
            break; // torn frame header
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
            break; // torn payload
        }
        let payload = &bytes[pos + 8..pos + 8 + len];
        if crc32(payload) != crc {
            break; // corrupt payload (or torn frame that happened to parse)
        }
        let mut reader = clude_graph::WireReader::new(payload);
        let Ok(snapshot_id) = reader.get_u64() else {
            break;
        };
        let Ok(delta) = wire::decode_delta(&mut reader) else {
            break;
        };
        if !reader.is_exhausted() {
            break; // trailing junk inside a checksummed frame: corrupt
        }
        records.push((snapshot_id, delta));
        pos += 8 + len;
    }
    Ok(SegmentScan {
        records,
        torn: true,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::FailpointFs;

    fn delta(inserts: &[(usize, usize)]) -> GraphDelta {
        let mut d = GraphDelta::empty();
        for &(u, v) in inserts {
            d.added.push((u, v));
        }
        d
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC-32 check values.
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn segment_names_round_trip() {
        assert_eq!(segment_name(42), "wal-42.log");
        assert_eq!(segment_first_id(Path::new("/x/wal-42.log")), Some(42));
        assert_eq!(segment_first_id(Path::new("/x/gen-42.ckpt")), None);
        assert_eq!(segment_first_id(Path::new("/x/wal-x.log")), None);
    }

    #[test]
    fn write_then_scan_round_trips() {
        let fs = FailpointFs::new();
        let path = Path::new("/w/wal-1.log");
        let mut w = WalWriter::create(&fs, path, 1).unwrap();
        w.append(1, &delta(&[(0, 1)])).unwrap();
        w.append(2, &delta(&[(1, 2), (2, 0)])).unwrap();
        let scan = scan_segment(path, &fs.read(path).unwrap()).unwrap();
        assert!(!scan.torn);
        assert_eq!(scan.records.len(), 2);
        assert_eq!(scan.records[0].0, 1);
        assert_eq!(scan.records[1].1.added, vec![(1, 2), (2, 0)]);
    }

    #[test]
    fn torn_tail_is_dropped_not_fatal() {
        let fs = FailpointFs::new();
        let path = Path::new("/w/wal-1.log");
        let mut w = WalWriter::create(&fs, path, 1).unwrap();
        w.append(1, &delta(&[(0, 1)])).unwrap();
        w.append(2, &delta(&[(1, 2)])).unwrap();
        fs.corrupt(path, |b| {
            let cut = b.len() - 3;
            b.truncate(cut);
        });
        let scan = scan_segment(path, &fs.read(path).unwrap()).unwrap();
        assert!(scan.torn);
        assert_eq!(scan.records.len(), 1);
        assert_eq!(scan.records[0].0, 1);
    }

    #[test]
    fn bit_flip_in_payload_is_detected_by_crc() {
        let fs = FailpointFs::new();
        let path = Path::new("/w/wal-1.log");
        let mut w = WalWriter::create(&fs, path, 1).unwrap();
        w.append(1, &delta(&[(0, 1)])).unwrap();
        fs.corrupt(path, |b| {
            let last = b.len() - 1;
            b[last] ^= 0x40;
        });
        let scan = scan_segment(path, &fs.read(path).unwrap()).unwrap();
        assert!(scan.torn);
        assert!(scan.records.is_empty());
    }

    #[test]
    fn wrong_version_fails_loudly() {
        let fs = FailpointFs::new();
        let path = Path::new("/w/wal-1.log");
        WalWriter::create(&fs, path, 1).unwrap();
        fs.corrupt(path, |b| b[4] = 99);
        let err = scan_segment(path, &fs.read(path).unwrap()).unwrap_err();
        assert!(err.to_string().contains("version 99"));
        // Bad magic likewise.
        fs.corrupt(path, |b| {
            b[4] = 1;
            b[0] = b'X';
        });
        let err = scan_segment(path, &fs.read(path).unwrap()).unwrap_err();
        assert!(err.to_string().contains("bad magic"));
    }

    #[test]
    fn group_commit_window_batches_syncs() {
        // Indirect check: with group_commit = 3 the writer stays consistent
        // and syncs on demand without error.
        let fs = FailpointFs::new();
        let path = Path::new("/w/wal-1.log");
        let mut w = WalWriter::create(&fs, path, 3).unwrap();
        for id in 1..=7 {
            w.append(id, &delta(&[(0, 1)])).unwrap();
        }
        w.sync().unwrap();
        let scan = scan_segment(path, &fs.read(path).unwrap()).unwrap();
        assert_eq!(scan.records.len(), 7);
    }

    #[test]
    fn golden_record_bytes_are_pinned() {
        // The exact bytes of a one-edge record at snapshot 3: freezing the
        // frame layout (len, crc, payload) and the wire layout of a delta.
        let bytes = encode_record(3, &delta(&[(1, 2)]));
        let expected: Vec<u8> = vec![
            0x28, 0x00, 0x00, 0x00, // payload length = 40
            0xD7, 0xC8, 0x0F, 0x34, // crc32(payload)
            0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // snapshot id 3
            0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // 1 added edge
            0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // u = 1
            0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // v = 2
            0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // 0 removed edges
        ];
        assert_eq!(bytes, expected);
        // And the pinned bytes decode back to the same record.
        let scan = {
            let mut file = Vec::new();
            file.extend_from_slice(&WAL_MAGIC.to_le_bytes());
            file.extend_from_slice(&WAL_VERSION.to_le_bytes());
            file.extend_from_slice(&expected);
            scan_segment(Path::new("/golden"), &file).unwrap()
        };
        assert_eq!(scan.records.len(), 1);
        assert_eq!(scan.records[0].0, 3);
        assert_eq!(scan.records[0].1.added, vec![(1, 2)]);
        assert!(scan.records[0].1.removed.is_empty());
    }

    /// Every truncation and every single-byte XOR of a valid three-record
    /// segment scans to a typed [`EngineError::Persistence`] or to a prefix
    /// of the records written, flagged torn unless the cut fell on a frame
    /// boundary — never a panic, never a record that was not written.
    #[test]
    fn every_truncation_and_byte_flip_of_a_segment_is_typed_or_a_torn_prefix() {
        let fs = FailpointFs::new();
        let path = Path::new("/w/wal-1.log");
        let written = [
            (1, delta(&[(0, 1)])),
            (2, delta(&[(1, 2), (2, 0)])),
            (
                3,
                GraphDelta {
                    added: vec![(3, 1)],
                    removed: vec![(0, 1)],
                },
            ),
        ];
        let mut w = WalWriter::create(&fs, path, 1).unwrap();
        for (id, d) in &written {
            w.append(*id, d).unwrap();
        }
        let file = fs.read(path).unwrap();
        // Where each frame ends: a cut there leaves a shorter valid segment.
        let mut boundaries = vec![8];
        for (id, d) in &written {
            boundaries.push(boundaries.last().unwrap() + encode_record(*id, d).len());
        }
        assert_eq!(*boundaries.last().unwrap(), file.len());
        let check = |bytes: &[u8], boundary: bool, what: &str| match scan_segment(path, bytes) {
            Err(EngineError::Persistence(_)) => {}
            Err(err) => panic!("{what}: untyped {err:?}"),
            Ok(scan) => {
                assert!(scan.records.len() <= written.len(), "{what}");
                for (got, want) in scan.records.iter().zip(&written) {
                    assert_eq!(got, want, "{what}: a record that was not written");
                }
                assert_eq!(scan.torn, !boundary && !bytes.is_empty(), "{what}");
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
