//! Filesystem abstraction for the durability layer.
//!
//! The WAL and checkpoint writers talk to a tiny [`Vfs`] trait instead of
//! `std::fs` directly so the crash-injection test harness can substitute an
//! in-memory filesystem that dies — dropping, tearing or bit-flipping the
//! in-flight write — at a chosen write number.  Production uses [`StdFs`];
//! tests use [`FailpointFs`].
//!
//! The model deliberately has no buffering: `append` makes bytes visible
//! immediately (the page cache), `sync` is the durability barrier.  The
//! fail-point filesystem crashes *at* an append, which simulates the worst
//! legal outcome of a real crash between two syncs: an arbitrary prefix of
//! the un-synced tail survives.

use crate::sync::Recover;
use std::collections::BTreeMap;
use std::fmt::Debug;
use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// An open file handle that supports appending and syncing.
pub trait VfsFile: Send {
    /// Appends `bytes` at the end of the file.
    fn append(&mut self, bytes: &[u8]) -> io::Result<()>;
    /// Durability barrier: block until all appended bytes are on stable
    /// storage.
    fn sync(&mut self) -> io::Result<()>;
}

/// Minimal filesystem surface the durability layer needs.
///
/// All methods take `&self`; implementations are internally synchronised so
/// a single handle can be shared across the engine and a recovery pass.
pub trait Vfs: Send + Sync + Debug {
    /// Creates (or truncates) the file at `path` and returns an append
    /// handle positioned at offset zero.
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>>;
    /// Opens an existing file for appending at its current end.
    fn open_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>>;
    /// Reads the whole file.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;
    /// Whether a file exists at `path`.
    fn exists(&self, path: &Path) -> bool;
    /// The files (not directories) directly inside `dir`.
    fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>>;
    /// Removes the file at `path`.
    fn remove(&self, path: &Path) -> io::Result<()>;
    /// Creates `dir` and any missing parents.
    fn create_dir_all(&self, dir: &Path) -> io::Result<()>;
}

/// The real filesystem: `std::fs` with `sync_all` as the barrier.
#[derive(Debug, Clone, Copy, Default)]
pub struct StdFs;

struct StdFile(fs::File);

impl VfsFile for StdFile {
    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.0.write_all(bytes)
    }

    fn sync(&mut self) -> io::Result<()> {
        self.0.sync_all()
    }
}

impl Vfs for StdFs {
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        Ok(Box::new(StdFile(fs::File::create(path)?)))
    }

    fn open_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        Ok(Box::new(StdFile(
            fs::OpenOptions::new().append(true).open(path)?,
        )))
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        fs::read(path)
    }

    fn exists(&self, path: &Path) -> bool {
        path.exists()
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        let mut out = Vec::new();
        for entry in fs::read_dir(dir)? {
            let entry = entry?;
            if entry.file_type()?.is_file() {
                out.push(entry.path());
            }
        }
        out.sort();
        Ok(out)
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        fs::remove_file(path)
    }

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        fs::create_dir_all(dir)
    }
}

/// What the fail-point filesystem does to the triggering append.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Injection {
    /// The append vanishes entirely (crash before the write reached disk).
    DropWrite,
    /// Only the first `keep` bytes of the append land (torn write).
    TornWrite {
        /// Byte prefix of the append that survives.
        keep: usize,
    },
    /// The append lands with one bit flipped at `byte % len` (media or
    /// transfer corruption surfacing at the crash boundary).
    BitFlip {
        /// Byte offset (mod append length) whose lowest bit is flipped.
        byte: usize,
    },
}

#[derive(Debug)]
struct FailState {
    files: BTreeMap<PathBuf, Vec<u8>>,
    /// Appends observed through *armed* handles.
    writes_seen: u64,
    /// Crash at the append whose ordinal equals `.0`, applying `.1`.
    trigger: Option<(u64, Injection)>,
    /// After the crash every armed operation fails, like a killed process.
    dead: bool,
}

/// Deterministic in-memory filesystem with a single programmable fail point.
///
/// Cloned handles share the same file map.  An *armed* handle (the default)
/// counts appends and, at the ordinal set by [`FailpointFs::fail_at`],
/// applies the configured [`Injection`] and then fails every subsequent
/// operation — the simulated `SIGKILL`.  A [`FailpointFs::disarmed`] clone
/// over the same files never fails; recovery code uses it to play the role
/// of the next process seeing the surviving bytes.
#[derive(Debug, Clone)]
pub struct FailpointFs {
    shared: Arc<Mutex<FailState>>,
    armed: bool,
}

impl Default for FailpointFs {
    fn default() -> Self {
        Self::new()
    }
}

impl FailpointFs {
    /// An empty filesystem with no fail point armed yet.
    pub fn new() -> Self {
        FailpointFs {
            shared: Arc::new(Mutex::new(FailState {
                files: BTreeMap::new(),
                writes_seen: 0,
                trigger: None,
                dead: false,
            })),
            armed: true,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, FailState> {
        self.shared.lock().recover()
    }

    /// Crash at the `nth` armed append (0-based, counted from filesystem
    /// creation), applying `injection` to that append's bytes first.
    pub fn fail_at(&self, nth: u64, injection: Injection) {
        let mut s = self.lock();
        s.trigger = Some((nth, injection));
    }

    /// A handle over the same files that never counts, injects or fails —
    /// the post-crash process reading what survived.
    pub fn disarmed(&self) -> FailpointFs {
        FailpointFs {
            shared: Arc::clone(&self.shared),
            armed: false,
        }
    }

    /// Number of armed appends observed so far.
    pub fn writes_seen(&self) -> u64 {
        self.lock().writes_seen
    }

    /// Whether the fail point has fired.
    pub fn is_dead(&self) -> bool {
        self.lock().dead
    }

    /// Mutates the raw bytes of `path` in place — for post-hoc corruption
    /// (tearing or flipping a file's tail after a clean shutdown).
    ///
    /// # Panics
    /// Panics when the file does not exist.
    pub fn corrupt(&self, path: &Path, f: impl FnOnce(&mut Vec<u8>)) {
        let mut s = self.lock();
        let bytes = s
            .files
            .get_mut(path)
            .unwrap_or_else(|| panic!("corrupt: no file at {}", path.display()));
        f(bytes);
    }

    /// The current size of `path`, if present.
    pub fn len_of(&self, path: &Path) -> Option<usize> {
        self.lock().files.get(path).map(Vec::len)
    }
}

fn killed() -> io::Error {
    io::Error::other("failpoint filesystem is dead (simulated crash)")
}

struct FailFile {
    path: PathBuf,
    shared: Arc<Mutex<FailState>>,
    armed: bool,
}

impl VfsFile for FailFile {
    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        let mut s = self.shared.lock().recover();
        if !self.armed {
            let file = s.files.entry(self.path.clone()).or_default();
            file.extend_from_slice(bytes);
            return Ok(());
        }
        if s.dead {
            return Err(killed());
        }
        let ordinal = s.writes_seen;
        s.writes_seen += 1;
        let firing = matches!(s.trigger, Some((n, _)) if n == ordinal);
        if firing {
            let (_, injection) = s.trigger.take().expect("trigger present");
            s.dead = true;
            let file = s.files.entry(self.path.clone()).or_default();
            match injection {
                Injection::DropWrite => {}
                Injection::TornWrite { keep } => {
                    file.extend_from_slice(&bytes[..keep.min(bytes.len())]);
                }
                Injection::BitFlip { byte } => {
                    let mut corrupted = bytes.to_vec();
                    if !corrupted.is_empty() {
                        let at = byte % corrupted.len();
                        corrupted[at] ^= 1;
                    }
                    file.extend_from_slice(&corrupted);
                }
            }
            return Err(killed());
        }
        let file = s.files.entry(self.path.clone()).or_default();
        file.extend_from_slice(bytes);
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        let s = self.shared.lock().recover();
        if self.armed && s.dead {
            return Err(killed());
        }
        Ok(())
    }
}

impl Vfs for FailpointFs {
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        let mut s = self.lock();
        if self.armed && s.dead {
            return Err(killed());
        }
        s.files.insert(path.to_path_buf(), Vec::new());
        Ok(Box::new(FailFile {
            path: path.to_path_buf(),
            shared: Arc::clone(&self.shared),
            armed: self.armed,
        }))
    }

    fn open_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        let s = self.lock();
        if self.armed && s.dead {
            return Err(killed());
        }
        if !s.files.contains_key(path) {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("no file at {}", path.display()),
            ));
        }
        Ok(Box::new(FailFile {
            path: path.to_path_buf(),
            shared: Arc::clone(&self.shared),
            armed: self.armed,
        }))
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let s = self.lock();
        if self.armed && s.dead {
            return Err(killed());
        }
        s.files.get(path).cloned().ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::NotFound,
                format!("no file at {}", path.display()),
            )
        })
    }

    fn exists(&self, path: &Path) -> bool {
        self.lock().files.contains_key(path)
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        let s = self.lock();
        if self.armed && s.dead {
            return Err(killed());
        }
        Ok(s.files
            .keys()
            .filter(|p| p.parent() == Some(dir))
            .cloned()
            .collect())
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        let mut s = self.lock();
        if self.armed && s.dead {
            return Err(killed());
        }
        if s.files.remove(path).is_none() {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("no file at {}", path.display()),
            ));
        }
        Ok(())
    }

    fn create_dir_all(&self, _dir: &Path) -> io::Result<()> {
        let s = self.lock();
        if self.armed && s.dead {
            return Err(killed());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> PathBuf {
        PathBuf::from(s)
    }

    #[test]
    fn failpoint_appends_then_dies_at_trigger() {
        let fs = FailpointFs::new();
        fs.fail_at(2, Injection::DropWrite);
        let mut f = fs.create(&p("/d/a")).unwrap();
        f.append(b"one").unwrap(); // write 0
        f.append(b"two").unwrap(); // write 1
        let err = f.append(b"three").unwrap_err(); // write 2: dropped + dead
        assert!(err.to_string().contains("simulated crash"));
        assert!(fs.is_dead());
        assert!(f.append(b"after").is_err());
        assert!(fs.read(&p("/d/a")).is_err());
        // The surviving bytes exclude the dropped write.
        assert_eq!(fs.disarmed().read(&p("/d/a")).unwrap(), b"onetwo");
    }

    #[test]
    fn torn_write_keeps_a_prefix() {
        let fs = FailpointFs::new();
        fs.fail_at(1, Injection::TornWrite { keep: 2 });
        let mut f = fs.create(&p("/d/a")).unwrap();
        f.append(b"head").unwrap();
        assert!(f.append(b"tail").is_err());
        assert_eq!(fs.disarmed().read(&p("/d/a")).unwrap(), b"headta");
    }

    #[test]
    fn bit_flip_lands_corrupted_bytes() {
        let fs = FailpointFs::new();
        fs.fail_at(0, Injection::BitFlip { byte: 1 });
        let mut f = fs.create(&p("/d/a")).unwrap();
        assert!(f.append(&[0x10, 0x20, 0x30]).is_err());
        assert_eq!(
            fs.disarmed().read(&p("/d/a")).unwrap(),
            vec![0x10, 0x21, 0x30]
        );
    }

    #[test]
    fn disarmed_handle_ignores_death_and_never_counts() {
        let fs = FailpointFs::new();
        fs.fail_at(0, Injection::DropWrite);
        let mut f = fs.create(&p("/d/a")).unwrap();
        assert!(f.append(b"x").is_err());
        let alive = fs.disarmed();
        let mut g = alive.create(&p("/d/b")).unwrap();
        g.append(b"recovered").unwrap();
        g.sync().unwrap();
        assert_eq!(alive.read(&p("/d/b")).unwrap(), b"recovered");
        // Disarmed appends do not advance the armed write counter.
        assert_eq!(fs.writes_seen(), 1);
    }

    #[test]
    fn list_filters_by_directory_and_corrupt_mutates() {
        let fs = FailpointFs::new();
        fs.create(&p("/d/a")).unwrap();
        fs.create(&p("/d/b")).unwrap();
        fs.create(&p("/e/c")).unwrap();
        assert_eq!(fs.list(&p("/d")).unwrap(), vec![p("/d/a"), p("/d/b")]);
        let mut f = fs.open_append(&p("/d/a")).unwrap();
        f.append(b"abcd").unwrap();
        fs.corrupt(&p("/d/a"), |bytes| bytes.truncate(2));
        assert_eq!(fs.read(&p("/d/a")).unwrap(), b"ab");
        fs.remove(&p("/d/b")).unwrap();
        assert!(!fs.exists(&p("/d/b")));
        assert!(fs.remove(&p("/d/b")).is_err());
    }

    #[test]
    fn std_fs_round_trips_in_a_temp_dir() {
        let dir = std::env::temp_dir().join(format!("clude-vfs-test-{}", std::process::id()));
        let fs = StdFs;
        fs.create_dir_all(&dir).unwrap();
        let path = dir.join("file.bin");
        let mut f = fs.create(&path).unwrap();
        f.append(b"hello ").unwrap();
        f.append(b"world").unwrap();
        f.sync().unwrap();
        drop(f);
        assert!(fs.exists(&path));
        assert_eq!(fs.read(&path).unwrap(), b"hello world");
        let mut g = fs.open_append(&path).unwrap();
        g.append(b"!").unwrap();
        g.sync().unwrap();
        drop(g);
        assert_eq!(fs.read(&path).unwrap(), b"hello world!");
        assert!(fs.list(&dir).unwrap().contains(&path));
        fs.remove(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
