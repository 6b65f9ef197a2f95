//! The durable workload's filesystem: the engine's own `StdFs`, every call
//! passed straight through, with the time spent inside it kept aside.
//!
//! A benchmark run shares its disk with whatever else the host is doing, and
//! a durability barrier (`sync`) waits for that disk: on the machine that
//! checks the benchmark the same code's `timed_s` spread by a quarter from
//! run to run on the durable workload alone.  That wait is the host's, not
//! the program's, so `timed_s` and `setup_s` leave it out; it is reported on
//! its own (`fs.wait_s`, `fs.syncs`), and the issue's own metrics
//! (`ingest_deltas_per_s`, `batch_apply_*`, `recovery_s`) keep it in.

use clude_engine::{StdFs, Vfs, VfsFile};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Time spent inside filesystem calls so far, and how many were barriers.
#[derive(Debug, Default)]
pub struct FsClock {
    state: Mutex<(Duration, u64)>,
}

impl FsClock {
    fn timed<T>(&self, sync: bool, call: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = call();
        let elapsed = start.elapsed();
        let mut state = self.state.lock().expect("fs clock poisoned");
        state.0 += elapsed;
        state.1 += sync as u64;
        out
    }

    /// Total time inside filesystem calls since the clock was made.
    pub fn waited(&self) -> Duration {
        self.state.lock().expect("fs clock poisoned").0
    }

    /// Durability barriers (`sync`) issued since the clock was made.
    pub fn syncs(&self) -> u64 {
        self.state.lock().expect("fs clock poisoned").1
    }
}

/// `StdFs` with a clock around every call.
#[derive(Debug)]
pub struct TimedFs {
    inner: StdFs,
    clock: Arc<FsClock>,
}

impl TimedFs {
    pub fn new(clock: Arc<FsClock>) -> Self {
        TimedFs {
            inner: StdFs,
            clock,
        }
    }

    fn wrap(&self, file: io::Result<Box<dyn VfsFile>>) -> io::Result<Box<dyn VfsFile>> {
        let clock = Arc::clone(&self.clock);
        file.map(|inner| Box::new(TimedFile { inner, clock }) as Box<dyn VfsFile>)
    }
}

struct TimedFile {
    inner: Box<dyn VfsFile>,
    clock: Arc<FsClock>,
}

impl VfsFile for TimedFile {
    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.clock.timed(false, || self.inner.append(bytes))
    }

    fn sync(&mut self) -> io::Result<()> {
        self.clock.timed(true, || self.inner.sync())
    }
}

impl Vfs for TimedFs {
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        self.wrap(self.clock.timed(false, || self.inner.create(path)))
    }

    fn open_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        self.wrap(self.clock.timed(false, || self.inner.open_append(path)))
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.clock.timed(false, || self.inner.read(path))
    }

    fn exists(&self, path: &Path) -> bool {
        self.clock.timed(false, || self.inner.exists(path))
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        self.clock.timed(false, || self.inner.list(dir))
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        self.clock.timed(false, || self.inner.remove(path))
    }

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        self.clock.timed(false, || self.inner.create_dir_all(dir))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calls_pass_through_and_their_time_is_kept() {
        let dir = std::env::temp_dir().join(format!("clude-perf-fsclock-{}", std::process::id()));
        let clock = Arc::new(FsClock::default());
        let fs = TimedFs::new(Arc::clone(&clock));
        fs.create_dir_all(&dir).unwrap();
        let path = dir.join("a.log");
        let mut file = fs.create(&path).unwrap();
        file.append(b"abc").unwrap();
        file.sync().unwrap();
        drop(file);
        fs.open_append(&path).unwrap().append(b"de").unwrap();
        assert!(fs.exists(&path));
        assert_eq!(fs.read(&path).unwrap(), b"abcde");
        assert_eq!(fs.list(&dir).unwrap(), vec![path.clone()]);
        fs.remove(&path).unwrap();
        assert!(!fs.exists(&path));
        assert_eq!(clock.syncs(), 1);
        assert!(clock.waited() > Duration::ZERO);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
