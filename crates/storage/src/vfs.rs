//! Virtual file system for the durability subsystem.
//!
//! The write-ahead log and checkpoint files (see [`crate::wal`] and
//! [`crate::checkpoint`]) talk to storage through the small [`Vfs`]
//! trait so the same recovery code runs against three backends:
//!
//! * [`DiskVfs`] — real files in a directory, `fsync` via
//!   `File::sync_all`, atomic replace via write-temp-then-rename, then
//!   an `fsync` of the directory so the rename itself is durable;
//! * [`MemVfs`] — an in-memory filesystem with **faithful fsync
//!   semantics**: appended bytes sit in a volatile buffer until
//!   [`sync`](Vfs::sync) moves them to the durable image, and
//!   [`MemVfs::crash_image`] drops everything volatile — exactly what a
//!   process kill does to the page cache;
//! * [`FailpointFs`] — a wrapper that injects a scripted failure
//!   ([`FailPoint`]) at one boundary (before/after/torn append, failed
//!   sync, torn atomic write, failed truncate) and then behaves like a
//!   dead process: every later call fails, and the surviving bytes are
//!   whatever the wrapped [`MemVfs`] had made durable.
//!
//! The crash-matrix tests in `vbx-edge` drive every failpoint and assert
//! the recovered central state is byte-identical to a never-crashed
//! control.

use crate::StorageError;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// Minimal file-system surface the durability layer needs. All methods
/// take `&self` (backends use interior mutability) so a single
/// `Arc<dyn Vfs>` can be shared by the WAL writer and the checkpointer.
pub trait Vfs: Send + Sync {
    /// Full current contents of `name` (durable + not-yet-synced), or
    /// `None` if the file does not exist.
    fn read(&self, name: &str) -> Result<Option<Vec<u8>>, StorageError>;

    /// Append bytes to `name`, creating it if missing. Appended bytes
    /// are *not* guaranteed durable until [`sync`](Self::sync).
    fn append(&self, name: &str, bytes: &[u8]) -> Result<(), StorageError>;

    /// Make every appended byte of `name` durable (`fsync`).
    fn sync(&self, name: &str) -> Result<(), StorageError>;

    /// Atomically replace `name` with `bytes` (write temp + fsync +
    /// rename): after the call either the old or the new content is on
    /// disk in full, never a mix.
    fn write_atomic(&self, name: &str, bytes: &[u8]) -> Result<(), StorageError>;

    /// Truncate `name` to empty (durably).
    fn truncate(&self, name: &str) -> Result<(), StorageError>;

    /// Remove `name` if it exists.
    fn remove(&self, name: &str) -> Result<(), StorageError>;

    /// Names of all existing files, sorted.
    fn list(&self) -> Result<Vec<String>, StorageError>;
}

fn io_err(ctx: &str, e: std::io::Error) -> StorageError {
    StorageError::Io(format!("{ctx}: {e}"))
}

// ---------------------------------------------------------------------
// DiskVfs
// ---------------------------------------------------------------------

/// [`Vfs`] over a real directory. File names map to direct children of
/// the root (no subdirectories).
pub struct DiskVfs {
    root: std::path::PathBuf,
}

impl DiskVfs {
    /// Open (creating if needed) a directory-backed VFS.
    pub fn open(root: impl Into<std::path::PathBuf>) -> Result<Self, StorageError> {
        let root = root.into();
        std::fs::create_dir_all(&root).map_err(|e| io_err("create vfs dir", e))?;
        Ok(Self { root })
    }

    fn path(&self, name: &str) -> std::path::PathBuf {
        self.root.join(name)
    }
}

impl Vfs for DiskVfs {
    fn read(&self, name: &str) -> Result<Option<Vec<u8>>, StorageError> {
        match std::fs::read(self.path(name)) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(io_err("read", e)),
        }
    }

    fn append(&self, name: &str, bytes: &[u8]) -> Result<(), StorageError> {
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.path(name))
            .map_err(|e| io_err("open for append", e))?;
        f.write_all(bytes).map_err(|e| io_err("append", e))
    }

    fn sync(&self, name: &str) -> Result<(), StorageError> {
        std::fs::OpenOptions::new()
            .append(true)
            .open(self.path(name))
            .and_then(|f| f.sync_all())
            .map_err(|e| io_err("sync", e))
    }

    fn write_atomic(&self, name: &str, bytes: &[u8]) -> Result<(), StorageError> {
        let tmp = self.path(&format!("{name}.tmp"));
        {
            use std::io::Write;
            let mut f = std::fs::File::create(&tmp).map_err(|e| io_err("create temp", e))?;
            f.write_all(bytes).map_err(|e| io_err("write temp", e))?;
            f.sync_all().map_err(|e| io_err("sync temp", e))?;
        }
        std::fs::rename(&tmp, self.path(name)).map_err(|e| io_err("rename", e))?;
        // The rename is an update of the directory, not of the file: until
        // the directory is synced a crash can still lose it — and the
        // caller (a checkpoint) goes on to reset the WAL the old name
        // depended on.
        std::fs::File::open(&self.root)
            .and_then(|dir| dir.sync_all())
            .map_err(|e| io_err("sync dir", e))
    }

    fn truncate(&self, name: &str) -> Result<(), StorageError> {
        let f = std::fs::File::create(self.path(name)).map_err(|e| io_err("truncate", e))?;
        f.sync_all().map_err(|e| io_err("sync truncate", e))
    }

    fn remove(&self, name: &str) -> Result<(), StorageError> {
        match std::fs::remove_file(self.path(name)) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(io_err("remove", e)),
        }
    }

    fn list(&self) -> Result<Vec<String>, StorageError> {
        let mut names = Vec::new();
        for entry in std::fs::read_dir(&self.root).map_err(|e| io_err("list", e))? {
            let entry = entry.map_err(|e| io_err("list entry", e))?;
            if entry
                .file_type()
                .map_err(|e| io_err("file type", e))?
                .is_file()
            {
                names.push(entry.file_name().to_string_lossy().into_owned());
            }
        }
        names.sort();
        Ok(names)
    }
}

// ---------------------------------------------------------------------
// MemVfs
// ---------------------------------------------------------------------

#[derive(Clone, Default)]
struct MemFile {
    /// Bytes that survived an `fsync` (or an atomic replace).
    durable: Vec<u8>,
    /// Appended bytes not yet synced — lost on [`MemVfs::crash_image`].
    pending: Vec<u8>,
}

/// In-memory [`Vfs`] with page-cache-faithful fsync semantics (see the
/// module docs). The crash tests read a consistent "what was actually
/// on disk" image via [`crash_image`](Self::crash_image).
#[derive(Default)]
pub struct MemVfs {
    files: Mutex<BTreeMap<String, MemFile>>,
}

impl MemVfs {
    /// An empty in-memory filesystem.
    pub fn new() -> Self {
        Self::default()
    }

    /// The filesystem as it would look after a process kill: only
    /// durable (synced) bytes survive; pending appends are dropped.
    pub fn crash_image(&self) -> MemVfs {
        let files = self.files.lock().unwrap();
        let survived = files
            .iter()
            .map(|(name, f)| {
                (
                    name.clone(),
                    MemFile {
                        durable: f.durable.clone(),
                        pending: Vec::new(),
                    },
                )
            })
            .collect();
        MemVfs {
            files: Mutex::new(survived),
        }
    }

    /// Durable bytes of one file (test inspection).
    pub fn durable_bytes(&self, name: &str) -> Option<Vec<u8>> {
        self.files
            .lock()
            .unwrap()
            .get(name)
            .map(|f| f.durable.clone())
    }

    /// Overwrite a file's durable image directly (tests splice crafted
    /// or corrupted bytes into a crash image).
    pub fn set_durable(&self, name: &str, bytes: Vec<u8>) {
        let mut files = self.files.lock().unwrap();
        let f = files.entry(name.to_string()).or_default();
        f.durable = bytes;
        f.pending.clear();
    }
}

impl Vfs for MemVfs {
    fn read(&self, name: &str) -> Result<Option<Vec<u8>>, StorageError> {
        Ok(self.files.lock().unwrap().get(name).map(|f| {
            let mut all = f.durable.clone();
            all.extend_from_slice(&f.pending);
            all
        }))
    }

    fn append(&self, name: &str, bytes: &[u8]) -> Result<(), StorageError> {
        let mut files = self.files.lock().unwrap();
        files
            .entry(name.to_string())
            .or_default()
            .pending
            .extend_from_slice(bytes);
        Ok(())
    }

    fn sync(&self, name: &str) -> Result<(), StorageError> {
        let mut files = self.files.lock().unwrap();
        if let Some(f) = files.get_mut(name) {
            let pending = std::mem::take(&mut f.pending);
            f.durable.extend_from_slice(&pending);
        }
        Ok(())
    }

    fn write_atomic(&self, name: &str, bytes: &[u8]) -> Result<(), StorageError> {
        let mut files = self.files.lock().unwrap();
        let f = files.entry(name.to_string()).or_default();
        f.durable = bytes.to_vec();
        f.pending.clear();
        Ok(())
    }

    fn truncate(&self, name: &str) -> Result<(), StorageError> {
        let mut files = self.files.lock().unwrap();
        let f = files.entry(name.to_string()).or_default();
        f.durable.clear();
        f.pending.clear();
        Ok(())
    }

    fn remove(&self, name: &str) -> Result<(), StorageError> {
        self.files.lock().unwrap().remove(name);
        Ok(())
    }

    fn list(&self) -> Result<Vec<String>, StorageError> {
        Ok(self.files.lock().unwrap().keys().cloned().collect())
    }
}

// ---------------------------------------------------------------------
// FailpointFs
// ---------------------------------------------------------------------

/// One scripted failure. Every variant names the file (substring match,
/// so `"wal"` matches `"wal.log"`) whose **next** matching operation
/// trips the point; after tripping, the whole filesystem acts dead (see
/// [`FailpointFs`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FailPoint {
    /// Crash before any byte of the next append reaches the file.
    BeforeAppend {
        /// File-name substring to match.
        file: String,
    },
    /// The next append writes only its first `keep` bytes — and those
    /// bytes are made durable, modelling a torn write that partially
    /// reached the platter.
    TornAppend {
        /// File-name substring to match.
        file: String,
        /// Bytes of the append that survive.
        keep: usize,
    },
    /// The next append **and its sync** succeed, then the process dies
    /// — the record is durable but the caller never saw the ack.
    AfterAppend {
        /// File-name substring to match.
        file: String,
    },
    /// The next sync fails and nothing pending becomes durable.
    BeforeSync {
        /// File-name substring to match.
        file: String,
    },
    /// The next atomic write tears: on an atomic backend the target
    /// keeps its old content (`replace_with_garbage = false`); with
    /// `replace_with_garbage = true` the target is replaced by only the
    /// first `keep` bytes, modelling a non-atomic filesystem — recovery
    /// must detect the invalid checkpoint and fall back.
    TornAtomicWrite {
        /// File-name substring to match.
        file: String,
        /// Bytes of the new content that land when tearing the target.
        keep: usize,
        /// Whether the torn prefix replaces the target file.
        replace_with_garbage: bool,
    },
    /// The next truncate fails before taking effect.
    BeforeTruncate {
        /// File-name substring to match.
        file: String,
    },
}

impl FailPoint {
    fn file(&self) -> &str {
        match self {
            FailPoint::BeforeAppend { file }
            | FailPoint::TornAppend { file, .. }
            | FailPoint::AfterAppend { file }
            | FailPoint::BeforeSync { file }
            | FailPoint::TornAtomicWrite { file, .. }
            | FailPoint::BeforeTruncate { file } => file,
        }
    }
}

/// A fault-injecting [`Vfs`] wrapper around a [`MemVfs`]. Arm one
/// [`FailPoint`]; when it trips, the operation fails as scripted and the
/// filesystem transitions to *crashed*: every subsequent call returns
/// [`StorageError::Io`] (the process is dead). The surviving disk image
/// — durable bytes only — is then available via
/// [`crash_image`](Self::crash_image) for recovery.
pub struct FailpointFs {
    inner: MemVfs,
    armed: Mutex<Option<FailPoint>>,
    crashed: AtomicBool,
}

impl FailpointFs {
    /// Wrap a fresh in-memory filesystem with no failpoint armed.
    pub fn new() -> Self {
        Self {
            inner: MemVfs::new(),
            armed: Mutex::new(None),
            crashed: AtomicBool::new(false),
        }
    }

    /// Arm a failpoint (replacing any previously armed one).
    pub fn arm(&self, point: FailPoint) {
        *self.armed.lock().unwrap() = Some(point);
    }

    /// True once a failpoint has tripped (or [`kill`](Self::kill) ran).
    pub fn is_crashed(&self) -> bool {
        self.crashed.load(Ordering::SeqCst)
    }

    /// Kill the process unconditionally (the "between commit and
    /// fan-out" crash needs no fs-op trigger — the caller just stops).
    pub fn kill(&self) {
        self.crashed.store(true, Ordering::SeqCst);
    }

    /// The surviving disk image: durable bytes only, failpoint cleared.
    pub fn crash_image(&self) -> MemVfs {
        self.inner.crash_image()
    }

    fn check_alive(&self) -> Result<(), StorageError> {
        if self.is_crashed() {
            Err(StorageError::Io("process crashed (failpoint)".into()))
        } else {
            Ok(())
        }
    }

    /// Take the armed failpoint if it matches `file` and `want`.
    fn take_if(&self, file: &str, want: fn(&FailPoint) -> bool) -> Option<FailPoint> {
        let mut armed = self.armed.lock().unwrap();
        match armed.as_ref() {
            Some(p) if want(p) && file.contains(p.file()) => armed.take(),
            _ => None,
        }
    }

    fn die(&self) -> StorageError {
        self.crashed.store(true, Ordering::SeqCst);
        StorageError::Io("process crashed (failpoint)".into())
    }
}

impl Default for FailpointFs {
    fn default() -> Self {
        Self::new()
    }
}

impl Vfs for FailpointFs {
    fn read(&self, name: &str) -> Result<Option<Vec<u8>>, StorageError> {
        self.check_alive()?;
        self.inner.read(name)
    }

    fn append(&self, name: &str, bytes: &[u8]) -> Result<(), StorageError> {
        self.check_alive()?;
        if let Some(p) = self.take_if(name, |p| {
            matches!(
                p,
                FailPoint::BeforeAppend { .. }
                    | FailPoint::TornAppend { .. }
                    | FailPoint::AfterAppend { .. }
            )
        }) {
            return match p {
                FailPoint::BeforeAppend { .. } => Err(self.die()),
                FailPoint::TornAppend { keep, .. } => {
                    let torn = &bytes[..keep.min(bytes.len())];
                    self.inner.append(name, torn)?;
                    self.inner.sync(name)?;
                    Err(self.die())
                }
                FailPoint::AfterAppend { .. } => {
                    self.inner.append(name, bytes)?;
                    self.inner.sync(name)?;
                    Err(self.die())
                }
                _ => unreachable!(),
            };
        }
        self.inner.append(name, bytes)
    }

    fn sync(&self, name: &str) -> Result<(), StorageError> {
        self.check_alive()?;
        if self
            .take_if(name, |p| matches!(p, FailPoint::BeforeSync { .. }))
            .is_some()
        {
            return Err(self.die());
        }
        self.inner.sync(name)
    }

    fn write_atomic(&self, name: &str, bytes: &[u8]) -> Result<(), StorageError> {
        self.check_alive()?;
        if let Some(FailPoint::TornAtomicWrite {
            keep,
            replace_with_garbage,
            ..
        }) = self.take_if(name, |p| matches!(p, FailPoint::TornAtomicWrite { .. }))
        {
            if replace_with_garbage {
                let torn = bytes[..keep.min(bytes.len())].to_vec();
                self.inner.set_durable(name, torn);
            }
            // Otherwise the rename never happened: target unchanged.
            return Err(self.die());
        }
        self.inner.write_atomic(name, bytes)
    }

    fn truncate(&self, name: &str) -> Result<(), StorageError> {
        self.check_alive()?;
        if self
            .take_if(name, |p| matches!(p, FailPoint::BeforeTruncate { .. }))
            .is_some()
        {
            return Err(self.die());
        }
        self.inner.truncate(name)
    }

    fn remove(&self, name: &str) -> Result<(), StorageError> {
        self.check_alive()?;
        if self
            .take_if(name, |p| matches!(p, FailPoint::BeforeTruncate { .. }))
            .is_some()
        {
            return Err(self.die());
        }
        self.inner.remove(name)
    }

    fn list(&self) -> Result<Vec<String>, StorageError> {
        self.check_alive()?;
        self.inner.list()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_vfs_sync_semantics() {
        let fs = MemVfs::new();
        fs.append("f", b"abc").unwrap();
        assert_eq!(fs.read("f").unwrap().unwrap(), b"abc");
        // Not yet synced: a crash loses it.
        assert_eq!(fs.crash_image().read("f").unwrap().unwrap(), b"");
        fs.sync("f").unwrap();
        assert_eq!(fs.crash_image().read("f").unwrap().unwrap(), b"abc");
    }

    #[test]
    fn failpoint_torn_append() {
        let fs = FailpointFs::new();
        fs.append("wal.log", b"first").unwrap();
        fs.sync("wal.log").unwrap();
        fs.arm(FailPoint::TornAppend {
            file: "wal".into(),
            keep: 3,
        });
        assert!(fs.append("wal.log", b"second").is_err());
        assert!(fs.is_crashed());
        assert!(fs.append("wal.log", b"more").is_err(), "dead after crash");
        let image = fs.crash_image();
        assert_eq!(image.read("wal.log").unwrap().unwrap(), b"firstsec");
    }

    #[test]
    fn failpoint_before_append_keeps_old_bytes() {
        let fs = FailpointFs::new();
        fs.append("wal.log", b"keep").unwrap();
        fs.sync("wal.log").unwrap();
        fs.arm(FailPoint::BeforeAppend { file: "wal".into() });
        assert!(fs.append("wal.log", b"lost").is_err());
        assert_eq!(fs.crash_image().read("wal.log").unwrap().unwrap(), b"keep");
    }

    #[test]
    fn failpoint_torn_atomic_write() {
        let fs = FailpointFs::new();
        fs.write_atomic("ckpt", b"old-valid").unwrap();
        fs.arm(FailPoint::TornAtomicWrite {
            file: "ckpt".into(),
            keep: 2,
            replace_with_garbage: false,
        });
        assert!(fs.write_atomic("ckpt", b"new-content").is_err());
        // Atomic backend: old content intact.
        assert_eq!(
            fs.crash_image().read("ckpt").unwrap().unwrap(),
            b"old-valid"
        );
    }

    #[test]
    fn disk_vfs_roundtrip() {
        let dir = std::env::temp_dir().join(format!("vbx-vfs-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let fs = DiskVfs::open(&dir).unwrap();
        assert_eq!(fs.read("x").unwrap(), None);
        fs.append("x", b"ab").unwrap();
        fs.append("x", b"cd").unwrap();
        fs.sync("x").unwrap();
        assert_eq!(fs.read("x").unwrap().unwrap(), b"abcd");
        fs.write_atomic("y", b"whole").unwrap();
        assert_eq!(fs.read("y").unwrap().unwrap(), b"whole");
        assert_eq!(fs.list().unwrap(), vec!["x".to_string(), "y".to_string()]);
        fs.truncate("x").unwrap();
        assert_eq!(fs.read("x").unwrap().unwrap(), b"");
        fs.remove("y").unwrap();
        assert_eq!(fs.read("y").unwrap(), None);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
