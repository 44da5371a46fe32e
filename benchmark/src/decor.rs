//! Decorators over the library's public trait seams — the per-layer
//! numbers are measured from outside, the library is not edited.
//!
//! * [`TimedVfs`]: [`Vfs`] — fsync count/time, WAL bytes, checkpoint
//!   count/time/bytes, and each file's **synced length**, from which
//!   the crash image is cut (killing a process keeps the OS cache, so
//!   the harness discards unsynced tails itself).
//! * [`TimedSigner`]: [`Signer`] and [`TimedVerifier`]:
//!   [`SigVerifier`] — call counts and time inside the crypto layer.
//! * [`CountingTransport`]: [`Transport`] — frames and bytes (headers
//!   included) a client connection sends and receives.

use std::collections::BTreeMap;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use vbx_core::Frame;
use vbx_crypto::signer::{AggregateVerify, Signature};
use vbx_crypto::{SigVerifier, Signer};
use vbx_edge::{Conn, Listener, TcpTransport, Transport};
use vbx_storage::{DiskVfs, StorageError, Vfs};

// All counters below are statistics read after the threads that bump
// them were joined or went idle; they publish no other data.
fn add(c: &AtomicU64, v: u64) {
    c.fetch_add(v, Ordering::Relaxed);
}

fn get(c: &AtomicU64) -> u64 {
    c.load(Ordering::Relaxed)
}

fn ns_since(t0: Instant) -> u64 {
    t0.elapsed().as_nanos() as u64
}

// ---------------------------------------------------------------------
// Vfs
// ---------------------------------------------------------------------

/// A point-in-time copy of [`TimedVfs`]'s counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct VfsCounts {
    pub syncs: u64,
    pub sync_ns: u64,
    pub wal_bytes: u64,
    pub checkpoints: u64,
    pub checkpoint_ns: u64,
    pub checkpoint_bytes: u64,
}

impl VfsCounts {
    /// Combine two readings field by field.
    pub fn zip(&self, o: &VfsCounts, f: fn(u64, u64) -> u64) -> VfsCounts {
        VfsCounts {
            syncs: f(self.syncs, o.syncs),
            sync_ns: f(self.sync_ns, o.sync_ns),
            wal_bytes: f(self.wal_bytes, o.wal_bytes),
            checkpoints: f(self.checkpoints, o.checkpoints),
            checkpoint_ns: f(self.checkpoint_ns, o.checkpoint_ns),
            checkpoint_bytes: f(self.checkpoint_bytes, o.checkpoint_bytes),
        }
    }

    pub fn since(&self, earlier: &VfsCounts) -> VfsCounts {
        self.zip(earlier, |now, then| now - then)
    }
}

#[derive(Clone, Copy, Default)]
struct FileLen {
    len: u64,
    synced: u64,
}

/// [`DiskVfs`] with counters and synced-length tracking.
pub struct TimedVfs {
    inner: DiskVfs,
    files: Mutex<BTreeMap<String, FileLen>>,
    syncs: AtomicU64,
    sync_ns: AtomicU64,
    wal_bytes: AtomicU64,
    checkpoints: AtomicU64,
    checkpoint_ns: AtomicU64,
    checkpoint_bytes: AtomicU64,
}

const CKPT_PREFIX: &str = "ckpt-";

impl TimedVfs {
    /// Wrap a directory that holds no durable state yet.
    pub fn open(root: &Path) -> Result<Self, StorageError> {
        Ok(Self {
            inner: DiskVfs::open(root)?,
            files: Mutex::new(BTreeMap::new()),
            syncs: AtomicU64::new(0),
            sync_ns: AtomicU64::new(0),
            wal_bytes: AtomicU64::new(0),
            checkpoints: AtomicU64::new(0),
            checkpoint_ns: AtomicU64::new(0),
            checkpoint_bytes: AtomicU64::new(0),
        })
    }

    pub fn counts(&self) -> VfsCounts {
        VfsCounts {
            syncs: get(&self.syncs),
            sync_ns: get(&self.sync_ns),
            wal_bytes: get(&self.wal_bytes),
            checkpoints: get(&self.checkpoints),
            checkpoint_ns: get(&self.checkpoint_ns),
            checkpoint_bytes: get(&self.checkpoint_bytes),
        }
    }

    fn with_files<R>(&self, f: impl FnOnce(&mut BTreeMap<String, FileLen>) -> R) -> R {
        f(&mut self.files.lock().expect("no panic while tracking lengths"))
    }

    /// Write what a power cut would leave — every file cut to its
    /// synced length — into the empty directory `dest`.
    pub fn write_crash_image(&self, dest: &Path) -> Result<(), StorageError> {
        let image = DiskVfs::open(dest)?;
        let files = self.with_files(|m| m.clone());
        for (name, f) in files {
            let bytes = self.inner.read(&name)?.unwrap_or_default();
            let keep = (f.synced as usize).min(bytes.len());
            image.write_atomic(&name, &bytes[..keep])?;
        }
        Ok(())
    }
}

impl Vfs for TimedVfs {
    fn read(&self, name: &str) -> Result<Option<Vec<u8>>, StorageError> {
        self.inner.read(name)
    }

    fn append(&self, name: &str, bytes: &[u8]) -> Result<(), StorageError> {
        self.inner.append(name, bytes)?;
        add(&self.wal_bytes, bytes.len() as u64);
        self.with_files(|m| m.entry(name.to_string()).or_default().len += bytes.len() as u64);
        Ok(())
    }

    fn sync(&self, name: &str) -> Result<(), StorageError> {
        let t0 = Instant::now();
        self.inner.sync(name)?;
        add(&self.sync_ns, ns_since(t0));
        add(&self.syncs, 1);
        self.with_files(|m| {
            if let Some(f) = m.get_mut(name) {
                f.synced = f.len;
            }
        });
        Ok(())
    }

    fn write_atomic(&self, name: &str, bytes: &[u8]) -> Result<(), StorageError> {
        let t0 = Instant::now();
        self.inner.write_atomic(name, bytes)?;
        if name.starts_with(CKPT_PREFIX) {
            add(&self.checkpoint_ns, ns_since(t0));
            add(&self.checkpoints, 1);
            add(&self.checkpoint_bytes, bytes.len() as u64);
        }
        let len = bytes.len() as u64;
        self.with_files(|m| m.insert(name.to_string(), FileLen { len, synced: len }));
        Ok(())
    }

    fn truncate(&self, name: &str) -> Result<(), StorageError> {
        self.inner.truncate(name)?;
        self.with_files(|m| m.insert(name.to_string(), FileLen::default()));
        Ok(())
    }

    fn remove(&self, name: &str) -> Result<(), StorageError> {
        self.inner.remove(name)?;
        self.with_files(|m| m.remove(name));
        Ok(())
    }

    fn list(&self) -> Result<Vec<String>, StorageError> {
        self.inner.list()
    }
}

// ---------------------------------------------------------------------
// Signer / SigVerifier
// ---------------------------------------------------------------------

/// Calls into, and time inside, one side of the crypto layer.
#[derive(Default)]
pub struct CryptoCounts {
    calls: AtomicU64,
    ns: AtomicU64,
}

impl CryptoCounts {
    pub fn calls(&self) -> u64 {
        get(&self.calls)
    }

    pub fn ns(&self) -> u64 {
        get(&self.ns)
    }

    fn record(&self, t0: Instant) {
        add(&self.ns, ns_since(t0));
        add(&self.calls, 1);
    }
}

/// A [`Signer`] that counts and times `sign`.
pub struct TimedSigner {
    inner: Arc<dyn Signer>,
    pub counts: Arc<CryptoCounts>,
}

impl TimedSigner {
    pub fn new(inner: Arc<dyn Signer>) -> Self {
        Self {
            inner,
            counts: Arc::default(),
        }
    }
}

impl Signer for TimedSigner {
    fn sign(&self, msg: &[u8]) -> Signature {
        let t0 = Instant::now();
        let sig = self.inner.sign(msg);
        self.counts.record(t0);
        sig
    }

    fn signature_len(&self) -> usize {
        self.inner.signature_len()
    }

    fn key_version(&self) -> u32 {
        self.inner.key_version()
    }

    fn verifier(&self) -> Arc<dyn SigVerifier> {
        self.inner.verifier()
    }
}

/// A [`SigVerifier`] that counts signature checks (one per `verify`,
/// one per finished aggregate) and times them, absorbs included.
pub struct TimedVerifier {
    inner: Arc<dyn SigVerifier>,
    pub counts: Arc<CryptoCounts>,
}

impl TimedVerifier {
    pub fn new(inner: Arc<dyn SigVerifier>) -> Self {
        Self {
            inner,
            counts: Arc::default(),
        }
    }
}

struct TimedAggregate {
    inner: Box<dyn AggregateVerify>,
    counts: Arc<CryptoCounts>,
}

impl AggregateVerify for TimedAggregate {
    fn absorb(&mut self, msg: &[u8]) {
        let t0 = Instant::now();
        self.inner.absorb(msg);
        add(&self.counts.ns, ns_since(t0));
    }

    fn finish(self: Box<Self>, agg: &Signature) -> bool {
        let t0 = Instant::now();
        let ok = self.inner.finish(agg);
        self.counts.record(t0);
        ok
    }
}

impl SigVerifier for TimedVerifier {
    fn verify(&self, msg: &[u8], sig: &Signature) -> bool {
        let t0 = Instant::now();
        let ok = self.inner.verify(msg, sig);
        self.counts.record(t0);
        ok
    }

    fn signature_len(&self) -> usize {
        self.inner.signature_len()
    }

    fn key_version(&self) -> u32 {
        self.inner.key_version()
    }

    fn aggregate_signatures(&self, sigs: &[Signature]) -> Option<Signature> {
        self.inner.aggregate_signatures(sigs)
    }

    fn begin_aggregate(&self) -> Option<Box<dyn AggregateVerify>> {
        let inner = self.inner.begin_aggregate()?;
        Some(Box::new(TimedAggregate {
            inner,
            counts: self.counts.clone(),
        }))
    }
}

// ---------------------------------------------------------------------
// Transport
// ---------------------------------------------------------------------

/// Frames and bytes one side of a connection moved.
#[derive(Default)]
pub struct NetCounts {
    frames: AtomicU64,
    bytes: AtomicU64,
}

impl NetCounts {
    /// `(frames, bytes)` sent plus received.
    pub fn totals(&self) -> (u64, u64) {
        (get(&self.frames), get(&self.bytes))
    }
}

/// TCP whose dialled connections count their traffic. Listeners are
/// passed through: the server side has its own `ServerStats`.
#[derive(Clone, Default)]
pub struct CountingTransport {
    pub counts: Arc<NetCounts>,
}

struct CountingConn {
    inner: Box<dyn Conn>,
    counts: Arc<NetCounts>,
}

impl CountingConn {
    fn count(&self, frame: &Frame) {
        add(&self.counts.frames, 1);
        add(&self.counts.bytes, frame.encoded_len() as u64);
    }
}

impl Conn for CountingConn {
    fn send(&mut self, frame: &Frame) -> io::Result<()> {
        self.inner.send(frame)?;
        self.count(frame);
        Ok(())
    }

    fn recv(&mut self) -> io::Result<Frame> {
        let frame = self.inner.recv()?;
        self.count(&frame);
        Ok(frame)
    }

    fn peer(&self) -> String {
        self.inner.peer()
    }
}

impl Transport for CountingTransport {
    fn name(&self) -> &'static str {
        "tcp"
    }

    fn listen(&self, addr: &str) -> io::Result<Box<dyn Listener>> {
        TcpTransport.listen(addr)
    }

    fn connect(&self, addr: &str) -> io::Result<Box<dyn Conn>> {
        Ok(Box::new(CountingConn {
            inner: TcpTransport.connect(addr)?,
            counts: self.counts.clone(),
        }))
    }
}
