//! Durable central server: write-ahead logging, checkpoints, and crash
//! recovery.
//!
//! The central server is the single writer of the whole system — if its
//! in-memory state dies with the process, every signed delta it acked
//! is gone and the edges serve a history no one can extend. This module
//! makes the central recoverable:
//!
//! * **WAL** ([`vbx_storage::wal`]): every commit appends one
//!   checksummed record — a whole batch or multi-table txn is *one*
//!   record and *one* fsync, the durability analogue of the batched
//!   signing sweep — and the record is synced **before** the commit returns
//!   (append-before-ack). Heartbeats are logged too, so a restart can
//!   never rewind the logical clock below a freshness stamp already
//!   handed out.
//! * **Checkpoints** ([`vbx_storage::checkpoint`]): the full
//!   recoverable state — authenticated stores (the only copy of every
//!   row), view definitions, delta-log tail, stamp history, clock —
//!   appended as named sections into one flat, CRC-protected buffer,
//!   written atomically as `ckpt-<next_seq>`. The previous checkpoint
//!   is kept until the new one is durable, so a torn checkpoint write
//!   falls back instead of losing everything.
//! * **Recovery** ([`CentralServer::recover`]): load the newest valid
//!   checkpoint (a checkpoint of another format version is refused,
//!   and left on disk), replay the WAL suffix (records at or past the
//!   checkpoint's position) through the scheme's deterministic
//!   `apply_delta_batch` path, and truncate any torn tail — by
//!   append-before-ack a torn record was never acked, so dropping it
//!   loses nothing a caller was promised. Recovered state is
//!   byte-identical to the never-crashed server's
//!   ([`CentralServer::encode_state`]), which the crash-matrix tests
//!   assert across every fault-injection point of
//!   [`FailpointFs`](vbx_storage::FailpointFs).

use crate::central::{CentralError, CentralServer, DeltaLog};
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use vbx_core::durable::{decode_stamp, encode_stamp};
use vbx_core::scheme::{AuthScheme, Commit, DeltaBatch};
use vbx_core::{
    decode_wal_record, encode_wal_commit, encode_wal_commit_into, encode_wal_heartbeat, CoreError,
    DurableScheme, FreshnessStamp, WalRecord,
};
use vbx_crypto::{KeyRegistry, Signer};
use vbx_query::JoinViewDef;
use vbx_storage::wal::WAL_FILE;
use vbx_storage::{
    CheckpointBuilder, CheckpointError, CheckpointReader, StorageError, Vfs, Wal, WalTail,
};

/// Checkpoint file name prefix; the suffix is the zero-padded delta-log
/// `next_seq` the checkpoint captures, so lexicographic order equals
/// recovery order.
const CKPT_PREFIX: &str = "ckpt-";

/// Knobs of the durability subsystem
/// ([`CentralServer::with_durability`]).
#[derive(Clone, Copy, Debug)]
pub struct DurabilityConfig {
    /// Write an automatic checkpoint after this many WAL-logged ops
    /// (`0` = only on DDL and explicit [`CentralServer::checkpoint`]
    /// calls). Checkpoints bound recovery replay time; between them the
    /// WAL alone carries the commits.
    pub checkpoint_every: u64,
    /// Keep WAL records after a checkpoint instead of resetting the
    /// file. Recovery still skips records the checkpoint already
    /// covers; the retained prefix lets tests replay the *full* history
    /// and assert checkpoint+suffix ≡ full-WAL replay.
    pub retain_wal: bool,
}

impl Default for DurabilityConfig {
    fn default() -> Self {
        Self {
            checkpoint_every: 1024,
            retain_wal: false,
        }
    }
}

/// The per-server durability state: the WAL append handle, checkpoint
/// bookkeeping, and the scheme's encoding hooks captured as plain `fn`
/// pointers (so the engine lives inside the scheme-generic
/// [`CentralServer`] without widening its `AuthScheme` bound — only
/// [`with_durability`](CentralServer::with_durability) and
/// [`recover`](CentralServer::recover) require [`DurableScheme`]).
pub(crate) struct DurabilityEngine<S: AuthScheme> {
    vfs: Arc<dyn Vfs>,
    wal: Wal,
    config: DurabilityConfig,
    /// Ops WAL-logged since the last checkpoint.
    ops_since_checkpoint: u64,
    /// Newest durable checkpoint file, kept until its successor lands.
    checkpoint_file: Option<String>,
    /// First durability failure: the in-memory state may be ahead of
    /// disk, so every later commit fails with this error until the
    /// server is replaced via recovery.
    failed: Option<StorageError>,
    encode_commit: fn(&S, u64, &Commit<S::Delta>) -> Vec<u8>,
    build_image: fn(&CentralServer<S>) -> Vec<u8>,
}

impl<S: AuthScheme> DurabilityEngine<S> {
    fn check(&self) -> Result<(), StorageError> {
        match &self.failed {
            Some(e) => Err(e.clone()),
            None => Ok(()),
        }
    }

    /// Count `ops` newly logged ops and checkpoint if the policy says
    /// the WAL has grown enough.
    fn note_commit(&mut self, central: &CentralServer<S>, ops: u64) -> Result<(), StorageError> {
        self.ops_since_checkpoint += ops;
        if self.config.checkpoint_every > 0
            && self.ops_since_checkpoint >= self.config.checkpoint_every
        {
            self.write_checkpoint(central)?;
        }
        Ok(())
    }

    /// Serialise the full state and land it atomically as
    /// `ckpt-<next_seq>`. Only after the new file is durable is the
    /// previous checkpoint removed and (unless `retain_wal`) the WAL
    /// reset — a crash anywhere in between leaves either the old
    /// checkpoint + full WAL or the new checkpoint, never neither.
    fn write_checkpoint(&mut self, central: &CentralServer<S>) -> Result<(), StorageError> {
        let image = (self.build_image)(central);
        let name = format!("{CKPT_PREFIX}{:020}", central.delta_log().next_seq());
        self.vfs.write_atomic(&name, &image)?;
        if let Some(old) = self.checkpoint_file.take() {
            if old != name {
                self.vfs.remove(&old)?;
            }
        }
        self.checkpoint_file = Some(name);
        self.ops_since_checkpoint = 0;
        if !self.config.retain_wal {
            self.wal.reset()?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Commit-path hooks (called from central.rs; no-ops without durability)
// ---------------------------------------------------------------------

impl<S: AuthScheme> CentralServer<S> {
    /// WAL-log one commit — **one** record, one fsync for its whole
    /// sequence range and every table it touches — before the commit is
    /// acked. A failure poisons the engine and surfaces as
    /// [`CentralError::Durability`].
    pub(crate) fn durability_commit(
        &mut self,
        commit: &Commit<S::Delta>,
    ) -> Result<(), CentralError<S::Error>> {
        let Some(mut eng) = self.durability.take() else {
            return Ok(());
        };
        let result = (|| {
            eng.check()?;
            let bytes = (eng.encode_commit)(&self.scheme, self.clock, commit);
            eng.wal.append_sync(&bytes)?;
            eng.note_commit(self, commit.ops())
        })();
        if let Err(e) = &result {
            eng.failed = Some(e.clone());
        }
        self.durability = Some(eng);
        result.map_err(CentralError::Durability)
    }

    /// WAL-log a heartbeat's clock advance + stamp. `heartbeat()` keeps
    /// its infallible signature, so a failure here only poisons the
    /// engine — the *next* commit fails instead of acking state that a
    /// crash could rewind below the handed-out stamp.
    pub(crate) fn durability_heartbeat(&mut self, stamp: &FreshnessStamp) {
        let Some(mut eng) = self.durability.take() else {
            return;
        };
        if eng.failed.is_none() {
            let bytes = encode_wal_heartbeat(self.clock, stamp);
            if let Err(e) = eng.wal.append_sync(&bytes) {
                eng.failed = Some(e);
            }
        }
        self.durability = Some(eng);
    }

    /// DDL (create table / materialise view / rotate key) changes state
    /// the WAL's update records cannot express — force a checkpoint so
    /// the change is durable immediately. Failures poison the engine.
    pub(crate) fn durability_mark_ddl(&mut self) {
        let Some(mut eng) = self.durability.take() else {
            return;
        };
        if eng.failed.is_none() {
            if let Err(e) = eng.write_checkpoint(self) {
                eng.failed = Some(e);
            }
        }
        self.durability = Some(eng);
    }
}

// ---------------------------------------------------------------------
// Public durable surface (DurableScheme-bounded)
// ---------------------------------------------------------------------

fn wire_err<E>(e: CoreError) -> CentralError<E> {
    CentralError::Durability(StorageError::Corrupt(format!("durable decode: {e}")))
}

fn corrupt<E>(m: impl Into<String>) -> CentralError<E> {
    CentralError::Durability(StorageError::Corrupt(m.into()))
}

impl<S: DurableScheme> CentralServer<S> {
    /// Enable durability: open (or adopt) the WAL inside `vfs` and
    /// write a baseline checkpoint of the current state, so recovery
    /// always has a snapshot to start from. From here on every commit
    /// appends + fsyncs a WAL record before it is acked.
    pub fn with_durability(
        mut self,
        vfs: Arc<dyn Vfs>,
        config: DurabilityConfig,
    ) -> Result<Self, StorageError> {
        let wal = Wal::open(vfs.clone(), WAL_FILE)?;
        let mut eng = DurabilityEngine {
            vfs,
            wal,
            config,
            ops_since_checkpoint: 0,
            checkpoint_file: None,
            failed: None,
            encode_commit: encode_wal_commit::<S>,
            build_image: checkpoint_image::<S>,
        };
        eng.write_checkpoint(&self)?;
        self.durability = Some(eng);
        Ok(self)
    }

    /// True when a durability engine is attached and healthy.
    pub fn durable(&self) -> bool {
        self.durability
            .as_ref()
            .is_some_and(|eng| eng.failed.is_none())
    }

    /// Force a checkpoint now (benchmarks / shutdown). No-op without
    /// durability.
    pub fn checkpoint(&mut self) -> Result<(), CentralError<S::Error>> {
        let Some(mut eng) = self.durability.take() else {
            return Ok(());
        };
        let result = eng.check().and_then(|()| eng.write_checkpoint(self));
        if let Err(e) = &result {
            eng.failed = Some(e.clone());
        }
        self.durability = Some(eng);
        result.map_err(CentralError::Durability)
    }

    /// Deterministic byte fingerprint of the full recoverable state —
    /// exactly the checkpoint image. Two servers with equal
    /// `encode_state()` hold byte-identical stores, views,
    /// delta-log tail, stamp history, and clock; the crash-matrix tests
    /// pin recovery on this.
    pub fn encode_state(&self) -> Vec<u8> {
        checkpoint_image(self)
    }

    /// Recover a central server from `vfs`: load the newest valid
    /// checkpoint (a torn newest falls back to its kept predecessor;
    /// one of another format version fails recovery with
    /// [`CentralError::Durability`] and stays on disk),
    /// replay the WAL records past the checkpoint's position through
    /// the scheme's deterministic replica path, truncate any torn WAL
    /// tail, and resume logging. `signer` must hold the same key
    /// (version) the state was signed under; the key registry is
    /// re-published from it.
    pub fn recover(
        scheme: S,
        signer: Arc<dyn Signer>,
        vfs: Arc<dyn Vfs>,
        config: DurabilityConfig,
    ) -> Result<Self, CentralError<S::Error>> {
        // -- 1. newest valid checkpoint (torn ones are removed) --
        let mut ckpts: Vec<String> = vfs
            .list()
            .map_err(CentralError::Durability)?
            .into_iter()
            .filter(|n| n.starts_with(CKPT_PREFIX))
            .collect();
        ckpts.sort();
        let mut chosen = None;
        for name in ckpts.iter().rev() {
            let bytes = vfs
                .read(name)
                .map_err(CentralError::Durability)?
                .unwrap_or_default();
            match CheckpointReader::parse(&bytes) {
                Ok(reader) => {
                    let server = restore_from_checkpoint(scheme, signer, &reader)?;
                    chosen = Some((name.clone(), server));
                    break;
                }
                Err(CheckpointError::Version(v)) => {
                    // Intact but unreadable by this build: refuse, and
                    // keep the file — it may be the only checkpoint.
                    return Err(corrupt(format!(
                        "{name}: unsupported checkpoint version {v}"
                    )));
                }
                Err(CheckpointError::Corrupt(_)) => {
                    // Torn checkpoint write: fall back to the previous
                    // one (kept durable until its successor landed).
                    vfs.remove(name).map_err(CentralError::Durability)?;
                }
            }
        }
        let Some((ckpt_name, mut server)) = chosen else {
            return Err(corrupt("no valid checkpoint found"));
        };

        // -- 2. replay the WAL suffix --
        let wal_bytes = vfs
            .read(WAL_FILE)
            .map_err(CentralError::Durability)?
            .unwrap_or_default();
        let scan = vbx_storage::wal::scan_bytes(&wal_bytes).map_err(CentralError::Durability)?;
        let mut replayed = 0u64;
        for record in &scan.records {
            replayed += server.replay_wal_record(record)?;
        }
        if let WalTail::Torn { offset, .. } = &scan.tail {
            // Never-acked torn tail: drop it durably so future appends
            // land on a valid prefix.
            vfs.write_atomic(WAL_FILE, &wal_bytes[..*offset])
                .map_err(CentralError::Durability)?;
        }

        // -- 3. resume logging --
        let wal = Wal::open(vfs.clone(), WAL_FILE).map_err(CentralError::Durability)?;
        server.durability = Some(DurabilityEngine {
            vfs,
            wal,
            config,
            ops_since_checkpoint: replayed,
            checkpoint_file: Some(ckpt_name),
            failed: None,
            encode_commit: encode_wal_commit::<S>,
            build_image: checkpoint_image::<S>,
        });
        Ok(server)
    }

    /// Apply one decoded WAL record, skipping records the checkpoint
    /// already covers. Returns the number of ops applied.
    fn replay_wal_record(&mut self, bytes: &[u8]) -> Result<u64, CentralError<S::Error>> {
        let record = decode_wal_record(&self.scheme, bytes).map_err(wire_err)?;
        match record {
            WalRecord::Commit { clock, commit } => {
                let next = self.log.next_seq();
                if commit.end_seq() <= next {
                    return Ok(0); // covered by the checkpoint
                }
                if commit.start_seq() != next {
                    return Err(corrupt(format!(
                        "WAL gap: commit at seq {} but log expects {next}",
                        commit.start_seq()
                    )));
                }
                // All-or-nothing at the record level: a torn append
                // fails its CRC and lands in the torn tail — the *whole*
                // commit rolls back, never a table subset. Here the
                // record is intact, so every section replays.
                for section in commit.sections() {
                    self.replay_section(section)?;
                }
                self.clock = self.clock.max(clock);
                if let Some(stamp) = commit.stamp() {
                    self.stamps.insert(stamp.seq, stamp.clone());
                }
                let ops = commit.ops();
                self.log.push(commit).map_err(|e| corrupt(e.to_string()))?;
                self.prune_stamps();
                Ok(ops)
            }
            WalRecord::Heartbeat { clock, stamp } => {
                self.clock = self.clock.max(clock);
                self.stamps.insert(stamp.seq, stamp);
                self.prune_stamps();
                Ok(0)
            }
        }
    }

    /// Replay one commit section through the scheme's deterministic
    /// replica path (`apply_delta_batch`) and refresh affected views —
    /// the same side effects the original commit had, minus locking
    /// (recovery is single-threaded) and minus re-signing (payloads
    /// carry the original signatures).
    fn replay_section(
        &mut self,
        section: &DeltaBatch<S::Delta>,
    ) -> Result<(), CentralError<S::Error>> {
        let table = section.table.as_str();
        let store = self
            .stores
            .get_mut(table)
            .ok_or_else(|| CentralError::UnknownTable(table.to_string()))?;
        self.scheme
            .apply_delta_batch(store, &section.ops, &section.payloads, section.key_version)
            .map_err(CentralError::Scheme)?;
        self.refresh_views_for(table)
    }
}

// ---------------------------------------------------------------------
// Checkpoint image codec
// ---------------------------------------------------------------------

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// Append a `u32` length and then what `write` appends, patching the
/// length in afterwards: the bytes are written in place, never copied.
fn put_bytes_with(out: &mut Vec<u8>, write: impl FnOnce(&mut Vec<u8>)) {
    let at = out.len();
    put_u32(out, 0);
    write(out);
    let len = u32::try_from(out.len() - at - 4).expect("checkpoint entry < 4 GiB");
    out[at..at + 4].copy_from_slice(&len.to_be_bytes());
}

fn get_u32(buf: &mut &[u8]) -> Result<u32, StorageError> {
    if buf.len() < 4 {
        return Err(StorageError::Corrupt("checkpoint u32 truncated".into()));
    }
    let (head, rest) = buf.split_at(4);
    *buf = rest;
    Ok(u32::from_be_bytes(head.try_into().expect("4 bytes")))
}

fn get_u64(buf: &mut &[u8]) -> Result<u64, StorageError> {
    if buf.len() < 8 {
        return Err(StorageError::Corrupt("checkpoint u64 truncated".into()));
    }
    let (head, rest) = buf.split_at(8);
    *buf = rest;
    Ok(u64::from_be_bytes(head.try_into().expect("8 bytes")))
}

fn get_bytes<'a>(buf: &mut &'a [u8]) -> Result<&'a [u8], StorageError> {
    let len = get_u32(buf)? as usize;
    if buf.len() < len {
        return Err(StorageError::Corrupt("checkpoint bytes truncated".into()));
    }
    let (head, rest) = buf.split_at(len);
    *buf = rest;
    Ok(head)
}

fn get_str(buf: &mut &[u8]) -> Result<String, StorageError> {
    let bytes = get_bytes(buf)?;
    core::str::from_utf8(bytes)
        .map(str::to_string)
        .map_err(|_| StorageError::Corrupt("checkpoint string not UTF-8".into()))
}

/// Serialise the full recoverable state into one checkpoint image.
/// Deterministic: `BTreeMap` iteration orders every section, and all
/// signatures are stored, never re-derived. The stores — nearly all of
/// the image — and the log tail's records are encoded straight into the
/// image buffer, each length patched in after it.
fn checkpoint_image<S: DurableScheme>(central: &CentralServer<S>) -> Vec<u8> {
    let mut builder = CheckpointBuilder::new();

    let mut meta = Vec::with_capacity(64);
    put_u32(&mut meta, central.signer.key_version());
    meta.push(central.stamp_commits as u8);
    put_u64(&mut meta, central.clock);
    put_u64(&mut meta, central.log.oldest_seq());
    put_u64(&mut meta, central.log.next_seq());
    put_u64(
        &mut meta,
        u64::try_from(central.log.retention()).unwrap_or(u64::MAX),
    );
    builder.add("meta", &meta);

    let mut views = Vec::new();
    put_u32(&mut views, central.views.len() as u32);
    for def in &central.views {
        put_str(&mut views, &def.name);
        put_str(&mut views, &def.left_table);
        put_str(&mut views, &def.right_table);
        put_str(&mut views, &def.left_col);
        put_str(&mut views, &def.right_col);
    }
    builder.add("views", &views);

    // The stores are nearly all of the image: size the buffer for them
    // (and the small sections around them) once, exactly, instead of
    // letting it double past them.
    let stores_len: usize = central
        .stores
        .iter()
        .map(|(name, store)| 8 + name.len() + central.scheme.encoded_store_len(store))
        .sum();
    builder.reserve(stores_len + 4096);
    builder.add_with("stores", |out| {
        put_u32(out, central.stores.len() as u32);
        for (name, store) in &central.stores {
            put_str(out, name);
            put_bytes_with(out, |out| central.scheme.encode_store_into(store, out));
        }
    });

    // Delta-log tail: each entry as a full WAL record (clock 0 — the
    // real clock lives in "meta"), so one codec covers both files.
    builder.add_with("log", |out| {
        put_u32(out, central.log.entries().count() as u32);
        for entry in central.log.entries() {
            put_bytes_with(out, |out| {
                encode_wal_commit_into(&central.scheme, 0, entry, out)
            });
        }
    });

    let mut stamps = Vec::new();
    put_u32(&mut stamps, central.stamps.len() as u32);
    for stamp in central.stamps.values() {
        encode_stamp(&mut stamps, stamp);
    }
    builder.add("stamps", &stamps);

    builder.finish()
}

/// Rebuild a server from a parsed checkpoint (no WAL applied yet).
fn restore_from_checkpoint<S: DurableScheme>(
    scheme: S,
    signer: Arc<dyn Signer>,
    reader: &CheckpointReader,
) -> Result<CentralServer<S>, CentralError<S::Error>> {
    let section = |key: &str| {
        reader
            .get(key)
            .ok_or_else(|| corrupt::<S::Error>(format!("checkpoint missing section {key}")))
    };

    let mut meta = section("meta")?;
    let key_version = get_u32(&mut meta)?;
    if key_version != signer.key_version() {
        return Err(corrupt(format!(
            "checkpoint signed under key version {key_version}, recovering signer has {}",
            signer.key_version()
        )));
    }
    if meta.is_empty() {
        return Err(corrupt("checkpoint meta truncated"));
    }
    let stamp_commits = meta[0] != 0;
    meta = &meta[1..];
    let clock = get_u64(&mut meta)?;
    let log_start = get_u64(&mut meta)?;
    let log_next = get_u64(&mut meta)?;
    let retention = usize::try_from(get_u64(&mut meta)?).unwrap_or(usize::MAX);

    let mut views_buf = section("views")?;
    let n_views = get_u32(&mut views_buf)?;
    let mut views = Vec::with_capacity(n_views as usize);
    for _ in 0..n_views {
        let name = get_str(&mut views_buf)?;
        let left_table = get_str(&mut views_buf)?;
        let right_table = get_str(&mut views_buf)?;
        let left_col = get_str(&mut views_buf)?;
        let right_col = get_str(&mut views_buf)?;
        let def = JoinViewDef::new(&left_table, &right_table, &left_col, &right_col);
        if def.name != name {
            return Err(corrupt(format!(
                "view name mismatch: {name} vs {}",
                def.name
            )));
        }
        views.push(def);
    }

    let mut stores_buf = section("stores")?;
    let n_stores = get_u32(&mut stores_buf)?;
    let mut stores = BTreeMap::new();
    for _ in 0..n_stores {
        let name = get_str(&mut stores_buf)?;
        let bytes = get_bytes(&mut stores_buf)?;
        let store = scheme.decode_store(bytes).map_err(wire_err)?;
        stores.insert(name, store);
    }

    let mut log_buf = section("log")?;
    let n_entries = get_u32(&mut log_buf)?;
    let mut entries = VecDeque::with_capacity(n_entries as usize);
    for _ in 0..n_entries {
        let record = get_bytes(&mut log_buf)?;
        match decode_wal_record(&scheme, record).map_err(wire_err)? {
            WalRecord::Commit { commit, .. } => entries.push_back(commit),
            WalRecord::Heartbeat { .. } => {
                return Err(corrupt("heartbeat record in checkpoint log section"))
            }
        }
    }
    let log = DeltaLog::from_parts(entries, log_start, retention);
    if log.next_seq() != log_next {
        return Err(corrupt(format!(
            "checkpoint log tail ends at seq {} but meta recorded {log_next}",
            log.next_seq()
        )));
    }

    let mut stamps_buf = section("stamps")?;
    let n_stamps = get_u32(&mut stamps_buf)?;
    let mut stamps = BTreeMap::new();
    for _ in 0..n_stamps {
        let stamp = decode_stamp(&mut stamps_buf).map_err(wire_err)?;
        stamps.insert(stamp.seq, stamp);
    }

    let mut registry = KeyRegistry::new();
    registry.publish(signer.verifier(), 0);
    Ok(CentralServer {
        scheme,
        signer,
        registry,
        stores,
        views,
        log,
        stamps,
        stamp_commits,
        clock,
        durability: None,
    })
}
