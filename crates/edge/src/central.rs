//! The trusted central DBMS, generic over the authentication scheme.
//!
//! Owns the master database, the private signing key, and the
//! authoritative authenticated stores (VB-trees, Naive digest tables, or
//! Merkle trees — anything implementing
//! [`AuthScheme`]). Executes update
//! transactions under the Section 3.4 locking protocol, records **signed
//! update deltas** for edge replicas (which cannot sign anything
//! themselves), refreshes materialised join views, and manages key
//! rotation with validity windows for the delayed-propagation mode.

use crate::locks::{LockManager, LockMode};
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use vbx_core::scheme::{AuthScheme, Commit, DeltaBatch, TxnBatch, UpdateOp, VbScheme};
use vbx_core::{CoreError, FreshnessStamp, VbTree, VbTreeConfig};
use vbx_crypto::accum::Accumulator;
use vbx_crypto::{KeyRegistry, Signer};
use vbx_query::{build_view_table, JoinViewDef};
use vbx_storage::{Schema, StorageError, Table, Tuple};

/// Cursor and append errors from the [`DeltaLog`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeltaLogError {
    /// The requested cursor points before the retention window — the
    /// subscriber fell too far behind and must re-bundle.
    Truncated {
        /// Sequence number the subscriber asked for.
        requested: u64,
        /// Oldest sequence number still retained.
        oldest: u64,
    },
    /// An appended entry's sequence number is not exactly the log's
    /// next: the log is the authoritative contiguous history, and
    /// recovery replay depends on gap-free seq ranges.
    NonContiguous {
        /// The sequence number the log expected next.
        expected: u64,
        /// The sequence number the entry actually carried.
        got: u64,
    },
    /// An empty batch was pushed (batches must carry at least one op to
    /// occupy a sequence range).
    EmptyBatch,
}

impl core::fmt::Display for DeltaLogError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            DeltaLogError::Truncated { requested, oldest } => write!(
                f,
                "delta {requested} evicted from the retention window (oldest retained: {oldest})"
            ),
            DeltaLogError::NonContiguous { expected, got } => {
                write!(f, "non-contiguous delta seq {got} (log expects {expected})")
            }
            DeltaLogError::EmptyBatch => write!(f, "empty delta batch"),
        }
    }
}

impl std::error::Error for DeltaLogError {}

/// The central server's signed-delta log with a **bounded retention
/// window** and a cursor API.
///
/// An entry is one [`Commit`] — a group-committed batch or an atomic
/// multi-table txn, logged, evicted and handed to subscribers as the
/// unit it committed as. The log retains only the newest `retention`
/// *ops* (older entries are evicted — a subscriber that far behind
/// re-bundles instead), and [`since`](Self::since) hands out a
/// borrowing iterator so pollers clone exactly the entries they still
/// need. Cursors work on the underlying *sequence numbers*, so a commit
/// of `k` ops advances a subscriber's cursor by `k` in one hop.
#[derive(Clone, Debug)]
pub struct DeltaLog<P> {
    entries: VecDeque<Commit<P>>,
    /// Sequence number of the first retained entry's first op.
    start_seq: u64,
    /// Ops (not entries) currently retained.
    retained_ops: usize,
    retention: usize,
}

impl<P: Clone> DeltaLog<P> {
    /// An empty log retaining at most `retention` ops (min 1).
    pub fn new(retention: usize) -> Self {
        Self {
            entries: VecDeque::new(),
            start_seq: 0,
            retained_ops: 0,
            retention: retention.max(1),
        }
    }

    /// An empty log that never evicts (the pre-cluster behaviour).
    pub fn unbounded() -> Self {
        Self::new(usize::MAX)
    }

    /// Sequence number the next pushed op must carry.
    pub fn next_seq(&self) -> u64 {
        self.start_seq + self.retained_ops as u64
    }

    /// Oldest sequence number still retained.
    pub fn oldest_seq(&self) -> u64 {
        self.start_seq
    }

    /// Number of retained ops (a commit of `k` ops counts `k`).
    pub fn len(&self) -> usize {
        self.retained_ops
    }

    /// True when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Append the next commit, covering `[start_seq, end_seq())`, and
    /// evict past the retention window — whole entries only (a commit
    /// leaves as the unit it arrived as), always keeping the newest even
    /// if it alone exceeds the window. Rejects commits with no (or
    /// empty) sections, and any section chain that does not start
    /// exactly at [`next_seq`](Self::next_seq) and stay gap-free section
    /// to section — the log is the authoritative contiguous history, and
    /// silently accepting a gap would poison every cursor and recovery
    /// replay downstream.
    pub fn push(&mut self, commit: Commit<P>) -> Result<(), DeltaLogError> {
        let sections = commit.sections();
        if sections.is_empty() || sections.iter().any(|s| s.is_empty()) {
            return Err(DeltaLogError::EmptyBatch);
        }
        let mut next = self.next_seq();
        for section in sections {
            if section.start_seq != next {
                return Err(DeltaLogError::NonContiguous {
                    expected: next,
                    got: section.start_seq,
                });
            }
            next = section.end_seq();
        }
        self.retained_ops += commit.ops() as usize;
        self.entries.push_back(commit);
        while self.retained_ops > self.retention && self.entries.len() > 1 {
            let evicted = self.entries.pop_front().expect("len > 1");
            self.retained_ops -= evicted.ops() as usize;
            self.start_seq = evicted.end_seq();
        }
        Ok(())
    }

    /// Rebuild a log from checkpointed parts (durability recovery).
    pub(crate) fn from_parts(
        entries: VecDeque<Commit<P>>,
        start_seq: u64,
        retention: usize,
    ) -> Self {
        let retained_ops = entries.iter().map(|e| e.ops() as usize).sum();
        Self {
            entries,
            start_seq,
            retained_ops,
            retention: retention.max(1),
        }
    }

    /// The retention window in ops.
    pub fn retention(&self) -> usize {
        self.retention
    }

    /// Every retained entry in seq order (checkpoints persist these).
    pub fn entries(&self) -> impl Iterator<Item = &Commit<P>> {
        self.entries.iter()
    }

    /// Borrowing iterator over every retained entry covering any `seq >=
    /// cursor`. A cursor at (or past) the head yields an empty
    /// iterator; a cursor before the retention window is an error (the
    /// subscriber must re-bundle). Subscribers advance their cursor to
    /// each entry's [`end_seq`](Commit::end_seq), so a cursor always
    /// lands on an entry boundary; a cursor *inside* a commit (possible
    /// only for a subscriber that did not follow that rule) receives the
    /// whole commit again.
    pub fn since(
        &self,
        cursor: u64,
    ) -> Result<impl Iterator<Item = &Commit<P>> + '_, DeltaLogError> {
        if cursor < self.start_seq {
            return Err(DeltaLogError::Truncated {
                requested: cursor,
                oldest: self.start_seq,
            });
        }
        // Entries are ordered by seq range: skip everything fully
        // consumed by the cursor.
        let lo = self.entries.partition_point(|e| e.end_seq() <= cursor);
        Ok(self.entries.range(lo..))
    }

    /// Owned clone of every retained entry covering any `seq >= cursor`
    /// (clones only the tail the subscriber still needs; an entry clones
    /// an `Arc`).
    pub fn collect_since(&self, cursor: u64) -> Result<Vec<Commit<P>>, DeltaLogError> {
        Ok(self.since(cursor)?.cloned().collect())
    }
}

/// Initial distribution bundle for a new edge server: full replicas of
/// every tree (base tables and views). VB-tree specific — the wire
/// format serialises signed tree nodes.
#[derive(Clone)]
pub struct EdgeBundle<const L: usize> {
    /// Tree replicas by name.
    pub trees: BTreeMap<String, VbTree<L>>,
    /// View definitions.
    pub views: Vec<JoinViewDef>,
    /// Sequence number the bundle reflects.
    pub as_of_seq: u64,
}

impl<const L: usize> EdgeBundle<L> {
    /// Serialize the bundle — the bytes the central server actually
    /// ships to a new edge site.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(4096);
        out.extend_from_slice(b"VBB1");
        out.extend_from_slice(&self.as_of_seq.to_be_bytes());
        let put_str = |out: &mut Vec<u8>, s: &str| {
            out.extend_from_slice(&(s.len() as u32).to_be_bytes());
            out.extend_from_slice(s.as_bytes());
        };
        out.extend_from_slice(&(self.views.len() as u32).to_be_bytes());
        for v in &self.views {
            put_str(&mut out, &v.name);
            put_str(&mut out, &v.left_table);
            put_str(&mut out, &v.right_table);
            put_str(&mut out, &v.left_col);
            put_str(&mut out, &v.right_col);
        }
        out.extend_from_slice(&(self.trees.len() as u32).to_be_bytes());
        for (name, tree) in &self.trees {
            put_str(&mut out, name);
            let tree_bytes = vbx_core::encode_tree(tree);
            out.extend_from_slice(&(tree_bytes.len() as u64).to_be_bytes());
            out.extend_from_slice(&tree_bytes);
        }
        out
    }

    /// Decode a bundle, structurally validating every tree.
    pub fn from_bytes(bytes: &[u8], acc: &Accumulator<L>) -> Result<Self, CoreError> {
        let corrupt = |m: &str| CoreError::Wire(m.to_string());
        let mut buf = bytes;
        let take = |buf: &mut &[u8], n: usize| -> Result<Vec<u8>, CoreError> {
            if buf.len() < n {
                return Err(corrupt("bundle truncated"));
            }
            let out = buf[..n].to_vec();
            *buf = &buf[n..];
            Ok(out)
        };
        let get_str = |buf: &mut &[u8]| -> Result<String, CoreError> {
            let len = u32::from_be_bytes(take(buf, 4)?.try_into().unwrap()) as usize;
            String::from_utf8(take(buf, len)?).map_err(|_| corrupt("bundle string not UTF-8"))
        };

        if take(&mut buf, 4)? != b"VBB1" {
            return Err(corrupt("bad bundle magic"));
        }
        let as_of_seq = u64::from_be_bytes(take(&mut buf, 8)?.try_into().unwrap());
        let n_views = u32::from_be_bytes(take(&mut buf, 4)?.try_into().unwrap()) as usize;
        let mut views = Vec::with_capacity(n_views.min(1024));
        for _ in 0..n_views {
            let name = get_str(&mut buf)?;
            let left_table = get_str(&mut buf)?;
            let right_table = get_str(&mut buf)?;
            let left_col = get_str(&mut buf)?;
            let right_col = get_str(&mut buf)?;
            views.push(JoinViewDef {
                name,
                left_table,
                right_table,
                left_col,
                right_col,
            });
        }
        let n_trees = u32::from_be_bytes(take(&mut buf, 4)?.try_into().unwrap()) as usize;
        let mut trees = BTreeMap::new();
        for _ in 0..n_trees {
            let name = get_str(&mut buf)?;
            let tree_len = u64::from_be_bytes(take(&mut buf, 8)?.try_into().unwrap()) as usize;
            let tree_bytes = take(&mut buf, tree_len)?;
            let tree = vbx_core::decode_tree(&tree_bytes, acc.clone())?;
            trees.insert(name, tree);
        }
        if !buf.is_empty() {
            return Err(corrupt("trailing bytes in bundle"));
        }
        Ok(Self {
            trees,
            views,
            as_of_seq,
        })
    }
}

/// Errors from central-server operations, parameterised by the scheme's
/// own error type.
#[derive(Debug)]
pub enum CentralError<E> {
    /// Storage-level failure.
    Storage(StorageError),
    /// Scheme-level failure (tree/digest/signing).
    Scheme(E),
    /// Unknown table.
    UnknownTable(String),
    /// The write-ahead log or a checkpoint could not be made durable.
    /// The in-memory commit may be ahead of disk: the server refuses
    /// further commits until replaced via recovery, so no state that
    /// was acked to a caller can be silently lost in a later crash.
    Durability(StorageError),
}

impl<E: core::fmt::Display> core::fmt::Display for CentralError<E> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CentralError::Storage(e) => write!(f, "{e}"),
            CentralError::Scheme(e) => write!(f, "{e}"),
            CentralError::UnknownTable(t) => write!(f, "unknown table {t}"),
            CentralError::Durability(e) => write!(f, "durability failure: {e}"),
        }
    }
}

impl<E: std::error::Error> std::error::Error for CentralError<E> {}

impl<E> From<StorageError> for CentralError<E> {
    fn from(e: StorageError) -> Self {
        CentralError::Storage(e)
    }
}

/// Newest per-commit stamps kept for lagging subscribers (see
/// [`CentralServer::stamp_for_seq`]). An edge further behind keeps its
/// old stamp until it catches up — conservative, never unsound.
const STAMP_RETENTION: usize = 1_024;

/// A staged multi-table update transaction (see
/// [`CentralServer::begin_txn`]). Ops buffer in arrival order; nothing
/// locks, signs, logs, or hits the WAL until
/// [`CentralServer::commit_txn`] — staging is free, and a dropped `Txn`
/// simply never happened.
#[derive(Clone, Debug, Default)]
pub struct Txn {
    staged: Vec<(String, UpdateOp)>,
}

impl Txn {
    /// Stage one update against `table`.
    pub fn stage(&mut self, table: impl Into<String>, op: UpdateOp) -> &mut Self {
        self.staged.push((table.into(), op));
        self
    }

    /// Number of staged ops.
    pub fn len(&self) -> usize {
        self.staged.len()
    }

    /// True when nothing is staged.
    pub fn is_empty(&self) -> bool {
        self.staged.is_empty()
    }
}

/// The trusted central DBMS, generic over the authentication scheme.
pub struct CentralServer<S: AuthScheme> {
    pub(crate) scheme: S,
    pub(crate) signer: Arc<dyn Signer>,
    pub(crate) registry: KeyRegistry,
    /// Every authenticated store, base tables and views alike. A store
    /// is the only copy of its rows: base tables are the keys no view
    /// names.
    pub(crate) stores: BTreeMap<String, S::Store>,
    pub(crate) views: Vec<JoinViewDef>,
    pub(crate) locks: LockManager,
    pub(crate) log: DeltaLog<S::Delta>,
    /// Owner stamps per attested seq, pruned to the log's retention
    /// window and capped at [`STAMP_RETENTION`] (the newest stamp is
    /// always kept).
    pub(crate) stamps: BTreeMap<u64, FreshnessStamp>,
    /// Sign a fresh stamp on every commit. Enabled by
    /// [`with_delta_retention`](Self::with_delta_retention) (cluster
    /// deployments); standalone servers skip the per-commit signature
    /// — with an RSA signer that is a full extra signing operation per
    /// update — and attest only on [`heartbeat`](Self::heartbeat).
    pub(crate) stamp_commits: bool,
    pub(crate) clock: u64,
    /// Write-ahead durability engine; `None` = in-memory only (the
    /// pre-durability behaviour, still the default).
    pub(crate) durability: Option<crate::durability::DurabilityEngine<S>>,
}

impl<S: AuthScheme> CentralServer<S> {
    /// Create a central server for a scheme and publish the initial key
    /// version.
    pub fn with_scheme(scheme: S, signer: Arc<dyn Signer>) -> Self {
        let mut registry = KeyRegistry::new();
        registry.publish(signer.verifier(), 0);
        let mut stamps = BTreeMap::new();
        stamps.insert(0, FreshnessStamp::sign(signer.as_ref(), 0, 0));
        Self {
            scheme,
            signer,
            registry,
            stores: BTreeMap::new(),
            views: Vec::new(),
            locks: LockManager::new(),
            log: DeltaLog::unbounded(),
            stamps,
            stamp_commits: false,
            clock: 0,
            durability: None,
        }
    }

    /// Bound the delta log's retention window (see [`DeltaLog`]) and
    /// enable per-commit freshness stamps (the cluster subscription
    /// mode). Subscribers further behind than `retention` deltas get
    /// [`DeltaLogError::Truncated`] and must re-bundle.
    pub fn with_delta_retention(mut self, retention: usize) -> Self {
        self.log = DeltaLog::new(retention);
        self.stamp_commits = true;
        self
    }

    /// The scheme descriptor (public parameters).
    pub fn scheme(&self) -> &S {
        &self.scheme
    }

    /// The public key registry (clients consult it for freshness).
    pub fn registry(&self) -> &KeyRegistry {
        &self.registry
    }

    /// Verifier for the *current* signing key.
    /// [`rotate_key`](Self::rotate_key) re-signs every store under the
    /// new key, so this verifier always authenticates the central's live
    /// state — the anchor a restoring edge checks chunk proofs against.
    pub fn verifier(&self) -> Arc<dyn vbx_crypto::SigVerifier> {
        self.signer.verifier()
    }

    /// Logical clock (advances with every committed update).
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// Lock statistics (tests).
    pub fn lock_stats(&self) -> crate::locks::LockStats {
        self.locks.stats()
    }

    /// Register a base table: builds and signs its authenticated store.
    /// With durability enabled this is DDL and forces a checkpoint (the
    /// WAL carries only update deltas, so schema changes must land in a
    /// full snapshot).
    pub fn create_table(&mut self, table: Table) {
        let store = self.scheme.build(&table, self.signer.as_ref());
        self.stores.insert(table.schema().table.clone(), store);
        self.durability_mark_ddl();
    }

    /// Drop a base table and discard its store. Returns `false` when no
    /// such base table exists (a view name included). DDL, like
    /// [`create_table`](Self::create_table): forces a checkpoint so the
    /// drop lands in a durable snapshot. Edges that still hold an
    /// assignment for the table discover the drop on their next
    /// (re)subscription and remove the stale replica.
    pub fn drop_table(&mut self, name: &str) -> bool {
        let existed = !self.is_view(name) && self.stores.remove(name).is_some();
        if existed {
            self.durability_mark_ddl();
        }
        existed
    }

    /// Authoritative store lookup.
    pub fn store(&self, name: &str) -> Option<&S::Store> {
        self.stores.get(name)
    }

    /// Schema of a base table (scheme-independent metadata clients and
    /// the cluster coordinator share). `None` for views.
    pub fn schema(&self, name: &str) -> Option<&Schema> {
        self.base_store(name).map(|store| self.scheme.schema(store))
    }

    /// True when `name` is a materialised view rather than a base table.
    fn is_view(&self, name: &str) -> bool {
        self.views.iter().any(|d| d.name == name)
    }

    /// A base table's store; `None` for unknown names and views.
    fn base_store(&self, name: &str) -> Option<&S::Store> {
        self.stores.get(name).filter(|_| !self.is_view(name))
    }

    /// Base tables and their stores, in name order: every store no view
    /// names.
    pub(crate) fn base_tables(&self) -> impl Iterator<Item = (&String, &S::Store)> {
        self.stores.iter().filter(|(name, _)| !self.is_view(name))
    }

    /// The rows of base table `name`, read back from its store.
    fn base_table(&self, name: &str) -> Result<Table, CentralError<S::Error>> {
        self.base_store(name)
            .map(|store| self.scheme.table(store))
            .ok_or_else(|| CentralError::UnknownTable(name.into()))
    }

    /// Materialise an equijoin view and build its authenticated store
    /// (Section 3.3's join strategy — works for every scheme, since a
    /// view is just another table). Returns the canonical view name.
    pub fn materialize_join(
        &mut self,
        left: &str,
        right: &str,
        left_col: &str,
        right_col: &str,
    ) -> Result<String, CentralError<S::Error>> {
        let lt = self.base_table(left)?;
        let rt = self.base_table(right)?;
        let def = JoinViewDef::new(left, right, left_col, right_col);
        let view_table = build_view_table(&def, &lt, &rt)?;
        let store = self.scheme.build(&view_table, self.signer.as_ref());
        let name = def.name.clone();
        self.stores.insert(name.clone(), store);
        self.views.push(def);
        self.durability_mark_ddl();
        Ok(name)
    }

    /// Registered view definitions.
    pub fn views(&self) -> &[JoinViewDef] {
        &self.views
    }

    /// Log entries after `seq` (edge servers pull these to catch up).
    /// A `seq` beyond the log — a replica ahead of this server, e.g.
    /// restored from a newer snapshot — yields an empty batch rather than
    /// panicking the trusted side on untrusted input. A `seq` before
    /// the retention window yields the retained suffix; the resulting
    /// gap surfaces as `OutOfOrder` at the replica, which must then
    /// re-bundle. Prefer the cursor API on
    /// [`delta_log`](Self::delta_log), which reports truncation
    /// explicitly and clones only the needed tail.
    pub fn deltas_since(&self, seq: u64) -> Vec<Commit<S::Delta>> {
        self.log
            .collect_since(seq.max(self.log.oldest_seq()))
            .expect("cursor clamped into the retention window")
    }

    /// The signed-delta log (bounded retention + cursor API).
    pub fn delta_log(&self) -> &DeltaLog<S::Delta> {
        &self.log
    }

    /// The newest owner freshness stamp.
    pub fn freshness_stamp(&self) -> FreshnessStamp {
        self.stamps
            .values()
            .next_back()
            .expect("a stamp is signed at construction")
            .clone()
    }

    /// The owner stamp attesting exactly `seq` committed deltas, if
    /// still retained. Subscribers install this on an edge replica once
    /// the replica has applied through `seq`.
    pub fn stamp_for_seq(&self, seq: u64) -> Option<FreshnessStamp> {
        self.stamps.get(&seq).cloned()
    }

    /// The owner position `(next_seq, clock)` a trusted client measures
    /// staleness against.
    pub fn owner_position(&self) -> (u64, u64) {
        (self.log.next_seq(), self.clock)
    }

    /// Advance the logical clock and re-sign the current position — the
    /// owner's liveness heartbeat. Edges that receive (via their
    /// subscription) this stamp prove recent contact; a partitioned
    /// edge keeps an aging stamp and trips `FreshnessPolicy::max_age`.
    pub fn heartbeat(&mut self) -> FreshnessStamp {
        self.clock += 1;
        let stamp = FreshnessStamp::sign(self.signer.as_ref(), self.log.next_seq(), self.clock);
        self.stamps.insert(self.log.next_seq(), stamp.clone());
        self.prune_stamps();
        // Persist the clock advance so recovery never rewinds below a
        // handed-out stamp's `(seq, clock)`. A WAL failure here poisons
        // the engine: subsequent commits fail instead of acking state
        // that could rewind past this stamp after a crash.
        self.durability_heartbeat(&stamp);
        stamp
    }

    /// Drop stamps no subscriber can land on anymore: below the delta
    /// log's retention window, and beyond the [`STAMP_RETENTION`] cap
    /// (oldest first — the newest stamp is always kept).
    pub(crate) fn prune_stamps(&mut self) {
        let oldest = self.log.oldest_seq();
        self.stamps.retain(|&seq, _| seq >= oldest);
        while self.stamps.len() > STAMP_RETENTION {
            self.stamps.pop_first();
        }
    }
}

/// The commit path. Every entry point — a single op, a group-committed
/// batch, an atomic multi-table txn — funnels into `commit_runs`, the
/// paper's one update transaction (Section 3.4).
impl<S: AuthScheme> CentralServer<S>
where
    S::Store: Clone,
{
    /// Insert a tuple: a batch of one (see
    /// [`execute_update_batch`](Self::execute_update_batch)).
    pub fn insert(
        &mut self,
        table: &str,
        tuple: Tuple,
    ) -> Result<Arc<DeltaBatch<S::Delta>>, CentralError<S::Error>> {
        self.execute_update_batch(table, vec![UpdateOp::Insert(tuple)])
    }

    /// Delete a tuple: a batch of one.
    pub fn delete(
        &mut self,
        table: &str,
        key: u64,
    ) -> Result<Arc<DeltaBatch<S::Delta>>, CentralError<S::Error>> {
        self.execute_update_batch(table, vec![UpdateOp::Delete(key)])
    }

    /// Batch range delete (equation (12)'s transaction): a batch of one.
    pub fn delete_range(
        &mut self,
        table: &str,
        lo: u64,
        hi: u64,
    ) -> Result<Arc<DeltaBatch<S::Delta>>, CentralError<S::Error>> {
        self.execute_update_batch(table, vec![UpdateOp::DeleteRange(lo, hi)])
    }

    /// One group-commit transaction on one table: `k` ops commit
    /// through [`AuthScheme::update_batch`] (for the VB-tree: one
    /// deferred signing sweep over the dirty nodes instead of per-op
    /// path re-signs) and log as one [`DeltaBatch`] covering the ops'
    /// whole sequence range — with **one** freshness stamp attesting
    /// the batch's end position (in cluster mode) instead of one per
    /// op. `k` ops thus cost ~1 signature sweep, ~1 stamp, ~1 WAL
    /// record and ~1 fan-out message. All-or-nothing, like every commit.
    ///
    /// An empty `ops` is a no-op: nothing locks, commits, or logs.
    pub fn execute_update_batch(
        &mut self,
        table: &str,
        ops: Vec<UpdateOp>,
    ) -> Result<Arc<DeltaBatch<S::Delta>>, CentralError<S::Error>> {
        if ops.is_empty() {
            return Ok(Arc::new(DeltaBatch {
                start_seq: self.log.next_seq(),
                table: table.to_string(),
                ops,
                payloads: Vec::new(),
                key_version: self.signer.key_version(),
                stamp: None,
            }));
        }
        self.commit_runs(vec![(table.to_string(), ops)], |mut sections, stamp| {
            let mut batch = sections.pop().expect("one run commits as one section");
            batch.stamp = stamp;
            let batch = Arc::new(batch);
            (batch.clone(), Commit::Batch(batch))
        })
    }

    /// Begin staging an atomic multi-table transaction. Stage ops with
    /// [`Txn::stage`], then commit the whole set with
    /// [`commit_txn`](Self::commit_txn).
    pub fn begin_txn(&self) -> Txn {
        Txn::default()
    }

    /// Commit a staged multi-table transaction **atomically**:
    /// consecutive same-table runs become the sections of one
    /// [`TxnBatch`], chained over one contiguous sequence range in
    /// arrival order, with one freshness stamp attesting the txn's end
    /// position (cluster mode) and **one** checksummed WAL record —
    /// fsync'd before *any* table's state is acked.
    ///
    /// Committing an empty txn is a no-op returning a sectionless
    /// `TxnBatch`.
    pub fn commit_txn(
        &mut self,
        txn: Txn,
    ) -> Result<Arc<TxnBatch<S::Delta>>, CentralError<S::Error>> {
        if txn.staged.is_empty() {
            return Ok(Arc::new(TxnBatch {
                sections: Vec::new(),
                stamp: None,
            }));
        }
        let mut runs: Vec<(String, Vec<UpdateOp>)> = Vec::new();
        for (table, op) in txn.staged {
            match runs.last_mut() {
                Some((t, run)) if *t == table => run.push(op),
                _ => runs.push((table, vec![op])),
            }
        }
        self.commit_runs(runs, |sections, stamp| {
            let txn = Arc::new(TxnBatch { sections, stamp });
            (txn.clone(), Commit::Txn(txn))
        })
    }

    /// The one update transaction every commit runs. `runs` are the
    /// commit's same-table op runs in commit order (none empty);
    /// `envelope` wraps the resulting stamp-less sections and the
    /// commit's stamp into what the caller acks and the [`Commit`] that
    /// is logged.
    ///
    /// X-lock the union of every run's lock targets across all touched
    /// tables, run each run's [`AuthScheme::update_batch`] signing
    /// sweep, release, refresh affected views once, stamp the end
    /// position (cluster mode), push the commit to the log, and append
    /// its WAL record — append-before-ack: the record (and its fsync)
    /// lands before the commit is returned to the caller.
    ///
    /// All-or-nothing: on any failure up to the sweeps — an unknown
    /// table, or a sweep refusing an op (duplicate key, missing key,
    /// schema mismatch) with the scheme's error — no store, log entry,
    /// or durable record changes at all. A single run needs no undo:
    /// one `update_batch` is atomic by the trait's contract. A store
    /// already swept when a later run fails is restored from a snapshot
    /// handle taken under the locks. (A WAL failure poisons the
    /// durability engine instead: memory may be ahead of disk, so the
    /// server refuses further commits.)
    fn commit_runs<R>(
        &mut self,
        runs: Vec<(String, Vec<UpdateOp>)>,
        envelope: impl FnOnce(
            Vec<DeltaBatch<S::Delta>>,
            Option<FreshnessStamp>,
        ) -> (R, Commit<S::Delta>),
    ) -> Result<R, CentralError<S::Error>> {
        // Validate every table before anything mutates.
        for (table, _) in &runs {
            if !self.stores.contains_key(table) {
                return Err(CentralError::UnknownTable(table.clone()));
            }
        }
        // Union of every run's lock targets across all touched tables.
        let lock_txn = self.next_txn();
        let mut resources: Vec<(String, usize)> = Vec::new();
        for (table, ops) in &runs {
            let store = self.stores.get(table).expect("validated above");
            for op in ops {
                for target in self.scheme.lock_targets(store, op) {
                    resources.push((table.clone(), target));
                }
            }
        }
        resources.sort_unstable();
        resources.dedup();
        self.locks
            .try_acquire_all(lock_txn, &resources, LockMode::Exclusive)
            .expect("single-threaded central server cannot conflict with itself");

        let result = (|| {
            // Every run's signing sweep. With more than one run, undo
            // snapshots let a failing run roll the whole commit back —
            // never a table subset.
            let mut undo: BTreeMap<String, S::Store> = BTreeMap::new();
            let mut run_payloads: Vec<Vec<S::Delta>> = Vec::with_capacity(runs.len());
            for (table, ops) in &runs {
                let store = self.stores.get_mut(table).expect("validated above");
                if runs.len() > 1 && !undo.contains_key(table) {
                    undo.insert(table.clone(), store.clone());
                }
                match self.scheme.update_batch(store, ops, self.signer.as_ref()) {
                    Ok(payloads) => run_payloads.push(payloads),
                    Err(e) => {
                        for (t, snapshot) in undo {
                            self.stores.insert(t, snapshot);
                        }
                        return Err(CentralError::Scheme(e));
                    }
                }
            }
            Ok(run_payloads)
        })();
        self.locks.release_all(lock_txn);
        let run_payloads = result?;

        let mut touched: Vec<&str> = runs.iter().map(|(t, _)| t.as_str()).collect();
        touched.sort_unstable();
        touched.dedup();
        for table in touched {
            self.refresh_views_for(table)?;
        }
        self.clock += 1;
        let key_version = self.signer.key_version();
        let mut seq = self.log.next_seq();
        let mut sections = Vec::with_capacity(runs.len());
        for ((table, ops), payloads) in runs.into_iter().zip(run_payloads) {
            let start_seq = seq;
            seq += ops.len() as u64;
            sections.push(DeltaBatch {
                start_seq,
                table,
                ops,
                payloads,
                key_version,
                // The commit-level stamp covers the whole envelope; the
                // sections carry none of their own.
                stamp: None,
            });
        }
        // One stamp for the whole commit, attesting its end position.
        let stamp = self.stamp_commits.then(|| {
            let stamp = FreshnessStamp::sign(self.signer.as_ref(), seq, self.clock);
            self.stamps.insert(seq, stamp.clone());
            stamp
        });
        let (acked, commit) = envelope(sections, stamp);
        self.log
            .push(commit.clone())
            .expect("commit path issues contiguous seqs");
        if self.stamp_commits {
            self.prune_stamps();
        }
        self.durability_commit(&commit)?;
        Ok(acked)
    }
}

impl<S: AuthScheme> CentralServer<S> {
    /// Rotate the signing key: re-sign every store under the new key and
    /// publish the new version with a validity window starting now
    /// (Section 3.4's defence for delayed propagation).
    pub fn rotate_key(&mut self, new_signer: Arc<dyn Signer>) {
        self.signer = new_signer;
        self.registry.publish(self.signer.verifier(), self.clock);
        // Stamps signed under the retired key would fail against the
        // new verifier; re-attest the current position under the new
        // key.
        self.stamps.clear();
        self.stamps.insert(
            self.log.next_seq(),
            FreshnessStamp::sign(self.signer.as_ref(), self.log.next_seq(), self.clock),
        );
        // Rebuild (re-sign) every base-table store under the new key.
        let resigned: Vec<(String, S::Store)> = self
            .base_tables()
            .map(|(name, store)| {
                let table = self.scheme.table(store);
                (
                    name.clone(),
                    self.scheme.build(&table, self.signer.as_ref()),
                )
            })
            .collect();
        self.stores.extend(resigned);
        // Views are derived; refresh them too.
        let defs = self.views.clone();
        for def in defs {
            let (Ok(lt), Ok(rt)) = (
                self.base_table(&def.left_table),
                self.base_table(&def.right_table),
            ) else {
                continue;
            };
            if let Ok(view_table) = build_view_table(&def, &lt, &rt) {
                let store = self.scheme.build(&view_table, self.signer.as_ref());
                self.stores.insert(def.name.clone(), store);
            }
        }
        // A key rotation invalidates every checkpointed signature:
        // force a fresh checkpoint under the new key.
        self.durability_mark_ddl();
    }

    pub(crate) fn refresh_views_for(&mut self, table: &str) -> Result<(), CentralError<S::Error>> {
        let affected: Vec<JoinViewDef> = self
            .views
            .iter()
            .filter(|d| d.left_table == table || d.right_table == table)
            .cloned()
            .collect();
        for def in affected {
            let lt = self.base_table(&def.left_table)?;
            let rt = self.base_table(&def.right_table)?;
            let view_table = build_view_table(&def, &lt, &rt)?;
            let store = self.scheme.build(&view_table, self.signer.as_ref());
            self.stores.insert(def.name.clone(), store);
        }
        Ok(())
    }

    fn next_txn(&self) -> u64 {
        self.clock + 1_000_000 * (self.log.next_seq() + 1)
    }
}

/// VB-tree specific surface: the compatibility constructor and the tree
/// distribution bundle (its wire format serialises signed tree nodes).
impl<const L: usize> CentralServer<VbScheme<L>> {
    /// Create a VB-tree central server from accumulator parameters and
    /// tree geometry.
    pub fn new(acc: Accumulator<L>, signer: Arc<dyn Signer>, config: VbTreeConfig) -> Self {
        Self::with_scheme(VbScheme::new(acc, config), signer)
    }

    /// The digest algebra (public parameters).
    pub fn accumulator(&self) -> &Accumulator<L> {
        &self.scheme.acc
    }

    /// Authoritative tree lookup.
    pub fn tree(&self, name: &str) -> Option<&VbTree<L>> {
        self.stores.get(name)
    }

    /// Snapshot everything for a new edge server.
    pub fn bundle(&self) -> EdgeBundle<L> {
        EdgeBundle {
            trees: self.stores.clone(),
            views: self.views.clone(),
            as_of_seq: self.log.next_seq(),
        }
    }

    /// Rebuilt view trees (edges re-fetch these after applying deltas;
    /// views are refreshed wholesale because their rowids shift).
    pub fn view_trees(&self) -> BTreeMap<String, VbTree<L>> {
        self.views
            .iter()
            .filter_map(|d| {
                self.stores
                    .get(&d.name)
                    .map(|t| (d.name.clone(), t.clone()))
            })
            .collect()
    }
}
