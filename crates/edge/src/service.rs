//! The concurrent serving subsystem: snapshot replicas + VO cache.
//!
//! [`EdgeService`] is the `&self`-everywhere (hence `Sync`) engine an
//! edge site actually runs: every table is a [`ServingReplica`] (an
//! atomically swappable snapshot, so readers never block), queries take
//! the Section 3.4 **shared** locks on their enveloping subtree and
//! updates take **exclusive** locks on the affected path digests through
//! one [`LockManager`] — conflicting paths retry, non-overlapping ones
//! proceed concurrently, exactly as the paper prescribes — and a
//! response/VO cache keyed by `(table, range, residual fingerprint)`
//! lets repeated hot-range queries skip both re-execution and VO
//! assembly entirely. The cache is invalidated per table whenever a
//! delta lands on (or a new snapshot is published for) that table;
//! other tables' entries survive.
//!
//! [`crate::EdgeServer`] is a thin façade over this type that adds the
//! VB-tree SQL surface and the test-only tamper modes.

use crate::locks::{LockManager, LockMode, LockStats, Resource};
use crate::snapshot::ServingReplica;
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use vbx_core::scheme::{AuthScheme, Commit, DeltaBatch, TxnBatch};
use vbx_core::{FreshnessStamp, RangeQuery, ResponseFreshness};
use vbx_storage::Schema;

/// Edge-side failures: replication and query lookup, parameterised by
/// the scheme's own error type.
#[derive(Debug)]
pub enum EdgeError<E> {
    /// No replica of the named table.
    UnknownTable(String),
    /// A delta arrived out of order.
    OutOfOrder {
        /// Sequence number the replica expected next.
        expected: u64,
        /// Sequence number that arrived.
        got: u64,
    },
    /// Scheme-level failure (divergence, forged delta, ...).
    Scheme(E),
}

impl<E: core::fmt::Display> core::fmt::Display for EdgeError<E> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            EdgeError::UnknownTable(t) => write!(f, "no replica of {t}"),
            EdgeError::OutOfOrder { expected, got } => {
                write!(f, "delta {got} applied out of order (expected {expected})")
            }
            EdgeError::Scheme(e) => write!(f, "{e}"),
        }
    }
}

impl<E: std::error::Error> std::error::Error for EdgeError<E> {}

/// Cache key: the physical query identity. Two requests share an entry
/// exactly when they run the same range + projection over the same
/// table with the same residual predicate (captured by the planner's
/// stable fingerprint — 0 for "no residual").
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct CacheKey {
    table: String,
    lo: u64,
    hi: u64,
    projection: Option<Vec<usize>>,
    residual_fp: u64,
}

impl CacheKey {
    fn new(table: &str, query: &RangeQuery, residual_fp: u64) -> Self {
        Self {
            table: table.to_string(),
            lo: query.lo,
            hi: query.hi,
            projection: query.projection.clone(),
            residual_fp,
        }
    }

    /// Key for a compact (multi-range) request: the first range gives
    /// the structural fields, every further range and the aggregation
    /// mode are folded into the fingerprint. Two batches share an entry
    /// exactly when their full range lists, projections, residual and
    /// aggregation mode all match.
    fn for_batch(table: &str, queries: &[RangeQuery], residual_fp: u64, agg_tag: u64) -> Self {
        let first = &queries[0];
        // 0x5642_5834 = ASCII "VBX4": domain-separates compact entries
        // from flat ones that share a first range and residual.
        let mut fp = fnv_fold(
            fnv_fold(0x5642_5834_u64 ^ residual_fp, agg_tag),
            queries.len() as u64,
        );
        for q in queries {
            fp = fnv_fold(fnv_fold(fp, q.lo), q.hi);
            match &q.projection {
                None => fp = fnv_fold(fp, u64::MAX),
                Some(cols) => {
                    fp = fnv_fold(fp, cols.len() as u64);
                    for &c in cols {
                        fp = fnv_fold(fp, c as u64);
                    }
                }
            }
        }
        Self {
            table: table.to_string(),
            lo: first.lo,
            hi: first.hi,
            projection: first.projection.clone(),
            residual_fp: fp,
        }
    }
}

/// One FNV-1a step over a 64-bit word (byte-wise).
fn fnv_fold(mut hash: u64, word: u64) -> u64 {
    if hash == 0 {
        hash = 0xcbf2_9ce4_8422_2325;
    }
    for b in word.to_be_bytes() {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Cache effectiveness counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Responses served straight from the cache.
    pub hits: u64,
    /// Responses that had to be executed.
    pub misses: u64,
    /// Entries dropped by per-table invalidation.
    pub invalidated: u64,
    /// Entries dropped by capacity eviction (FIFO).
    pub evicted: u64,
    /// Inserts rejected because the table was invalidated past the
    /// snapshot the response was computed from (a delta landed while
    /// the query executed — caching the result would resurrect
    /// pre-delta data).
    pub stale_skips: u64,
}

struct CacheInner<R> {
    map: HashMap<CacheKey, Arc<R>>,
    /// Insertion order for FIFO eviction.
    order: VecDeque<CacheKey>,
    /// Per-table version floor: an insert stamped with a snapshot
    /// version below the floor raced an invalidation and is rejected.
    /// The floor check and the invalidation both run under the cache
    /// mutex, so "invalidate, then accept an older result" cannot
    /// happen in either interleaving.
    floors: HashMap<String, u64>,
    stats: CacheStats,
}

/// A bounded response/VO cache. Entries are whole responses (result
/// rows *and* verification object), shared out as `Arc`s so hits copy
/// nothing.
pub struct ResponseCache<R> {
    inner: Mutex<CacheInner<R>>,
    capacity: usize,
}

/// Default number of cached responses per edge service.
pub const DEFAULT_CACHE_CAPACITY: usize = 1_024;

impl<R> ResponseCache<R> {
    /// A cache bounded at `capacity` entries (FIFO eviction).
    pub fn new(capacity: usize) -> Self {
        Self {
            inner: Mutex::new(CacheInner {
                map: HashMap::new(),
                order: VecDeque::new(),
                floors: HashMap::new(),
                stats: CacheStats::default(),
            }),
            capacity: capacity.max(1),
        }
    }

    fn get(&self, key: &CacheKey) -> Option<Arc<R>> {
        let mut inner = self.inner.lock();
        match inner.map.get(key).cloned() {
            Some(hit) => {
                inner.stats.hits += 1;
                Some(hit)
            }
            None => {
                inner.stats.misses += 1;
                None
            }
        }
    }

    /// Insert a response computed from the table snapshot stamped
    /// `snapshot_version`. Rejected (counted as a stale skip) when the
    /// table has since been invalidated past that version: the response
    /// reflects a superseded snapshot and caching it would serve
    /// pre-delta data forever.
    fn insert(&self, key: CacheKey, resp: Arc<R>, snapshot_version: u64) {
        let mut inner = self.inner.lock();
        if snapshot_version < inner.floors.get(&key.table).copied().unwrap_or(0) {
            inner.stats.stale_skips += 1;
            return;
        }
        // Replacing an existing entry does not grow the map — evict only
        // when the insert actually would.
        if !inner.map.contains_key(&key) {
            while inner.map.len() >= self.capacity {
                let Some(oldest) = inner.order.pop_front() else {
                    break;
                };
                if inner.map.remove(&oldest).is_some() {
                    inner.stats.evicted += 1;
                }
            }
        }
        if inner.map.insert(key.clone(), resp).is_none() {
            inner.order.push_back(key);
        }
    }

    /// Drop every entry for `table` — the invalidation rule: a delta on
    /// a table invalidates that table's responses and nothing else —
    /// and raise the table's floor to `min_version` (the replica's
    /// publish count after the new snapshot), so in-flight executions
    /// over older snapshots cannot re-populate the cache afterwards.
    fn invalidate_table(&self, table: &str, min_version: u64) {
        let mut inner = self.inner.lock();
        let before = inner.map.len();
        inner.map.retain(|k, _| k.table != table);
        let dropped = (before - inner.map.len()) as u64;
        inner.stats.invalidated += dropped;
        if dropped > 0 {
            let live: std::collections::HashSet<_> = inner.map.keys().cloned().collect();
            inner.order.retain(|k| live.contains(k));
        }
        let floor = inner.floors.entry(table.to_string()).or_insert(0);
        *floor = (*floor).max(min_version);
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        self.inner.lock().stats
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.inner.lock().map.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The concurrent edge serving engine (see module docs). Share it by
/// reference (or in an `Arc`) across reader and writer threads; every
/// method takes `&self`.
pub struct EdgeService<S: AuthScheme> {
    scheme: S,
    schemas: parking_lot::RwLock<BTreeMap<String, Schema>>,
    replicas: parking_lot::RwLock<BTreeMap<String, Arc<ServingReplica<S>>>>,
    locks: LockManager,
    cache: ResponseCache<S::Response>,
    /// Compact (`VBX4`) responses are cached as their encoded **prefix**
    /// bytes — everything up to (not including) the freshness suffix —
    /// so a hit appends the edge's *current* replication position
    /// instead of replaying a stale one.
    compact_cache: ResponseCache<Vec<u8>>,
    /// Next delta sequence number; the guard also serialises writers so
    /// the order check and the apply are atomic.
    applied_seq: Mutex<u64>,
    /// Newest owner freshness stamp received over the subscription
    /// (republished with every response so clients can bound staleness).
    stamp: parking_lot::RwLock<Option<FreshnessStamp>>,
    /// Lock-manager transaction ids for queries/updates.
    next_txn: AtomicU64,
}

impl<S: AuthScheme> EdgeService<S> {
    /// An empty service for a scheme.
    pub fn new(scheme: S) -> Self {
        Self::with_seq(scheme, 0)
    }

    /// An empty service whose replicas reflect deltas `< seq` (bundle
    /// restores).
    pub fn with_seq(scheme: S, seq: u64) -> Self {
        Self {
            scheme,
            schemas: parking_lot::RwLock::new(BTreeMap::new()),
            replicas: parking_lot::RwLock::new(BTreeMap::new()),
            locks: LockManager::new(),
            cache: ResponseCache::new(DEFAULT_CACHE_CAPACITY),
            compact_cache: ResponseCache::new(DEFAULT_CACHE_CAPACITY),
            applied_seq: Mutex::new(seq),
            stamp: parking_lot::RwLock::new(None),
            next_txn: AtomicU64::new(1),
        }
    }

    /// The scheme descriptor.
    pub fn scheme(&self) -> &S {
        &self.scheme
    }

    /// Install (or replace) a table replica. Replacing an existing
    /// replica publishes the new store and invalidates the table's
    /// cached responses.
    pub fn install_table(&self, name: impl Into<String>, schema: Schema, store: S::Store) {
        let name = name.into();
        self.schemas.write().insert(name.clone(), schema);
        // Check-and-insert atomically under the write lock: two racing
        // installs of a new table must converge on one replica (the
        // loser publishes into the winner's), never two.
        let replica = {
            let mut replicas = self.replicas.write();
            match replicas.get(&name) {
                Some(replica) => {
                    let replica = replica.clone();
                    drop(replicas);
                    replica.publish(store);
                    replica
                }
                None => {
                    let replica = Arc::new(ServingReplica::new(store));
                    replicas.insert(name.clone(), replica.clone());
                    replica
                }
            }
        };
        let floor = replica.published_count();
        self.cache.invalidate_table(&name, floor);
        self.compact_cache.invalidate_table(&name, floor);
    }

    /// Schemas of everything replicated (public metadata clients also
    /// hold).
    pub fn schemas(&self) -> BTreeMap<String, Schema> {
        self.schemas.read().clone()
    }

    /// The named replica.
    pub fn replica(&self, table: &str) -> Option<Arc<ServingReplica<S>>> {
        self.replicas.read().get(table).cloned()
    }

    /// The current snapshot of a table's store.
    pub fn snapshot(&self, table: &str) -> Option<Arc<S::Store>> {
        self.replica(table).map(|r| r.snapshot())
    }

    /// Last applied delta sequence number.
    pub fn applied_seq(&self) -> u64 {
        *self.applied_seq.lock()
    }

    /// Install the newest owner freshness stamp (delivered over the
    /// delta subscription or a heartbeat). Older stamps are ignored —
    /// stamps only ever move forward.
    pub fn set_freshness_stamp(&self, stamp: FreshnessStamp) {
        let mut slot = self.stamp.write();
        let newer = slot
            .as_ref()
            .is_none_or(|s| (stamp.seq, stamp.clock) >= (s.seq, s.clock));
        if newer {
            *slot = Some(stamp);
        }
    }

    /// Newest owner stamp held, if any.
    pub fn freshness_stamp(&self) -> Option<FreshnessStamp> {
        self.stamp.read().clone()
    }

    /// The replication position this edge would republish with a
    /// response right now.
    pub fn current_freshness(&self) -> ResponseFreshness {
        ResponseFreshness {
            applied_seq: self.applied_seq(),
            stamp: self.freshness_stamp(),
        }
    }

    /// Consume (without applying) a whole foreign sequence range
    /// `[start_seq, start_seq + count)` — the placeholder for a commit
    /// on tables this edge does not replicate. Sharded deployments
    /// deliver every table's deltas in one global sequence, and an edge
    /// must advance past foreign tables' entries to keep its position
    /// contiguous.
    pub fn skip_deltas(&self, start_seq: u64, count: u64) -> Result<(), EdgeError<S::Error>> {
        let mut applied = self.applied_seq.lock();
        if start_seq != *applied {
            return Err(EdgeError::OutOfOrder {
                expected: *applied,
                got: start_seq,
            });
        }
        *applied += count;
        Ok(())
    }

    /// Lock-protocol counters.
    pub fn lock_stats(&self) -> LockStats {
        self.locks.stats()
    }

    /// Response-cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Spin until the Section 3.4 try-lock protocol admits the batch:
    /// all-or-nothing acquisition means no deadlock is possible, so a
    /// conflicting path simply retries until the holder's short critical
    /// section ends.
    fn acquire_with_retry(&self, txn: u64, resources: &[Resource], mode: LockMode) {
        let mut spins = 0u32;
        while self.locks.try_acquire_all(txn, resources, mode).is_err() {
            spins += 1;
            if spins % 64 == 0 {
                std::thread::sleep(std::time::Duration::from_micros(20));
            } else {
                std::thread::yield_now();
            }
        }
    }

    /// Serve a query: cache lookup, else snapshot + S-lock the
    /// enveloping subtree + execute + cache. `residual_fp` is the
    /// planner's stable fingerprint of any residual predicate `exec`
    /// applies (0 for none) — it keeps semantically different
    /// executions over the same key range in different cache slots.
    pub fn serve<F>(
        &self,
        table: &str,
        query: &RangeQuery,
        residual_fp: u64,
        exec: F,
    ) -> Result<Arc<S::Response>, EdgeError<S::Error>>
    where
        F: FnOnce(&S::Store) -> S::Response,
    {
        let key = CacheKey::new(table, query, residual_fp);
        if let Some(hit) = self.cache.get(&key) {
            return Ok(hit);
        }
        let replica = self
            .replica(table)
            .ok_or_else(|| EdgeError::UnknownTable(table.into()))?;
        let (snap, snap_version) = replica.versioned_snapshot();
        let txn = self.next_txn.fetch_add(1, Ordering::Relaxed);
        let resources: Vec<Resource> = self
            .scheme
            .query_lock_targets(&snap, query)
            .into_iter()
            .map(|n| (table.to_string(), n))
            .collect();
        self.acquire_with_retry(txn, &resources, LockMode::Shared);
        let resp = Arc::new(exec(&snap));
        self.locks.release_all(txn);
        // The version stamp keeps this insert from resurrecting
        // pre-delta data if a delta (and its invalidation) landed while
        // we executed against the old snapshot.
        self.cache.insert(key, resp.clone(), snap_version);
        Ok(resp)
    }

    /// Serve a compact (`VBX4`) request as encoded prefix bytes:
    /// cache lookup, else snapshot + S-lock the union of every range's
    /// enveloping subtree + `exec` + cache. The prefix excludes the
    /// freshness suffix, so the caller appends the edge's *current*
    /// position per response (`vbx_core::compact_response_bytes`) —
    /// cached VO bytes never replay a stale replication stamp.
    ///
    /// `agg_tag` keys the aggregation mode into the cache (0 for plain
    /// signatures; the aggregator's key version + 1 otherwise) so
    /// aggregated and per-digest encodings of the same ranges occupy
    /// different slots.
    pub fn serve_compact_bytes<F>(
        &self,
        table: &str,
        queries: &[RangeQuery],
        residual_fp: u64,
        agg_tag: u64,
        exec: F,
    ) -> Result<Arc<Vec<u8>>, EdgeError<S::Error>>
    where
        F: FnOnce(&S::Store) -> Vec<u8>,
    {
        assert!(!queries.is_empty(), "at least one range");
        let key = CacheKey::for_batch(table, queries, residual_fp, agg_tag);
        if let Some(hit) = self.compact_cache.get(&key) {
            return Ok(hit);
        }
        let replica = self
            .replica(table)
            .ok_or_else(|| EdgeError::UnknownTable(table.into()))?;
        let (snap, snap_version) = replica.versioned_snapshot();
        let txn = self.next_txn.fetch_add(1, Ordering::Relaxed);
        let mut targets: Vec<usize> = queries
            .iter()
            .flat_map(|q| self.scheme.query_lock_targets(&snap, q))
            .collect();
        targets.sort_unstable();
        targets.dedup();
        let resources: Vec<Resource> = targets
            .into_iter()
            .map(|n| (table.to_string(), n))
            .collect();
        self.acquire_with_retry(txn, &resources, LockMode::Shared);
        let prefix = Arc::new(exec(&snap));
        self.locks.release_all(txn);
        self.compact_cache.insert(key, prefix.clone(), snap_version);
        Ok(prefix)
    }

    /// Compact-prefix cache counters.
    pub fn compact_cache_stats(&self) -> CacheStats {
        self.compact_cache.stats()
    }

    /// Answer a range query through the cache + snapshot pipeline.
    pub fn query_range(
        &self,
        table: &str,
        query: &RangeQuery,
    ) -> Result<Arc<S::Response>, EdgeError<S::Error>> {
        self.serve(table, query, 0, |store| {
            self.scheme.range_query(store, query)
        })
    }

    /// Apply one group-committed batch (a single-op update is a batch of
    /// one): the per-commit overhead is paid **once** for all `k` ops —
    /// one snapshot clone, `k` structural replays inside it, one swap,
    /// one cache invalidation. A batch for a table this edge does not
    /// serve is [`EdgeError::UnknownTable`]. See
    /// [`apply_txn`](Self::apply_txn) for the all-or-none rules both
    /// share.
    pub fn apply_delta_batch(&self, batch: &DeltaBatch<S::Delta>) -> Result<(), EdgeError<S::Error>>
    where
        S::Store: Clone,
    {
        self.apply_sections(std::slice::from_ref(batch), batch.stamp.as_ref(), false)
    }

    /// Apply one atomic multi-table transaction **all-or-none**: verify
    /// the txn starts at this replica's position, X-lock the union of
    /// every section's affected digests across all served tables, build
    /// every table's successor snapshot off to the side, and only when
    /// *every* section replayed cleanly swap them all in and invalidate
    /// each touched table's cache once. On any divergence nothing is
    /// published and the position does not advance — a reader scanning
    /// two tables of the txn never observes table A at seq n+1 with
    /// table B still at seq n. Installs the txn's owner stamp (if any)
    /// after the swaps, so a reader never sees the new attestation
    /// paired with an old snapshot.
    ///
    /// A section whose table this edge does not serve is a foreign
    /// placeholder — its ops advance the position without local replay,
    /// exactly like a `SkipRange` (a sharded edge receives the whole
    /// atom even when it owns only some of its tables; the router never
    /// reads the unserved tables here).
    pub fn apply_txn(&self, txn: &TxnBatch<S::Delta>) -> Result<(), EdgeError<S::Error>>
    where
        S::Store: Clone,
    {
        self.apply_sections(&txn.sections, txn.stamp.as_ref(), true)
    }

    /// Apply one commit as it sits in the central's log, under the
    /// rules of the envelope it would travel in.
    pub fn apply_commit(&self, commit: &Commit<S::Delta>) -> Result<(), EdgeError<S::Error>>
    where
        S::Store: Clone,
    {
        match commit {
            Commit::Batch(batch) => self.apply_delta_batch(batch),
            Commit::Txn(txn) => self.apply_txn(txn),
        }
    }

    /// The one all-or-none applier behind every commit shape.
    /// `skip_unserved` picks what a section for a table this edge does
    /// not serve means: a placeholder (txn) or an error (batch).
    fn apply_sections(
        &self,
        sections: &[DeltaBatch<S::Delta>],
        stamp: Option<&FreshnessStamp>,
        skip_unserved: bool,
    ) -> Result<(), EdgeError<S::Error>>
    where
        S::Store: Clone,
    {
        let ops: u64 = sections.iter().map(|s| s.ops.len() as u64).sum();
        if ops == 0 {
            return Ok(());
        }
        let mut seq = self.applied_seq.lock();
        if sections[0].start_seq != *seq {
            return Err(EdgeError::OutOfOrder {
                expected: *seq,
                got: sections[0].start_seq,
            });
        }
        let mut replicas: BTreeMap<&str, Arc<ServingReplica<S>>> = BTreeMap::new();
        for section in sections {
            let table = section.table.as_str();
            if replicas.contains_key(table) {
                continue;
            }
            match self.replica(table) {
                Some(replica) => {
                    replicas.insert(table, replica);
                }
                None if skip_unserved => {}
                None => return Err(EdgeError::UnknownTable(table.to_string())),
            }
        }
        let lock_txn = self.next_txn.fetch_add(1, Ordering::Relaxed);
        let mut resources: Vec<Resource> = Vec::new();
        {
            let mut snaps: BTreeMap<&str, Arc<S::Store>> = BTreeMap::new();
            for section in sections {
                let Some(replica) = replicas.get(section.table.as_str()) else {
                    continue;
                };
                let snap = snaps
                    .entry(section.table.as_str())
                    .or_insert_with(|| replica.snapshot());
                for op in &section.ops {
                    for target in self.scheme.lock_targets(snap, op) {
                        resources.push((section.table.clone(), target));
                    }
                }
            }
        }
        resources.sort_unstable();
        resources.dedup();
        self.acquire_with_retry(lock_txn, &resources, LockMode::Exclusive);
        // Build every successor store aside; a table touched by several
        // sections chains them on one working copy.
        let result = (|| {
            let mut successors: BTreeMap<&str, S::Store> = BTreeMap::new();
            for section in sections {
                let Some(replica) = replicas.get(section.table.as_str()) else {
                    continue;
                };
                let store = successors
                    .entry(section.table.as_str())
                    .or_insert_with(|| (*replica.snapshot()).clone());
                self.scheme
                    .apply_delta_batch(store, &section.ops, &section.payloads, section.key_version)
                    .map_err(EdgeError::Scheme)?;
            }
            Ok(successors)
        })();
        let successors = match result {
            Ok(successors) => successors,
            Err(e) => {
                self.locks.release_all(lock_txn);
                return Err(e);
            }
        };
        // Every section replayed: swap all tables, then invalidate each
        // touched table's cache exactly once.
        for (table, store) in successors {
            let replica = &replicas[table];
            replica.publish(store);
            let floor = replica.published_count();
            self.cache.invalidate_table(table, floor);
            self.compact_cache.invalidate_table(table, floor);
        }
        self.locks.release_all(lock_txn);
        *seq += ops;
        drop(seq);
        if let Some(stamp) = stamp {
            self.set_freshness_stamp(stamp.clone());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vbx_core::scheme::{UpdateOp, VbScheme};
    use vbx_core::{VbTree, VbTreeConfig};
    use vbx_crypto::signer::MockSigner;
    use vbx_crypto::{Acc256, Signer};
    use vbx_storage::workload::WorkloadSpec;

    fn service() -> (EdgeService<VbScheme<4>>, MockSigner) {
        let table = WorkloadSpec::new(60, 3, 8).build();
        let signer = MockSigner::new(7);
        let scheme = VbScheme::new(Acc256::test_default(), VbTreeConfig::with_fanout(5));
        let tree = VbTree::bulk_load(
            &table,
            VbTreeConfig::with_fanout(5),
            Acc256::test_default(),
            &signer,
        );
        let svc = EdgeService::new(scheme);
        svc.install_table("items", table.schema().clone(), tree);
        (svc, signer)
    }

    /// A real signed one-op batch (delete key 5 of "items"), made by
    /// updating a master copy of the served store.
    fn delete_5(
        svc: &EdgeService<VbScheme<4>>,
        signer: &MockSigner,
        start_seq: u64,
    ) -> DeltaBatch<<VbScheme<4> as AuthScheme>::Delta> {
        let mut master = (*svc.snapshot("items").unwrap()).clone();
        let ops = vec![UpdateOp::Delete(5)];
        let payloads = svc
            .scheme()
            .update_batch(&mut master, &ops, signer)
            .expect("master update");
        DeltaBatch {
            start_seq,
            table: "items".into(),
            ops,
            payloads,
            key_version: signer.key_version(),
            stamp: None,
        }
    }

    #[test]
    fn repeated_query_hits_cache() {
        let (svc, _) = service();
        let q = RangeQuery::select_all(10, 30);
        let a = svc.query_range("items", &q).unwrap();
        let b = svc.query_range("items", &q).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "second query must be the cached Arc");
        let stats = svc.cache_stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
    }

    #[test]
    fn delta_invalidates_only_its_table() {
        let (svc, signer) = service();
        let other = WorkloadSpec {
            table: "other".into(),
            ..WorkloadSpec::new(20, 3, 8)
        }
        .build();
        let tree = VbTree::bulk_load(
            &other,
            VbTreeConfig::with_fanout(5),
            Acc256::test_default(),
            &signer,
        );
        svc.install_table("other", other.schema().clone(), tree);

        let q = RangeQuery::select_all(0, 10);
        svc.query_range("items", &q).unwrap();
        svc.query_range("other", &q).unwrap();
        assert_eq!(svc.cache.len(), 2);

        svc.apply_delta_batch(&delete_5(&svc, &signer, 0)).unwrap();

        // items' entry dropped, other's survived.
        assert_eq!(svc.cache.len(), 1);
        assert_eq!(svc.cache_stats().invalidated, 1);
        let resp = svc.query_range("items", &q).unwrap();
        assert!(resp.rows.iter().all(|r| r.key != 5));
        assert_eq!(svc.applied_seq(), 1);
    }

    #[test]
    fn out_of_order_delta_rejected() {
        let (svc, signer) = service();
        assert!(matches!(
            svc.apply_delta_batch(&delete_5(&svc, &signer, 3)),
            Err(EdgeError::OutOfOrder {
                expected: 0,
                got: 3
            })
        ));
    }

    #[test]
    fn failed_apply_publishes_nothing() {
        let (svc, signer) = service();
        let before = svc.snapshot("items").unwrap();
        // The payload was signed for deleting key 5, not key 6.
        let mut forged = delete_5(&svc, &signer, 0);
        forged.ops = vec![UpdateOp::Delete(6)];
        assert!(matches!(
            svc.apply_delta_batch(&forged),
            Err(EdgeError::Scheme(_))
        ));
        assert!(Arc::ptr_eq(&before, &svc.snapshot("items").unwrap()));
        assert_eq!(svc.replica("items").unwrap().published_count(), 0);
        assert_eq!(svc.applied_seq(), 0);
        // The locks were released: the honest batch still applies.
        svc.apply_delta_batch(&delete_5(&svc, &signer, 0)).unwrap();
        assert_eq!(svc.applied_seq(), 1);
    }

    #[test]
    fn cache_capacity_evicts_fifo() {
        let cache: ResponseCache<u32> = ResponseCache::new(2);
        let key = |i: u64| CacheKey::new("t", &RangeQuery::select_all(i, i), 0);
        cache.insert(key(0), Arc::new(0), 0);
        cache.insert(key(1), Arc::new(1), 0);
        cache.insert(key(2), Arc::new(2), 0);
        assert_eq!(cache.len(), 2);
        assert!(cache.get(&key(0)).is_none(), "oldest entry evicted");
        assert!(cache.get(&key(2)).is_some());
        assert_eq!(cache.stats().evicted, 1);
    }

    #[test]
    fn stale_insert_after_invalidation_is_rejected() {
        // Regression for the lost-invalidation race: a reader snapshots
        // at version v, a delta publishes v+1 and invalidates, then the
        // reader finishes and tries to cache its pre-delta response.
        // The version floor must reject it — otherwise the stale entry
        // would be served until the *next* delta.
        let cache: ResponseCache<u32> = ResponseCache::new(8);
        let key = CacheKey::new("t", &RangeQuery::select_all(0, 9), 0);
        cache.invalidate_table("t", 1); // delta landed: floor = 1
        cache.insert(key.clone(), Arc::new(7), 0); // stale snapshot v0
        assert!(cache.get(&key).is_none(), "stale insert must be dropped");
        assert_eq!(cache.stats().stale_skips, 1);
        // A response from the successor snapshot is accepted.
        cache.insert(key.clone(), Arc::new(8), 1);
        assert_eq!(cache.get(&key).as_deref(), Some(&8));
        // Invalidation on another table leaves this floor alone.
        cache.invalidate_table("u", 5);
        cache.insert(key.clone(), Arc::new(9), 1);
        assert!(cache.get(&key).is_some());
    }

    #[test]
    fn residual_fingerprint_separates_entries() {
        let (svc, _) = service();
        let q = RangeQuery::select_all(0, 59);
        let plain = svc.query_range("items", &q).unwrap();
        let filtered = svc
            .serve("items", &q, 0xFEED, |store| {
                vbx_core::execute(store, &q, Some(&|t: &vbx_storage::Tuple| t.key % 2 == 0))
            })
            .unwrap();
        assert!(!Arc::ptr_eq(&plain, &filtered));
        assert!(filtered.rows.len() < plain.rows.len());
        // Each slot replays its own entry.
        assert!(Arc::ptr_eq(
            &filtered,
            &svc.serve("items", &q, 0xFEED, |_| unreachable!("must hit cache"))
                .unwrap()
        ));
    }

    #[test]
    fn queries_take_shared_locks() {
        let (svc, _) = service();
        let q = RangeQuery::select_all(0, 5);
        svc.query_range("items", &q).unwrap();
        assert!(svc.lock_stats().acquired > 0);
        assert_eq!(svc.lock_stats().released, 1);
    }
}
