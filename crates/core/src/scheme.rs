//! The [`AuthScheme`] layer: one interface over every authentication
//! scheme the paper compares.
//!
//! Pang & Tan evaluate the VB-tree against the **Naive** strategy
//! (Appendix) and a Devanbu-style **Merkle hash tree** (Section 2,
//! Figure 1). The seed code base grew each of those with its own
//! incompatible API, which meant the deployment layer, the tamper
//! scenarios, and the measurement harness were written three times (or,
//! mostly, only once — for the VB-tree). This module is the common
//! boundary:
//!
//! * a scheme **descriptor** (e.g. [`VbScheme`]) carries the public
//!   parameters — accumulator group, tree fan-out — and knows how to
//!   [`build`](AuthScheme::build) an authenticated store, answer
//!   [`range_query`](AuthScheme::range_query)s, produce and replay
//!   signed update deltas, and [`verify`](AuthScheme::verify) responses
//!   client-side;
//! * every verification counts its primitive operations into a shared
//!   [`CostMeter`], so the Section 4 cost comparisons run through one
//!   pipeline;
//! * [`TamperMode`] models a compromised edge host *generically*: each
//!   scheme implements the attacks against its own response type, so the
//!   detection matrix (which scheme catches which attack) is executable.
//!
//! `vbx_baselines` implements the trait for the Naive and Merkle
//! schemes; `vbx_edge` builds the generic central/edge deployment on
//! top; `vbx_bench` measures all three through the same entry points.

use crate::chunks::{StoreRestorer, SyncError, TreeChunks};
use crate::meter::CostMeter;
use crate::restore::Restorer;
use crate::source::{Capture, DeferredSource, ReplaySource};
use crate::tree::{VbTree, VbTreeConfig};
use crate::verify::{ClientVerifier, FreshnessStamp, ResponseFreshness, VerifyError};
use crate::vo::{
    execute, execute_multi_compact, CompactResponse, QueryResponse, RangeQuery, ResultRow,
    VerificationObject, VoOp,
};
use crate::wire::measure_response;
use crate::CoreError;
use std::sync::Arc;
use vbx_crypto::accum::{Accumulator, SignedDigest};
use vbx_crypto::{SigVerifier, Signer};
use vbx_storage::{Schema, Table, Tuple, Value};

/// One update operation, scheme-neutral (shipped inside a
/// [`DeltaBatch`]).
#[derive(Clone, Debug)]
pub enum UpdateOp {
    /// Insert a tuple.
    Insert(Tuple),
    /// Delete by key.
    Delete(u64),
    /// Batch range delete (inclusive bounds).
    DeleteRange(u64, u64),
}

/// Simulated compromises of an edge host, applied to a response before
/// it leaves the (hacked) server. Every scheme implements all modes via
/// [`AuthScheme::tamper`]; which ones each scheme *detects* is the
/// paper's comparison matrix (see `vbx_edge`'s scenario tests).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub enum TamperMode {
    /// Honest behaviour.
    #[default]
    None,
    /// Corrupt the first value of the first result row.
    MutateValue,
    /// Inject a spurious copy of an existing row under a fresh key.
    InjectRow,
    /// Silently remove a result row (without touching the VO).
    DropRow,
    /// Remove a result row *and* rebalance the scheme's auth material to
    /// hide the removal where the scheme allows it — for the VB-tree,
    /// reclassifying the signed tuple digest into `D_S` (the paper's
    /// documented completeness boundary, §3.1).
    DropAndReclassify {
        /// Key of the row to suppress.
        key: u64,
    },
}

/// A group-committed batch of update operations: `k` ops travelling
/// under **one** envelope, with **one** optional owner freshness stamp
/// attesting the batch's end position. A single-op update is a batch
/// of one.
///
/// The ops occupy the contiguous sequence range `[start_seq,
/// end_seq())`. `payloads` is scheme-defined: the per-op default packs
/// one payload per op, while schemes with a real batch fast path (the
/// VB-tree's deferred signing sweep, the Merkle tree's single root
/// re-sign) pack the whole batch into a single payload, which is where
/// the amortisation comes from.
#[derive(Clone, Debug)]
pub struct DeltaBatch<P> {
    /// Sequence number of the first op in the batch.
    pub start_seq: u64,
    /// Table every op in the batch applies to.
    pub table: String,
    /// The operations, in commit order.
    pub ops: Vec<UpdateOp>,
    /// Scheme-specific signed material (cardinality is scheme-defined —
    /// see the type docs).
    pub payloads: Vec<P>,
    /// Key version the payloads were signed under.
    pub key_version: u32,
    /// Owner stamp attesting `end_seq()` committed deltas (present in
    /// cluster deployments, where commits are stamped).
    pub stamp: Option<FreshnessStamp>,
}

impl<P> DeltaBatch<P> {
    /// Sequence number one past the batch's last op.
    pub fn end_seq(&self) -> u64 {
        self.start_seq + self.ops.len() as u64
    }

    /// Number of ops in the batch.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when the batch carries no ops.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

/// An atomic multi-table transaction: one envelope carrying every
/// touched table's group-committed batch, covering **one** contiguous
/// sequence range with **one** optional owner freshness stamp
/// attesting the txn's end position.
///
/// Sections sit in commit order and chain seamlessly: section `i+1`
/// starts exactly where section `i` ends, so the txn occupies
/// `[start_seq(), end_seq())` with no gaps. The whole envelope commits
/// (and is logged, replicated and applied) **all-or-nothing** — no
/// observer may ever see table A at the txn's end seq while table B is
/// still at the pre-txn seq.
#[derive(Clone, Debug)]
pub struct TxnBatch<P> {
    /// Per-table batch sections, in commit order. Each section's
    /// `stamp` is `None`; the txn-level [`stamp`](Self::stamp) covers
    /// the whole envelope.
    pub sections: Vec<DeltaBatch<P>>,
    /// Owner stamp attesting `end_seq()` committed deltas (present in
    /// cluster deployments, where commits are stamped).
    pub stamp: Option<FreshnessStamp>,
}

impl<P> TxnBatch<P> {
    /// Sequence number of the txn's first op.
    ///
    /// # Panics
    /// Panics on an empty txn — commit paths never produce one.
    pub fn start_seq(&self) -> u64 {
        self.sections
            .first()
            .expect("a TxnBatch carries at least one section")
            .start_seq
    }

    /// Sequence number one past the txn's last op.
    ///
    /// # Panics
    /// Panics on an empty txn — commit paths never produce one.
    pub fn end_seq(&self) -> u64 {
        self.sections
            .last()
            .expect("a TxnBatch carries at least one section")
            .end_seq()
    }

    /// Total ops across all sections.
    pub fn ops(&self) -> u64 {
        self.sections.iter().map(|s| s.ops.len() as u64).sum()
    }

    /// The tables touched, in commit order.
    pub fn tables(&self) -> impl Iterator<Item = &str> {
        self.sections.iter().map(|s| s.table.as_str())
    }

    /// True when the sections chain into one contiguous seq range and
    /// none is empty — the shape every commit path guarantees and every
    /// decode/apply path checks before trusting wire bytes.
    pub fn is_contiguous(&self) -> bool {
        if self.sections.is_empty() {
            return false;
        }
        let mut next = self.sections[0].start_seq;
        for section in &self.sections {
            if section.is_empty() || section.start_seq != next {
                return false;
            }
            next = section.end_seq();
        }
        true
    }
}

/// One committed unit, as the central logs it, writes it ahead,
/// replicates it and an edge applies it: a single-table [`DeltaBatch`]
/// or an atomic multi-table [`TxnBatch`]. The two differ only in the
/// envelope they travel under (`VBX3` / `VBX7`, WAL kind 1 / 3); every
/// consumer in between works on [`sections`](Self::sections) and
/// [`stamp`](Self::stamp). Shared out as `Arc`s, so fanning one commit
/// out to N subscribers clones a pointer, not `k` ops and payloads.
#[derive(Clone, Debug)]
pub enum Commit<P> {
    /// `k` ops on one table under one payload stream + stamp.
    Batch(Arc<DeltaBatch<P>>),
    /// Per-table sections committed, shipped and applied as one unit.
    Txn(Arc<TxnBatch<P>>),
}

impl<P> Commit<P> {
    /// The per-table sections, in commit order (a batch is its own
    /// single section).
    pub fn sections(&self) -> &[DeltaBatch<P>] {
        match self {
            Commit::Batch(batch) => std::slice::from_ref(batch),
            Commit::Txn(txn) => &txn.sections,
        }
    }

    /// The owner stamp attesting [`end_seq`](Self::end_seq), if the
    /// commit was stamped.
    pub fn stamp(&self) -> Option<&FreshnessStamp> {
        match self {
            Commit::Batch(batch) => batch.stamp.as_ref(),
            Commit::Txn(txn) => txn.stamp.as_ref(),
        }
    }

    /// First sequence number the commit covers.
    ///
    /// # Panics
    /// Panics on a sectionless commit — commit and decode paths never
    /// produce one.
    pub fn start_seq(&self) -> u64 {
        let first = self.sections().first();
        first.expect("a commit carries a section").start_seq
    }

    /// One past the last sequence number the commit covers.
    ///
    /// # Panics
    /// Panics on a sectionless commit, like
    /// [`start_seq`](Self::start_seq).
    pub fn end_seq(&self) -> u64 {
        let last = self.sections().last();
        last.expect("a commit carries a section").end_seq()
    }

    /// Number of update ops the commit carries.
    pub fn ops(&self) -> u64 {
        self.sections().iter().map(|s| s.ops.len() as u64).sum()
    }

    /// Every table the commit touches, in commit order (repeats
    /// possible).
    pub fn tables(&self) -> impl Iterator<Item = &str> {
        self.sections().iter().map(|s| s.table.as_str())
    }
}

/// Successful scheme verification: the authenticated rows plus the
/// dominant cost statistic.
#[derive(Clone, Debug)]
pub struct VerifiedBatch {
    /// Result rows, in key order, in the scheme's returned-column order.
    pub rows: Vec<ResultRow>,
    /// Signature verifications performed (`Cost_s` events).
    pub signatures_checked: usize,
}

/// A query-result authentication scheme, as deployed between a trusted
/// central server, untrusted edge servers, and verifying clients.
///
/// The descriptor (`self`) carries public parameters only; private keys
/// enter exclusively through the `&dyn Signer` arguments of the trusted
/// entry points ([`build`](Self::build), [`update`](Self::update)).
pub trait AuthScheme {
    /// Short scheme name for reports and benches.
    const NAME: &'static str;

    /// The authenticated server-side store (tree/table + digests).
    type Store: 'static;
    /// A query answer as shipped from edge server to client.
    type Response: Clone;
    /// The detachable verification object / proof part of a response.
    type Vo;
    /// Verification and replication failures.
    type Error: std::error::Error + 'static;
    /// Scheme-specific signed payload of a [`DeltaBatch`].
    type Delta: Clone;

    /// Trusted: build and sign the store over a table.
    fn build(&self, table: &Table, signer: &dyn Signer) -> Self::Store;

    /// The schema of the table `store` authenticates.
    fn schema<'a>(&self, store: &'a Self::Store) -> &'a Schema;

    /// The plain table `store` authenticates, in key order — the
    /// inverse of [`build`](Self::build). Every store holds its rows,
    /// so the central server keeps no second copy: re-signing and view
    /// refreshes read the rows back from here.
    fn table(&self, store: &Self::Store) -> Table;

    /// Untrusted: answer a range query (+ projection, where supported)
    /// with authentication material attached.
    fn range_query(&self, store: &Self::Store, query: &RangeQuery) -> Self::Response;

    /// Trusted: apply an update to the authoritative store, producing
    /// the signed payload replicas need to replay it.
    fn update(
        &self,
        store: &mut Self::Store,
        op: &UpdateOp,
        signer: &dyn Signer,
    ) -> Result<Self::Delta, Self::Error>;

    /// Untrusted: replay a signed delta against a replica, detecting
    /// divergence where the scheme can.
    fn apply_delta(
        &self,
        store: &mut Self::Store,
        op: &UpdateOp,
        payload: &Self::Delta,
        key_version: u32,
    ) -> Result<(), Self::Error>;

    /// Trusted: apply a whole batch of updates as one group commit,
    /// producing the batch payloads replicas replay. The default loops
    /// over [`update`](Self::update) — one payload per op, no
    /// amortisation. Schemes with a real batch fast path override this
    /// to share authentication work across the batch (and then return a
    /// payload cardinality of their choosing — see [`DeltaBatch`]).
    ///
    /// **Atomicity contract:** on `Err`, the store must be unchanged —
    /// it is the central server's only copy of the rows, the server
    /// commits a batch all-or-nothing and logs nothing on failure, so a
    /// half-applied store would silently diverge from the log and every
    /// replica. The *default* loop stops at the first error and cannot
    /// roll back (it knows nothing about `Self::Store`); schemes whose
    /// store is `Clone` get the contract by overriding with
    /// [`update_batch_atomic`] (as the Naive/Merkle baselines do), and
    /// the VB-tree's deferred-sweep override restores a pre-batch
    /// backup itself.
    fn update_batch(
        &self,
        store: &mut Self::Store,
        ops: &[UpdateOp],
        signer: &dyn Signer,
    ) -> Result<Vec<Self::Delta>, Self::Error> {
        ops.iter()
            .map(|op| self.update(store, op, signer))
            .collect()
    }

    /// Untrusted: replay a batch produced by
    /// [`update_batch`](Self::update_batch). The default replays one
    /// payload per op.
    ///
    /// # Panics
    /// The default implementation panics when `payloads` does not carry
    /// exactly one payload per op — in-process callers (the central
    /// server, the cluster coordinator) always hand over well-formed
    /// batches, mirroring [`DeltaLog`](crate)'s contiguity assertion.
    /// Schemes with a wire format for batches (the VB-tree) override
    /// this with graceful divergence errors for arbitrary payloads.
    fn apply_delta_batch(
        &self,
        store: &mut Self::Store,
        ops: &[UpdateOp],
        payloads: &[Self::Delta],
        key_version: u32,
    ) -> Result<(), Self::Error> {
        assert_eq!(
            ops.len(),
            payloads.len(),
            "per-op batch replay needs one payload per op"
        );
        for (op, payload) in ops.iter().zip(payloads) {
            self.apply_delta(store, op, payload, key_version)?;
        }
        Ok(())
    }

    /// Client-side verification with public material only. Primitive
    /// operations (hashes, combines, signature checks) are counted into
    /// `meter` — the shared hook behind the Section 4 cost comparisons.
    fn verify(
        &self,
        schema: &Schema,
        verifier: &dyn SigVerifier,
        query: &RangeQuery,
        resp: &Self::Response,
        meter: &mut CostMeter,
    ) -> Result<VerifiedBatch, Self::Error>;

    /// The detached VO / proof material of a response.
    fn vo(resp: &Self::Response) -> Self::Vo;

    /// The result rows carried by a response (pre-verification view).
    fn response_rows(resp: &Self::Response) -> Vec<ResultRow>;

    /// Bytes on the wire for a response (the communication-cost metric).
    fn response_wire_bytes(resp: &Self::Response) -> usize;

    /// Digests/hashes shipped in the VO (the VO-size metric).
    fn vo_digest_count(resp: &Self::Response) -> usize;

    /// Key version the response's material was signed under.
    fn response_key_version(resp: &Self::Response) -> u32;

    /// Simulate a compromised host: mutate `resp` according to `mode`.
    /// Receives the store and query because some attacks (the VB-tree's
    /// reclassification) are re-executions, not response edits.
    fn tamper(
        &self,
        store: &Self::Store,
        query: &RangeQuery,
        resp: &mut Self::Response,
        mode: &TamperMode,
    );

    /// Stamp a response with the serving edge's replication position
    /// (applied seq + newest owner stamp). Default: the scheme's wire
    /// format carries no freshness metadata, so this is a no-op.
    fn stamp_freshness(_resp: &mut Self::Response, _freshness: &ResponseFreshness) {}

    /// The freshness metadata carried by a response, where the scheme's
    /// wire format has any.
    fn response_freshness(_resp: &Self::Response) -> Option<&ResponseFreshness> {
        None
    }

    /// Whether the scheme can project server-side (ship fewer columns).
    fn supports_projection(&self) -> bool {
        false
    }

    /// Whether range proofs demonstrate completeness (dropped rows are
    /// detected).
    fn proves_completeness(&self) -> bool {
        false
    }

    // -- Verified chunked state sync -----------------------------------

    /// Number of chunks a verified sync stream of `store` comprises.
    /// Zero means the scheme does not support chunked sync (the
    /// default; every shipped scheme overrides).
    fn sync_chunk_count(&self, _store: &Self::Store) -> usize {
        0
    }

    /// Source side of verified sync: encode chunk `index` of `store`.
    fn encode_sync_chunk(&self, _store: &Self::Store, _index: usize) -> Result<Vec<u8>, SyncError> {
        Err(SyncError::Unsupported(Self::NAME))
    }

    /// Restoring side: a [`StoreRestorer`] that authenticates every
    /// chunk against the scheme's signed commitment under `verifier`
    /// (the owner's public key) **as it ingests** — a restoring edge
    /// never installs state it has not verified.
    fn begin_restore(
        &self,
        _verifier: std::sync::Arc<dyn SigVerifier>,
    ) -> Box<dyn StoreRestorer<Self::Store>> {
        struct Unsupported<Store>(&'static str, std::marker::PhantomData<fn() -> Store>);
        impl<Store> StoreRestorer<Store> for Unsupported<Store> {
            fn ingest(&mut self, _chunk: &[u8]) -> Result<(), SyncError> {
                Err(SyncError::Unsupported(self.0))
            }
            fn finish(self: Box<Self>) -> Result<Store, SyncError> {
                Err(SyncError::Unsupported(self.0))
            }
        }
        Box::new(Unsupported(Self::NAME, std::marker::PhantomData))
    }
}

/// The per-op batch loop with the [`AuthScheme::update_batch`]
/// atomicity contract bolted on: snapshot the store, apply each op
/// through [`AuthScheme::update`], restore the snapshot on the first
/// failure. The override of choice for schemes without a batch fast
/// path whose store is `Clone` (the Naive and Merkle baselines).
pub fn update_batch_atomic<S: AuthScheme>(
    scheme: &S,
    store: &mut S::Store,
    ops: &[UpdateOp],
    signer: &dyn Signer,
) -> Result<Vec<S::Delta>, S::Error>
where
    S::Store: Clone,
{
    let backup = store.clone();
    let mut payloads = Vec::with_capacity(ops.len());
    for op in ops {
        match scheme.update(store, op, signer) {
            Ok(p) => payloads.push(p),
            Err(e) => {
                *store = backup;
                return Err(e);
            }
        }
    }
    Ok(payloads)
}

/// Collect a store's key-ordered, schema-checked rows into a [`Table`]
/// (shared by schemes' [`AuthScheme::table`]).
pub fn rows_to_table<'a>(schema: &Schema, rows: impl IntoIterator<Item = &'a Tuple>) -> Table {
    let mut table = Table::new(schema.clone());
    for row in rows {
        table
            .insert(row.clone())
            .expect("a store holds unique, schema-checked rows");
    }
    table
}

/// Corrupt the first value of a row in place (shared by schemes'
/// `MutateValue` tampering).
pub fn mutate_first_value(values: &mut [Value]) {
    if let Some(v) = values.first_mut() {
        *v = match v {
            Value::Int(x) => Value::Int(*x ^ 1),
            Value::Float(x) => Value::Float(*x + 1.0),
            Value::Text(_) => Value::Text("tampered".into()),
            Value::Bytes(b) => {
                let mut b = b.clone();
                b.push(0xFF);
                Value::Bytes(b)
            }
        };
    }
}

/// Append a forged copy of the last row under `bump_key` (shared by
/// schemes' `InjectRow` tampering).
pub fn inject_duplicate_last<T: Clone>(rows: &mut Vec<T>, bump_key: impl FnOnce(&mut T)) {
    if let Some(last) = rows.last().cloned() {
        let mut forged = last;
        bump_key(&mut forged);
        rows.push(forged);
    }
}

/// Remove the middle row without touching the auth material (shared by
/// schemes' `DropRow` tampering).
pub fn drop_middle_row<T>(rows: &mut Vec<T>) {
    if !rows.is_empty() {
        let mid = rows.len() / 2;
        rows.remove(mid);
    }
}

/// Errors from the VB-tree scheme: tree/update failures or client-side
/// verification failures.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum VbSchemeError {
    /// Tree operation or replica replay failed.
    Core(CoreError),
    /// Client-side verification failed.
    Verify(VerifyError),
}

impl core::fmt::Display for VbSchemeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            VbSchemeError::Core(e) => write!(f, "{e}"),
            VbSchemeError::Verify(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for VbSchemeError {}

impl From<CoreError> for VbSchemeError {
    fn from(e: CoreError) -> Self {
        VbSchemeError::Core(e)
    }
}

impl From<VerifyError> for VbSchemeError {
    fn from(e: VerifyError) -> Self {
        VbSchemeError::Verify(e)
    }
}

/// The paper's own scheme: the Verifiable B-tree.
#[derive(Clone)]
pub struct VbScheme<const L: usize> {
    /// Digest algebra (public group parameters).
    pub acc: Accumulator<L>,
    /// Tree geometry.
    pub config: VbTreeConfig,
}

impl<const L: usize> VbScheme<L> {
    /// A scheme descriptor from public parameters.
    pub fn new(acc: Accumulator<L>, config: VbTreeConfig) -> Self {
        Self { acc, config }
    }

    /// Compact (op-stream) counterpart of
    /// [`range_query`](AuthScheme::range_query). With an `aggregator`
    /// that supports signature aggregation, every shipped digest is
    /// bare and one condensed signature covers them all.
    pub fn range_query_compact(
        &self,
        store: &VbTree<L>,
        query: &RangeQuery,
        aggregator: Option<&dyn SigVerifier>,
    ) -> CompactResponse<L> {
        execute_multi_compact(store, std::slice::from_ref(query), None, aggregator)
    }

    /// Answer `k` ranges with **one** merged compact response: shared
    /// digests ship once via the dictionary and a single aggregate
    /// signature sweep replaces `k` independent signature sets.
    pub fn multi_query_compact(
        &self,
        store: &VbTree<L>,
        queries: &[RangeQuery],
        aggregator: Option<&dyn SigVerifier>,
    ) -> CompactResponse<L> {
        execute_multi_compact(store, queries, None, aggregator)
    }

    /// Client-side verification of a compact response — the scheme-level
    /// wrapper over [`ClientVerifier::verify_compact`].
    pub fn verify_compact(
        &self,
        schema: &Schema,
        verifier: &dyn SigVerifier,
        queries: &[RangeQuery],
        resp: &CompactResponse<L>,
        meter: &mut CostMeter,
    ) -> Result<VerifiedBatch, VbSchemeError> {
        let client = ClientVerifier::new(&self.acc, schema);
        let report = client.verify_compact(verifier, queries, resp)?;
        meter.absorb(&report.meter);
        Ok(VerifiedBatch {
            rows: resp.parts.iter().flat_map(|p| p.rows.clone()).collect(),
            signatures_checked: report.signatures_checked,
        })
    }

    /// [`TamperMode`] against a compact response — the same simulated
    /// compromises [`AuthScheme::tamper`] applies to flat responses, so
    /// the detection matrix can be exercised on both encodings.
    pub fn tamper_compact(
        &self,
        store: &VbTree<L>,
        queries: &[RangeQuery],
        resp: &mut CompactResponse<L>,
        mode: &TamperMode,
        aggregator: Option<&dyn SigVerifier>,
    ) {
        let Some(part) = resp.parts.first_mut() else {
            return;
        };
        match mode {
            TamperMode::None => {}
            TamperMode::MutateValue => {
                if let Some(row) = part.rows.first_mut() {
                    mutate_first_value(&mut row.values);
                }
            }
            TamperMode::InjectRow => {
                // Keep the stream structurally consistent (one Row op
                // per row) so the *digest* check is what trips.
                let before = part.rows.len();
                inject_duplicate_last(&mut part.rows, |r| r.key += 1);
                if part.rows.len() > before {
                    part.ops.push(VoOp::Row);
                }
            }
            TamperMode::DropRow => {
                drop_middle_row(&mut part.rows);
                if let Some(pos) = part.ops.iter().rposition(|op| matches!(op, VoOp::Row)) {
                    part.ops.remove(pos);
                }
            }
            TamperMode::DropAndReclassify { key } => {
                let victim = *key;
                let pred = move |t: &Tuple| t.key != victim;
                *resp = execute_multi_compact(store, queries, Some(&pred), aggregator);
            }
        }
    }
}

impl<const L: usize> AuthScheme for VbScheme<L> {
    const NAME: &'static str = "vb-tree";

    type Store = VbTree<L>;
    type Response = QueryResponse<L>;
    type Vo = VerificationObject<L>;
    type Error = VbSchemeError;
    type Delta = Vec<SignedDigest<L>>;

    fn build(&self, table: &Table, signer: &dyn Signer) -> VbTree<L> {
        // Large builds fan the per-tuple digest work out across cores;
        // the resulting tree is identical to a sequential bulk_load.
        VbTree::bulk_load_parallel(
            table,
            self.config.clone(),
            self.acc.clone(),
            signer,
            crate::tree::default_build_threads(table.len()),
        )
    }

    fn schema<'a>(&self, store: &'a VbTree<L>) -> &'a Schema {
        store.schema()
    }

    fn table(&self, store: &VbTree<L>) -> Table {
        rows_to_table(store.schema(), store.range(0, u64::MAX))
    }

    fn range_query(&self, store: &VbTree<L>, query: &RangeQuery) -> QueryResponse<L> {
        execute(store, query, None)
    }

    fn update(
        &self,
        store: &mut VbTree<L>,
        op: &UpdateOp,
        signer: &dyn Signer,
    ) -> Result<Self::Delta, VbSchemeError> {
        let mut capture = Capture::new(signer);
        match op {
            UpdateOp::Insert(tuple) => {
                store.insert_with_source(tuple.clone(), &mut capture)?;
            }
            UpdateOp::Delete(key) => {
                store.delete_with_source(*key, &mut capture)?;
            }
            UpdateOp::DeleteRange(lo, hi) => {
                store.delete_range_with_source(*lo, *hi, &mut capture)?;
            }
        }
        Ok(capture.into_digests())
    }

    fn apply_delta(
        &self,
        store: &mut VbTree<L>,
        op: &UpdateOp,
        payload: &Self::Delta,
        key_version: u32,
    ) -> Result<(), VbSchemeError> {
        let mut src = ReplaySource::new(payload.clone(), key_version);
        match op {
            UpdateOp::Insert(tuple) => {
                store.insert_with_source(tuple.clone(), &mut src)?;
            }
            UpdateOp::Delete(key) => {
                store.delete_with_source(*key, &mut src)?;
            }
            UpdateOp::DeleteRange(lo, hi) => {
                store.delete_range_with_source(*lo, *hi, &mut src)?;
            }
        }
        if src.remaining() != 0 {
            return Err(CoreError::ReplicaDivergence(format!(
                "{} unused digests after replay",
                src.remaining()
            ))
            .into());
        }
        Ok(())
    }

    /// The Section 3.4 batch fast path: apply every op structurally
    /// with deferred (unsigned) digests — exponents mutate, nothing is
    /// signed — then run **one** signing sweep over the dirty nodes.
    /// `k` ops sharing root-to-leaf paths thus cost `O(dirty digests)`
    /// signatures instead of `k · O(height)`, and the packed payload is
    /// the sweep's digest stream (a single [`DeltaBatch`] payload).
    ///
    /// Atomic: on any op failure the store is restored to its pre-batch
    /// state (cheap — the node arena is copy-on-write).
    fn update_batch(
        &self,
        store: &mut VbTree<L>,
        ops: &[UpdateOp],
        signer: &dyn Signer,
    ) -> Result<Vec<Self::Delta>, VbSchemeError> {
        let backup = store.clone();
        let mut src = DeferredSource::new(signer.key_version());
        store.begin_dirty_tracking();
        for op in ops {
            let applied = match op {
                UpdateOp::Insert(tuple) => store
                    .insert_with_source(tuple.clone(), &mut src)
                    .map(|_| ()),
                UpdateOp::Delete(key) => store.delete_with_source(*key, &mut src).map(|_| ()),
                UpdateOp::DeleteRange(lo, hi) => store
                    .delete_range_with_source(*lo, *hi, &mut src)
                    .map(|_| ()),
            };
            if let Err(e) = applied {
                *store = backup;
                return Err(e.into());
            }
        }
        let dirty = store.take_dirty();
        Ok(vec![store.sign_dirty_nodes(&dirty, signer)])
    }

    /// Replay a group-committed batch: the same deferred structural
    /// replay, then one sweep consuming the packed payload's pre-signed
    /// digests in the central server's deterministic sweep order,
    /// checking every locally recomputed exponent. Any divergence (or a
    /// malformed payload, e.g. from a hostile wire) restores the
    /// pre-batch store and reports `ReplicaDivergence` — never panics.
    fn apply_delta_batch(
        &self,
        store: &mut VbTree<L>,
        ops: &[UpdateOp],
        payloads: &[Self::Delta],
        key_version: u32,
    ) -> Result<(), VbSchemeError> {
        let [payload] = payloads else {
            return Err(CoreError::ReplicaDivergence(format!(
                "vb-tree batch carries one packed payload, got {}",
                payloads.len()
            ))
            .into());
        };
        let backup = store.clone();
        let mut src = DeferredSource::new(key_version);
        store.begin_dirty_tracking();
        let replayed = (|| -> Result<(), CoreError> {
            for op in ops {
                match op {
                    UpdateOp::Insert(tuple) => {
                        store.insert_with_source(tuple.clone(), &mut src)?;
                    }
                    UpdateOp::Delete(key) => {
                        store.delete_with_source(*key, &mut src)?;
                    }
                    UpdateOp::DeleteRange(lo, hi) => {
                        store.delete_range_with_source(*lo, *hi, &mut src)?;
                    }
                }
            }
            let dirty = store.take_dirty();
            store.replay_dirty_nodes(&dirty, payload, key_version)
        })();
        if let Err(e) = replayed {
            *store = backup;
            return Err(e.into());
        }
        Ok(())
    }

    fn verify(
        &self,
        schema: &Schema,
        verifier: &dyn SigVerifier,
        query: &RangeQuery,
        resp: &QueryResponse<L>,
        meter: &mut CostMeter,
    ) -> Result<VerifiedBatch, VbSchemeError> {
        let client = ClientVerifier::new(&self.acc, schema);
        let report = client.verify(verifier, query, resp)?;
        meter.absorb(&report.meter);
        Ok(VerifiedBatch {
            rows: resp.rows.clone(),
            signatures_checked: report.signatures_checked,
        })
    }

    fn vo(resp: &QueryResponse<L>) -> VerificationObject<L> {
        resp.vo.clone()
    }

    fn response_rows(resp: &QueryResponse<L>) -> Vec<ResultRow> {
        resp.rows.clone()
    }

    fn response_wire_bytes(resp: &QueryResponse<L>) -> usize {
        measure_response(resp).total()
    }

    fn vo_digest_count(resp: &QueryResponse<L>) -> usize {
        resp.vo.digest_count()
    }

    fn response_key_version(resp: &QueryResponse<L>) -> u32 {
        resp.vo.key_version
    }

    fn stamp_freshness(resp: &mut QueryResponse<L>, freshness: &ResponseFreshness) {
        resp.freshness = freshness.clone();
    }

    fn response_freshness(resp: &QueryResponse<L>) -> Option<&ResponseFreshness> {
        Some(&resp.freshness)
    }

    fn tamper(
        &self,
        store: &VbTree<L>,
        query: &RangeQuery,
        resp: &mut QueryResponse<L>,
        mode: &TamperMode,
    ) {
        match mode {
            TamperMode::None => {}
            TamperMode::MutateValue => {
                if let Some(row) = resp.rows.first_mut() {
                    mutate_first_value(&mut row.values);
                }
            }
            TamperMode::InjectRow => {
                inject_duplicate_last(&mut resp.rows, |r| r.key += 1);
            }
            TamperMode::DropRow => {
                drop_middle_row(&mut resp.rows);
            }
            TamperMode::DropAndReclassify { key } => {
                // Re-execute with a predicate hiding the victim: its
                // signed tuple digest lands in D_S and the VO still
                // balances — the documented completeness boundary.
                let victim = *key;
                let pred = move |t: &Tuple| t.key != victim;
                *resp = execute(store, query, Some(&pred));
            }
        }
    }

    fn supports_projection(&self) -> bool {
        true
    }

    fn proves_completeness(&self) -> bool {
        false
    }

    fn sync_chunk_count(&self, store: &VbTree<L>) -> usize {
        TreeChunks::new(store).num_chunks()
    }

    fn encode_sync_chunk(&self, store: &VbTree<L>, index: usize) -> Result<Vec<u8>, SyncError> {
        TreeChunks::new(store).encode_chunk(index)
    }

    fn begin_restore(
        &self,
        verifier: std::sync::Arc<dyn SigVerifier>,
    ) -> Box<dyn StoreRestorer<VbTree<L>>> {
        Box::new(Restorer::new(self.acc.clone(), verifier))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vbx_crypto::signer::MockSigner;
    use vbx_crypto::Acc256;
    use vbx_storage::workload::WorkloadSpec;

    fn scheme() -> (VbScheme<4>, Table, MockSigner) {
        let table = WorkloadSpec::new(60, 4, 8).build();
        let signer = MockSigner::new(21);
        (
            VbScheme::new(Acc256::test_default(), VbTreeConfig::with_fanout(6)),
            table,
            signer,
        )
    }

    #[test]
    fn roundtrip_through_the_trait() {
        let (s, table, signer) = scheme();
        let store = s.build(&table, &signer);
        let q = RangeQuery::select_all(10, 30);
        let resp = s.range_query(&store, &q);
        let mut meter = CostMeter::new();
        let batch = s
            .verify(
                table.schema(),
                signer.verifier().as_ref(),
                &q,
                &resp,
                &mut meter,
            )
            .unwrap();
        assert_eq!(batch.rows.len(), 21);
        assert!(meter.verify_ops > 0);
        assert_eq!(batch.signatures_checked, meter.verify_ops as usize);
        assert_eq!(
            VbScheme::<4>::response_key_version(&resp),
            signer.key_version()
        );
        assert!(VbScheme::<4>::response_wire_bytes(&resp) > 0);
        assert_eq!(
            VbScheme::<4>::vo_digest_count(&resp),
            VbScheme::<4>::vo(&resp).digest_count()
        );
    }

    #[test]
    fn update_and_replay_through_the_trait() {
        let (s, table, signer) = scheme();
        let mut master = s.build(&table, &signer);
        let mut replica = s.build(&table, &signer);
        let schema = table.schema().clone();
        let tuple = Tuple::new(
            &schema,
            500,
            vec![
                Value::from("a"),
                Value::from("b"),
                Value::from("c"),
                Value::from(5i64),
            ],
        )
        .unwrap();
        let op = UpdateOp::Insert(tuple);
        let payload = s.update(&mut master, &op, &signer).unwrap();
        s.apply_delta(&mut replica, &op, &payload, signer.key_version())
            .unwrap();
        assert_eq!(master.root_digest().exp, replica.root_digest().exp);
    }

    #[test]
    fn tamper_modes_alter_or_rebalance_responses() {
        let (s, table, signer) = scheme();
        let store = s.build(&table, &signer);
        let q = RangeQuery::select_all(5, 45);
        let honest = s.range_query(&store, &q);
        let mut meter = CostMeter::new();

        for mode in [
            TamperMode::MutateValue,
            TamperMode::InjectRow,
            TamperMode::DropRow,
        ] {
            let mut resp = honest.clone();
            s.tamper(&store, &q, &mut resp, &mode);
            assert!(
                s.verify(
                    table.schema(),
                    signer.verifier().as_ref(),
                    &q,
                    &resp,
                    &mut meter
                )
                .is_err(),
                "{mode:?} must break verification"
            );
        }

        // Reclassification still verifies — the documented boundary.
        let mut resp = honest.clone();
        s.tamper(
            &store,
            &q,
            &mut resp,
            &TamperMode::DropAndReclassify { key: 20 },
        );
        assert!(resp.rows.iter().all(|r| r.key != 20));
        s.verify(
            table.schema(),
            signer.verifier().as_ref(),
            &q,
            &resp,
            &mut meter,
        )
        .unwrap();
    }
}
