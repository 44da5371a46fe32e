//! [`AuthScheme`] implementations for the two baselines, so the edge
//! deployment, tamper scenarios, and measurement harness run the same
//! pipeline over the Naive strategy and the Merkle hash tree as over the
//! VB-tree.

use crate::merkle::{MerkleAuthStore, MerkleError, MerkleResponse};
use crate::naive::{NaiveAuthStore, NaiveError, NaiveResponse};
use std::sync::Arc;
use vbx_core::durable::DurableScheme;
use vbx_core::scheme::{
    drop_middle_row, inject_duplicate_last, mutate_first_value, rows_to_table, update_batch_atomic,
    AuthScheme, TamperMode, UpdateOp, VerifiedBatch,
};
use vbx_core::vo::{RangeQuery, ResultRow};
use vbx_core::{CoreError, CostMeter, ResponseFreshness, StoreRestorer, SyncError};
use vbx_crypto::accum::{Accumulator, SignedDigest};
use vbx_crypto::{SigVerifier, Signature, Signer};
use vbx_storage::{Schema, Table};

/// The Naive strategy as an [`AuthScheme`]: per-attribute and per-tuple
/// signed digests, shipped with every result row.
#[derive(Clone)]
pub struct NaiveScheme<const L: usize> {
    /// Digest algebra (public group parameters).
    pub acc: Accumulator<L>,
}

impl<const L: usize> NaiveScheme<L> {
    /// A scheme descriptor from public parameters.
    pub fn new(acc: Accumulator<L>) -> Self {
        Self { acc }
    }
}

impl<const L: usize> AuthScheme for NaiveScheme<L> {
    const NAME: &'static str = "naive";

    type Store = NaiveAuthStore<L>;
    type Response = NaiveResponse<L>;
    type Vo = Vec<SignedDigest<L>>;
    type Error = NaiveError;
    /// Insert payload: the new tuple's attribute digests in schema order,
    /// then its tuple digest. Deletes need no signed material.
    type Delta = Vec<SignedDigest<L>>;

    fn build(&self, table: &Table, signer: &dyn Signer) -> NaiveAuthStore<L> {
        NaiveAuthStore::build(table, self.acc.clone(), signer)
    }

    fn schema<'a>(&self, store: &'a NaiveAuthStore<L>) -> &'a Schema {
        store.schema()
    }

    fn table(&self, store: &NaiveAuthStore<L>) -> Table {
        rows_to_table(store.schema(), store.tuples())
    }

    fn range_query(&self, store: &NaiveAuthStore<L>, query: &RangeQuery) -> NaiveResponse<L> {
        store.query(query.lo, query.hi, query.projection.as_deref(), None)
    }

    fn update(
        &self,
        store: &mut NaiveAuthStore<L>,
        op: &UpdateOp,
        signer: &dyn Signer,
    ) -> Result<Self::Delta, NaiveError> {
        match op {
            UpdateOp::Insert(tuple) => {
                let (attrs, tuple_digest) =
                    NaiveAuthStore::sign_tuple(store.schema(), &self.acc, signer, tuple);
                let mut payload = attrs.clone();
                payload.push(tuple_digest.clone());
                store.insert_signed(tuple.clone(), attrs, tuple_digest, signer.key_version())?;
                Ok(payload)
            }
            UpdateOp::Delete(key) => {
                store.remove(*key)?;
                Ok(Vec::new())
            }
            UpdateOp::DeleteRange(lo, hi) => {
                store.remove_range(*lo, *hi);
                Ok(Vec::new())
            }
        }
    }

    /// The per-op loop with the trait's atomicity contract: a failing
    /// op restores the pre-batch store (see `update_batch_atomic`).
    fn update_batch(
        &self,
        store: &mut NaiveAuthStore<L>,
        ops: &[UpdateOp],
        signer: &dyn Signer,
    ) -> Result<Vec<Self::Delta>, NaiveError> {
        update_batch_atomic(self, store, ops, signer)
    }

    fn apply_delta(
        &self,
        store: &mut NaiveAuthStore<L>,
        op: &UpdateOp,
        payload: &Self::Delta,
        key_version: u32,
    ) -> Result<(), NaiveError> {
        match op {
            UpdateOp::Insert(tuple) => {
                if payload.len() != tuple.values.len() + 1 {
                    return Err(NaiveError::ReplicaDivergence(format!(
                        "insert payload has {} digests, tuple needs {}",
                        payload.len(),
                        tuple.values.len() + 1
                    )));
                }
                // The replica recomputes every exponent from the tuple it
                // was told to insert; a man-in-the-middle altering the
                // tuple cannot re-sign matching digests.
                let schema = store.schema().clone();
                for (col, (v, d)) in tuple.values.iter().zip(payload.iter()).enumerate() {
                    let input = schema.attribute_digest_input(col, tuple.key, v);
                    if self.acc.exp_from_bytes(&input) != d.exp {
                        return Err(NaiveError::ReplicaDivergence(format!(
                            "attribute {col} digest does not match replayed tuple {}",
                            tuple.key
                        )));
                    }
                }
                let attrs = payload[..tuple.values.len()].to_vec();
                let tuple_digest = payload[tuple.values.len()].clone();
                let expected = self.acc.combine_all(attrs.iter().map(|d| &d.exp));
                if tuple_digest.exp != expected {
                    return Err(NaiveError::ReplicaDivergence(format!(
                        "tuple digest does not combine from attributes for key {}",
                        tuple.key
                    )));
                }
                store.insert_signed(tuple.clone(), attrs, tuple_digest, key_version)
            }
            UpdateOp::Delete(key) => store.remove(*key),
            UpdateOp::DeleteRange(lo, hi) => {
                store.remove_range(*lo, *hi);
                Ok(())
            }
        }
    }

    fn verify(
        &self,
        schema: &Schema,
        verifier: &dyn SigVerifier,
        query: &RangeQuery,
        resp: &NaiveResponse<L>,
        meter: &mut CostMeter,
    ) -> Result<VerifiedBatch, NaiveError> {
        let sig_checks = NaiveAuthStore::verify(
            &self.acc,
            schema,
            verifier,
            query.lo,
            query.hi,
            query.projection.as_deref(),
            resp,
        )?;
        let n_cols = schema.num_columns();
        let returned = query.returned_columns(n_cols).len();
        // (A.2): per row, Q_C attribute hashes and N_C combines; one
        // signature decryption per shipped digest.
        meter.hash_ops += (resp.rows.len() * returned) as u64;
        meter.combine_ops += (resp.rows.len() * n_cols) as u64;
        meter.verify_ops += sig_checks as u64;
        Ok(VerifiedBatch {
            rows: Self::response_rows(resp),
            signatures_checked: sig_checks,
        })
    }

    fn vo(resp: &NaiveResponse<L>) -> Self::Vo {
        resp.rows
            .iter()
            .flat_map(|r| {
                std::iter::once(r.tuple_digest.clone()).chain(r.filtered_attrs.iter().cloned())
            })
            .collect()
    }

    fn response_rows(resp: &NaiveResponse<L>) -> Vec<ResultRow> {
        resp.rows
            .iter()
            .map(|r| ResultRow {
                key: r.key,
                values: r.values.clone(),
            })
            .collect()
    }

    fn response_wire_bytes(resp: &NaiveResponse<L>) -> usize {
        resp.wire_bytes()
    }

    fn vo_digest_count(resp: &NaiveResponse<L>) -> usize {
        resp.digest_count()
    }

    fn response_key_version(resp: &NaiveResponse<L>) -> u32 {
        resp.key_version
    }

    fn stamp_freshness(resp: &mut NaiveResponse<L>, freshness: &ResponseFreshness) {
        resp.freshness = freshness.clone();
    }

    fn response_freshness(resp: &NaiveResponse<L>) -> Option<&ResponseFreshness> {
        Some(&resp.freshness)
    }

    fn tamper(
        &self,
        _store: &NaiveAuthStore<L>,
        _query: &RangeQuery,
        resp: &mut NaiveResponse<L>,
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
                inject_duplicate_last(&mut resp.rows, |t| t.key += 1);
            }
            TamperMode::DropRow => {
                drop_middle_row(&mut resp.rows);
            }
            TamperMode::DropAndReclassify { key } => {
                // Naive has no completeness material at all: dropping a
                // row needs no reclassification and goes undetected.
                resp.rows.retain(|r| r.key != *key);
            }
        }
    }

    fn supports_projection(&self) -> bool {
        true
    }

    fn proves_completeness(&self) -> bool {
        false
    }

    fn sync_chunk_count(&self, _store: &NaiveAuthStore<L>) -> usize {
        1
    }

    fn encode_sync_chunk(
        &self,
        store: &NaiveAuthStore<L>,
        index: usize,
    ) -> Result<Vec<u8>, SyncError> {
        if index != 0 {
            return Err(SyncError::NoSuchChunk {
                index: index as u32,
                total: 1,
            });
        }
        Ok(DurableScheme::encode_store(self, store))
    }

    fn begin_restore(
        &self,
        verifier: Arc<dyn SigVerifier>,
    ) -> Box<dyn StoreRestorer<NaiveAuthStore<L>>> {
        let acc = self.acc.clone();
        Box::new(BlobRestorer::new(move |bytes: &[u8]| {
            let store = NaiveAuthStore::decode(bytes, &acc).map_err(SyncError::Wire)?;
            store
                .check_signatures(&acc, verifier.as_ref())
                .map_err(|e| match e {
                    NaiveError::BadSignature { .. } => SyncError::BadSignature(e.to_string()),
                    other => SyncError::DigestMismatch(other.to_string()),
                })?;
            Ok(store)
        }))
    }
}

/// A Merkle response's detachable proof material.
#[derive(Clone, Debug)]
pub struct MerkleVo {
    /// Hashes of untouched maximal subtrees.
    pub proof: Vec<[u8; 32]>,
    /// The signed root.
    pub root_sig: Signature,
}

/// The Devanbu-style Merkle hash tree as an [`AuthScheme`]: a single
/// signed root, `O(log N)` proofs, provable completeness, no server-side
/// projection.
#[derive(Clone, Copy, Debug, Default)]
pub struct MerkleScheme;

impl AuthScheme for MerkleScheme {
    const NAME: &'static str = "merkle";

    type Store = MerkleAuthStore;
    type Response = MerkleResponse;
    type Vo = MerkleVo;
    type Error = MerkleError;
    /// The freshly signed root after the operation.
    type Delta = Signature;

    fn build(&self, table: &Table, signer: &dyn Signer) -> MerkleAuthStore {
        MerkleAuthStore::build(table, signer)
    }

    fn schema<'a>(&self, store: &'a MerkleAuthStore) -> &'a Schema {
        store.schema()
    }

    fn table(&self, store: &MerkleAuthStore) -> Table {
        rows_to_table(store.schema(), store.tuples())
    }

    fn range_query(&self, store: &MerkleAuthStore, query: &RangeQuery) -> MerkleResponse {
        // The scheme cannot project: leaf hashes cover whole tuples, so
        // the projection (if any) is ignored and full tuples shipped.
        store.query(query.lo, query.hi)
    }

    fn update(
        &self,
        store: &mut MerkleAuthStore,
        op: &UpdateOp,
        signer: &dyn Signer,
    ) -> Result<Self::Delta, MerkleError> {
        match op {
            UpdateOp::Insert(tuple) => store.insert_tuple(tuple.clone())?,
            UpdateOp::Delete(key) => store.remove(*key)?,
            UpdateOp::DeleteRange(lo, hi) => {
                store.remove_range(*lo, *hi);
            }
        }
        Ok(store.sign_root(signer))
    }

    /// The per-op loop with the trait's atomicity contract: a failing
    /// op restores the pre-batch store (see `update_batch_atomic`).
    fn update_batch(
        &self,
        store: &mut MerkleAuthStore,
        ops: &[UpdateOp],
        signer: &dyn Signer,
    ) -> Result<Vec<Self::Delta>, MerkleError> {
        update_batch_atomic(self, store, ops, signer)
    }

    fn apply_delta(
        &self,
        store: &mut MerkleAuthStore,
        op: &UpdateOp,
        payload: &Self::Delta,
        key_version: u32,
    ) -> Result<(), MerkleError> {
        match op {
            UpdateOp::Insert(tuple) => store.insert_tuple(tuple.clone())?,
            UpdateOp::Delete(key) => store.remove(*key)?,
            UpdateOp::DeleteRange(lo, hi) => {
                store.remove_range(*lo, *hi);
            }
        }
        // Replicas cannot verify the new root signature themselves (no
        // public-key material at the edge in this model); clients will.
        store.install_root_sig(payload.clone(), key_version);
        Ok(())
    }

    fn verify(
        &self,
        schema: &Schema,
        verifier: &dyn SigVerifier,
        query: &RangeQuery,
        resp: &MerkleResponse,
        meter: &mut CostMeter,
    ) -> Result<VerifiedBatch, MerkleError> {
        MerkleAuthStore::verify(schema, verifier, query.lo, query.hi, resp)?;
        // Cost accounting: one leaf hash per window tuple, one inner
        // hash per recombination step (≈ window + proof nodes merged
        // down to the root), one signature check on the root.
        let window = resp.rows.len()
            + usize::from(resp.left_boundary.is_some())
            + usize::from(resp.right_boundary.is_some());
        meter.hash_ops += window as u64;
        meter.combine_ops += (window + resp.proof.len()).saturating_sub(1) as u64;
        meter.verify_ops += 1;
        Ok(VerifiedBatch {
            rows: Self::response_rows(resp),
            signatures_checked: 1,
        })
    }

    fn vo(resp: &MerkleResponse) -> MerkleVo {
        MerkleVo {
            proof: resp.proof.clone(),
            root_sig: resp.root_sig.clone(),
        }
    }

    fn response_rows(resp: &MerkleResponse) -> Vec<ResultRow> {
        resp.rows
            .iter()
            .map(|t| ResultRow {
                key: t.key,
                values: t.values.clone(),
            })
            .collect()
    }

    fn response_wire_bytes(resp: &MerkleResponse) -> usize {
        resp.wire_bytes()
    }

    fn vo_digest_count(resp: &MerkleResponse) -> usize {
        resp.proof_hashes()
    }

    fn response_key_version(resp: &MerkleResponse) -> u32 {
        resp.key_version
    }

    fn stamp_freshness(resp: &mut MerkleResponse, freshness: &ResponseFreshness) {
        resp.freshness = freshness.clone();
    }

    fn response_freshness(resp: &MerkleResponse) -> Option<&ResponseFreshness> {
        Some(&resp.freshness)
    }

    fn tamper(
        &self,
        _store: &MerkleAuthStore,
        _query: &RangeQuery,
        resp: &mut MerkleResponse,
        mode: &TamperMode,
    ) {
        match mode {
            TamperMode::None => {}
            TamperMode::MutateValue => {
                if let Some(t) = resp.rows.first_mut() {
                    mutate_first_value(&mut t.values);
                }
            }
            TamperMode::InjectRow => {
                inject_duplicate_last(&mut resp.rows, |t| t.key += 1);
            }
            TamperMode::DropRow => {
                drop_middle_row(&mut resp.rows);
            }
            TamperMode::DropAndReclassify { key } => {
                // There is nowhere to reclassify to: the proof pins the
                // leaf range, so this reduces to a plain drop — which
                // the Merkle completeness proof *does* detect.
                resp.rows.retain(|t| t.key != *key);
            }
        }
    }

    fn supports_projection(&self) -> bool {
        false
    }

    fn proves_completeness(&self) -> bool {
        true
    }

    fn sync_chunk_count(&self, _store: &MerkleAuthStore) -> usize {
        1
    }

    fn encode_sync_chunk(
        &self,
        store: &MerkleAuthStore,
        index: usize,
    ) -> Result<Vec<u8>, SyncError> {
        if index != 0 {
            return Err(SyncError::NoSuchChunk {
                index: index as u32,
                total: 1,
            });
        }
        Ok(DurableScheme::encode_store(self, store))
    }

    fn begin_restore(
        &self,
        verifier: Arc<dyn SigVerifier>,
    ) -> Box<dyn StoreRestorer<MerkleAuthStore>> {
        Box::new(BlobRestorer::new(move |bytes: &[u8]| {
            let store = MerkleAuthStore::decode(bytes).map_err(SyncError::Wire)?;
            if !store.verify_root_sig(verifier.as_ref()) {
                return Err(SyncError::BadSignature(
                    "merkle root signature does not authenticate restored tuples".into(),
                ));
            }
            Ok(store)
        }))
    }
}

/// Single-chunk [`StoreRestorer`] shared by the baselines: their
/// commitment granularity is the whole store (per-tuple signatures for
/// Naive, one signed root for Merkle), so verified sync ships the
/// durability codec's bytes as one chunk and audits all signatures in
/// the decode closure before releasing the store.
struct BlobRestorer<S, F> {
    decode: F,
    blob: Option<Vec<u8>>,
    _store: std::marker::PhantomData<fn() -> S>,
}

impl<S, F> BlobRestorer<S, F>
where
    F: FnOnce(&[u8]) -> Result<S, SyncError> + Send,
{
    fn new(decode: F) -> Self {
        Self {
            decode,
            blob: None,
            _store: std::marker::PhantomData,
        }
    }
}

impl<S, F> StoreRestorer<S> for BlobRestorer<S, F>
where
    S: 'static,
    F: FnOnce(&[u8]) -> Result<S, SyncError> + Send,
{
    fn ingest(&mut self, chunk: &[u8]) -> Result<(), SyncError> {
        if self.blob.is_some() {
            return Err(SyncError::ChunkOutOfOrder {
                expected: 1,
                got: 1,
            });
        }
        self.blob = Some(chunk.to_vec());
        Ok(())
    }

    fn finish(self: Box<Self>) -> Result<S, SyncError> {
        let blob = self.blob.ok_or(SyncError::Incomplete {
            ingested: 0,
            expected: 1,
        })?;
        (self.decode)(&blob)
    }
}

impl<const L: usize> DurableScheme for NaiveScheme<L> {
    fn encode_store(&self, store: &NaiveAuthStore<L>) -> Vec<u8> {
        store.encode()
    }

    fn decode_store(&self, bytes: &[u8]) -> Result<NaiveAuthStore<L>, CoreError> {
        NaiveAuthStore::decode(bytes, &self.acc)
    }

    fn encode_delta(&self, payload: &Self::Delta) -> Vec<u8> {
        vbx_core::durable::encode_digest_vec(payload)
    }

    fn decode_delta(&self, bytes: &[u8]) -> Result<Self::Delta, CoreError> {
        vbx_core::durable::decode_digest_vec(bytes, |buf| {
            vbx_core::durable::get_signed_digest(buf, &self.acc)
        })
    }
}

impl DurableScheme for MerkleScheme {
    fn encode_store(&self, store: &MerkleAuthStore) -> Vec<u8> {
        store.encode()
    }

    fn decode_store(&self, bytes: &[u8]) -> Result<MerkleAuthStore, CoreError> {
        MerkleAuthStore::decode(bytes)
    }

    fn encode_delta(&self, payload: &Self::Delta) -> Vec<u8> {
        let mut out = Vec::with_capacity(2 + payload.len());
        out.extend_from_slice(&(payload.len() as u16).to_be_bytes());
        out.extend_from_slice(payload.as_bytes());
        out
    }

    fn decode_delta(&self, bytes: &[u8]) -> Result<Self::Delta, CoreError> {
        let corrupt = |m: &str| CoreError::Wire(m.to_string());
        if bytes.len() < 2 {
            return Err(corrupt("merkle delta truncated"));
        }
        let len = u16::from_be_bytes(bytes[..2].try_into().unwrap()) as usize;
        if bytes.len() != 2 + len {
            return Err(corrupt("merkle delta length mismatch"));
        }
        Ok(Signature(bytes[2..].to_vec()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vbx_crypto::signer::MockSigner;
    use vbx_crypto::Acc256;
    use vbx_storage::workload::WorkloadSpec;
    use vbx_storage::Tuple;
    use vbx_storage::Value;

    fn table() -> Table {
        WorkloadSpec::new(40, 3, 8).build()
    }

    fn new_tuple(schema: &Schema, key: u64) -> Tuple {
        Tuple::new(
            schema,
            key,
            vec![Value::from("n"), Value::from("m"), Value::from(7i64)],
        )
        .unwrap()
    }

    #[test]
    fn naive_update_and_replay_through_the_trait() {
        let t = table();
        let signer = MockSigner::new(31);
        let scheme = NaiveScheme::new(Acc256::test_default());
        let mut master = scheme.build(&t, &signer);
        let mut replica = scheme.build(&t, &signer);

        let op = UpdateOp::Insert(new_tuple(t.schema(), 100));
        let payload = scheme.update(&mut master, &op, &signer).unwrap();
        scheme
            .apply_delta(&mut replica, &op, &payload, signer.key_version())
            .unwrap();
        assert_eq!(master.len(), replica.len());

        // A forged tuple in the replayed delta is rejected.
        let forged_op = UpdateOp::Insert({
            let mut evil = new_tuple(t.schema(), 101);
            evil.values[0] = Value::from("evil");
            evil
        });
        let honest_payload = scheme
            .update(
                &mut master,
                &UpdateOp::Insert(new_tuple(t.schema(), 101)),
                &signer,
            )
            .unwrap();
        let err = scheme
            .apply_delta(
                &mut replica,
                &forged_op,
                &honest_payload,
                signer.key_version(),
            )
            .unwrap_err();
        assert!(matches!(err, NaiveError::ReplicaDivergence(_)));

        let del = UpdateOp::Delete(100);
        let payload = scheme.update(&mut master, &del, &signer).unwrap();
        scheme
            .apply_delta(&mut replica, &del, &payload, signer.key_version())
            .unwrap();

        let q = RangeQuery::select_all(0, 200);
        let resp = scheme.range_query(&master, &q);
        let mut meter = CostMeter::new();
        scheme
            .verify(
                t.schema(),
                signer.verifier().as_ref(),
                &q,
                &resp,
                &mut meter,
            )
            .unwrap();
        assert!(meter.verify_ops > 0);
    }

    #[test]
    fn merkle_update_and_replay_through_the_trait() {
        let t = table();
        let signer = MockSigner::new(32);
        let scheme = MerkleScheme;
        let mut master = scheme.build(&t, &signer);
        let mut replica = scheme.build(&t, &signer);

        for op in [
            UpdateOp::Insert(new_tuple(t.schema(), 100)),
            UpdateOp::Delete(5),
            UpdateOp::DeleteRange(10, 15),
        ] {
            let payload = scheme.update(&mut master, &op, &signer).unwrap();
            scheme
                .apply_delta(&mut replica, &op, &payload, signer.key_version())
                .unwrap();
        }
        assert_eq!(master.root(), replica.root());

        let q = RangeQuery::select_all(0, 200);
        let resp = scheme.range_query(&replica, &q);
        let mut meter = CostMeter::new();
        let batch = scheme
            .verify(
                t.schema(),
                signer.verifier().as_ref(),
                &q,
                &resp,
                &mut meter,
            )
            .unwrap();
        assert_eq!(batch.rows.len(), master.len());
        assert_eq!(meter.verify_ops, 1);
    }

    #[test]
    fn scheme_capability_flags_match_the_paper() {
        let naive = NaiveScheme::<4>::new(Acc256::test_default());
        assert!(naive.supports_projection());
        assert!(!naive.proves_completeness());
        assert!(!MerkleScheme.supports_projection());
        assert!(MerkleScheme.proves_completeness());
    }
}
