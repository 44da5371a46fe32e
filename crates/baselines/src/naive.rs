//! The Naive strategy (paper Appendix, Figure 14).
//!
//! "The naive strategy maintains for each attribute a signed digest, and
//! for each tuple a signed digest obtained from the attribute digests. It
//! transmits the result tuples together with their attribute and tuple
//! digests for the client to verify the correctness of the result
//! tuples."
//!
//! Costs (with `N_Q` result tuples, `N_C` columns, `Q_C` returned):
//!
//! * communication (A.1): `N_Q · (|D| + Σ|A_qc| + (N_C − Q_C)·|D|)`
//! * computation (A.2): per tuple, `Q_C` hashes + `N_C − Q_C + 1`
//!   signature decryptions + `N_C` combines.
//!
//! Note the per-row signature decryption — the term that makes Naive lose
//! to the VB-tree in Figure 12.

use crate::freshness_wire_bytes;
use std::collections::BTreeMap;
use vbx_core::ResponseFreshness;
use vbx_crypto::accum::{Accumulator, DigestRole, SignedDigest};
use vbx_crypto::{SigVerifier, Signer};
use vbx_storage::{Schema, StorageError, Table, Tuple, Value};

/// Why a Naive response failed verification.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NaiveError {
    /// A row has the wrong number of values or filtered digests.
    Malformed {
        /// Offending row key.
        key: u64,
    },
    /// A signature failed.
    BadSignature {
        /// Offending row key.
        key: u64,
    },
    /// The recomputed tuple digest does not match the signed one.
    DigestMismatch {
        /// Offending row key.
        key: u64,
    },
    /// Result keys out of order or out of range.
    BadRowSet,
    /// Insert with a key that already exists.
    DuplicateKey(u64),
    /// Delete of a missing key.
    KeyNotFound(u64),
    /// A replayed delta's digests do not match the replica's own
    /// recomputation — the delta was forged or the replica diverged.
    ReplicaDivergence(String),
    /// An inserted row does not match the table's schema.
    Schema(StorageError),
}

impl core::fmt::Display for NaiveError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            NaiveError::Malformed { key } => write!(f, "malformed naive row {key}"),
            NaiveError::BadSignature { key } => write!(f, "bad signature on row {key}"),
            NaiveError::DigestMismatch { key } => write!(f, "digest mismatch on row {key}"),
            NaiveError::BadRowSet => write!(f, "row set out of order or range"),
            NaiveError::DuplicateKey(k) => write!(f, "duplicate key {k}"),
            NaiveError::KeyNotFound(k) => write!(f, "key {k} not found"),
            NaiveError::ReplicaDivergence(m) => write!(f, "replica divergence: {m}"),
            NaiveError::Schema(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for NaiveError {}

#[derive(Clone)]
struct Entry<const L: usize> {
    tuple: Tuple,
    attr_digests: Vec<SignedDigest<L>>,
    tuple_digest: SignedDigest<L>,
}

/// Server-side store for the Naive strategy: a key-ordered map of tuples
/// with their signed digests. `Clone` supports the serving replicas'
/// build-aside-and-swap update path.
#[derive(Clone)]
pub struct NaiveAuthStore<const L: usize> {
    schema: Schema,
    entries: BTreeMap<u64, Entry<L>>,
    key_version: u32,
}

/// One answer row with its authentication material.
#[derive(Clone, Debug)]
pub struct NaiveRow<const L: usize> {
    /// Primary key.
    pub key: u64,
    /// Returned attribute values (projection order).
    pub values: Vec<Value>,
    /// The signed tuple digest `D_T`.
    pub tuple_digest: SignedDigest<L>,
    /// Signed digests of the filtered attributes, in schema order.
    pub filtered_attrs: Vec<SignedDigest<L>>,
}

/// A Naive query answer.
#[derive(Clone, Debug)]
pub struct NaiveResponse<const L: usize> {
    /// Answer rows in key order.
    pub rows: Vec<NaiveRow<L>>,
    /// Key version for registry lookup.
    pub key_version: u32,
    /// The serving edge's replication position + newest owner stamp
    /// (default/empty on a standalone store — stamped by the edge
    /// service in cluster deployments, like the VB-tree's responses).
    pub freshness: ResponseFreshness,
}

impl<const L: usize> NaiveResponse<L> {
    /// Wire size: values plus all shipped digests (the quantity in
    /// equation (A.1)).
    pub fn wire_bytes(&self) -> usize {
        let digest_len = |d: &SignedDigest<L>| 1 + L * 8 + 2 + d.sig.len();
        self.rows
            .iter()
            .map(|r| {
                10 + r.values.iter().map(Value::wire_len).sum::<usize>()
                    + digest_len(&r.tuple_digest)
                    + r.filtered_attrs.iter().map(digest_len).sum::<usize>()
            })
            .sum::<usize>()
            + 8
            + freshness_wire_bytes(&self.freshness)
    }

    /// Number of signed digests shipped.
    pub fn digest_count(&self) -> usize {
        self.rows.iter().map(|r| 1 + r.filtered_attrs.len()).sum()
    }
}

impl<const L: usize> NaiveAuthStore<L> {
    /// Build the store from a table, signing every attribute and tuple.
    pub fn build(table: &Table, acc: Accumulator<L>, signer: &dyn Signer) -> Self {
        let schema = table.schema().clone();
        let mut entries = BTreeMap::new();
        for t in table.iter() {
            let (attr_digests, tuple_digest) = Self::sign_tuple(&schema, &acc, signer, t);
            entries.insert(
                t.key,
                Entry {
                    tuple: t.clone(),
                    attr_digests,
                    tuple_digest,
                },
            );
        }
        Self {
            schema,
            entries,
            key_version: signer.key_version(),
        }
    }

    /// Sign one tuple's attribute digests and combined tuple digest —
    /// the per-tuple signing work of the Naive strategy, shared by
    /// [`build`](Self::build) and update transactions.
    pub fn sign_tuple(
        schema: &Schema,
        acc: &Accumulator<L>,
        signer: &dyn Signer,
        tuple: &Tuple,
    ) -> (Vec<SignedDigest<L>>, SignedDigest<L>) {
        let mut attr_digests = Vec::with_capacity(tuple.values.len());
        let mut tuple_exp = acc.identity();
        for (col, v) in tuple.values.iter().enumerate() {
            let input = schema.attribute_digest_input(col, tuple.key, v);
            let e = acc.exp_from_bytes(&input);
            tuple_exp = acc.combine(&tuple_exp, &e);
            attr_digests.push(acc.sign_digest(signer, DigestRole::Attribute, &e));
        }
        let tuple_digest = acc.sign_digest(signer, DigestRole::Tuple, &tuple_exp);
        (attr_digests, tuple_digest)
    }

    /// Install a pre-signed tuple (updates at the trusted server, and
    /// signed-delta replay at replicas — replicas cannot sign). A row
    /// that does not match the schema is refused before anything
    /// changes.
    pub fn insert_signed(
        &mut self,
        tuple: Tuple,
        attr_digests: Vec<SignedDigest<L>>,
        tuple_digest: SignedDigest<L>,
        key_version: u32,
    ) -> Result<(), NaiveError> {
        self.schema
            .check_row(&tuple.values)
            .map_err(NaiveError::Schema)?;
        if self.entries.contains_key(&tuple.key) {
            return Err(NaiveError::DuplicateKey(tuple.key));
        }
        if attr_digests.len() != tuple.values.len() {
            return Err(NaiveError::Malformed { key: tuple.key });
        }
        self.entries.insert(
            tuple.key,
            Entry {
                tuple,
                attr_digests,
                tuple_digest,
            },
        );
        self.key_version = key_version;
        Ok(())
    }

    /// Remove a tuple and its digests.
    pub fn remove(&mut self, key: u64) -> Result<(), NaiveError> {
        self.entries
            .remove(&key)
            .map(|_| ())
            .ok_or(NaiveError::KeyNotFound(key))
    }

    /// Remove every tuple in `[lo, hi]`, returning how many were removed.
    pub fn remove_range(&mut self, lo: u64, hi: u64) -> usize {
        let keys: Vec<u64> = self.entries.range(lo..=hi).map(|(k, _)| *k).collect();
        for k in &keys {
            self.entries.remove(k);
        }
        keys.len()
    }

    /// Key version the store's digests were signed under.
    pub fn key_version(&self) -> u32 {
        self.key_version
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The stored tuples in key order.
    pub fn tuples(&self) -> impl Iterator<Item = &Tuple> {
        self.entries.values().map(|e| &e.tuple)
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Restore-time audit for a store received over an untrusted
    /// channel: recompute every attribute exponent from the stored
    /// values, check each tuple exponent is the product of its
    /// attributes, and verify every signature under `verifier`.
    pub fn check_signatures(
        &self,
        acc: &Accumulator<L>,
        verifier: &dyn SigVerifier,
    ) -> Result<(), NaiveError> {
        for (&key, e) in &self.entries {
            if e.tuple.key != key || e.attr_digests.len() != e.tuple.values.len() {
                return Err(NaiveError::Malformed { key });
            }
            let mut tuple_exp = acc.identity();
            for (col, (v, d)) in e.tuple.values.iter().zip(&e.attr_digests).enumerate() {
                let input = self.schema.attribute_digest_input(col, key, v);
                if acc.exp_from_bytes(&input) != d.exp {
                    return Err(NaiveError::DigestMismatch { key });
                }
                if !acc.verify_digest(verifier, d) {
                    return Err(NaiveError::BadSignature { key });
                }
                tuple_exp = acc.combine(&tuple_exp, &d.exp);
            }
            if tuple_exp != e.tuple_digest.exp {
                return Err(NaiveError::DigestMismatch { key });
            }
            if !acc.verify_digest(verifier, &e.tuple_digest) {
                return Err(NaiveError::BadSignature { key });
            }
        }
        Ok(())
    }

    /// Serialise the store (schema, key version, and every entry's
    /// tuple + signed digests) for a durability checkpoint.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.entries.len() * 128);
        self.schema.encode_into(&mut out);
        out.extend_from_slice(&self.key_version.to_be_bytes());
        out.extend_from_slice(&(self.entries.len() as u32).to_be_bytes());
        for e in self.entries.values() {
            e.tuple.encode_into(&mut out);
            out.extend_from_slice(&(e.attr_digests.len() as u32).to_be_bytes());
            for d in &e.attr_digests {
                vbx_core::durable::put_signed_digest(&mut out, d);
            }
            vbx_core::durable::put_signed_digest(&mut out, &e.tuple_digest);
        }
        out
    }

    /// Decode a checkpointed store. Structural damage errors (never
    /// panics); signatures are carried verbatim, so a decoded store is
    /// byte-identical to the encoded one.
    pub fn decode(bytes: &[u8], acc: &Accumulator<L>) -> Result<Self, vbx_core::CoreError> {
        use vbx_core::durable::get_signed_digest;
        let corrupt = |m: &str| vbx_core::CoreError::Wire(m.to_string());
        let mut buf = bytes;
        let schema = Schema::decode(&mut buf).map_err(vbx_core::CoreError::Storage)?;
        if buf.len() < 8 {
            return Err(corrupt("naive store header truncated"));
        }
        let key_version = u32::from_be_bytes(buf[..4].try_into().unwrap());
        let n = u32::from_be_bytes(buf[4..8].try_into().unwrap()) as usize;
        buf = &buf[8..];
        let mut entries = BTreeMap::new();
        for _ in 0..n {
            let tuple = Tuple::decode(&mut buf).map_err(vbx_core::CoreError::Storage)?;
            if buf.len() < 4 {
                return Err(corrupt("naive entry digest count truncated"));
            }
            let n_attrs = u32::from_be_bytes(buf[..4].try_into().unwrap()) as usize;
            buf = &buf[4..];
            if n_attrs != tuple.values.len() {
                return Err(corrupt("naive entry digest count mismatch"));
            }
            let mut attr_digests = Vec::with_capacity(n_attrs);
            for _ in 0..n_attrs {
                attr_digests.push(get_signed_digest(&mut buf, acc)?);
            }
            let tuple_digest = get_signed_digest(&mut buf, acc)?;
            entries.insert(
                tuple.key,
                Entry {
                    tuple,
                    attr_digests,
                    tuple_digest,
                },
            );
        }
        if !buf.is_empty() {
            return Err(corrupt("trailing bytes in naive store"));
        }
        Ok(Self {
            schema,
            entries,
            key_version,
        })
    }

    /// Answer a range query with optional projection and predicate.
    pub fn query(
        &self,
        lo: u64,
        hi: u64,
        projection: Option<&[usize]>,
        predicate: Option<&dyn Fn(&Tuple) -> bool>,
    ) -> NaiveResponse<L> {
        let n_cols = self.schema.num_columns();
        let returned: Vec<usize> = match projection {
            Some(cols) => cols.to_vec(),
            None => (0..n_cols).collect(),
        };
        let mut rows = Vec::new();
        for (_, e) in self.entries.range(lo..=hi) {
            if predicate.is_none_or(|p| p(&e.tuple)) {
                let values = returned
                    .iter()
                    .map(|&c| e.tuple.values[c].clone())
                    .collect();
                let filtered_attrs = (0..n_cols)
                    .filter(|c| !returned.contains(c))
                    .map(|c| e.attr_digests[c].clone())
                    .collect();
                rows.push(NaiveRow {
                    key: e.tuple.key,
                    values,
                    tuple_digest: e.tuple_digest.clone(),
                    filtered_attrs,
                });
            }
        }
        NaiveResponse {
            rows,
            key_version: self.key_version,
            freshness: ResponseFreshness::default(),
        }
    }

    /// Client-side verification: per row, recompute returned attribute
    /// digests, verify + combine the filtered ones, and match the signed
    /// tuple digest (Figure 14). Returns the number of signature
    /// verifications performed — the per-row `Cost_s` term of (A.2).
    pub fn verify(
        acc: &Accumulator<L>,
        schema: &Schema,
        verifier: &dyn SigVerifier,
        lo: u64,
        hi: u64,
        projection: Option<&[usize]>,
        resp: &NaiveResponse<L>,
    ) -> Result<usize, NaiveError> {
        let n_cols = schema.num_columns();
        let returned: Vec<usize> = match projection {
            Some(cols) => cols.to_vec(),
            None => (0..n_cols).collect(),
        };
        let filtered_count = n_cols - returned.len();
        let mut sig_checks = 0usize;
        let mut prev: Option<u64> = None;
        for row in &resp.rows {
            if row.key < lo || row.key > hi || prev.is_some_and(|p| row.key <= p) {
                return Err(NaiveError::BadRowSet);
            }
            prev = Some(row.key);
            if row.values.len() != returned.len() || row.filtered_attrs.len() != filtered_count {
                return Err(NaiveError::Malformed { key: row.key });
            }
            let mut exp = acc.identity();
            for (slot, &col) in returned.iter().enumerate() {
                let input = schema.attribute_digest_input(col, row.key, &row.values[slot]);
                let e = acc.exp_from_bytes(&input);
                exp = acc.combine(&exp, &e);
            }
            for d in &row.filtered_attrs {
                sig_checks += 1;
                if d.role != DigestRole::Attribute || !acc.verify_digest(verifier, d) {
                    return Err(NaiveError::BadSignature { key: row.key });
                }
                exp = acc.combine(&exp, &d.exp);
            }
            sig_checks += 1;
            if row.tuple_digest.role != DigestRole::Tuple
                || !acc.verify_digest(verifier, &row.tuple_digest)
            {
                return Err(NaiveError::BadSignature { key: row.key });
            }
            if exp != row.tuple_digest.exp {
                return Err(NaiveError::DigestMismatch { key: row.key });
            }
        }
        Ok(sig_checks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vbx_crypto::signer::MockSigner;
    use vbx_crypto::Acc256;
    use vbx_storage::workload::WorkloadSpec;

    fn store() -> (NaiveAuthStore<4>, MockSigner) {
        let table = WorkloadSpec::new(40, 4, 8).build();
        let signer = MockSigner::new(5);
        let store = NaiveAuthStore::build(&table, Acc256::test_default(), &signer);
        (store, signer)
    }

    #[test]
    fn roundtrip_select_all() {
        let (s, signer) = store();
        let resp = s.query(5, 20, None, None);
        assert_eq!(resp.rows.len(), 16);
        let checks = NaiveAuthStore::verify(
            &Acc256::test_default(),
            s.schema(),
            signer.verifier().as_ref(),
            5,
            20,
            None,
            &resp,
        )
        .unwrap();
        // One tuple-digest check per row, no filtered attributes.
        assert_eq!(checks, 16);
    }

    #[test]
    fn roundtrip_projection() {
        let (s, signer) = store();
        let proj = [1usize];
        let resp = s.query(0, 39, Some(&proj), None);
        let checks = NaiveAuthStore::verify(
            &Acc256::test_default(),
            s.schema(),
            signer.verifier().as_ref(),
            0,
            39,
            Some(&proj),
            &resp,
        )
        .unwrap();
        // Per row: 3 filtered attr digests + 1 tuple digest.
        assert_eq!(checks, 40 * 4);
    }

    #[test]
    fn per_row_signatures_grow_with_result() {
        // The defining cost of Naive: signature checks scale with rows.
        let (s, signer) = store();
        let verifier = signer.verifier();
        let acc = Acc256::test_default();
        let small = s.query(0, 9, None, None);
        let large = s.query(0, 39, None, None);
        let c_small =
            NaiveAuthStore::verify(&acc, s.schema(), verifier.as_ref(), 0, 9, None, &small)
                .unwrap();
        let c_large =
            NaiveAuthStore::verify(&acc, s.schema(), verifier.as_ref(), 0, 39, None, &large)
                .unwrap();
        assert_eq!(c_large, 4 * c_small);
        assert!(large.wire_bytes() > small.wire_bytes());
    }

    #[test]
    fn tampered_value_detected() {
        let (s, signer) = store();
        let mut resp = s.query(0, 10, None, None);
        resp.rows[2].values[0] = Value::from("evil");
        let err = NaiveAuthStore::verify(
            &Acc256::test_default(),
            s.schema(),
            signer.verifier().as_ref(),
            0,
            10,
            None,
            &resp,
        )
        .unwrap_err();
        assert!(matches!(err, NaiveError::DigestMismatch { .. }));
    }

    #[test]
    fn forged_digest_detected() {
        let (s, signer) = store();
        let mut resp = s.query(0, 10, Some(&[0]), None);
        let acc = Acc256::test_default();
        resp.rows[0].filtered_attrs[0].exp = acc.exp_from_bytes(b"evil");
        let err = NaiveAuthStore::verify(
            &acc,
            s.schema(),
            signer.verifier().as_ref(),
            0,
            10,
            Some(&[0]),
            &resp,
        )
        .unwrap_err();
        assert!(matches!(err, NaiveError::BadSignature { .. }));
    }

    #[test]
    fn spurious_row_detected() {
        let (s, signer) = store();
        let mut resp = s.query(0, 10, None, None);
        let mut fake = resp.rows[0].clone();
        fake.key = 7;
        fake.values[0] = Value::from("injected");
        resp.rows.retain(|r| r.key != 7);
        resp.rows.push(fake);
        resp.rows.sort_by_key(|r| r.key);
        let err = NaiveAuthStore::verify(
            &Acc256::test_default(),
            s.schema(),
            signer.verifier().as_ref(),
            0,
            10,
            None,
            &resp,
        )
        .unwrap_err();
        assert!(matches!(err, NaiveError::DigestMismatch { .. }));
    }

    #[test]
    fn naive_cannot_detect_dropped_rows() {
        // Documented limitation: Naive has no completeness story at all —
        // silently removing a row still verifies.
        let (s, signer) = store();
        let mut resp = s.query(0, 10, None, None);
        resp.rows.remove(4);
        NaiveAuthStore::verify(
            &Acc256::test_default(),
            s.schema(),
            signer.verifier().as_ref(),
            0,
            10,
            None,
            &resp,
        )
        .unwrap();
    }

    #[test]
    fn predicate_filtering() {
        let (s, signer) = store();
        let pred = |t: &Tuple| matches!(t.values[3], Value::Int(v) if v < 50);
        let resp = s.query(0, 39, None, Some(&pred));
        assert!(resp.rows.len() < 40);
        NaiveAuthStore::verify(
            &Acc256::test_default(),
            s.schema(),
            signer.verifier().as_ref(),
            0,
            39,
            None,
            &resp,
        )
        .unwrap();
    }
}
