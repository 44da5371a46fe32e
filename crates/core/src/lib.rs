//! # vbx-core — the Verifiable B-tree
//!
//! The primary contribution of Pang & Tan, *Authenticating Query Results
//! in Edge Computing* (ICDE 2004): a B+-tree whose attributes, tuples and
//! nodes all carry digests signed by the trusted central DBMS, so that an
//! untrusted edge server can attach a **verification object (VO)** to
//! every query result and any client holding the public key can check
//! that
//!
//! * no attribute value was tampered with, and
//! * no spurious tuple was introduced,
//!
//! with a VO whose size is **linear in the result and independent of the
//! database size**.
//!
//! ## Quick tour
//!
//! ```
//! use vbx_core::{execute, ClientVerifier, RangeQuery, VbTree, VbTreeConfig};
//! use vbx_crypto::{rsa, Acc256, Signer};
//! use vbx_storage::workload::WorkloadSpec;
//!
//! // Central server: build and sign the VB-tree.
//! let table = WorkloadSpec::new(100, 4, 12).build();
//! let signer = rsa::fixture_keypair_512();
//! let acc = Acc256::test_default();
//! let tree = VbTree::bulk_load(&table, VbTreeConfig::with_fanout(8), acc.clone(), &signer);
//!
//! // Edge server: answer a range query with a VO.
//! let query = RangeQuery::select_all(10, 30);
//! let resp = execute(&tree, &query, None);
//!
//! // Client: verify against the public key only.
//! let client = ClientVerifier::new(&acc, table.schema());
//! let report = client.verify(signer.verifier().as_ref(), &query, &resp).unwrap();
//! assert_eq!(report.rows, 21);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chunks;
pub mod durable;
pub mod frame;
pub mod meter;
pub mod node;
pub mod restore;
pub mod scheme;
pub mod source;
pub mod tree;
pub mod tree_codec;
pub mod verify;
pub mod vo;
pub mod wire;

pub use chunks::{StoreRestorer, SyncError, TreeChunks, DEFAULT_LEAVES_PER_CHUNK};
pub use durable::{
    decode_wal_record, encode_wal_commit, encode_wal_commit_into, encode_wal_heartbeat,
    DurableScheme, WalRecord,
};
pub use frame::{ErrorCode, Frame, FrameBuffer, FrameKind, NetMsg, MAX_FRAME_LEN};
pub use meter::CostMeter;
pub use restore::Restorer;
pub use scheme::{
    AuthScheme, Commit, DeltaBatch, TamperMode, TxnBatch, UpdateOp, VbScheme, VbSchemeError,
    VerifiedBatch,
};
pub use source::{Capture, DigestSource, ReplaySource, SigningSource};
pub use tree::{
    default_build_threads, VbTree, VbTreeConfig, VbTreeStats, PARALLEL_BUILD_THRESHOLD,
};
pub use tree_codec::{decode_tree, encode_tree};
pub use verify::{
    check_freshness, ClientVerifier, FreshnessPolicy, FreshnessStamp, ResponseFreshness,
    VerifyError, VerifyReport, MAX_VO_STACK,
};
pub use vo::{
    execute, execute_compact, execute_multi_compact, CompactPart, CompactResponse, QueryResponse,
    RangeQuery, ResultRow, VerificationObject, VoOp,
};
pub use wire::{
    commit_from_msg, commit_to_msg, compact_response_bytes, decode_compact_response,
    decode_delta_batch, decode_response, decode_txn_batch, encode_compact_prefix,
    encode_compact_response, encode_delta_batch, encode_response, encode_txn_batch,
    measure_compact, measure_response, CompactStream, ResponseSize, StreamOp, StreamPartHeader,
};

/// Errors from tree operations and the wire format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoreError {
    /// Underlying storage error (schema mismatch etc.).
    Storage(vbx_storage::StorageError),
    /// Insert with a key that already exists.
    DuplicateKey(u64),
    /// Delete/lookup of a missing key.
    KeyNotFound(u64),
    /// An internal invariant failed (only reachable through bugs or
    /// external corruption — surfaced by `check_integrity`).
    InvariantViolation(String),
    /// Malformed wire data.
    Wire(String),
    /// An update delta did not match the replica's recomputed digests —
    /// the replica has diverged or the delta was forged.
    ReplicaDivergence(String),
}

impl core::fmt::Display for CoreError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CoreError::Storage(e) => write!(f, "storage: {e}"),
            CoreError::DuplicateKey(k) => write!(f, "duplicate key {k}"),
            CoreError::KeyNotFound(k) => write!(f, "key {k} not found"),
            CoreError::InvariantViolation(m) => write!(f, "invariant violation: {m}"),
            CoreError::Wire(m) => write!(f, "wire format: {m}"),
            CoreError::ReplicaDivergence(m) => write!(f, "replica divergence: {m}"),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Storage(e) => Some(e),
            _ => None,
        }
    }
}
