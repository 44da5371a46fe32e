//! # vbx-baselines — comparison schemes
//!
//! Two baselines the paper positions the VB-tree against:
//!
//! * [`naive`] — the **Naive strategy** of the paper's Appendix: every
//!   tuple and attribute carries its own signed digest, and the edge
//!   server ships one signed tuple digest per result row plus signed
//!   digests for all filtered attributes. Communication and computation
//!   grow with per-row signature work — equations (A.1)/(A.2), plotted
//!   against the VB-tree in Figures 10–13.
//! * [`merkle`] — a **Merkle hash tree** in the style of Devanbu et al.
//!   \[5\] (and the paper's own Figure 1): a binary hash tree over the
//!   sorted table with a single signed root. Its VOs reach the root, so
//!   they grow with `log N_R` — the overhead the VB-tree's per-node
//!   signatures eliminate — but, unlike the VB-tree, its range proofs
//!   demonstrate completeness at the price of exposing boundary tuples
//!   (the access-control drawback discussed in Section 2).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod merkle;
pub mod naive;
pub mod schemes;

pub use merkle::{
    proof_ops, verify_merkle_ops, MerkleAuthStore, MerkleError, MerkleOp, MerkleOpsReport,
    MerkleResponse,
};
pub use naive::{NaiveAuthStore, NaiveError, NaiveResponse, NaiveRow};
pub use schemes::{MerkleScheme, MerkleVo, NaiveScheme};

/// Wire cost of the freshness metadata an edge attaches to a response.
/// Delegates to the one layout definition in `vbx_core::wire`, so both
/// baselines' wire accounting matches the VB-tree response encoding's
/// freshness section byte for byte.
pub fn freshness_wire_bytes(freshness: &vbx_core::ResponseFreshness) -> usize {
    vbx_core::wire::freshness_wire_bytes(freshness)
}
