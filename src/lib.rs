//! # vbx — Authenticating Query Results in Edge Computing
//!
//! A from-scratch Rust reproduction of Pang & Tan's ICDE 2004 paper: the
//! **Verifiable B-tree (VB-tree)**, verification objects for
//! selection/projection/join results produced by untrusted edge servers,
//! the Naive and Merkle baselines, the full edge-computing deployment
//! (central server, edge servers, clients, locking, update propagation,
//! key rotation), and the complete Section 4 cost model.
//!
//! This crate re-exports the workspace's public API. Start with
//! [`quickstart`](#quickstart) below, the `examples/` directory, or the
//! crate-level docs of the members:
//!
//! * [`vbx_core`] — the VB-tree, VOs, client verification
//! * [`vbx_crypto`] — hashes, the commutative accumulator, RSA
//! * [`vbx_storage`] — schemas, tuples, tables, WAL and checkpoints, synthetic workloads
//! * [`vbx_query`] — SQL subset, predicates, materialised join views
//! * [`vbx_edge`] — central/edge/client deployment and locking
//! * [`vbx_baselines`] — the Naive strategy and a Merkle hash tree
//! * [`vbx_analysis`] — the paper's analytical cost model
//! * [`vbx_mathx`] — multiprecision and modular arithmetic
//!
//! ## Quickstart
//!
//! ```
//! use vbx::prelude::*;
//! use std::sync::Arc;
//!
//! // Trusted central server: build the database and its VB-trees.
//! let acc = Acc256::test_default();
//! let signer = Arc::new(MockSigner::with_version(1, 1));
//! let mut central = CentralServer::new(acc.clone(), signer, VbTreeConfig::default());
//! central.create_table(WorkloadSpec::new(1_000, 4, 12).build());
//!
//! // Unsecured edge server: receives the replica, answers queries.
//! let edge = EdgeServer::from_bundle(central.bundle());
//! let sql = "SELECT a0, a3 FROM items WHERE id BETWEEN 100 AND 140";
//! let (_plan, response) = edge.query_sql(sql).unwrap();
//!
//! // Client: verifies with public material only.
//! let client = EdgeClient::new(edge.schemas(), acc);
//! let rows = client
//!     .verify(sql, &response, central.registry(), KeyFreshnessPolicy::RequireCurrent)
//!     .unwrap();
//! assert_eq!(rows.rows.len(), 41);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use vbx_analysis;
pub use vbx_baselines;
pub use vbx_core;
pub use vbx_crypto;
pub use vbx_edge;
pub use vbx_mathx;
pub use vbx_query;
pub use vbx_storage;

/// One-stop imports for applications and examples.
pub mod prelude {
    pub use vbx_analysis::Params;
    pub use vbx_baselines::{MerkleAuthStore, MerkleScheme, NaiveAuthStore, NaiveScheme};
    pub use vbx_core::{
        execute, AuthScheme, ClientVerifier, CostMeter, DeltaBatch, FreshnessPolicy,
        FreshnessStamp, QueryResponse, RangeQuery, ResponseFreshness, TamperMode, UpdateOp,
        VbScheme, VbTree, VbTreeConfig, VerifiedBatch, VerifyError,
    };
    pub use vbx_crypto::signer::{MockSigner, SigVerifier, Signer};
    pub use vbx_crypto::{rsa, Acc256, Accumulator, KeyRegistry};
    pub use vbx_edge::{
        CentralEndpoint, CentralServer, ClusterConfig, ClusterCoordinator, EdgeClient,
        EdgeEndpoint, EdgeServer, KeyFreshnessPolicy, LockManager, LockMode, LoopbackTransport,
        NetClient, NetServer, SchemeClient, ShardMap, TcpTransport, Transport,
    };
    pub use vbx_query::{parse_select, AuthQueryEngine, ClientSession, JoinViewDef};
    pub use vbx_storage::workload::WorkloadSpec;
    pub use vbx_storage::{ColumnDef, ColumnType, Schema, Table, Tuple, Value};
}
