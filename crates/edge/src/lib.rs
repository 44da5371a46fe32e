//! # vbx-edge — the edge-computing deployment (Figure 2)
//!
//! The three parties of the paper's system model, as in-process
//! components exchanging serialized messages:
//!
//! * [`central`] — the **trusted central DBMS**: owns the master
//!   database and the private key, builds and maintains VB-trees,
//!   executes update transactions under the Section 3.4 locking
//!   protocol, and propagates signed update deltas to edge servers;
//! * [`edge_server`] — **unsecured edge servers**: hold replicas of the
//!   tables and VB-trees, answer queries with VOs, and (for the tests)
//!   can be placed into *tampering* modes that simulate a compromised
//!   host;
//! * [`client`] — **trusted clients**: verify results with nothing but
//!   the public key registry and schema metadata, enforcing freshness
//!   against the key validity windows;
//! * [`locks`] — the digest-level shared/exclusive lock manager used by
//!   update transactions and queries' enveloping subtrees;
//! * [`snapshot`] / [`service`] — the **concurrent serving subsystem**:
//!   atomically swappable store snapshots per table, the Section 3.4
//!   lock protocol wired into both the query and the delta path, and a
//!   response/VO cache invalidated per table on delta apply;
//! * [`cluster`] — the **multi-edge cluster**: tables sharded across N
//!   edge replicas, signed deltas fanned out over per-edge subscription
//!   queues (bounded-retention [`DeltaLog`] cursors), queries routed to
//!   the owning edge, and freshness-verified reads — clients reject an
//!   honest-but-stale edge via owner-signed `(seq, clock)` stamps and
//!   `FreshnessPolicy { max_lag, max_age }`;
//! * [`net`] — the **networked deployment**: the same parties behind a
//!   `Transport`/`Listener`/`Conn` seam exchanging `VBX5` frames, with
//!   an in-process loopback transport (differential oracle) and a real
//!   `std::net` TCP transport serving many concurrent verified
//!   connections;
//! * [`durability`] — the central's **crash safety**: a checksummed
//!   write-ahead log appended and fsync'd before every commit ack (one
//!   record per group-commit batch), periodic + DDL-forced atomic
//!   checkpoints through the storage page layer, and
//!   `CentralServer::recover` — newest valid checkpoint + WAL-suffix
//!   replay to a byte-identical state whose `(seq, clock)` never
//!   rewinds below an issued stamp.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod central;
pub mod client;
pub mod cluster;
pub mod durability;
pub mod edge_server;
pub mod locks;
pub mod net;
pub mod service;
pub mod snapshot;
pub mod sync;

pub use central::{CentralError, CentralServer, DeltaLog, DeltaLogError, EdgeBundle, Txn};
pub use client::{ClientError, EdgeClient, KeyFreshnessPolicy, SchemeClient, SchemeClientError};
pub use cluster::{
    ClusterConfig, ClusterCoordinator, ClusterError, EdgeLag, RoutedResponse, ShardMap,
};
pub use durability::DurabilityConfig;
pub use edge_server::{EdgeServer, TamperMode};
pub use locks::{LockConflict, LockManager, LockMode, LockStats};
pub use net::{
    CentralEndpoint, Conn, ConnState, EdgeEndpoint, FrameEndpoint, Listener, LoopbackTransport,
    NetClient, NetError, NetServer, RetryPolicy, ServerStats, TcpTransport, Transport,
};
pub use service::{CacheStats, EdgeError, EdgeService, ResponseCache};
pub use snapshot::ServingReplica;
pub use sync::{clone_verified, restore_table, RestoredTable};
// Data-freshness verification surface (the cluster's client side).
pub use vbx_core::{FreshnessPolicy, FreshnessStamp, ResponseFreshness};
// The scheme layer the deployment is generic over (re-exported so edge
// users need only this crate).
pub use vbx_baselines::{MerkleScheme, NaiveScheme};
pub use vbx_core::scheme::{AuthScheme, Commit, DeltaBatch, TxnBatch, UpdateOp, VbScheme};
