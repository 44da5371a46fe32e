//! Multi-edge cluster: sharded delta fan-out with freshness-verified
//! reads.
//!
//! The paper's deployment model is one trusted owner streaming signed
//! deltas to *many* unsecured edge servers. [`ClusterCoordinator`] is
//! that topology in-process:
//!
//! * a [`ShardMap`] partitions tables across N [`EdgeServer`] replicas
//!   (least-loaded assignment at `create_table` time);
//! * every committed update lands in the central server's bounded
//!   [`DeltaLog`](crate::central::DeltaLog) and is **fanned out over
//!   per-edge subscription queues** — the owning edge gets the signed
//!   delta itself, every other edge gets a cheap sequence placeholder so
//!   its replication position stays contiguous (fan-out is O(new
//!   deltas), not O(edges × history));
//! * client queries are **routed to the owning edge**
//!   ([`query`](ClusterCoordinator::query)), with
//!   [`scatter_gather`](ClusterCoordinator::scatter_gather) fanning the
//!   legs of a multi-table query (e.g. both sides of a client-joined
//!   equijoin) across shards;
//! * per-edge applied-seq lag is tracked
//!   ([`lag_report`](ClusterCoordinator::lag_report)), and each edge
//!   republishes the owner's newest signed
//!   [`FreshnessStamp`](vbx_core::FreshnessStamp) with its responses,
//!   so a client holding the owner position can reject an
//!   honest-but-stale edge (`VerifyError::Stale`) — the lazy-trust gap
//!   WedgeChain formalises for edge-cloud stores.
//!
//! Draining an edge's queue is deliberately explicit
//! ([`drain_edge`](ClusterCoordinator::drain_edge) /
//! [`sync`](ClusterCoordinator::sync)): tests and benchmarks induce a
//! lagging replica simply by not draining it.

use crate::central::{CentralError, CentralServer, DeltaLogError, Txn};
use crate::edge_server::EdgeServer;
use crate::service::EdgeError;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use vbx_core::scheme::{AuthScheme, Commit, DeltaBatch, TxnBatch, UpdateOp};
use vbx_core::RangeQuery;
use vbx_storage::{Table, Tuple};

/// Cluster topology parameters.
#[derive(Clone, Copy, Debug)]
pub struct ClusterConfig {
    /// Number of edge replicas.
    pub edges: usize,
    /// Delta-log retention window at the central server (a subscriber
    /// further behind must re-bundle).
    pub retention: usize,
    /// Bound on one edge's subscription queue. A subscriber whose
    /// queue would exceed this is **disconnected** — its buffered items
    /// are dropped and it must
    /// [`resubscribe_edge`](ClusterCoordinator::resubscribe_edge) —
    /// instead of growing an unbounded `VecDeque`.
    pub max_queue: usize,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        Self {
            edges: 3,
            retention: 4_096,
            max_queue: 4_096,
        }
    }
}

/// Table → owning-edge assignment: least-loaded at creation, mutable
/// afterwards ([`reassign`](Self::reassign) /
/// [`promote_replica`](Self::promote_replica) /
/// [`remove_table`](Self::remove_table) for failover and resharding).
/// Every mutation bumps a monotone [`version`](Self::version) so
/// routers holding a copy can detect a stale view.
#[derive(Clone, Debug)]
pub struct ShardMap {
    owners: BTreeMap<String, usize>,
    load: Vec<usize>,
    version: u64,
}

impl ShardMap {
    /// An empty map over `num_edges` edges.
    ///
    /// # Panics
    ///
    /// Panics when `num_edges` is zero — a shard map with no edges can
    /// never hold an assignment, and silently clamping to one edge
    /// would hand every table to a replica the caller never stood up.
    pub fn new(num_edges: usize) -> Self {
        assert!(
            num_edges > 0,
            "ShardMap::new: a shard map needs at least one edge, got 0"
        );
        Self {
            owners: BTreeMap::new(),
            load: vec![0; num_edges],
            version: 0,
        }
    }

    /// Assign `table` to the least-loaded edge (lowest id on ties) and
    /// return it. Re-assigning an existing table returns its current
    /// owner unchanged.
    pub fn assign(&mut self, table: &str) -> usize {
        if let Some(&owner) = self.owners.get(table) {
            return owner;
        }
        let owner = (0..self.load.len())
            .min_by_key(|&i| (self.load[i], i))
            .expect("at least one edge");
        self.owners.insert(table.to_string(), owner);
        self.load[owner] += 1;
        self.version += 1;
        owner
    }

    /// The edge owning `table`, if assigned.
    pub fn owner(&self, table: &str) -> Option<usize> {
        self.owners.get(table).copied()
    }

    /// Tables owned by `edge`, in name order.
    pub fn tables_of(&self, edge: usize) -> Vec<&str> {
        self.owners
            .iter()
            .filter(|(_, &o)| o == edge)
            .map(|(t, _)| t.as_str())
            .collect()
    }

    /// Monotone mutation counter: bumped by every
    /// [`assign`](Self::assign), [`reassign`](Self::reassign),
    /// [`promote_replica`](Self::promote_replica) and
    /// [`remove_table`](Self::remove_table) that changed an
    /// assignment.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Move `table` to `new_owner`, adjusting both edges' load counts.
    /// Returns the previous owner; `None` when the table is unassigned
    /// or `new_owner` is out of range (the map is left unchanged).
    pub fn reassign(&mut self, table: &str, new_owner: usize) -> Option<usize> {
        if new_owner >= self.load.len() {
            return None;
        }
        let owner = self.owners.get_mut(table)?;
        let old = *owner;
        if old == new_owner {
            return Some(old);
        }
        *owner = new_owner;
        self.load[old] -= 1;
        self.load[new_owner] += 1;
        self.version += 1;
        Some(old)
    }

    /// Move every table owned by `dead` to `standby` (edge failover).
    /// Returns the moved table names in name order; empty when the ids
    /// are invalid, equal, or `dead` owned nothing.
    pub fn promote_replica(&mut self, dead: usize, standby: usize) -> Vec<String> {
        let mut moved = Vec::new();
        if dead == standby || dead >= self.load.len() || standby >= self.load.len() {
            return moved;
        }
        for (table, owner) in self.owners.iter_mut() {
            if *owner == dead {
                *owner = standby;
                moved.push(table.clone());
            }
        }
        if !moved.is_empty() {
            self.load[dead] -= moved.len();
            self.load[standby] += moved.len();
            self.version += 1;
        }
        moved
    }

    /// Drop `table`'s assignment (e.g. after the table was dropped
    /// from the central), shrinking its owner's load count.
    /// Returns the former owner.
    pub fn remove_table(&mut self, table: &str) -> Option<usize> {
        let owner = self.owners.remove(table)?;
        self.load[owner] -= 1;
        self.version += 1;
        Some(owner)
    }

    /// Number of edges in the map.
    pub fn num_edges(&self) -> usize {
        self.load.len()
    }

    /// Number of assigned tables.
    pub fn num_tables(&self) -> usize {
        self.owners.len()
    }
}

/// Cluster-level failures, parameterised by the scheme's error type.
#[derive(Debug)]
pub enum ClusterError<E> {
    /// The table is not assigned to any edge.
    UnknownTable(String),
    /// No edge with that id.
    UnknownEdge(usize),
    /// Central-server failure.
    Central(CentralError<E>),
    /// Edge-replica failure (replay divergence, out-of-order delta).
    Edge(EdgeError<E>),
    /// A subscription cursor fell out of the delta log's retention
    /// window; the edge must be re-provisioned from a fresh bundle.
    Truncated(DeltaLogError),
    /// The edge's subscription queue hit its bound and the subscriber
    /// was disconnected (its buffered items dropped). Re-provision it
    /// with [`ClusterCoordinator::resubscribe_edge`].
    Disconnected {
        /// The slow edge.
        edge: usize,
        /// Queue items buffered when the bound tripped.
        queued: usize,
        /// The configured bound ([`ClusterConfig::max_queue`]).
        bound: usize,
    },
    /// Verified state sync rejected a chunk stream while
    /// (re)provisioning an edge: the bytes did not authenticate against
    /// the central's signed root digest. The unverified replica is
    /// **not** installed.
    Sync(vbx_core::SyncError),
    /// A recovered central's head is *behind* an edge's subscription
    /// cursor: a commit that was acked and fanned out is missing from
    /// the recovered history. This is data loss — refusing the adoption
    /// beats silently forking the edges from the owner.
    RolledBack {
        /// Edge whose cursor is ahead of the recovered head.
        edge: usize,
        /// That edge's subscription cursor.
        cursor: u64,
        /// The recovered central's head (`next_seq`).
        head: u64,
    },
}

impl<E: core::fmt::Display> core::fmt::Display for ClusterError<E> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ClusterError::UnknownTable(t) => write!(f, "table {t} not sharded to any edge"),
            ClusterError::UnknownEdge(i) => write!(f, "no edge {i}"),
            ClusterError::Central(e) => write!(f, "central: {e}"),
            ClusterError::Edge(e) => write!(f, "edge: {e}"),
            ClusterError::Truncated(e) => write!(f, "subscription lost: {e}"),
            ClusterError::Sync(e) => write!(f, "verified sync rejected: {e}"),
            ClusterError::Disconnected {
                edge,
                queued,
                bound,
            } => write!(
                f,
                "edge {edge} disconnected: subscription queue hit {queued}/{bound}; resubscribe"
            ),
            ClusterError::RolledBack { edge, cursor, head } => write!(
                f,
                "recovered central head {head} is behind edge {edge}'s cursor {cursor}: acked commits were lost"
            ),
        }
    }
}

impl<E: std::error::Error> std::error::Error for ClusterError<E> {}

impl<E> From<CentralError<E>> for ClusterError<E> {
    fn from(e: CentralError<E>) -> Self {
        ClusterError::Central(e)
    }
}

impl<E> From<EdgeError<E>> for ClusterError<E> {
    fn from(e: EdgeError<E>) -> Self {
        ClusterError::Edge(e)
    }
}

impl<E> From<vbx_core::SyncError> for ClusterError<E> {
    fn from(e: vbx_core::SyncError) -> Self {
        ClusterError::Sync(e)
    }
}

/// One entry of an edge's subscription queue: the commit's shared
/// handle when the edge owns any of its tables, a bare sequence-range
/// placeholder otherwise (so the edge's position advances without
/// cloning foreign deltas — a foreign commit of `k` ops is one
/// placeholder, not `k`).
#[derive(Clone, Debug)]
enum QueueItem<P> {
    Apply(Commit<P>),
    Skip { start_seq: u64, count: u64 },
}

/// One edge replica plus its subscription state.
struct EdgeSlot<S: AuthScheme>
where
    S::Store: Clone,
{
    server: EdgeServer<S>,
    queue: VecDeque<QueueItem<S::Delta>>,
    /// Next global sequence number to pull from the central log.
    cursor: u64,
    /// Set when the queue bound tripped: fan-out stops buffering for
    /// this edge until it resubscribes.
    disconnected: bool,
}

/// Per-edge replication lag snapshot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EdgeLag {
    /// Edge id.
    pub edge: usize,
    /// Deltas the edge has consumed (applied or skipped).
    pub applied_seq: u64,
    /// Items sitting in its subscription queue.
    pub queued: usize,
    /// Deltas behind the owner's head (`owner_seq - applied_seq`).
    pub lag: u64,
    /// Whether the bounded subscription queue tripped and the edge was
    /// dropped from fan-out (it must resubscribe).
    pub disconnected: bool,
}

/// A response plus where it came from.
#[derive(Clone, Debug)]
pub struct RoutedResponse<R> {
    /// Edge that served the query.
    pub edge: usize,
    /// Table queried.
    pub table: String,
    /// The scheme response (rows + VO + freshness).
    pub response: R,
}

/// The cluster control plane: one trusted [`CentralServer`] plus N
/// sharded [`EdgeServer`] replicas (see module docs).
pub struct ClusterCoordinator<S: AuthScheme>
where
    S::Store: Clone,
{
    central: CentralServer<S>,
    edges: Vec<EdgeSlot<S>>,
    shard_map: ShardMap,
    max_queue: usize,
}

impl<S: AuthScheme + Clone> ClusterCoordinator<S>
where
    S::Store: Clone,
{
    /// Stand up a cluster: a central server with a bounded delta log
    /// and `config.edges` empty edge replicas subscribed from sequence
    /// zero.
    pub fn new(
        scheme: S,
        signer: std::sync::Arc<dyn vbx_crypto::Signer>,
        config: ClusterConfig,
    ) -> Self {
        let central = CentralServer::with_scheme(scheme.clone(), signer)
            .with_delta_retention(config.retention);
        let edges = (0..config.edges.max(1))
            .map(|_| EdgeSlot {
                server: EdgeServer::with_seq(scheme.clone(), 0),
                queue: VecDeque::new(),
                cursor: 0,
                disconnected: false,
            })
            .collect();
        Self {
            central,
            edges,
            shard_map: ShardMap::new(config.edges.max(1)),
            max_queue: config.max_queue.max(1),
        }
    }

    /// Stand up a cluster around an existing (e.g. crash-recovered)
    /// central server: every base table is re-sharded across
    /// `num_edges` fresh replicas provisioned from the central's
    /// current stores, and every subscription starts at the central's
    /// head. This is the full re-bundle path — compare
    /// [`adopt_central`](Self::adopt_central), which keeps the existing
    /// edges and their cursors.
    pub fn from_central(central: CentralServer<S>, num_edges: usize) -> Self {
        let scheme = central.scheme().clone();
        let head = central.delta_log().next_seq();
        let verifier = central.verifier();
        let mut shard_map = ShardMap::new(num_edges.max(1));
        let mut edges: Vec<EdgeSlot<S>> = (0..num_edges.max(1))
            .map(|_| EdgeSlot {
                server: EdgeServer::with_seq(scheme.clone(), head),
                queue: VecDeque::new(),
                cursor: head,
                disconnected: false,
            })
            .collect();
        for (name, source) in central.base_tables() {
            let owner = shard_map.assign(name);
            // Edges never install state they have not verified — even
            // from a (crash-recovered) central in the same process, the
            // replica is rebuilt through the chunk-and-verify pipeline.
            let store = crate::sync::clone_verified(&scheme, source, verifier.clone())
                .expect("central's own store must restore cleanly");
            edges[owner]
                .server
                .install_table(name.clone(), scheme.schema(source).clone(), store);
        }
        Self {
            central,
            edges,
            shard_map,
            max_queue: ClusterConfig::default().max_queue,
        }
    }

    /// Swap in a recovered central server while keeping the edges and
    /// their subscription cursors (the fast resubscription path after a
    /// central crash). Refuses the adoption when an edge's cursor is
    /// *ahead* of the recovered head ([`ClusterError::RolledBack`] —
    /// an acked, fanned-out commit is missing from the recovered
    /// history) or *behind* its retention window
    /// ([`ClusterError::Truncated`] — that edge must re-bundle via
    /// [`from_central`](Self::from_central) instead). On success the
    /// next [`fan_out`](Self::fan_out) resumes each subscription
    /// exactly at its cursor: no gaps, no duplicate sequence numbers.
    pub fn adopt_central(
        &mut self,
        central: CentralServer<S>,
    ) -> Result<(), ClusterError<S::Error>> {
        let head = central.delta_log().next_seq();
        let oldest = central.delta_log().oldest_seq();
        for (id, slot) in self.edges.iter().enumerate() {
            if slot.cursor > head {
                return Err(ClusterError::RolledBack {
                    edge: id,
                    cursor: slot.cursor,
                    head,
                });
            }
            if slot.cursor < oldest {
                return Err(ClusterError::Truncated(DeltaLogError::Truncated {
                    requested: slot.cursor,
                    oldest,
                }));
            }
        }
        self.central = central;
        Ok(())
    }

    /// The trusted side (key registry, owner position, delta log).
    pub fn central(&self) -> &CentralServer<S> {
        &self.central
    }

    /// Mutable access to the trusted side (heartbeats, key rotation).
    pub fn central_mut(&mut self) -> &mut CentralServer<S> {
        &mut self.central
    }

    /// The table → edge assignment.
    pub fn shard_map(&self) -> &ShardMap {
        &self.shard_map
    }

    /// Number of edge replicas.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// A specific edge server.
    pub fn edge(&self, id: usize) -> Option<&EdgeServer<S>> {
        self.edges.get(id).map(|s| &s.server)
    }

    /// Mutable edge access (tests place edges into tamper modes).
    pub fn edge_mut(&mut self, id: usize) -> Option<&mut EdgeServer<S>> {
        self.edges.get_mut(id).map(|s| &mut s.server)
    }

    /// The owner position `(seq, clock)` clients verify freshness
    /// against.
    pub fn owner_position(&self) -> (u64, u64) {
        self.central.owner_position()
    }

    /// Create a base table: build + sign at the central server, assign
    /// it to the least-loaded edge, and install the replica there.
    /// Returns the owning edge id.
    pub fn create_table(&mut self, table: Table) -> usize {
        let name = table.schema().table.clone();
        let schema = table.schema().clone();
        self.central.create_table(table);
        let owner = self.shard_map.assign(&name);
        let store = self
            .central
            .store(&name)
            .expect("store exists right after create_table")
            .clone();
        self.edges[owner].server.install_table(name, schema, store);
        owner
    }

    /// Insert at the owner — a batch of one; the commit is fanned out
    /// to the subscription queues (not yet applied — see
    /// [`drain_edge`](Self::drain_edge)).
    pub fn insert(
        &mut self,
        table: &str,
        tuple: Tuple,
    ) -> Result<Arc<DeltaBatch<S::Delta>>, ClusterError<S::Error>> {
        self.update_batch(table, vec![UpdateOp::Insert(tuple)])
    }

    /// Delete at the owner and fan out.
    pub fn delete(
        &mut self,
        table: &str,
        key: u64,
    ) -> Result<Arc<DeltaBatch<S::Delta>>, ClusterError<S::Error>> {
        self.update_batch(table, vec![UpdateOp::Delete(key)])
    }

    /// Range-delete at the owner and fan out.
    pub fn delete_range(
        &mut self,
        table: &str,
        lo: u64,
        hi: u64,
    ) -> Result<Arc<DeltaBatch<S::Delta>>, ClusterError<S::Error>> {
        self.update_batch(table, vec![UpdateOp::DeleteRange(lo, hi)])
    }

    /// Group-commit a whole batch of updates at the owner (one
    /// signature sweep, one stamp — see
    /// [`CentralServer::execute_update_batch`]) and fan the single
    /// batch envelope out: the owning edge's queue gets one shared
    /// `Arc`, every other edge one range placeholder — **one fan-out
    /// message for `k` ops** instead of `k`.
    pub fn update_batch(
        &mut self,
        table: &str,
        ops: Vec<UpdateOp>,
    ) -> Result<Arc<DeltaBatch<S::Delta>>, ClusterError<S::Error>> {
        let batch = self.central.execute_update_batch(table, ops)?;
        self.fan_out()?;
        Ok(batch)
    }

    /// Move every new log entry into the per-edge subscription queues:
    /// an owning edge's queue gets the commit (one shared `Arc` — **one
    /// fan-out message for `k` ops**), all the others one sequence-range
    /// placeholder per entry. Returns the number of queue items added.
    ///
    /// Queues are **bounded** by [`ClusterConfig::max_queue`]: an edge
    /// whose queue would overflow is disconnected (buffered items
    /// dropped, no further buffering) instead of growing without limit;
    /// its next [`drain_edge`](Self::drain_edge) reports
    /// [`ClusterError::Disconnected`] and it must
    /// [`resubscribe_edge`](Self::resubscribe_edge). Fan-out itself
    /// keeps going — one slow subscriber never blocks the write path or
    /// the healthy edges.
    pub fn fan_out(&mut self) -> Result<usize, ClusterError<S::Error>> {
        let mut moved = 0usize;
        for (id, slot) in self.edges.iter_mut().enumerate() {
            if slot.disconnected {
                continue;
            }
            let entries = self
                .central
                .delta_log()
                .since(slot.cursor)
                .map_err(ClusterError::Truncated)?;
            for entry in entries {
                debug_assert_eq!(
                    entry.start_seq(),
                    slot.cursor,
                    "subscription stays contiguous"
                );
                if slot.queue.len() >= self.max_queue {
                    // The bounded send queue: drop the whole backlog and
                    // mark the subscriber gone rather than buffer
                    // without limit for a consumer that is not keeping
                    // up.
                    slot.queue.clear();
                    slot.disconnected = true;
                    break;
                }
                // A txn entry is owned by every edge that owns *any* of
                // its tables — each such edge receives the whole atom
                // (applied all-or-none), never a per-table slice.
                let owned = entry.tables().any(|t| self.shard_map.owner(t) == Some(id));
                let item = if owned {
                    QueueItem::Apply(entry.clone())
                } else {
                    QueueItem::Skip {
                        start_seq: entry.start_seq(),
                        count: entry.ops(),
                    }
                };
                slot.queue.push_back(item);
                slot.cursor = entry.end_seq();
                moved += 1;
            }
        }
        Ok(moved)
    }

    /// Apply up to `max` queued subscription items on one edge
    /// (replaying owned deltas, skipping foreign placeholders), then
    /// refresh the edge's owner stamp if the central server still
    /// retains an attestation for its exact position. Returns the
    /// number of items consumed.
    pub fn drain_edge(&mut self, edge: usize, max: usize) -> Result<usize, ClusterError<S::Error>> {
        let slot = self
            .edges
            .get_mut(edge)
            .ok_or(ClusterError::UnknownEdge(edge))?;
        if slot.disconnected {
            return Err(ClusterError::Disconnected {
                edge,
                queued: slot.queue.len(),
                bound: self.max_queue,
            });
        }
        let mut consumed = 0usize;
        while consumed < max {
            let Some(item) = slot.queue.pop_front() else {
                break;
            };
            match item {
                QueueItem::Apply(commit) => slot.server.apply_commit(&commit)?,
                QueueItem::Skip { start_seq, count } => {
                    slot.server.service().skip_deltas(start_seq, count)?
                }
            }
            consumed += 1;
        }
        // Only an attestation for the edge's *exact* position may be
        // installed: handing a lagging edge a newer stamp would let it
        // masquerade as fresh.
        let pos = slot.server.applied_seq();
        if let Some(stamp) = self.central.stamp_for_seq(pos) {
            slot.server.service().set_freshness_stamp(stamp);
        }
        Ok(consumed)
    }

    /// Reconnect a disconnected edge by re-provisioning it from the
    /// central's *current* state instead of replaying the dropped
    /// backlog: every owned store is rebuilt through the **verified
    /// chunk-sync pipeline** (each chunk authenticated against the
    /// signed root digest before anything is installed — never a
    /// trusting clone), the cursor and applied position are
    /// fast-forwarded to the owner's head, and the head's attestation
    /// is installed if the central retains one. Also works on a healthy
    /// edge (it simply snaps to the head).
    ///
    /// A table the shard map still assigns to this edge but that was
    /// since dropped from the central is not an error: the
    /// stale assignment is removed (shrinking this edge's load count)
    /// and the resubscribe continues.
    pub fn resubscribe_edge(&mut self, edge: usize) -> Result<(), ClusterError<S::Error>> {
        if edge >= self.edges.len() {
            return Err(ClusterError::UnknownEdge(edge));
        }
        let head = self.central.delta_log().next_seq();
        let verifier = self.central.verifier();
        // Replace the replica wholesale: its old stores may be
        // arbitrarily far behind the dropped backlog.
        let mut server = EdgeServer::with_seq(self.central.scheme().clone(), head);
        let tables: Vec<String> = self
            .shard_map
            .tables_of(edge)
            .into_iter()
            .map(str::to_string)
            .collect();
        for table in tables {
            let Some(schema) = self.central.schema(&table).cloned() else {
                self.shard_map.remove_table(&table);
                continue;
            };
            let source = self
                .central
                .store(&table)
                .expect("a base table has a store");
            let store =
                crate::sync::clone_verified(self.central.scheme(), source, verifier.clone())?;
            server.install_table(table, schema, store);
        }
        if let Some(stamp) = self.central.stamp_for_seq(head) {
            server.service().set_freshness_stamp(stamp);
        }
        let slot = &mut self.edges[edge];
        slot.server = server;
        slot.queue.clear();
        slot.cursor = head;
        slot.disconnected = false;
        Ok(())
    }

    /// Take `edge` out of the serving set: drop its buffered
    /// subscription queue and stop fanning out to it. The slot stays
    /// (edge ids remain stable) and a later
    /// [`resubscribe_edge`](Self::resubscribe_edge) revives it; its
    /// tables keep routing to it until
    /// [`promote_replica`](Self::promote_replica) moves them.
    pub fn mark_edge_dead(&mut self, edge: usize) -> Result<(), ClusterError<S::Error>> {
        let slot = self
            .edges
            .get_mut(edge)
            .ok_or(ClusterError::UnknownEdge(edge))?;
        slot.queue.clear();
        slot.disconnected = true;
        Ok(())
    }

    /// Fail over from `dead` to `standby`: mark the dead edge gone,
    /// bring the standby current (a warm standby drains its queue to
    /// the head; one that was itself disconnected is fully
    /// re-provisioned), move the dead edge's tables to it in the shard
    /// map (bumping the map's version so routers see the change), and
    /// **chunk-restore each moved table through the verifying
    /// restorer** — the standby never installs bytes it has not
    /// authenticated against the central's signed root digests.
    /// Queries route to the standby from the moment this returns.
    /// Returns the moved table names.
    pub fn promote_replica(
        &mut self,
        dead: usize,
        standby: usize,
    ) -> Result<Vec<String>, ClusterError<S::Error>> {
        if dead >= self.edges.len() {
            return Err(ClusterError::UnknownEdge(dead));
        }
        if standby >= self.edges.len() || standby == dead {
            return Err(ClusterError::UnknownEdge(standby));
        }
        self.mark_edge_dead(dead)?;
        if self.edges[standby].disconnected {
            // The standby lost its own subscription at some point: move
            // the assignments first, then rebuild the whole replica
            // through the verified resubscribe path.
            let moved = self.shard_map.promote_replica(dead, standby);
            self.resubscribe_edge(standby)?;
            return Ok(moved);
        }
        // Warm standby: catch its replica up to the head first, so its
        // applied position agrees with the restored trees (which are
        // snapshots of the central's state at the head).
        self.fan_out()?;
        self.drain_edge(standby, usize::MAX)?;
        let moved = self.shard_map.promote_replica(dead, standby);
        let verifier = self.central.verifier();
        for table in &moved {
            let Some(schema) = self.central.schema(table).cloned() else {
                self.shard_map.remove_table(table);
                continue;
            };
            let source = self.central.store(table).expect("a base table has a store");
            let store =
                crate::sync::clone_verified(self.central.scheme(), source, verifier.clone())?;
            self.edges[standby]
                .server
                .install_table(table.clone(), schema, store);
        }
        let pos = self.edges[standby].server.applied_seq();
        if let Some(stamp) = self.central.stamp_for_seq(pos) {
            self.edges[standby]
                .server
                .service()
                .set_freshness_stamp(stamp);
        }
        Ok(moved)
    }

    /// Fan out and fully drain every healthy edge (the steady state
    /// between induced-lag experiments); disconnected edges are left
    /// alone until they [`resubscribe_edge`](Self::resubscribe_edge).
    /// Returns total items consumed.
    pub fn sync(&mut self) -> Result<usize, ClusterError<S::Error>> {
        self.fan_out()?;
        let mut consumed = 0;
        for id in 0..self.edges.len() {
            if self.edges[id].disconnected {
                continue;
            }
            consumed += self.drain_edge(id, usize::MAX)?;
        }
        Ok(consumed)
    }

    /// Owner liveness heartbeat: advance the logical clock, re-sign the
    /// current position, and deliver the stamp to every edge that is
    /// exactly caught up (a lagging or partitioned edge keeps its aging
    /// stamp and trips `FreshnessPolicy::max_age`).
    ///
    /// Committed entries not yet fanned out reach the subscription
    /// queues before the stamp is offered — an edge with queued work
    /// keeps its old stamp until it drains.
    pub fn broadcast_heartbeat(&mut self) -> Result<(), ClusterError<S::Error>> {
        let stamp = self.central.heartbeat();
        self.fan_out()?;
        for slot in &mut self.edges {
            if slot.server.applied_seq() == stamp.seq && slot.queue.is_empty() {
                slot.server.service().set_freshness_stamp(stamp.clone());
            }
        }
        Ok(())
    }

    /// Start staging an atomic multi-table transaction (see
    /// [`CentralServer::begin_txn`]).
    pub fn begin_txn(&self) -> Txn {
        self.central.begin_txn()
    }

    /// Commit a staged multi-table transaction at the owner — one union
    /// lock scope, every per-table signing sweep, **one** checksummed
    /// WAL record — and fan the single txn envelope out:
    /// every edge owning any touched table receives the whole atom (one
    /// shared `Arc`, applied all-or-none), every other edge one range
    /// placeholder. A scatter-gather read across the txn's tables never
    /// observes one table at `end_seq` with another still behind.
    pub fn commit_txn(
        &mut self,
        txn: Txn,
    ) -> Result<Arc<TxnBatch<S::Delta>>, ClusterError<S::Error>> {
        let committed = self.central.commit_txn(txn)?;
        self.fan_out()?;
        Ok(committed)
    }

    /// The edge owning `table`.
    pub fn route(&self, table: &str) -> Result<usize, ClusterError<S::Error>> {
        self.shard_map
            .owner(table)
            .ok_or_else(|| ClusterError::UnknownTable(table.to_string()))
    }

    /// Serve a range query from the owning edge (the response carries
    /// that edge's freshness stamp).
    pub fn query(
        &self,
        table: &str,
        query: &RangeQuery,
    ) -> Result<RoutedResponse<S::Response>, ClusterError<S::Error>> {
        let edge = self.route(table)?;
        let response = self.edges[edge].server.query_range(table, query)?;
        Ok(RoutedResponse {
            edge,
            table: table.to_string(),
            response,
        })
    }

    /// Scatter-gather: route each leg of a multi-table query (e.g. both
    /// sides of a client-joined equijoin) to its owning edge and gather
    /// the responses in input order. Each leg verifies independently
    /// against its own edge's freshness stamp.
    pub fn scatter_gather(
        &self,
        legs: &[(String, RangeQuery)],
    ) -> Result<Vec<RoutedResponse<S::Response>>, ClusterError<S::Error>> {
        legs.iter()
            .map(|(table, query)| self.query(table, query))
            .collect()
    }

    /// Per-edge replication lag against the owner's head.
    pub fn lag_report(&self) -> Vec<EdgeLag> {
        let head = self.central.delta_log().next_seq();
        self.edges
            .iter()
            .enumerate()
            .map(|(edge, slot)| {
                let applied_seq = slot.server.applied_seq();
                EdgeLag {
                    edge,
                    applied_seq,
                    queued: slot.queue.len(),
                    lag: head.saturating_sub(applied_seq),
                    disconnected: slot.disconnected,
                }
            })
            .collect()
    }
}
