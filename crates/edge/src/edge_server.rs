//! Unsecured edge servers, generic over the authentication scheme.
//!
//! An edge server holds replicas of authenticated stores (VB-trees,
//! Naive digest tables, Merkle trees), answers range queries — and, for
//! the VB-tree scheme, SQL — with verification objects attached, and
//! applies signed update deltas from the central server (it cannot sign
//! anything itself). Since PR 3 it is a façade over the concurrent
//! [`EdgeService`]: every table is a [`crate::snapshot::ServingReplica`]
//! (readers work on immutable snapshots and never block; deltas build
//! the successor store off to the side and swap it in under the
//! Section 3.4 digest locks), and repeated queries are answered from the
//! service's response/VO cache. For the test suite it can also be placed
//! into a [`TamperMode`] simulating a compromised host; the tampering
//! itself is delegated to [`AuthScheme::tamper`], so every attack runs
//! through the same pipeline for every scheme. Tampered responses are
//! produced from a fresh clone — the cache only ever holds honest
//! responses.

use crate::central::EdgeBundle;
use crate::service::EdgeService;
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::sync::Arc;
use vbx_core::scheme::{AuthScheme, Commit, DeltaBatch, TxnBatch, VbScheme, VbSchemeError};
use vbx_core::{
    compact_response_bytes, encode_compact_prefix, encode_compact_response, execute, QueryResponse,
    RangeQuery, VbTree,
};
use vbx_crypto::SigVerifier;
use vbx_query::{parse_select, plan_select, EngineError, JoinViewDef, PlannedQuery};
use vbx_storage::{Schema, Tuple};

pub use crate::service::EdgeError;
pub use vbx_core::scheme::TamperMode;
pub use vbx_query::engine::PlannedQuery as Plan;

/// An edge server instance: the concurrent serving engine plus the
/// view registry and the test-only tamper switch.
pub struct EdgeServer<S: AuthScheme>
where
    S::Store: Clone,
{
    service: EdgeService<S>,
    views: Vec<JoinViewDef>,
    tamper: RwLock<TamperMode>,
}

impl<S: AuthScheme> EdgeServer<S>
where
    S::Store: Clone,
{
    /// An empty edge server for a scheme (tables arrive via
    /// [`install_table`](Self::install_table) or, for the VB-tree, a
    /// distribution bundle).
    pub fn new(scheme: S) -> Self {
        Self::with_seq(scheme, 0)
    }

    /// An empty edge server whose replicas reflect deltas `< seq`
    /// (cluster provisioning against a central server that already
    /// committed updates).
    pub fn with_seq(scheme: S, seq: u64) -> Self {
        Self {
            service: EdgeService::with_seq(scheme, seq),
            views: Vec::new(),
            tamper: RwLock::new(TamperMode::None),
        }
    }

    /// The scheme descriptor.
    pub fn scheme(&self) -> &S {
        self.service.scheme()
    }

    /// The underlying concurrent serving engine (share it across
    /// threads; all of its methods take `&self`).
    pub fn service(&self) -> &EdgeService<S> {
        &self.service
    }

    /// Install (or replace) a table replica.
    pub fn install_table(&mut self, name: impl Into<String>, schema: Schema, store: S::Store) {
        self.service.install_table(name, schema, store);
    }

    /// Set the tamper mode (tests only — a real edge server is simply
    /// this code running on an untrusted host). Takes `&self` so a
    /// conformance script can flip a shared, already-serving edge into
    /// a compromised state mid-connection.
    pub fn set_tamper(&self, mode: TamperMode) {
        *self.tamper.write() = mode;
    }

    /// The currently configured tamper mode.
    pub fn tamper_mode(&self) -> TamperMode {
        self.tamper.read().clone()
    }

    /// Last applied delta sequence number.
    pub fn applied_seq(&self) -> u64 {
        self.service.applied_seq()
    }

    /// Schemas of everything replicated (public metadata clients also
    /// hold).
    pub fn schemas(&self) -> BTreeMap<String, Schema> {
        self.service.schemas()
    }

    /// Snapshot of a replica store (an `Arc` handle — the store is
    /// immutable; later deltas swap in successors without touching it).
    pub fn store(&self, name: &str) -> Option<Arc<S::Store>> {
        self.service.snapshot(name)
    }

    /// Answer a range query against a replica, applying the configured
    /// tamper mode — the one pipeline every scheme serves through.
    pub fn query_range(
        &self,
        table: &str,
        query: &RangeQuery,
    ) -> Result<S::Response, EdgeError<S::Error>> {
        let resp = self.service.query_range(table, query)?;
        let mut resp = (*resp).clone();
        let tamper = self.tamper_mode();
        if tamper != TamperMode::None {
            let store = self
                .service
                .snapshot(table)
                .ok_or_else(|| EdgeError::UnknownTable(table.into()))?;
            self.service
                .scheme()
                .tamper(&store, query, &mut resp, &tamper);
        }
        // Republish the edge's replication position (after tampering —
        // the stamp is owner-signed material the edge merely relays;
        // what a compromised host can and cannot gain from it is spelled
        // out in `vbx_core::verify::FreshnessStamp`'s threat model).
        S::stamp_freshness(&mut resp, &self.service.current_freshness());
        Ok(resp)
    }

    /// Apply one group-committed [`DeltaBatch`] (a single-op update is
    /// a batch of one), verifying order and (where the scheme can)
    /// replay consistency: one snapshot clone, `k` replays, one swap,
    /// one cache invalidation (see [`EdgeService::apply_delta_batch`]).
    /// Takes `&self`: a writer thread can advance the replicas while
    /// readers keep serving snapshots.
    pub fn apply_delta_batch(
        &self,
        batch: &DeltaBatch<S::Delta>,
    ) -> Result<(), EdgeError<S::Error>> {
        self.service.apply_delta_batch(batch)
    }

    /// Apply one atomic multi-table [`TxnBatch`] all-or-none (see
    /// [`EdgeService::apply_txn`]).
    pub fn apply_txn(&self, txn: &TxnBatch<S::Delta>) -> Result<(), EdgeError<S::Error>> {
        self.service.apply_txn(txn)
    }

    /// Apply one commit from the central's log (see
    /// [`EdgeService::apply_commit`]).
    pub fn apply_commit(&self, commit: &Commit<S::Delta>) -> Result<(), EdgeError<S::Error>> {
        self.service.apply_commit(commit)
    }
}

/// VB-tree specific surface: bundle distribution, view refreshes, and
/// the SQL front end.
impl<const L: usize> EdgeServer<VbScheme<L>> {
    /// Stand up an edge server from a distribution bundle, recovering
    /// the scheme's public parameters from the shipped trees. Each tree
    /// becomes a [`crate::snapshot::ServingReplica`] of the concurrent
    /// serving engine.
    ///
    /// # Panics
    /// Panics on an empty bundle (no trees to read the parameters
    /// from). To provision an edge *before* the first `create_table`,
    /// construct the replica set through
    /// [`from_bundle_with_scheme`](Self::from_bundle_with_scheme) with
    /// explicit scheme parameters — replicas then arrive later via
    /// [`install_table`](Self::install_table) or a fresh bundle.
    pub fn from_bundle(bundle: EdgeBundle<L>) -> Self {
        let scheme = {
            let tree =
                bundle.trees.values().next().expect(
                    "empty bundle carries no scheme parameters; use from_bundle_with_scheme",
                );
            VbScheme::new(tree.accumulator().clone(), tree.config().clone())
        };
        Self::from_bundle_with_scheme(scheme, bundle)
    }

    /// Stand up an edge server from explicit scheme parameters and a
    /// bundle, which may be empty (queries then fail gracefully with
    /// `UnknownTable` until replicas arrive).
    pub fn from_bundle_with_scheme(scheme: VbScheme<L>, bundle: EdgeBundle<L>) -> Self {
        let service = EdgeService::with_seq(scheme, bundle.as_of_seq);
        for (name, tree) in bundle.trees {
            let schema = tree.schema().clone();
            service.install_table(name, schema, tree);
        }
        Self {
            service,
            views: bundle.views,
            tamper: RwLock::new(TamperMode::None),
        }
    }

    /// Replica tree snapshot.
    pub fn tree(&self, name: &str) -> Option<Arc<VbTree<L>>> {
        self.service.snapshot(name)
    }

    /// Register a view tree (initial distribution and refreshes).
    pub fn install_view(&mut self, def: JoinViewDef, tree: VbTree<L>) {
        self.views.retain(|d| d.name != def.name);
        let schema = tree.schema().clone();
        self.service.install_table(def.name.clone(), schema, tree);
        self.views.push(def);
    }

    /// Refresh view replicas after base-table deltas (views are rebuilt
    /// wholesale at the central server because their rowids shift).
    /// Publishing a refreshed tree invalidates the view's cached
    /// responses.
    pub fn refresh_views(&mut self, trees: BTreeMap<String, VbTree<L>>) {
        for (name, tree) in trees {
            if self.views.iter().any(|d| d.name == name) {
                let schema = tree.schema().clone();
                self.service.install_table(name, schema, tree);
            }
        }
    }

    /// Answer a SQL query, applying the configured tamper mode to the
    /// response. Honest executions go through the service's response
    /// cache, keyed by the plan's range + projection + residual
    /// fingerprint.
    pub fn query_sql(&self, sql: &str) -> Result<(PlannedQuery, QueryResponse<L>), EngineError> {
        let stmt = parse_select(sql)?;
        let planned = plan_select(&stmt, &self.service.schemas())?;
        let resp = match &self.tamper_mode() {
            TamperMode::DropAndReclassify { key } => {
                // Re-execute with an additional "hide the victim"
                // predicate: its signed tuple digest lands in D_S,
                // producing a VO that still balances. Bypasses the cache
                // — only honest responses are cached.
                let tree = self
                    .service
                    .snapshot(&planned.target)
                    .ok_or_else(|| EngineError::UnknownTable(planned.target.clone()))?;
                let victim = *key;
                let residual = planned.residual.clone();
                let pred =
                    move |t: &Tuple| t.key != victim && residual.as_ref().is_none_or(|p| p.eval(t));
                execute(&tree, &planned.range_query, Some(&pred))
            }
            mode => {
                let residual = planned.residual.clone();
                let fp = planned.residual_fingerprint();
                let resp = self
                    .service
                    .serve(&planned.target, &planned.range_query, fp, |tree| {
                        type PredFn = Box<dyn Fn(&Tuple) -> bool>;
                        let pred_fn: Option<PredFn> =
                            residual.map(|p| Box::new(move |t: &Tuple| p.eval(t)) as PredFn);
                        execute(tree, &planned.range_query, pred_fn.as_deref())
                    })
                    .map_err(|e| match e {
                        EdgeError::UnknownTable(t) => EngineError::UnknownTable(t),
                        // `serve` can only fail on replica lookup.
                        EdgeError::OutOfOrder { .. } | EdgeError::Scheme(_) => {
                            unreachable!("serve fails only on unknown tables")
                        }
                    })?;
                let mut resp = (*resp).clone();
                if *mode != TamperMode::None {
                    let tree = self
                        .service
                        .snapshot(&planned.target)
                        .ok_or_else(|| EngineError::UnknownTable(planned.target.clone()))?;
                    self.service
                        .scheme()
                        .tamper(&tree, &planned.range_query, &mut resp, mode);
                }
                resp
            }
        };
        let mut resp = resp;
        VbScheme::<L>::stamp_freshness(&mut resp, &self.service.current_freshness());
        Ok((planned, resp))
    }

    /// Answer `k` ranges with one encoded compact (`VBX4`) response,
    /// applying the configured tamper mode. Honest executions cache the
    /// encoded **prefix** (dictionary + aggregate signature + op
    /// streams) and append the edge's current freshness per request —
    /// repeated hot batches skip execution, VO assembly *and* wire
    /// encoding, yet never replay a stale replication stamp. With an
    /// `aggregator`, shipped digests are bare and one condensed
    /// signature covers them all.
    pub fn query_compact(
        &self,
        table: &str,
        queries: &[RangeQuery],
        aggregator: Option<&dyn SigVerifier>,
    ) -> Result<Vec<u8>, EdgeError<VbSchemeError>> {
        let tamper = self.tamper_mode();
        if tamper != TamperMode::None {
            // Tampered responses bypass the cache (it only ever holds
            // honest prefixes) and are built from a fresh execution.
            let tree = self
                .service
                .snapshot(table)
                .ok_or_else(|| EdgeError::UnknownTable(table.into()))?;
            let scheme = self.service.scheme();
            let mut resp = scheme.multi_query_compact(&tree, queries, aggregator);
            scheme.tamper_compact(&tree, queries, &mut resp, &tamper, aggregator);
            resp.freshness = self.service.current_freshness();
            return Ok(encode_compact_response(&resp));
        }
        let agg_tag = aggregator.map_or(0, |a| u64::from(a.key_version()) + 1);
        let prefix = self
            .service
            .serve_compact_bytes(table, queries, 0, agg_tag, |tree| {
                encode_compact_prefix(
                    &self
                        .service
                        .scheme()
                        .multi_query_compact(tree, queries, aggregator),
                )
            })?;
        Ok(compact_response_bytes(
            &prefix,
            &self.service.current_freshness(),
        ))
    }
}
