//! The group-commit write pipeline, end to end: batched commits at the
//! central server (one signing sweep + one stamp for `k` ops), batch
//! atomicity on the baselines, batch replay at the edge (one snapshot
//! clone + one swap + one cache invalidation), single-envelope cluster
//! fan-out with range placeholders, and — via the new generic
//! `SchemeClient::verify_range_fresh` — staleness detection for the
//! Naive and Merkle baselines, closing the "freshness is VB-tree-only"
//! gap.

use std::sync::Arc;
use vbx_baselines::{MerkleScheme, NaiveScheme};
use vbx_core::{
    decode_delta_batch, encode_delta_batch, encode_tree, AuthScheme, FreshnessPolicy, RangeQuery,
    VbScheme, VbTreeConfig, VerifyError,
};
use vbx_crypto::signer::MockSigner;
use vbx_crypto::Acc256;
use vbx_edge::{
    CentralServer, ClusterConfig, ClusterCoordinator, EdgeServer, KeyFreshnessPolicy, SchemeClient,
    SchemeClientError, UpdateOp,
};
use vbx_storage::workload::WorkloadSpec;
use vbx_storage::{Schema, Table, Tuple, Value};

fn fresh_tuple(schema: &Schema, key: u64) -> Tuple {
    Tuple::new(
        schema,
        key,
        vec![
            Value::from(format!("new{key}")),
            Value::from("w"),
            Value::from((key % 97) as i64),
        ],
    )
    .expect("schema-conformant tuple")
}

fn items_table(rows: u64) -> Table {
    WorkloadSpec {
        table: "items".into(),
        ..WorkloadSpec::new(rows, 3, 8)
    }
    .build()
}

fn mixed_ops(schema: &Schema, n: usize) -> Vec<UpdateOp> {
    (0..n as u64)
        .map(|i| match i % 3 {
            0 => UpdateOp::Insert(fresh_tuple(schema, 5_000 + i)),
            1 => UpdateOp::Delete(2 * i + 1),
            _ => UpdateOp::DeleteRange(10 * i + 100, 10 * i + 102),
        })
        .collect()
}

// ---------------------------------------------------------------------
// Central commit + edge apply
// ---------------------------------------------------------------------

#[test]
fn batched_commit_applies_at_the_edge_identically_to_per_op() {
    let signer = Arc::new(MockSigner::with_version(0x6C, 1));
    let acc = Acc256::test_default();
    let table = items_table(80);
    let schema = table.schema().clone();
    let ops = mixed_ops(&schema, 9);

    // Per-op reference pipeline: every op a commit (a batch of one).
    let mut per_op = CentralServer::new(acc.clone(), signer.clone(), VbTreeConfig::with_fanout(6));
    per_op.create_table(table.clone());
    let per_op_edge = EdgeServer::from_bundle(per_op.bundle());
    for op in ops.clone() {
        let delta = match op {
            UpdateOp::Insert(t) => per_op.insert("items", t),
            UpdateOp::Delete(k) => per_op.delete("items", k),
            UpdateOp::DeleteRange(lo, hi) => per_op.delete_range("items", lo, hi),
        }
        .expect("per-op commit");
        per_op_edge
            .apply_delta_batch(&delta)
            .expect("per-op replay");
    }

    // Group-commit pipeline: one batch, one edge apply.
    let mut grouped = CentralServer::new(acc.clone(), signer.clone(), VbTreeConfig::with_fanout(6));
    grouped.create_table(table);
    let grouped_edge = EdgeServer::from_bundle(grouped.bundle());
    let swaps_before = grouped_edge
        .service()
        .replica("items")
        .unwrap()
        .published_count();
    let batch = grouped
        .execute_update_batch("items", ops)
        .expect("batched commit");
    assert_eq!(batch.start_seq, 0);
    assert_eq!(batch.end_seq(), 9);
    grouped_edge
        .apply_delta_batch(&batch)
        .expect("batch replay");

    // Same sequence position, byte-identical replica trees.
    assert_eq!(grouped_edge.applied_seq(), per_op_edge.applied_seq());
    assert_eq!(
        encode_tree(&*grouped_edge.tree("items").unwrap()),
        encode_tree(&*per_op_edge.tree("items").unwrap()),
        "batched and per-op replicas must converge byte-identically"
    );
    // k ops → exactly one successor snapshot published.
    let swaps = grouped_edge
        .service()
        .replica("items")
        .unwrap()
        .published_count()
        - swaps_before;
    assert_eq!(swaps, 1, "a batch must cost one snapshot swap, not k");

    // The batch travels the wire intact and replays on a fresh replica.
    let bytes = encode_delta_batch(&batch);
    let decoded = decode_delta_batch(&bytes, &acc).expect("wire roundtrip");
    let wire_edge =
        EdgeServer::from_bundle_with_scheme(VbScheme::new(acc, VbTreeConfig::with_fanout(6)), {
            let mut fresh =
                CentralServer::new(Acc256::test_default(), signer, VbTreeConfig::with_fanout(6));
            fresh.create_table(items_table(80));
            fresh.bundle()
        });
    wire_edge.apply_delta_batch(&decoded).expect("wire replay");
    assert_eq!(
        encode_tree(&*wire_edge.tree("items").unwrap()),
        encode_tree(&*per_op_edge.tree("items").unwrap()),
    );
}

#[test]
fn batch_replays_on_a_wire_provisioned_replica() {
    // Regression: arena NodeIds are NOT canonical — `decode_tree`
    // renumbers nodes in postorder while bulk loads assign them level
    // by level — so a replica provisioned from the *serialized* bundle
    // (the bytes the central server actually ships) has different ids
    // than the central tree. The batch sweep must therefore walk in
    // structural order; an id-ordered sweep makes any batch touching
    // two non-nested paths fail as ReplicaDivergence on such a replica.
    let signer = Arc::new(MockSigner::with_version(0x75, 1));
    let mut central =
        CentralServer::new(Acc256::test_default(), signer, VbTreeConfig::with_fanout(6));
    central.create_table(items_table(80));
    let schema = central.tree("items").unwrap().schema().clone();
    let edge = EdgeServer::from_bundle(
        vbx_edge::EdgeBundle::from_bytes(&central.bundle().to_bytes(), central.accumulator())
            .expect("bundle wire roundtrip"),
    );

    // Two ops on widely separated keys: distinct leaves under the root.
    let batch = central
        .execute_update_batch(
            "items",
            vec![
                UpdateOp::Delete(0),
                UpdateOp::Delete(79),
                UpdateOp::Insert(fresh_tuple(&schema, 2_000)),
            ],
        )
        .expect("batched commit");
    edge.apply_delta_batch(&batch)
        .expect("wire-provisioned replica must replay an honest multi-path batch");
    assert_eq!(
        edge.tree("items").unwrap().root_digest().exp,
        central.tree("items").unwrap().root_digest().exp,
    );
    edge.tree("items").unwrap().check_integrity(None).unwrap();
}

#[test]
fn batch_out_of_order_and_empty_batches() {
    let signer = Arc::new(MockSigner::with_version(0x6D, 1));
    let mut central =
        CentralServer::new(Acc256::test_default(), signer, VbTreeConfig::with_fanout(6));
    central.create_table(items_table(40));
    let schema = central.tree("items").unwrap().schema().clone();
    let edge = EdgeServer::from_bundle(central.bundle());

    // An empty batch commits nothing, logs nothing, stamps nothing.
    let empty = central
        .execute_update_batch("items", Vec::new())
        .expect("empty batch is a no-op");
    assert!(empty.is_empty());
    assert_eq!(central.delta_log().next_seq(), 0);
    edge.apply_delta_batch(&empty).expect("no-op at the edge");
    assert_eq!(edge.applied_seq(), 0);

    // A replica refuses a batch that does not start at its position.
    let batch = central
        .execute_update_batch("items", vec![UpdateOp::Insert(fresh_tuple(&schema, 900))])
        .unwrap();
    edge.apply_delta_batch(&batch).expect("in-order batch");
    let err = edge.apply_delta_batch(&batch).unwrap_err();
    assert!(
        matches!(
            err,
            vbx_edge::EdgeError::OutOfOrder {
                expected: 1,
                got: 0
            }
        ),
        "replaying the same batch must be out of order, got {err}"
    );
}

// ---------------------------------------------------------------------
// Baseline batch atomicity
// ---------------------------------------------------------------------

#[test]
fn failed_baseline_batch_restores_store_and_catalog() {
    // The plain per-op loop is not atomic on its own: the baselines
    // override `update_batch` with `update_batch_atomic` so a failing
    // op restores the pre-batch store — otherwise the never-logged
    // prefix would silently diverge the central store, the only copy of
    // its rows, from the log and every replica.
    let signer = Arc::new(MockSigner::with_version(0x76, 1));
    let table = WorkloadSpec {
        table: "n".into(),
        ..WorkloadSpec::new(30, 3, 8)
    }
    .build();
    let mut central =
        CentralServer::with_scheme(NaiveScheme::<4>::new(Acc256::test_default()), signer);
    central.create_table(table);
    let len_before = central.store("n").unwrap().len();

    // Delete(3) applies, then Delete(999_999) fails in the store's own
    // atomic batch, which reports the scheme's error.
    let err = central
        .execute_update_batch("n", vec![UpdateOp::Delete(3), UpdateOp::Delete(999_999)])
        .unwrap_err();
    assert!(matches!(err, vbx_edge::CentralError::Scheme(_)));
    assert_eq!(
        central.store("n").unwrap().len(),
        len_before,
        "failed batch must not leave a half-applied store"
    );
    assert_eq!(central.delta_log().next_seq(), 0, "nothing may be logged");

    // The restored state commits cleanly afterwards.
    let batch = central
        .execute_update_batch("n", vec![UpdateOp::Delete(3)])
        .expect("restored store accepts the valid prefix again");
    assert_eq!(batch.len(), 1);
    assert_eq!(central.store("n").unwrap().len(), len_before - 1);
}

// ---------------------------------------------------------------------
// Cluster fan-out
// ---------------------------------------------------------------------

#[test]
fn cluster_fans_a_batch_out_as_one_envelope() {
    let signer = Arc::new(MockSigner::with_version(0x72, 1));
    let scheme = VbScheme::<4>::new(Acc256::test_default(), VbTreeConfig::with_fanout(6));
    let mut c = ClusterCoordinator::new(
        scheme,
        signer,
        ClusterConfig {
            edges: 3,
            retention: 64,
            ..ClusterConfig::default()
        },
    );
    for i in 0..3 {
        let spec = WorkloadSpec {
            table: format!("t{i}"),
            ..WorkloadSpec::new(40, 3, 8)
        };
        c.create_table(spec.build());
    }
    c.sync().unwrap();
    let schema = c.central().schema("t0").unwrap().clone();

    // An 8-op batch on t0: the owner's queue gets ONE envelope, every
    // other edge ONE range placeholder.
    let ops: Vec<UpdateOp> = (0..8u64)
        .map(|i| UpdateOp::Insert(fresh_tuple(&schema, 900 + i)))
        .collect();
    let batch = c.update_batch("t0", ops).unwrap();
    assert_eq!(batch.len(), 8);
    let lags = c.lag_report();
    assert!(
        lags.iter().all(|l| l.queued == 1),
        "one queue item per edge for an 8-op batch: {lags:?}"
    );
    assert!(lags.iter().all(|l| l.lag == 8));

    // Draining one item advances every edge by the whole range.
    for e in 0..3 {
        assert_eq!(c.drain_edge(e, usize::MAX).unwrap(), 1);
    }
    let lags = c.lag_report();
    assert!(lags.iter().all(|l| l.lag == 0), "{lags:?}");

    // The batch's single stamp attests the end seq: a strict client
    // accepts the owning edge right after the drain.
    let q = RangeQuery::select_all(898, 910);
    let routed = c.query("t0", &q).unwrap();
    let (owner_seq, owner_clock) = c.owner_position();
    let verifier = c
        .central()
        .registry()
        .verifier(routed.response.vo.key_version)
        .unwrap();
    let acc = c.central().accumulator().clone();
    vbx_core::ClientVerifier::new(&acc, &schema)
        .with_freshness(FreshnessPolicy::strict(), owner_seq, owner_clock)
        .verify(verifier.as_ref(), &q, &routed.response)
        .expect("drained edge with a batch stamp must verify strictly");
}

// ---------------------------------------------------------------------
// Baseline freshness: staleness detection is no longer VB-tree-only
// ---------------------------------------------------------------------

/// Generic staleness scenario: commit through the coordinator, query
/// before and after draining the lagging edge's queue, verifying with
/// the scheme-generic freshness client.
fn baseline_staleness_detected<S>(scheme: S, table: Table)
where
    S: AuthScheme + Clone,
    S::Store: Clone,
{
    let signer = Arc::new(MockSigner::with_version(0x73, 1));
    let mut c = ClusterCoordinator::new(
        scheme.clone(),
        signer.clone(),
        ClusterConfig {
            edges: 2,
            retention: 64,
            ..ClusterConfig::default()
        },
    );
    let name = table.schema().table.clone();
    let schema = table.schema().clone();
    c.create_table(table);
    c.sync().unwrap();

    let client = SchemeClient::new(
        scheme,
        [(name.clone(), schema.clone())].into_iter().collect(),
    );
    let q = RangeQuery::select_all(0, 30);
    let verify = |c: &ClusterCoordinator<S>| {
        let routed = c.query(&name, &q).expect("routed");
        let (owner_seq, owner_clock) = c.owner_position();
        client.verify_range_fresh(
            &name,
            &q,
            &routed.response,
            c.central().registry(),
            KeyFreshnessPolicy::RequireCurrent,
            FreshnessPolicy::strict(),
            owner_seq,
            owner_clock,
        )
    };

    // Fresh edge: strict policy passes for the baseline scheme.
    verify(&c).expect("fresh baseline edge must verify strictly");

    // Commit without draining: honest-but-stale, detected as Stale.
    c.central_mut()
        .execute_update_batch(&name, vec![UpdateOp::Delete(3), UpdateOp::Delete(5)])
        .expect("batched baseline commit");
    c.fan_out().unwrap();
    match verify(&c) {
        Err(SchemeClientError::Freshness(VerifyError::Stale { .. })) => {}
        other => panic!("lagging baseline edge must read as Stale, got {other:?}"),
    }

    // Drain: the same strict client accepts again, minus the deleted rows.
    let owner = c.route(&name).unwrap();
    c.drain_edge(owner, usize::MAX).unwrap();
    for e in 0..c.num_edges() {
        c.drain_edge(e, usize::MAX).unwrap();
    }
    let (batch, _) = verify(&c).expect("drained baseline edge verifies strictly again");
    assert!(batch.rows.iter().all(|r| r.key != 3 && r.key != 5));
}

#[test]
fn naive_scheme_staleness_detected() {
    let table = WorkloadSpec {
        table: "n0".into(),
        ..WorkloadSpec::new(40, 3, 8)
    }
    .build();
    baseline_staleness_detected(NaiveScheme::<4>::new(Acc256::test_default()), table);
}

#[test]
fn merkle_scheme_staleness_detected() {
    let table = WorkloadSpec {
        table: "m0".into(),
        ..WorkloadSpec::new(40, 3, 8)
    }
    .build();
    baseline_staleness_detected(MerkleScheme, table);
}

#[test]
fn vb_scheme_staleness_detected_via_generic_client() {
    // The same generic path also covers the VB-tree, so every scheme
    // shares one freshness pipeline.
    let table = items_table(40);
    baseline_staleness_detected(
        VbScheme::<4>::new(Acc256::test_default(), VbTreeConfig::with_fanout(6)),
        table,
    );
}
