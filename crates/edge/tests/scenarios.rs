//! End-to-end edge-computing scenarios (Figure 2): distribution, query
//! verification, update propagation via signed deltas, tampering, key
//! rotation and stale-replay detection.

use std::sync::Arc;
use vbx_core::VbTreeConfig;
use vbx_crypto::signer::MockSigner;
use vbx_crypto::Acc256;
use vbx_edge::{
    CentralServer, ClientError, EdgeClient, EdgeServer, KeyFreshnessPolicy, TamperMode, VbScheme,
};
use vbx_query::EngineError;
use vbx_storage::workload::WorkloadSpec;
use vbx_storage::{Tuple, Value};

fn setup(
    rows: u64,
) -> (
    CentralServer<VbScheme<4>>,
    EdgeServer<VbScheme<4>>,
    EdgeClient<4>,
) {
    let acc = Acc256::test_default();
    let signer = Arc::new(MockSigner::with_version(77, 1));
    let mut central = CentralServer::new(acc.clone(), signer, VbTreeConfig::with_fanout(6));
    let table = WorkloadSpec {
        table: "items".into(),
        ..WorkloadSpec::new(rows, 4, 10)
    }
    .build();
    central.create_table(table);
    let edge = EdgeServer::from_bundle(central.bundle());
    let client = EdgeClient::new(edge.schemas(), acc);
    (central, edge, client)
}

#[test]
fn distribute_query_verify() {
    let (central, edge, client) = setup(60);
    let sql = "SELECT * FROM items WHERE id BETWEEN 10 AND 30";
    let (_, resp) = edge.query_sql(sql).unwrap();
    let rows = client
        .verify(
            sql,
            &resp,
            central.registry(),
            KeyFreshnessPolicy::RequireCurrent,
        )
        .unwrap();
    assert_eq!(rows.rows.len(), 21);
}

#[test]
fn multiple_edges_agree() {
    let (central, edge1, client) = setup(40);
    let edge2 = EdgeServer::from_bundle(central.bundle());
    let sql = "SELECT a0 FROM items WHERE id < 15";
    let (_, r1) = edge1.query_sql(sql).unwrap();
    let (_, r2) = edge2.query_sql(sql).unwrap();
    let v1 = client
        .verify(
            sql,
            &r1,
            central.registry(),
            KeyFreshnessPolicy::RequireCurrent,
        )
        .unwrap();
    let v2 = client
        .verify(
            sql,
            &r2,
            central.registry(),
            KeyFreshnessPolicy::RequireCurrent,
        )
        .unwrap();
    assert_eq!(v1.rows.len(), v2.rows.len());
}

#[test]
fn update_deltas_keep_replicas_identical() {
    let (mut central, edge, client) = setup(50);
    let schema = central.tree("items").unwrap().schema().clone();

    // A mix of inserts and deletes, propagated one by one.
    for k in [200u64, 201, 305] {
        let t = Tuple::new(
            &schema,
            k,
            vec![
                Value::from(format!("new{k}")),
                Value::from("x"),
                Value::from("y"),
                Value::from((k % 100) as i64),
            ],
        )
        .unwrap();
        let delta = central.insert("items", t).unwrap();
        edge.apply_delta_batch(&delta).unwrap();
    }
    for k in [5u64, 17] {
        let delta = central.delete("items", k).unwrap();
        edge.apply_delta_batch(&delta).unwrap();
    }
    let delta = central.delete_range("items", 30, 40).unwrap();
    edge.apply_delta_batch(&delta).unwrap();

    // Replica must now be digest-identical to the master.
    assert_eq!(
        central.tree("items").unwrap().root_digest().exp,
        edge.tree("items").unwrap().root_digest().exp
    );

    // Queries over the updated replica verify, including the new keys.
    let sql = "SELECT * FROM items WHERE id BETWEEN 195 AND 310";
    let (_, resp) = edge.query_sql(sql).unwrap();
    let rows = client
        .verify(
            sql,
            &resp,
            central.registry(),
            KeyFreshnessPolicy::RequireCurrent,
        )
        .unwrap();
    assert_eq!(rows.rows.len(), 3);

    // Deleted keys are gone.
    let sql2 = "SELECT * FROM items WHERE id BETWEEN 30 AND 40";
    let (_, resp2) = edge.query_sql(sql2).unwrap();
    assert!(resp2.rows.is_empty());
    client
        .verify(
            sql2,
            &resp2,
            central.registry(),
            KeyFreshnessPolicy::RequireCurrent,
        )
        .unwrap();
}

#[test]
fn out_of_order_delta_rejected() {
    let (mut central, edge, _) = setup(20);
    let schema = central.tree("items").unwrap().schema().clone();
    let t1 = Tuple::new(
        &schema,
        100,
        vec![
            Value::from("a"),
            Value::from("b"),
            Value::from("c"),
            Value::from(1i64),
        ],
    )
    .unwrap();
    let mut t2 = t1.clone();
    t2.key = 101;
    let d1 = central.insert("items", t1).unwrap();
    let d2 = central.insert("items", t2).unwrap();
    // Skipping d1 must fail.
    assert!(edge.apply_delta_batch(&d2).is_err());
    edge.apply_delta_batch(&d1).unwrap();
    edge.apply_delta_batch(&d2).unwrap();
}

#[test]
fn forged_delta_rejected() {
    let (mut central, edge, _) = setup(20);
    let schema = central.tree("items").unwrap().schema().clone();
    let t = Tuple::new(
        &schema,
        100,
        vec![
            Value::from("a"),
            Value::from("b"),
            Value::from("c"),
            Value::from(1i64),
        ],
    )
    .unwrap();
    let mut delta = (*central.insert("items", t).unwrap()).clone();
    // A man-in-the-middle alters the inserted tuple but cannot re-sign.
    if let vbx_edge::UpdateOp::Insert(tuple) = &mut delta.ops[0] {
        tuple.values[0] = Value::from("evil");
    }
    let err = edge.apply_delta_batch(&delta).unwrap_err();
    assert!(matches!(
        err,
        vbx_edge::EdgeError::Scheme(vbx_core::VbSchemeError::Core(
            vbx_core::CoreError::ReplicaDivergence(_)
        ))
    ));
}

#[test]
fn tamper_modes_detected() {
    let (central, edge, client) = setup(60);
    let sql = "SELECT * FROM items WHERE id BETWEEN 5 AND 45";
    for mode in [
        TamperMode::MutateValue,
        TamperMode::InjectRow,
        TamperMode::DropRow,
    ] {
        edge.set_tamper(mode.clone());
        let (_, resp) = edge.query_sql(sql).unwrap();
        let err = client
            .verify(
                sql,
                &resp,
                central.registry(),
                KeyFreshnessPolicy::RequireCurrent,
            )
            .unwrap_err();
        assert!(
            matches!(err, ClientError::Engine(EngineError::Verify(_))),
            "mode {mode:?} must be detected, got {err:?}"
        );
    }
    // Honest mode passes again.
    edge.set_tamper(TamperMode::None);
    let (_, resp) = edge.query_sql(sql).unwrap();
    client
        .verify(
            sql,
            &resp,
            central.registry(),
            KeyFreshnessPolicy::RequireCurrent,
        )
        .unwrap();
}

#[test]
fn reclassification_drop_is_the_documented_boundary() {
    // §3.1's trust model: edges don't maliciously drop qualifying
    // tuples. If a hacked edge does — moving the dropped tuple's signed
    // digest into D_S — the VO still balances.
    let (central, edge, client) = setup(60);
    let sql = "SELECT * FROM items WHERE id BETWEEN 5 AND 45";
    edge.set_tamper(TamperMode::DropAndReclassify { key: 20 });
    let (_, resp) = edge.query_sql(sql).unwrap();
    assert!(resp.rows.iter().all(|r| r.key != 20));
    client
        .verify(
            sql,
            &resp,
            central.registry(),
            KeyFreshnessPolicy::RequireCurrent,
        )
        .unwrap();
}

#[test]
fn key_rotation_detects_stale_replay() {
    let (mut central, stale_edge, client) = setup(30);

    // The world moves on: an update plus a key rotation.
    let schema = central.tree("items").unwrap().schema().clone();
    let t = Tuple::new(
        &schema,
        500,
        vec![
            Value::from("post-rotation"),
            Value::from("x"),
            Value::from("y"),
            Value::from(9i64),
        ],
    )
    .unwrap();
    central.insert("items", t).unwrap();
    central.rotate_key(Arc::new(MockSigner::with_version(77, 2)));

    // A fresh edge from the new bundle answers under key v2.
    let fresh_edge = EdgeServer::from_bundle(central.bundle());
    let sql = "SELECT * FROM items WHERE id < 10";
    let (_, fresh_resp) = fresh_edge.query_sql(sql).unwrap();
    assert_eq!(fresh_resp.vo.key_version, 2);
    client
        .verify(
            sql,
            &fresh_resp,
            central.registry(),
            KeyFreshnessPolicy::RequireCurrent,
        )
        .unwrap();

    // The stale edge still answers under key v1: rejected as stale.
    let (_, stale_resp) = stale_edge.query_sql(sql).unwrap();
    assert_eq!(stale_resp.vo.key_version, 1);
    let err = client
        .verify(
            sql,
            &stale_resp,
            central.registry(),
            KeyFreshnessPolicy::RequireCurrent,
        )
        .unwrap_err();
    assert!(matches!(err, ClientError::StaleKey { version: 1 }));

    // Historical reads may still accept the old key within its window.
    client
        .verify(
            sql,
            &stale_resp,
            central.registry(),
            KeyFreshnessPolicy::AcceptAsOf(0),
        )
        .unwrap();
}

#[test]
fn unknown_key_version_rejected() {
    let (central, edge, client) = setup(10);
    let sql = "SELECT * FROM items";
    let (_, mut resp) = edge.query_sql(sql).unwrap();
    resp.vo.key_version = 42;
    let err = client
        .verify(
            sql,
            &resp,
            central.registry(),
            KeyFreshnessPolicy::RequireCurrent,
        )
        .unwrap_err();
    assert!(matches!(err, ClientError::UnknownKeyVersion(42)));
}

#[test]
fn join_view_distribution_and_refresh() {
    let acc = Acc256::test_default();
    let signer = Arc::new(MockSigner::with_version(9, 1));
    let mut central: CentralServer<VbScheme<4>> =
        CentralServer::new(acc.clone(), signer, VbTreeConfig::with_fanout(6));
    central.create_table(
        WorkloadSpec {
            table: "orders".into(),
            ..WorkloadSpec::new(25, 3, 8)
        }
        .build(),
    );
    central.create_table(
        WorkloadSpec {
            table: "parts".into(),
            seed: 4242,
            ..WorkloadSpec::new(25, 3, 8)
        }
        .build(),
    );
    let view_name = central
        .materialize_join("orders", "parts", "a2", "a2")
        .unwrap();
    assert!(central.tree(&view_name).is_some());

    let mut edge = EdgeServer::from_bundle(central.bundle());
    let client = EdgeClient::new(edge.schemas(), acc.clone());
    let sql = "SELECT * FROM orders JOIN parts ON orders.a2 = parts.a2";
    let (_, resp) = edge.query_sql(sql).unwrap();
    let before = client
        .verify(
            sql,
            &resp,
            central.registry(),
            KeyFreshnessPolicy::RequireCurrent,
        )
        .unwrap();

    // Update a base table; view refreshes at the central server; the
    // edge applies the delta and pulls the refreshed view.
    let delta = central.delete("orders", 0).unwrap();
    edge.apply_delta_batch(&delta).unwrap();
    edge.refresh_views(central.view_trees());

    let (_, resp2) = edge.query_sql(sql).unwrap();
    let client2 = EdgeClient::new(edge.schemas(), acc.clone());
    let after = client2
        .verify(
            sql,
            &resp2,
            central.registry(),
            KeyFreshnessPolicy::RequireCurrent,
        )
        .unwrap();
    assert!(after.rows.len() <= before.rows.len());
    assert_eq!(
        central.tree(&view_name).unwrap().root_digest().exp,
        edge.tree(&view_name).unwrap().root_digest().exp
    );
}

#[test]
fn lock_protocol_exercised_by_updates() {
    let (mut central, _, _) = setup(40);
    let schema = central.tree("items").unwrap().schema().clone();
    let before = central.lock_stats();
    let t = Tuple::new(
        &schema,
        999,
        vec![
            Value::from("a"),
            Value::from("b"),
            Value::from("c"),
            Value::from(0i64),
        ],
    )
    .unwrap();
    central.insert("items", t).unwrap();
    central.delete("items", 999).unwrap();
    let after = central.lock_stats();
    // Both transactions acquired (and released) path locks.
    assert!(after.acquired > before.acquired);
    assert_eq!(after.conflicts, before.conflicts);
    assert!(after.released >= before.released + 2);
}

#[test]
fn bundle_crosses_process_boundary_as_bytes() {
    // Distribution as it would actually happen: the bundle is
    // serialized, shipped, decoded, and the edge stood up from bytes.
    let acc = Acc256::test_default();
    let signer = Arc::new(MockSigner::with_version(55, 1));
    let mut central: CentralServer<VbScheme<4>> =
        CentralServer::new(acc.clone(), signer, VbTreeConfig::with_fanout(8));
    central.create_table(
        WorkloadSpec {
            table: "items".into(),
            ..WorkloadSpec::new(120, 3, 8)
        }
        .build(),
    );
    central.create_table(
        WorkloadSpec {
            table: "extra".into(),
            seed: 2,
            ..WorkloadSpec::new(60, 3, 8)
        }
        .build(),
    );
    central
        .materialize_join("items", "extra", "a2", "a2")
        .unwrap();

    let bytes = central.bundle().to_bytes();
    let received = vbx_edge::EdgeBundle::from_bytes(&bytes, &acc).unwrap();
    assert_eq!(received.trees.len(), 3);
    assert_eq!(received.views.len(), 1);

    let edge = EdgeServer::from_bundle(received);
    let client = EdgeClient::new(edge.schemas(), acc.clone());
    let sql = "SELECT * FROM items WHERE id BETWEEN 10 AND 50";
    let (_, resp) = edge.query_sql(sql).unwrap();
    client
        .verify(
            sql,
            &resp,
            central.registry(),
            KeyFreshnessPolicy::RequireCurrent,
        )
        .unwrap();

    // Corrupt bundles are rejected, never served.
    let mut bad = bytes.clone();
    let mid = bad.len() / 2;
    bad[mid] ^= 0xFF;
    assert!(
        vbx_edge::EdgeBundle::<4>::from_bytes(&bad, &acc).is_err()
            || vbx_edge::EdgeBundle::<4>::from_bytes(&bad, &acc)
                .map(|b| b.trees.values().all(|t| t.check_integrity(None).is_ok()))
                .unwrap_or(false)
    );
}
