//! Workspace-level integration tests spanning every crate: the full
//! pipeline over real wire bytes, RSA end-to-end, and three-way scheme
//! comparisons.

use std::sync::Arc;
use vbx::prelude::*;
use vbx_core::{decode_response, encode_response};

#[test]
fn full_pipeline_over_wire_bytes() {
    // Central builds; edge answers; the response crosses a byte
    // boundary; the client decodes and verifies.
    let acc = Acc256::test_default();
    let signer = Arc::new(MockSigner::with_version(1, 1));
    let mut central = CentralServer::new(acc.clone(), signer, VbTreeConfig::default());
    central.create_table(WorkloadSpec::new(2_000, 6, 14).build());

    let edge = EdgeServer::from_bundle(central.bundle());
    let sql = "SELECT a0, a5 FROM items WHERE id BETWEEN 250 AND 750";
    let (_, resp) = edge.query_sql(sql).unwrap();

    // Simulate the network.
    let bytes = encode_response(&resp);
    let received = decode_response(&bytes, &acc).unwrap();

    let client = EdgeClient::new(edge.schemas(), acc);
    let rows = client
        .verify(
            sql,
            &received,
            central.registry(),
            KeyFreshnessPolicy::RequireCurrent,
        )
        .unwrap();
    assert_eq!(rows.rows.len(), 501);
}

#[test]
fn rsa_1024_full_stack() {
    let acc = Acc256::test_default();
    let signer = Arc::new(rsa::fixture_keypair_1024());
    let mut central = CentralServer::new(acc.clone(), signer, VbTreeConfig::default());
    central.create_table(WorkloadSpec::new(300, 4, 10).build());

    let edge = EdgeServer::from_bundle(central.bundle());
    let client = EdgeClient::new(edge.schemas(), acc);
    let sql = "SELECT * FROM items WHERE id < 50";
    let (_, resp) = edge.query_sql(sql).unwrap();
    // RSA-1024 signatures are 128 bytes; the VO reflects that.
    assert!(resp.vo.top.sig.len() == 128);
    let rows = client
        .verify(
            sql,
            &resp,
            central.registry(),
            KeyFreshnessPolicy::RequireCurrent,
        )
        .unwrap();
    assert_eq!(rows.rows.len(), 50);
}

#[test]
fn three_schemes_agree_on_honest_data() {
    let table = WorkloadSpec::new(500, 5, 12).build();
    let acc = Acc256::test_default();
    let signer = MockSigner::new(3);

    let tree: vbx_core::VbTree<4> =
        vbx_core::VbTree::bulk_load(&table, VbTreeConfig::default(), acc.clone(), &signer);
    let naive = NaiveAuthStore::build(&table, acc.clone(), &signer);
    let merkle = MerkleAuthStore::build(&table, &signer);

    let (lo, hi) = (100u64, 199u64);
    let q = RangeQuery::select_all(lo, hi);
    let vb_resp = execute(&tree, &q, None);
    let naive_resp = naive.query(lo, hi, None, None);
    let merkle_resp = merkle.query(lo, hi);

    assert_eq!(vb_resp.rows.len(), 100);
    assert_eq!(naive_resp.rows.len(), 100);
    assert_eq!(merkle_resp.rows.len(), 100);

    let verifier = signer.verifier();
    ClientVerifier::new(&acc, table.schema())
        .verify(verifier.as_ref(), &q, &vb_resp)
        .unwrap();
    NaiveAuthStore::verify(
        &acc,
        table.schema(),
        verifier.as_ref(),
        lo,
        hi,
        None,
        &naive_resp,
    )
    .unwrap();
    MerkleAuthStore::verify(table.schema(), verifier.as_ref(), lo, hi, &merkle_resp).unwrap();

    // Same rows from all three.
    for ((v, n), m) in vb_resp
        .rows
        .iter()
        .zip(&naive_resp.rows)
        .zip(&merkle_resp.rows)
    {
        assert_eq!(v.key, n.key);
        assert_eq!(v.key, m.key);
        assert_eq!(v.values, m.values);
    }
}

#[test]
fn comparative_wire_sizes_match_paper_ordering() {
    // Figure 10's ordering at the measured scale: Naive ships the most
    // authentication bytes; the VB-tree's VO overhead is result-local.
    let table = WorkloadSpec::new(2_000, 10, 20).build();
    let acc = Acc256::test_default();
    let signer = MockSigner::new(4);
    let tree: vbx_core::VbTree<4> =
        vbx_core::VbTree::bulk_load(&table, VbTreeConfig::default(), acc.clone(), &signer);
    let naive = NaiveAuthStore::build(&table, acc.clone(), &signer);

    for hi in [199u64, 999, 1999] {
        let q = RangeQuery::select_all(0, hi);
        let vb = vbx_core::measure_response(&execute(&tree, &q, None)).total();
        let nv = naive.query(0, hi, None, None).wire_bytes();
        assert!(nv > vb, "hi {hi}: naive {nv} vs vbtree {vb}");
    }
}

#[test]
fn analysis_predicts_measured_tree_shape() {
    // The geometry formulas must describe the real tree exactly.
    let p = vbx_analysis::Params {
        n_r: 5_000,
        ..vbx_analysis::Params::default()
    };
    let table = WorkloadSpec::new(5_000, 10, 20).build();
    let signer = MockSigner::new(5);
    let tree: vbx_core::VbTree<4> = vbx_core::VbTree::bulk_load(
        &table,
        VbTreeConfig::default(),
        Acc256::test_default(),
        &signer,
    );
    let stats = tree.stats();
    assert_eq!(stats.fanout, vbx_analysis::tree::vbtree_fanout(&p));
    assert_eq!(stats.height, vbx_analysis::tree::vbtree_height(&p));
    assert_eq!(
        stats.nodes as u64,
        vbx_analysis::tree::packed_node_count(stats.fanout, 5_000)
    );
}

#[test]
fn concurrent_edges_serve_while_central_updates() {
    // Queries against existing replicas proceed while the central
    // server runs update transactions: a reader executes on an
    // immutable snapshot, and the writer publishes a successor built
    // aside, so no read waits for or observes a half-applied update.
    let acc = Acc256::test_default();
    let signer = Arc::new(MockSigner::with_version(11, 1));
    let mut central = CentralServer::new(acc.clone(), signer, VbTreeConfig::default());
    central.create_table(WorkloadSpec::new(1_000, 4, 10).build());
    let edge = EdgeServer::from_bundle(central.bundle());
    let client = EdgeClient::new(edge.schemas(), acc);

    // The clients' copy of the well-known key directory (published
    // before the scope; the writer does not rotate keys here).
    let mut registry = KeyRegistry::new();
    registry.publish(MockSigner::with_version(11, 1).verifier(), 0);

    std::thread::scope(|s| {
        let edge_ref = &edge;
        let client_ref = &client;
        let registry_ref = &registry;
        let central_ref = &mut central;

        let reader = s.spawn(move || {
            let mut verified = 0usize;
            for i in 0..20u64 {
                let lo = i * 40;
                let sql = format!("SELECT * FROM items WHERE id BETWEEN {lo} AND {}", lo + 39);
                let (_, resp) = edge_ref.query_sql(&sql).unwrap();
                if client_ref
                    .verify(&sql, &resp, registry_ref, KeyFreshnessPolicy::AcceptAsOf(0))
                    .is_ok()
                {
                    verified += 1;
                }
            }
            verified
        });

        let writer = s.spawn(move || {
            let schema = central_ref.tree("items").unwrap().schema().clone();
            for k in 5_000..5_030u64 {
                let t = Tuple::new(
                    &schema,
                    k,
                    vec![
                        Value::from("w"),
                        Value::from("x"),
                        Value::from("y"),
                        Value::from(1i64),
                    ],
                )
                .unwrap();
                central_ref.insert("items", t).unwrap();
            }
            central_ref.clock()
        });

        let verified = reader.join().unwrap();
        let clock = writer.join().unwrap();
        assert_eq!(verified, 20);
        assert_eq!(clock, 30);
    });
}
