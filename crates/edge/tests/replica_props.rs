//! Property test: under *any* interleaving of inserts, deletes and
//! range deletes, delta replay keeps every edge replica digest-identical
//! to the master, and queries over the replicas verify.

use proptest::prelude::*;
use std::sync::Arc;
use vbx_core::VbTreeConfig;
use vbx_crypto::signer::MockSigner;
use vbx_crypto::Acc256;
use vbx_edge::{CentralServer, EdgeClient, EdgeServer, KeyFreshnessPolicy, VbScheme};
use vbx_storage::workload::WorkloadSpec;
use vbx_storage::{Tuple, Value};

#[derive(Clone, Debug)]
enum Op {
    Insert(u64),
    Delete(u64),
    DeleteRange(u64, u64),
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u64..300).prop_map(Op::Insert),
        (0u64..300).prop_map(Op::Delete),
        (0u64..300, 0u64..40).prop_map(|(lo, span)| Op::DeleteRange(lo, lo + span)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn replicas_track_master_under_any_workload(
        ops in proptest::collection::vec(arb_op(), 1..30),
        fanout in 3usize..8,
    ) {
        let acc = Acc256::test_default();
        let signer = Arc::new(MockSigner::with_version(13, 1));
        let mut central: CentralServer<VbScheme<4>> =
            CentralServer::new(acc.clone(), signer, VbTreeConfig::with_fanout(fanout));
        central.create_table(
            WorkloadSpec {
                table: "items".into(),
                ..WorkloadSpec::new(100, 3, 8)
            }
            .build(),
        );
        let edge_a = EdgeServer::from_bundle(central.bundle());
        let edge_b = EdgeServer::from_bundle(central.bundle());
        let schema = central.tree("items").unwrap().schema().clone();

        let mut applied = 0usize;
        for op in &ops {
            let delta = match op {
                Op::Insert(k) => {
                    let t = Tuple::new(
                        &schema,
                        *k,
                        vec![
                            Value::from(format!("v{k}")),
                            Value::from("w"),
                            Value::from((*k % 97) as i64),
                        ],
                    )
                    .unwrap();
                    match central.insert("items", t) {
                        Ok(d) => d,
                        Err(_) => continue, // duplicate key: skipped
                    }
                }
                Op::Delete(k) => match central.delete("items", *k) {
                    Ok(d) => d,
                    Err(_) => continue, // missing key: skipped
                },
                Op::DeleteRange(lo, hi) => central.delete_range("items", *lo, *hi).unwrap(),
            };
            // Edge A applies immediately; edge B lags and catches up below.
            edge_a.apply_delta_batch(&delta).unwrap();
            applied += 1;
        }

        // Edge B catches up from the log in one batch.
        for entry in central.deltas_since(edge_b.applied_seq()) {
            edge_b.apply_commit(&entry).unwrap();
        }
        prop_assert_eq!(edge_a.applied_seq(), applied as u64);
        prop_assert_eq!(edge_b.applied_seq(), applied as u64);

        // All three digest-identical.
        let master = central.tree("items").unwrap().root_digest().exp;
        prop_assert_eq!(edge_a.tree("items").unwrap().root_digest().exp, master);
        prop_assert_eq!(edge_b.tree("items").unwrap().root_digest().exp, master);

        // Structural integrity of the replicas.
        edge_a.tree("items").unwrap().check_integrity(None).unwrap();

        // And queries over the final state verify.
        let client = EdgeClient::new(edge_a.schemas(), acc);
        let sql = "SELECT * FROM items WHERE id BETWEEN 0 AND 400";
        let (_, resp) = edge_a.query_sql(sql).unwrap();
        let verified = client
            .verify(sql, &resp, central.registry(), KeyFreshnessPolicy::RequireCurrent)
            .unwrap();
        prop_assert_eq!(
            verified.rows.len() as u64,
            central.tree("items").unwrap().len()
        );
    }
}
