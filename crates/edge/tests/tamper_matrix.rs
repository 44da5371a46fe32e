//! The detection matrix: every [`TamperMode`] exercised against all
//! three authentication schemes through the one generic
//! central → edge → client pipeline, asserting exactly which scheme
//! detects which attack — the paper's qualitative comparison
//! (Section 2 and §3.1's trust-model boundary), executable.
//!
//! | attack              | VB-tree | Naive | Merkle |
//! |---------------------|---------|-------|--------|
//! | `MutateValue`       | ✓       | ✓     | ✓      |
//! | `InjectRow`         | ✓       | ✓     | ✓      |
//! | `DropRow`           | ✓       | ✗     | ✓      |
//! | `DropAndReclassify` | ✗ (§3.1)| ✗     | ✓      |
//!
//! The VB-tree misses the reclassification drop by design (the paper's
//! documented completeness boundary); Naive misses every silent drop
//! (it has no completeness material at all); the Merkle tree's range
//! proof catches both, the advantage it buys by exposing boundary
//! tuples.

use std::sync::Arc;
use vbx_baselines::{MerkleScheme, NaiveScheme};
use vbx_core::{AuthScheme, RangeQuery, TamperMode, VbScheme, VbTreeConfig};
use vbx_crypto::signer::MockSigner;
use vbx_crypto::Acc256;
use vbx_edge::{CentralServer, EdgeServer, KeyFreshnessPolicy, SchemeClient};
use vbx_storage::workload::WorkloadSpec;
use vbx_storage::{Tuple, Value};

const ROWS: u64 = 60;
const VICTIM: u64 = 20;

/// Stand up the full generic pipeline for one scheme, propagate one
/// update so replication is exercised too, then report whether `mode`
/// is detected by client verification.
fn detected<S>(scheme: S, mode: TamperMode) -> bool
where
    S: AuthScheme + Clone,
    S::Store: Clone,
{
    let table = WorkloadSpec::new(ROWS, 4, 10).build();
    let name = table.schema().table.clone();
    let schema = table.schema().clone();
    let signer = Arc::new(MockSigner::with_version(77, 1));

    let mut central = CentralServer::with_scheme(scheme.clone(), signer);
    central.create_table(table);

    // The edge replica: built from the same (distributed) table, then
    // kept in sync through a signed delta.
    let edge_signer = MockSigner::with_version(77, 1);
    let replica_table = WorkloadSpec::new(ROWS, 4, 10).build();
    let mut edge = EdgeServer::new(scheme.clone());
    edge.install_table(
        name.clone(),
        schema.clone(),
        scheme.build(&replica_table, &edge_signer),
    );

    let tuple = Tuple::new(
        &schema,
        500,
        vec![
            Value::from("late"),
            Value::from("x"),
            Value::from("y"),
            Value::from(9i64),
        ],
    )
    .unwrap();
    let delta = central.insert(&name, tuple).unwrap();
    edge.apply_delta_batch(&delta).unwrap();

    edge.set_tamper(mode);
    let query = RangeQuery::select_all(5, 45);
    let resp = edge.query_range(&name, &query).unwrap();

    let client = SchemeClient::new(scheme, edge.schemas());
    client
        .verify_range(
            &name,
            &query,
            &resp,
            central.registry(),
            KeyFreshnessPolicy::RequireCurrent,
        )
        .is_err()
}

fn modes() -> [TamperMode; 4] {
    [
        TamperMode::MutateValue,
        TamperMode::InjectRow,
        TamperMode::DropRow,
        TamperMode::DropAndReclassify { key: VICTIM },
    ]
}

#[test]
fn honest_responses_verify_for_all_schemes() {
    let acc = Acc256::test_default();
    assert!(!detected(
        VbScheme::new(acc.clone(), VbTreeConfig::with_fanout(6)),
        TamperMode::None
    ));
    assert!(!detected(NaiveScheme::new(acc), TamperMode::None));
    assert!(!detected(MerkleScheme, TamperMode::None));
}

#[test]
fn vbtree_detects_all_but_the_documented_reclassification() {
    let acc = Acc256::test_default();
    let expected = [true, true, true, false];
    for (mode, want) in modes().into_iter().zip(expected) {
        let scheme = VbScheme::new(acc.clone(), VbTreeConfig::with_fanout(6));
        assert_eq!(
            detected(scheme, mode.clone()),
            want,
            "vb-tree × {mode:?}: expected detected={want}"
        );
    }
}

#[test]
fn naive_misses_every_silent_drop() {
    let acc = Acc256::test_default();
    let expected = [true, true, false, false];
    for (mode, want) in modes().into_iter().zip(expected) {
        let scheme = NaiveScheme::<4>::new(acc.clone());
        assert_eq!(
            detected(scheme, mode.clone()),
            want,
            "naive × {mode:?}: expected detected={want}"
        );
    }
}

#[test]
fn merkle_detects_everything_including_reclassification() {
    let expected = [true, true, true, true];
    for (mode, want) in modes().into_iter().zip(expected) {
        assert_eq!(
            detected(MerkleScheme, mode.clone()),
            want,
            "merkle × {mode:?}: expected detected={want}"
        );
    }
}
