//! Property tests for the commit path. Durability: for **any** mix of
//! single-op commits, group-committed batches and heartbeats, under any
//! checkpoint cadence, recovery is path-independent —
//!
//! `recover(latest checkpoint + WAL suffix)`
//!   ≡ `recover(post-DDL checkpoint + full WAL)`
//!   ≡ a never-crashed in-memory control,
//!
//! byte-for-byte on `encode_state()`, for all three authentication
//! schemes. `retain_wal` keeps every record so the full-history replay
//! stays possible; the second recovery path is forced by restoring the
//! crash image's checkpoint directory to its post-`create_table` state.
//!
//! One commit engine: the same op stream committed through `insert` /
//! `delete` / `delete_range`, through `execute_update_batch` and through
//! `commit_txn` leaves byte-identical stores at the central and at a
//! replica fed through the byte codecs, for all three schemes.

use proptest::prelude::*;
use std::sync::Arc;
use vbx_baselines::{MerkleScheme, NaiveScheme};
use vbx_core::{
    commit_from_msg, commit_to_msg, decode_wal_record, encode_wal_commit, Commit, DurableScheme,
    VbScheme, VbTreeConfig, WalRecord,
};
use vbx_crypto::signer::MockSigner;
use vbx_crypto::{Acc256, Signer};
use vbx_edge::{CentralServer, DurabilityConfig, EdgeServer, UpdateOp};
use vbx_storage::workload::WorkloadSpec;
use vbx_storage::{FailpointFs, MemVfs, Schema, Tuple, Value, Vfs};

const TABLE: &str = "t0";
const TABLE2: &str = "t1";

#[derive(Clone, Debug)]
enum Op {
    Insert(u64),
    Delete(u64),
    DeleteRange(u64, u64),
    Batch(Vec<u64>),
    Heartbeat,
    /// Atomic multi-table txn: each `(table_sel, key)` stages an insert
    /// on `t0` (even sel) or `t1` (odd sel) — one txn WAL record.
    Txn(Vec<(u8, u64)>),
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (0u64..200).prop_map(Op::Insert),
        2 => (0u64..200).prop_map(Op::Delete),
        1 => (0u64..200, 0u64..30).prop_map(|(lo, span)| Op::DeleteRange(lo, lo + span)),
        2 => proptest::collection::vec(0u64..200, 1..4).prop_map(Op::Batch),
        1 => Just(Op::Heartbeat),
        2 => proptest::collection::vec((0u8..2, 0u64..200), 1..6).prop_map(Op::Txn),
    ]
}

fn tuple(schema: &Schema, key: u64) -> Tuple {
    Tuple::new(
        schema,
        key,
        vec![
            Value::from(format!("v{key:04}")),
            Value::from((key % 89) as i64),
        ],
    )
    .expect("schema-conformant tuple")
}

/// Apply one op; `Ok(false)` means the central rejected it (duplicate
/// key, missing key, duplicate inside a batch) and committed nothing.
fn apply<S: DurableScheme>(central: &mut CentralServer<S>, op: &Op) -> bool
where
    S::Store: Clone,
{
    let schema = central.schema(TABLE).expect("table exists").clone();
    match op {
        Op::Insert(k) => central.insert(TABLE, tuple(&schema, *k)).is_ok(),
        Op::Delete(k) => central.delete(TABLE, *k).is_ok(),
        Op::DeleteRange(lo, hi) => central.delete_range(TABLE, *lo, *hi).is_ok(),
        Op::Batch(keys) => central
            .execute_update_batch(
                TABLE,
                keys.iter()
                    .map(|k| UpdateOp::Insert(tuple(&schema, *k)))
                    .collect(),
            )
            .is_ok(),
        Op::Heartbeat => {
            central.heartbeat();
            true
        }
        Op::Txn(stages) => {
            let schema2 = central.schema(TABLE2).expect("table exists").clone();
            let mut txn = central.begin_txn();
            for (sel, k) in stages {
                let (name, schema) = if sel % 2 == 0 {
                    (TABLE, &schema)
                } else {
                    (TABLE2, &schema2)
                };
                txn.stage(name, UpdateOp::Insert(tuple(schema, *k)));
            }
            central.commit_txn(txn).is_ok()
        }
    }
}

fn check_scheme<S: DurableScheme + Clone>(scheme: S, ops: &[Op], checkpoint_every: u64)
where
    S::Store: Clone,
{
    let signer: Arc<dyn Signer> = Arc::new(MockSigner::new(23));
    let config = DurabilityConfig {
        checkpoint_every,
        retain_wal: true,
    };
    let fps = Arc::new(FailpointFs::new());
    let mut durable = CentralServer::with_scheme(scheme.clone(), signer.clone())
        .with_delta_retention(512)
        .with_durability(fps.clone(), config)
        .expect("durability init");
    durable.create_table(
        WorkloadSpec {
            table: TABLE.into(),
            ..WorkloadSpec::new(8, 2, 8)
        }
        .build(),
    );
    durable.create_table(
        WorkloadSpec {
            table: TABLE2.into(),
            ..WorkloadSpec::new(8, 2, 8)
        }
        .build(),
    );
    // The checkpoint directory right after DDL: WAL replay from here
    // covers the *entire* commit history.
    let post_ddl: Vec<(String, Vec<u8>)> = {
        let image = fps.crash_image();
        image
            .list()
            .unwrap()
            .into_iter()
            .filter(|n| n.starts_with("ckpt-"))
            .map(|n| {
                let bytes = image.read(&n).unwrap().unwrap();
                (n, bytes)
            })
            .collect()
    };
    assert_eq!(post_ddl.len(), 1, "exactly one live checkpoint after DDL");

    let mut control =
        CentralServer::with_scheme(scheme.clone(), signer.clone()).with_delta_retention(512);
    control.create_table(
        WorkloadSpec {
            table: TABLE.into(),
            ..WorkloadSpec::new(8, 2, 8)
        }
        .build(),
    );
    control.create_table(
        WorkloadSpec {
            table: TABLE2.into(),
            ..WorkloadSpec::new(8, 2, 8)
        }
        .build(),
    );
    for op in ops {
        if apply(&mut durable, op) {
            assert!(apply(&mut control, op), "control rejected a committed op");
        }
    }
    fps.kill();
    let image = fps.crash_image();

    // Path 1: latest checkpoint + WAL suffix.
    let suffix = CentralServer::recover(
        scheme.clone(),
        signer.clone(),
        Arc::new(image.crash_image()) as Arc<dyn Vfs>,
        config,
    )
    .expect("checkpoint+suffix recovery");

    // Path 2: rewind the checkpoint directory to its post-DDL state so
    // recovery must replay the full WAL from seq 0.
    let full: MemVfs = image.crash_image();
    for name in full.list().unwrap() {
        if name.starts_with("ckpt-") {
            full.remove(&name).unwrap();
        }
    }
    for (name, bytes) in &post_ddl {
        full.set_durable(name, bytes.clone());
    }
    let replayed = CentralServer::recover(scheme, signer, Arc::new(full) as Arc<dyn Vfs>, config)
        .expect("full-WAL recovery");

    let want = control.encode_state();
    assert_eq!(
        suffix.encode_state(),
        want,
        "checkpoint+suffix recovery diverged from control"
    );
    assert_eq!(
        replayed.encode_state(),
        want,
        "full-WAL recovery diverged from control"
    );
}

/// The three entry points one logical update can take to the engine.
const ENTRIES: [&str; 3] = [
    "insert/delete/delete_range",
    "execute_update_batch",
    "commit_txn",
];

fn commit_via<S: DurableScheme>(
    central: &mut CentralServer<S>,
    entry: usize,
    op: UpdateOp,
) -> Option<Commit<S::Delta>>
where
    S::Store: Clone,
{
    match entry {
        0 => match op {
            UpdateOp::Insert(t) => central.insert(TABLE, t),
            UpdateOp::Delete(k) => central.delete(TABLE, k),
            UpdateOp::DeleteRange(lo, hi) => central.delete_range(TABLE, lo, hi),
        }
        .ok()
        .map(Commit::Batch),
        1 => central
            .execute_update_batch(TABLE, vec![op])
            .ok()
            .map(Commit::Batch),
        _ => {
            let mut txn = central.begin_txn();
            txn.stage(TABLE, op);
            central.commit_txn(txn).ok().map(Commit::Txn)
        }
    }
}

/// Commit `ops` once per entry point, each central feeding its own
/// replica through `codec` (encode, then decode), and compare the store
/// bytes of all six after every op.
fn check_entry_points<S: DurableScheme + Clone>(
    scheme: S,
    ops: &[Op],
    codec: impl Fn(&S, &Commit<S::Delta>) -> Commit<S::Delta>,
) where
    S::Store: Clone,
{
    let signer: Arc<dyn Signer> = Arc::new(MockSigner::new(41));
    let table = WorkloadSpec {
        table: TABLE.into(),
        ..WorkloadSpec::new(8, 2, 8)
    }
    .build();
    let schema = table.schema().clone();
    let mut sides: Vec<(CentralServer<S>, EdgeServer<S>)> = ENTRIES
        .iter()
        .map(|_| {
            let mut central = CentralServer::with_scheme(scheme.clone(), signer.clone());
            central.create_table(table.clone());
            let mut edge = EdgeServer::new(scheme.clone());
            let store = central.store(TABLE).expect("just created").clone();
            edge.install_table(TABLE, schema.clone(), store);
            (central, edge)
        })
        .collect();
    for op in ops {
        let op = match op {
            Op::Insert(k) => UpdateOp::Insert(tuple(&schema, *k)),
            Op::Delete(k) => UpdateOp::Delete(*k),
            Op::DeleteRange(lo, hi) => UpdateOp::DeleteRange(*lo, *hi),
            _ => continue,
        };
        let mut stores = Vec::new();
        for (entry, (central, edge)) in sides.iter_mut().enumerate() {
            let committed = commit_via(central, entry, op.clone());
            if let Some(commit) = &committed {
                edge.apply_commit(&codec(&scheme, commit))
                    .unwrap_or_else(|e| panic!("{}: replica refused {op:?}: {e}", ENTRIES[entry]));
            }
            stores.push((
                committed.is_some(),
                central.delta_log().next_seq(),
                scheme.encode_store(central.store(TABLE).expect("table exists")),
                scheme.encode_store(&edge.store(TABLE).expect("replica exists")),
            ));
        }
        for (entry, side) in stores.iter().enumerate() {
            assert!(
                side.2 == side.3,
                "{}: replica diverged on {op:?}",
                ENTRIES[entry]
            );
            assert!(
                *side == stores[0],
                "{} and {} disagree on {op:?}",
                ENTRIES[entry],
                ENTRIES[0]
            );
        }
    }
}

/// The scheme-generic byte codec for a commit: its WAL record.
fn wal_codec<S: DurableScheme>(scheme: &S, commit: &Commit<S::Delta>) -> Commit<S::Delta> {
    match decode_wal_record(scheme, &encode_wal_commit(scheme, 0, commit)) {
        Ok(WalRecord::Commit { commit, .. }) => commit,
        _ => panic!("a commit record decodes to a commit"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn entry_points_commit_identically(ops in proptest::collection::vec(arb_op(), 1..25)) {
        // The VB-tree's replication envelopes (`VBX3` / `VBX7`) …
        let vb = VbScheme::<4>::new(Acc256::test_default(), VbTreeConfig::with_fanout(6));
        check_entry_points(vb.clone(), &ops, |s, c| {
            commit_from_msg(&commit_to_msg(c), &s.acc).expect("envelope roundtrip")
        });
        // … and the WAL record, the one codec every scheme has.
        check_entry_points(vb, &ops, wal_codec);
        check_entry_points(NaiveScheme::<4>::new(Acc256::test_default()), &ops, wal_codec);
        check_entry_points(MerkleScheme, &ops, wal_codec);
    }

    #[test]
    fn recovery_is_path_independent(
        ops in proptest::collection::vec(arb_op(), 1..25),
        checkpoint_every in 1u64..8,
    ) {
        check_scheme(
            VbScheme::<4>::new(Acc256::test_default(), VbTreeConfig::with_fanout(6)),
            &ops,
            checkpoint_every,
        );
        check_scheme(NaiveScheme::<4>::new(Acc256::test_default()), &ops, checkpoint_every);
        check_scheme(MerkleScheme, &ops, checkpoint_every);
    }
}
