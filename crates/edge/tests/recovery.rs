//! Crash-matrix tests for the durable central: every fault-injection
//! point of [`FailpointFs`] is driven against a scripted update
//! workload, the victim's surviving disk image is recovered, and the
//! recovered server must be **byte-identical** (via `encode_state`) to
//! a never-crashed control that executed some prefix of the script —
//! a prefix containing at least every commit the victim acked before
//! the crash (append-before-ack: an acked commit is never lost).
//!
//! Also covered: clock monotonicity across restart (a recovered server
//! never issues a freshness stamp that rewinds `(seq, clock)`), key
//! rotation straddling a crash, torn-checkpoint fallback, and the
//! cluster's resubscription path — edges keep their cursors across a
//! central crash and observe no gaps or duplicate sequence numbers.

use std::sync::Arc;
use vbx_baselines::{MerkleScheme, NaiveScheme};
use vbx_core::{DurableScheme, VbScheme, VbTreeConfig};
use vbx_crypto::signer::MockSigner;
use vbx_crypto::{Acc256, Signer};
use vbx_edge::{
    CentralError, CentralServer, ClusterCoordinator, ClusterError, DurabilityConfig, UpdateOp,
};
use vbx_storage::wal::WAL_FILE;
use vbx_storage::workload::WorkloadSpec;
use vbx_storage::{FailPoint, FailpointFs, MemVfs, Schema, Tuple, Value, Vfs};

const TABLE: &str = "t0";
const TABLE2: &str = "t1";
const RETENTION: usize = 64;

fn spec() -> WorkloadSpec {
    WorkloadSpec {
        table: TABLE.into(),
        ..WorkloadSpec::new(8, 2, 8)
    }
}

fn spec2() -> WorkloadSpec {
    WorkloadSpec {
        table: TABLE2.into(),
        ..WorkloadSpec::new(8, 2, 8)
    }
}

fn vb() -> VbScheme<4> {
    VbScheme::new(Acc256::test_default(), VbTreeConfig::with_fanout(6))
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

/// One deterministic workload step, identical for victim and control.
#[derive(Clone, Debug)]
enum Step {
    Insert(u64),
    Delete(u64),
    /// Group-committed inserts: one WAL record, one fsync for the run.
    Batch(Vec<u64>),
    RangeDelete(u64, u64),
    Heartbeat,
    /// Atomic multi-table txn: each `(table_sel, key)` stages an insert
    /// on `t0` (sel 0) or `t1` (sel 1); the whole list commits as ONE
    /// txn WAL record.
    Txn(Vec<(u8, u64)>),
}

fn script() -> Vec<Step> {
    use Step::*;
    vec![
        Insert(100),
        Insert(101),
        Heartbeat,
        Batch(vec![102, 103, 104]),
        Delete(100),
        Insert(105),
        Heartbeat,
        RangeDelete(0, 3),
        Batch(vec![106, 107]),
        Txn(vec![(0, 140), (1, 141), (0, 142), (1, 143)]),
        Insert(108),
        Delete(101),
        Txn(vec![(1, 150), (0, 151)]),
        Insert(109),
        Heartbeat,
        Insert(110),
    ]
}

fn run_step<S: DurableScheme>(
    central: &mut CentralServer<S>,
    step: &Step,
) -> Result<(), CentralError<S::Error>>
where
    S::Store: Clone,
{
    let schema = central.schema(TABLE).expect("table exists").clone();
    match step {
        Step::Insert(k) => central.insert(TABLE, tuple(&schema, *k)).map(drop),
        Step::Delete(k) => central.delete(TABLE, *k).map(drop),
        Step::Batch(keys) => central
            .execute_update_batch(
                TABLE,
                keys.iter()
                    .map(|k| UpdateOp::Insert(tuple(&schema, *k)))
                    .collect(),
            )
            .map(drop),
        Step::RangeDelete(lo, hi) => central.delete_range(TABLE, *lo, *hi).map(drop),
        Step::Heartbeat => {
            central.heartbeat();
            Ok(())
        }
        Step::Txn(stages) => {
            let schema2 = central.schema(TABLE2).expect("table exists").clone();
            let mut txn = central.begin_txn();
            for (sel, k) in stages {
                let (name, schema) = match sel {
                    0 => (TABLE, &schema),
                    _ => (TABLE2, &schema2),
                };
                txn.stage(name, UpdateOp::Insert(tuple(schema, *k)));
            }
            central.commit_txn(txn).map(drop)
        }
    }
}

fn config() -> DurabilityConfig {
    DurabilityConfig {
        checkpoint_every: 5,
        retain_wal: false,
    }
}

/// Every fault-injection point the matrix drives, at several script
/// depths. `keep` values slice a WAL record's frame at the length
/// prefix (4), inside the checksum (6), and inside the payload (20).
fn matrix_points() -> Vec<FailPoint> {
    vec![
        FailPoint::BeforeAppend { file: "wal".into() },
        FailPoint::TornAppend {
            file: "wal".into(),
            keep: 0,
        },
        FailPoint::TornAppend {
            file: "wal".into(),
            keep: 4,
        },
        FailPoint::TornAppend {
            file: "wal".into(),
            keep: 6,
        },
        FailPoint::TornAppend {
            file: "wal".into(),
            keep: 20,
        },
        // Deep into a txn record's payload — between per-table
        // sections of the txn, proving a torn multi-table append never
        // recovers a table subset.
        FailPoint::TornAppend {
            file: "wal".into(),
            keep: 150,
        },
        FailPoint::AfterAppend { file: "wal".into() },
        FailPoint::BeforeSync { file: "wal".into() },
        FailPoint::TornAtomicWrite {
            file: "ckpt".into(),
            keep: 0,
            replace_with_garbage: false,
        },
        FailPoint::TornAtomicWrite {
            file: "ckpt".into(),
            keep: 40,
            replace_with_garbage: true,
        },
        FailPoint::BeforeTruncate { file: "wal".into() },
        FailPoint::BeforeTruncate {
            file: "ckpt".into(),
        },
    ]
}

/// Run one crash case: execute the script with `point` armed at step
/// `arm_at`, crash, recover from the surviving image, and check the
/// recovered state against a never-crashed control.
fn run_case<S: DurableScheme + Clone>(scheme: S, label: &str, arm_at: usize, point: &FailPoint)
where
    S::Store: Clone,
{
    let ctx = format!("[{label} {point:?} arm@{arm_at}]");
    let signer: Arc<dyn Signer> = Arc::new(MockSigner::new(7));
    let fps = Arc::new(FailpointFs::new());
    let mut victim = CentralServer::with_scheme(scheme.clone(), signer.clone())
        .with_delta_retention(RETENTION)
        .with_durability(fps.clone(), config())
        .expect("durability init");
    victim.create_table(spec().build());
    victim.create_table(spec2().build());

    // Drive the script until the process dies or durability poisons.
    // `acked` tracks the owner position after each *delivered* ack — a
    // result that raced the crash was never delivered to anyone.
    let mut acked: Option<(usize, (u64, u64))> = None;
    for (i, step) in script().iter().enumerate() {
        if i == arm_at {
            fps.arm(point.clone());
        }
        let result = run_step(&mut victim, step);
        if fps.is_crashed() {
            break;
        }
        match result {
            Ok(()) => acked = Some((i, victim.owner_position())),
            Err(_) => break,
        }
    }
    fps.kill(); // if the point never tripped, die between steps
    drop(victim);

    // Recover from exactly what was durable.
    let image = Arc::new(fps.crash_image());
    let recovered = CentralServer::recover(
        scheme.clone(),
        signer.clone(),
        image.clone() as Arc<dyn Vfs>,
        config(),
    )
    .unwrap_or_else(|e| panic!("{ctx} recovery failed: {e}"));
    let target = recovered.encode_state();

    // The recovered state must equal a never-crashed control after
    // some script prefix…
    let mut control =
        CentralServer::with_scheme(scheme.clone(), signer.clone()).with_delta_retention(RETENTION);
    control.create_table(spec().build());
    control.create_table(spec2().build());
    let mut matched = (control.encode_state() == target).then_some(0usize);
    for (i, step) in script().iter().enumerate() {
        if matched.is_some() {
            break;
        }
        run_step(&mut control, step).expect("control never fails");
        if control.encode_state() == target {
            matched = Some(i + 1);
        }
    }
    let matched =
        matched.unwrap_or_else(|| panic!("{ctx} recovered state matches no script prefix"));

    // …and that prefix contains every acked commit (append-before-ack),
    // at a position that never rewinds below the last acked stamp.
    if let Some((last_idx, position)) = acked {
        assert!(
            matched > last_idx,
            "{ctx} acked step {last_idx} missing from recovered state (prefix {matched})"
        );
        assert!(
            recovered.owner_position() >= position,
            "{ctx} recovered position {:?} rewinds below acked {position:?}",
            recovered.owner_position()
        );
    }

    // The recovered server keeps committing durably: finish the script
    // on both sides and the states stay byte-identical.
    let mut recovered = recovered;
    for step in &script()[matched..] {
        run_step(&mut recovered, step).unwrap_or_else(|e| panic!("{ctx} post-recovery: {e}"));
        run_step(&mut control, step).expect("control never fails");
    }
    assert_eq!(
        recovered.encode_state(),
        control.encode_state(),
        "{ctx} post-recovery commits diverged from control"
    );

    // And a second crash right now loses nothing: everything the
    // recovered server acked is durable again.
    let twice = CentralServer::recover(
        scheme,
        signer,
        Arc::new(image.crash_image()) as Arc<dyn Vfs>,
        config(),
    )
    .unwrap_or_else(|e| panic!("{ctx} second recovery failed: {e}"));
    assert_eq!(
        twice.encode_state(),
        recovered.encode_state(),
        "{ctx} second crash+recovery diverged"
    );
}

fn crash_matrix<S: DurableScheme + Clone>(scheme: S, label: &str)
where
    S::Store: Clone,
{
    // Arm points cover plain ops (0, 3, 7) and both txn steps (9, 12),
    // so every fault fires at least once inside a txn record's append.
    for point in &matrix_points() {
        for arm_at in [0, 3, 7, 9, 12] {
            run_case(scheme.clone(), label, arm_at, point);
        }
    }
}

#[test]
fn crash_matrix_vb() {
    crash_matrix(vb(), "vb");
}

#[test]
fn crash_matrix_naive() {
    crash_matrix(NaiveScheme::<4>::new(Acc256::test_default()), "naive");
}

#[test]
fn crash_matrix_merkle() {
    crash_matrix(MerkleScheme, "merkle");
}

#[test]
fn clock_never_rewinds_across_recovery() {
    // Heartbeats advance only the clock; they are WAL-logged so a
    // restart cannot issue a stamp below one already handed out.
    let signer: Arc<dyn Signer> = Arc::new(MockSigner::new(11));
    let fps = Arc::new(FailpointFs::new());
    let mut central = CentralServer::with_scheme(vb(), signer.clone())
        .with_delta_retention(RETENTION)
        .with_durability(fps.clone(), config())
        .expect("durability init");
    central.create_table(spec().build());
    let schema = central.schema(TABLE).unwrap().clone();
    central.insert(TABLE, tuple(&schema, 500)).unwrap();
    for _ in 0..5 {
        central.heartbeat();
    }
    let last = central.heartbeat();
    fps.kill();

    let mut recovered = CentralServer::recover(
        vb(),
        signer,
        Arc::new(fps.crash_image()) as Arc<dyn Vfs>,
        config(),
    )
    .expect("recovery");
    let (seq, clock) = recovered.owner_position();
    assert!(
        (seq, clock) >= (last.seq, last.clock),
        "recovered position ({seq}, {clock}) rewinds below issued stamp ({}, {})",
        last.seq,
        last.clock
    );
    let fresh = recovered.heartbeat();
    assert!(
        (fresh.seq, fresh.clock) > (last.seq, last.clock),
        "post-recovery stamp rewinds"
    );
}

#[test]
fn key_rotation_survives_recovery() {
    // rotate_key is DDL: it forces a checkpoint under the new key, so
    // recovery with the new signer reproduces the rotated state.
    let v1: Arc<dyn Signer> = Arc::new(MockSigner::with_version(13, 1));
    let v2: Arc<dyn Signer> = Arc::new(MockSigner::with_version(13, 2));
    let fps = Arc::new(FailpointFs::new());
    let mut central = CentralServer::with_scheme(vb(), v1.clone())
        .with_delta_retention(RETENTION)
        .with_durability(fps.clone(), config())
        .expect("durability init");
    central.create_table(spec().build());
    let schema = central.schema(TABLE).unwrap().clone();
    central.insert(TABLE, tuple(&schema, 300)).unwrap();
    central.rotate_key(v2.clone());
    central.insert(TABLE, tuple(&schema, 301)).unwrap();
    fps.kill();

    let recovered = CentralServer::recover(
        vb(),
        v2.clone(),
        Arc::new(fps.crash_image()) as Arc<dyn Vfs>,
        config(),
    )
    .expect("recovery under rotated key");
    let mut control = CentralServer::with_scheme(vb(), v1).with_delta_retention(RETENTION);
    control.create_table(spec().build());
    control.insert(TABLE, tuple(&schema, 300)).unwrap();
    control.rotate_key(v2.clone());
    control.insert(TABLE, tuple(&schema, 301)).unwrap();
    assert_eq!(recovered.encode_state(), control.encode_state());

    // The old signer cannot recover the rotated state.
    let wrong: Arc<dyn Signer> = Arc::new(MockSigner::with_version(13, 1));
    assert!(CentralServer::<VbScheme<4>>::recover(
        vb(),
        wrong,
        Arc::new(fps.crash_image()) as Arc<dyn Vfs>,
        config(),
    )
    .is_err());
}

#[test]
fn cluster_resubscribes_without_gaps_or_duplicates() {
    // Crash the central *between commit and fan-out*: the commit is
    // durable (WAL) but no edge ever saw it. After recovery the edges
    // keep their cursors (adopt_central) and the resumed subscription
    // delivers exactly the missing range — no gap, no re-delivery.
    let signer: Arc<dyn Signer> = Arc::new(MockSigner::new(17));
    let fps = Arc::new(FailpointFs::new());
    let central = CentralServer::with_scheme(vb(), signer.clone())
        .with_delta_retention(RETENTION)
        .with_durability(fps.clone(), config())
        .expect("durability init");
    let mut cluster = ClusterCoordinator::from_central(central, 2);
    cluster.create_table(spec().build());
    let schema = cluster.central().schema(TABLE).unwrap().clone();

    for k in [200, 201, 202] {
        cluster.insert(TABLE, tuple(&schema, k)).unwrap();
    }
    cluster
        .update_batch(
            TABLE,
            vec![
                UpdateOp::Insert(tuple(&schema, 203)),
                UpdateOp::Insert(tuple(&schema, 204)),
            ],
        )
        .unwrap();
    cluster.sync().expect("edges drain");
    let before = cluster.lag_report();
    assert!(before.iter().all(|l| l.lag == 0));

    // Commit at the central only — the fan-out never happens.
    cluster
        .central_mut()
        .insert(TABLE, tuple(&schema, 205))
        .unwrap();
    let head_before_crash = cluster.central().delta_log().next_seq();
    fps.kill();

    let recovered = CentralServer::recover(
        vb(),
        signer.clone(),
        Arc::new(fps.crash_image()) as Arc<dyn Vfs>,
        config(),
    )
    .expect("recovery");
    assert_eq!(
        recovered.delta_log().next_seq(),
        head_before_crash,
        "durable commit missing after recovery"
    );

    cluster.adopt_central(recovered).expect("cursors intact");
    cluster.sync().expect("resubscription drains cleanly");
    let after = cluster.lag_report();
    for lag in &after {
        assert_eq!(lag.lag, 0, "edge {} not caught up", lag.edge);
        assert_eq!(
            lag.applied_seq, head_before_crash,
            "edge {} position wrong after resubscription",
            lag.edge
        );
    }
    // An out-of-order or duplicate delta would have tripped the edge's
    // replay guard (`OutOfOrder`) during sync — a clean drain plus the
    // exact head position is the no-gap/no-duplicate proof.

    // Adopting a central whose history rolled back must be refused.
    let mut stale = CentralServer::with_scheme(vb(), signer).with_delta_retention(RETENTION);
    stale.create_table(spec().build());
    assert!(matches!(
        cluster.adopt_central(stale),
        Err(ClusterError::RolledBack { .. })
    ));
}

#[test]
fn torn_commit_txn_never_recovers_a_table_subset() {
    // Direct all-or-nothing proof: a txn touching t0 AND t1 whose
    // single WAL append tears at any offset — before, inside
    // the checksum, inside section one, between sections, or at the
    // very end — recovers either with BOTH tables advanced or with
    // NEITHER. A recovered image holding the t0 keys without the t1
    // keys (or vice versa) would be exactly the partial-flush bug the
    // txn protocol exists to kill.
    for keep in [0usize, 4, 6, 20, 80, 150, 300] {
        let ctx = format!("[torn txn keep={keep}]");
        let signer: Arc<dyn Signer> = Arc::new(MockSigner::new(29));
        let fps = Arc::new(FailpointFs::new());
        let mut central = CentralServer::with_scheme(vb(), signer.clone())
            .with_delta_retention(RETENTION)
            .with_durability(fps.clone(), config())
            .expect("durability init");
        central.create_table(spec().build());
        central.create_table(spec2().build());
        let s0 = central.schema(TABLE).unwrap().clone();
        let s1 = central.schema(TABLE2).unwrap().clone();

        // A fully durable baseline txn first, so recovery has a real
        // committed txn to replay in front of the torn one.
        let mut base = central.begin_txn();
        base.stage(TABLE, UpdateOp::Insert(tuple(&s0, 400)))
            .stage(TABLE2, UpdateOp::Insert(tuple(&s1, 401)));
        central.commit_txn(base).expect("baseline txn");

        fps.arm(FailPoint::TornAppend {
            file: "wal".into(),
            keep,
        });
        let mut doomed = central.begin_txn();
        doomed
            .stage(TABLE, UpdateOp::Insert(tuple(&s0, 410)))
            .stage(TABLE2, UpdateOp::Insert(tuple(&s1, 411)))
            .stage(TABLE, UpdateOp::Insert(tuple(&s0, 412)));
        let _ = central.commit_txn(doomed); // dies at the append
        drop(central);

        let recovered = CentralServer::recover(
            vb(),
            signer,
            Arc::new(fps.crash_image()) as Arc<dyn Vfs>,
            config(),
        )
        .unwrap_or_else(|e| panic!("{ctx} recovery failed: {e}"));

        // The baseline txn is acked and fully durable on both tables.
        let t0 = recovered.store(TABLE).unwrap();
        let t1 = recovered.store(TABLE2).unwrap();
        assert!(t0.get(400).is_some(), "{ctx} baseline t0 key lost");
        assert!(t1.get(401).is_some(), "{ctx} baseline t1 key lost");

        // The torn txn is all-or-nothing across tables.
        let t0_in = t0.get(410).is_some() && t0.get(412).is_some();
        let t1_in = t1.get(411).is_some();
        assert_eq!(
            t0_in, t1_in,
            "{ctx} recovered a table subset of the torn txn (t0={t0_in}, t1={t1_in})"
        );
        // And the log position agrees with whichever side survived.
        let expect_seq = if t0_in { 5 } else { 2 };
        assert_eq!(
            recovered.delta_log().next_seq(),
            expect_seq,
            "{ctx} log head disagrees with recovered stores"
        );
    }
}

#[test]
fn failed_commit_txn_rolls_back_to_the_byte() {
    // A txn's undo is each store's own atomic batch plus snapshots of
    // the runs already swept: after a conflict anywhere in the txn the
    // full recoverable state, the WAL and the delta log must be exactly
    // what they were, and the next valid txn must land where it would
    // have.
    let durable = || {
        let signer: Arc<dyn Signer> = Arc::new(MockSigner::new(31));
        let vfs = Arc::new(MemVfs::new());
        let mut central = CentralServer::with_scheme(vb(), signer)
            .with_delta_retention(RETENTION)
            .with_durability(vfs.clone(), config())
            .expect("durability init");
        central.create_table(spec().build());
        central.create_table(spec2().build());
        (central, vfs)
    };
    let (mut central, vfs) = durable();
    let (mut control, _) = durable();
    let s0 = central.schema(TABLE).unwrap().clone();
    let s1 = central.schema(TABLE2).unwrap().clone();
    let ins = |schema: &Schema, key| UpdateOp::Insert(tuple(schema, key));
    // Rows 0..8 exist in both tables.
    let doomed: [(&str, Vec<(&str, UpdateOp)>); 3] = [
        (
            "duplicate key in the second table's section",
            vec![
                (TABLE, ins(&s0, 600)),
                (TABLE, UpdateOp::Delete(1)),
                (TABLE2, ins(&s1, 601)),
                (TABLE2, ins(&s1, 2)),
            ],
        ),
        (
            "missing key after earlier ops of its table applied",
            vec![
                (TABLE2, ins(&s1, 610)),
                (TABLE, ins(&s0, 611)),
                (TABLE, UpdateOp::Delete(3)),
                (TABLE, UpdateOp::Delete(999)),
            ],
        ),
        (
            "range delete followed by a failing op",
            vec![(TABLE, UpdateOp::DeleteRange(0, 5)), (TABLE, ins(&s0, 6))],
        ),
    ];
    for (what, stages) in doomed {
        let before = (
            central.encode_state(),
            vfs.read(WAL_FILE).expect("readable WAL"),
            central.delta_log().len(),
            central.delta_log().next_seq(),
        );
        let mut txn = central.begin_txn();
        for (table, op) in stages {
            txn.stage(table, op);
        }
        let err = central.commit_txn(txn).expect_err(what);
        assert!(matches!(err, CentralError::Scheme(_)), "{what}: {err}");
        let after = (
            central.encode_state(),
            vfs.read(WAL_FILE).expect("readable WAL"),
            central.delta_log().len(),
            central.delta_log().next_seq(),
        );
        assert!(before == after, "{what}: the failed txn left a trace");

        // The next valid txn commits at the seq, and to the bytes, of a
        // control that never saw the doomed one.
        let key = 700 + central.delta_log().next_seq();
        for server in [&mut central, &mut control] {
            let mut txn = server.begin_txn();
            txn.stage(TABLE, ins(&s0, key))
                .stage(TABLE2, ins(&s1, key + 1));
            let committed = server.commit_txn(txn).expect("valid txn");
            assert_eq!(committed.start_seq(), before.3, "{what}: seq moved");
        }
        assert!(
            central.encode_state() == control.encode_state(),
            "{what}: diverged from the control after the next commit"
        );
    }
}

#[test]
fn checkpoint_of_another_version_is_refused_and_kept() {
    // A torn checkpoint is deleted and recovery falls back; an intact
    // one of another format version must not be, or recovering a
    // directory written by an older build would destroy its only
    // checkpoint.
    let vfs = Arc::new(MemVfs::new());
    let mut old = b"VCKP1\x00".to_vec();
    old.extend_from_slice(&[0, 0, 16, 0, 0, 0, 0, 1, 0xDE, 0xAD, 0xBE, 0xEF]);
    old.resize(old.len() + 4096, 0);
    let name = format!("ckpt-{:020}", 0);
    vfs.write_atomic(&name, &old).unwrap();
    let signer: Arc<dyn Signer> = Arc::new(MockSigner::new(41));
    let err = match CentralServer::recover(vb(), signer, vfs.clone(), config()) {
        Ok(_) => panic!("an old-format checkpoint must not recover"),
        Err(e) => e,
    };
    assert!(
        matches!(&err, CentralError::Durability(e) if e.to_string().contains("version 1")),
        "the refusal names the version, got {err}"
    );
    assert_eq!(vfs.list().unwrap(), vec![name.clone()], "the file stays");
    assert_eq!(vfs.read(&name).unwrap(), Some(old));

    // A torn current-format file next to it still falls back to it —
    // and so reaches the refusal, rather than deleting both.
    let torn = format!("ckpt-{:020}", 9);
    vfs.write_atomic(&torn, b"VCKP2\x00\x00").unwrap();
    let signer: Arc<dyn Signer> = Arc::new(MockSigner::new(41));
    assert!(CentralServer::recover(vb(), signer, vfs.clone(), config()).is_err());
    assert_eq!(vfs.list().unwrap(), vec![name]);
}

/// Lower-case hex SHA-256, for the byte pins below.
fn sha256_hex(bytes: &[u8]) -> String {
    let digest = vbx_crypto::hash::sha256(bytes);
    digest.iter().map(|b| format!("{b:02x}")).collect()
}

#[test]
fn commit_bytes_are_pinned() {
    // A fixed script of batches and txns on `VbScheme<4>` under the
    // RSA-512 fixture key (deterministic signatures). The WAL file and
    // the two envelopes hash to the values measured before the commit
    // engines were merged. The state was re-pinned when the checkpoint
    // became one flat `VCKP2` buffer without a row mirror; the
    // checkpoint file is exactly `encode_state()`, so both pins agree.
    let signer: Arc<dyn Signer> = Arc::new(vbx_crypto::rsa::fixture_keypair_crt_512());
    let vfs = Arc::new(MemVfs::new());
    let config = DurabilityConfig {
        checkpoint_every: 0,
        retain_wal: true,
    };
    let mut central = CentralServer::with_scheme(vb(), signer)
        .with_delta_retention(RETENTION)
        .with_durability(vfs.clone(), config)
        .expect("durability init");
    central.create_table(spec().build());
    central.create_table(spec2().build());
    let s0 = central.schema(TABLE).unwrap().clone();
    let s1 = central.schema(TABLE2).unwrap().clone();
    let ins = |schema: &Schema, key| UpdateOp::Insert(tuple(schema, key));

    let mut envelopes = Vec::new();
    let mut batch = |central: &mut CentralServer<VbScheme<4>>, ops| {
        let batch = central.execute_update_batch(TABLE, ops).expect("batch");
        envelopes.extend_from_slice(&vbx_core::encode_delta_batch(&batch));
    };
    batch(
        &mut central,
        vec![ins(&s0, 100), ins(&s0, 101), ins(&s0, 102)],
    );
    batch(&mut central, vec![ins(&s0, 103)]);
    central.heartbeat();
    batch(
        &mut central,
        vec![UpdateOp::Delete(100), UpdateOp::DeleteRange(0, 3)],
    );
    let mut txn = |central: &mut CentralServer<VbScheme<4>>, stages: Vec<(&str, UpdateOp)>| {
        let mut txn = central.begin_txn();
        for (table, op) in stages {
            txn.stage(table, op);
        }
        let txn = central.commit_txn(txn).expect("txn");
        envelopes.extend_from_slice(&vbx_core::encode_txn_batch(&txn));
    };
    txn(
        &mut central,
        vec![
            (TABLE, ins(&s0, 140)),
            (TABLE2, ins(&s1, 141)),
            (TABLE, UpdateOp::Delete(101)),
            (TABLE2, UpdateOp::Delete(5)),
        ],
    );
    txn(
        &mut central,
        vec![(TABLE2, ins(&s1, 150)), (TABLE2, ins(&s1, 151))],
    );

    let wal = vfs
        .read(WAL_FILE)
        .expect("readable WAL")
        .expect("WAL exists");
    let state = central.encode_state();
    central.checkpoint().expect("checkpoint");
    let ckpt_name = vfs
        .list()
        .unwrap()
        .into_iter()
        .rfind(|n| n.starts_with("ckpt-"))
        .expect("a checkpoint file");
    let ckpt = vfs.read(&ckpt_name).unwrap().expect("checkpoint exists");
    let got = [
        ("WAL file", sha256_hex(&wal)),
        ("encode_state()", sha256_hex(&state)),
        ("checkpoint image", sha256_hex(&ckpt)),
        ("VBX3 + VBX7 envelopes", sha256_hex(&envelopes)),
    ];
    let want = [
        "bb513bfdece7d938235cafec69058ee1240726af11e2db4b050ca49aecb93dfa",
        "baba8b6fce453fc810ab93781203f27eb9a2d936d3e7dfff68b1da51a3febf80",
        "baba8b6fce453fc810ab93781203f27eb9a2d936d3e7dfff68b1da51a3febf80",
        "63dfee3111c8e37c4d611bfaade9a24b0db34472ef9bb0a74f861e19b293c4bd",
    ];
    for ((what, got), want) in got.iter().zip(want) {
        assert_eq!(got, want, "{what} moved");
    }
}

/// The three ways one logical update reaches the commit engine.
#[derive(Clone, Copy, Debug)]
enum Entry {
    /// `insert` / `delete`: the doomed op alone, a batch of one.
    SingleOp,
    /// `execute_update_batch`: a valid op, then the doomed one.
    Batch,
    /// `commit_txn`: a valid op on `t1`, then the doomed one on `t0`.
    Txn,
}

fn commit_via<S: DurableScheme>(
    central: &mut CentralServer<S>,
    entry: Entry,
    valid: UpdateOp,
    last: UpdateOp,
) -> Result<(), CentralError<S::Error>>
where
    S::Store: Clone,
{
    match entry {
        Entry::SingleOp => match last {
            UpdateOp::Insert(t) => central.insert(TABLE, t).map(drop),
            UpdateOp::Delete(k) => central.delete(TABLE, k).map(drop),
            UpdateOp::DeleteRange(lo, hi) => central.delete_range(TABLE, lo, hi).map(drop),
        },
        Entry::Batch => central
            .execute_update_batch(TABLE, vec![valid, last])
            .map(drop),
        Entry::Txn => {
            let mut txn = central.begin_txn();
            txn.stage(TABLE2, valid).stage(TABLE, last);
            central.commit_txn(txn).map(drop)
        }
    }
}

/// Every entry point refuses a bad op through the store's own atomic
/// batch, with no trace: the store is the only copy of its rows, so
/// each scheme must refuse a mistyped row itself (the Naive and Merkle
/// stores type-check inserted rows) before anything mutates.
fn refused_commits_leave_no_trace<S: DurableScheme + Clone>(scheme: S, label: &str)
where
    S::Store: Clone,
{
    let durable = || {
        let signer: Arc<dyn Signer> = Arc::new(MockSigner::new(37));
        let vfs = Arc::new(MemVfs::new());
        let mut central = CentralServer::with_scheme(scheme.clone(), signer)
            .with_delta_retention(RETENTION)
            .with_durability(vfs.clone(), config())
            .expect("durability init");
        central.create_table(spec().build());
        central.create_table(spec2().build());
        (central, vfs)
    };
    for entry in [Entry::SingleOp, Entry::Batch, Entry::Txn] {
        let (mut central, vfs) = durable();
        let (mut control, _) = durable();
        let s0 = central.schema(TABLE).unwrap().clone();
        let s1 = central.schema(TABLE2).unwrap().clone();
        let ins = |schema: &Schema, key| UpdateOp::Insert(tuple(schema, key));
        // The valid op goes to the table `commit_via` pairs it with.
        let valid = |key| match entry {
            Entry::Txn => ins(&s1, key),
            _ => ins(&s0, key),
        };
        // `t0` is (text, int): this row has the columns swapped.
        let mistyped = Tuple {
            key: 900,
            values: vec![Value::from(7i64), Value::from("swapped")],
        };
        // Rows 0..8 exist in both tables.
        let doomed = [
            ("type-mismatched row", UpdateOp::Insert(mistyped)),
            ("duplicate key", ins(&s0, 2)),
            ("missing key", UpdateOp::Delete(999)),
        ];
        for (what, op) in doomed {
            let ctx = format!("[{label} {entry:?} {what}]");
            let before = (
                central.encode_state(),
                vfs.read(WAL_FILE).expect("readable WAL"),
                central.delta_log().next_seq(),
            );
            let err = commit_via(&mut central, entry, valid(800 + before.2), op).expect_err(&ctx);
            assert!(
                matches!(err, CentralError::Scheme(_)),
                "{ctx} every entry point reports the store's error, got {err}"
            );
            let after = (
                central.encode_state(),
                vfs.read(WAL_FILE).expect("readable WAL"),
                central.delta_log().next_seq(),
            );
            assert!(before == after, "{ctx} the refused commit left a trace");

            // The next valid commit lands at the seq, and to the bytes,
            // of a control that never saw the refused one.
            for server in [&mut central, &mut control] {
                let key = 600 + before.2;
                commit_via(server, entry, valid(key + 100), ins(&s0, key))
                    .unwrap_or_else(|e| panic!("{ctx} valid commit: {e}"));
            }
            assert!(
                central.encode_state() == control.encode_state(),
                "{ctx} diverged from the control after the next commit"
            );
        }
    }
}

#[test]
fn refused_commits_leave_no_trace_on_any_entry_point() {
    refused_commits_leave_no_trace(vb(), "vb");
    refused_commits_leave_no_trace(NaiveScheme::<4>::new(Acc256::test_default()), "naive");
    refused_commits_leave_no_trace(MerkleScheme, "merkle");
}
