//! The transaction benchmark behind `repro -- txn`: measures what the
//! single-record atomic multi-table commit costs on the write path
//! (one checksummed txn-record WAL fsync for the whole txn vs k
//! separate single-table group commits), then crash-recovers and
//! proves two invariants that CI gates on through the committed file:
//! recovery divergences = 0 (the recovered server is byte-identical to
//! a never-crashed control) and partial flushes observed = 0 (no txn
//! is ever half-visible — each txn's keys are present in *all* of its
//! tables or in none).
//!
//! Runs against a real directory ([`DiskVfs`]) so the fsyncs are real;
//! the directory is removed afterwards.

use crate::perf::BenchRecord;
use std::sync::Arc;
use std::time::Instant;
use vbx_core::{VbScheme, VbTreeConfig};
use vbx_crypto::signer::MockSigner;
use vbx_crypto::{Acc256, Signer};
use vbx_edge::{CentralServer, DurabilityConfig, UpdateOp};
use vbx_storage::workload::WorkloadSpec;
use vbx_storage::{DiskVfs, Schema, Tuple, Value, Vfs};

const TABLES: [&str; 2] = ["t0", "t1"];
/// Inserts staged per table per txn.
const SECTION_OPS: u64 = 4;

fn tuple(schema: &Schema, key: u64) -> Tuple {
    Tuple::new(
        schema,
        key,
        vec![
            Value::from(format!("v{key:06}")),
            Value::from((key % 89) as i64),
        ],
    )
    .expect("schema-conformant tuple")
}

fn spec(table: &str, rows: u64) -> WorkloadSpec {
    WorkloadSpec {
        table: table.into(),
        ..WorkloadSpec::new(rows, 2, 8)
    }
}

fn durable_central(
    vfs: Arc<dyn Vfs>,
    rows: u64,
    config: DurabilityConfig,
) -> CentralServer<VbScheme<4>> {
    let signer: Arc<dyn Signer> = Arc::new(MockSigner::new(0xD2));
    let mut central = CentralServer::with_scheme(
        VbScheme::new(Acc256::test_default(), VbTreeConfig::with_fanout(16)),
        signer,
    )
    .with_delta_retention(1 << 20)
    .with_durability(vfs, config)
    .expect("durability init");
    for table in TABLES {
        central.create_table(spec(table, rows).build());
    }
    central
}

/// Run the transaction benchmark. Returns the trajectory records for
/// `BENCH_txn.json`; panics if the recovered state diverges from the
/// never-crashed control or any txn recovers as a table subset (both
/// are also reported as records so CI can gate on the committed file).
pub fn run_txn(rows: u64, smoke: bool) -> Vec<BenchRecord> {
    let root = std::env::temp_dir().join(format!("vbx-txn-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let txns: u64 = if smoke { 32 } else { 256 };
    let mut records = Vec::new();
    let config = DurabilityConfig {
        checkpoint_every: 0, // DDL-only: keep every commit in the WAL
        retain_wal: false,
    };
    let base = 1 << 20; // keys above the seeded rows

    // ---- write path: one txn-record fsync covers both tables --------
    let dir_txn = root.join("txn");
    let vfs: Arc<dyn Vfs> = Arc::new(DiskVfs::open(&dir_txn).expect("temp vfs"));
    let mut central = durable_central(vfs, rows, config);
    let schemas: Vec<Schema> = TABLES
        .iter()
        .map(|t| central.schema(t).expect("table").clone())
        .collect();
    let mut control = {
        let signer: Arc<dyn Signer> = Arc::new(MockSigner::new(0xD2));
        let mut c = CentralServer::with_scheme(
            VbScheme::new(Acc256::test_default(), VbTreeConfig::with_fanout(16)),
            signer,
        )
        .with_delta_retention(1 << 20);
        for table in TABLES {
            c.create_table(spec(table, rows).build());
        }
        c
    };
    let stage = |c: &mut CentralServer<VbScheme<4>>, i: u64| {
        let mut txn = c.begin_txn();
        for (t, schema) in TABLES.iter().zip(&schemas) {
            for j in 0..SECTION_OPS {
                txn.stage(
                    *t,
                    UpdateOp::Insert(tuple(schema, base + i * SECTION_OPS + j)),
                );
            }
        }
        c.commit_txn(txn).expect("txn commit");
    };
    let t0 = Instant::now();
    for i in 0..txns {
        stage(&mut central, i);
    }
    let txn_ns = t0.elapsed().as_nanos() as f64 / txns as f64;
    records.push(BenchRecord {
        op: "txn_commit".into(),
        n: txns,
        ns_per_op: txn_ns,
    });
    for i in 0..txns {
        stage(&mut control, i);
    }

    // ---- write path: the same ops as k per-table commits -----------
    // (one signing sweep + one fsync per table instead of one
    // txn record for the whole atom).
    let dir_split = root.join("split");
    let vfs: Arc<dyn Vfs> = Arc::new(DiskVfs::open(&dir_split).expect("temp vfs"));
    let mut split = durable_central(vfs, rows, config);
    let t0 = Instant::now();
    for i in 0..txns {
        for (t, schema) in TABLES.iter().zip(&schemas) {
            let batch = (0..SECTION_OPS)
                .map(|j| UpdateOp::Insert(tuple(schema, base + i * SECTION_OPS + j)))
                .collect();
            split.execute_update_batch(t, batch).expect("durable batch");
        }
    }
    let split_ns = t0.elapsed().as_nanos() as f64 / txns as f64;
    records.push(BenchRecord {
        op: "txn_split_commit".into(),
        n: txns,
        ns_per_op: split_ns,
    });
    drop(split);

    // ---- crash + recover: byte-identity and all-or-nothing ---------
    let expected = central.encode_state();
    drop(central);
    let vfs: Arc<dyn Vfs> = Arc::new(DiskVfs::open(&dir_txn).expect("temp vfs"));
    let signer: Arc<dyn Signer> = Arc::new(MockSigner::new(0xD2));
    let t0 = Instant::now();
    let recovered = CentralServer::recover(
        VbScheme::<4>::new(Acc256::test_default(), VbTreeConfig::with_fanout(16)),
        signer,
        vfs,
        config,
    )
    .expect("recovery");
    let replay_ns = t0.elapsed().as_nanos() as f64 / txns as f64;
    records.push(BenchRecord {
        op: "txn_recover_replay".into(),
        n: txns,
        ns_per_op: replay_ns,
    });

    let divergences = u64::from(recovered.encode_state() != expected)
        + u64::from(recovered.encode_state() != control.encode_state());
    assert_eq!(divergences, 0, "recovered state diverged from control");
    records.push(BenchRecord {
        op: "txn_divergences".into(),
        n: divergences,
        ns_per_op: 0.0,
    });

    // A txn that recovered in one table but not the other would be the
    // partial flush the txn record exists to rule out.
    let mut partial_flushes = 0u64;
    for i in 0..txns {
        for j in 0..SECTION_OPS {
            let key = base + i * SECTION_OPS + j;
            let present: Vec<bool> = TABLES
                .iter()
                .map(|t| recovered.store(t).expect("table").get(key).is_some())
                .collect();
            if present.iter().any(|p| *p) && !present.iter().all(|p| *p) {
                partial_flushes += 1;
            }
        }
    }
    assert_eq!(partial_flushes, 0, "a txn recovered as a table subset");
    records.push(BenchRecord {
        op: "txn_partial_flushes".into(),
        n: partial_flushes,
        ns_per_op: 0.0,
    });

    println!(
        "atomic txn commit (2 tables, 1 fsync):  {:>10.0} ns/txn",
        txn_ns
    );
    println!(
        "split per-table commits (2 fsyncs):     {:>10.0} ns/txn-equiv",
        split_ns
    );
    println!(
        "recovery replay: {txns} txns in {:.2} ms",
        replay_ns * txns as f64 / 1e6
    );
    println!("divergences: {divergences}");
    println!("partial flushes: {partial_flushes}");

    let _ = std::fs::remove_dir_all(&root);
    records
}
