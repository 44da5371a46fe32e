//! The durability benchmark behind `repro -- recover`: measures what
//! crash safety costs on the write path (one WAL fsync per acked
//! commit, amortised by group commit) and what it buys on the read
//! path (checkpoint + WAL-suffix replay throughput), then proves the
//! recovered server byte-identical to a never-crashed control.
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

const TABLE: &str = "t0";
const BATCH_K: u64 = 16;

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

fn spec(rows: u64) -> WorkloadSpec {
    WorkloadSpec {
        table: TABLE.into(),
        ..WorkloadSpec::new(rows, 2, 8)
    }
}

fn durable_central(
    vfs: Arc<dyn Vfs>,
    rows: u64,
    config: DurabilityConfig,
) -> CentralServer<VbScheme<4>> {
    let signer: Arc<dyn Signer> = Arc::new(MockSigner::new(0xD1));
    let mut central = CentralServer::with_scheme(
        VbScheme::new(Acc256::test_default(), VbTreeConfig::with_fanout(16)),
        signer,
    )
    .with_delta_retention(1 << 20)
    .with_durability(vfs, config)
    .expect("durability init");
    central.create_table(spec(rows).build());
    central
}

/// Run the durability benchmark. Returns the trajectory records for
/// `BENCH_recover.json`; panics if the recovered state diverges from
/// the never-crashed control (divergences are also reported as a
/// record so CI can gate on the committed file).
pub fn run_recover(rows: u64, smoke: bool) -> Vec<BenchRecord> {
    let root = std::env::temp_dir().join(format!("vbx-recover-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let ops: u64 = if smoke { 64 } else { 512 };
    let mut records = Vec::new();

    // ---- write path: one fsync per acked commit (k = 1) ------------
    let dir_k1 = root.join("k1");
    let vfs: Arc<dyn Vfs> = Arc::new(DiskVfs::open(&dir_k1).expect("temp vfs"));
    let config = DurabilityConfig {
        checkpoint_every: 0, // DDL-only: keep every commit in the WAL
        retain_wal: false,
    };
    let mut central = durable_central(vfs, rows, config);
    let schema = central.schema(TABLE).expect("table").clone();
    let base = 1 << 20; // keys above the seeded rows
    let t0 = Instant::now();
    for i in 0..ops {
        central
            .insert(TABLE, tuple(&schema, base + i))
            .expect("durable insert");
    }
    let k1_ns = t0.elapsed().as_nanos() as f64 / ops as f64;
    records.push(BenchRecord {
        op: "recover_commit_k1".into(),
        n: ops,
        ns_per_op: k1_ns,
    });

    // ---- write path: group commit, one fsync per k = 16 ops --------
    let dir_k16 = root.join("k16");
    let vfs: Arc<dyn Vfs> = Arc::new(DiskVfs::open(&dir_k16).expect("temp vfs"));
    let mut batched = durable_central(vfs, rows, config);
    let t0 = Instant::now();
    for b in 0..ops / BATCH_K {
        let batch = (0..BATCH_K)
            .map(|i| UpdateOp::Insert(tuple(&schema, base + b * BATCH_K + i)))
            .collect();
        batched
            .execute_update_batch(TABLE, batch)
            .expect("durable batch");
    }
    let k16_ns = t0.elapsed().as_nanos() as f64 / ops as f64;
    records.push(BenchRecord {
        op: "recover_commit_k16".into(),
        n: ops,
        ns_per_op: k16_ns,
    });
    drop(batched);

    // ---- read path: recovery = checkpoint load + WAL replay --------
    let expected = central.encode_state();
    drop(central);
    let vfs: Arc<dyn Vfs> = Arc::new(DiskVfs::open(&dir_k1).expect("temp vfs"));
    let signer: Arc<dyn Signer> = Arc::new(MockSigner::new(0xD1));
    let t0 = Instant::now();
    let recovered = CentralServer::recover(
        VbScheme::<4>::new(Acc256::test_default(), VbTreeConfig::with_fanout(16)),
        signer,
        vfs,
        config,
    )
    .expect("recovery");
    let replay_ns = t0.elapsed().as_nanos() as f64 / ops as f64;
    records.push(BenchRecord {
        op: "recover_replay".into(),
        n: ops,
        ns_per_op: replay_ns,
    });

    // ---- correctness: recovered ≡ the server that never crashed ----
    let divergences = u64::from(recovered.encode_state() != expected);
    assert_eq!(divergences, 0, "recovered state diverged from control");
    records.push(BenchRecord {
        op: "recover_divergences".into(),
        n: divergences,
        ns_per_op: 0.0,
    });

    println!(
        "durable commit, fsync per op (k=1):   {:>10.0} ns/op",
        k1_ns
    );
    println!(
        "durable commit, group commit (k=16):  {:>10.0} ns/op",
        k16_ns
    );
    println!(
        "recovery replay: {ops} ops in {:.2} ms ({:.0} ops/s)",
        replay_ns * ops as f64 / 1e6,
        1e9 / replay_ns
    );
    println!("divergences: {divergences}");

    let _ = std::fs::remove_dir_all(&root);
    records
}
