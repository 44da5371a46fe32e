//! The `--write-batch` sweep: amortised group-commit cost on the
//! **RSA-signed configuration**.
//!
//! The paper's Section 3.4 update protocol signs every mutated digest
//! per transaction; with RSA-1024 at ~286 µs per signature a single-op
//! commit burns two-plus signatures (path re-signs + freshness stamp)
//! before the edge pays its clone/replay/swap. The sweep drives the
//! same write mix — consecutive-key deletes with periodic inserts, the
//! shape of a hot ingest-and-expire table — through the full pipeline
//! at batch sizes `k ∈ {1, 4, 16}` and reports the **amortised ns per
//! op**, committed as `write_batchN` records in `BENCH_serve.json`
//! (central → single edge) and `BENCH_cluster.json` (coordinator
//! fan-out). CI gates on batched ≤ unbatched.

use crate::perf::BenchRecord;
use std::sync::Arc;
use std::time::Instant;
use vbx_core::{ClientVerifier, FreshnessPolicy, RangeQuery, VbTreeConfig};
use vbx_crypto::rsa;
use vbx_crypto::Acc256;
use vbx_edge::{CentralServer, ClusterConfig, ClusterCoordinator, EdgeServer, UpdateOp, VbScheme};
use vbx_storage::workload::WorkloadSpec;
use vbx_storage::{Schema, Table, Tuple, Value};

fn sweep_table(name: &str, rows: u64) -> Table {
    WorkloadSpec {
        table: name.into(),
        ..WorkloadSpec::new(rows, 3, 8)
    }
    .build()
}

fn fresh_tuple(schema: &Schema, key: u64) -> Tuple {
    Tuple::new(
        schema,
        key,
        vec![
            Value::from(format!("wb{key}")),
            Value::from("x"),
            Value::from((key % 97) as i64),
        ],
    )
    .expect("schema-conformant tuple")
}

/// The write mix, shared by every batch size so the amortisation
/// comparison is apples to apples: mostly deletes of consecutive keys
/// (shared root-to-leaf paths — where deferred signing shines), with
/// every 8th op an insert (whose per-tuple digests cannot be amortised
/// away, keeping the mix honest). Cursors persist across batches and
/// sizes, so every op touches fresh keys.
struct OpMix {
    del_cursor: u64,
    ins_cursor: u64,
    op_index: u64,
}

impl OpMix {
    fn new() -> Self {
        Self {
            del_cursor: 0,
            ins_cursor: 0,
            op_index: 0,
        }
    }

    fn next_op(&mut self, schema: &Schema) -> UpdateOp {
        let i = self.op_index;
        self.op_index += 1;
        if i % 8 == 4 {
            self.ins_cursor += 1;
            UpdateOp::Insert(fresh_tuple(schema, 1_000_000 + self.ins_cursor))
        } else {
            let key = self.del_cursor;
            self.del_cursor += 1;
            UpdateOp::Delete(key)
        }
    }

    fn batch(&mut self, schema: &Schema, k: usize) -> Vec<UpdateOp> {
        (0..k).map(|_| self.next_op(schema)).collect()
    }
}

/// Record one batch size's amortised time; returns its signatures per
/// op for [`assert_amortised`].
fn record(recs: &mut Vec<BenchRecord>, k: usize, n: u64, ns: f64, signs: u64) -> (usize, f64) {
    let op = format!("write_batch{k}");
    let per_op = signs as f64 / n as f64;
    println!("{op:<28} {ns:>14.1} ns/op  (n = {n}, amortised; {per_op:.2} signatures/op)");
    recs.push(BenchRecord {
        op,
        n,
        ns_per_op: ns,
    });
    (k, per_op)
}

/// What the sweep exists to show, asserted on what causes it: the
/// signatures a commit issues (the tree's signing sweep per
/// [`CostMeter`](vbx_core::CostMeter), plus one freshness stamp per
/// commit) per op must not grow with the batch size. The times are the
/// printed record; on a shared box they are too noisy to gate on.
fn assert_amortised(signs_per_op: &[(usize, f64)]) {
    let smallest = signs_per_op.iter().min_by_key(|(k, _)| *k);
    let largest = signs_per_op.iter().max_by_key(|(k, _)| *k);
    if let (Some((k1, one)), Some((kn, many))) = (smallest, largest) {
        assert!(
            many <= one,
            "group commit must amortise signatures: {many:.2}/op at k={kn} vs {one:.2}/op at k={k1}"
        );
    }
}

fn print_ratio(recs: &[BenchRecord]) {
    let find = |k: usize| {
        recs.iter()
            .find(|r| r.op == format!("write_batch{k}"))
            .map(|r| r.ns_per_op)
    };
    if let (Some(one), Some(sixteen)) = (find(1), find(16)) {
        println!(
            "write-batch amortisation : {:.2}x (k=1 {:.1} µs/op → k=16 {:.1} µs/op, RSA-1024)",
            one / sixteen,
            one / 1e3,
            sixteen / 1e3
        );
    }
}

/// Serve-topology sweep: one RSA-signed central server streaming to one
/// edge replica. Measures commit (`execute_update_batch`) + edge apply
/// (`apply_delta_batch`) per op at each batch size.
pub fn sweep_serve(ks: &[usize], smoke: bool) -> Vec<BenchRecord> {
    let rows: u64 = if smoke { 200 } else { 800 };
    let ops_per_k: usize = if smoke { 16 } else { 32 };
    let signer = Arc::new(rsa::fixture_keypair_crt_1024());
    // Cluster-grade per-commit stamping: the freshness stamp is part of
    // the measured per-commit signature cost, exactly as in the
    // cluster's write pipeline.
    let mut central = CentralServer::new(Acc256::test_default(), signer, VbTreeConfig::default())
        .with_delta_retention(1 << 20);
    central.create_table(sweep_table("wb", rows));
    let schema = central.tree("wb").expect("created").schema().clone();
    let edge = EdgeServer::from_bundle(central.bundle());

    println!("# write-batch sweep (serve) — RSA-1024, {rows} rows, {ops_per_k} ops per size");
    let mut mix = OpMix::new();
    let mut recs = Vec::new();
    let mut signs_per_op = Vec::new();
    for &k in ks {
        let k = k.max(1);
        let rounds = ops_per_k.div_ceil(k);
        let total = (rounds * k) as u64;
        let signed_before = central.tree("wb").expect("master").meter().sign_ops;
        let t0 = Instant::now();
        for _ in 0..rounds {
            let ops = mix.batch(&schema, k);
            let batch = central
                .execute_update_batch("wb", ops)
                .expect("batched commit");
            edge.apply_delta_batch(&batch).expect("batch replay");
        }
        let ns = t0.elapsed().as_nanos() as f64 / total as f64;
        let signs =
            central.tree("wb").expect("master").meter().sign_ops - signed_before + rounds as u64;
        signs_per_op.push(record(&mut recs, k, total, ns, signs));
    }
    print_ratio(&recs);
    assert_amortised(&signs_per_op);

    // The pipeline must stay sound at every size: replica converged…
    assert_eq!(
        edge.tree("wb").expect("replica").root_digest().exp,
        central.tree("wb").expect("master").root_digest().exp,
        "edge replica diverged from the master during the sweep"
    );
    // …and a freshness-verified read passes strictly (the last batch's
    // stamp attests the edge's exact position).
    let q = RangeQuery::select_all(mix.del_cursor, mix.del_cursor + 40);
    let resp = edge.query_range("wb", &q).expect("replica query");
    let (owner_seq, owner_clock) = central.owner_position();
    ClientVerifier::new(central.accumulator(), &schema)
        .with_freshness(FreshnessPolicy::strict(), owner_seq, owner_clock)
        .verify(
            central.registry().verifier(1).expect("published").as_ref(),
            &q,
            &resp,
        )
        .expect("strictly fresh verified read after the sweep");
    recs
}

/// Cluster-topology sweep: the coordinator's full write pipeline —
/// group commit, single-envelope fan-out to every subscription queue,
/// owner-edge batch replay, foreign-edge range skip — per op at each
/// batch size.
pub fn sweep_cluster(ks: &[usize], smoke: bool) -> Vec<BenchRecord> {
    let rows: u64 = if smoke { 200 } else { 800 };
    let ops_per_k: usize = if smoke { 16 } else { 32 };
    let signer = Arc::new(rsa::fixture_keypair_crt_1024());
    let mut cluster = ClusterCoordinator::new(
        VbScheme::<4>::new(Acc256::test_default(), VbTreeConfig::default()),
        signer,
        ClusterConfig {
            edges: 2,
            retention: 1 << 20,
            ..ClusterConfig::default()
        },
    );
    cluster.create_table(sweep_table("wbc", rows));
    let schema = cluster.central().schema("wbc").expect("created").clone();
    cluster.sync().expect("initial sync");

    println!(
        "# write-batch sweep (cluster) — RSA-1024, 2 edges, {rows} rows, {ops_per_k} ops per size"
    );
    let mut mix = OpMix::new();
    let mut recs = Vec::new();
    let mut signs_per_op = Vec::new();
    let signed = |cluster: &ClusterCoordinator<VbScheme<4>>| {
        let master = cluster.central().tree("wbc").expect("master");
        master.meter().sign_ops
    };
    for &k in ks {
        let k = k.max(1);
        let rounds = ops_per_k.div_ceil(k);
        let total = (rounds * k) as u64;
        let signed_before = signed(&cluster);
        let t0 = Instant::now();
        for _ in 0..rounds {
            let ops = mix.batch(&schema, k);
            cluster.update_batch("wbc", ops).expect("batched commit");
            cluster.sync().expect("drain all subscriptions");
        }
        let ns = t0.elapsed().as_nanos() as f64 / total as f64;
        let signs = signed(&cluster) - signed_before + rounds as u64;
        signs_per_op.push(record(&mut recs, k, total, ns, signs));
    }
    print_ratio(&recs);
    assert_amortised(&signs_per_op);

    // Soundness: fully drained, and a strict freshness-verified routed
    // read passes after the batched stream.
    let lags = cluster.lag_report();
    assert!(lags.iter().all(|l| l.lag == 0), "undrained sweep: {lags:?}");
    let q = RangeQuery::select_all(mix.del_cursor, mix.del_cursor + 40);
    let routed = cluster.query("wbc", &q).expect("routed");
    let (owner_seq, owner_clock) = cluster.owner_position();
    let verifier = cluster
        .central()
        .registry()
        .verifier(routed.response.vo.key_version)
        .expect("published key");
    ClientVerifier::new(cluster.central().accumulator(), &schema)
        .with_freshness(FreshnessPolicy::strict(), owner_seq, owner_clock)
        .verify(verifier.as_ref(), &q, &routed.response)
        .expect("strictly fresh verified routed read after the sweep");
    recs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn get(recs: &[BenchRecord], op: &str) -> f64 {
        recs.iter()
            .find(|r| r.op == op)
            .unwrap_or_else(|| panic!("missing record {op}"))
            .ns_per_op
    }

    // Amortisation itself is asserted inside the sweeps, on signature
    // counts; here only that every size left its timing record.

    #[test]
    fn smoke_serve_sweep_amortises() {
        let recs = sweep_serve(&[1, 4, 16], true);
        for k in [1, 4, 16] {
            assert!(get(&recs, &format!("write_batch{k}")) > 0.0);
        }
    }

    #[test]
    fn smoke_cluster_sweep_amortises() {
        let recs = sweep_cluster(&[1, 4, 16], true);
        for k in [1, 4, 16] {
            assert!(get(&recs, &format!("write_batch{k}")) > 0.0);
        }
    }
}
