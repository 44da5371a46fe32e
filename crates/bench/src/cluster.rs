//! The `repro -- cluster` section: a closed-loop benchmark of the
//! multi-edge cluster (sharded delta fan-out + freshness-verified
//! reads).
//!
//! Topology: one trusted owner, **4 edge replicas**, one table sharded
//! to each edge. N reader threads issue routed range queries and verify
//! every response — *including the freshness stamp* under a strict
//! `FreshnessPolicy` — while a writer commits signed deltas that fan
//! out over the per-edge subscription queues and drain in-line.
//!
//! After the closed loop, an **induced-lag scenario** stops draining
//! one edge's queue while the writer keeps committing: a strict client
//! must reject that edge's (honest, authentic, but stale) responses
//! with `VerifyError::Stale`, and accept them again once the queue
//! drains. The report records per-edge lag in both phases, routed
//! latency percentiles, and the stale-rejection counts, and is written
//! to `BENCH_cluster.json`.

use crate::perf::{percentile, reader_threads, BenchRecord};
use parking_lot::RwLock;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use vbx_core::{ClientVerifier, FreshnessPolicy, RangeQuery, VbScheme, VbTreeConfig, VerifyError};
use vbx_crypto::signer::MockSigner;
use vbx_crypto::Acc256;
use vbx_edge::{ClusterConfig, ClusterCoordinator};
use vbx_storage::workload::WorkloadSpec;
use vbx_storage::{Schema, Tuple, Value};

const EDGES: usize = 4;
const TABLES: usize = 4;

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

type Cluster = ClusterCoordinator<VbScheme<4>>;

/// Route a query, verify the response under `policy` against the
/// current owner position. Returns Ok(rows) or the verification error.
fn verified_routed_query(
    cluster: &Cluster,
    acc: &Acc256,
    schemas: &[Schema],
    table_idx: usize,
    q: &RangeQuery,
    policy: FreshnessPolicy,
) -> Result<usize, VerifyError> {
    let table = format!("t{table_idx}");
    let routed = cluster.query(&table, q).expect("table is sharded");
    let (owner_seq, owner_clock) = cluster.owner_position();
    let verifier = cluster
        .central()
        .registry()
        .verifier(routed.response.vo.key_version)
        .expect("published key version");
    ClientVerifier::new(acc, &schemas[table_idx])
        .with_freshness(policy, owner_seq, owner_clock)
        .verify(verifier.as_ref(), q, &routed.response)
        .map(|r| r.rows)
}

/// Run the cluster benchmark at `rows` rows per table (`smoke` shrinks
/// the workload for CI) and return the records written to
/// `BENCH_cluster.json`. `write_batch` are the group-commit batch
/// sizes swept on the RSA-signed configuration (`write_batchN`
/// records).
pub fn run_cluster(rows: u64, smoke: bool, write_batch: &[usize]) -> Vec<BenchRecord> {
    let deltas: u64 = (if smoke { 32 } else { 160 }).min(rows / 2);
    let min_queries: u64 = if smoke { 24 } else { 150 };
    let induced: u64 = if smoke { 6 } else { 20 };

    let acc = Acc256::test_default();
    let signer = Arc::new(MockSigner::with_version(0xC1A5, 1));
    let mut cluster: Cluster = ClusterCoordinator::new(
        VbScheme::new(acc.clone(), VbTreeConfig::default()),
        signer,
        ClusterConfig {
            edges: EDGES,
            retention: 8_192,
            ..ClusterConfig::default()
        },
    );
    let mut schemas = Vec::with_capacity(TABLES);
    for i in 0..TABLES {
        let spec = WorkloadSpec {
            table: format!("t{i}"),
            ..WorkloadSpec::new(rows, 3, 8)
        };
        let table = spec.build();
        schemas.push(table.schema().clone());
        cluster.create_table(table);
    }
    cluster.sync().expect("initial sync");

    let readers = reader_threads();
    println!(
        "# cluster — {EDGES} edges × {TABLES} sharded tables, {readers} readers × \
         freshness-verified routed queries vs 1 writer × {deltas} fanned-out deltas \
         ({rows} rows/table)"
    );

    // ---- phase 1: closed loop, every edge kept fresh ----
    let shared = RwLock::new(cluster);
    let stop = AtomicBool::new(false);
    let failures = AtomicU64::new(0);
    let wall = Instant::now();
    let (mut latencies, write_ns) = std::thread::scope(|s| {
        let shared = &shared;
        let stop = &stop;
        let failures = &failures;
        let acc = &acc;
        let schemas = &schemas[..];

        let handles: Vec<_> = (0..readers as u64)
            .map(|r| {
                s.spawn(move || {
                    let spans = [(rows / 200).max(1), (rows / 50).max(1), (rows / 10).max(1)];
                    let mut lat = Vec::with_capacity(4096);
                    let mut i = 0u64;
                    while !stop.load(Ordering::Relaxed) || i < min_queries {
                        let t_idx = ((r + i) % TABLES as u64) as usize;
                        let span = spans[(i % 3) as usize];
                        let lo = (r * 131 + i * 17) % rows;
                        let q = RangeQuery::select_all(lo, lo + span);
                        let t0 = Instant::now();
                        let guard = shared.read();
                        // Readers demand full freshness: the writer
                        // drains every queue before releasing its write
                        // lock, so a strict policy must always pass.
                        let ok = verified_routed_query(
                            &guard,
                            acc,
                            schemas,
                            t_idx,
                            &q,
                            FreshnessPolicy::strict(),
                        )
                        .is_ok();
                        drop(guard);
                        lat.push(t0.elapsed().as_nanos() as u64);
                        if !ok {
                            failures.fetch_add(1, Ordering::Relaxed);
                        }
                        i += 1;
                    }
                    lat
                })
            })
            .collect();

        let writer = s.spawn(move || {
            let mut per_write = Vec::with_capacity(deltas as usize);
            for i in 0..deltas {
                let t_idx = (i % TABLES as u64) as usize;
                let table = format!("t{t_idx}");
                let t0 = Instant::now();
                let mut guard = shared.write();
                if i % 2 == 0 {
                    let key = rows * 4 + i;
                    let tuple = fresh_tuple(&schemas[t_idx], key);
                    guard.insert(&table, tuple).expect("insert + fan-out");
                } else {
                    guard.delete(&table, i).expect("delete + fan-out");
                }
                // Commit + fan-out + full drain inside the write lock:
                // readers never observe a lagging edge in this phase.
                guard.sync().expect("drain all subscriptions");
                drop(guard);
                per_write.push(t0.elapsed().as_nanos() as u64);
            }
            stop.store(true, Ordering::Relaxed);
            per_write
        });

        let lats: Vec<u64> = handles
            .into_iter()
            .flat_map(|h| h.join().expect("reader panicked"))
            .collect();
        (lats, writer.join().expect("writer panicked"))
    });
    let wall_ns = wall.elapsed().as_nanos() as f64;
    let mut cluster = shared.into_inner();

    let fresh_failures = failures.load(Ordering::Relaxed);
    assert_eq!(
        fresh_failures, 0,
        "a fresh edge's routed response failed strict verification"
    );
    let fresh_lags = cluster.lag_report();
    assert!(
        fresh_lags.iter().all(|l| l.lag == 0),
        "closed loop must end fully drained: {fresh_lags:?}"
    );

    // ---- phase 2: induced lag on one edge ----
    let victim_table = 0usize;
    let victim_edge = cluster.route("t0").expect("sharded");
    let q = RangeQuery::select_all(0, rows / 4);
    let mut stale_rejections = 0u64;
    let mut stale_lag_seen = 0u64;
    for i in 0..induced {
        let key = rows * 8 + i;
        let tuple = fresh_tuple(&schemas[victim_table], key);
        // Commit + fan-out, but never drain the victim's queue: an
        // honest replica that has fallen behind.
        cluster.insert("t0", tuple).expect("insert");
        for e in 0..EDGES {
            if e != victim_edge {
                cluster.drain_edge(e, usize::MAX).expect("drain");
            }
        }
        match verified_routed_query(
            &cluster,
            &acc,
            &schemas,
            victim_table,
            &q,
            FreshnessPolicy::strict(),
        ) {
            Err(VerifyError::Stale { lag, .. }) => {
                stale_rejections += 1;
                stale_lag_seen = stale_lag_seen.max(lag.unwrap_or(0));
            }
            Err(e) => panic!("induced lag must read as Stale, not {e:?}"),
            Ok(_) => panic!("stale edge accepted under a strict policy"),
        }
    }
    let induced_lags = cluster.lag_report();
    assert_eq!(induced_lags[victim_edge].lag, induced);
    assert!(stale_rejections >= 1, "no Stale rejection observed");

    // Recovery: draining the queue makes the same strict client accept.
    cluster
        .drain_edge(victim_edge, usize::MAX)
        .expect("drain victim");
    let recovered_rows = verified_routed_query(
        &cluster,
        &acc,
        &schemas,
        victim_table,
        &q,
        FreshnessPolicy::strict(),
    )
    .expect("caught-up edge must verify strictly again");

    // ---- report ----
    latencies.sort_unstable();
    let total = latencies.len() as u64;
    let mean = latencies.iter().sum::<u64>() as f64 / total.max(1) as f64;
    let p50 = percentile(&latencies, 0.50);
    let p99 = percentile(&latencies, 0.99);
    let qps = total as f64 / (wall_ns / 1e9);
    let write_mean = write_ns.iter().sum::<u64>() as f64 / write_ns.len().max(1) as f64;

    let mut recs = Vec::new();
    let mut rec = |op: &str, n: u64, ns: f64| {
        println!("{op:<28} {ns:>14.1} ns/op  (n = {n})");
        recs.push(BenchRecord {
            op: op.to_string(),
            n,
            ns_per_op: ns,
        });
    };
    rec("cluster_edges", EDGES as u64, 0.0);
    rec("cluster_tables", TABLES as u64, 0.0);
    rec("cluster_routed_mean", total, mean);
    rec("cluster_routed_p50", total, p50);
    rec("cluster_routed_p99", total, p99);
    rec("cluster_write_pipeline", deltas, write_mean);
    rec("cluster_verify_failures", fresh_failures, 0.0);
    rec("cluster_stale_rejections", stale_rejections, 0.0);
    rec("cluster_stale_max_lag", stale_lag_seen, 0.0);
    rec("cluster_recovered_rows", recovered_rows as u64, 0.0);
    for l in &fresh_lags {
        rec(&format!("cluster_edge{}_lag_fresh", l.edge), l.lag, 0.0);
    }
    for l in &induced_lags {
        rec(&format!("cluster_edge{}_lag_induced", l.edge), l.lag, 0.0);
    }

    println!();
    println!("readers                : {readers} threads (+1 writer)");
    println!("reader throughput      : {qps:.0} freshness-verified routed queries/s");
    println!(
        "write pipeline         : commit + fan-out + drain-all mean {:.1} µs",
        write_mean / 1e3
    );
    println!(
        "induced lag            : edge {victim_edge} fell {induced} deltas behind → \
         {stale_rejections} Stale rejections, accepted again after drain"
    );
    let shard_summary: Vec<String> = (0..EDGES)
        .map(|e| format!("edge{e}:{:?}", cluster.shard_map().tables_of(e)))
        .collect();
    println!("shard map              : {}", shard_summary.join(" "));

    // ---- group-commit sweep on the RSA-signed configuration ----
    println!();
    recs.extend(crate::write_batch::sweep_cluster(write_batch, smoke));

    // ---- flat vs compact VO comparison (RSA-1024) ----
    println!();
    recs.extend(crate::compact::sweep_compact_vo(smoke));
    recs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_cluster_verifies_and_detects_staleness() {
        let recs = run_cluster(240, true, &[1, 16]);
        let get = |op: &str| {
            recs.iter()
                .find(|r| r.op == op)
                .unwrap_or_else(|| panic!("missing record {op}"))
        };
        assert!(get("cluster_edges").n >= 3);
        assert_eq!(get("cluster_verify_failures").n, 0);
        assert!(get("cluster_stale_rejections").n >= 1);
        assert!(get("cluster_routed_p99").ns_per_op >= get("cluster_routed_p50").ns_per_op);
        // Per-edge lag is recorded in both phases.
        assert_eq!(get("cluster_edge0_lag_fresh").n, 0);
        assert!((0..EDGES).any(|e| recs
            .iter()
            .any(|r| r.op == format!("cluster_edge{e}_lag_induced") && r.n > 0)));
        // Amortisation is asserted inside the sweep, on signature
        // counts; the times are records.
        for k in [1, 16] {
            assert!(get(&format!("write_batch{k}")).ns_per_op > 0.0);
        }
    }
}
