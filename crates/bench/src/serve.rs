//! The `repro -- serve` section: a closed-loop multi-threaded benchmark
//! of the concurrent edge serving subsystem (snapshot replicas + VO
//! cache).
//!
//! N reader threads issue a verified query mix derived from
//! [`vbx_storage::workload::WorkloadSpec`] (a hot range plus rotating
//! windows at several selectivities) against one [`EdgeServer`] while a
//! writer thread applies signed deltas streamed from a
//! [`CentralServer`]. Every response is client-verified; a single
//! verification failure aborts the run. The report covers reader
//! throughput and latency (p50/p99), delta apply latency, and the
//! cache-hit vs cold-execution gap, and is written to
//! `BENCH_serve.json` in the same diffable shape as `BENCH_perf.json`.

use crate::perf::{percentile, reader_threads, BenchRecord};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use vbx_core::{RangeQuery, VbTreeConfig};
use vbx_crypto::signer::{MockSigner, Signer};
use vbx_crypto::{Acc256, KeyRegistry};
use vbx_edge::{CentralServer, EdgeServer, KeyFreshnessPolicy, SchemeClient, VbScheme};
use vbx_storage::workload::WorkloadSpec;
use vbx_storage::{Tuple, Value};

/// One reader's share of the closed loop: issue queries from the mix,
/// verify each response, record per-query latency, until the writer is
/// done (but at least `min_queries`).
#[allow(clippy::too_many_arguments)]
fn reader_loop(
    reader: u64,
    rows: u64,
    min_queries: u64,
    edge: &EdgeServer<VbScheme<4>>,
    client: &SchemeClient<VbScheme<4>>,
    registry: &KeyRegistry,
    stop: &AtomicBool,
    failures: &AtomicU64,
) -> Vec<u64> {
    // Query mix: ~0.5 %, 2 % and 10 % selectivity windows (the paper's
    // selectivity sweep, shrunk), plus a fixed hot range that exercises
    // the cache.
    let spans: Vec<u64> = [0.005f64, 0.02, 0.10]
        .iter()
        .map(|s| ((rows as f64 * s) as u64).max(1))
        .collect();
    let hot = RangeQuery::select_all(rows / 4, rows / 4 + spans[2]);
    let mut lat = Vec::with_capacity(4096);
    let mut i = 0u64;
    while !stop.load(Ordering::Relaxed) || i < min_queries {
        let q = if i.is_multiple_of(4) {
            hot.clone()
        } else {
            let span = spans[(i % spans.len() as u64) as usize];
            let lo = (reader * 131 + i * 17) % rows;
            RangeQuery::select_all(lo, lo + span)
        };
        let t0 = Instant::now();
        let resp = edge.query_range("items", &q).expect("replica exists");
        let ok = client
            .verify_range(
                "items",
                &q,
                &resp,
                registry,
                KeyFreshnessPolicy::RequireCurrent,
            )
            .is_ok();
        lat.push(t0.elapsed().as_nanos() as u64);
        if !ok {
            failures.fetch_add(1, Ordering::Relaxed);
        }
        i += 1;
    }
    lat
}

/// Run the serving benchmark at `rows` table rows (`smoke` shrinks the
/// workload for CI) and return the records written to
/// `BENCH_serve.json`. `write_batch` are the group-commit batch sizes
/// swept on the RSA-signed configuration (`write_batchN` records).
pub fn run_serve(rows: u64, smoke: bool, write_batch: &[usize]) -> Vec<BenchRecord> {
    // Deletes target the distinct keys 1, 3, 5, …, so the stream never
    // outruns the table.
    let deltas: u64 = (if smoke { 40 } else { 200 }).min(rows / 2);
    let min_queries: u64 = if smoke { 30 } else { 200 };

    let spec = WorkloadSpec {
        table: "items".into(),
        ..WorkloadSpec::new(rows, 4, 10)
    };
    let acc = Acc256::test_default();
    let signer = Arc::new(MockSigner::with_version(0xED6E, 1));
    let mut central = CentralServer::new(acc, signer, VbTreeConfig::default());
    central.create_table(spec.build());
    let schema = central.tree("items").expect("created").schema().clone();
    let edge = EdgeServer::from_bundle(central.bundle());
    let client = SchemeClient::new(edge.scheme().clone(), edge.schemas());
    let mut registry = KeyRegistry::new();
    registry.publish(MockSigner::with_version(0xED6E, 1).verifier(), 0);

    let readers = reader_threads();
    println!(
        "# serve — {readers} readers × verified query mix vs 1 writer × {deltas} signed deltas ({rows} rows)"
    );

    let stop = AtomicBool::new(false);
    let failures = AtomicU64::new(0);
    let wall = Instant::now();
    let (mut latencies, delta_ns) = std::thread::scope(|s| {
        let edge = &edge;
        let client = &client;
        let registry = &registry;
        let stop = &stop;
        let failures = &failures;
        let central = &mut central;
        let schema = &schema;

        let handles: Vec<_> = (0..readers as u64)
            .map(|r| {
                s.spawn(move || {
                    reader_loop(r, rows, min_queries, edge, client, registry, stop, failures)
                })
            })
            .collect();

        let writer = s.spawn(move || {
            let mut per_delta = Vec::with_capacity(deltas as usize);
            for i in 0..deltas {
                let t0 = Instant::now();
                let delta = if i % 2 == 0 {
                    let key = rows * 4 + i;
                    let t = Tuple::new(
                        schema,
                        key,
                        vec![
                            Value::from(format!("new{key}")),
                            Value::from("w"),
                            Value::from("x"),
                            Value::from((i % 97) as i64),
                        ],
                    )
                    .expect("schema-conformant tuple");
                    central.insert("items", t).expect("insert")
                } else {
                    central.delete("items", i).expect("delete")
                };
                edge.apply_delta_batch(&delta).expect("replay");
                per_delta.push(t0.elapsed().as_nanos() as u64);
            }
            stop.store(true, Ordering::Relaxed);
            per_delta
        });

        let lats: Vec<u64> = handles
            .into_iter()
            .flat_map(|h| h.join().expect("reader panicked"))
            .collect();
        (lats, writer.join().expect("writer panicked"))
    });
    let wall_ns = wall.elapsed().as_nanos() as f64;

    let failures = failures.load(Ordering::Relaxed);
    assert_eq!(
        failures, 0,
        "a concurrently-served response failed verification"
    );
    assert_eq!(edge.applied_seq(), deltas);

    latencies.sort_unstable();
    let total = latencies.len() as u64;
    let mean = latencies.iter().sum::<u64>() as f64 / total.max(1) as f64;
    let p50 = percentile(&latencies, 0.50);
    let p99 = percentile(&latencies, 0.99);
    let qps = total as f64 / (wall_ns / 1e9);
    let delta_mean = delta_ns.iter().sum::<u64>() as f64 / delta_ns.len().max(1) as f64;
    let cache = edge.service().cache_stats();

    // ---- cold vs cached, measured without the writer racing ----
    // One quiescing delta empties the table's cache (readers may have
    // repopulated it after the writer stopped), so the first pass over
    // the probe ranges is honestly cold and the second pass is all hits.
    {
        let key = rows * 4 + deltas;
        let t = Tuple::new(
            &schema,
            key,
            vec![
                Value::from("quiesce"),
                Value::from("w"),
                Value::from("x"),
                Value::from(0i64),
            ],
        )
        .expect("schema-conformant tuple");
        let delta = central.insert("items", t).expect("insert");
        edge.apply_delta_batch(&delta).expect("replay");
    }
    let probe_span = ((rows as f64 * 0.02) as u64).max(1);
    let probes: Vec<RangeQuery> = (0..16u64)
        .map(|i| {
            let lo = (i * 53) % rows;
            RangeQuery::select_all(lo, lo + probe_span)
        })
        .collect();
    let time_pass = || -> f64 {
        let t0 = Instant::now();
        for q in &probes {
            let _ = edge.query_range("items", q).expect("probe");
        }
        t0.elapsed().as_nanos() as f64 / probes.len() as f64
    };
    let before = edge.service().cache_stats();
    let cold_ns = time_pass();
    let between = edge.service().cache_stats();
    let cached_ns = time_pass();
    let after = edge.service().cache_stats();
    // What "cold" and "cached" mean, by the cache's own counters (the
    // two times are records, and on a busy box either can come out
    // ahead): the first pass had to execute, the second was served
    // from the cache alone.
    assert!(
        between.misses > before.misses,
        "the cold pass must miss the cache"
    );
    assert_eq!(
        (after.hits - between.hits, after.misses - between.misses),
        (probes.len() as u64, 0),
        "the cached pass must be all cache hits"
    );

    let mut recs = Vec::new();
    let mut rec = |op: &str, n: u64, ns: f64| {
        println!("{op:<28} {ns:>14.1} ns/op  (n = {n})");
        recs.push(BenchRecord {
            op: op.to_string(),
            n,
            ns_per_op: ns,
        });
    };
    rec("serve_query_mean", total, mean);
    rec("serve_query_p50", total, p50);
    rec("serve_query_p99", total, p99);
    rec("serve_wall_per_query", total, wall_ns / total.max(1) as f64);
    rec("serve_delta_apply", deltas, delta_mean);
    rec("serve_query_cold", probes.len() as u64, cold_ns);
    rec("serve_query_cached", probes.len() as u64, cached_ns);
    rec("serve_verify_failures", failures, 0.0);

    println!();
    println!("readers                : {readers} threads (+1 writer)");
    println!("reader throughput      : {qps:.0} verified queries/s (closed loop)");
    println!(
        "cache                  : {} hits / {} misses / {} invalidated / {} evicted",
        cache.hits, cache.misses, cache.invalidated, cache.evicted
    );
    println!(
        "cache speedup          : {:.2}x (cold {:.1} µs → cached {:.1} µs)",
        cold_ns / cached_ns,
        cold_ns / 1e3,
        cached_ns / 1e3
    );

    // ---- group-commit sweep on the RSA-signed configuration ----
    println!();
    recs.extend(crate::write_batch::sweep_serve(write_batch, smoke));

    // ---- flat vs compact VO comparison (RSA-1024) ----
    println!();
    recs.extend(crate::compact::sweep_compact_vo(smoke));
    recs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_serve_runs_verified_and_caches() {
        let recs = run_serve(400, true, &[1, 16]);
        let get = |op: &str| {
            recs.iter()
                .find(|r| r.op == op)
                .unwrap_or_else(|| panic!("missing record {op}"))
        };
        assert_eq!(get("serve_verify_failures").n, 0);
        assert!(get("serve_query_p99").ns_per_op >= get("serve_query_p50").ns_per_op);
        assert!(get("serve_query_cold").ns_per_op > 0.0);
        // That the cached pass was all cache hits, and that group
        // commit amortises signatures, is asserted inside the run on
        // `CacheStats` and `CostMeter` counts; the times are records.
        assert!(get("serve_query_cached").ns_per_op > 0.0);
        for k in [1, 16] {
            assert!(get(&format!("write_batch{k}")).ns_per_op > 0.0);
        }
    }
}
