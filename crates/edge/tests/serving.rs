//! Concurrent serving stress tests: readers must always verify against
//! a consistent snapshot while a writer streams deltas in, and the
//! response cache must be invisible to clients (hits byte-identical to
//! cold executions).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use vbx_core::{decode_compact_response, encode_response, CostMeter, RangeQuery, VbTreeConfig};
use vbx_crypto::signer::MockSigner;
use vbx_crypto::{Acc256, KeyRegistry, Signer};
use vbx_edge::{CentralServer, EdgeServer, KeyFreshnessPolicy, SchemeClient, VbScheme};
use vbx_storage::workload::WorkloadSpec;
use vbx_storage::{Tuple, Value};

fn setup(rows: u64) -> (CentralServer<VbScheme<4>>, EdgeServer<VbScheme<4>>) {
    let acc = Acc256::test_default();
    let signer = Arc::new(MockSigner::with_version(42, 1));
    let mut central = CentralServer::new(acc, signer, VbTreeConfig::with_fanout(8));
    central.create_table(
        WorkloadSpec {
            table: "items".into(),
            ..WorkloadSpec::new(rows, 3, 8)
        }
        .build(),
    );
    let edge = EdgeServer::from_bundle(central.bundle());
    (central, edge)
}

/// 4 reader threads hammering the range pipeline (a mix of hot and
/// rotating ranges, so both cache hits and cold executions race the
/// writer) while the writer applies 100 signed deltas. Every response
/// must verify: a reader sees either the pre-delta or the post-delta
/// snapshot, never a half-applied store.
#[test]
fn readers_verify_while_writer_applies_100_deltas() {
    let rows = 300u64;
    let (mut central, edge) = setup(rows);
    let schema = central.tree("items").unwrap().schema().clone();
    let scheme = edge.scheme().clone();
    let client = SchemeClient::new(scheme, edge.schemas());

    // The clients' copy of the key directory (no rotation here).
    let mut registry = KeyRegistry::new();
    registry.publish(MockSigner::with_version(42, 1).verifier(), 0);

    let stop = AtomicBool::new(false);
    let verified = AtomicU64::new(0);
    let failures = AtomicU64::new(0);

    // Warm the hot range so the very first delta invalidates a live
    // entry even under unlucky scheduling.
    edge.query_range("items", &RangeQuery::select_all(10, 60))
        .unwrap();

    std::thread::scope(|s| {
        let edge = &edge;
        let client = &client;
        let registry = &registry;
        let stop = &stop;
        let verified = &verified;
        let failures = &failures;
        let central = &mut central;

        for reader in 0..4u64 {
            s.spawn(move || {
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) || i < 20 {
                    // Hot range (cache-friendly) and a rotating window.
                    let q = if i % 3 == 0 {
                        RangeQuery::select_all(10, 60)
                    } else {
                        let lo = (reader * 31 + i * 7) % rows;
                        RangeQuery::select_all(lo, lo + 25)
                    };
                    let resp = edge.query_range("items", &q).unwrap();
                    match client.verify_range(
                        "items",
                        &q,
                        &resp,
                        registry,
                        KeyFreshnessPolicy::RequireCurrent,
                    ) {
                        Ok(_) => verified.fetch_add(1, Ordering::Relaxed),
                        Err(_) => failures.fetch_add(1, Ordering::Relaxed),
                    };
                    i += 1;
                }
            });
        }

        s.spawn(move || {
            for i in 0..100u64 {
                let delta = if i % 2 == 0 {
                    let key = 10_000 + i;
                    let t = Tuple::new(
                        &schema,
                        key,
                        vec![
                            Value::from(format!("new{key}")),
                            Value::from("w"),
                            Value::from((i % 97) as i64),
                        ],
                    )
                    .unwrap();
                    central.insert("items", t).unwrap()
                } else {
                    central.delete("items", i).unwrap()
                };
                edge.apply_delta_batch(&delta).unwrap();
            }
            stop.store(true, Ordering::Relaxed);
        });
    });

    assert_eq!(
        failures.load(Ordering::Relaxed),
        0,
        "every concurrently-served response must verify"
    );
    assert!(
        verified.load(Ordering::Relaxed) >= 80,
        "readers actually ran"
    );
    assert_eq!(edge.applied_seq(), 100);
    // The replica converged to the master.
    assert_eq!(
        edge.tree("items").unwrap().root_digest().exp,
        central.tree("items").unwrap().root_digest().exp
    );
    // The writer raced real cached entries: the hot range must have hit.
    let stats = edge.service().cache_stats();
    assert!(stats.hits > 0, "hot range should produce cache hits");
    assert!(
        stats.invalidated > 0,
        "deltas must invalidate cached entries"
    );
}

/// A cache hit must be indistinguishable from a cold execution on the
/// wire, and a delta must invalidate — never serve — stale entries.
#[test]
fn cache_hits_byte_identical_and_invalidated_on_delta() {
    let (mut central, edge) = setup(120);
    let sql = "SELECT a0, a2 FROM items WHERE id BETWEEN 10 AND 80 AND a2 >= 0";

    let (_, cold) = edge.query_sql(sql).unwrap();
    let after_cold = edge.service().cache_stats();
    assert_eq!(after_cold.hits, 0);
    assert_eq!(after_cold.misses, 1);

    let (_, hot) = edge.query_sql(sql).unwrap();
    let after_hot = edge.service().cache_stats();
    assert_eq!(after_hot.hits, 1);
    assert_eq!(
        encode_response(&cold),
        encode_response(&hot),
        "cache hit must be byte-identical to the cold execution"
    );

    // Same range, different residual: its own slot, not a false hit.
    let (_, other) = edge
        .query_sql("SELECT a0, a2 FROM items WHERE id BETWEEN 10 AND 80 AND a2 >= 90")
        .unwrap();
    assert!(other.rows.len() < hot.rows.len());

    // A delta on the table invalidates: the next query re-executes
    // against the new snapshot and reflects the deletion.
    assert!(hot.rows.iter().any(|r| r.key == 40));
    let delta = central.delete("items", 40).unwrap();
    edge.apply_delta_batch(&delta).unwrap();
    let (_, fresh) = edge.query_sql(sql).unwrap();
    assert!(fresh.rows.iter().all(|r| r.key != 40));
    assert!(edge.service().cache_stats().invalidated >= 1);
}

/// The compact (`VBX4`) pipeline under the same contract: hits are
/// byte-identical to cold executions, the cached prefix never replays a
/// stale freshness suffix, and a delta invalidates the prefix cache.
#[test]
fn compact_cache_hits_byte_identical_with_live_freshness() {
    let (mut central, edge) = setup(120);
    let verifier = MockSigner::with_version(42, 1).verifier();
    let acc = Acc256::test_default();
    let schema = edge.schemas().get("items").unwrap().clone();
    let queries = vec![
        RangeQuery::select_all(10, 61),
        RangeQuery::select_all(50, 101),
    ];

    let cold = edge
        .query_compact("items", &queries, Some(&*verifier))
        .unwrap();
    let after_cold = edge.service().compact_cache_stats();
    assert_eq!((after_cold.hits, after_cold.misses), (0, 1));

    let hot = edge
        .query_compact("items", &queries, Some(&*verifier))
        .unwrap();
    assert_eq!(edge.service().compact_cache_stats().hits, 1);
    assert_eq!(
        cold, hot,
        "compact cache hit must be byte-identical to the cold execution"
    );
    let resp = decode_compact_response(&hot, &acc).unwrap();
    let mut meter = CostMeter::default();
    let batch = edge
        .scheme()
        .verify_compact(&schema, &*verifier, &queries, &resp, &mut meter)
        .expect("cached compact response verifies");
    assert_eq!(batch.signatures_checked, 1, "one condensed sweep");

    // Aggregated and per-signature encodings of the same ranges must
    // occupy different cache slots — a false hit would hand a client
    // expecting individual signatures a bare-digest stream.
    let plain = edge.query_compact("items", &queries, None).unwrap();
    assert_ne!(plain, hot);
    assert_eq!(edge.service().compact_cache_stats().misses, 2);

    // Advancing the replication position without touching the table
    // (foreign-table deltas) keeps the prefix cached but must re-stamp
    // the suffix: cached VO bytes never replay a stale position.
    edge.service().skip_deltas(0, 5).unwrap();
    let restamped = edge
        .query_compact("items", &queries, Some(&*verifier))
        .unwrap();
    assert_ne!(restamped, hot, "freshness suffix must move");
    let resp = decode_compact_response(&restamped, &acc).unwrap();
    assert_eq!(resp.freshness.applied_seq, 5);
    assert_eq!(
        edge.service().compact_cache_stats().hits,
        2,
        "the prefix itself was served from cache"
    );

    // A delta on the table invalidates the prefix cache; the next
    // compact response reflects the deletion.
    assert!(resp
        .parts
        .iter()
        .any(|p| p.rows.iter().any(|r| r.key == 40)));
    let delta = central.delete("items", 40).unwrap();
    // The edge skipped ahead of the central's sequence above, so align
    // the delta's position with the edge's.
    let delta = vbx_edge::DeltaBatch {
        start_seq: 5,
        ..(*delta).clone()
    };
    edge.apply_delta_batch(&delta).unwrap();
    let fresh = edge
        .query_compact("items", &queries, Some(&*verifier))
        .unwrap();
    let resp = decode_compact_response(&fresh, &acc).unwrap();
    assert!(resp
        .parts
        .iter()
        .all(|p| p.rows.iter().all(|r| r.key != 40)));
    assert!(edge.service().compact_cache_stats().invalidated >= 1);
    let mut meter = CostMeter::default();
    edge.scheme()
        .verify_compact(&schema, &*verifier, &queries, &resp, &mut meter)
        .expect("post-delta compact response verifies");
}

/// Tampered compact responses must be detected through the same
/// pipeline — and must never come from (or land in) the prefix cache.
#[test]
fn compact_tamper_bypasses_cache_and_is_detected() {
    let (_central, edge) = setup(80);
    let verifier = MockSigner::with_version(42, 1).verifier();
    let acc = Acc256::test_default();
    let schema = edge.schemas().get("items").unwrap().clone();
    let queries = vec![RangeQuery::select_all(5, 63)];

    // Warm the cache honestly.
    let honest = edge
        .query_compact("items", &queries, Some(&*verifier))
        .unwrap();
    let mut meter = CostMeter::default();
    edge.scheme()
        .verify_compact(
            &schema,
            &*verifier,
            &queries,
            &decode_compact_response(&honest, &acc).unwrap(),
            &mut meter,
        )
        .expect("honest response verifies");

    for mode in [
        vbx_edge::TamperMode::MutateValue,
        vbx_edge::TamperMode::InjectRow,
        vbx_edge::TamperMode::DropRow,
    ] {
        edge.set_tamper(mode.clone());
        let bytes = edge
            .query_compact("items", &queries, Some(&*verifier))
            .unwrap();
        assert_ne!(bytes, honest, "tampering must change the wire bytes");
        let resp = decode_compact_response(&bytes, &acc).unwrap();
        let mut meter = CostMeter::default();
        let verdict = edge
            .scheme()
            .verify_compact(&schema, &*verifier, &queries, &resp, &mut meter);
        assert!(verdict.is_err(), "{mode:?} must be detected");
    }

    // The VB-tree's documented completeness boundary (§3.1): a
    // reclassification drop balances the VO on both encodings — it
    // verifies, but the victim is silently gone.
    edge.set_tamper(vbx_edge::TamperMode::DropAndReclassify { key: 30 });
    let bytes = edge
        .query_compact("items", &queries, Some(&*verifier))
        .unwrap();
    let resp = decode_compact_response(&bytes, &acc).unwrap();
    let mut meter = CostMeter::default();
    let batch = edge
        .scheme()
        .verify_compact(&schema, &*verifier, &queries, &resp, &mut meter)
        .expect("reclassification drop is outside the detection boundary");
    assert!(batch.rows.iter().all(|r| r.key != 30));
    edge.set_tamper(vbx_edge::TamperMode::None);

    // The tampered round-trips polluted nothing: the honest bytes are
    // still what the cache serves.
    let again = edge
        .query_compact("items", &queries, Some(&*verifier))
        .unwrap();
    assert_eq!(again, honest);
}
