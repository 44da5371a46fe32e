//! The compact-VO comparison: flat (`VBX2`) vs op-stream (`VBX4`)
//! encodings of the same k-range batch on the **RSA-1024-signed
//! configuration**.
//!
//! Flat serving answers k ranges with k independent VOs, each carrying
//! its own signed digests — one shipped signature per digest, which
//! the client screens in one sweep per response. The compact path
//! merges the batch into one op stream: shared digests are
//! deduplicated through the dictionary, every digest ships bare, and a
//! single condensed signature (Mykletun et al.'s aggregation —
//! multiplicative for textbook RSA) covers them all, so the client pays
//! **one** modexp sweep for the whole batch and the wire carries one
//! signature. The records land in `BENCH_serve.json` /
//! `BENCH_cluster.json` and CI gates on
//! `vo_bytes_compact ≤ vo_bytes_flat` and
//! `sigs_per_query_batched ≤ sigs_per_query_single`, where the flat
//! side counts the signed digests a query has authenticated (the
//! signatures shipped for it) and the batched side the checks run.

use crate::perf::BenchRecord;
use std::time::Instant;
use vbx_core::{
    execute, execute_multi_compact, measure_compact, measure_response, ClientVerifier, RangeQuery,
    VbTree, VbTreeConfig,
};
use vbx_crypto::{rsa, Acc256};
use vbx_storage::workload::WorkloadSpec;

/// Measure the k-range batch on both encodings and return the four
/// gated records (plus verify-time observations). Used by both the
/// `serve` and `cluster` sections so both committed BENCH files carry
/// the comparison.
pub fn sweep_compact_vo(smoke: bool) -> Vec<BenchRecord> {
    let rows: u64 = if smoke { 240 } else { 2_000 };
    let signer = rsa::fixture_keypair_crt_1024();
    let verifier = signer.public_key();
    let table = WorkloadSpec {
        table: "cvo".into(),
        ..WorkloadSpec::new(rows, 3, 8)
    }
    .build();
    let tree = VbTree::bulk_load(
        &table,
        VbTreeConfig::default(),
        Acc256::test_default(),
        &signer,
    );
    let schema = table.schema().clone();

    // Three overlapping windows — the multi-query batch a planner emits
    // for an OR-of-ranges predicate; overlap feeds the dictionary.
    let span = (rows / 10).max(4);
    let queries: Vec<RangeQuery> = (0..3u64)
        .map(|i| {
            let lo = rows / 4 + i * span / 2;
            RangeQuery::select_all(lo, lo + span)
        })
        .collect();
    let k = queries.len() as u64;

    println!("# compact-VO comparison — RSA-1024, {rows} rows, {k} overlapping ranges");

    // Flat path: k independent responses, each independently verified.
    let client = ClientVerifier::new(tree.accumulator(), &schema);
    let mut flat_vo_bytes = 0usize;
    let mut flat_sigs = 0u64;
    let t0 = Instant::now();
    for q in &queries {
        let resp = execute(&tree, q, None);
        flat_vo_bytes += measure_response(&resp).vo_bytes;
        client
            .verify(&verifier, q, &resp)
            .expect("honest flat response verifies");
        flat_sigs += resp.vo.digest_count() as u64;
    }
    let flat_ns = t0.elapsed().as_nanos() as f64;

    // Compact path: one merged op stream, one condensed signature.
    let compact = execute_multi_compact(&tree, &queries, None, Some(&verifier));
    let compact_vo_bytes = measure_compact(&compact).vo_bytes;
    let t0 = Instant::now();
    let report = client
        .verify_compact(&verifier, &queries, &compact)
        .expect("honest compact response verifies");
    let compact_ns = t0.elapsed().as_nanos() as f64;
    let compact_sigs = report.signatures_checked;

    let mut recs = Vec::new();
    let mut rec = |op: &str, n: u64, value: f64| {
        println!("{op:<28} {value:>14.1}  (n = {n})");
        recs.push(BenchRecord {
            op: op.to_string(),
            n,
            ns_per_op: value,
        });
    };
    rec("vo_bytes_flat", k, flat_vo_bytes as f64);
    rec("vo_bytes_compact", k, compact_vo_bytes as f64);
    rec("sigs_per_query_single", k, flat_sigs as f64 / k as f64);
    rec("sigs_per_query_batched", k, compact_sigs as f64 / k as f64);
    rec("verify_flat_per_query", k, flat_ns / k as f64);
    rec("verify_batched_per_query", k, compact_ns / k as f64);

    println!(
        "compact VO             : {:.2}x smaller ({flat_vo_bytes} B → {compact_vo_bytes} B), \
         {flat_sigs} sigs → {compact_sigs} (peak stack {})",
        flat_vo_bytes as f64 / compact_vo_bytes.max(1) as f64,
        report.peak_stack_depth,
    );
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

    #[test]
    fn smoke_compact_beats_flat_on_bytes_and_signatures() {
        let recs = sweep_compact_vo(true);
        assert!(get(&recs, "vo_bytes_compact") <= get(&recs, "vo_bytes_flat"));
        assert!(
            get(&recs, "sigs_per_query_batched") < get(&recs, "sigs_per_query_single"),
            "one condensed signature must beat one per shipped digest"
        );
        assert!(get(&recs, "sigs_per_query_batched") <= 1.0);
    }
}
