//! The `repro -- perf` section: measured speedups of the fast-path
//! crypto engine, with machine-readable JSON output.
//!
//! Every run rewrites `BENCH_perf.json` (op name, `n`, ns/op) in the
//! working directory so the perf trajectory is tracked across PRs —
//! diff the file between commits to see the hot paths drift. The
//! human-readable report prints the same numbers plus the fast-vs-naive
//! speedup ratios the acceptance gates care about:
//!
//! * `accum_lift` (fixed-base comb table) vs `accum_lift_naive`
//!   (square-and-multiply);
//! * `rsa*_sign` (CRT, two half-width exponentiations) vs
//!   `rsa*_sign_fullwidth` (one full-width exponentiation);
//! * `vbtree_build_par` (`bulk_load_parallel`) vs `vbtree_build_seq`;
//! * `sha256_block` (the dispatched compression — the x86 SHA
//!   extensions where the CPU has them) vs `sha256_block_portable`.

use std::hint::black_box;
use std::time::Instant;
use vbx_core::{default_build_threads, VbTree, VbTreeConfig};
use vbx_crypto::accum::exp_from_seed;
use vbx_crypto::rsa;
use vbx_crypto::signer::{MockSigner, Signer};
use vbx_crypto::{sha256, Acc256, Sha256};
use vbx_mathx::{U1024, U256};
use vbx_storage::workload::WorkloadSpec;

/// One measured operation: `ns_per_op` nanoseconds per execution, with
/// `n` executions behind the estimate (or the input size, for the bulk
/// builds — see each op's comment).
#[derive(Clone, Debug)]
pub struct BenchRecord {
    /// Operation name (stable across PRs — the trajectory key).
    pub op: String,
    /// Iterations measured, or rows for whole-build ops.
    pub n: u64,
    /// Nanoseconds per operation.
    pub ns_per_op: f64,
}

/// Reader threads for the closed-loop benchmarks (`serve`, `cluster`):
/// at least 2 even on a single hardware thread, more cores add readers
/// up to 4.
pub fn reader_threads() -> usize {
    std::thread::available_parallelism()
        .map_or(2, usize::from)
        .clamp(2, 4)
}

/// Nearest-rank percentile of an ascending-sorted latency list.
pub fn percentile(sorted: &[u64], pct: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * pct).round() as usize;
    sorted[idx] as f64
}

/// Mean wall time of `f` in nanoseconds over `iters` runs (after one
/// warm-up run).
fn time_ns<F: FnMut()>(iters: u64, mut f: F) -> f64 {
    f();
    let t0 = Instant::now();
    for _ in 0..iters {
        f();
    }
    t0.elapsed().as_nanos() as f64 / iters as f64
}

fn record(recs: &mut Vec<BenchRecord>, op: &str, n: u64, ns: f64) {
    println!("{op:<28} {ns:>14.1} ns/op  (n = {n})");
    recs.push(BenchRecord {
        op: op.to_string(),
        n,
        ns_per_op: ns,
    });
}

/// Run the perf suite at `rows` table rows (`smoke` shrinks iteration
/// counts for CI) and return the records written to `BENCH_perf.json`.
pub fn run_perf(rows: u64, smoke: bool) -> Vec<BenchRecord> {
    let mut recs = Vec::new();
    let scale: u64 = if smoke { 1 } else { 10 };

    // ---- accumulator lift: fixed-base table vs square-and-multiply ----
    let acc = Acc256::test_default();
    let exps: Vec<_> = (0..16u64).map(|i| exp_from_seed(&acc, i)).collect();
    let mut i = 0usize;
    let iters = 200 * scale;
    let lift_fast = time_ns(iters, || {
        i = (i + 1) % exps.len();
        black_box(acc.lift(&exps[i]));
    });
    record(&mut recs, "accum_lift", iters, lift_fast);
    let lift_naive = time_ns(iters, || {
        i = (i + 1) % exps.len();
        black_box(acc.lift_naive(&exps[i]));
    });
    record(&mut recs, "accum_lift_naive", iters, lift_naive);

    // ---- combine_all: Montgomery-chained exponent product ----
    let chain_iters = 200 * scale;
    let combine_all = time_ns(chain_iters, || {
        black_box(acc.combine_all(exps.iter()));
    });
    record(&mut recs, "accum_combine_all_16", chain_iters, combine_all);

    // ---- SHA-256: one compression on each kernel, and a 62-byte
    // message (formula (1)'s input size here: two blocks once padded) ----
    let sha_iters = 20_000 * scale;
    let block = [0xA5u8; 64];
    let mut state = [0u32; 8];
    let sha_block = time_ns(sha_iters, || {
        Sha256::compress(black_box(&mut state), black_box(&block));
    });
    record(&mut recs, "sha256_block", sha_iters, sha_block);
    let sha_block_soft = time_ns(sha_iters, || {
        Sha256::compress_soft(black_box(&mut state), black_box(&block));
    });
    record(
        &mut recs,
        "sha256_block_portable",
        sha_iters,
        sha_block_soft,
    );
    let msg62 = [0x5Au8; 62];
    let sha62 = time_ns(sha_iters, || {
        black_box(sha256(black_box(&msg62)));
    });
    record(&mut recs, "sha256_62B", sha_iters, sha62);

    // ---- word-level division: the reduction behind every attribute
    // hash (a 256-bit digest modulo the 255-bit group order) and behind
    // each half of a CRT signature (a 1024-bit EM modulo a 512-bit prime) ----
    let hash_iters = 2000 * scale;
    let input = [0x5Au8; 60];
    let hash_ns = time_ns(hash_iters, || {
        black_box(acc.exp_from_bytes(black_box(&input)));
    });
    record(&mut recs, "exp_from_bytes", hash_iters, hash_ns);
    let q = acc.group().q;
    let wide = U256::MAX;
    let rem256 = time_ns(hash_iters, || {
        black_box(black_box(&wide).rem(&q));
    });
    record(&mut recs, "uint_rem_256", hash_iters, rem256);
    let (p, _) = vbx_mathx::groups::rsa_fixtures::crt_primes_1024();
    let em = U1024::MAX.shr(8);
    let rem1024 = time_ns(hash_iters, || {
        black_box(black_box(&em).rem(&p));
    });
    record(&mut recs, "uint_rem_1024_by_512", hash_iters, rem1024);

    // ---- RSA sign: CRT vs full-width, same keys ----
    let msg = b"node digest payload for perf measurement";
    let kp512 = rsa::fixture_keypair_crt_512();
    let kp512_full = kp512.without_crt();
    let s_iters = 20 * scale;
    let crt512 = time_ns(s_iters, || {
        black_box(kp512.sign(msg));
    });
    record(&mut recs, "rsa512_sign", s_iters, crt512);
    let full512 = time_ns(s_iters, || {
        black_box(kp512_full.sign(msg));
    });
    record(&mut recs, "rsa512_sign_fullwidth", s_iters, full512);

    let kp1024 = rsa::fixture_keypair_crt_1024();
    let kp1024_full = kp1024.without_crt();
    let s_iters = (10 * scale).max(5);
    let crt1024 = time_ns(s_iters, || {
        black_box(kp1024.sign(msg));
    });
    record(&mut recs, "rsa1024_sign", s_iters, crt1024);
    let full1024 = time_ns(s_iters, || {
        black_box(kp1024_full.sign(msg));
    });
    record(&mut recs, "rsa1024_sign_fullwidth", s_iters, full1024);
    let v1024 = kp1024.verifier();
    let sig1024 = kp1024.sign(msg);
    let verify1024 = time_ns(50 * scale, || {
        black_box(v1024.verify(msg, &sig1024));
    });
    record(&mut recs, "rsa1024_verify", 50 * scale, verify1024);

    // ---- bulk tree build: sequential vs parallel, same fixture ----
    let table = WorkloadSpec::new(rows, 10, 20).build();
    let signer = MockSigner::new(0xBEEF);
    let build_iters = if smoke { 1 } else { 3 };
    let seq_ns = time_ns(build_iters, || {
        black_box(VbTree::<4>::bulk_load(
            &table,
            VbTreeConfig::default(),
            acc.clone(),
            &signer,
        ));
    });
    record(&mut recs, "vbtree_build_seq", rows, seq_ns);
    // Honest thread count: whatever the scheme layer would actually use
    // on this machine/table. On a single hardware thread (or below the
    // parallel threshold) that is 1 and `bulk_load_parallel` takes the
    // sequential path — forcing 2 here used to report a bogus
    // "parallel" build that was just spawn/join overhead.
    let threads = default_build_threads(rows as usize);
    let par_ns = time_ns(build_iters, || {
        black_box(VbTree::<4>::bulk_load_parallel(
            &table,
            VbTreeConfig::default(),
            acc.clone(),
            &signer,
            threads,
        ));
    });
    record(
        &mut recs,
        &format!("vbtree_build_par_t{threads}"),
        rows,
        par_ns,
    );

    // ---- end-to-end RSA-signed build: the deployment path where
    // signing dominates (the paper prices one signature at ~10⁴ hashes),
    // so the CRT fast path moves the whole build ----
    let rsa_rows = if smoke { 100 } else { 500 };
    let rsa_table = WorkloadSpec::new(rsa_rows, 4, 10).build();
    let kp = rsa::fixture_keypair_crt_512();
    let kp_full = kp.without_crt();
    let acc512 = vbx_crypto::Acc512::test_default_512();
    let rsa_build_crt = time_ns(1, || {
        black_box(VbTree::<8>::bulk_load(
            &rsa_table,
            VbTreeConfig::default(),
            acc512.clone(),
            &kp,
        ));
    });
    record(
        &mut recs,
        "vbtree_build_rsa512_crt",
        rsa_rows,
        rsa_build_crt,
    );
    let rsa_build_full = time_ns(1, || {
        black_box(VbTree::<8>::bulk_load(
            &rsa_table,
            VbTreeConfig::default(),
            acc512.clone(),
            &kp_full,
        ));
    });
    record(
        &mut recs,
        "vbtree_build_rsa512_fullwidth",
        rsa_rows,
        rsa_build_full,
    );

    println!();
    println!(
        "lift speedup (fixed-base vs naive)      : {:.2}x",
        lift_naive / lift_fast
    );
    println!(
        "sha256 block speedup ({} vs portable): {:.2}x",
        Sha256::kernel(),
        sha_block_soft / sha_block
    );
    println!(
        "rsa512 sign speedup (CRT vs full-width) : {:.2}x",
        full512 / crt512
    );
    println!(
        "rsa1024 sign speedup (CRT vs full-width): {:.2}x",
        full1024 / crt1024
    );
    if threads > 1 {
        println!(
            "build speedup ({threads} threads vs sequential, {rows} rows): {:.2}x",
            seq_ns / par_ns
        );
    } else {
        println!(
            "build parallelism: 1 effective thread on this machine/size — sequential fallback"
        );
    }
    println!(
        "RSA-signed build speedup (CRT vs full-width, {rsa_rows} rows): {:.2}x",
        rsa_build_full / rsa_build_crt
    );
    recs
}

/// Serialize records to a `BENCH_*.json` trajectory file (`bench` names
/// the section — "perf", "serve"). No serde in the workspace, so the
/// JSON is written by hand (flat structure, ASCII op names — nothing
/// needs escaping).
pub fn write_bench_json(
    path: &str,
    bench: &str,
    rows: u64,
    records: &[BenchRecord],
) -> std::io::Result<()> {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"bench\": \"{bench}\",\n"));
    out.push_str(&format!("  \"rows\": {rows},\n"));
    out.push_str("  \"records\": [\n");
    for (i, r) in records.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"op\": \"{}\", \"n\": {}, \"ns_per_op\": {:.1}}}{}\n",
            r.op,
            r.n,
            r.ns_per_op,
            if i + 1 < records.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    std::fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_shape_is_valid() {
        let recs = vec![
            BenchRecord {
                op: "a".into(),
                n: 1,
                ns_per_op: 1.5,
            },
            BenchRecord {
                op: "b".into(),
                n: 2,
                ns_per_op: 2.0,
            },
        ];
        let path = std::env::temp_dir().join("vbx_bench_test.json");
        let path = path.to_str().unwrap();
        write_bench_json(path, "perf", 100, &recs).unwrap();
        let body = std::fs::read_to_string(path).unwrap();
        std::fs::remove_file(path).ok();
        assert!(body.contains("\"op\": \"a\""));
        assert!(body.contains("\"rows\": 100"));
        assert!(body.contains("\"ns_per_op\": 2.0"));
        // balanced braces/brackets, single trailing newline
        assert_eq!(body.matches('{').count(), body.matches('}').count());
        assert_eq!(body.matches('[').count(), body.matches(']').count());
    }

    #[test]
    fn smoke_perf_runs_and_measures() {
        let recs = run_perf(200, true);
        assert!(recs.iter().any(|r| r.op == "accum_lift"));
        assert!(recs.iter().any(|r| r.op.starts_with("vbtree_build_par")));
        assert!(recs.iter().all(|r| r.ns_per_op > 0.0));
    }
}
