//! `repro` — regenerate every table and figure of the paper.
//!
//! For each experiment the analytical model (Section 4, at the paper's
//! 1M-row scale) is printed next to measurements from the real
//! implementation (at a laptop-scale row count, reported inline).
//!
//! ```text
//! cargo run -p vbx-bench --bin repro --release            # everything
//! cargo run -p vbx-bench --bin repro --release -- fig10   # one section
//! cargo run -p vbx-bench --bin repro --release -- all 50000  # more rows
//! cargo run -p vbx-bench --bin repro --release -- perf    # fast-path speedups
//! cargo run -p vbx-bench --bin repro --release -- perf --smoke  # quick CI check
//! cargo run -p vbx-bench --bin repro --release -- serve   # concurrent serving
//! cargo run -p vbx-bench --bin repro --release -- serve --smoke # quick CI check
//! cargo run -p vbx-bench --bin repro --release -- cluster # multi-edge cluster
//! cargo run -p vbx-bench --bin repro --release -- cluster --smoke # quick CI check
//! cargo run -p vbx-bench --bin repro --release -- serve --write-batch 1,4,16 # group-commit sweep
//! cargo run -p vbx-bench --bin repro --release -- recover # durability: fsync cost + replay rate
//! cargo run -p vbx-bench --bin repro --release -- recover --smoke # quick CI check
//! cargo run -p vbx-bench --bin repro --release -- txn     # atomic multi-table commit vs split
//! cargo run -p vbx-bench --bin repro --release -- txn --smoke # quick CI check
//! cargo run -p vbx-bench --bin repro --release -- net     # many-connection TCP serving
//! cargo run -p vbx-bench --bin repro --release -- net --smoke # quick CI check
//! cargo run -p vbx-bench --bin repro --release -- failover # verified sync + edge failover
//! cargo run -p vbx-bench --bin repro --release -- failover --smoke # quick CI check
//! ```
//!
//! The `perf` section (run only when named — it writes a file) measures
//! the crypto fast paths and bulk-build parallelism, prints the speedup
//! ratios, and rewrites `BENCH_perf.json` so the numbers are tracked
//! across PRs. The `serve` section likewise rewrites `BENCH_serve.json`
//! with the concurrent-serving numbers (reader latency percentiles,
//! delta apply cost, cold vs cached query time).

use vbx_analysis::figures::{self, render_table};
use vbx_analysis::{tree, update, Params};
use vbx_bench::{
    fixture, head_to_head, measured_comm, measured_compute, measured_updates, measured_vo_growth,
};
use vbx_core::{RangeQuery, VbTree, VbTreeConfig};
use vbx_crypto::signer::MockSigner;
use vbx_crypto::Acc256;
use vbx_storage::workload::WorkloadSpec;
use vbx_storage::Geometry;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    // `--write-batch <k>` (repeatable, or comma-separated) selects the
    // group-commit batch sizes the serve/cluster sections sweep on the
    // RSA-signed configuration; default k ∈ {1, 4, 16}.
    let mut write_batch: Vec<usize> = Vec::new();
    let mut rest: Vec<String> = Vec::new();
    let mut it = args.into_iter().filter(|a| a != "--smoke");
    while let Some(a) = it.next() {
        if a == "--write-batch" {
            let ks = it.next().unwrap_or_default();
            write_batch.extend(ks.split(',').filter_map(|k| k.parse::<usize>().ok()));
        } else {
            rest.push(a);
        }
    }
    if write_batch.is_empty() {
        write_batch = vec![1, 4, 16];
    }
    let args = rest;
    let section = args.first().map(String::as_str).unwrap_or("all");
    let explicit_rows: Option<u64> = args.get(1).and_then(|s| s.parse().ok());
    let rows: u64 = explicit_rows.unwrap_or(20_000);

    let run = |name: &str| section == "all" || section == name;
    let p = Params::default();

    if section == "perf" {
        // Named-only (writes BENCH_perf.json); not part of `all`.
        let perf_rows = explicit_rows.unwrap_or(if smoke { 1_000 } else { 10_000 });
        let records = vbx_bench::perf::run_perf(perf_rows, smoke);
        vbx_bench::perf::write_bench_json("BENCH_perf.json", "perf", perf_rows, &records)
            .expect("write BENCH_perf.json");
        println!("\nwrote BENCH_perf.json ({} records)", records.len());
        return;
    }

    if section == "cluster" {
        // Named-only (writes BENCH_cluster.json); not part of `all`.
        // The multi-edge cluster benchmark: sharded delta fan-out,
        // routed freshness-verified reads, and the induced-lag scenario
        // (a strict client must reject the stale edge with
        // VerifyError::Stale and accept it again after its subscription
        // queue drains).
        let cluster_rows = explicit_rows.unwrap_or(if smoke { 500 } else { 4_000 });
        let records = vbx_bench::cluster::run_cluster(cluster_rows, smoke, &write_batch);
        vbx_bench::perf::write_bench_json("BENCH_cluster.json", "cluster", cluster_rows, &records)
            .expect("write BENCH_cluster.json");
        println!("\nwrote BENCH_cluster.json ({} records)", records.len());
        return;
    }

    if section == "serve" {
        // Named-only (writes BENCH_serve.json); not part of `all`. The
        // closed-loop concurrent serving benchmark: N reader threads ×
        // verified query mix vs one writer applying signed deltas.
        let serve_rows = explicit_rows.unwrap_or(if smoke { 1_000 } else { 8_000 });
        let records = vbx_bench::serve::run_serve(serve_rows, smoke, &write_batch);
        vbx_bench::perf::write_bench_json("BENCH_serve.json", "serve", serve_rows, &records)
            .expect("write BENCH_serve.json");
        println!("\nwrote BENCH_serve.json ({} records)", records.len());
        return;
    }

    if section == "recover" {
        // Named-only (writes BENCH_recover.json); not part of `all`.
        // The durability benchmark: real-fsync WAL commit cost (per-op
        // vs group-committed), recovery replay throughput, and a
        // byte-identity check of the recovered state against a server
        // that never crashed.
        let recover_rows = explicit_rows.unwrap_or(if smoke { 500 } else { 4_000 });
        let records = vbx_bench::recover::run_recover(recover_rows, smoke);
        vbx_bench::perf::write_bench_json("BENCH_recover.json", "recover", recover_rows, &records)
            .expect("write BENCH_recover.json");
        println!("\nwrote BENCH_recover.json ({} records)", records.len());
        return;
    }

    if section == "txn" {
        // Named-only (writes BENCH_txn.json); not part of `all`. The
        // transaction benchmark: one txn-record fsync for a whole
        // multi-table atom vs k per-table commits, recovery replay,
        // and the two invariants CI gates on — zero divergences and
        // zero partially-recovered txns.
        let txn_rows = explicit_rows.unwrap_or(if smoke { 500 } else { 4_000 });
        let records = vbx_bench::txn::run_txn(txn_rows, smoke);
        vbx_bench::perf::write_bench_json("BENCH_txn.json", "txn", txn_rows, &records)
            .expect("write BENCH_txn.json");
        println!("\nwrote BENCH_txn.json ({} records)", records.len());
        return;
    }

    if section == "failover" {
        // Named-only (writes BENCH_failover.json); not part of `all`.
        // Verified chunked state sync + edge failover: restore
        // throughput through the chunk-and-verify pipeline, promotion
        // downtime when an edge is killed under load, and the headline
        // invariant that zero unverified rows are served around the
        // failover.
        let failover_rows = explicit_rows.unwrap_or(if smoke { 400 } else { 3_000 });
        let records = vbx_bench::failover::run_failover(failover_rows, smoke);
        vbx_bench::perf::write_bench_json(
            "BENCH_failover.json",
            "failover",
            failover_rows,
            &records,
        )
        .expect("write BENCH_failover.json");
        println!("\nwrote BENCH_failover.json ({} records)", records.len());
        return;
    }

    if section == "net" {
        // Named-only (writes BENCH_net.json); not part of `all`. The
        // networked serving benchmark: hundreds of concurrent verified
        // TCP connections (compact VBX4 readers) vs one writer
        // streaming group-commit batches over the wire.
        let net_rows = explicit_rows.unwrap_or(if smoke { 500 } else { 2_000 });
        let connections = if smoke { 32 } else { 192 };
        let records = vbx_bench::net::run_net(net_rows, connections, smoke);
        vbx_bench::perf::write_bench_json("BENCH_net.json", "net", net_rows, &records)
            .expect("write BENCH_net.json");
        println!("\nwrote BENCH_net.json ({} records)", records.len());
        return;
    }

    if run("params") {
        print_params(&p, rows);
    }
    if run("fig8") {
        fig8(&p, rows);
    }
    if run("fig9") {
        fig9(&p, rows);
    }
    if run("fig10") {
        fig10(&p, rows);
    }
    if run("fig11") {
        fig11(&p, rows);
    }
    if run("fig12") {
        fig12(&p, rows);
    }
    if run("fig13a") {
        println!("{}", render_table(&figures::figure13a(&p)));
    }
    if run("fig13b") {
        println!("{}", render_table(&figures::figure13b(&p)));
    }
    if run("storage") {
        storage(&p, rows);
    }
    if run("update") {
        update_costs(&p, rows);
    }
    if run("merkle") {
        merkle_extension();
    }
    if run("schemes") {
        scheme_head_to_head(rows);
    }
    if run("ablate") {
        ablations(rows);
    }
}

/// Design-choice ablations beyond the paper's figures: fan-out vs VO
/// size, and accumulator group width vs verification work.
fn ablations(rows: u64) {
    use vbx_core::{execute, ClientVerifier, RangeQuery};
    use vbx_crypto::Acc512;
    use vbx_crypto::Signer as _;

    println!("# Ablation — fan-out vs VO size (rows = {rows}, 100-row result)");
    println!(
        "{:>8} {:>8} {:>12} {:>12}",
        "fanout", "height", "D_S digests", "VO bytes"
    );
    let table = WorkloadSpec::new(rows, 4, 10).build();
    let signer = MockSigner::new(1);
    let q = RangeQuery::select_all(rows / 2, rows / 2 + 99);
    for fanout in [8usize, 32, 114, 256] {
        let tree: VbTree<4> = VbTree::bulk_load(
            &table,
            VbTreeConfig {
                geometry: Geometry::default(),
                fanout_override: Some(fanout),
            },
            Acc256::test_default(),
            &signer,
        );
        let resp = execute(&tree, &q, None);
        let size = vbx_core::measure_response(&resp);
        println!(
            "{:>8} {:>8} {:>12} {:>12}",
            fanout,
            tree.height(),
            resp.vo.d_s.len(),
            size.vo_bytes
        );
    }

    println!();
    println!("# Ablation — accumulator group width (2k rows, 200-row result)");
    let table = WorkloadSpec::new(2_000, 4, 10).build();
    let q = RangeQuery::select_all(500, 699);
    {
        let acc = Acc256::test_default();
        let tree: VbTree<4> =
            VbTree::bulk_load(&table, VbTreeConfig::default(), acc.clone(), &signer);
        let resp = execute(&tree, &q, None);
        let t0 = std::time::Instant::now();
        ClientVerifier::new(&acc, table.schema())
            .verify(signer.verifier().as_ref(), &q, &resp)
            .unwrap();
        println!(
            "256-bit group: verify {} rows in {:?}, VO {} B",
            resp.rows.len(),
            t0.elapsed(),
            vbx_core::measure_response(&resp).vo_bytes
        );
    }
    {
        let acc = Acc512::test_default_512();
        let tree: VbTree<8> =
            VbTree::bulk_load(&table, VbTreeConfig::default(), acc.clone(), &signer);
        let resp = execute(&tree, &q, None);
        let t0 = std::time::Instant::now();
        ClientVerifier::new(&acc, table.schema())
            .verify(signer.verifier().as_ref(), &q, &resp)
            .unwrap();
        println!(
            "512-bit group: verify {} rows in {:?}, VO {} B",
            resp.rows.len(),
            t0.elapsed(),
            vbx_core::measure_response(&resp).vo_bytes
        );
    }
    println!();
}

fn print_params(p: &Params, rows: u64) {
    println!("# Table 1 — parameters");
    println!("|D| digest len      : {} B", p.digest_len);
    println!("|K| key len         : {} B", p.key_len);
    println!("|P| pointer len     : {} B", p.ptr_len);
    println!("|B| block size      : {} B", p.block_size);
    println!("N_R rows (model)    : {}", p.n_r);
    println!("N_R rows (measured) : {rows}");
    println!("N_C columns         : {}", p.n_c);
    println!("Q_C result columns  : {}", p.q_c);
    println!("attr size           : {} B", p.attr_size);
    println!("X = Cost_s/Cost_h1  : {}", p.x);
    println!("Cost_h2/Cost_h1     : {}", p.combine_ratio);
    println!();
}

fn fig8(p: &Params, rows: u64) {
    println!("{}", render_table(&figures::figure8(p)));
    println!("## measured fan-out / height of real trees ({rows} rows, mock signer)");
    println!(
        "{:>12} {:>16} {:>16} {:>16}",
        "log2|K|", "fanout(model)", "fanout(real)", "height(real)"
    );
    let table = WorkloadSpec::new(rows, 4, 10).build();
    let signer = MockSigner::new(1);
    for log_k in 0..=8u32 {
        let geometry = Geometry {
            key_len: 1usize << log_k,
            ..Geometry::default()
        };
        let config = VbTreeConfig {
            geometry,
            fanout_override: None,
        };
        let t: VbTree<4> = VbTree::bulk_load(&table, config, Acc256::test_default(), &signer);
        let s = t.stats();
        println!(
            "{:>12} {:>16} {:>16} {:>16}",
            log_k,
            geometry.vbtree_fanout(),
            s.fanout,
            s.height
        );
    }
    println!();
}

fn fig9(p: &Params, rows: u64) {
    println!("{}", render_table(&figures::figure9(p)));
    println!("## model heights at the measured scale ({rows} rows)");
    println!("{:>12} {:>16} {:>16}", "log2|K|", "B-tree", "VB-tree");
    for log_k in 0..=8u32 {
        let ps = Params {
            key_len: 1usize << log_k,
            n_r: rows,
            ..p.clone()
        };
        println!(
            "{:>12} {:>16} {:>16}",
            log_k,
            tree::btree_height(&ps),
            tree::vbtree_height(&ps)
        );
    }
    println!();
}

fn fig10(p: &Params, rows: u64) {
    for q_c in [2usize, 5, 8] {
        println!("{}", render_table(&figures::figure10(p, q_c)));
    }
    println!("## measured bytes on the wire ({rows} rows)");
    let fix = fixture(rows, 10, 20, None);
    println!(
        "{:>6} {:>4} {:>14} {:>14} {:>14} {:>14}",
        "sel%", "Q_C", "naive", "vbtree", "vb result", "vb VO"
    );
    for q_c in [2usize, 5, 8] {
        for pct in [10u32, 20, 40, 60, 80, 100] {
            let (naive, vb, result, vo) = measured_comm(&fix, q_c, pct as f64 / 100.0);
            println!("{pct:>6} {q_c:>4} {naive:>14} {vb:>14} {result:>14} {vo:>14}");
        }
    }
    println!();
}

fn fig11(p: &Params, rows: u64) {
    println!("{}", render_table(&figures::figure11(p)));
    println!("## measured bytes vs attribute size ({rows} rows, all columns)");
    println!(
        "{:>12} {:>6} {:>14} {:>14}",
        "attrFactor", "sel%", "naive", "vbtree"
    );
    for a in 0..=4u32 {
        let attr = (1usize << a) * 16;
        let fix = fixture(rows, 10, attr, None);
        for pct in [20u32, 80] {
            let (naive, vb, _, _) = measured_comm(&fix, 10, pct as f64 / 100.0);
            println!("{a:>12} {pct:>6} {naive:>14} {vb:>14}");
        }
    }
    println!();
}

fn fig12(p: &Params, rows: u64) {
    for x in [5.0f64, 10.0, 100.0] {
        println!("{}", render_table(&figures::figure12(p, x)));
    }
    println!("## measured verification cost ({rows} rows, units of Cost_h1)");
    let fix = fixture(rows, 10, 20, None);
    println!(
        "{:>6} {:>6} {:>16} {:>16} {:>10} {:>10} {:>10}",
        "X", "sel%", "naive", "vbtree", "vb hash", "vb comb", "vb verify"
    );
    for x in [5.0f64, 10.0, 100.0] {
        let ps = Params { x, ..p.clone() };
        for pct in [20u32, 60, 100] {
            let (naive, vb, meter) = measured_compute(&fix, 10, pct as f64 / 100.0, &ps);
            println!(
                "{x:>6} {pct:>6} {naive:>16.0} {vb:>16.0} {:>10} {:>10} {:>10}",
                meter.hash_ops, meter.combine_ops, meter.verify_ops
            );
        }
    }
    println!();
}

fn storage(p: &Params, rows: u64) {
    println!("# Section 4.1 — storage costs");
    println!(
        "base-table digest overhead (model, 1M rows): {} B",
        tree::base_table_overhead(p)
    );
    println!("per-node digest overhead: {} B", tree::node_overhead(p));
    println!(
        "index bytes: B-tree {} / VB-tree {}",
        tree::btree_index_bytes(p),
        tree::vbtree_index_bytes(p)
    );
    let fix = fixture(rows, 10, 20, None);
    let stats = fix.tree.stats();
    println!("## measured ({rows} rows)");
    println!("tree height          : {}", stats.height);
    println!("nodes                : {}", stats.nodes);
    println!("leaves               : {}", stats.leaves);
    println!("fan-out              : {}", stats.fanout);
    println!("logical index bytes  : {}", stats.logical_bytes);
    println!("actual digest bytes  : {}", stats.digest_bytes);
    println!("base table bytes     : {}", fix.table.data_bytes());
    println!();
}

fn update_costs(p: &Params, rows: u64) {
    println!("# Section 4.4 — update costs (equations (11), (12))");
    let ins = update::insert_breakdown(p);
    println!(
        "insert (model, 1M rows): hashes {} combines {} signs {} -> {:.0} Cost_h1",
        ins.hashes,
        ins.combines,
        ins.signs,
        update::update_total(p, &ins)
    );
    for n_d in [100u64, 10_000] {
        let del = update::delete_breakdown(p, n_d);
        println!(
            "delete {n_d} rows (model): combines {:.0} signs {:.0} -> {:.0} Cost_h1",
            del.combines,
            del.signs,
            update::update_total(p, &del)
        );
    }
    let scaled = Params {
        n_r: rows,
        ..p.clone()
    };
    let (ins_m, del_m, range_m) = measured_updates(rows, 100);
    let ins_model = update::insert_breakdown(&scaled);
    println!("## measured ({rows} rows)");
    println!(
        "insert: measured [{}] vs model signs {:.0}",
        ins_m, ins_model.signs
    );
    println!("point delete: measured [{del_m}]");
    let del_model = update::delete_breakdown(&scaled, 100);
    println!(
        "range delete (100 rows): measured [{range_m}] vs model combines {:.0} signs {:.0}",
        del_model.combines, del_model.signs
    );
    println!();
}

/// All three schemes through the one generic `AuthScheme` pipeline:
/// same table, same query, the paper's three cost axes side by side.
fn scheme_head_to_head(rows: u64) {
    println!("# Head-to-head — one AuthScheme pipeline, three schemes");
    let hi = rows / 5; // 20% selectivity
    let q = RangeQuery::select_all(0, hi.saturating_sub(1));
    println!("table: {rows} rows x 10 cols, query [0, {}]", q.hi);
    println!(
        "{:>10} {:>8} {:>12} {:>12} {:>10} {:>10} {:>10}",
        "scheme", "rows", "wire bytes", "VO digests", "hashes", "combines", "sig checks"
    );
    for m in head_to_head(rows, 10, 20, None, &q) {
        println!(
            "{:>10} {:>8} {:>12} {:>12} {:>10} {:>10} {:>10}",
            m.scheme,
            m.rows,
            m.wire_bytes,
            m.vo_digests,
            m.meter.hash_ops,
            m.meter.combine_ops,
            m.meter.verify_ops
        );
    }
    println!();
}

fn merkle_extension() {
    println!("# Extension — VO growth: VB-tree vs Merkle root-anchored proofs");
    println!(
        "{:>10} {:>20} {:>20}",
        "rows", "VB-tree VO digests", "Merkle proof hashes"
    );
    for (rows, vb, mk) in measured_vo_growth(&[500, 2_000, 8_000, 32_000]) {
        println!("{rows:>10} {vb:>20} {mk:>20}");
    }
    println!();
}
