//! Quickstart: the complete central → edge → client flow in ~60 lines.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use std::sync::Arc;
use vbx::prelude::*;

fn main() {
    // ------------------------------------------------------------------
    // Central server (trusted): build a table and its VB-tree.
    // ------------------------------------------------------------------
    let acc = Acc256::test_default();
    let signer = Arc::new(MockSigner::with_version(42, 1));
    let mut central = CentralServer::new(acc.clone(), signer, VbTreeConfig::default());

    let table = WorkloadSpec::new(5_000, 10, 20).build(); // the paper's 200-byte tuples
    central.create_table(table);
    println!("central: built VB-tree over 5000 tuples");

    // ------------------------------------------------------------------
    // Edge server (untrusted): receives a replica, serves queries.
    // ------------------------------------------------------------------
    let edge = EdgeServer::from_bundle(central.bundle());
    let sql = "SELECT a0, a9 FROM items WHERE id BETWEEN 1000 AND 1200";
    let (plan, response) = edge.query_sql(sql).expect("query plans and executes");
    println!(
        "edge: {} rows, VO carries {} signed digests (D_S = {}, D_P = {})",
        response.rows.len(),
        response.vo.digest_count(),
        response.vo.d_s.len(),
        response.vo.d_p.len(),
    );
    println!(
        "edge: plan target = {}, range = [{}, {}]",
        plan.target, plan.range_query.lo, plan.range_query.hi
    );

    // Exact bytes on the wire — the quantity Figures 10/11 model.
    let size = vbx_core::measure_response(&response);
    println!(
        "wire: result {} B + VO {} B = {} B total",
        size.result_bytes,
        size.vo_bytes,
        size.total()
    );

    // ------------------------------------------------------------------
    // Client (trusted): verify against the public key registry.
    // ------------------------------------------------------------------
    let client = EdgeClient::new(edge.schemas(), acc);
    let verified = client
        .verify(
            sql,
            &response,
            central.registry(),
            KeyFreshnessPolicy::RequireCurrent,
        )
        .expect("honest response verifies");
    println!(
        "client: verified {} rows, {} signed digests authenticated with {} signature checks ({})",
        verified.rows.len(),
        response.vo.digest_count(),
        verified.report.signatures_checked,
        verified.report.meter,
    );

    // ------------------------------------------------------------------
    // And the point of it all: tampering is detected.
    // ------------------------------------------------------------------
    let mut tampered = response;
    tampered.rows[0].values[0] = Value::from("forged balance");
    let err = client
        .verify(
            sql,
            &tampered,
            central.registry(),
            KeyFreshnessPolicy::RequireCurrent,
        )
        .unwrap_err();
    println!("client: tampered response rejected — {err}");
}
