//! # vbx-bench — measurement harness
//!
//! Shared fixtures and measurement routines behind the `repro` binary
//! (which regenerates every figure/table of the paper) and the Criterion
//! benches. Measurements run the *real* implementation — trees, VOs,
//! verification — at laptop scale and report the same metrics the
//! analytical model predicts, so shapes can be compared directly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod compact;
pub mod failover;
pub mod net;
pub mod perf;
pub mod recover;
pub mod serve;
pub mod txn;
pub mod write_batch;

use vbx_analysis::Params;
use vbx_baselines::{MerkleAuthStore, MerkleScheme, NaiveAuthStore, NaiveScheme};
use vbx_core::scheme::AuthScheme;
use vbx_core::{execute, ClientVerifier, CostMeter, RangeQuery, VbScheme, VbTree, VbTreeConfig};
use vbx_crypto::signer::{MockSigner, Signer};
use vbx_crypto::Acc256;
use vbx_storage::workload::WorkloadSpec;
use vbx_storage::Table;

/// A measurement fixture: one synthetic table with all three
/// authenticated stores built over it.
pub struct Fixture {
    /// The synthetic base table.
    pub table: Table,
    /// The VB-tree (mock-signed for speed; signature sizes are reported
    /// separately by the primitives bench).
    pub tree: VbTree<4>,
    /// The Naive per-tuple/per-attribute store.
    pub naive: NaiveAuthStore<4>,
    /// The Merkle hash tree baseline.
    pub merkle: MerkleAuthStore,
    /// Shared accumulator.
    pub acc: Acc256,
    /// The signer used throughout.
    pub signer: MockSigner,
}

/// Build a fixture. `fanout: None` uses the Table 1 geometry.
pub fn fixture(rows: u64, n_c: usize, attr_bytes: usize, fanout: Option<usize>) -> Fixture {
    let spec = WorkloadSpec::new(rows, n_c, attr_bytes);
    let table = spec.build();
    let signer = MockSigner::new(0xBEEF);
    let acc = Acc256::test_default();
    let config = match fanout {
        Some(f) => VbTreeConfig::with_fanout(f),
        None => VbTreeConfig::default(),
    };
    let tree = VbTree::bulk_load_parallel(
        &table,
        config,
        acc.clone(),
        &signer,
        vbx_core::default_build_threads(table.len()),
    );
    let naive = NaiveAuthStore::build(&table, acc.clone(), &signer);
    let merkle = MerkleAuthStore::build(&table, &signer);
    Fixture {
        table,
        tree,
        naive,
        merkle,
        acc,
        signer,
    }
}

/// A measurement fixture for one [`AuthScheme`]: the synthetic table
/// and the authenticated store built over it — the generic counterpart
/// of [`Fixture`], usable with any scheme.
pub struct SchemeFixture<S: AuthScheme> {
    /// The scheme descriptor (public parameters).
    pub scheme: S,
    /// The synthetic base table.
    pub table: Table,
    /// The authenticated store.
    pub store: S::Store,
    /// The signer used throughout.
    pub signer: MockSigner,
}

/// Build a generic fixture over `scheme`.
pub fn scheme_fixture<S: AuthScheme>(
    scheme: S,
    rows: u64,
    n_c: usize,
    attr_bytes: usize,
) -> SchemeFixture<S> {
    let table = WorkloadSpec::new(rows, n_c, attr_bytes).build();
    let signer = MockSigner::new(0xBEEF);
    let store = scheme.build(&table, &signer);
    SchemeFixture {
        scheme,
        table,
        store,
        signer,
    }
}

/// One scheme's measured costs for one query, all through the
/// [`AuthScheme`] pipeline.
#[derive(Clone, Debug)]
pub struct SchemeMeasurement {
    /// Scheme name (`vb-tree`, `naive`, `merkle`).
    pub scheme: &'static str,
    /// Result rows returned.
    pub rows: usize,
    /// Bytes on the wire (communication cost).
    pub wire_bytes: usize,
    /// Digests/hashes shipped in the VO (VO-size metric).
    pub vo_digests: usize,
    /// Client-side primitive operations.
    pub meter: CostMeter,
}

/// Execute and verify one range query through the scheme interface,
/// returning the paper's three cost axes.
pub fn measure_scheme<S: AuthScheme>(
    fix: &SchemeFixture<S>,
    query: &RangeQuery,
) -> SchemeMeasurement {
    let resp = fix.scheme.range_query(&fix.store, query);
    let mut meter = CostMeter::new();
    let batch = fix
        .scheme
        .verify(
            fix.table.schema(),
            fix.signer.verifier().as_ref(),
            query,
            &resp,
            &mut meter,
        )
        .unwrap_or_else(|e| panic!("honest {} response verifies: {e}", S::NAME));
    SchemeMeasurement {
        scheme: S::NAME,
        rows: batch.rows.len(),
        wire_bytes: S::response_wire_bytes(&resp),
        vo_digests: S::vo_digest_count(&resp),
        meter,
    }
}

/// The paper's head-to-head: the same table and query measured through
/// all three schemes via the one generic pipeline.
pub fn head_to_head(
    rows: u64,
    n_c: usize,
    attr_bytes: usize,
    fanout: Option<usize>,
    query: &RangeQuery,
) -> Vec<SchemeMeasurement> {
    let acc = Acc256::test_default();
    let config = match fanout {
        Some(f) => VbTreeConfig::with_fanout(f),
        None => VbTreeConfig::default(),
    };
    let vb = scheme_fixture(VbScheme::new(acc.clone(), config), rows, n_c, attr_bytes);
    let naive = scheme_fixture(NaiveScheme::new(acc), rows, n_c, attr_bytes);
    let merkle = scheme_fixture(MerkleScheme, rows, n_c, attr_bytes);
    vec![
        measure_scheme(&vb, query),
        measure_scheme(&naive, query),
        measure_scheme(&merkle, query),
    ]
}

/// The projection of the first `q_c` columns, or `None` for all.
pub fn projection(n_c: usize, q_c: usize) -> Option<Vec<usize>> {
    if q_c >= n_c {
        None
    } else {
        Some((0..q_c).collect())
    }
}

/// Measured communication cost (bytes on the wire) at a selectivity:
/// `(naive_bytes, vbtree_bytes, vbtree_result_bytes, vbtree_vo_bytes)`.
pub fn measured_comm(fix: &Fixture, q_c: usize, selectivity: f64) -> (usize, usize, usize, usize) {
    let n_c = fix.table.schema().num_columns();
    let rows = fix.table.len() as u64;
    let hi = sel_hi(rows, selectivity);
    let proj = projection(n_c, q_c);
    let q = RangeQuery {
        lo: 0,
        hi,
        projection: proj.clone(),
    };
    let resp = execute(&fix.tree, &q, None);
    let size = vbx_core::measure_response(&resp);
    let naive_resp = fix.naive.query(0, hi, proj.as_deref(), None);
    (
        naive_resp.wire_bytes(),
        size.total(),
        size.result_bytes,
        size.vo_bytes,
    )
}

/// Measured verification cost at a selectivity, weighted by the paper's
/// ratios: `(naive_cost, vbtree_cost)` in units of `Cost_h1`, plus the
/// raw VB-tree meter.
pub fn measured_compute(
    fix: &Fixture,
    q_c: usize,
    selectivity: f64,
    params: &Params,
) -> (f64, f64, CostMeter) {
    let n_c = fix.table.schema().num_columns();
    let rows = fix.table.len() as u64;
    let hi = sel_hi(rows, selectivity);
    let proj = projection(n_c, q_c);
    let q = RangeQuery {
        lo: 0,
        hi,
        projection: proj.clone(),
    };
    let resp = execute(&fix.tree, &q, None);
    let client = ClientVerifier::new(&fix.acc, fix.table.schema());
    let report = client
        .verify(fix.signer.verifier().as_ref(), &q, &resp)
        .expect("honest response verifies");

    // Priced by the paper's model — one `Cost_s` per signed digest in
    // the VO — not by the checks the screening client actually ran
    // (`meter.verify_ops`, one per response).
    let vb_cost = report.meter.hash_ops as f64
        + report.meter.combine_ops as f64 * params.combine_ratio
        + resp.vo.digest_count() as f64 * params.x;

    // Naive: run the real verifier and price its operations.
    let naive_resp = fix.naive.query(0, hi, proj.as_deref(), None);
    let sig_checks = NaiveAuthStore::verify(
        &fix.acc,
        fix.table.schema(),
        fix.signer.verifier().as_ref(),
        0,
        hi,
        proj.as_deref(),
        &naive_resp,
    )
    .expect("honest naive response verifies");
    let n_rows = naive_resp.rows.len() as f64;
    let q_c_eff = proj.as_ref().map_or(n_c, Vec::len) as f64;
    let naive_cost = n_rows * q_c_eff // hashes
        + n_rows * n_c as f64 * params.combine_ratio // combines
        + sig_checks as f64 * params.x;

    (naive_cost, vb_cost, report.meter)
}

/// Measured VO digest counts for the VB-tree vs proof hashes for the
/// Merkle baseline at a fixed 20-row result, as the table grows.
pub fn measured_vo_growth(rows_list: &[u64]) -> Vec<(u64, usize, usize)> {
    rows_list
        .iter()
        .map(|&rows| {
            let fix = fixture(rows, 4, 10, Some(16));
            let q = RangeQuery::select_all(100, 119);
            let resp = execute(&fix.tree, &q, None);
            let merkle_resp = fix.merkle.query(100, 119);
            (rows, resp.vo.digest_count(), merkle_resp.proof_hashes())
        })
        .collect()
}

/// Inclusive high key touching `⌈sel × rows⌉` tuples (keys are dense).
fn sel_hi(rows: u64, selectivity: f64) -> u64 {
    let n = ((rows as f64) * selectivity).ceil().max(1.0) as u64;
    n.min(rows) - 1
}

/// Measured update costs: `(insert_meter, delete_meter, range_meter)`
/// for one insert, one point delete, and a `range_size` batch delete.
pub fn measured_updates(rows: u64, range_size: u64) -> (CostMeter, CostMeter, CostMeter) {
    let mut fix = fixture(rows, 10, 20, None);
    let schema = fix.table.schema().clone();
    let spec = WorkloadSpec::new(rows, 10, 20);
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(1);
    let tuple = spec.make_tuple(&schema, rows + 10, &mut rng);

    fix.tree.take_meter();
    fix.tree.insert(tuple, &fix.signer).unwrap();
    let insert_meter = fix.tree.take_meter();

    fix.tree.delete(rows / 2, &fix.signer).unwrap();
    let delete_meter = fix.tree.take_meter();

    fix.tree
        .delete_range(10, 10 + range_size - 1, &fix.signer)
        .unwrap();
    let range_meter = fix.tree.take_meter();

    (insert_meter, delete_meter, range_meter)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixture_builds_consistently() {
        let fix = fixture(200, 4, 10, Some(8));
        assert_eq!(fix.tree.len(), 200);
        assert_eq!(fix.naive.len(), 200);
        assert_eq!(fix.merkle.len(), 200);
    }

    #[test]
    fn measured_comm_orders_match_paper() {
        let fix = fixture(500, 10, 20, None);
        for q_c in [2usize, 5, 8] {
            for sel in [0.2, 0.6, 1.0] {
                let (naive, vb, _, _) = measured_comm(&fix, q_c, sel);
                assert!(
                    naive > vb,
                    "naive must ship more bytes (q_c {q_c}, sel {sel}): {naive} vs {vb}"
                );
            }
        }
    }

    #[test]
    fn measured_compute_orders_match_paper() {
        let fix = fixture(400, 10, 20, None);
        let p = Params::default();
        for sel in [0.2, 0.8] {
            let (naive, vb, _) = measured_compute(&fix, 10, sel, &p);
            assert!(naive > vb, "sel {sel}: {naive} vs {vb}");
        }
    }

    #[test]
    fn vo_growth_vbtree_flat_merkle_log() {
        let growth = measured_vo_growth(&[400, 1600, 6400]);
        let vb: Vec<usize> = growth.iter().map(|g| g.1).collect();
        let mk: Vec<usize> = growth.iter().map(|g| g.2).collect();
        assert!(vb[2] <= vb[0] + 2, "VB-tree VO must not grow: {vb:?}");
        assert!(mk[2] > mk[0], "Merkle proof must grow: {mk:?}");
    }

    #[test]
    fn head_to_head_matches_paper_orderings() {
        // Figures 10–13 through the one generic pipeline: Naive ships
        // the most bytes and does per-row signature work; the VB-tree's
        // VO carries the fewest signature checks per row.
        let q = RangeQuery::select_all(0, 99);
        let m = head_to_head(500, 10, 20, None, &q);
        assert_eq!(m.len(), 3);
        let vb = &m[0];
        let naive = &m[1];
        let merkle = &m[2];
        assert_eq!(vb.scheme, "vb-tree");
        assert_eq!(naive.scheme, "naive");
        assert_eq!(merkle.scheme, "merkle");
        assert_eq!(vb.rows, 100);
        assert_eq!(naive.rows, 100);
        assert_eq!(merkle.rows, 100);
        assert!(
            naive.wire_bytes > vb.wire_bytes,
            "naive must ship more bytes: {} vs {}",
            naive.wire_bytes,
            vb.wire_bytes
        );
        // Naive: one signature decryption per row (at minimum); Merkle:
        // exactly one (the root).
        assert!(naive.meter.verify_ops >= 100);
        assert_eq!(merkle.meter.verify_ops, 1);
        assert!(vb.meter.verify_ops < naive.meter.verify_ops);
    }

    #[test]
    fn merkle_vo_grows_with_table_via_generic_pipeline() {
        let q = RangeQuery::select_all(100, 119);
        let mut merkle_digests = Vec::new();
        let mut vb_digests = Vec::new();
        for rows in [400u64, 1600, 6400] {
            let m = head_to_head(rows, 4, 10, Some(16), &q);
            vb_digests.push(m[0].vo_digests);
            merkle_digests.push(m[2].vo_digests);
        }
        assert!(
            merkle_digests[2] > merkle_digests[0],
            "merkle proof must grow: {merkle_digests:?}"
        );
        assert!(
            vb_digests[2] <= vb_digests[0] + 2,
            "VB-tree VO must not grow: {vb_digests:?}"
        );
    }

    #[test]
    fn measured_updates_scale() {
        let (ins, del, range) = measured_updates(400, 50);
        assert_eq!(ins.hash_ops, 10); // N_C attribute hashes
        assert!(ins.sign_ops >= 11); // attrs + tuple + path nodes
        assert!(del.sign_ops >= 1);
        assert!(range.sign_ops >= del.sign_ops);
    }
}
