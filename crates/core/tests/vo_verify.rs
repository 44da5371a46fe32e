//! End-to-end verification tests: selection, projection, predicate
//! selection, and tamper detection (the attacks of Section 3.1).

mod common;

use common::PerSignature;
use std::sync::Arc;
use vbx_core::{
    decode_response, encode_response, execute, measure_response, ClientVerifier, RangeQuery,
    VbTree, VbTreeConfig, VerifyError,
};
use vbx_crypto::rsa;
use vbx_crypto::signer::{MockSigner, SigVerifier, Signer};
use vbx_crypto::Acc256;
use vbx_storage::workload::WorkloadSpec;
use vbx_storage::{Table, Tuple, Value};

struct Fixture {
    tree: VbTree<4>,
    signer: MockSigner,
    table: Table,
    acc: Acc256,
}

fn fixture(rows: u64, fanout: usize) -> Fixture {
    let table = WorkloadSpec::new(rows, 4, 10).build();
    let signer = MockSigner::new(7);
    let acc = Acc256::test_default();
    let tree = VbTree::bulk_load(
        &table,
        VbTreeConfig::with_fanout(fanout),
        acc.clone(),
        &signer,
    );
    Fixture {
        tree,
        signer,
        table,
        acc,
    }
}

impl Fixture {
    fn client(&self) -> ClientVerifier<'_, 4> {
        ClientVerifier::new(&self.acc, self.table.schema())
    }
}

#[test]
fn select_all_verifies() {
    let f = fixture(100, 4);
    for (lo, hi) in [(0u64, 99u64), (10, 30), (50, 50), (0, 0), (90, 200)] {
        let q = RangeQuery::select_all(lo, hi);
        let resp = execute(&f.tree, &q, None);
        let report = f
            .client()
            .verify(f.signer.verifier().as_ref(), &q, &resp)
            .unwrap_or_else(|e| panic!("range [{lo},{hi}]: {e}"));
        assert_eq!(report.rows, f.table.range(lo, hi).count());
    }
}

#[test]
fn empty_result_verifies() {
    let f = fixture(50, 4);
    // Query a key gap beyond the data.
    let q = RangeQuery::select_all(200, 300);
    let resp = execute(&f.tree, &q, None);
    assert!(resp.rows.is_empty());
    f.client()
        .verify(f.signer.verifier().as_ref(), &q, &resp)
        .unwrap();
}

#[test]
fn projection_verifies_and_shrinks_result() {
    let f = fixture(60, 4);
    let q_all = RangeQuery::select_all(10, 40);
    let q_proj = RangeQuery::project(10, 40, vec![0, 2]);
    let full = execute(&f.tree, &q_all, None);
    let proj = execute(&f.tree, &q_proj, None);

    f.client()
        .verify(f.signer.verifier().as_ref(), &q_proj, &proj)
        .unwrap();

    // Projection returns fewer result bytes but a larger VO (D_P).
    let fs = measure_response(&full);
    let ps = measure_response(&proj);
    assert!(ps.result_bytes < fs.result_bytes);
    assert!(ps.vo_bytes > fs.vo_bytes);
    assert_eq!(proj.vo.d_p.len(), proj.rows.len() * 2); // 4 cols - 2 kept
}

#[test]
fn single_column_projection() {
    let f = fixture(30, 4);
    let q = RangeQuery::project(0, 29, vec![3]);
    let resp = execute(&f.tree, &q, None);
    assert!(resp.rows.iter().all(|r| r.values.len() == 1));
    f.client()
        .verify(f.signer.verifier().as_ref(), &q, &resp)
        .unwrap();
}

#[test]
fn predicate_selection_gaps_covered() {
    let f = fixture(80, 4);
    // Non-key predicate on the numeric column (index 3): keep < 50.
    let pred = |t: &Tuple| matches!(t.values[3], Value::Int(v) if v < 50);
    let q = RangeQuery::select_all(0, 79);
    let resp = execute(&f.tree, &q, Some(&pred));
    let expected = f.table.range(0, 79).filter(|t| pred(t)).count();
    assert_eq!(resp.rows.len(), expected);
    assert!(expected < 80, "workload should have both classes");
    // Gaps are tuple digests in D_S.
    assert!(resp.vo.d_s.len() >= 80 - expected);
    f.client()
        .verify(f.signer.verifier().as_ref(), &q, &resp)
        .unwrap();
}

#[test]
fn predicate_plus_projection() {
    let f = fixture(80, 5);
    let pred = |t: &Tuple| matches!(t.values[3], Value::Int(v) if v % 2 == 0);
    let q = RangeQuery::project(5, 70, vec![0, 3]);
    let resp = execute(&f.tree, &q, Some(&pred));
    f.client()
        .verify(f.signer.verifier().as_ref(), &q, &resp)
        .unwrap();
}

#[test]
fn vo_entries_order_independent() {
    // Commutativity: shuffling D_S and D_P must not affect verification.
    let f = fixture(100, 4);
    let q = RangeQuery::project(20, 70, vec![1]);
    let mut resp = execute(&f.tree, &q, None);
    resp.vo.d_s.reverse();
    let mid = resp.vo.d_p.len() / 2;
    resp.vo.d_p.rotate_left(mid);
    f.client()
        .verify(f.signer.verifier().as_ref(), &q, &resp)
        .unwrap();
}

#[test]
fn vo_size_independent_of_database_size() {
    // The paper's headline: VO grows with the result, not with N_R.
    let q = RangeQuery::select_all(100, 119);
    let mut sizes = Vec::new();
    for rows in [500u64, 2_000, 8_000] {
        let table = WorkloadSpec::new(rows, 4, 10).build();
        let signer = MockSigner::new(7);
        let tree: VbTree<4> = VbTree::bulk_load(
            &table,
            VbTreeConfig::with_fanout(16),
            Acc256::test_default(),
            &signer,
        );
        let resp = execute(&tree, &q, None);
        assert_eq!(resp.rows.len(), 20);
        sizes.push(resp.vo.digest_count());
    }
    // Digest count bounded by ~(fanout-1)·2·height of the *enveloping
    // subtree* which only depends on the result size; allow slack for
    // alignment differences but forbid growth proportional to N_R.
    let max = *sizes.iter().max().unwrap();
    let min = *sizes.iter().min().unwrap();
    assert!(
        max <= min + 2 * 16,
        "VO sizes {sizes:?} must not grow with table size"
    );
}

// ---------------------------------------------------------------------
// Tamper detection
// ---------------------------------------------------------------------

#[test]
fn tampered_value_detected() {
    let f = fixture(50, 4);
    let q = RangeQuery::select_all(10, 30);
    let mut resp = execute(&f.tree, &q, None);
    resp.rows[3].values[1] = Value::from("forged");
    let err = f
        .client()
        .verify(f.signer.verifier().as_ref(), &q, &resp)
        .unwrap_err();
    assert_eq!(err, VerifyError::DigestMismatch);
}

#[test]
fn spurious_tuple_detected() {
    let f = fixture(50, 4);
    let q = RangeQuery::select_all(10, 30);
    let mut resp = execute(&f.tree, &q, None);
    // Inject a plausible-looking tuple at an unused key.
    let forged = vbx_core::ResultRow {
        key: 25,
        values: resp.rows[0].values.clone(),
    };
    resp.rows.retain(|r| r.key != 25);
    resp.rows.push(forged);
    resp.rows.sort_by_key(|r| r.key);
    let err = f
        .client()
        .verify(f.signer.verifier().as_ref(), &q, &resp)
        .unwrap_err();
    assert_eq!(err, VerifyError::DigestMismatch);
}

#[test]
fn dropped_tuple_detected_without_digest_reclassification() {
    let f = fixture(50, 4);
    let q = RangeQuery::select_all(10, 30);
    let mut resp = execute(&f.tree, &q, None);
    resp.rows.remove(5);
    let err = f
        .client()
        .verify(f.signer.verifier().as_ref(), &q, &resp)
        .unwrap_err();
    assert_eq!(err, VerifyError::DigestMismatch);
}

#[test]
fn tampered_key_detected() {
    let f = fixture(50, 4);
    let q = RangeQuery::select_all(10, 30);
    let mut resp = execute(&f.tree, &q, None);
    resp.rows[0].key = 11; // moved to a key that is itself in range
    resp.rows.sort_by_key(|r| r.key);
    let err = f
        .client()
        .verify(f.signer.verifier().as_ref(), &q, &resp)
        .unwrap_err();
    // Either duplicate-key ordering or digest mismatch, depending on
    // whether key 11 was already present.
    assert!(matches!(
        err,
        VerifyError::DigestMismatch | VerifyError::RowsUnsorted
    ));
}

#[test]
fn out_of_range_row_rejected() {
    let f = fixture(50, 4);
    let q = RangeQuery::select_all(10, 30);
    let mut resp = execute(&f.tree, &q, None);
    resp.rows[0].key = 5;
    let err = f
        .client()
        .verify(f.signer.verifier().as_ref(), &q, &resp)
        .unwrap_err();
    assert!(matches!(err, VerifyError::RowOutOfRange { key: 5 }));
}

#[test]
fn forged_ds_digest_detected() {
    let f = fixture(50, 4);
    let q = RangeQuery::select_all(10, 30);
    let mut resp = execute(&f.tree, &q, None);
    // Attacker swaps a D_S exponent (e.g. to hide a modified sibling).
    let acc = &f.acc;
    resp.vo.d_s[0].exp = acc.exp_from_bytes(b"attacker");
    let err = f
        .client()
        .verify(f.signer.verifier().as_ref(), &q, &resp)
        .unwrap_err();
    assert_eq!(err, VerifyError::BadSignature { part: "D_S" });
}

/// The flat verifier's one running product: an authentically signed
/// digest folded in twice, or not at all, passes the signature screen
/// and must fail the digest equation.
#[test]
fn signed_digest_folded_twice_or_dropped_detected() {
    let f = fixture(50, 4);
    let q = RangeQuery::project(10, 30, vec![1, 3]);
    let honest = execute(&f.tree, &q, None);
    let verdict = |resp| f.client().verify(f.signer.verifier().as_ref(), &q, resp);
    assert!(verdict(&honest).is_ok());

    let mut twice = honest.clone();
    twice.vo.d_s.push(honest.vo.d_s[0].clone());
    assert_eq!(verdict(&twice), Err(VerifyError::DigestMismatch));

    let mut dropped = honest.clone();
    dropped.vo.d_s.remove(0);
    assert_eq!(verdict(&dropped), Err(VerifyError::DigestMismatch));
}

#[test]
fn forged_top_digest_detected() {
    let f = fixture(50, 4);
    let q = RangeQuery::select_all(10, 30);
    let mut resp = execute(&f.tree, &q, None);
    resp.vo.top.exp = f.acc.exp_from_bytes(b"attacker-root");
    let err = f
        .client()
        .verify(f.signer.verifier().as_ref(), &q, &resp)
        .unwrap_err();
    assert_eq!(err, VerifyError::BadSignature { part: "top" });
}

#[test]
fn wrong_key_rejected() {
    let f = fixture(50, 4);
    let q = RangeQuery::select_all(10, 30);
    let resp = execute(&f.tree, &q, None);
    let wrong = MockSigner::new(999);
    let err = f
        .client()
        .verify(wrong.verifier().as_ref(), &q, &resp)
        .unwrap_err();
    assert!(matches!(err, VerifyError::BadSignature { .. }));
}

#[test]
fn dp_count_mismatch_rejected() {
    let f = fixture(50, 4);
    let q = RangeQuery::project(10, 30, vec![0]);
    let mut resp = execute(&f.tree, &q, None);
    resp.vo.d_p.pop();
    let err = f
        .client()
        .verify(f.signer.verifier().as_ref(), &q, &resp)
        .unwrap_err();
    assert!(matches!(err, VerifyError::ProjectionCountMismatch { .. }));
}

#[test]
fn role_confusion_rejected() {
    let f = fixture(50, 4);
    let q = RangeQuery::select_all(10, 30);
    let mut resp = execute(&f.tree, &q, None);
    // Replay an attribute digest inside D_S.
    let q2 = RangeQuery::project(10, 30, vec![0]);
    let resp2 = execute(&f.tree, &q2, None);
    resp.vo.d_s.push(resp2.vo.d_p[0].clone());
    let err = f
        .client()
        .verify(f.signer.verifier().as_ref(), &q, &resp)
        .unwrap_err();
    assert_eq!(err, VerifyError::WrongRole { part: "D_S" });
}

// ---------------------------------------------------------------------
// The signature screen
// ---------------------------------------------------------------------

/// A projected query over a small tree under each signer the screen is
/// exercised with: the mock MAC chain and condensed RSA.
fn screened_cases() -> Vec<(VbTree<4>, Table, Arc<dyn SigVerifier>)> {
    let table = WorkloadSpec::new(30, 4, 8).build();
    let signers: [Box<dyn Signer>; 2] = [
        Box::new(MockSigner::new(7)),
        Box::new(rsa::fixture_keypair_crt_512()),
    ];
    signers
        .iter()
        .map(|signer| {
            let tree = VbTree::bulk_load(
                &table,
                VbTreeConfig::with_fanout(4),
                Acc256::test_default(),
                signer.as_ref(),
            );
            (tree, table.clone(), signer.verifier())
        })
        .collect()
}

#[test]
fn corrupt_signature_is_localised_to_its_part() {
    for (tree, table, verifier) in screened_cases() {
        let q = RangeQuery::project(5, 20, vec![0, 2]);
        let honest = execute(&tree, &q, None);
        let client = ClientVerifier::new(tree.accumulator(), table.schema());
        let report = client.verify(verifier.as_ref(), &q, &honest).unwrap();
        assert_eq!(report.signatures_checked, 1, "one sweep, no fallback");

        for part in ["D_P", "D_S", "top"] {
            let mut resp = honest.clone();
            let digest = match part {
                "D_P" => resp.vo.d_p.last_mut().unwrap(),
                "D_S" => resp.vo.d_s.last_mut().unwrap(),
                _ => &mut resp.vo.top,
            };
            digest.sig.0[3] ^= 0x10;
            assert_eq!(
                client.verify(verifier.as_ref(), &q, &resp),
                Err(VerifyError::BadSignature { part })
            );
        }
    }
}

#[test]
fn swapped_signatures_pass_condensed_rsa_by_design() {
    // The screen proves that every shipped digest *message* is
    // owner-signed — which is all Lemmas 1 and 2 need — not that each
    // shipped signature sits next to its own message: the product of
    // the signatures does not change when two of them trade places.
    // The mock chain binds order, so there the sweep fails and the
    // fallback rejects the first misplaced signature.
    let mut verdicts = Vec::new();
    for (tree, table, verifier) in screened_cases() {
        let q = RangeQuery::select_all(5, 20);
        let mut resp = execute(&tree, &q, None);
        let (a, b) = (resp.vo.d_s[0].sig.clone(), resp.vo.d_s[1].sig.clone());
        resp.vo.d_s[0].sig = b;
        resp.vo.d_s[1].sig = a;
        let acc = tree.accumulator();
        assert!(!acc.verify_digest(verifier.as_ref(), &resp.vo.d_s[0]));
        assert!(!acc.verify_digest(verifier.as_ref(), &resp.vo.d_s[1]));
        let client = ClientVerifier::new(acc, table.schema());
        verdicts.push(client.verify(verifier.as_ref(), &q, &resp).map(|r| r.rows));
    }
    assert_eq!(
        verdicts,
        [Err(VerifyError::BadSignature { part: "D_S" }), Ok(16)]
    );
}

#[test]
fn verifier_without_aggregation_checks_every_signature() {
    for (tree, table, verifier) in screened_cases() {
        let q = RangeQuery::project(5, 20, vec![1]);
        let resp = execute(&tree, &q, None);
        let client = ClientVerifier::new(tree.accumulator(), table.schema());
        let report = client
            .verify(&PerSignature(verifier.clone()), &q, &resp)
            .unwrap();
        assert_eq!(
            report.signatures_checked,
            1 + resp.vo.d_s.len() + resp.vo.d_p.len()
        );
        assert_eq!(report.rows, 16);

        let mut bad = resp;
        bad.vo.d_p[0].sig.0[0] ^= 1;
        assert_eq!(
            client.verify(&PerSignature(verifier), &q, &bad),
            Err(VerifyError::BadSignature { part: "D_P" })
        );
    }
}

// ---------------------------------------------------------------------
// Known limitation (documented): digest-reclassification drops
// ---------------------------------------------------------------------

#[test]
fn drop_with_reclassification_is_undetectable_as_published() {
    // The paper's trust model (§3.1) assumes edge servers do not
    // *maliciously* drop qualifying tuples. Indeed, an edge that moves a
    // result tuple's signed digest into D_S produces a VO that still
    // verifies — this documents the scheme's published completeness
    // boundary.
    let f = fixture(50, 4);
    let q = RangeQuery::select_all(10, 30);
    let honest = execute(&f.tree, &q, None);
    let pred = |t: &Tuple| t.key != 20; // adversarial "filter"
    let dropped = execute(&f.tree, &q, Some(&pred));
    assert_eq!(dropped.rows.len(), honest.rows.len() - 1);
    f.client()
        .verify(f.signer.verifier().as_ref(), &q, &dropped)
        .unwrap();
}

// ---------------------------------------------------------------------
// Wire format
// ---------------------------------------------------------------------

#[test]
fn wire_roundtrip_preserves_verification() {
    let f = fixture(60, 4);
    let q = RangeQuery::project(5, 45, vec![0, 3]);
    let resp = execute(&f.tree, &q, None);
    let bytes = encode_response(&resp);
    assert_eq!(bytes.len(), measure_response(&resp).total());
    let decoded = decode_response(&bytes, &f.acc).unwrap();
    assert_eq!(decoded.rows.len(), resp.rows.len());
    f.client()
        .verify(f.signer.verifier().as_ref(), &q, &decoded)
        .unwrap();
}

#[test]
fn wire_rejects_corruption() {
    let f = fixture(20, 4);
    let q = RangeQuery::select_all(0, 10);
    let resp = execute(&f.tree, &q, None);
    let bytes = encode_response(&resp);
    // Truncations must error, not panic.
    for cut in [0usize, 3, 7, bytes.len() / 2, bytes.len() - 1] {
        assert!(decode_response(&bytes[..cut], &f.acc).is_err(), "cut {cut}");
    }
    // Bad magic.
    let mut bad = bytes.clone();
    bad[0] = b'X';
    assert!(decode_response(&bad, &f.acc).is_err());
    // Trailing garbage.
    let mut long = bytes;
    long.push(0);
    assert!(decode_response(&long, &f.acc).is_err());
}

#[test]
fn rsa_end_to_end() {
    // Full asymmetric path: RSA-512 fixture key.
    let table = WorkloadSpec::new(30, 3, 8).build();
    let signer = rsa::fixture_keypair_512();
    let acc = Acc256::test_default();
    let tree: VbTree<4> =
        VbTree::bulk_load(&table, VbTreeConfig::with_fanout(4), acc.clone(), &signer);
    let q = RangeQuery::select_all(5, 20);
    let resp = execute(&tree, &q, None);
    let client = ClientVerifier::new(&acc, table.schema());
    client
        .verify(signer.verifier().as_ref(), &q, &resp)
        .unwrap();
    // Tamper still detected under RSA.
    let mut bad = resp;
    bad.rows[0].values[0] = Value::from("evil");
    assert!(client.verify(signer.verifier().as_ref(), &q, &bad).is_err());
}
