//! Differential testing of the compact (`VBX4`) stack-machine VOs
//! against the legacy flat encoding: same rows, same verdicts under
//! every [`TamperMode`], never more digests or (aggregated) bytes, and
//! the streaming verifier agrees with the materialised one while
//! holding at most O(tree depth) digest frames.

mod common;

use common::PerSignature;
use proptest::prelude::*;
use std::sync::Arc;
use vbx_core::{
    decode_compact_response, encode_compact_response, execute, execute_compact,
    execute_multi_compact, measure_compact, measure_response, ClientVerifier, CostMeter,
    QueryResponse, RangeQuery, TamperMode, VbScheme, VbTree, VbTreeConfig, VerifyError,
    VerifyReport, VoOp,
};
use vbx_crypto::accum::{extend_signed_payload, DigestRole, SignedDigest};
use vbx_crypto::signer::{MockSigner, SigVerifier, Signature, Signer};
use vbx_crypto::{rsa, sha256, Acc256};
use vbx_mathx::{modular, MontCtx, Uint};
use vbx_storage::workload::WorkloadSpec;
use vbx_storage::{Tuple, Value};

fn build_tree_with(rows: u64, fanout: usize, signer: &dyn Signer) -> VbTree<4> {
    let table = WorkloadSpec::new(rows, 3, 6).build();
    VbTree::bulk_load(
        &table,
        VbTreeConfig::with_fanout(fanout),
        Acc256::test_default(),
        signer,
    )
}

fn build_tree(rows: u64, fanout: usize) -> (VbTree<4>, MockSigner) {
    let signer = MockSigner::new(42);
    (build_tree_with(rows, fanout, &signer), signer)
}

/// The reference flat verdict: every shipped digest's own signature is
/// checked with `verify_digest`, then the response is verified with no
/// sweep available. `Ok` carries the verified row count.
fn per_signature_verdict(
    client: &ClientVerifier<'_, 4>,
    verifier: &Arc<dyn SigVerifier>,
    q: &RangeQuery,
    resp: &QueryResponse<4>,
) -> Result<usize, VerifyError> {
    let parts = [
        ("D_P", resp.vo.d_p.as_slice()),
        ("D_S", resp.vo.d_s.as_slice()),
        ("top", std::slice::from_ref(&resp.vo.top)),
    ];
    let unsigned = parts.iter().find_map(|(part, digests)| {
        let bad = |d| !client.acc.verify_digest(verifier.as_ref(), d);
        digests.iter().any(bad).then_some(*part)
    });
    let verdict = client
        .verify(&PerSignature(verifier.clone()), q, resp)
        .map(|report| {
            assert_eq!(report.signatures_checked, resp.vo.digest_count());
            report.rows
        });
    if let Some(part) = unsigned {
        assert!(
            verdict.is_err(),
            "an unsigned digest in {part} was accepted"
        );
    }
    verdict
}

#[test]
fn compact_matches_legacy_rows_and_digest_count() {
    let (tree, signer) = build_tree(80, 5);
    let q = RangeQuery::select_all(10, 55);
    let legacy = execute(&tree, &q, None);
    let compact = execute_compact(&tree, &q, None, None);

    assert_eq!(compact.parts.len(), 1);
    assert_eq!(compact.parts[0].rows, legacy.rows);
    // Same digests travel, just arranged as an op stream.
    assert_eq!(compact.digest_count(), legacy.vo.digest_count());
    assert!(compact.agg_sig.is_none());

    let schema = tree.schema().clone();
    let acc = tree.accumulator().clone();
    let client = ClientVerifier::new(&acc, &schema);
    let report = client
        .verify_compact(signer.verifier().as_ref(), &[q], &compact)
        .unwrap();
    assert_eq!(report.rows, legacy.rows.len());
    assert!(report.peak_stack_depth <= tree.height() as usize + 1);
}

#[test]
fn aggregated_compact_checks_one_signature_and_shrinks_vo() {
    let (tree, signer) = build_tree(120, 5);
    let q = RangeQuery::select_all(17, 71);
    let legacy = execute(&tree, &q, None);
    let verifier = signer.verifier();
    let compact = execute_compact(&tree, &q, None, Some(verifier.as_ref()));

    assert!(compact.agg_sig.is_some());
    let schema = tree.schema().clone();
    let acc = tree.accumulator().clone();
    let client = ClientVerifier::new(&acc, &schema);
    let report = client
        .verify_compact(verifier.as_ref(), std::slice::from_ref(&q), &compact)
        .unwrap();
    // One condensed check replaces 1 + |D_S| + |D_P| individual ones —
    // and the client screens the flat VO's shipped signatures the same
    // way.
    assert_eq!(report.signatures_checked, 1);
    assert!(legacy.vo.digest_count() > 1);
    let legacy_report = client.verify(verifier.as_ref(), &q, &legacy).unwrap();
    assert_eq!(legacy_report.signatures_checked, 1);

    let flat = measure_response(&legacy).vo_bytes;
    let compacted = measure_compact(&compact).vo_bytes;
    assert!(
        compacted <= flat,
        "compact VO {compacted}B exceeds flat {flat}B"
    );
}

#[test]
fn wire_roundtrip_is_byte_identical_and_measured_exactly() {
    let (tree, signer) = build_tree(90, 4);
    let verifier = signer.verifier();
    let queries = vec![
        RangeQuery::select_all(5, 40),
        RangeQuery::project(30, 80, vec![0, 2]),
    ];
    let compact = execute_multi_compact(&tree, &queries, None, Some(verifier.as_ref()));

    let bytes = encode_compact_response(&compact);
    let size = measure_compact(&compact);
    assert_eq!(size.total(), bytes.len());

    let decoded = decode_compact_response(&bytes, tree.accumulator()).unwrap();
    assert_eq!(encode_compact_response(&decoded), bytes);

    let schema = tree.schema().clone();
    let acc = tree.accumulator().clone();
    let client = ClientVerifier::new(&acc, &schema);
    client
        .verify_compact(verifier.as_ref(), &queries, &decoded)
        .unwrap();
}

#[test]
fn streaming_agrees_with_materialized_and_stays_shallow() {
    let (tree, signer) = build_tree(150, 4);
    let verifier = signer.verifier();
    let queries = vec![
        RangeQuery::select_all(10, 60),
        RangeQuery::select_all(50, 130),
    ];
    let compact = execute_multi_compact(&tree, &queries, None, Some(verifier.as_ref()));
    let bytes = encode_compact_response(&compact);

    let schema = tree.schema().clone();
    let acc = tree.accumulator().clone();
    let client = ClientVerifier::new(&acc, &schema);
    let materialized = client
        .verify_compact(verifier.as_ref(), &queries, &compact)
        .unwrap();

    let mut streamed_rows: Vec<Vec<vbx_core::ResultRow>> = vec![Vec::new(); queries.len()];
    let streamed = client
        .verify_compact_stream(verifier.as_ref(), &queries, &bytes, &mut |pi, row| {
            streamed_rows[pi].push(row)
        })
        .unwrap();

    assert_eq!(streamed.rows, materialized.rows);
    assert_eq!(streamed.signatures_checked, materialized.signatures_checked);
    assert_eq!(streamed.peak_stack_depth, materialized.peak_stack_depth);
    assert!(streamed.peak_stack_depth <= tree.height() as usize + 1);
    for (part, rows) in compact.parts.iter().zip(&streamed_rows) {
        assert_eq!(&part.rows, rows);
    }
}

#[test]
fn multi_query_dedup_never_ships_more_than_independent_parts() {
    let (tree, signer) = build_tree(140, 4);
    let verifier = signer.verifier();
    // Overlapping ranges share envelope digests.
    let queries = vec![
        RangeQuery::select_all(20, 90),
        RangeQuery::select_all(60, 120),
        RangeQuery::select_all(85, 100),
    ];
    let merged = execute_multi_compact(&tree, &queries, None, Some(verifier.as_ref()));
    let independent: usize = queries
        .iter()
        .map(|q| execute_compact(&tree, q, None, None).digest_count())
        .sum();
    assert!(
        merged.digest_count() <= independent,
        "merged {} > independent {}",
        merged.digest_count(),
        independent
    );

    let schema = tree.schema().clone();
    let acc = tree.accumulator().clone();
    let client = ClientVerifier::new(&acc, &schema);
    let report = client
        .verify_compact(verifier.as_ref(), &queries, &merged)
        .unwrap();
    assert_eq!(report.signatures_checked, 1);
}

#[test]
fn condensed_rsa_batch_verifies_with_one_modexp_sweep() {
    let table = WorkloadSpec::new(48, 3, 6).build();
    let signer = rsa::fixture_keypair_crt_1024();
    let acc = Acc256::test_default();
    let tree = VbTree::bulk_load(&table, VbTreeConfig::with_fanout(4), acc.clone(), &signer);
    let verifier = signer.verifier();

    let queries = vec![
        RangeQuery::select_all(5, 20),
        RangeQuery::select_all(25, 40),
    ];
    let compact = execute_multi_compact(&tree, &queries, None, Some(verifier.as_ref()));
    assert!(compact.agg_sig.is_some());

    let schema = tree.schema().clone();
    let client = ClientVerifier::new(&acc, &schema);
    let report = client
        .verify_compact(verifier.as_ref(), &queries, &compact)
        .unwrap();
    assert_eq!(report.signatures_checked, 1);

    // A tampered batch must not survive the condensed check.
    let mut forged = compact.clone();
    if let Some(row) = forged.parts[0].rows.first_mut() {
        row.key ^= 1;
    }
    assert!(client
        .verify_compact(verifier.as_ref(), &queries, &forged)
        .is_err());
}

#[test]
fn bare_digest_without_aggregate_is_rejected() {
    let (tree, signer) = build_tree(60, 4);
    let verifier = signer.verifier();
    let q = RangeQuery::select_all(10, 40);
    let mut compact = execute_compact(&tree, &q, None, Some(verifier.as_ref()));
    // Strip the aggregate: the bare digests now have no authentication.
    compact.agg_sig = None;
    let schema = tree.schema().clone();
    let acc = tree.accumulator().clone();
    let client = ClientVerifier::new(&acc, &schema);
    assert!(matches!(
        client.verify_compact(verifier.as_ref(), &[q], &compact),
        Err(VerifyError::BadSignature { part: "aggregate" })
    ));
}

/// One differential case: legacy, compact (materialised), and compact
/// (streaming) must return rows byte-identically and agree on the
/// verdict under the given tamper mode, and the screened flat verdict
/// must equal the per-signature reference.
fn differential_case(
    tree: &VbTree<4>,
    verifier: Arc<dyn SigVerifier>,
    lo: u64,
    span: u64,
    projection: Option<Vec<usize>>,
    pred_modulus: Option<u64>,
    mode: TamperMode,
) {
    let q = RangeQuery {
        lo,
        hi: lo.saturating_add(span),
        projection,
    };
    let queries = [q.clone()];
    let pred = pred_modulus.map(|m| move |t: &Tuple| !t.key.is_multiple_of(m));
    let pred_ref: Option<&dyn Fn(&Tuple) -> bool> =
        pred.as_ref().map(|p| p as &dyn Fn(&Tuple) -> bool);

    // `tamper` re-executes against the tree it is handed; the scheme's
    // own build configuration plays no part.
    let scheme = VbScheme::new(tree.accumulator().clone(), VbTreeConfig::default());
    let mut legacy = execute(tree, &q, pred_ref);
    let mut compact = execute_multi_compact(tree, &queries, pred_ref, Some(verifier.as_ref()));
    assert_eq!(compact.parts[0].rows, legacy.rows, "result rows diverge");
    assert!(compact.digest_count() <= legacy.vo.digest_count());
    assert!(measure_compact(&compact).vo_bytes <= measure_response(&legacy).vo_bytes);

    // DropAndReclassify needs a victim key that is actually in the
    // result; the paper's completeness boundary means both encodings
    // accept the re-executed response.
    let mode = match mode {
        TamperMode::DropAndReclassify { .. } => match legacy.rows.get(legacy.rows.len() / 2) {
            Some(row) => TamperMode::DropAndReclassify { key: row.key },
            None => return,
        },
        m => m,
    };
    use vbx_core::AuthScheme;
    scheme.tamper(tree, &q, &mut legacy, &mode);
    scheme.tamper_compact(tree, &queries, &mut compact, &mode, Some(verifier.as_ref()));

    let schema = tree.schema().clone();
    let acc = tree.accumulator().clone();
    let client = ClientVerifier::new(&acc, &schema);
    let legacy_verdict = client.verify(verifier.as_ref(), &q, &legacy);
    assert_eq!(
        legacy_verdict.clone().map(|report| report.rows),
        per_signature_verdict(&client, &verifier, &q, &legacy),
        "screened flat verdict diverges from per-signature under {mode:?}"
    );
    let compact_verdict = client.verify_compact(verifier.as_ref(), &queries, &compact);
    assert_eq!(
        legacy_verdict.is_ok(),
        compact_verdict.is_ok(),
        "verdicts diverge under {mode:?}: legacy {legacy_verdict:?} vs compact {compact_verdict:?}"
    );

    let bytes = encode_compact_response(&compact);
    let stream_verdict =
        client.verify_compact_stream(verifier.as_ref(), &queries, &bytes, &mut |_, _| {});
    assert_eq!(
        compact_verdict.is_ok(),
        stream_verdict.is_ok(),
        "streaming verdict diverges under {mode:?}"
    );
    if let (Ok(a), Ok(b)) = (&compact_verdict, &stream_verdict) {
        assert_eq!(a.rows, b.rows);
        assert_eq!(a.signatures_checked, b.signatures_checked);
        assert!(b.peak_stack_depth <= tree.height() as usize + 1);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Seeded random trees × queries × projections × predicates ×
    /// tamper modes: the two encodings and the streaming verifier are
    /// indistinguishable in rows and verdicts, and compact never ships
    /// more digests or VO bytes.
    #[test]
    fn compact_and_legacy_are_equivalent(
        rows in 1u64..140,
        fanout in 3usize..9,
        lo in 0u64..160,
        span in 0u64..160,
        keep0 in proptest::bool::ANY,
        keep1 in proptest::bool::ANY,
        keep2 in proptest::bool::ANY,
        pred_modulus in prop_oneof![Just(None), Just(Some(2u64)), Just(Some(3u64))],
        mode in prop_oneof![
            Just(TamperMode::None),
            Just(TamperMode::MutateValue),
            Just(TamperMode::InjectRow),
            Just(TamperMode::DropRow),
            Just(TamperMode::DropAndReclassify { key: 0 }),
        ],
    ) {
        let cols: Vec<usize> = [keep0, keep1, keep2]
            .iter()
            .enumerate()
            .filter_map(|(i, &k)| k.then_some(i))
            .collect();
        let projection = (cols.len() < 3).then_some(cols);
        let (tree, signer) = build_tree(rows, fanout);
        differential_case(&tree, signer.verifier(), lo, span, projection, pred_modulus, mode);
    }
}

/// The same grid — every projection × residual × tamper mode — under a
/// real RSA key, where the sweep is condensed-RSA screening.
#[test]
fn compact_and_legacy_are_equivalent_under_rsa() {
    let signer = rsa::fixture_keypair_crt_512();
    let trees = [
        build_tree_with(40, 3, &signer),
        build_tree_with(25, 6, &signer),
    ];
    let modes = [
        TamperMode::None,
        TamperMode::MutateValue,
        TamperMode::InjectRow,
        TamperMode::DropRow,
        TamperMode::DropAndReclassify { key: 0 },
    ];
    let mut case = 0u64;
    for keep in 0u8..8 {
        let cols: Vec<usize> = (0..3).filter(|c| keep >> c & 1 == 1).collect();
        let projection = (cols.len() < 3).then_some(cols);
        for pred_modulus in [None, Some(2), Some(3)] {
            for mode in &modes {
                case += 1;
                let (lo, span) = (case * 7 % 40, 1 + case * 5 % 30);
                differential_case(
                    &trees[case as usize % 2],
                    signer.verifier(),
                    lo,
                    span,
                    projection.clone(),
                    pred_modulus,
                    mode.clone(),
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// The repeated-digest forgery (Coron–Naccache on BGR screening)
// ---------------------------------------------------------------------

const E: u64 = rsa::RSA_E;

/// `x` with `x^e = k · k_new⁻¹` in `Z_q*` — public material only: the
/// group order `q` is public and `gcd(e, q − 1) = 1` for the test group.
fn compensating_root(acc: &Acc256, k: &Uint<4>, k_new: &Uint<4>) -> Uint<4> {
    let q = acc.group().q;
    let e_inv = modular::inv_mod(&Uint::from_u64(E), &q.wrapping_sub(&Uint::ONE))
        .expect("gcd(e, q - 1) = 1");
    modular::pow_mod(&acc.uncombine(k, k_new), &e_inv, &q)
}

/// `EM` of a tuple digest's signed payload for a 1024-bit key, from the
/// documented encoding.
fn em_1024(x: &Uint<4>) -> Uint<16> {
    let mut msg = Vec::new();
    extend_signed_payload(&mut msg, DigestRole::Tuple, x);
    let mut em = vec![0xFFu8; 127];
    em[0] = 0x01;
    em[127 - 33] = 0x00;
    em[127 - 32..].copy_from_slice(&sha256(&msg));
    Uint::from_be_bytes(&em).expect("127 bytes fit")
}

/// Change the first returned value of `rows[0]` and return the
/// exponent that, folded in `e` times, hides the change.
fn mutate_and_compensate(tree: &VbTree<4>, row: &mut vbx_core::ResultRow) -> Uint<4> {
    let acc = tree.accumulator();
    let mut inputs = tree.schema().attribute_inputs([0]);
    let mut digest_of = |v: &Value| acc.exp_from_bytes(inputs.input(0, row.key, v));
    let forged = Value::from("forged");
    let x = compensating_root(acc, &digest_of(&row.values[0]), &digest_of(&forged));
    row.values[0] = forged;
    x
}

/// An honest aggregated response, one returned value changed, `e`
/// copies of an unsigned digest appended and `EM` of that digest
/// multiplied into the aggregate: `EM^e` on both sides of the sweep.
/// Accepted before the sweep counted its messages.
#[test]
fn e_copies_of_an_unsigned_digest_do_not_pass_the_sweep() {
    let signer = rsa::fixture_keypair_crt_1024();
    let tree = build_tree_with(48, 4, &signer);
    let verifier = signer.verifier();
    let q = RangeQuery::select_all(5, 20);
    let queries = [q];
    let honest = execute_multi_compact(&tree, &queries, None, Some(verifier.as_ref()));
    let schema = tree.schema().clone();
    let acc = tree.accumulator().clone();
    let client = ClientVerifier::new(&acc, &schema);
    assert_eq!(
        client
            .verify_compact(verifier.as_ref(), &queries, &honest)
            .unwrap()
            .rows,
        16
    );

    let mut forged = honest.clone();
    let x = mutate_and_compensate(&tree, &mut forged.parts[0].rows[0]);
    let unsigned = SignedDigest {
        exp: x,
        role: DigestRole::Tuple,
        sig: Signature(Vec::new()),
    };
    forged.parts[0]
        .ops
        .extend(std::iter::repeat_n(VoOp::Push(unsigned), E as usize));
    let n = *signer.public_key().n();
    let agg = Uint::<16>::from_be_bytes(honest.agg_sig.as_ref().unwrap().as_bytes()).unwrap();
    let em = em_1024(&x);
    forged.agg_sig = Some(Signature(MontCtx::new(n).mul_mod(&agg, &em).to_be_bytes()));

    let too_many = VerifyError::MalformedVo {
        reason: "too many digests for one signature sweep",
    };
    assert_eq!(
        client.verify_compact(verifier.as_ref(), &queries, &forged),
        Err(too_many.clone())
    );
    let bytes = encode_compact_response(&forged);
    assert_eq!(
        client.verify_compact_stream(verifier.as_ref(), &queries, &bytes, &mut |_, _| {}),
        Err(too_many)
    );
}

/// The flat analogue: `e` copies of the unsigned digest in `D_S`, whose
/// shipped "signatures" multiply to `EM`. The screen never sweeps that
/// many pairs at once; the batch fails and the per-signature fallback
/// names the first unsigned digest.
#[test]
fn e_copies_of_an_unsigned_digest_do_not_pass_the_flat_screen() {
    let signer = rsa::fixture_keypair_crt_1024();
    let tree = build_tree_with(48, 4, &signer);
    let verifier = signer.verifier();
    let q = RangeQuery::select_all(5, 20);
    let mut forged = execute(&tree, &q, None);
    let schema = tree.schema().clone();
    let acc = tree.accumulator().clone();
    let client = ClientVerifier::new(&acc, &schema);
    client.verify(verifier.as_ref(), &q, &forged).unwrap();

    let x = mutate_and_compensate(&tree, &mut forged.rows[0]);
    let em = em_1024(&x);
    let unsigned = |sig: Uint<16>| SignedDigest {
        exp: x,
        role: DigestRole::Tuple,
        sig: Signature(sig.to_be_bytes()),
    };
    forged.vo.d_s.push(unsigned(em));
    forged
        .vo
        .d_s
        .extend(std::iter::repeat_n(unsigned(Uint::ONE), E as usize - 1));
    assert_eq!(
        client.verify(verifier.as_ref(), &q, &forged),
        Err(VerifyError::BadSignature { part: "D_S" })
    );
}

/// The verifiers' reports on a fixed seeded tree, recorded before the
/// digest frames became Montgomery running products: rows, signature
/// checks, frame depth and every primitive-operation count must not move
/// when the arithmetic underneath does.
#[test]
fn verify_reports_are_pinned() {
    let (tree, signer) = build_tree(150, 4);
    let verifier = signer.verifier();
    let schema = tree.schema().clone();
    let acc = tree.accumulator().clone();
    let client = ClientVerifier::new(&acc, &schema);
    let report = |rows, signatures_checked, peak_stack_depth, counts: [u64; 4]| VerifyReport {
        rows,
        signatures_checked,
        peak_stack_depth,
        meter: CostMeter {
            hash_ops: counts[0],
            combine_ops: counts[1],
            sign_ops: 0,
            verify_ops: counts[2],
            lift_ops: counts[3],
        },
    };

    // Overlapping ranges (shared digests go through the dictionary) and
    // a projection (attribute digests arrive through the op stream).
    let queries = vec![
        RangeQuery::select_all(10, 60),
        RangeQuery::project(50, 130, vec![0, 2]),
    ];
    let aggregated = execute_multi_compact(&tree, &queries, None, Some(verifier.as_ref()));
    // 315 attribute hashes + 100 absorbed bare digests.
    let pinned = report(132, 1, 4, [415, 447, 1, 4]);
    assert_eq!(
        client.verify_compact(verifier.as_ref(), &queries, &aggregated),
        Ok(pinned)
    );
    let bytes = encode_compact_response(&aggregated);
    assert_eq!(
        client.verify_compact_stream(verifier.as_ref(), &queries, &bytes, &mut |_, _| {}),
        Ok(pinned)
    );

    // Individually signed digests: the screen, not the sweep.
    let signed = execute_multi_compact(&tree, &queries, None, None);
    assert_eq!(
        client.verify_compact(verifier.as_ref(), &queries, &signed),
        Ok(report(132, 1, 4, [315, 447, 1, 4]))
    );

    for (q, pinned) in [
        (&queries[0], report(51, 1, 0, [153, 160, 1, 2])),
        (&queries[1], report(81, 1, 0, [162, 253, 1, 2])),
    ] {
        let flat = execute(&tree, q, None);
        assert_eq!(client.verify(verifier.as_ref(), q, &flat), Ok(pinned));
    }
}

// ---------------------------------------------------------------------
// Frame structure: what the product-of-products step must preserve
// ---------------------------------------------------------------------

/// Both compact verifiers on the same response; they must agree.
fn compact_verdicts(
    tree: &VbTree<4>,
    verifier: &dyn SigVerifier,
    queries: &[RangeQuery],
    resp: &vbx_core::CompactResponse<4>,
) -> Result<VerifyReport, VerifyError> {
    let schema = tree.schema().clone();
    let acc = tree.accumulator().clone();
    let client = ClientVerifier::new(&acc, &schema);
    let materialised = client.verify_compact(verifier, queries, resp);
    let bytes = encode_compact_response(resp);
    let streamed = client.verify_compact_stream(verifier, queries, &bytes, &mut |_, _| {});
    assert_eq!(materialised, streamed);
    materialised
}

/// Frames only group: the part's digest is the product over every frame,
/// so a digest that crosses an `End` into the enclosing frame leaves it
/// unchanged — the paper's `D_S` is a set. What must not pass is the
/// exponent counted in both frames, or in neither.
#[test]
fn digest_moved_across_an_end_folds_into_the_same_product() {
    let (tree, signer) = build_tree(150, 4);
    let verifier = signer.verifier();
    let queries = [RangeQuery::project(50, 130, vec![0, 2])];
    let honest = execute_multi_compact(&tree, &queries, None, Some(verifier.as_ref()));
    let report = compact_verdicts(&tree, verifier.as_ref(), &queries, &honest).unwrap();

    let ops = &honest.parts[0].ops;
    let at = (0..ops.len() - 1)
        .find(|&i| {
            matches!((&ops[i], &ops[i + 1]), (VoOp::Push(d), VoOp::End) if d.role != DigestRole::Attribute)
        })
        .expect("some frame closes on a pushed tuple or node digest");

    // Out of its frame, into the parent's.
    let mut moved = honest.clone();
    moved.parts[0].ops.swap(at, at + 1);
    assert_eq!(
        compact_verdicts(&tree, verifier.as_ref(), &queries, &moved),
        Ok(report)
    );

    // In both frames.
    let mut twice = honest.clone();
    let dup = twice.parts[0].ops[at].clone();
    twice.parts[0].ops.insert(at + 2, dup);
    assert_eq!(
        compact_verdicts(&tree, verifier.as_ref(), &queries, &twice),
        Err(VerifyError::DigestMismatch)
    );

    // In neither.
    let mut dropped = honest.clone();
    dropped.parts[0].ops.remove(at);
    assert_eq!(
        compact_verdicts(&tree, verifier.as_ref(), &queries, &dropped),
        Err(VerifyError::DigestMismatch)
    );
}

/// An empty frame folds the empty product into its parent: one more
/// combine, the same digest. A frame left open, or closed twice, is
/// still malformed.
#[test]
fn empty_frame_is_the_identity() {
    let (tree, signer) = build_tree(150, 4);
    let verifier = signer.verifier();
    let queries = [RangeQuery::select_all(10, 60)];
    let honest = execute_multi_compact(&tree, &queries, None, Some(verifier.as_ref()));
    let report = compact_verdicts(&tree, verifier.as_ref(), &queries, &honest).unwrap();
    let with_ops = |at: usize, extra: &[VoOp<4>]| {
        let mut resp = honest.clone();
        resp.parts[0].ops.splice(at..at, extra.iter().cloned());
        compact_verdicts(&tree, verifier.as_ref(), &queries, &resp)
    };

    let ops = &honest.parts[0].ops;
    for at in [0, ops.len() / 2, ops.len()] {
        let open_frames = ops[..at].iter().fold(1usize, |depth, op| match op {
            VoOp::Begin => depth + 1,
            VoOp::End => depth - 1,
            _ => depth,
        });
        let mut expected = report;
        expected.meter.combine_ops += 1;
        expected.peak_stack_depth = report.peak_stack_depth.max(open_frames + 1);
        assert_eq!(
            with_ops(at, &[VoOp::Begin, VoOp::End]),
            Ok(expected),
            "at {at}"
        );
    }

    assert_eq!(
        with_ops(0, &[VoOp::Begin]),
        Err(VerifyError::MalformedVo {
            reason: "unbalanced op stream"
        })
    );
    assert_eq!(
        with_ops(0, &[VoOp::End]),
        Err(VerifyError::MalformedVo {
            reason: "frame stack underflow"
        })
    );
}
