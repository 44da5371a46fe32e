//! Byte pins for every Montgomery width the system runs: a change to the
//! multiply-reduce kernel must leave each of these digests unchanged.
//!
//! RSA signatures are deterministic, so the SHA-256 of a fixed batch of
//! them pins the CRT signing halves (`L = 8`), the full-width private
//! exponentiation (`L = 16`) and the condensed-RSA product (`L = 16`).
//! The accumulator's fixed-base `lift` and general `lift_pow` pin the
//! `L = 4` comb and sliding-window paths.

use vbx_crypto::accum::exp_from_seed;
use vbx_crypto::signer::Signer;
use vbx_crypto::{rsa, sha256, Acc256, Sha256};

const MESSAGES: u64 = 256;

fn message(i: u64) -> Vec<u8> {
    let mut msg = b"pinned attribute digest ".to_vec();
    msg.extend_from_slice(&sha256(&i.to_le_bytes()));
    msg
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// SHA-256 over the signatures of [`MESSAGES`] fixed messages, checking
/// that each one verifies, plus their condensed aggregate.
fn signature_digests(kp: &impl Signer) -> (String, String) {
    let verifier = kp.verifier();
    let mut h = Sha256::new();
    let mut sigs = Vec::new();
    for i in 0..MESSAGES {
        let msg = message(i);
        let sig = kp.sign(&msg);
        assert!(verifier.verify(&msg, &sig), "message {i}");
        h.update(sig.as_bytes());
        sigs.push(sig);
    }
    let agg = verifier
        .aggregate_signatures(&sigs)
        .expect("RSA signatures condense");
    (hex(&h.finalize()), hex(&sha256(agg.as_bytes())))
}

/// The CRT path and the full-width path sign to the same bytes, so one
/// digest pins both.
const SIGS_1024: &str = "3f97d9587a184011fe959ae29574083738f4084ce3e6f93d4c469a7b72a89110";
const AGG_1024: &str = "39edb30c97ecd70e610479bd75026987ca42920e01d880703ad7f7298ed899e1";
const ACC256_LIFTS: &str = "1eba3337648fbea45419402001f70644ddbae1501da09a95e8abc4a04322ec37";

#[test]
fn rsa1024_crt_signatures_are_pinned() {
    let (sigs, agg) = signature_digests(&rsa::fixture_keypair_crt_1024());
    assert_eq!(sigs, SIGS_1024);
    assert_eq!(agg, AGG_1024);
}

#[test]
fn rsa1024_full_width_signatures_are_pinned() {
    let kp = rsa::fixture_keypair_crt_1024().without_crt();
    assert!(!kp.has_crt());
    let (sigs, agg) = signature_digests(&kp);
    assert_eq!(sigs, SIGS_1024);
    assert_eq!(agg, AGG_1024);
}

#[test]
fn acc256_lifts_are_pinned() {
    let acc = Acc256::test_default();
    let exps: Vec<_> = (0..MESSAGES).map(|s| exp_from_seed(&acc, s)).collect();
    let mut h = Sha256::new();
    for (i, e) in exps.iter().enumerate() {
        let v = acc.lift(e);
        h.update(&v.to_be_bytes());
        let w = acc.lift_pow(&v, &exps[exps.len() - 1 - i]);
        h.update(&w.to_be_bytes());
    }
    assert_eq!(hex(&h.finalize()), ACC256_LIFTS);
}
