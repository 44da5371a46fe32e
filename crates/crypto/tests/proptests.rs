//! Property tests for the cryptographic substrate: accumulator algebra
//! laws (the foundation of the paper's commutative VOs), hash streaming
//! consistency, the SHA-256 kernels against each other, and signature
//! round-trips.

use proptest::prelude::*;
use vbx_crypto::accum::DigestRole;
use vbx_crypto::signer::{MockSigner, Signer};
use vbx_crypto::{rsa, Acc256, Sha256};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Combination is commutative and associative for arbitrary inputs —
    /// Section 3.2's h(d1|d2) = h(d2|d1).
    #[test]
    fn combine_laws(a in any::<Vec<u8>>(), b in any::<Vec<u8>>(), c in any::<Vec<u8>>()) {
        let acc = Acc256::test_default();
        let x = acc.exp_from_bytes(&a);
        let y = acc.exp_from_bytes(&b);
        let z = acc.exp_from_bytes(&c);
        prop_assert_eq!(acc.combine(&x, &y), acc.combine(&y, &x));
        prop_assert_eq!(
            acc.combine(&acc.combine(&x, &y), &z),
            acc.combine(&x, &acc.combine(&y, &z))
        );
    }

    /// Any permutation of a digest set combines to the same value —
    /// the property that lets D_S/D_P be unordered sets.
    #[test]
    fn combine_all_permutation_invariant(
        seeds in proptest::collection::vec(any::<u64>(), 1..12),
        rotate in any::<usize>(),
    ) {
        let acc = Acc256::test_default();
        let exps: Vec<_> = seeds
            .iter()
            .map(|s| acc.exp_from_bytes(&s.to_le_bytes()))
            .collect();
        let mut rotated = exps.clone();
        let r = rotate % rotated.len().max(1);
        rotated.rotate_left(r);
        rotated.reverse();
        prop_assert_eq!(acc.combine_all(exps.iter()), acc.combine_all(rotated.iter()));
    }

    /// uncombine inverts combine for any operands.
    #[test]
    fn uncombine_inverts(a in any::<Vec<u8>>(), b in any::<Vec<u8>>()) {
        let acc = Acc256::test_default();
        let x = acc.exp_from_bytes(&a);
        let y = acc.exp_from_bytes(&b);
        prop_assert_eq!(acc.uncombine(&acc.combine(&x, &y), &y), x);
    }

    /// The lifted (value-domain) identity of Lemma 1:
    /// g^(x·y) == (g^x)^y == (g^y)^x.
    #[test]
    fn lift_commutes(a in any::<u64>(), b in any::<u64>()) {
        let acc = Acc256::test_default();
        let x = acc.exp_from_bytes(&a.to_le_bytes());
        let y = acc.exp_from_bytes(&b.to_le_bytes());
        let direct = acc.lift(&acc.combine(&x, &y));
        prop_assert_eq!(acc.lift_pow(&acc.lift(&x), &y), direct);
        prop_assert_eq!(acc.lift_pow(&acc.lift(&y), &x), direct);
    }

    /// Exponents always land in (0, q) and the canonical codec
    /// round-trips.
    #[test]
    fn exponents_well_formed(data in any::<Vec<u8>>()) {
        let acc = Acc256::test_default();
        let e = acc.exp_from_bytes(&data);
        prop_assert!(!e.is_zero());
        prop_assert!(e < acc.group().q);
        let bytes = acc.exp_to_bytes(&e);
        prop_assert_eq!(acc.exp_from_canonical(&bytes), Some(e));
    }

    /// Streaming SHA-256 equals one-shot for any split points.
    #[test]
    fn sha256_streaming(data in proptest::collection::vec(any::<u8>(), 0..2048), cut in any::<usize>()) {
        let split = if data.is_empty() { 0 } else { cut % data.len() };
        let mut h = Sha256::new();
        h.update(&data[..split]);
        h.update(&data[split..]);
        prop_assert_eq!(h.finalize(), vbx_crypto::sha256(&data));
    }

    /// Mock signatures verify and reject any modified message.
    #[test]
    fn mock_signer_roundtrip(msg in any::<Vec<u8>>(), flip in any::<u8>(), pos in any::<usize>()) {
        let s = MockSigner::new(5);
        let v = s.verifier();
        let sig = s.sign(&msg);
        prop_assert!(v.verify(&msg, &sig));
        if !msg.is_empty() && flip != 0 {
            let mut bad = msg.clone();
            let p = pos % bad.len();
            bad[p] ^= flip;
            prop_assert!(!v.verify(&bad, &sig));
        }
    }

    /// Signed digests bind role and exponent.
    #[test]
    fn signed_digest_binding(a in any::<u64>(), b in any::<u64>()) {
        let acc = Acc256::test_default();
        let signer = MockSigner::new(9);
        let verifier = signer.verifier();
        let x = acc.exp_from_bytes(&a.to_le_bytes());
        let d = acc.sign_digest(&signer, DigestRole::Node, &x);
        prop_assert!(acc.verify_digest(verifier.as_ref(), &d));
        let y = acc.exp_from_bytes(&b.to_le_bytes());
        if y != x {
            let mut forged = d.clone();
            forged.exp = y;
            prop_assert!(!acc.verify_digest(verifier.as_ref(), &forged));
        }
        let mut wrong_role = d;
        wrong_role.role = DigestRole::Tuple;
        prop_assert!(!acc.verify_digest(verifier.as_ref(), &wrong_role));
    }
}

proptest! {
    // RSA is slower; fewer cases.
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn rsa_roundtrip(msg in proptest::collection::vec(any::<u8>(), 0..512)) {
        let kp = rsa::fixture_keypair_512();
        let v = kp.verifier();
        let sig = kp.sign(&msg);
        prop_assert!(v.verify(&msg, &sig));
        let mut other = msg.clone();
        other.push(0x55);
        prop_assert!(!v.verify(&other, &sig));
    }

    #[test]
    fn rsa_signature_malleability_rejected(
        msg in proptest::collection::vec(any::<u8>(), 1..64),
        pos in any::<usize>(),
        flip in 1u8..,
    ) {
        let kp = rsa::fixture_keypair_512();
        let v = kp.verifier();
        let mut sig = kp.sign(&msg);
        let p = pos % sig.0.len();
        sig.0[p] ^= flip;
        prop_assert!(!v.verify(&msg, &sig));
    }

    /// CRT signatures are bit-identical to full-width signatures under
    /// the same key, for arbitrary messages (the half-width fast path
    /// must be observationally invisible).
    #[test]
    fn crt_signature_matches_full_width(msg in proptest::collection::vec(any::<u8>(), 0..256)) {
        let kp = rsa::fixture_keypair_crt_512();
        let full = kp.without_crt();
        let crt_sig = kp.sign(&msg);
        prop_assert_eq!(crt_sig.as_bytes(), full.sign(&msg).as_bytes());
        prop_assert!(kp.verifier().verify(&msg, &crt_sig));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The fixed-base lift is bit-identical to naive square-and-multiply
    /// for hashed exponents and for the edge cases outside `Z_q*` (zero,
    /// one, `q`, `q + 1`, max width).
    #[test]
    fn lift_matches_naive(data in any::<Vec<u8>>()) {
        let acc = Acc256::test_default();
        let e = acc.exp_from_bytes(&data);
        prop_assert_eq!(acc.lift(&e), acc.lift_naive(&e));
        let q = acc.group().q;
        for edge in [
            vbx_mathx::U256::ZERO,
            vbx_mathx::U256::ONE,
            q, // exponent == group order
            q.wrapping_add(&vbx_mathx::U256::ONE),
            vbx_mathx::U256::MAX,
        ] {
            prop_assert_eq!(acc.lift(&edge), acc.lift_naive(&edge));
        }
    }

    /// The Montgomery-chained `combine_all` equals a left fold of
    /// `combine` for any chain (including the empty chain).
    #[test]
    fn combine_all_matches_fold(seeds in proptest::collection::vec(any::<u64>(), 0..20)) {
        let acc = Acc256::test_default();
        let exps: Vec<_> = seeds
            .iter()
            .map(|s| acc.exp_from_bytes(&s.to_le_bytes()))
            .collect();
        let mut fold = acc.identity();
        for e in &exps {
            fold = acc.combine(&fold, e);
        }
        prop_assert_eq!(acc.combine_all(exps.iter()), fold);
    }
}

/// SHA-256 of `data` on the portable kernel alone: padded here, not by
/// the streaming hasher, and compressed with `Sha256::compress_soft`.
fn sha256_portable(data: &[u8]) -> [u8; 32] {
    let mut msg = data.to_vec();
    msg.push(0x80);
    while msg.len() % 64 != 56 {
        msg.push(0);
    }
    msg.extend_from_slice(&(data.len() as u64 * 8).to_be_bytes());
    let mut state = [
        0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
        0x5be0cd19,
    ];
    for block in msg.chunks_exact(64) {
        Sha256::compress_soft(&mut state, block.try_into().unwrap());
    }
    let mut out = [0u8; 32];
    for (i, word) in state.iter().enumerate() {
        out[4 * i..4 * i + 4].copy_from_slice(&word.to_be_bytes());
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10_000))]

    /// The dispatched compression (the x86 SHA extensions where the CPU
    /// has them) equals the portable one on any state and block.
    #[test]
    fn sha256_compress_matches_portable(state in any::<[u32; 8]>(), block in any::<[u8; 64]>()) {
        let (mut fast, mut soft) = (state, state);
        Sha256::compress(&mut fast, &block);
        Sha256::compress_soft(&mut soft, &block);
        prop_assert_eq!(fast, soft);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Every length 0..=300 — each padding case of the first blocks —
    /// in one shot and streamed in three pieces cut at random points,
    /// against the portable kernel.
    #[test]
    fn sha256_every_length_matches_portable(
        data in proptest::collection::vec(any::<u8>(), 300..=300),
        cuts in any::<(usize, usize)>(),
    ) {
        println!("sha256 kernel under test: {}", Sha256::kernel());
        for len in 0..=300 {
            let msg = &data[..len];
            let want = sha256_portable(msg);
            prop_assert_eq!(vbx_crypto::sha256(msg), want);
            let a = cuts.0 % (len + 1);
            let b = a + cuts.1 % (len - a + 1);
            let mut h = Sha256::new();
            h.update(&msg[..a]);
            h.update(&msg[a..b]);
            h.update(&msg[b..]);
            prop_assert_eq!(h.finalize(), want);
        }
    }
}
