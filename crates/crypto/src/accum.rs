//! The commutative digest accumulator — the paper's `h(x) = g^x mod p`.
//!
//! Section 3.2 chooses a one-way hash whose combination operator is
//! *commutative*:
//!
//! ```text
//! h(d1 | d2) = g^(d1 · d2) = (g^d1)^d2 = (g^d2)^d1   (mod p)
//! ```
//!
//! We realise this in the order-`q` subgroup of `Z_p*` for a safe prime
//! `p = 2q + 1`. A digest is the pair:
//!
//! * **exponent** `E ∈ Z_q*` — the accumulator; combination is
//!   `E1 · E2 mod q`, which is commutative and associative, so digest
//!   sets need no ordering (the flat `D_S`/`D_P` sets of Section 3.3),
//! * **value** `V = g^E mod p` — the paper's digest value, recomputed by
//!   the verifier at the top of the enveloping subtree (Lemma 1/2).
//!
//! Incremental insert (Section 3.4) falls out as
//! `E' = E · E_T mod q`, `V' = V^{E_T} mod p`, and deletions can even be
//! *reversed out* (`E' = E · E_T^{-1} mod q`) because `Z_q` is a field —
//! see [`Accumulator::uncombine`].

use crate::hash::{sha256, HashAlgo, MAX_DIGEST_LEN};
use crate::signer::{SigScreen, SigVerifier, Signature, Signer};
use vbx_mathx::groups::SafePrimeGroup;
use vbx_mathx::{modular, FixedBaseTable, MontCtx, MontProduct, Uint};

/// The digest algebra for a fixed group width of `L` limbs.
///
/// Holds Montgomery contexts plus a precomputed [`FixedBaseTable`] for
/// the generator `g`, so lifts (`g^E mod p`) skip the squaring chain
/// entirely. Cheap to clone conceptually but the table is tens of
/// kilobytes; share it via reference or `Arc` in hot paths.
#[derive(Clone)]
pub struct Accumulator<const L: usize> {
    group: SafePrimeGroup<L>,
    mont_p: MontCtx<L>,
    mont_q: MontCtx<L>,
    /// Comb table for the fixed generator `g` over `p`.
    fixed_g: FixedBaseTable<L>,
    hash: HashAlgo,
}

/// Accumulator over the deterministic 256-bit test group.
pub type Acc256 = Accumulator<4>;
/// Accumulator over the deterministic 512-bit test group.
pub type Acc512 = Accumulator<8>;

impl Acc256 {
    /// Accumulator over the built-in 256-bit test group.
    pub fn test_default() -> Self {
        Accumulator::new(vbx_mathx::groups::test_group_256())
    }
}

impl Acc512 {
    /// Accumulator over the built-in 512-bit test group.
    pub fn test_default_512() -> Self {
        Accumulator::new(vbx_mathx::groups::test_group_512())
    }
}

impl<const L: usize> Accumulator<L> {
    /// Build the algebra for a safe-prime group (SHA-256 base hash).
    pub fn new(group: SafePrimeGroup<L>) -> Self {
        Self::with_hash(group, HashAlgo::Sha256)
    }

    /// Build the algebra with an explicit base hash — the paper names
    /// MD5 and SHA as candidate one-way functions for formula (1).
    pub fn with_hash(group: SafePrimeGroup<L>, hash: HashAlgo) -> Self {
        let mont_p = MontCtx::new(group.p);
        let fixed_g = FixedBaseTable::new(&mont_p, &group.g);
        Self {
            mont_p,
            mont_q: MontCtx::new(group.q),
            fixed_g,
            group,
            hash,
        }
    }

    /// The base hash algorithm deriving attribute digests.
    pub fn hash_algo(&self) -> HashAlgo {
        self.hash
    }

    /// The underlying group parameters.
    pub fn group(&self) -> &SafePrimeGroup<L> {
        &self.group
    }

    /// Byte length of a serialized exponent.
    pub fn exp_len(&self) -> usize {
        L * 8
    }

    /// The multiplicative identity exponent (combining with it is a
    /// no-op).
    pub fn identity(&self) -> Uint<L> {
        Uint::ONE
    }

    /// Hash arbitrary bytes into `Z_q*` — the base digest of formula (1).
    ///
    /// Counter-prefixed hash blocks (of the configured [`HashAlgo`]) are
    /// concatenated until the group width is covered, then reduced mod
    /// `q`; zero maps to 1 so the result is always invertible.
    pub fn exp_from_bytes(&self, data: &[u8]) -> Uint<L> {
        // This runs once per attribute of every tuple (the build/verify
        // hot loop): `counter ‖ data` is streamed into the hasher and
        // each digest byte lands in its limb, most significant first, so
        // nothing is allocated or copied on the way to the reduction.
        let mut limbs = [0u64; L];
        let mut digest = [0u8; MAX_DIGEST_LEN];
        let mut missing = L * 8;
        let mut counter = 0u32;
        while missing > 0 {
            let n = self
                .hash
                .digest_parts(&[&counter.to_be_bytes(), data], &mut digest);
            for &b in digest[..n].iter().take(missing) {
                missing -= 1;
                limbs[missing / 8] |= (b as u64) << (8 * (missing % 8));
            }
            counter += 1;
        }
        let e = Uint::from_limbs(limbs).rem(&self.group.q);
        if e.is_zero() {
            Uint::ONE
        } else {
            e
        }
    }

    /// Commutative combination: `a · b mod q` — the paper's
    /// `h(d_a | d_b)` in exponent space.
    ///
    /// ```
    /// use vbx_crypto::Acc256;
    /// let acc = Acc256::test_default();
    /// let x = acc.exp_from_bytes(b"alpha");
    /// let y = acc.exp_from_bytes(b"beta");
    /// assert_eq!(acc.combine(&x, &y), acc.combine(&y, &x)); // h(x|y) = h(y|x)
    /// ```
    pub fn combine(&self, a: &Uint<L>, b: &Uint<L>) -> Uint<L> {
        self.mont_q.mul_mod(a, b)
    }

    /// Combine an iterator of exponents (in any order — commutativity is
    /// exercised by the property tests).
    ///
    /// The running product stays in Montgomery form for the whole chain:
    /// one conversion out at the end instead of a Montgomery round-trip
    /// per element, halving the modular multiplications of a
    /// [`combine`](Self::combine) fold while producing identical values.
    pub fn combine_all<'a, I: IntoIterator<Item = &'a Uint<L>>>(&self, iter: I) -> Uint<L> {
        let mut acc_m: Option<Uint<L>> = None;
        for e in iter {
            let e_m = self.mont_q.to_mont(e);
            acc_m = Some(match acc_m {
                Some(a) => self.mont_q.mont_mul(&a, &e_m),
                None => e_m,
            });
        }
        match acc_m {
            Some(a) => self.mont_q.from_mont(&a),
            None => self.identity(),
        }
    }

    /// Reverse a combination: `a · b^{-1} mod q`. Used by the extension
    /// that reverses deleted tuples out of node digests instead of
    /// recomputing them (the paper recomputes; see DESIGN.md §6).
    pub fn uncombine(&self, a: &Uint<L>, b: &Uint<L>) -> Uint<L> {
        let inv = modular::inv_mod(b, &self.group.q)
            .expect("exponents are non-zero elements of the prime field Z_q");
        self.combine(a, &inv)
    }

    /// Lift an exponent to the group: `g^E mod p` — the paper's digest
    /// value `h(…)`. Served from the precomputed fixed-base table for
    /// `g`: at most one multiplication per exponent nibble, no
    /// squarings.
    pub fn lift(&self, e: &Uint<L>) -> Uint<L> {
        self.fixed_g.pow(&self.mont_p, e)
    }

    /// Reference lift via plain square-and-multiply — the baseline
    /// [`lift`](Self::lift) is proven bit-identical to (property tests)
    /// and measured against (`repro -- perf`).
    pub fn lift_naive(&self, e: &Uint<L>) -> Uint<L> {
        self.mont_p.pow_mod_naive(&self.group.g, e)
    }

    /// Incremental lift: `V^E mod p`, i.e. combine a new exponent into an
    /// already-lifted digest value (Section 3.4's insert update).
    pub fn lift_pow(&self, v: &Uint<L>, e: &Uint<L>) -> Uint<L> {
        self.mont_p.pow_mod(v, e)
    }

    /// Canonical byte encoding of an exponent (fixed width, big-endian).
    pub fn exp_to_bytes(&self, e: &Uint<L>) -> Vec<u8> {
        e.to_be_bytes()
    }

    /// Parse a canonical exponent encoding. Rejects values outside
    /// `[1, q)`.
    pub fn exp_from_canonical(&self, bytes: &[u8]) -> Option<Uint<L>> {
        if bytes.len() != L * 8 {
            return None;
        }
        let e = Uint::<L>::from_be_bytes(bytes)?;
        if e.is_zero() || e >= self.group.q {
            return None;
        }
        Some(e)
    }

    /// Sign an exponent digest under a domain tag (see [`DigestRole`]).
    pub fn sign_digest(
        &self,
        signer: &dyn Signer,
        role: DigestRole,
        e: &Uint<L>,
    ) -> SignedDigest<L> {
        let mut msg = Vec::with_capacity(L * 8 + 9);
        extend_signed_payload(&mut msg, role, e);
        SignedDigest {
            exp: *e,
            role,
            sig: signer.sign(&msg),
        }
    }

    /// Verify a signed digest.
    pub fn verify_digest(&self, verifier: &dyn SigVerifier, d: &SignedDigest<L>) -> bool {
        if d.exp.is_zero() || d.exp >= self.group.q {
            return false;
        }
        let mut msg = Vec::with_capacity(L * 8 + 9);
        extend_signed_payload(&mut msg, d.role, &d.exp);
        verifier.verify(&msg, &d.sig)
    }

    /// Queue a signed digest on a signature screen — what the verifiers
    /// call instead of [`verify_digest`](Self::verify_digest): once the
    /// screen finishes, the digest's message is known to be signed.
    /// `Err(tag)` reports an out-of-range exponent here or a bad pair in
    /// a batch this push flushed.
    pub fn screen_digest<T>(
        &self,
        screen: &mut SigScreen<'_, T>,
        tag: T,
        d: &SignedDigest<L>,
    ) -> Result<(), T> {
        if d.exp.is_zero() || d.exp >= self.group.q {
            return Err(tag);
        }
        screen.push_with(tag, &d.sig, |msg| {
            extend_signed_payload(msg, d.role, &d.exp)
        })
    }
}

/// Domain tag distinguishing what a signed digest authenticates.
///
/// The paper's formula (1) already namespaces attribute digests with
/// database/table/attribute names; the role tag additionally prevents a
/// digest signed as (say) an attribute from being replayed as a node
/// digest.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DigestRole {
    /// Per-attribute digest (formula (1)).
    Attribute,
    /// Per-tuple digest (formula (2)).
    Tuple,
    /// B-tree node digest (formula (3)).
    Node,
    /// Root digest stored in the VB-tree metadata.
    Root,
}

impl DigestRole {
    fn tag(self) -> u8 {
        match self {
            DigestRole::Attribute => 0xA1,
            DigestRole::Tuple => 0xA2,
            DigestRole::Node => 0xA3,
            DigestRole::Root => 0xA4,
        }
    }

    /// Decode from the wire tag.
    pub fn from_tag(tag: u8) -> Option<Self> {
        Some(match tag {
            0xA1 => DigestRole::Attribute,
            0xA2 => DigestRole::Tuple,
            0xA3 => DigestRole::Node,
            0xA4 => DigestRole::Root,
            _ => return None,
        })
    }

    /// Encode to the wire tag.
    pub fn to_tag(self) -> u8 {
        self.tag()
    }
}

const PAYLOAD_DOMAIN: &[u8; 8] = b"vbx-dgst";

/// Append the exact message a [`SignedDigest`]'s signature covers —
/// `"vbx-dgst" ‖ role ‖ exp` — to `out`. Public so aggregate
/// verification ([`crate::signer::AggregateVerify`]) can absorb the same
/// bytes the central server signed, one payload after another through a
/// reused buffer.
pub fn extend_signed_payload<const L: usize>(out: &mut Vec<u8>, role: DigestRole, exp: &Uint<L>) {
    out.extend_from_slice(PAYLOAD_DOMAIN);
    out.push(role.tag());
    exp.extend_be_bytes(out);
}

/// A running exponent product `∏ e_i mod q` — a verifier's digest frame.
///
/// Folding costs one Montgomery product per exponent instead of the
/// four behind [`Accumulator::combine`]; the plain value is recovered
/// once, by [`value`](Self::value). Every method must be given the
/// accumulator the product was started under.
#[derive(Clone, Debug, Default)]
pub struct ExpProduct<const L: usize>(MontProduct<L>);

impl<const L: usize> ExpProduct<L> {
    /// The empty product (`value` is the identity exponent).
    pub fn new() -> Self {
        Self(MontProduct::new())
    }

    /// Fold in one exponent `e < q`.
    pub fn fold(&mut self, acc: &Accumulator<L>, e: &Uint<L>) {
        self.0.mul(&acc.mont_q, e);
    }

    /// Fold in a whole inner product (a closed frame) at the price of
    /// one exponent.
    pub fn fold_product(&mut self, acc: &Accumulator<L>, inner: &Self) {
        self.0.mul_product(&acc.mont_q, &inner.0);
    }

    /// The product as a plain exponent — what a chain of
    /// [`Accumulator::combine`] calls over the same exponents returns.
    pub fn value(&self, acc: &Accumulator<L>) -> Uint<L> {
        self.0.value(&acc.mont_q)
    }
}

/// A digest exponent together with the central server's signature over
/// its canonical encoding — the unit that verification objects carry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SignedDigest<const L: usize> {
    /// Exponent in `Z_q*`.
    pub exp: Uint<L>,
    /// What this digest authenticates.
    pub role: DigestRole,
    /// Signature over `"vbx-dgst" ‖ role ‖ exp`.
    pub sig: Signature,
}

impl<const L: usize> SignedDigest<L> {
    /// Serialized size in bytes (exponent + role byte + signature).
    pub fn wire_len(&self) -> usize {
        L * 8 + 1 + self.sig.len()
    }

    /// A quick content fingerprint for hashing/dedup in tests.
    pub fn fingerprint(&self) -> [u8; 32] {
        let mut h = crate::hash::Sha256::new();
        h.update(&self.exp.to_be_bytes());
        h.update(&[self.role.to_tag()]);
        h.update(self.sig.as_bytes());
        h.finalize()
    }
}

/// Convenience: derive a deterministic-but-distinct exponent from a seed,
/// for tests and synthetic workloads.
pub fn exp_from_seed<const L: usize>(acc: &Accumulator<L>, seed: u64) -> Uint<L> {
    acc.exp_from_bytes(&sha256(&seed.to_le_bytes()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signer::MockSigner;

    fn acc() -> Acc256 {
        Acc256::test_default()
    }

    #[test]
    fn exp_from_bytes_in_range() {
        let a = acc();
        for s in 0..50u64 {
            let e = a.exp_from_bytes(&s.to_le_bytes());
            assert!(!e.is_zero());
            assert!(e < a.group().q);
        }
    }

    /// Formula (1)'s hash-to-`Z_q*` spelled out byte by byte: hash
    /// `counter ‖ data` blocks into a buffer, truncate to the group
    /// width, read it big-endian, subtract `q` until below it.
    fn exp_from_bytes_reference<const L: usize>(a: &Accumulator<L>, data: &[u8]) -> Uint<L> {
        let mut material = Vec::new();
        let mut counter = 0u32;
        while material.len() < L * 8 {
            let mut block = counter.to_be_bytes().to_vec();
            block.extend_from_slice(data);
            material.extend_from_slice(&a.hash_algo().digest(&block));
            counter += 1;
        }
        let mut e = Uint::<L>::from_be_bytes(&material[..L * 8]).unwrap();
        while e >= a.group().q {
            e = e.wrapping_sub(&a.group().q);
        }
        if e.is_zero() {
            Uint::ONE
        } else {
            e
        }
    }

    #[test]
    fn exp_from_bytes_matches_bytewise_reference() {
        fn check<const L: usize>(group: SafePrimeGroup<L>) {
            // MD5 needs two blocks per 256-bit exponent and four per
            // 512-bit one; SHA-1's 20 bytes never divide the width.
            for algo in [HashAlgo::Sha256, HashAlgo::Sha1, HashAlgo::Md5] {
                let a = Accumulator::with_hash(group, algo);
                for len in [0usize, 1, 27, 51, 52, 59, 60, 61, 120, 300] {
                    let data: Vec<u8> = (0..len).map(|i| (i * 31 + len) as u8).collect();
                    assert_eq!(
                        a.exp_from_bytes(&data),
                        exp_from_bytes_reference(&a, &data),
                        "{algo:?}, L = {L}, {len} bytes"
                    );
                }
            }
        }
        check(vbx_mathx::groups::test_group_256());
        check(vbx_mathx::groups::test_group_512());
    }

    #[test]
    fn exp_product_matches_combine_chain() {
        let a = acc();
        let exps: Vec<_> = (0..40).map(|i| exp_from_seed(&a, i)).collect();
        // Frames nested as the compact verifier nests them, one of them
        // empty: ((e0..e9) (e10..e19 ()) e20..e39).
        let mut outer = ExpProduct::new();
        let mut first = ExpProduct::new();
        let mut second = ExpProduct::new();
        exps[..10].iter().for_each(|e| first.fold(&a, e));
        exps[10..20].iter().for_each(|e| second.fold(&a, e));
        second.fold_product(&a, &ExpProduct::new());
        outer.fold_product(&a, &first);
        outer.fold_product(&a, &second);
        exps[20..].iter().for_each(|e| outer.fold(&a, e));
        let chain = exps.iter().fold(a.identity(), |t, e| a.combine(&t, e));
        assert_eq!(outer.value(&a), chain);
        assert_eq!(ExpProduct::new().value(&a), a.identity());
    }

    #[test]
    fn combine_commutative_and_associative() {
        let a = acc();
        let x = exp_from_seed(&a, 1);
        let y = exp_from_seed(&a, 2);
        let z = exp_from_seed(&a, 3);
        assert_eq!(a.combine(&x, &y), a.combine(&y, &x));
        assert_eq!(
            a.combine(&a.combine(&x, &y), &z),
            a.combine(&x, &a.combine(&y, &z))
        );
    }

    #[test]
    fn identity_is_neutral() {
        let a = acc();
        let x = exp_from_seed(&a, 9);
        assert_eq!(a.combine(&x, &a.identity()), x);
    }

    #[test]
    fn uncombine_reverses_combine() {
        let a = acc();
        let x = exp_from_seed(&a, 4);
        let y = exp_from_seed(&a, 5);
        let xy = a.combine(&x, &y);
        assert_eq!(a.uncombine(&xy, &y), x);
        assert_eq!(a.uncombine(&xy, &x), y);
    }

    #[test]
    fn lift_respects_combination() {
        // g^(x·y) == (g^x)^y == (g^y)^x — the paper's commutativity claim
        // in the value domain.
        let a = acc();
        let x = exp_from_seed(&a, 6);
        let y = exp_from_seed(&a, 7);
        let lhs = a.lift(&a.combine(&x, &y));
        let via_x = a.lift_pow(&a.lift(&x), &y);
        let via_y = a.lift_pow(&a.lift(&y), &x);
        assert_eq!(lhs, via_x);
        assert_eq!(lhs, via_y);
    }

    #[test]
    fn combine_all_order_independent() {
        let a = acc();
        let exps: Vec<_> = (0..10).map(|i| exp_from_seed(&a, i)).collect();
        let forward = a.combine_all(exps.iter());
        let backward = a.combine_all(exps.iter().rev());
        assert_eq!(forward, backward);
    }

    #[test]
    fn signed_digest_roundtrip() {
        let a = acc();
        let signer = MockSigner::new(11);
        let verifier = signer.verifier();
        let e = exp_from_seed(&a, 20);
        let d = a.sign_digest(&signer, DigestRole::Tuple, &e);
        assert!(a.verify_digest(verifier.as_ref(), &d));
    }

    #[test]
    fn role_confusion_rejected() {
        let a = acc();
        let signer = MockSigner::new(11);
        let verifier = signer.verifier();
        let e = exp_from_seed(&a, 20);
        let mut d = a.sign_digest(&signer, DigestRole::Tuple, &e);
        d.role = DigestRole::Node; // replay under a different role
        assert!(!a.verify_digest(verifier.as_ref(), &d));
    }

    #[test]
    fn tampered_exponent_rejected() {
        let a = acc();
        let signer = MockSigner::new(11);
        let verifier = signer.verifier();
        let e = exp_from_seed(&a, 21);
        let mut d = a.sign_digest(&signer, DigestRole::Attribute, &e);
        d.exp = exp_from_seed(&a, 22);
        assert!(!a.verify_digest(verifier.as_ref(), &d));
    }

    #[test]
    fn canonical_encoding_roundtrip() {
        let a = acc();
        let e = exp_from_seed(&a, 33);
        let bytes = a.exp_to_bytes(&e);
        assert_eq!(bytes.len(), a.exp_len());
        assert_eq!(a.exp_from_canonical(&bytes).unwrap(), e);
        assert!(a.exp_from_canonical(&bytes[1..]).is_none());
        // out-of-range value rejected
        let q_bytes = a.exp_to_bytes(&a.group().q);
        assert!(a.exp_from_canonical(&q_bytes).is_none());
        let zero = a.exp_to_bytes(&Uint::ZERO);
        assert!(a.exp_from_canonical(&zero).is_none());
    }

    #[test]
    fn hash_algo_changes_digests() {
        let g = vbx_mathx::groups::test_group_256();
        let sha = Accumulator::with_hash(g, crate::hash::HashAlgo::Sha256);
        let md5 = Accumulator::with_hash(g, crate::hash::HashAlgo::Md5);
        let sha1 = Accumulator::with_hash(g, crate::hash::HashAlgo::Sha1);
        let x_sha = sha.exp_from_bytes(b"same input");
        let x_md5 = md5.exp_from_bytes(b"same input");
        let x_sha1 = sha1.exp_from_bytes(b"same input");
        assert_ne!(x_sha, x_md5);
        assert_ne!(x_sha, x_sha1);
        assert_ne!(x_md5, x_sha1);
        // All still in range and algebra still works.
        for (acc, x) in [(&md5, x_md5), (&sha1, x_sha1)] {
            assert!(x < acc.group().q);
            let y = acc.exp_from_bytes(b"other");
            assert_eq!(acc.combine(&x, &y), acc.combine(&y, &x));
        }
        assert_eq!(md5.hash_algo(), crate::hash::HashAlgo::Md5);
    }

    #[test]
    fn role_tags_roundtrip() {
        for role in [
            DigestRole::Attribute,
            DigestRole::Tuple,
            DigestRole::Node,
            DigestRole::Root,
        ] {
            assert_eq!(DigestRole::from_tag(role.to_tag()), Some(role));
        }
        assert_eq!(DigestRole::from_tag(0x00), None);
    }
}
