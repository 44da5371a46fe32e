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

use crate::hash::{sha256, HashAlgo};
use crate::signer::{SigScreen, SigVerifier, Signature, Signer};
use std::cell::RefCell;
use vbx_mathx::groups::SafePrimeGroup;
use vbx_mathx::{modular, FixedBaseTable, MontCtx, Uint};

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
        // Thread-local scratch: this runs once per attribute of every
        // tuple (the build/verify hot loop), so the hash material and
        // counter-prefixed block buffers are reused across calls instead
        // of allocated per call. Thread-local (not a field) keeps the
        // accumulator shareable across the parallel-build workers.
        thread_local! {
            static SCRATCH: RefCell<(Vec<u8>, Vec<u8>)> =
                const { RefCell::new((Vec::new(), Vec::new())) };
        }
        SCRATCH.with(|cell| {
            let (material, block) = &mut *cell.borrow_mut();
            material.clear();
            let mut counter = 0u32;
            while material.len() < L * 8 {
                block.clear();
                block.extend_from_slice(&counter.to_be_bytes());
                block.extend_from_slice(data);
                material.extend_from_slice(&self.hash.digest(block));
                counter += 1;
            }
            material.truncate(L * 8);
            let wide = Uint::<L>::from_be_bytes(material).expect("exact width");
            let e = wide.rem(&self.group.q);
            if e.is_zero() {
                Uint::ONE
            } else {
                e
            }
        })
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
        let msg = signed_payload(role, &self.exp_to_bytes(e));
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
        let msg = signed_payload(d.role, &self.exp_to_bytes(&d.exp));
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
            msg.extend_from_slice(PAYLOAD_DOMAIN);
            msg.push(d.role.tag());
            d.exp.extend_be_bytes(msg);
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

/// The exact message a [`SignedDigest`]'s signature covers:
/// `"vbx-dgst" ‖ role ‖ exp`. Public so aggregate verification
/// ([`crate::signer::AggregateVerify`]) can absorb the same bytes the
/// central server signed.
pub fn signed_payload(role: DigestRole, exp_bytes: &[u8]) -> Vec<u8> {
    let mut msg = Vec::with_capacity(exp_bytes.len() + 9);
    msg.extend_from_slice(PAYLOAD_DOMAIN);
    msg.push(role.tag());
    msg.extend_from_slice(exp_bytes);
    msg
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
