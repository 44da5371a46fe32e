//! Textbook RSA signatures over `vbx-mathx`.
//!
//! This is the paper's digital signature scheme: the central DBMS signs
//! digests with its private key (`s(·)`), anyone with the public key can
//! recover/verify them (`s^{-1}(·)`). Signing is hash-then-pad-then-
//! exponentiate:
//!
//! ```text
//! EM  = 0x01 ‖ 0xFF…FF ‖ 0x00 ‖ SHA-256(msg)     (modulus_len - 1 bytes)
//! sig = EM^d mod n,     verify: sig^e mod n == EM
//! ```
//!
//! The padding is a deterministic PKCS#1 v1.5-style encoding (without the
//! ASN.1 `DigestInfo`, which adds nothing in a closed system). Key
//! generation uses two random primes of half the modulus width and
//! `d = e^{-1} mod λ(n)`.
//!
//! ## CRT fast path
//!
//! Keys that know their prime factors (generated keys, or fixtures built
//! with [`RsaKeyPair::from_primes`]) sign via the Chinese Remainder
//! Theorem: two half-width exponentiations `m^{d_p} mod p`,
//! `m^{d_q} mod q` recombined with Garner's formula — ~4× less limb work
//! than one full-width `m^d mod n`. Keys built from `(n, d)` alone
//! ([`RsaKeyPair::from_parts`]) keep signing over the full modulus, so
//! the deterministic `(n, d)` fixtures stay byte-compatible.

use crate::hash::sha256;
use crate::signer::{AggregateVerify, SigVerifier, Signature, Signer, SWEEP_BOUND};
use rand::Rng;
use std::sync::Arc;
use vbx_mathx::{modular, prime, MontCtx, MontProduct, Uint};

/// Object-safe CRT signing engine. The half-width arithmetic runs at a
/// *different* const width than the key (`H = L/2`), which Rust's const
/// generics cannot express in a field type — so the engine is built by a
/// width-dispatching factory ([`make_crt`]) and held behind `dyn`.
trait CrtSign<const L: usize>: Send + Sync {
    /// `em^d mod n` via the two half-width exponentiations.
    fn sign_em(&self, em: &Uint<L>) -> Uint<L>;
}

/// CRT components at half the modulus width: `p`, `q`,
/// `d_p = d mod (p-1)`, `d_q = d mod (q-1)`, `q_inv = q^{-1} mod p`.
struct CrtParts<const H: usize> {
    p: Uint<H>,
    q: Uint<H>,
    d_p: Uint<H>,
    d_q: Uint<H>,
    q_inv: Uint<H>,
    mont_p: MontCtx<H>,
    mont_q: MontCtx<H>,
}

impl<const H: usize, const L: usize> CrtSign<L> for CrtParts<H> {
    fn sign_em(&self, em: &Uint<L>) -> Uint<L> {
        debug_assert!(2 * H == L);
        let p_wide: Uint<L> = self.p.resize().expect("p is half-width");
        let q_wide: Uint<L> = self.q.resize().expect("q is half-width");
        let m_p: Uint<H> = em.rem(&p_wide).resize().expect("reduced mod p");
        let m_q: Uint<H> = em.rem(&q_wide).resize().expect("reduced mod q");
        let s_p = self.mont_p.pow_mod(&m_p, &self.d_p);
        let s_q = self.mont_q.pow_mod(&m_q, &self.d_q);
        // Garner recombination: sig = s_q + q · (q_inv · (s_p - s_q) mod p).
        let s_q_mod_p = if s_q < self.p { s_q } else { s_q.rem(&self.p) };
        let diff = modular::sub_mod(&s_p, &s_q_mod_p, &self.p);
        let h = self.mont_p.mul_mod(&self.q_inv, &diff);
        let (lo, hi) = self.q.mul_wide(&h);
        let mut limbs = [0u64; L];
        limbs[..H].copy_from_slice(&lo.limbs()[..]);
        limbs[H..2 * H].copy_from_slice(&hi.limbs()[..]);
        // s_q + q·h ≤ (q-1) + q·(p-1) = n - 1: never wraps.
        Uint::<L>::from_limbs(limbs).wrapping_add(&s_q.resize().expect("half-width"))
    }
}

/// Build the half-width CRT state for primes `p, q` and private exponent
/// `d` (all at the full key width). Returns `None` when the width has no
/// registered half (odd limb counts) or the inputs are degenerate.
fn crt_parts<const H: usize, const L: usize>(
    p: &Uint<L>,
    q: &Uint<L>,
    d: &Uint<L>,
) -> Option<Arc<dyn CrtSign<L>>> {
    if 2 * H != L {
        return None;
    }
    let p_h: Uint<H> = p.resize()?;
    let q_h: Uint<H> = q.resize()?;
    if p_h.is_even() || q_h.is_even() || p_h.is_one() || q_h.is_one() {
        return None;
    }
    let one = Uint::<H>::ONE;
    let p1 = p_h.wrapping_sub(&one);
    let q1 = q_h.wrapping_sub(&one);
    let d_p: Uint<H> = d.rem(&p1.resize::<L>()?).resize()?;
    let d_q: Uint<H> = d.rem(&q1.resize::<L>()?).resize()?;
    let q_inv = modular::inv_mod(&q_h.rem(&p_h), &p_h)?;
    Some(Arc::new(CrtParts {
        mont_p: MontCtx::new(p_h),
        mont_q: MontCtx::new(q_h),
        p: p_h,
        q: q_h,
        d_p,
        d_q,
        q_inv,
    }))
}

/// Width-dispatching CRT factory: maps each even limb count to its half.
fn make_crt<const L: usize>(p: &Uint<L>, q: &Uint<L>, d: &Uint<L>) -> Option<Arc<dyn CrtSign<L>>> {
    match L {
        2 => crt_parts::<1, L>(p, q, d),
        4 => crt_parts::<2, L>(p, q, d),
        8 => crt_parts::<4, L>(p, q, d),
        16 => crt_parts::<8, L>(p, q, d),
        32 => crt_parts::<16, L>(p, q, d),
        64 => crt_parts::<32, L>(p, q, d),
        _ => None,
    }
}

/// RSA public key: `(n, e)` plus a Montgomery context for fast verify.
#[derive(Clone)]
pub struct RsaPublicKey<const L: usize> {
    n: Uint<L>,
    e: Uint<L>,
    mont: MontCtx<L>,
    version: u32,
}

/// RSA key pair. The private exponent never leaves this struct.
#[derive(Clone)]
pub struct RsaKeyPair<const L: usize> {
    public: RsaPublicKey<L>,
    d: Uint<L>,
    /// CRT fast path; present when the prime factors are known.
    crt: Option<Arc<dyn CrtSign<L>>>,
}

/// Standard public exponent.
pub const RSA_E: u64 = 65_537;

impl<const L: usize> RsaPublicKey<L> {
    fn new(n: Uint<L>, version: u32) -> Self {
        Self {
            n,
            e: Uint::from_u64(RSA_E),
            mont: MontCtx::new(n),
            version,
        }
    }

    /// Modulus length in bytes == signature length.
    pub fn modulus_len(&self) -> usize {
        L * 8
    }

    /// The modulus.
    pub fn n(&self) -> &Uint<L> {
        &self.n
    }

    fn encode(&self, msg: &[u8]) -> Uint<L> {
        // EM has modulus_len - 1 bytes so the integer is < n. For small
        // (test-sized) moduli the hash is truncated; we insist on at
        // least 16 hash bytes, so moduli must be >= 192 bits.
        let em_len = self.modulus_len() - 1;
        let digest = sha256(msg);
        let hash_len = digest.len().min(em_len - 2);
        assert!(hash_len >= 16, "modulus too small for padding");
        // Written straight into the limbs (this runs once per absorbed
        // message of every sweep): start from all-0xFF padding and set
        // the other bytes, addressed from the least significant end.
        let mut limbs = [u64::MAX; L];
        let mut put = |pos: usize, b: u8| {
            let shift = 8 * (pos % 8);
            limbs[pos / 8] = limbs[pos / 8] & !(0xFF << shift) | (b as u64) << shift;
        };
        for (pos, &b) in digest[..hash_len].iter().rev().enumerate() {
            put(pos, b);
        }
        put(hash_len, 0x00);
        put(em_len - 1, 0x01);
        put(em_len, 0x00);
        Uint::from_limbs(limbs)
    }
}

impl<const L: usize> RsaKeyPair<L> {
    /// Generate a fresh key with a modulus of exactly `L*64` bits.
    pub fn generate<R: Rng + ?Sized>(rng: &mut R, version: u32) -> Self {
        let half_bits = L * 32;
        loop {
            let p: Uint<L> = prime::random_prime(half_bits, rng);
            let q: Uint<L> = prime::random_prime(half_bits, rng);
            if p == q {
                continue;
            }
            let n = match p.checked_mul(&q) {
                Some(n) if n.bits() == L * 64 => n,
                _ => continue,
            };
            let one = Uint::<L>::ONE;
            let p1 = p.wrapping_sub(&one);
            let q1 = q.wrapping_sub(&one);
            let g = modular::gcd(&p1, &q1);
            let (lam, _) = p1
                .checked_mul(&q1)
                .expect("fits: (p-1)(q-1) < n")
                .div_rem(&g);
            let e = Uint::from_u64(RSA_E);
            let Some(d) = modular::inv_mod(&e, &lam) else {
                continue;
            };
            let crt = make_crt(&p, &q, &d);
            return Self {
                public: RsaPublicKey::new(n, version),
                d,
                crt,
            };
        }
    }

    /// Build from known `(n, d)` values (used for the deterministic test
    /// fixtures in [`vbx_mathx::groups::rsa_fixtures`]). Without the
    /// prime factors the key signs over the full modulus — byte-identical
    /// to the CRT path, just slower.
    pub fn from_parts(n: Uint<L>, d: Uint<L>, version: u32) -> Self {
        Self {
            public: RsaPublicKey::new(n, version),
            d,
            crt: None,
        }
    }

    /// Build from known prime factors, deriving `n = p·q`,
    /// `d = e^{-1} mod λ(n)` and the CRT components. Returns `None` when
    /// the primes are degenerate (equal, even, or `e` not invertible).
    pub fn from_primes(p: Uint<L>, q: Uint<L>, version: u32) -> Option<Self> {
        let two = Uint::<L>::from_u64(2);
        if p == q || p.is_even() || q.is_even() || p <= two || q <= two {
            return None;
        }
        let n = p.checked_mul(&q)?;
        let one = Uint::<L>::ONE;
        let p1 = p.wrapping_sub(&one);
        let q1 = q.wrapping_sub(&one);
        let g = modular::gcd(&p1, &q1);
        let (lam, _) = p1.checked_mul(&q1)?.div_rem(&g);
        let e = Uint::from_u64(RSA_E);
        let d = modular::inv_mod(&e, &lam)?;
        let crt = make_crt(&p, &q, &d);
        Some(Self {
            public: RsaPublicKey::new(n, version),
            d,
            crt,
        })
    }

    /// True when this key signs through the half-width CRT fast path.
    pub fn has_crt(&self) -> bool {
        self.crt.is_some()
    }

    /// A copy of this key with the CRT state dropped, signing via one
    /// full-width exponentiation — the reference path the CRT signatures
    /// are proven bit-identical to (property tests), and the baseline
    /// for the `repro -- perf` speedup report.
    pub fn without_crt(&self) -> Self {
        Self {
            public: self.public.clone(),
            d: self.d,
            crt: None,
        }
    }

    /// The public half.
    pub fn public_key(&self) -> RsaPublicKey<L> {
        self.public.clone()
    }
}

impl<const L: usize> Signer for RsaKeyPair<L> {
    fn sign(&self, msg: &[u8]) -> Signature {
        let em = self.public.encode(msg);
        let sig = match &self.crt {
            Some(crt) => crt.sign_em(&em),
            None => self.public.mont.pow_mod(&em, &self.d),
        };
        Signature(sig.to_be_bytes())
    }

    fn signature_len(&self) -> usize {
        self.public.modulus_len()
    }

    fn key_version(&self) -> u32 {
        self.public.version
    }

    fn verifier(&self) -> Arc<dyn SigVerifier> {
        Arc::new(self.public.clone())
    }
}

/// Incremental condensed-RSA verification: a running product of the
/// encoded messages, `∏ EM_i mod n`, closed with a single
/// exponentiation of the aggregate. O(1) state in the batch size.
struct RsaAggregate<const L: usize> {
    key: RsaPublicKey<L>,
    /// `∏ encode(msg_i) mod n` over the absorbed messages.
    prod: MontProduct<L>,
}

impl<const L: usize> AggregateVerify for RsaAggregate<L> {
    fn absorb(&mut self, msg: &[u8]) {
        let em = self.key.encode(msg);
        self.prod.mul(&self.key.mont, &em);
    }

    fn finish(self: Box<Self>, agg: &Signature) -> bool {
        // Coron–Naccache on Bellare–Garay–Rabin screening; see
        // `SWEEP_BOUND`. Every multiplicity below is in `[1, e)` and so
        // coprime to the prime `e`.
        if self.prod.factors() >= SWEEP_BOUND {
            return false;
        }
        let Some(s) = Uint::<L>::from_be_bytes(agg.as_bytes()) else {
            return false;
        };
        if s >= self.key.n {
            return false;
        }
        // (∏ s_i)^e = ∏ s_i^e = ∏ EM_i (mod n): one modular
        // exponentiation verifies the whole batch.
        self.key.mont.pow_mod(&s, &self.key.e) == self.prod.value(&self.key.mont)
    }
}

impl<const L: usize> SigVerifier for RsaPublicKey<L> {
    fn verify(&self, msg: &[u8], sig: &Signature) -> bool {
        let Some(s) = Uint::<L>::from_be_bytes(sig.as_bytes()) else {
            return false;
        };
        if s >= self.n {
            return false;
        }
        let recovered = self.mont.pow_mod(&s, &self.e);
        recovered == self.encode(msg)
    }

    fn signature_len(&self) -> usize {
        self.modulus_len()
    }

    fn key_version(&self) -> u32 {
        self.version
    }

    /// Condensed RSA (Mykletun et al.): the aggregate of single-signer
    /// signatures is their product mod `n` — computable from public
    /// material alone, so an edge can condense the stored signatures it
    /// relays without holding any signing key.
    fn aggregate_signatures(&self, sigs: &[Signature]) -> Option<Signature> {
        if sigs.len() as u64 >= SWEEP_BOUND {
            return None;
        }
        let mut prod = MontProduct::new();
        for sig in sigs {
            let s = Uint::<L>::from_be_bytes(sig.as_bytes())?;
            if s >= self.n || s.is_zero() {
                return None;
            }
            prod.mul(&self.mont, &s);
        }
        Some(Signature(prod.value(&self.mont).to_be_bytes()))
    }

    fn begin_aggregate(&self) -> Option<Box<dyn AggregateVerify>> {
        Some(Box::new(RsaAggregate {
            key: self.clone(),
            prod: MontProduct::new(),
        }))
    }
}

/// The deterministic 512-bit fixture key (fast; tests only).
pub fn fixture_keypair_512() -> RsaKeyPair<8> {
    use vbx_mathx::groups::rsa_fixtures as fx;
    RsaKeyPair::from_parts(fx::n_512(), fx::d_512(), 1)
}

/// The deterministic 1024-bit fixture key.
pub fn fixture_keypair_1024() -> RsaKeyPair<16> {
    use vbx_mathx::groups::rsa_fixtures as fx;
    RsaKeyPair::from_parts(fx::n_1024(), fx::d_1024(), 1)
}

/// The deterministic 2048-bit fixture key.
pub fn fixture_keypair_2048() -> RsaKeyPair<32> {
    use vbx_mathx::groups::rsa_fixtures as fx;
    RsaKeyPair::from_parts(fx::n_2048(), fx::d_2048(), 1)
}

/// Deterministic 512-bit fixture key with known primes — signs through
/// the CRT fast path.
pub fn fixture_keypair_crt_512() -> RsaKeyPair<8> {
    let (p, q) = vbx_mathx::groups::rsa_fixtures::crt_primes_512();
    RsaKeyPair::from_primes(p, q, 1).expect("fixture primes are valid")
}

/// Deterministic 1024-bit CRT fixture key.
pub fn fixture_keypair_crt_1024() -> RsaKeyPair<16> {
    let (p, q) = vbx_mathx::groups::rsa_fixtures::crt_primes_1024();
    RsaKeyPair::from_primes(p, q, 1).expect("fixture primes are valid")
}

/// Deterministic 2048-bit CRT fixture key.
pub fn fixture_keypair_crt_2048() -> RsaKeyPair<32> {
    let (p, q) = vbx_mathx::groups::rsa_fixtures::crt_primes_2048();
    RsaKeyPair::from_primes(p, q, 1).expect("fixture primes are valid")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixture_sign_verify_512() {
        let kp = fixture_keypair_512();
        let v = kp.verifier();
        let sig = kp.sign(b"attribute digest payload");
        assert_eq!(sig.len(), 64);
        assert!(v.verify(b"attribute digest payload", &sig));
        assert!(!v.verify(b"attribute digest payloaD", &sig));
    }

    #[test]
    fn fixture_sign_verify_1024() {
        let kp = fixture_keypair_1024();
        let v = kp.verifier();
        let sig = kp.sign(b"m");
        assert_eq!(sig.len(), 128);
        assert!(v.verify(b"m", &sig));
    }

    #[test]
    fn tampered_signature_rejected() {
        let kp = fixture_keypair_512();
        let v = kp.verifier();
        let mut sig = kp.sign(b"m");
        sig.0[10] ^= 0x40;
        assert!(!v.verify(b"m", &sig));
    }

    #[test]
    fn oversized_signature_rejected() {
        let kp = fixture_keypair_512();
        let v = kp.verifier();
        assert!(!v.verify(b"m", &Signature(vec![0xFF; 65])));
        assert!(!v.verify(b"m", &Signature(vec![])));
    }

    #[test]
    fn generated_key_roundtrip() {
        let mut rng = rand::thread_rng();
        // 256-bit modulus: fast enough for debug-mode tests.
        let kp: RsaKeyPair<4> = RsaKeyPair::generate(&mut rng, 7);
        let v = kp.verifier();
        let sig = kp.sign(b"fresh key");
        assert!(v.verify(b"fresh key", &sig));
        assert_eq!(kp.key_version(), 7);
        assert_eq!(v.key_version(), 7);
    }

    #[test]
    fn crt_fixture_sign_verify() {
        for msg in [b"m".as_slice(), b"node digest payload"] {
            let kp = fixture_keypair_crt_512();
            assert!(kp.has_crt());
            let v = kp.verifier();
            assert!(v.verify(msg, &kp.sign(msg)));
            let kp = fixture_keypair_crt_1024();
            assert!(kp.verifier().verify(msg, &kp.sign(msg)));
        }
    }

    #[test]
    fn crt_signature_bit_identical_to_full_width() {
        let kp = fixture_keypair_crt_512();
        let plain = kp.without_crt();
        assert!(!plain.has_crt());
        for msg in [b"a".as_slice(), b"attribute digest", &[0xFF; 100]] {
            assert_eq!(kp.sign(msg).as_bytes(), plain.sign(msg).as_bytes());
        }
        let kp = fixture_keypair_crt_2048();
        let plain = kp.without_crt();
        assert_eq!(kp.sign(b"x").as_bytes(), plain.sign(b"x").as_bytes());
    }

    #[test]
    fn generated_key_uses_crt_and_matches_full_width() {
        let mut rng = rand::thread_rng();
        let kp: RsaKeyPair<4> = RsaKeyPair::generate(&mut rng, 1);
        assert!(kp.has_crt());
        let plain = kp.without_crt();
        assert_eq!(
            kp.sign(b"fresh").as_bytes(),
            plain.sign(b"fresh").as_bytes()
        );
        assert!(kp.verifier().verify(b"fresh", &kp.sign(b"fresh")));
    }

    #[test]
    fn from_primes_rejects_degenerate_inputs() {
        let (p, q) = vbx_mathx::groups::rsa_fixtures::crt_primes_512();
        assert!(RsaKeyPair::from_primes(p, p, 1).is_none()); // p == q
        let even = p.wrapping_add(&vbx_mathx::Uint::ONE);
        assert!(RsaKeyPair::from_primes(even, q, 1).is_none()); // even p
        assert!(RsaKeyPair::from_primes(p, vbx_mathx::Uint::ONE, 1).is_none()); // q = 1
        assert!(RsaKeyPair::from_primes(p, vbx_mathx::Uint::ZERO, 1).is_none());
        // q = 0
    }

    #[test]
    fn signatures_are_deterministic() {
        let kp = fixture_keypair_512();
        assert_eq!(kp.sign(b"x").as_bytes(), kp.sign(b"x").as_bytes());
    }

    #[test]
    fn distinct_messages_distinct_signatures() {
        let kp = fixture_keypair_512();
        assert_ne!(kp.sign(b"x").as_bytes(), kp.sign(b"y").as_bytes());
    }

    #[test]
    fn condensed_rsa_roundtrip() {
        let kp = fixture_keypair_crt_512();
        let v = kp.verifier();
        let msgs: Vec<Vec<u8>> = (0..5u8).map(|i| vec![b'm', i]).collect();
        let sigs: Vec<Signature> = msgs.iter().map(|m| kp.sign(m)).collect();
        let agg = v.aggregate_signatures(&sigs).expect("rsa condenses");
        let mut st = v.begin_aggregate().expect("rsa condenses");
        for m in &msgs {
            st.absorb(m);
        }
        assert!(st.finish(&agg));
    }

    #[test]
    fn condensed_rsa_rejects_tampered_batch() {
        let kp = fixture_keypair_crt_512();
        let v = kp.verifier();
        let msgs: Vec<Vec<u8>> = (0..4u8).map(|i| vec![b'm', i]).collect();
        let sigs: Vec<Signature> = msgs.iter().map(|m| kp.sign(m)).collect();
        let agg = v.aggregate_signatures(&sigs).unwrap();

        // Substituted message.
        let mut st = v.begin_aggregate().unwrap();
        for (i, m) in msgs.iter().enumerate() {
            if i == 2 {
                st.absorb(b"evil");
            } else {
                st.absorb(m);
            }
        }
        assert!(!st.finish(&agg));

        // Dropped message.
        let mut st = v.begin_aggregate().unwrap();
        for m in &msgs[..3] {
            st.absorb(m);
        }
        assert!(!st.finish(&agg));

        // Forged aggregate: flip a byte of the condensed signature.
        let mut bad = agg.clone();
        bad.0[10] ^= 0x40;
        let mut st = v.begin_aggregate().unwrap();
        for m in &msgs {
            st.absorb(m);
        }
        assert!(!st.finish(&bad));

        // Aggregate of a *different* valid batch does not transfer.
        let other_sigs: Vec<Signature> = msgs.iter().map(|m| kp.sign(m)).rev().collect();
        let other = v.aggregate_signatures(&other_sigs[..3]).unwrap();
        let mut st = v.begin_aggregate().unwrap();
        for m in &msgs {
            st.absorb(m);
        }
        assert!(!st.finish(&other));
    }

    /// The byte-wise construction of `EM` the limb-wise `encode` must
    /// reproduce.
    fn encode_bytewise<const L: usize>(msg: &[u8]) -> Uint<L> {
        let em_len = L * 8 - 1;
        let digest = sha256(msg);
        let hash_len = digest.len().min(em_len - 2);
        let mut em = vec![0xFFu8; em_len];
        em[0] = 0x01;
        em[em_len - hash_len - 1] = 0x00;
        em[em_len - hash_len..].copy_from_slice(&digest[..hash_len]);
        Uint::from_be_bytes(&em).unwrap()
    }

    #[test]
    fn encode_matches_bytewise_padding() {
        let mut rng = rand::thread_rng();
        let small: RsaKeyPair<4> = RsaKeyPair::generate(&mut rng, 1);
        for msg in [b"".as_slice(), b"m", &[0xA5; 200]] {
            // 256-bit modulus: the hash is truncated to 29 bytes.
            assert_eq!(small.public.encode(msg), encode_bytewise::<4>(msg));
            assert_eq!(
                fixture_keypair_crt_512().public.encode(msg),
                encode_bytewise::<8>(msg)
            );
            assert_eq!(
                fixture_keypair_crt_1024().public.encode(msg),
                encode_bytewise::<16>(msg)
            );
        }
    }

    /// The running products stay in Montgomery form; they must equal
    /// the plain `mul_mod` chain they replaced, factor for factor.
    #[test]
    fn montgomery_form_products_match_mul_mod_chain() {
        let key = fixture_keypair_crt_512().public_key();
        let mut rng = rand::thread_rng();
        for count in [0usize, 1, 2, 113, 4096] {
            let factors: Vec<Uint<8>> = (0..count)
                .map(|_| loop {
                    let x = Uint::random_below(&mut rng, &key.n);
                    if !x.is_zero() {
                        break x;
                    }
                })
                .collect();
            let chain = factors
                .iter()
                .fold(Uint::ONE, |acc, x| key.mont.mul_mod(&acc, x));
            let sigs: Vec<Signature> = factors.iter().map(|x| Signature(x.to_be_bytes())).collect();
            let agg = key.aggregate_signatures(&sigs).expect("in range");
            assert_eq!(agg.as_bytes(), chain.to_be_bytes(), "{count} signatures");

            let msgs: Vec<[u8; 8]> = (0..count as u64).map(u64::to_le_bytes).collect();
            let mut sweep = RsaAggregate {
                key: key.clone(),
                prod: MontProduct::new(),
            };
            msgs.iter().for_each(|m| sweep.absorb(m));
            let chain = msgs
                .iter()
                .fold(Uint::ONE, |acc, m| key.mont.mul_mod(&acc, &key.encode(m)));
            assert_eq!(sweep.prod.value(&key.mont), chain, "{count} messages");
        }
    }

    /// Coron–Naccache: `EM(m)^e` is an `e`-th power of public material,
    /// so `e` absorbs of an *unsigned* `m` would pass against the
    /// "aggregate" `EM(m)`. The sweep refuses `e` or more absorbs; one
    /// fewer, of signed messages, still verifies.
    #[test]
    fn sweep_of_e_messages_is_refused() {
        let kp = fixture_keypair_crt_512();
        let v = kp.verifier();
        let unsigned = b"never signed by the owner";
        let forged = Signature(kp.public.encode(unsigned).to_be_bytes());
        let mut st = v.begin_aggregate().unwrap();
        for _ in 0..RSA_E {
            st.absorb(unsigned);
        }
        assert!(!st.finish(&forged));
        assert!(v
            .aggregate_signatures(&vec![forged; RSA_E as usize])
            .is_none());

        let sig = kp.sign(b"signed");
        let sigs = vec![sig; RSA_E as usize - 1];
        let agg = v.aggregate_signatures(&sigs).expect("below the bound");
        let mut st = v.begin_aggregate().unwrap();
        for _ in 0..RSA_E - 1 {
            st.absorb(b"signed");
        }
        assert!(st.finish(&agg));
    }

    #[test]
    fn condensed_rsa_rejects_out_of_range_inputs() {
        let kp = fixture_keypair_crt_512();
        let v = kp.verifier();
        let good = kp.sign(b"ok");
        // An all-0xFF "signature" is ≥ n: the condenser refuses it.
        let huge = Signature(vec![0xFF; good.len()]);
        assert!(v.aggregate_signatures(&[good.clone(), huge]).is_none());
        // A zero factor would annihilate the product: refused too.
        let zero = Signature(vec![0x00; good.len()]);
        assert!(v.aggregate_signatures(&[good, zero]).is_none());
    }
}
