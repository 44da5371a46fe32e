//! Object-safe signing traits.
//!
//! The paper's `s(·)` encrypts a digest with the central DBMS's private
//! key and `s^{-1}(·)` decrypts with the public key (Section 3.2). We
//! model this as conventional sign/verify so the upper layers do not care
//! about key sizes or algorithms: the central server holds a [`Signer`],
//! clients hold a [`SigVerifier`].

use crate::hash::sha256;
use std::fmt;
use std::sync::Arc;

/// A detached signature (opaque bytes; length depends on the scheme).
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Signature(pub Vec<u8>);

impl Signature {
    /// Signature length in bytes (the paper's `|D|` for signed digests).
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when empty (never produced by a real signer).
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Borrow the raw bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }
}

impl fmt::Debug for Signature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let hex: String = self.0.iter().take(8).map(|b| format!("{b:02x}")).collect();
        write!(f, "Signature({hex}…, {} bytes)", self.0.len())
    }
}

/// Produces signatures over byte messages. Held only by the trusted
/// central DBMS.
pub trait Signer: Send + Sync {
    /// Sign a message.
    fn sign(&self, msg: &[u8]) -> Signature;
    /// Length in bytes of signatures this signer produces.
    fn signature_len(&self) -> usize;
    /// Key version identifier (see [`crate::keyreg`]).
    fn key_version(&self) -> u32;
    /// The matching verifier, distributable to clients.
    fn verifier(&self) -> Arc<dyn SigVerifier>;
}

/// Incremental verification of an *aggregate* signature: one compact
/// signature standing in for a whole batch of individually-signed
/// messages (Mykletun-style "condensed" signatures for RSA, a keyed
/// hash chain for the mock scheme).
///
/// Usage: obtain via [`SigVerifier::begin_aggregate`], [`absorb`]
/// every signed message **in the same order the aggregator condensed
/// them**, then [`finish`] against the aggregate signature. The state
/// is O(1) in the number of messages, so a streaming verifier can
/// absorb digests as they arrive off the wire.
///
/// [`absorb`]: AggregateVerify::absorb
/// [`finish`]: AggregateVerify::finish
pub trait AggregateVerify {
    /// Absorb the next signed message of the batch.
    fn absorb(&mut self, msg: &[u8]);
    /// Check the aggregate signature over every absorbed message.
    fn finish(self: Box<Self>, agg: &Signature) -> bool;
}

/// Verifies signatures. Distributed to clients through an authenticated
/// channel (the paper assumes a PKI).
pub trait SigVerifier: Send + Sync {
    /// Check a signature over a message.
    fn verify(&self, msg: &[u8], sig: &Signature) -> bool;
    /// Length in bytes of signatures this verifier accepts.
    fn signature_len(&self) -> usize;
    /// Key version identifier.
    fn key_version(&self) -> u32;

    /// Condense individual signatures into one aggregate signature
    /// (needs only public material). Returns `None` when the scheme does
    /// not support aggregation, when any input signature is malformed
    /// for the scheme, or when the batch is larger than one sweep can
    /// soundly cover.
    ///
    /// The aggregate is order-sensitive: the verifier must absorb the
    /// signed messages in exactly this order.
    fn aggregate_signatures(&self, sigs: &[Signature]) -> Option<Signature> {
        let _ = sigs;
        None
    }

    /// Begin an incremental aggregate verification (client side).
    /// Returns `None` when the scheme does not support aggregation.
    fn begin_aggregate(&self) -> Option<Box<dyn AggregateVerify>> {
        None
    }
}

/// One aggregate sweep covers fewer than this many messages: the RSA
/// public exponent `e`. Screening proves nothing about a message
/// absorbed a multiple of `e` times (`EM^e` is an `e`-th power of public
/// material), and with fewer than `e` absorbs in all no multiplicity can
/// reach one. Aggregators refuse to condense a batch this large and
/// ship its signatures individually instead; the mock scheme mirrors
/// the bound so both signers behave alike at every size.
pub const SWEEP_BOUND: u64 = crate::rsa::RSA_E;

/// Pairs one [`SigScreen`] sweeps at most before it flushes itself —
/// far below [`SWEEP_BOUND`] whatever the caller pushes.
const SCREEN_FLUSH: usize = 4096;

/// Batch screening of `(message, signature)` pairs — the one way the
/// verifiers authenticate signed digests.
///
/// [`push`](Self::push) collects pairs; [`finish`](Self::finish) folds
/// the signatures with [`SigVerifier::aggregate_signatures`], absorbs
/// the messages in the same order and closes the sweep with one check
/// (`∏σ_i^e ≡ ∏EM(m_i) (mod n)` for RSA, Bellare–Garay–Rabin
/// screening). When the verifier cannot aggregate, or the sweep fails,
/// the pairs are verified one by one, so the verdict is "accept iff the
/// sweep passes or every signature verifies" and a failure is localised
/// to the first bad pair, whose caller-chosen tag `T` is returned.
///
/// A passing sweep proves that every pushed *message* was signed by the
/// key holder — not that each pushed signature is individually valid
/// (two signatures may be swapped: the product does not change).
pub struct SigScreen<'v, T> {
    verifier: &'v dyn SigVerifier,
    tags: Vec<T>,
    /// The pending messages back to back; `ends[i]` closes message `i`.
    msgs: Vec<u8>,
    ends: Vec<usize>,
    sigs: Vec<Signature>,
    checks: usize,
}

impl<'v, T> SigScreen<'v, T> {
    /// An empty screen under `verifier`.
    pub fn new(verifier: &'v dyn SigVerifier) -> Self {
        Self {
            verifier,
            tags: Vec::new(),
            msgs: Vec::new(),
            ends: Vec::new(),
            sigs: Vec::new(),
            checks: 0,
        }
    }

    /// Add a pair whose message `write` appends to the buffer it is
    /// handed (so callers need not build each message in a `Vec` of its
    /// own). `Err` carries the tag of the first bad pair of a batch this
    /// push filled and flushed.
    pub fn push_with(
        &mut self,
        tag: T,
        sig: &Signature,
        write: impl FnOnce(&mut Vec<u8>),
    ) -> Result<(), T> {
        write(&mut self.msgs);
        self.ends.push(self.msgs.len());
        self.tags.push(tag);
        self.sigs.push(sig.clone());
        if self.sigs.len() >= SCREEN_FLUSH {
            self.flush()
        } else {
            Ok(())
        }
    }

    /// Add the pair `(msg, sig)`; see [`push_with`](Self::push_with).
    pub fn push(&mut self, tag: T, msg: &[u8], sig: &Signature) -> Result<(), T> {
        self.push_with(tag, sig, |buf| buf.extend_from_slice(msg))
    }

    /// Authenticate every pending pair. Returns the number of signature
    /// checks performed over the screen's lifetime (1 per sweep, 1 per
    /// individually verified pair), or the tag of the first bad pair.
    pub fn finish(mut self) -> Result<usize, T> {
        self.flush()?;
        Ok(self.checks)
    }

    fn flush(&mut self) -> Result<(), T> {
        let Self {
            verifier,
            tags,
            msgs,
            ends,
            sigs,
            checks,
        } = self;
        if sigs.is_empty() {
            return Ok(());
        }
        let starts = std::iter::once(0).chain(ends.iter().copied());
        let mut pairs = starts
            .zip(ends.iter())
            .map(|(a, &b)| &msgs[a..b])
            .zip(&*sigs);
        let swept = match (
            verifier.begin_aggregate(),
            verifier.aggregate_signatures(sigs),
        ) {
            (Some(mut sweep), Some(agg)) => {
                pairs.clone().for_each(|(msg, _)| sweep.absorb(msg));
                *checks += 1;
                sweep.finish(&agg)
            }
            _ => false,
        };
        if !swept {
            // Localise: the first pair that does not verify on its own.
            *checks += sigs.len();
            if let Some(i) = pairs.position(|(msg, sig)| !verifier.verify(msg, sig)) {
                return Err(tags.swap_remove(i));
            }
        }
        tags.clear();
        msgs.clear();
        ends.clear();
        sigs.clear();
        Ok(())
    }
}

/// A fast symmetric test double: `sign = SHA-256(secret ‖ len ‖ msg)`.
///
/// **Not a public-key scheme** — the verifier shares the secret, so a
/// "verifier" could forge. It exists so that large structural tests and
/// benchmarks of the tree machinery are not dominated by RSA time. All
/// security-facing tests use [`crate::rsa`].
#[derive(Clone)]
pub struct MockSigner {
    secret: [u8; 32],
    version: u32,
}

impl MockSigner {
    /// Create from an arbitrary seed.
    pub fn new(seed: u64) -> Self {
        Self::with_version(seed, 1)
    }

    /// Create with an explicit key version.
    pub fn with_version(seed: u64, version: u32) -> Self {
        let mut secret = [0u8; 32];
        secret[..8].copy_from_slice(&seed.to_le_bytes());
        secret[8..12].copy_from_slice(&version.to_le_bytes());
        Self { secret, version }
    }

    fn mac(&self, msg: &[u8]) -> Signature {
        let mut h = crate::hash::Sha256::new();
        h.update(&self.secret);
        h.update(&(msg.len() as u64).to_le_bytes());
        h.update(msg);
        Signature(h.finalize().to_vec())
    }
}

impl Signer for MockSigner {
    fn sign(&self, msg: &[u8]) -> Signature {
        self.mac(msg)
    }

    fn signature_len(&self) -> usize {
        32
    }

    fn key_version(&self) -> u32 {
        self.version
    }

    fn verifier(&self) -> Arc<dyn SigVerifier> {
        Arc::new(MockVerifier {
            inner: self.clone(),
        })
    }
}

/// Verifier half of [`MockSigner`].
#[derive(Clone)]
pub struct MockVerifier {
    inner: MockSigner,
}

/// Domain-separation prefix for the mock aggregate hash chain.
const MOCK_AGG_DOMAIN: &[u8] = b"vbx-agg-mock";

/// Fold one signature into the mock aggregate chain:
/// `h' = SHA-256(h ‖ sig)`. Binds count and order.
fn mock_chain_step(chain: &[u8; 32], sig: &Signature) -> [u8; 32] {
    let mut h = crate::hash::Sha256::new();
    h.update(chain);
    h.update(sig.as_bytes());
    h.finalize()
}

fn mock_chain_init() -> [u8; 32] {
    sha256(MOCK_AGG_DOMAIN)
}

/// Incremental mock aggregate: recomputes each MAC (the mock verifier
/// shares the secret) and folds it into the same chain the aggregator
/// built from the raw signature bytes.
struct MockAggregate {
    inner: MockSigner,
    chain: [u8; 32],
}

impl AggregateVerify for MockAggregate {
    fn absorb(&mut self, msg: &[u8]) {
        let sig = self.inner.mac(msg);
        self.chain = mock_chain_step(&self.chain, &sig);
    }

    fn finish(self: Box<Self>, agg: &Signature) -> bool {
        // Constant-time-ish comparison via hashing both sides.
        sha256(&self.chain) == sha256(agg.as_bytes())
    }
}

impl SigVerifier for MockVerifier {
    fn verify(&self, msg: &[u8], sig: &Signature) -> bool {
        // Constant-time-ish comparison via hashing both sides.
        sha256(self.inner.mac(msg).as_bytes()) == sha256(sig.as_bytes())
    }

    fn signature_len(&self) -> usize {
        32
    }

    fn key_version(&self) -> u32 {
        self.inner.version
    }

    fn aggregate_signatures(&self, sigs: &[Signature]) -> Option<Signature> {
        if sigs.len() as u64 >= SWEEP_BOUND {
            return None;
        }
        let mut chain = mock_chain_init();
        for sig in sigs {
            if sig.len() != 32 {
                return None;
            }
            chain = mock_chain_step(&chain, sig);
        }
        Some(Signature(chain.to_vec()))
    }

    fn begin_aggregate(&self) -> Option<Box<dyn AggregateVerify>> {
        Some(Box::new(MockAggregate {
            inner: self.inner.clone(),
            chain: mock_chain_init(),
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mock_roundtrip() {
        let s = MockSigner::new(42);
        let v = s.verifier();
        let sig = s.sign(b"hello");
        assert!(v.verify(b"hello", &sig));
        assert!(!v.verify(b"hellO", &sig));
        assert!(!v.verify(b"hello", &Signature(vec![0; 32])));
    }

    #[test]
    fn mock_seed_separation() {
        let a = MockSigner::new(1);
        let b = MockSigner::new(2);
        let sig = a.sign(b"msg");
        assert!(!b.verifier().verify(b"msg", &sig));
    }

    #[test]
    fn version_separates_keys() {
        let a = MockSigner::with_version(1, 1);
        let b = MockSigner::with_version(1, 2);
        assert_ne!(a.sign(b"m").as_bytes(), b.sign(b"m").as_bytes());
        assert_eq!(b.key_version(), 2);
    }

    #[test]
    fn length_prefix_prevents_extension_confusion() {
        let s = MockSigner::new(9);
        assert_ne!(s.sign(b"ab").as_bytes(), s.sign(b"a").as_bytes());
    }

    #[test]
    fn mock_aggregate_roundtrip() {
        let s = MockSigner::new(7);
        let v = s.verifier();
        let msgs: Vec<&[u8]> = vec![b"alpha", b"beta", b"gamma"];
        let sigs: Vec<Signature> = msgs.iter().map(|m| s.sign(m)).collect();
        let agg = v.aggregate_signatures(&sigs).expect("mock aggregates");
        let mut st = v.begin_aggregate().expect("mock aggregates");
        for m in &msgs {
            st.absorb(m);
        }
        assert!(st.finish(&agg));
    }

    #[test]
    fn mock_aggregate_rejects_reorder_drop_and_forgery() {
        let s = MockSigner::new(7);
        let v = s.verifier();
        let msgs: Vec<&[u8]> = vec![b"alpha", b"beta", b"gamma"];
        let sigs: Vec<Signature> = msgs.iter().map(|m| s.sign(m)).collect();
        let agg = v.aggregate_signatures(&sigs).unwrap();

        // Reordered absorbs fail.
        let mut st = v.begin_aggregate().unwrap();
        for m in [b"beta".as_slice(), b"alpha", b"gamma"] {
            st.absorb(m);
        }
        assert!(!st.finish(&agg));

        // A dropped message fails.
        let mut st = v.begin_aggregate().unwrap();
        st.absorb(b"alpha");
        st.absorb(b"beta");
        assert!(!st.finish(&agg));

        // A substituted message fails.
        let mut st = v.begin_aggregate().unwrap();
        for m in [b"alpha".as_slice(), b"beta", b"gamm4"] {
            st.absorb(m);
        }
        assert!(!st.finish(&agg));

        // A flipped aggregate fails.
        let mut bad = agg.clone();
        bad.0[0] ^= 1;
        let mut st = v.begin_aggregate().unwrap();
        for m in &msgs {
            st.absorb(m);
        }
        assert!(!st.finish(&bad));
    }

    /// A verifier that cannot aggregate: the screen must verify pair by
    /// pair.
    struct NoAggregate(Arc<dyn SigVerifier>);

    impl SigVerifier for NoAggregate {
        fn verify(&self, msg: &[u8], sig: &Signature) -> bool {
            self.0.verify(msg, sig)
        }
        fn signature_len(&self) -> usize {
            self.0.signature_len()
        }
        fn key_version(&self) -> u32 {
            self.0.key_version()
        }
    }

    #[test]
    fn screen_sweeps_once_and_localises_failures() {
        let s = MockSigner::new(5);
        let v = s.verifier();
        let msgs: Vec<Vec<u8>> = (0..10u8).map(|i| vec![b'm', i]).collect();
        let sigs: Vec<Signature> = msgs.iter().map(|m| s.sign(m)).collect();

        let mut screen = SigScreen::new(v.as_ref());
        for (i, (m, sig)) in msgs.iter().zip(&sigs).enumerate() {
            screen.push(i, m, sig).unwrap();
        }
        assert_eq!(screen.finish(), Ok(1), "one sweep");
        assert_eq!(SigScreen::<()>::new(v.as_ref()).finish(), Ok(0));

        // A bad pair fails the sweep; the fallback names it.
        let mut screen = SigScreen::new(v.as_ref());
        for (i, (m, sig)) in msgs.iter().zip(&sigs).enumerate() {
            let sig = if i == 6 { &sigs[0] } else { sig };
            screen.push(i, m, sig).unwrap();
        }
        assert_eq!(screen.finish(), Err(6));

        // No aggregation: one check per pair, same verdicts.
        let plain = NoAggregate(v.clone());
        let mut screen = SigScreen::new(&plain);
        for (i, (m, sig)) in msgs.iter().zip(&sigs).enumerate() {
            screen.push(i, m, sig).unwrap();
        }
        assert_eq!(screen.finish(), Ok(10));
    }

    #[test]
    fn screen_flushes_itself_and_reports_a_flushed_failure() {
        let s = MockSigner::new(5);
        let v = s.verifier();
        let sig = s.sign(b"m");
        let mut screen = SigScreen::new(v.as_ref());
        for i in 0..2 * SCREEN_FLUSH + 3 {
            screen.push(i, b"m", &sig).unwrap();
            assert!(screen.sigs.len() < SCREEN_FLUSH);
        }
        assert_eq!(screen.finish(), Ok(3), "two flushes and the tail");

        let mut screen = SigScreen::new(v.as_ref());
        let verdicts: Vec<Result<(), usize>> = (0..SCREEN_FLUSH)
            .map(|i| screen.push(i, if i == 17 { b"x" } else { b"m" }, &sig))
            .collect();
        assert_eq!(verdicts[SCREEN_FLUSH - 1], Err(17));
        assert!(verdicts[..SCREEN_FLUSH - 1].iter().all(Result::is_ok));
    }

    #[test]
    fn empty_aggregate_is_consistent() {
        let v = MockSigner::new(3).verifier();
        let agg = v.aggregate_signatures(&[]).unwrap();
        let st = v.begin_aggregate().unwrap();
        assert!(st.finish(&agg));
    }
}
