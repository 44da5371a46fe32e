//! # vbx-crypto — cryptographic substrate for the VB-tree
//!
//! Everything the paper's authentication mechanism needs, built from
//! scratch on [`vbx_mathx`]:
//!
//! * [`hash`] — MD5 (RFC 1321), SHA-1 (FIPS 180-1) and SHA-256
//!   (FIPS 180-2); the paper cites MD5 and SHA as candidate one-way hash
//!   functions for the attribute digests of formula (1).
//! * [`accum`] — the commutative digest algebra `h(x) = g^x mod p` of
//!   Section 3.2: exponents live in `Z_q` for a safe prime `p = 2q + 1`,
//!   combination is exponent multiplication (`h(d1|d2) = g^(d1·d2)`), and
//!   digests can be combined in any order — the property underpinning the
//!   flat-set verification objects, edge-side projection, and O(path)
//!   inserts.
//! * [`rsa`] — textbook RSA signing/verification (the paper's `s(·)` and
//!   `s^{-1}(·)`), plus key generation via Miller–Rabin.
//! * [`signer`] — object-safe [`Signer`]/[`SigVerifier`] traits so the
//!   upper layers are independent of key size, and a fast [`MockSigner`]
//!   test double for large-scale structural tests.
//! * [`keyreg`] — versioned public keys with validity periods
//!   (Section 3.4's defence against edge servers replaying stale data
//!   signed with an old private key).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod accum;
pub mod hash;
pub mod keyreg;
pub mod rsa;
pub mod signer;

pub use accum::{Acc256, Acc512, Accumulator, SignedDigest};
pub use hash::{md5, sha1, sha256, HashAlgo, Md5, Sha1, Sha256};
pub use keyreg::{KeyRegistry, KeyVersion, ValidityWindow};
pub use rsa::{RsaKeyPair, RsaPublicKey};
pub use signer::{
    AggregateVerify, MockSigner, MockVerifier, SigScreen, SigVerifier, Signature, Signer,
};
