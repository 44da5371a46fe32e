//! Helpers shared by the verification test suites.

use std::sync::Arc;
use vbx_crypto::signer::{SigVerifier, Signature};

/// A verifier that cannot aggregate (`begin_aggregate` is `None`), so
/// the signature screen verifies pair by pair — what every flat
/// verification did before screening, and the reference the screened
/// verdicts are compared against.
pub struct PerSignature(pub Arc<dyn SigVerifier>);

impl SigVerifier for PerSignature {
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
