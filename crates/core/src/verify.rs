//! Client-side verification — Lemmas 1 and 2 of the paper.
//!
//! The client recomputes the attribute digests of the values it received
//! (formula (1)), multiplies in every signed digest from `D_P` (filtered
//! attributes) and `D_S` (filtered tuples / non-overlapping branches) in
//! arbitrary order, lifts the total exponent through `h(x) = g^x mod p`,
//! and compares with the signed digest of the enveloping subtree's top
//! node. Any tampering with values, any spurious tuple, or any dropped
//! digest breaks the equation.

use crate::meter::CostMeter;
use crate::vo::{CompactResponse, QueryResponse, RangeQuery, ResultRow, VoOp};
use vbx_crypto::accum::{extend_signed_payload, Accumulator, DigestRole, ExpProduct, SignedDigest};
use vbx_crypto::signer::SWEEP_BOUND;
use vbx_crypto::{AggregateVerify, SigScreen, SigVerifier, Signature, Signer};
use vbx_mathx::Uint;
use vbx_storage::{AttributeInputs, Schema};

/// Domain-separation tag for freshness-stamp signatures, so a stamp can
/// never be confused with a digest signature (or vice versa).
const STAMP_DOMAIN: &[u8; 8] = b"VBXFRSH1";

/// An owner-signed attestation of the log position: "at logical clock
/// `clock`, the latest committed delta sequence number was `seq`".
///
/// This is the signed part of the root bundle an edge republishes with
/// its responses. Edges cannot forge a *newer* stamp (they hold no
/// signing key), so a client that knows the owner's current position can
/// bound how stale an **honest-but-lagging** replica is — the lazy-trust
/// gap WedgeChain formalises for edge-cloud stores. The owner refreshes
/// the stamp on every commit and on explicit heartbeats, so `clock` also
/// proves recent contact when no updates flow.
///
/// **Threat-model boundary:** the stamp attests the owner's position,
/// not the snapshot the edge actually served from. A *malicious* edge
/// that keeps receiving stamps can pair its newest stamp with an older
/// (still authentically signed) snapshot; integrity is still guaranteed
/// by the VO, and bounded staleness against such an edge falls back to
/// the paper's key-rotation validity windows (`KeyFreshnessPolicy`).
/// Binding the served root digest into the stamp is a roadmap item.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FreshnessStamp {
    /// Number of committed deltas the stamp attests to (the owner's
    /// next expected sequence number).
    pub seq: u64,
    /// Owner's logical clock at signing time.
    pub clock: u64,
    /// Key version the stamp was signed under (signed into the
    /// message, so it cannot be rewritten). After a key rotation an
    /// edge still serving old-key VOs has no stamp verifiable under
    /// that key — reported as `Stale`, not as tampering.
    pub key_version: u32,
    /// Signature over the domain-tagged `(seq, clock, key_version)`
    /// message.
    pub sig: Signature,
}

impl FreshnessStamp {
    /// The exact bytes the owner signs.
    pub fn message(seq: u64, clock: u64, key_version: u32) -> [u8; 28] {
        let mut msg = [0u8; 28];
        msg[..8].copy_from_slice(STAMP_DOMAIN);
        msg[8..16].copy_from_slice(&seq.to_be_bytes());
        msg[16..24].copy_from_slice(&clock.to_be_bytes());
        msg[24..28].copy_from_slice(&key_version.to_be_bytes());
        msg
    }

    /// Trusted: sign a stamp for the current log position under the
    /// signer's current key version.
    pub fn sign(signer: &dyn Signer, seq: u64, clock: u64) -> Self {
        let key_version = signer.key_version();
        Self {
            seq,
            clock,
            key_version,
            sig: signer.sign(&Self::message(seq, clock, key_version)),
        }
    }

    /// Check the stamp's signature.
    pub fn verify(&self, verifier: &dyn SigVerifier) -> bool {
        verifier.verify(
            &Self::message(self.seq, self.clock, self.key_version),
            &self.sig,
        )
    }
}

/// The freshness metadata an edge attaches to every response: its own
/// applied-delta position plus the newest owner stamp it holds.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ResponseFreshness {
    /// Delta sequence number the serving edge had applied through when
    /// it produced the response. Advisory (the edge asserts it); the
    /// *signed* bound is the stamp.
    pub applied_seq: u64,
    /// Newest owner-signed `(seq, clock)` attestation the edge holds,
    /// if any.
    pub stamp: Option<FreshnessStamp>,
}

/// How much staleness a client tolerates from an edge replica, measured
/// against the owner position the client learned out of band (from the
/// trusted coordinator). Both bounds are inclusive; `u64::MAX` disables
/// a bound.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FreshnessPolicy {
    /// Maximum accepted `owner_seq - stamp.seq` (deltas behind).
    pub max_lag: u64,
    /// Maximum accepted `owner_clock - stamp.clock` (clock ticks since
    /// the edge last proved contact with the owner).
    pub max_age: u64,
}

impl FreshnessPolicy {
    /// Reject anything but a fully caught-up, just-heard-from edge.
    pub fn strict() -> Self {
        Self {
            max_lag: 0,
            max_age: 0,
        }
    }

    /// Bound only the delta lag.
    pub fn max_lag(lag: u64) -> Self {
        Self {
            max_lag: lag,
            max_age: u64::MAX,
        }
    }

    /// Bound only the stamp age.
    pub fn max_age(age: u64) -> Self {
        Self {
            max_lag: u64::MAX,
            max_age: age,
        }
    }
}

impl Default for FreshnessPolicy {
    /// No staleness bound (the pre-cluster behaviour).
    fn default() -> Self {
        Self {
            max_lag: u64::MAX,
            max_age: u64::MAX,
        }
    }
}

/// Why a response failed verification.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum VerifyError {
    /// Result rows are not strictly sorted by key.
    RowsUnsorted,
    /// A result key lies outside the queried range.
    RowOutOfRange {
        /// The offending key.
        key: u64,
    },
    /// A row does not have one value per returned column.
    WrongArity {
        /// The offending key.
        key: u64,
    },
    /// `D_P` does not contain exactly one digest per filtered attribute.
    ProjectionCountMismatch {
        /// Digests expected (`rows × filtered columns`).
        expected: usize,
        /// Digests present.
        actual: usize,
    },
    /// A signature in the VO failed to verify.
    BadSignature {
        /// Which part of the VO was bad ("top", "D_S", "D_P").
        part: &'static str,
    },
    /// A digest appears under the wrong role.
    WrongRole {
        /// Which part of the VO was bad.
        part: &'static str,
    },
    /// The reconstructed digest does not match the signed top digest —
    /// the result was tampered with.
    DigestMismatch,
    /// The projection in the query references an unknown column.
    BadProjection,
    /// A compact op stream is structurally invalid: stack
    /// underflow/overflow, unbalanced frames, a dictionary reference
    /// out of range, an op/row count mismatch, or an out-of-range
    /// digest exponent.
    MalformedVo {
        /// What was malformed.
        reason: &'static str,
    },
    /// The response is authentic but violates the client's
    /// [`FreshnessPolicy`] — an honest-but-stale edge, distinct from
    /// tampering. `None` fields mean the response carried no owner
    /// stamp at all.
    Stale {
        /// Signed deltas the edge's stamp lags behind the owner.
        lag: Option<u64>,
        /// Logical-clock ticks since the edge's stamp was signed.
        age: Option<u64>,
    },
}

impl core::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            VerifyError::RowsUnsorted => write!(f, "result rows not sorted by key"),
            VerifyError::RowOutOfRange { key } => write!(f, "result key {key} outside range"),
            VerifyError::WrongArity { key } => write!(f, "row {key} has wrong arity"),
            VerifyError::ProjectionCountMismatch { expected, actual } => {
                write!(f, "D_P has {actual} digests, expected {expected}")
            }
            VerifyError::BadSignature { part } => write!(f, "bad signature in {part}"),
            VerifyError::WrongRole { part } => write!(f, "wrong digest role in {part}"),
            VerifyError::DigestMismatch => write!(f, "digest mismatch: result tampered"),
            VerifyError::BadProjection => write!(f, "projection references unknown column"),
            VerifyError::MalformedVo { reason } => write!(f, "malformed compact VO: {reason}"),
            VerifyError::Stale {
                lag: None,
                age: None,
            } => write!(f, "stale: response carries no owner freshness stamp"),
            VerifyError::Stale { lag, age } => write!(
                f,
                "stale replica: {} deltas behind, stamp {} ticks old",
                lag.unwrap_or(0),
                age.unwrap_or(0)
            ),
        }
    }
}

impl std::error::Error for VerifyError {}

/// Successful verification report.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VerifyReport {
    /// Rows verified.
    pub rows: usize,
    /// Signature checks actually run (`Cost_s` events — the dominant
    /// client cost in the paper's model, which pays one per digest). The
    /// signature screen makes this 1 per response, flat or compact (plus
    /// 1 when a freshness stamp is enforced); it grows to one per digest
    /// only on the per-signature fallback.
    pub signatures_checked: usize,
    /// Peak digest-frame stack depth of the compact stack-machine
    /// verifier — bounded by the enveloping subtree's height, the
    /// streaming verifier's O(depth) memory guarantee. 0 for the legacy
    /// flat-multiset path (it keeps no stack).
    pub peak_stack_depth: usize,
    /// Primitive-operation counts.
    pub meter: CostMeter,
}

/// The freshness check a [`ClientVerifier`] optionally enforces: the
/// policy plus the owner position `(seq, clock)` the client learned
/// from the trusted side.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct FreshnessCheck {
    policy: FreshnessPolicy,
    owner_seq: u64,
    owner_clock: u64,
}

/// Enforce a [`FreshnessPolicy`] against a response's freshness
/// metadata and the owner position `(owner_seq, owner_clock)` the
/// client learned out of band. Shared by [`ClientVerifier`] (the
/// VB-tree path) and the generic scheme pipeline
/// (`SchemeClient::verify_range_fresh` in `vbx-edge`), so every
/// `AuthScheme` whose responses carry a [`ResponseFreshness`] gets the
/// same staleness semantics.
///
/// Call this **only after** the response proved authentic, so staleness
/// is never conflated with tampering. `freshness: None` (a scheme whose
/// wire format carries no freshness metadata) reads as a missing stamp.
pub fn check_freshness(
    freshness: Option<&ResponseFreshness>,
    policy: &FreshnessPolicy,
    owner_seq: u64,
    owner_clock: u64,
    verifier: &dyn SigVerifier,
    meter: &mut CostMeter,
) -> Result<(), VerifyError> {
    let Some(stamp) = freshness.and_then(|f| f.stamp.as_ref()) else {
        return Err(VerifyError::Stale {
            lag: None,
            age: None,
        });
    };
    // A stamp from a different key generation (the edge kept serving
    // old-key data across a rotation, or vice versa) cannot prove
    // freshness for this response — that is staleness, not forgery.
    if stamp.key_version != verifier.key_version() {
        return Err(VerifyError::Stale {
            lag: None,
            age: None,
        });
    }
    meter.verify_ops += 1;
    if !stamp.verify(verifier) {
        return Err(VerifyError::BadSignature { part: "freshness" });
    }
    let lag = owner_seq.saturating_sub(stamp.seq);
    let age = owner_clock.saturating_sub(stamp.clock);
    if lag > policy.max_lag || age > policy.max_age {
        return Err(VerifyError::Stale {
            lag: Some(lag),
            age: Some(age),
        });
    }
    Ok(())
}

/// The client-side verifier: the public knowledge a client needs —
/// digest algebra parameters and the schema (names feed formula (1)).
pub struct ClientVerifier<'a, const L: usize> {
    /// Digest algebra (public group parameters).
    pub acc: &'a Accumulator<L>,
    /// Schema of the queried table.
    pub schema: &'a Schema,
    /// Optional staleness enforcement (see [`Self::with_freshness`]).
    freshness: Option<FreshnessCheck>,
}

impl<'a, const L: usize> ClientVerifier<'a, L> {
    /// Create a verifier context (no staleness bound).
    pub fn new(acc: &'a Accumulator<L>, schema: &'a Schema) -> Self {
        Self {
            acc,
            schema,
            freshness: None,
        }
    }

    /// Enforce `policy` against the owner position `(owner_seq,
    /// owner_clock)` the client trusts (obtained out of band from the
    /// coordinator). With this set, [`verify`](Self::verify) demands an
    /// owner-signed [`FreshnessStamp`] in the response and returns
    /// [`VerifyError::Stale`] when the replica lags beyond the policy —
    /// distinct from any tampering error.
    pub fn with_freshness(
        mut self,
        policy: FreshnessPolicy,
        owner_seq: u64,
        owner_clock: u64,
    ) -> Self {
        self.freshness = Some(FreshnessCheck {
            policy,
            owner_seq,
            owner_clock,
        });
        self
    }

    /// Verify a response against the query the client itself issued.
    ///
    /// `verifier` must be the public key obtained from the key registry
    /// for `resp.vo.key_version` — the caller decides whether that
    /// version is *currently* acceptable (see `vbx_crypto::keyreg`).
    pub fn verify(
        &self,
        verifier: &dyn SigVerifier,
        query: &RangeQuery,
        resp: &QueryResponse<L>,
    ) -> Result<VerifyReport, VerifyError> {
        let mut meter = CostMeter::new();
        let num_cols = self.schema.num_columns();
        let returned = query.returned_columns(num_cols);
        if returned.iter().any(|&c| c >= num_cols) {
            return Err(VerifyError::BadProjection);
        }

        // --- structural checks on the rows ---
        let mut prev: Option<u64> = None;
        for row in &resp.rows {
            if row.key < query.lo || row.key > query.hi {
                return Err(VerifyError::RowOutOfRange { key: row.key });
            }
            if let Some(p) = prev {
                if row.key <= p {
                    return Err(VerifyError::RowsUnsorted);
                }
            }
            prev = Some(row.key);
            if row.values.len() != returned.len() {
                return Err(VerifyError::WrongArity { key: row.key });
            }
        }

        let filtered_cols = num_cols - returned.len();
        let expected_dp = resp.rows.len() * filtered_cols;
        if resp.vo.d_p.len() != expected_dp {
            return Err(VerifyError::ProjectionCountMismatch {
                expected: expected_dp,
                actual: resp.vo.d_p.len(),
            });
        }

        // --- recompute attribute digests from returned values ---
        let mut total = ExpProduct::new();
        let mut inputs = self.schema.attribute_inputs(returned.iter().copied());
        for row in &resp.rows {
            for (slot, value) in row.values.iter().enumerate() {
                let e = self.acc.exp_from_bytes(inputs.input(slot, row.key, value));
                meter.hash_ops += 1;
                total.fold(self.acc, &e);
                meter.combine_ops += 1;
            }
        }

        // One signature screen over D_P ‖ D_S ‖ top: every shipped digest
        // message must be owner-signed (see `SigScreen`).
        let mut screen = SigScreen::new(verifier);
        let bad_sig = |part| VerifyError::BadSignature { part };

        // --- D_P: filtered attributes ---
        for d in &resp.vo.d_p {
            if d.role != DigestRole::Attribute {
                return Err(VerifyError::WrongRole { part: "D_P" });
            }
            self.acc
                .screen_digest(&mut screen, "D_P", d)
                .map_err(bad_sig)?;
            total.fold(self.acc, &d.exp);
            meter.combine_ops += 1;
        }

        // --- D_S: filtered tuples and non-overlapping branches ---
        for d in &resp.vo.d_s {
            if d.role != DigestRole::Tuple && d.role != DigestRole::Node {
                return Err(VerifyError::WrongRole { part: "D_S" });
            }
            self.acc
                .screen_digest(&mut screen, "D_S", d)
                .map_err(bad_sig)?;
            total.fold(self.acc, &d.exp);
            meter.combine_ops += 1;
        }

        // --- the signed top digest ---
        if resp.vo.top.role != DigestRole::Node {
            return Err(VerifyError::WrongRole { part: "top" });
        }
        self.acc
            .screen_digest(&mut screen, "top", &resp.vo.top)
            .map_err(bad_sig)?;
        meter.verify_ops += screen.finish().map_err(bad_sig)? as u64;

        // --- Lemma 1/2: compare in the value domain, h(x) = g^x mod p ---
        let lifted = self.acc.lift(&total.value(self.acc));
        let expected = self.acc.lift(&resp.vo.top.exp);
        meter.lift_ops += 2;
        if lifted != expected {
            return Err(VerifyError::DigestMismatch);
        }

        // --- freshness: only after the response proved authentic, so
        // staleness is never conflated with tampering ---
        if let Some(check) = &self.freshness {
            check_freshness(
                Some(&resp.freshness),
                &check.policy,
                check.owner_seq,
                check.owner_clock,
                verifier,
                &mut meter,
            )?;
        }

        Ok(VerifyReport {
            rows: resp.rows.len(),
            signatures_checked: meter.verify_ops as usize,
            peak_stack_depth: 0,
            meter,
        })
    }

    // -----------------------------------------------------------------
    // Compact stack-machine verification
    // -----------------------------------------------------------------

    /// Verify a compact (op-stream) response against the batch of
    /// queries the client issued — one query per part, in order.
    ///
    /// Runs the stack machine over each part's op stream: `Begin`/`End`
    /// maintain O(depth) digest frames, every shipped digest is either
    /// individually signature-checked or absorbed into the single
    /// aggregate sweep, and each part's reconstructed product must
    /// lift-match its signed top digest.
    pub fn verify_compact(
        &self,
        verifier: &dyn SigVerifier,
        queries: &[RangeQuery],
        resp: &CompactResponse<L>,
    ) -> Result<VerifyReport, VerifyError> {
        let mut meter = CostMeter::new();
        if resp.parts.len() != queries.len() {
            return Err(VerifyError::MalformedVo {
                reason: "part count does not match query count",
            });
        }
        let mut sweep = AggSweep::begin(verifier, resp.agg_sig.as_ref())?;
        for d in &resp.dict {
            check_vo_digest(self.acc, d, "dict", &mut sweep, &mut meter)?;
        }
        let mut peak = 0usize;
        let mut total_rows = 0usize;
        for (part, query) in resp.parts.iter().zip(queries) {
            let mut machine = PartMachine::start(self, query, &part.top, &mut sweep, &mut meter)?;
            let mut next_row = 0usize;
            for op in &part.ops {
                let ev = match op {
                    VoOp::Begin => OpEvent::Begin,
                    VoOp::End => OpEvent::End,
                    VoOp::Push(d) => OpEvent::Push(d),
                    VoOp::Ref(i) => OpEvent::Ref(*i),
                    VoOp::Row => {
                        let Some(row) = part.rows.get(next_row) else {
                            return Err(VerifyError::MalformedVo {
                                reason: "more Row ops than rows",
                            });
                        };
                        next_row += 1;
                        OpEvent::Row(row)
                    }
                };
                machine.step(ev, &resp.dict, &mut sweep, &mut meter)?;
            }
            if next_row != part.rows.len() {
                return Err(VerifyError::MalformedVo {
                    reason: "fewer Row ops than rows",
                });
            }
            peak = peak.max(machine.close(&part.top, &mut meter)?);
            total_rows += part.rows.len();
        }
        sweep.finish(&mut meter)?;

        if let Some(check) = &self.freshness {
            check_freshness(
                Some(&resp.freshness),
                &check.policy,
                check.owner_seq,
                check.owner_clock,
                verifier,
                &mut meter,
            )?;
        }

        Ok(VerifyReport {
            rows: total_rows,
            signatures_checked: meter.verify_ops as usize,
            peak_stack_depth: peak,
            meter,
        })
    }

    /// Streaming verification of an encoded `VBX4` buffer: consumes the
    /// op stream directly off the wire with O(depth) digest frames and
    /// only the dictionary buffered — the whole VO is never
    /// materialised. Each verified row is handed to `on_row` with its
    /// part index as it is decoded.
    pub fn verify_compact_stream(
        &self,
        verifier: &dyn SigVerifier,
        queries: &[RangeQuery],
        bytes: &[u8],
        on_row: &mut dyn FnMut(usize, ResultRow),
    ) -> Result<VerifyReport, VerifyError> {
        let malformed = |reason: &'static str| VerifyError::MalformedVo { reason };
        let mut meter = CostMeter::new();
        let mut stream = crate::wire::CompactStream::<L>::open(bytes, self.acc)
            .map_err(|_| malformed("undecodable VBX4 buffer"))?;
        if stream.part_count() as usize != queries.len() {
            return Err(malformed("part count does not match query count"));
        }
        let mut sweep = AggSweep::begin(verifier, stream.agg_sig())?;
        for d in stream.dict() {
            check_vo_digest(self.acc, d, "dict", &mut sweep, &mut meter)?;
        }
        // The dictionary is the machine's only buffered digests; clone
        // it out so the stream can keep advancing.
        let dict: Vec<_> = stream.dict().to_vec();
        let mut peak = 0usize;
        let mut total_rows = 0usize;
        for (pi, query) in queries.iter().enumerate() {
            let part = stream
                .begin_part()
                .map_err(|_| malformed("undecodable part header"))?;
            let mut machine = PartMachine::start(self, query, &part.top, &mut sweep, &mut meter)?;
            let mut rows_seen = 0u32;
            for _ in 0..part.op_count {
                let op = stream
                    .next_op()
                    .map_err(|_| malformed("undecodable op stream"))?;
                match op {
                    crate::wire::StreamOp::Begin => {
                        machine.step(OpEvent::Begin, &dict, &mut sweep, &mut meter)?
                    }
                    crate::wire::StreamOp::End => {
                        machine.step(OpEvent::End, &dict, &mut sweep, &mut meter)?
                    }
                    crate::wire::StreamOp::Push(d) => {
                        machine.step(OpEvent::Push(&d), &dict, &mut sweep, &mut meter)?
                    }
                    crate::wire::StreamOp::Ref(i) => {
                        machine.step(OpEvent::Ref(i), &dict, &mut sweep, &mut meter)?
                    }
                    crate::wire::StreamOp::Row(row) => {
                        rows_seen += 1;
                        machine.step(OpEvent::Row(&row), &dict, &mut sweep, &mut meter)?;
                        on_row(pi, row);
                    }
                }
            }
            if rows_seen != part.row_count {
                return Err(malformed("row count does not match Row ops"));
            }
            peak = peak.max(machine.close(&part.top, &mut meter)?);
            total_rows += rows_seen as usize;
        }
        sweep.finish(&mut meter)?;
        let freshness = stream
            .finish()
            .map_err(|_| malformed("undecodable freshness tail"))?;

        if let Some(check) = &self.freshness {
            check_freshness(
                Some(&freshness),
                &check.policy,
                check.owner_seq,
                check.owner_clock,
                verifier,
                &mut meter,
            )?;
        }

        Ok(VerifyReport {
            rows: total_rows,
            signatures_checked: meter.verify_ops as usize,
            peak_stack_depth: peak,
            meter,
        })
    }
}

/// Hard cap on the op-stream frame stack: far above any realistic tree
/// height, so a hostile `Begin`-flood errors out instead of growing
/// memory.
pub const MAX_VO_STACK: usize = 64;

/// One event of the compact stack machine, borrowed from either the
/// materialised structs or the wire stream.
enum OpEvent<'x, const L: usize> {
    Begin,
    End,
    Push(&'x SignedDigest<L>),
    Row(&'x ResultRow),
    Ref(u32),
}

/// Signature authentication of a compact response: the sweep over its
/// bare digests, present exactly when the response carries an aggregate
/// signature — absorbing a bare digest without one (or without a
/// verifier that can aggregate) is a verification failure, never a
/// silent skip — and the screen over its individually signed digests.
struct AggSweep<'v> {
    state: Option<Box<dyn AggregateVerify>>,
    agg: Option<Signature>,
    /// Bare digests absorbed so far.
    absorbed: u64,
    /// The signed payload being absorbed, rebuilt in place per digest.
    payload: Vec<u8>,
    screen: SigScreen<'v, &'static str>,
}

impl<'v> AggSweep<'v> {
    fn begin(verifier: &'v dyn SigVerifier, agg: Option<&Signature>) -> Result<Self, VerifyError> {
        let state = match agg {
            Some(_) => Some(
                verifier
                    .begin_aggregate()
                    .ok_or(VerifyError::BadSignature { part: "aggregate" })?,
            ),
            None => None,
        };
        Ok(Self {
            state,
            agg: agg.cloned(),
            absorbed: 0,
            payload: Vec::new(),
            screen: SigScreen::new(verifier),
        })
    }

    /// Absorb the signed payload of a bare digest.
    fn absorb<const L: usize>(&mut self, d: &SignedDigest<L>) -> Result<(), VerifyError> {
        let Some(st) = &mut self.state else {
            // A bare digest in a response with no aggregate signature
            // has no authentication at all.
            return Err(VerifyError::BadSignature { part: "aggregate" });
        };
        // The sweep would reject at `finish` anyway; stop before hashing
        // the rest of a hostile stream.
        self.absorbed += 1;
        if self.absorbed >= SWEEP_BOUND {
            return Err(VerifyError::MalformedVo {
                reason: "too many digests for one signature sweep",
            });
        }
        self.payload.clear();
        extend_signed_payload(&mut self.payload, d.role, &d.exp);
        st.absorb(&self.payload);
        Ok(())
    }

    fn finish(self, meter: &mut CostMeter) -> Result<(), VerifyError> {
        let checks = self
            .screen
            .finish()
            .map_err(|part| VerifyError::BadSignature { part })?;
        meter.verify_ops += checks as u64;
        if let (Some(st), Some(agg)) = (self.state, self.agg) {
            meter.verify_ops += 1;
            if !st.finish(&agg) {
                return Err(VerifyError::BadSignature { part: "aggregate" });
            }
        }
        Ok(())
    }
}

/// Authenticate one shipped digest: range-check the exponent, then
/// either queue its individual signature on the screen or absorb its
/// signed payload into the aggregate sweep.
fn check_vo_digest<const L: usize>(
    acc: &Accumulator<L>,
    d: &SignedDigest<L>,
    part: &'static str,
    sweep: &mut AggSweep<'_>,
    meter: &mut CostMeter,
) -> Result<(), VerifyError> {
    if d.role == DigestRole::Root {
        return Err(VerifyError::WrongRole { part });
    }
    if d.exp.is_zero() || d.exp >= acc.group().q {
        return Err(VerifyError::MalformedVo {
            reason: "digest exponent out of range",
        });
    }
    if d.sig.is_empty() {
        meter.hash_ops += 1;
        sweep.absorb(d)
    } else {
        acc.screen_digest(&mut sweep.screen, part, d)
            .map_err(|part| VerifyError::BadSignature { part })
    }
}

/// Per-part stack machine: digest frames, row ordering, and the final
/// lift comparison against the part's signed top digest.
struct PartMachine<'a, 'q, const L: usize> {
    acc: &'a Accumulator<L>,
    /// Digest frames, each a Montgomery running product.
    stack: Vec<ExpProduct<L>>,
    peak: usize,
    prev_key: Option<u64>,
    /// Hash inputs of the returned columns.
    inputs: AttributeInputs,
    /// Values a row must carry: one per returned column.
    arity: usize,
    query: &'q RangeQuery,
    /// Columns the projection filtered away, whose attribute digests
    /// must arrive via the op stream.
    filtered_cols: usize,
    /// Rows consumed so far.
    rows_seen: usize,
    /// Attribute-role digests folded so far (pushes and dictionary
    /// references alike).
    attr_folds: usize,
}

impl<'a, 'q, const L: usize> PartMachine<'a, 'q, L> {
    /// Authenticate the part's top digest (it opens the part's slice of
    /// the aggregate absorb order) and set up the frame stack.
    fn start(
        cv: &ClientVerifier<'a, L>,
        query: &'q RangeQuery,
        top: &SignedDigest<L>,
        sweep: &mut AggSweep<'_>,
        meter: &mut CostMeter,
    ) -> Result<Self, VerifyError> {
        let num_cols = cv.schema.num_columns();
        let returned = query.returned_columns(num_cols);
        if returned.iter().any(|&c| c >= num_cols) {
            return Err(VerifyError::BadProjection);
        }
        if top.role != DigestRole::Node {
            return Err(VerifyError::WrongRole { part: "top" });
        }
        check_vo_digest(cv.acc, top, "top", sweep, meter)?;
        Ok(Self {
            acc: cv.acc,
            stack: vec![ExpProduct::new()],
            peak: 1,
            prev_key: None,
            inputs: cv.schema.attribute_inputs(returned.iter().copied()),
            arity: returned.len(),
            query,
            filtered_cols: num_cols - returned.len(),
            rows_seen: 0,
            attr_folds: 0,
        })
    }

    fn fold(&mut self, exp: &Uint<L>, meter: &mut CostMeter) {
        let top = self.stack.last_mut().expect("stack never empties");
        top.fold(self.acc, exp);
        meter.combine_ops += 1;
    }

    fn step(
        &mut self,
        ev: OpEvent<'_, L>,
        dict: &[SignedDigest<L>],
        sweep: &mut AggSweep<'_>,
        meter: &mut CostMeter,
    ) -> Result<(), VerifyError> {
        match ev {
            OpEvent::Begin => {
                if self.stack.len() >= MAX_VO_STACK {
                    return Err(VerifyError::MalformedVo {
                        reason: "frame stack overflow",
                    });
                }
                self.stack.push(ExpProduct::new());
                self.peak = self.peak.max(self.stack.len());
            }
            OpEvent::End => {
                if self.stack.len() == 1 {
                    return Err(VerifyError::MalformedVo {
                        reason: "frame stack underflow",
                    });
                }
                let closed = self.stack.pop().expect("len > 1");
                let top = self.stack.last_mut().expect("len was > 1");
                top.fold_product(self.acc, &closed);
                meter.combine_ops += 1;
            }
            OpEvent::Push(d) => {
                check_vo_digest(self.acc, d, "ops", sweep, meter)?;
                if d.role == DigestRole::Attribute {
                    self.attr_folds += 1;
                }
                self.fold(&d.exp, meter);
            }
            OpEvent::Ref(i) => {
                let Some(d) = dict.get(i as usize) else {
                    return Err(VerifyError::MalformedVo {
                        reason: "dictionary reference out of range",
                    });
                };
                // Dictionary entries were authenticated once up front;
                // a reference only folds the exponent in.
                if d.role == DigestRole::Attribute {
                    self.attr_folds += 1;
                }
                self.fold(&d.exp, meter);
            }
            OpEvent::Row(row) => {
                self.rows_seen += 1;
                if row.key < self.query.lo || row.key > self.query.hi {
                    return Err(VerifyError::RowOutOfRange { key: row.key });
                }
                if self.prev_key.is_some_and(|p| row.key <= p) {
                    return Err(VerifyError::RowsUnsorted);
                }
                self.prev_key = Some(row.key);
                if row.values.len() != self.arity {
                    return Err(VerifyError::WrongArity { key: row.key });
                }
                for (slot, value) in row.values.iter().enumerate() {
                    let e = self
                        .acc
                        .exp_from_bytes(self.inputs.input(slot, row.key, value));
                    meter.hash_ops += 1;
                    self.fold(&e, meter);
                }
            }
        }
        Ok(())
    }

    /// Check frame balance and compare the reconstructed product with
    /// the signed top digest. Returns the peak stack depth.
    fn close(mut self, top: &SignedDigest<L>, meter: &mut CostMeter) -> Result<usize, VerifyError> {
        if self.stack.len() != 1 {
            return Err(VerifyError::MalformedVo {
                reason: "unbalanced op stream",
            });
        }
        // The compact analogue of the flat D_P count check: every row
        // owes exactly one attribute digest per filtered column, which
        // also pins the row count when rows carry no returned values.
        let expected_attrs = self.rows_seen * self.filtered_cols;
        if self.attr_folds != expected_attrs {
            return Err(VerifyError::ProjectionCountMismatch {
                expected: expected_attrs,
                actual: self.attr_folds,
            });
        }
        let total = self.stack.pop().expect("exactly one frame");
        let lifted = self.acc.lift(&total.value(self.acc));
        let expected = self.acc.lift(&top.exp);
        meter.lift_ops += 2;
        if lifted != expected {
            return Err(VerifyError::DigestMismatch);
        }
        Ok(self.peak)
    }
}
