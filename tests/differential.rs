//! Differential fuzz test: a seeded, deterministic stream of random
//! updates, queries, and tamper attempts replayed through `VbScheme`,
//! `NaiveScheme`, and `MerkleScheme` via the one `AuthScheme` trait.
//!
//! Every scheme sees the identical operation stream (owner-side
//! `update` → signed payload → replica-side `apply_delta`, then range
//! queries against the replica). The invariants:
//!
//! * **identical result rows** — every scheme returns the same
//!   `(key, values)` list for every query;
//! * **screen ≡ per-signature** — every response is also verified
//!   under a verifier that cannot aggregate, so each signature is
//!   checked on its own: same verdict, same rows;
//! * **identical accept/reject verdicts** — for honest responses
//!   (accept, always) and for the tamper modes every scheme detects
//!   (`MutateValue`, `InjectRow`; the modes where the published
//!   detection matrices *differ* — silent drops — are covered by
//!   `tamper_matrix.rs` and are deliberately excluded here).
//!
//! The seed is fixed, so a failure reproduces exactly in CI. The
//! stream runs once under the mock signer and once under RSA.

use rand::{rngs::StdRng, Rng, SeedableRng};
use std::collections::BTreeSet;
use std::sync::Arc;
use vbx::prelude::*;
use vbx::vbx_crypto::Signature;

const SEED: u64 = 0xD1FF_2026;
const OPS: usize = 60;
const INITIAL_ROWS: u64 = 80;

/// One scheme's owner + replica pair, driven through the trait only.
struct Rig<S: AuthScheme> {
    scheme: S,
    master: S::Store,
    replica: S::Store,
    schema: Schema,
    signer: Arc<dyn Signer>,
}

impl<S: AuthScheme> Rig<S> {
    fn new(scheme: S, table: &Table, signer: Arc<dyn Signer>) -> Self {
        let master = scheme.build(table, signer.as_ref());
        let replica = scheme.build(table, signer.as_ref());
        Self {
            scheme,
            master,
            replica,
            schema: table.schema().clone(),
            signer,
        }
    }
}

/// A verifier that cannot aggregate: signatures are checked one by one.
struct PerSignature(Arc<dyn SigVerifier>);

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

/// Rows as compared across schemes: `(key, debug-rendered values)`.
type RowSet = Vec<(u64, String)>;

/// Object-safe view over a rig so all three schemes run in one loop.
trait DiffRig {
    fn name(&self) -> &'static str;
    /// Owner-side update, signed payload, replica replay.
    fn apply(&mut self, op: &UpdateOp);
    /// Serve `q` from the replica, optionally tamper, verify
    /// client-side. Returns the (key, row-debug) list and the verdict.
    fn run(&self, q: &RangeQuery, tamper: &TamperMode) -> (RowSet, bool);
}

impl<S: AuthScheme> DiffRig for Rig<S> {
    fn name(&self) -> &'static str {
        S::NAME
    }

    fn apply(&mut self, op: &UpdateOp) {
        let payload = self
            .scheme
            .update(&mut self.master, op, self.signer.as_ref())
            .unwrap_or_else(|e| panic!("{}: owner update failed: {e}", S::NAME));
        self.scheme
            .apply_delta(&mut self.replica, op, &payload, self.signer.key_version())
            .unwrap_or_else(|e| panic!("{}: replica replay failed: {e}", S::NAME));
    }

    fn run(&self, q: &RangeQuery, tamper: &TamperMode) -> (RowSet, bool) {
        let mut resp = self.scheme.range_query(&self.replica, q);
        self.scheme.tamper(&self.replica, q, &mut resp, tamper);
        let verify = |verifier: &dyn SigVerifier| -> (RowSet, bool) {
            let mut meter = CostMeter::new();
            match self
                .scheme
                .verify(&self.schema, verifier, q, &resp, &mut meter)
            {
                Ok(batch) => (
                    batch
                        .rows
                        .iter()
                        .map(|r| (r.key, format!("{:?}", r.values)))
                        .collect(),
                    true,
                ),
                Err(_) => (Vec::new(), false),
            }
        };
        let screened = verify(self.signer.verifier().as_ref());
        let reference = verify(&PerSignature(self.signer.verifier()));
        assert_eq!(
            screened,
            reference,
            "{}: screened and per-signature verification diverge on {q:?} under {tamper:?}",
            S::NAME
        );
        screened
    }
}

fn fresh_tuple(schema: &Schema, key: u64, salt: u64) -> Tuple {
    Tuple::new(
        schema,
        key,
        vec![
            Value::from(format!("v{key}")),
            Value::from(format!("s{salt}")),
            Value::from(format!("t{}", salt % 13)),
            Value::from((salt % 101) as i64),
        ],
    )
    .expect("schema-conformant tuple")
}

#[test]
fn three_schemes_agree_on_rows_and_verdicts() {
    three_schemes_agree(Arc::new(MockSigner::with_version(3, 1)));
}

#[test]
fn three_schemes_agree_on_rows_and_verdicts_under_rsa() {
    three_schemes_agree(Arc::new(rsa::fixture_keypair_crt_512()));
}

fn three_schemes_agree(signer: Arc<dyn Signer>) {
    let mut rng = StdRng::seed_from_u64(SEED);
    let table = WorkloadSpec::new(INITIAL_ROWS, 4, 10).build();
    let schema = table.schema().clone();
    let acc = Acc256::test_default();

    let mut rigs: Vec<Box<dyn DiffRig>> = vec![
        Box::new(Rig::new(
            VbScheme::new(acc.clone(), VbTreeConfig::with_fanout(5)),
            &table,
            signer.clone(),
        )),
        Box::new(Rig::new(
            NaiveScheme::<4>::new(acc.clone()),
            &table,
            signer.clone(),
        )),
        Box::new(Rig::new(MerkleScheme, &table, signer.clone())),
    ];

    // The driver mirrors the live key set so generated deletes always
    // target existing keys (all schemes see the identical stream).
    let mut live: BTreeSet<u64> = (0..INITIAL_ROWS).collect();
    let mut next_key = 10_000u64;
    let key_span = || 12_000u64;

    for step in 0..OPS {
        // --- one random update, replayed through every scheme ---
        let op = match rng.gen_range(0..10u32) {
            0..=4 => {
                let key = next_key;
                next_key += 1 + rng.gen_range(0..5u64);
                live.insert(key);
                UpdateOp::Insert(fresh_tuple(&schema, key, rng.gen_range(0..1_000)))
            }
            5..=7 => {
                let idx = rng.gen_range(0..live.len());
                let key = *live.iter().nth(idx).expect("non-empty");
                live.remove(&key);
                UpdateOp::Delete(key)
            }
            _ => {
                let lo = rng.gen_range(0..key_span());
                let hi = lo + rng.gen_range(0..40u64);
                live.retain(|k| *k < lo || *k > hi);
                UpdateOp::DeleteRange(lo, hi)
            }
        };
        for rig in &mut rigs {
            rig.apply(&op);
        }

        // --- one random query, honest + universally-detected tampers ---
        let lo = rng.gen_range(0..key_span());
        let q = RangeQuery::select_all(lo, lo + rng.gen_range(1..200u64));
        let expected_rows: Vec<u64> = live.range(q.lo..=q.hi).copied().collect();

        for tamper in [
            TamperMode::None,
            TamperMode::MutateValue,
            TamperMode::InjectRow,
        ] {
            let results: Vec<(&'static str, RowSet, bool)> = rigs
                .iter()
                .map(|r| {
                    let (rows, ok) = r.run(&q, &tamper);
                    (r.name(), rows, ok)
                })
                .collect();

            // Verdicts identical across all three schemes.
            let verdicts: Vec<bool> = results.iter().map(|(_, _, ok)| *ok).collect();
            assert!(
                verdicts.windows(2).all(|w| w[0] == w[1]),
                "step {step} {tamper:?} [{q:?}]: verdicts diverge: {:?}",
                results
                    .iter()
                    .map(|(n, _, ok)| (*n, *ok))
                    .collect::<Vec<_>>()
            );

            match &tamper {
                TamperMode::None => {
                    // Honest responses always verify, with identical rows
                    // that match the reference model.
                    assert!(verdicts[0], "step {step}: honest response rejected");
                    let keys: Vec<u64> = results[0].1.iter().map(|(k, _)| *k).collect();
                    assert_eq!(
                        keys, expected_rows,
                        "step {step}: vb-tree rows diverge from the reference model"
                    );
                    for (name, rows, _) in &results[1..] {
                        assert_eq!(
                            rows, &results[0].1,
                            "step {step}: {name} rows differ from vb-tree"
                        );
                    }
                }
                _ => {
                    // MutateValue / InjectRow are no-ops on empty results
                    // (accepted by everyone); otherwise every scheme
                    // detects them.
                    let should_detect = !expected_rows.is_empty();
                    assert_eq!(
                        verdicts[0], !should_detect,
                        "step {step} {tamper:?}: expected detected={should_detect}"
                    );
                }
            }
        }
    }

    assert!(!live.is_empty(), "stream should leave data behind");
}
