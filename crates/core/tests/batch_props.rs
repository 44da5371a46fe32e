//! Group-commit equivalence properties: for every batch size 1..=16 and
//! a seeded mix of insert/delete/modify ops, `AuthScheme::update_batch`
//! must produce **byte-identical** trees (same structure, same
//! exponents, same signatures — proven via `encode_tree`), identical
//! root digests, and a signing-sweep cost no worse than the per-op
//! path, both at the signing master and at replaying replicas.

use vbx_core::{encode_tree, AuthScheme, UpdateOp, VbScheme, VbTreeConfig};
use vbx_crypto::signer::{MockSigner, Signer};
use vbx_crypto::Acc256;
use vbx_storage::workload::WorkloadSpec;
use vbx_storage::{crc32, Schema, Tuple, Value};

const ROWS: u64 = 120;

struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

fn fresh_tuple(schema: &Schema, key: u64, salt: u64) -> Tuple {
    Tuple::new(
        schema,
        key,
        vec![
            Value::from(format!("v{key}.{salt}")),
            Value::from("w"),
            Value::from((salt % 97) as i64),
        ],
    )
    .expect("schema-conformant tuple")
}

/// A valid op mix of exactly `k` ops against the model of live keys:
/// inserts of fresh keys, deletes of live keys, modifies (delete +
/// re-insert with new values), and small range deletes.
fn gen_ops(
    schema: &Schema,
    rng: &mut Lcg,
    live: &mut std::collections::BTreeSet<u64>,
    next_key: &mut u64,
    k: usize,
) -> Vec<UpdateOp> {
    let mut ops = Vec::with_capacity(k);
    while ops.len() < k {
        let pick_live = |rng: &mut Lcg, live: &std::collections::BTreeSet<u64>| {
            let idx = (rng.next() as usize) % live.len();
            *live.iter().nth(idx).expect("non-empty")
        };
        match rng.next() % 4 {
            0 => {
                *next_key += 1;
                let key = 10_000 + *next_key;
                live.insert(key);
                ops.push(UpdateOp::Insert(fresh_tuple(schema, key, rng.next())));
            }
            1 if !live.is_empty() => {
                let key = pick_live(rng, live);
                live.remove(&key);
                ops.push(UpdateOp::Delete(key));
            }
            // Modify: delete + re-insert the same key with new values
            // (two ops — only when both still fit in the batch).
            2 if !live.is_empty() && ops.len() + 2 <= k => {
                let key = pick_live(rng, live);
                ops.push(UpdateOp::Delete(key));
                ops.push(UpdateOp::Insert(fresh_tuple(schema, key, rng.next())));
            }
            3 if !live.is_empty() => {
                let lo = pick_live(rng, live);
                let hi = lo + rng.next() % 5;
                live.retain(|&key| key < lo || key > hi);
                ops.push(UpdateOp::DeleteRange(lo, hi));
            }
            _ => {
                *next_key += 1;
                let key = 10_000 + *next_key;
                live.insert(key);
                ops.push(UpdateOp::Insert(fresh_tuple(schema, key, rng.next())));
            }
        }
    }
    ops
}

#[test]
fn update_batch_is_byte_identical_to_per_op_for_all_sizes() {
    let table = WorkloadSpec::new(ROWS, 3, 8).build();
    let signer = MockSigner::new(0xBA7C);
    let scheme: VbScheme<4> = VbScheme::new(Acc256::test_default(), VbTreeConfig::with_fanout(5));
    let base = scheme.build(&table, &signer);
    let schema = table.schema().clone();

    let mut rng = Lcg(0x5EED_2026);
    let mut next_key = 0u64;

    for k in 1..=16usize {
        // Every size replays against the same base snapshot, so the op
        // model resets to the base contents each round (fresh insert
        // keys stay monotone across rounds and never collide).
        let mut live: std::collections::BTreeSet<u64> = table.iter().map(|t| t.key).collect();
        let ops = gen_ops(&schema, &mut rng, &mut live, &mut next_key, k);

        // Per-op path: one signed delta per op, replayed one by one.
        let mut master_perop = base.clone();
        let mut replica_perop = base.clone();
        for op in &ops {
            let payload = scheme
                .update(&mut master_perop, op, &signer)
                .unwrap_or_else(|e| panic!("per-op update (k={k}): {e}"));
            scheme
                .apply_delta(&mut replica_perop, op, &payload, signer.key_version())
                .unwrap_or_else(|e| panic!("per-op replay (k={k}): {e}"));
        }

        // Group-commit path: one deferred signing sweep, one packed
        // payload, one batch replay.
        let mut master_batch = base.clone();
        let mut replica_batch = base.clone();
        let payloads = scheme
            .update_batch(&mut master_batch, &ops, &signer)
            .unwrap_or_else(|e| panic!("update_batch (k={k}): {e}"));
        scheme
            .apply_delta_batch(&mut replica_batch, &ops, &payloads, signer.key_version())
            .unwrap_or_else(|e| panic!("batch replay (k={k}): {e}"));

        // Byte-identity across all four trees (structure, separators,
        // exponents, *and* signatures).
        let canonical = encode_tree(&master_perop);
        assert_eq!(
            canonical,
            encode_tree(&master_batch),
            "k={k}: batch master differs from per-op master"
        );
        assert_eq!(
            canonical,
            encode_tree(&replica_perop),
            "k={k}: per-op replica diverged"
        );
        assert_eq!(
            canonical,
            encode_tree(&replica_batch),
            "k={k}: batch replica diverged"
        );
        assert_eq!(
            master_perop.root_digest().exp,
            master_batch.root_digest().exp,
            "k={k}: root digests differ"
        );

        // The deferred sweep signs each dirty digest once; the per-op
        // path re-signs every path digest per op. The batch can never
        // sign more.
        let perop_signs = master_perop.meter().sign_ops - base.meter().sign_ops;
        let batch_signs = master_batch.meter().sign_ops - base.meter().sign_ops;
        assert!(
            batch_signs <= perop_signs,
            "k={k}: batch signed {batch_signs} > per-op {perop_signs}"
        );

        // Replicas never sign.
        assert_eq!(
            replica_batch.meter().sign_ops,
            base.meter().sign_ops,
            "k={k}: batch replica performed signing work"
        );

        // Advance the base state so every size runs on fresh structure.
        base.check_integrity(None).expect("base intact");
    }
}

#[test]
fn batched_path_shares_signatures_on_clustered_ops() {
    // 16 deletes of consecutive keys share their root-to-leaf paths:
    // the per-op path re-signs the shared ancestors 16 times, the
    // sweep exactly once — the amortisation the group-commit pipeline
    // is built on.
    let table = WorkloadSpec::new(ROWS, 3, 8).build();
    let signer = MockSigner::new(0xA3);
    let scheme: VbScheme<4> = VbScheme::new(Acc256::test_default(), VbTreeConfig::with_fanout(5));
    let base = scheme.build(&table, &signer);
    let ops: Vec<UpdateOp> = (40..56).map(UpdateOp::Delete).collect();

    let mut perop = base.clone();
    for op in &ops {
        scheme.update(&mut perop, op, &signer).unwrap();
    }
    let mut batch = base.clone();
    scheme.update_batch(&mut batch, &ops, &signer).unwrap();

    let perop_signs = perop.meter().sign_ops - base.meter().sign_ops;
    let batch_signs = batch.meter().sign_ops - base.meter().sign_ops;
    assert!(
        batch_signs * 3 <= perop_signs,
        "expected ≥3× signature amortisation on clustered deletes: \
         batch {batch_signs} vs per-op {perop_signs}"
    );
    assert_eq!(encode_tree(&perop), encode_tree(&batch));
}

#[test]
fn failed_batch_restores_the_pre_batch_store() {
    let table = WorkloadSpec::new(60, 3, 8).build();
    let signer = MockSigner::new(7);
    let scheme: VbScheme<4> = VbScheme::new(Acc256::test_default(), VbTreeConfig::with_fanout(5));
    let mut store = scheme.build(&table, &signer);
    let before = encode_tree(&store);

    // Third op fails (key 999_999 does not exist): the first two must
    // not leak into the store.
    let ops = vec![
        UpdateOp::Delete(3),
        UpdateOp::Delete(5),
        UpdateOp::Delete(999_999),
    ];
    assert!(scheme.update_batch(&mut store, &ops, &signer).is_err());
    assert_eq!(
        encode_tree(&store),
        before,
        "failed batch must leave the store byte-identical"
    );
}

#[test]
fn batch_replay_rejects_forged_op_streams() {
    let table = WorkloadSpec::new(60, 3, 8).build();
    let signer = MockSigner::new(9);
    let scheme: VbScheme<4> = VbScheme::new(Acc256::test_default(), VbTreeConfig::with_fanout(5));
    let mut master = scheme.build(&table, &signer);
    let replica = scheme.build(&table, &signer);
    let schema = table.schema().clone();

    let ops = vec![
        UpdateOp::Insert(fresh_tuple(&schema, 900, 1)),
        UpdateOp::Delete(10),
    ];
    let payloads = scheme.update_batch(&mut master, &ops, &signer).unwrap();

    // A man-in-the-middle rewrites an op but cannot rebuild the packed
    // digest stream: the replica's recomputed exponents diverge.
    let forged_ops = vec![
        UpdateOp::Insert(fresh_tuple(&schema, 901, 2)),
        UpdateOp::Delete(10),
    ];
    let mut target = replica.clone();
    let before = encode_tree(&target);
    assert!(scheme
        .apply_delta_batch(&mut target, &forged_ops, &payloads, signer.key_version())
        .is_err());
    assert_eq!(encode_tree(&target), before, "failed replay must restore");

    // The honest stream still replays.
    let mut target = replica.clone();
    scheme
        .apply_delta_batch(&mut target, &ops, &payloads, signer.key_version())
        .unwrap();
    assert_eq!(
        target.root_digest().exp,
        master.root_digest().exp,
        "honest batch replays to the master state"
    );
}

#[test]
fn deletes_keep_their_combine_count_and_tree_bytes() {
    // Delete and range delete recompute each touched node's exponent
    // from the entries that survive. These counts and checksums were
    // recorded before that product was taken through borrows instead of
    // a copy of the leaf; reading the entries differently must change
    // neither the number of combines nor a byte of the tree.
    let table = WorkloadSpec::new(ROWS, 3, 8).build();
    let signer = MockSigner::new(0xD0);
    let scheme: VbScheme<4> = VbScheme::new(Acc256::test_default(), VbTreeConfig::with_fanout(5));
    let base = scheme.build(&table, &signer);
    const COMBINES: u64 = 143;
    const TREE_CRC: u32 = 2_552_744_849;
    let combines = |t: &vbx_core::VbTree<4>| t.meter().combine_ops - base.meter().combine_ops;

    // Single deletes (40..=44 empties a leaf), then range deletes
    // inside a leaf, across leaves, and over an already emptied span.
    let keys = [7, 40, 41, 42, 43, 44, 119, 0];
    let ranges = [(10, 11), (58, 77), (40, 44), (100, 118)];

    let mut perop = base.clone();
    for key in keys {
        perop.delete(key, &signer).expect("live key");
    }
    for (lo, hi) in ranges {
        perop.delete_range(lo, hi, &signer).expect("range delete");
    }
    assert_eq!(combines(&perop), COMBINES);
    assert_eq!(crc32(&encode_tree(&perop)), TREE_CRC);

    // The same script as one deferred-signing batch.
    let mut batch = base.clone();
    let ops: Vec<UpdateOp> = keys
        .into_iter()
        .map(UpdateOp::Delete)
        .chain(ranges.map(|(lo, hi)| UpdateOp::DeleteRange(lo, hi)))
        .collect();
    scheme
        .update_batch(&mut batch, &ops, &signer)
        .expect("batch");
    assert_eq!(combines(&batch), COMBINES);
    assert_eq!(crc32(&encode_tree(&batch)), TREE_CRC);
}
