//! Verified chunked state sync: the chunk producer ([`TreeChunks`])
//! against the verifying [`Restorer`].
//!
//! The contract under test: a restoring edge authenticates **every
//! chunk against the signed digests as it ingests** — a faithful
//! stream rebuilds an equivalent tree, and a tampered, reordered,
//! truncated, stale, or mis-signed stream is rejected *mid-stream*,
//! before any state is installed.

use vbx_core::{
    execute, ClientVerifier, RangeQuery, Restorer, SyncError, TreeChunks, VbTree, VbTreeConfig,
};
use vbx_crypto::signer::{MockSigner, Signer};
use vbx_crypto::{rsa, Acc256};
use vbx_storage::workload::WorkloadSpec;

fn tree_with(rows: u64, fanout: usize, signer: &dyn Signer) -> VbTree<4> {
    let table = WorkloadSpec::new(rows, 3, 8).build();
    VbTree::bulk_load(
        &table,
        VbTreeConfig::with_fanout(fanout),
        Acc256::test_default(),
        signer,
    )
}

fn tree(rows: u64, fanout: usize) -> (VbTree<4>, MockSigner) {
    let signer = MockSigner::new(6);
    (tree_with(rows, fanout, &signer), signer)
}

/// The tamper matrix runs under both sweeps: the mock MAC chain and
/// condensed RSA.
fn signers() -> [Box<dyn Signer>; 2] {
    [
        Box::new(MockSigner::new(6)),
        Box::new(rsa::fixture_keypair_crt_512()),
    ]
}

fn chunks_of(t: &VbTree<4>, per_chunk: usize) -> Vec<Vec<u8>> {
    let producer = TreeChunks::with_leaves_per_chunk(t, per_chunk);
    (0..producer.num_chunks())
        .map(|i| producer.encode_chunk(i).unwrap())
        .collect()
}

fn restore(chunks: &[Vec<u8>], signer: &dyn Signer) -> Result<VbTree<4>, SyncError> {
    let mut r = Restorer::new(Acc256::test_default(), signer.verifier());
    for c in chunks {
        r.ingest(c)?;
    }
    r.finish()
}

#[test]
fn faithful_stream_rebuilds_an_equivalent_tree() {
    for (rows, per_chunk) in [(0u64, 4usize), (1, 4), (150, 4), (300, 1), (97, 64)] {
        let (t, signer) = tree(rows, 5);
        let chunks = chunks_of(&t, per_chunk);
        assert!(chunks.len() >= 2, "skeleton plus at least one leaf run");
        let back = restore(&chunks, &signer).unwrap();
        assert_eq!(back.len(), t.len());
        assert_eq!(back.height(), t.height());
        assert_eq!(back.version(), t.version());
        assert_eq!(back.key_version(), t.key_version());
        assert_eq!(back.root_digest().exp, t.root_digest().exp);
        assert_eq!(back.schema(), t.schema());
        // The restored replica passes a full audit and serves
        // verifiable queries.
        back.check_integrity(Some(signer.verifier().as_ref()))
            .unwrap();
        if rows > 10 {
            let q = RangeQuery::select_all(5, rows - 3);
            let resp = execute(&back, &q, None);
            let acc = Acc256::test_default();
            ClientVerifier::new(&acc, t.schema())
                .verify(signer.verifier().as_ref(), &q, &resp)
                .unwrap();
        }
    }
}

#[test]
fn every_single_bit_flip_in_a_leaf_chunk_is_caught_mid_stream() {
    // RSA chunks are mostly signature bytes, and a flipped one costs a
    // failed sweep plus the per-signature search: sample them sparser.
    for (signer, stride) in signers().into_iter().zip([7, 37]) {
        let t = tree_with(60, 4, signer.as_ref());
        let chunks = chunks_of(&t, 4);
        // Flip a sample of bits across the whole second chunk (a leaf
        // run): the restorer must reject the chunk at ingest, never
        // deferring to finish() — and install none of it.
        let victim = 1usize;
        for (i, byte) in (0..chunks[victim].len()).step_by(stride).enumerate() {
            let mut tampered = chunks.clone();
            tampered[victim][byte] ^= 0x40;
            let mut r = Restorer::new(Acc256::test_default(), signer.verifier());
            r.ingest(&tampered[0]).unwrap();
            assert!(
                r.ingest(&tampered[victim]).is_err(),
                "bit flip at byte {byte} must be rejected as it ingests"
            );
            assert_eq!(r.chunks_ingested(), 1);
            // The rejected chunk left nothing behind: the honest one
            // still goes in, and the stream completes (sampled — it
            // re-verifies the whole stream).
            if i % 32 == 0 {
                for c in &chunks[victim..] {
                    r.ingest(c).unwrap();
                }
                assert_eq!(r.finish().unwrap().len(), t.len());
            }
        }
    }
}

#[test]
fn skeleton_tampering_is_caught_at_chunk_zero() {
    let (t, signer) = tree(60, 4);
    let rsa_signer = rsa::fixture_keypair_crt_512();
    let rsa_chunks = chunks_of(&tree_with(60, 4, &rsa_signer), 4);
    let chunks = chunks_of(&t, 4);
    // The signed preorder skeleton (digests + separators) starts after
    // the fixed header fields, the schema, and the per-chunk count:
    // MAGIC|index|total|version | len|height|key_version|geometry(16)|
    // fanout tag+value(5) | schema | per_chunk.
    let mut schema_bytes = Vec::new();
    t.schema().encode_into(&mut schema_bytes);
    let preorder_start = 12 + 8 + 8 + 4 + 4 + 16 + 5 + schema_bytes.len() + 4;
    assert!(preorder_start < chunks[0].len());

    // No bit flip in the skeleton survives the stream: forged digests
    // and broken structure die at chunk 0 (signature / arity / depth /
    // exponent-product checks); a separator nudged to a value that
    // still sorts dies at the leaf run whose pinned bounds it violates.
    // Either way the restore errors before a tree is released.
    let streams: [(&[Vec<u8>], &dyn Signer); 2] = [(&chunks, &signer), (&rsa_chunks, &rsa_signer)];
    for (chunks, signer) in streams {
        for byte in (preorder_start..chunks[0].len()).step_by(5) {
            let mut tampered = chunks.to_vec();
            tampered[0][byte] ^= 0x04;
            assert!(
                restore(&tampered, signer).is_err(),
                "skeleton bit flip at byte {byte} must abort the restore"
            );
        }
    }

    // A flipped tree-version byte in the header is metadata the
    // skeleton cannot authenticate alone — it is caught on the very
    // next leaf chunk as a source mismatch.
    let mut bad = chunks[0].clone();
    bad[12] ^= 0x01;
    let mut r = Restorer::new(Acc256::test_default(), signer.verifier());
    r.ingest(&bad).unwrap();
    assert!(matches!(
        r.ingest(&chunks[1]),
        Err(SyncError::SourceChanged { .. })
    ));
}

#[test]
fn reordered_and_replayed_chunks_are_rejected() {
    let (t, signer) = tree(120, 4);
    let chunks = chunks_of(&t, 4);
    assert!(chunks.len() >= 4);

    // Leaf run before the skeleton.
    let mut r = Restorer::new(Acc256::test_default(), signer.verifier());
    assert!(matches!(
        r.ingest(&chunks[1]),
        Err(SyncError::ChunkOutOfOrder {
            expected: 0,
            got: 1
        })
    ));

    // Two leaf runs swapped.
    let mut r = Restorer::new(Acc256::test_default(), signer.verifier());
    r.ingest(&chunks[0]).unwrap();
    assert!(matches!(
        r.ingest(&chunks[2]),
        Err(SyncError::ChunkOutOfOrder {
            expected: 1,
            got: 2
        })
    ));

    // The same chunk replayed.
    let mut r = Restorer::new(Acc256::test_default(), signer.verifier());
    r.ingest(&chunks[0]).unwrap();
    r.ingest(&chunks[1]).unwrap();
    assert!(matches!(
        r.ingest(&chunks[1]),
        Err(SyncError::ChunkOutOfOrder {
            expected: 2,
            got: 1
        })
    ));
}

#[test]
fn truncated_stream_never_finishes() {
    let (t, signer) = tree(120, 4);
    let chunks = chunks_of(&t, 4);
    for keep in 1..chunks.len() {
        let mut r = Restorer::new(Acc256::test_default(), signer.verifier());
        for c in &chunks[..keep] {
            r.ingest(c).unwrap();
        }
        assert!(!r.is_complete());
        let Err(err) = r.finish() else {
            panic!("{keep}/{} chunks must not finish", chunks.len());
        };
        assert!(
            matches!(err, SyncError::Incomplete { .. }),
            "{keep}/{} chunks must report Incomplete, got: {err}",
            chunks.len()
        );
    }

    // A chunk cut short mid-entry is malformed on arrival.
    let mut r = Restorer::new(Acc256::test_default(), signer.verifier());
    r.ingest(&chunks[0]).unwrap();
    let cut = &chunks[1][..chunks[1].len() - 3];
    assert!(r.ingest(cut).is_err());
}

#[test]
fn wrong_verifier_rejects_the_very_first_chunk() {
    let (t, _signer) = tree(60, 4);
    let chunks = chunks_of(&t, 4);
    let stranger = MockSigner::new(9_999);
    let mut r = Restorer::new(Acc256::test_default(), stranger.verifier());
    assert!(matches!(
        r.ingest(&chunks[0]),
        Err(SyncError::BadSignature(_))
    ));
}

#[test]
fn chunks_from_different_tree_versions_are_rejected_as_source_changed() {
    let (mut t, signer) = tree(120, 4);
    let old = chunks_of(&t, 4);
    // The source commits an update between two of our fetches.
    let tuple = vbx_storage::Tuple::new(
        t.schema(),
        1_000_000,
        vec![
            vbx_storage::Value::from("aaaaaaaa"),
            vbx_storage::Value::from("bbbbbbbb"),
            vbx_storage::Value::from(42i64),
        ],
    )
    .unwrap();
    t.insert(tuple, &signer).unwrap();
    let new = chunks_of(&t, 4);

    let mut r = Restorer::new(Acc256::test_default(), signer.verifier());
    r.ingest(&old[0]).unwrap();
    assert!(
        matches!(r.ingest(&new[1]), Err(SyncError::SourceChanged { .. })),
        "a chunk from a newer tree version must abort the restore"
    );
}
