//! Verified chunked state sync — the restore side.
//!
//! A restoring edge never installs state it has not verified. Instead
//! of trusting a cloned store (or a decoded blob), it pumps the owner's
//! chunk stream through the scheme's [`StoreRestorer`](vbx_core::StoreRestorer), which
//! authenticates **every chunk against the signed commitments as it
//! ingests** — a tampered, reordered, truncated, or stale chunk is
//! rejected mid-stream, before anything is installed.
//!
//! Two entry points:
//!
//! * [`clone_verified`] — in-process: re-derive an edge replica from a
//!   central's own store by round-tripping it through the chunk
//!   producer and the verifying restorer (the cluster coordinator's
//!   provisioning and resubscribe path);
//! * [`restore_table`] — over the wire: drive
//!   [`NetClient::fetch_chunk`] from chunk 0 until the central reports
//!   the end of the stream, feeding each chunk to the restorer.

use crate::net::client::{ChunkFetch, NetClient, NetError};
use std::sync::Arc;
use vbx_core::scheme::{AuthScheme, VbScheme};
use vbx_core::{SyncError, VbTree};
use vbx_crypto::SigVerifier;

/// Rebuild a store from `source` through the full chunk-and-verify
/// pipeline: every chunk the scheme's producer emits is ingested by the
/// scheme's restorer, which checks it against the signed root
/// commitments under `verifier` before the copy is released.
///
/// This is the in-process analogue of a network restore — the trusting
/// `store.clone()` replaced by a path where the receiving side only
/// accepts what it can authenticate.
pub fn clone_verified<S: AuthScheme>(
    scheme: &S,
    source: &S::Store,
    verifier: Arc<dyn SigVerifier>,
) -> Result<S::Store, SyncError> {
    let total = scheme.sync_chunk_count(source);
    if total == 0 {
        return Err(SyncError::Unsupported(S::NAME));
    }
    let mut restorer = scheme.begin_restore(verifier);
    for index in 0..total {
        let chunk = scheme.encode_sync_chunk(source, index)?;
        restorer.ingest(&chunk)?;
    }
    restorer.finish()
}

/// A table restored over the wire, with the stream shape and the log
/// position to subscribe from.
pub struct RestoredTable<const L: usize> {
    /// The verified replica.
    pub tree: VbTree<L>,
    /// Chunks the stream carried.
    pub chunks: u32,
    /// The central's delta-log head when the stream ended — the cursor
    /// a fresh subscription should start from to catch up without a
    /// gap.
    pub head: u64,
}

/// Stream `table`'s chunks from the central behind `client` and rebuild
/// a verified replica. Each chunk is authenticated against the signed
/// root digest under `verifier` as it arrives; the first bad chunk
/// aborts the restore with a [`NetError::Sync`].
pub fn restore_table<const L: usize>(
    client: &mut NetClient,
    scheme: &VbScheme<L>,
    verifier: Arc<dyn SigVerifier>,
    table: &str,
) -> Result<RestoredTable<L>, NetError> {
    let mut restorer = scheme.begin_restore(verifier);
    let mut ingested: u32 = 0;
    loop {
        match client.fetch_chunk(table, ingested)? {
            ChunkFetch::Chunk(bytes) => {
                restorer.ingest(&bytes)?;
                ingested += 1;
            }
            ChunkFetch::Done { chunks, head } => {
                if chunks != ingested {
                    return Err(NetError::Sync(SyncError::Incomplete {
                        ingested,
                        expected: chunks,
                    }));
                }
                let tree = restorer.finish()?;
                return Ok(RestoredTable { tree, chunks, head });
            }
        }
    }
}
