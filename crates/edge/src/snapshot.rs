//! Atomically swappable store snapshots for concurrent serving.
//!
//! A [`ServingReplica`] wraps one table's authenticated store in an
//! `Arc`-published snapshot: readers grab the current `Arc` (a pointer
//! clone under a briefly-held read lock) and work on a store that can
//! never change underneath them, while the writer builds the successor
//! store *off to the side* and swaps it in with one pointer store. This
//! is the WedgeChain-style edge-store shape — many concurrent readers
//! over a replica that a trusted writer advances asynchronously. Since
//! no store is ever mutated once published, a reader needs none of the
//! Section 3.4 digest locks that an in-place update would call for.
//!
//! For the VB-tree the build-aside clone is cheap: `VbTree`'s node arena
//! is `Arc`'d (copy-on-write), so cloning copies one pointer per node
//! slot and the delta replay detaches only the root-to-leaf path it
//! touches.

use parking_lot::RwLock;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use vbx_core::scheme::AuthScheme;

/// One table's swappable snapshot (see module docs).
pub struct ServingReplica<S: AuthScheme> {
    current: RwLock<Arc<S::Store>>,
    /// Number of snapshots published so far (tests/diagnostics).
    published: AtomicU64,
}

impl<S: AuthScheme> ServingReplica<S> {
    /// Wrap an initial store.
    pub fn new(store: S::Store) -> Self {
        Self {
            current: RwLock::new(Arc::new(store)),
            published: AtomicU64::new(0),
        }
    }

    /// The current snapshot. Never blocks on writers beyond the pointer
    /// swap itself; the returned store is immutable for as long as the
    /// caller holds the `Arc`.
    pub fn snapshot(&self) -> Arc<S::Store> {
        self.current.read().clone()
    }

    /// The current snapshot together with a publish-version stamp no
    /// newer than the snapshot itself. Cache writers use the stamp to
    /// detect that a successor was published (and the cache invalidated)
    /// while they were executing — a stale result must not be inserted
    /// after the invalidation. The stamp is read under the same read
    /// lock as the pointer; a publish racing the bump can only make the
    /// stamp *older* than the snapshot, which errs on the safe side
    /// (the insert is skipped, never accepted stale).
    pub fn versioned_snapshot(&self) -> (Arc<S::Store>, u64) {
        let guard = self.current.read();
        let version = self.published.load(Ordering::Acquire);
        (guard.clone(), version)
    }

    /// Publish a fully-built replacement store: the successor a commit
    /// replayed off to the side (`EdgeService` clones the snapshot —
    /// cheap for COW stores — once per commit, not per op, and holds
    /// its writer lock from clone to publish), initial distribution, a
    /// wholesale view refresh.
    pub fn publish(&self, store: S::Store) {
        *self.current.write() = Arc::new(store);
        self.published.fetch_add(1, Ordering::Release);
    }

    /// How many snapshots have been published (0 = still the initial
    /// store).
    pub fn published_count(&self) -> u64 {
        self.published.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vbx_core::scheme::VbScheme;
    use vbx_core::{VbTree, VbTreeConfig};
    use vbx_crypto::signer::MockSigner;
    use vbx_crypto::Acc256;
    use vbx_storage::workload::WorkloadSpec;

    fn replica() -> (ServingReplica<VbScheme<4>>, MockSigner) {
        let table = WorkloadSpec::new(40, 3, 8).build();
        let signer = MockSigner::new(5);
        let tree = VbTree::bulk_load(
            &table,
            VbTreeConfig::with_fanout(5),
            Acc256::test_default(),
            &signer,
        );
        (ServingReplica::new(tree), signer)
    }

    #[test]
    fn snapshot_survives_swap() {
        let (r, signer) = replica();
        let before = r.snapshot();
        let len_before = before.len();
        let mut next = (*before).clone();
        next.delete(3, &signer).unwrap();
        r.publish(next);
        // The old handle still sees the pre-update tree…
        assert_eq!(before.len(), len_before);
        assert!(before.get(3).is_some());
        // …while fresh snapshots see the successor.
        let after = r.snapshot();
        assert_eq!(after.len(), len_before - 1);
        assert!(after.get(3).is_none());
        assert_eq!(r.published_count(), 1);
    }

    #[test]
    fn concurrent_readers_during_writes() {
        let (r, signer) = replica();
        let r = &r;
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(move || {
                    for _ in 0..200 {
                        let snap = r.snapshot();
                        // Every observed snapshot is internally
                        // consistent, whatever the writer is doing.
                        snap.check_integrity(None).unwrap();
                    }
                });
            }
            s.spawn(move || {
                for k in 0..30u64 {
                    let mut next = (*r.snapshot()).clone();
                    next.delete(k, &signer).unwrap();
                    r.publish(next);
                }
            });
        });
        assert_eq!(r.snapshot().len(), 10);
    }
}
