//! Memory pin for checkpoint encoding: `encode_state()` — the exact
//! checkpoint image — must not need more than 1.1× the image in
//! transient heap. The rows are stored once (in the authenticated
//! stores), the image buffer is sized up front from the stores' exact
//! encoded lengths, and every store and log record is encoded in place
//! into it, so what it costs above the live state is the image itself
//! plus a few KiB of small sections and slack (1.00× measured). A copy
//! of one store's encoding, or a buffer grown by doubling, breaks the
//! bound.
//!
//! A counting global allocator measures the peak; this binary holds
//! exactly one test so nothing else allocates while it measures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use vbx_core::{VbScheme, VbTreeConfig};
use vbx_crypto::signer::MockSigner;
use vbx_crypto::{Acc256, Signer};
use vbx_edge::CentralServer;
use vbx_storage::workload::WorkloadSpec;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(by: usize) {
    let live = LIVE.fetch_add(by, Ordering::Relaxed) + by;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

/// Forwards to the system allocator, tracking live bytes and their peak.
struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters never touch
// the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` is passed through as given.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator with this `layout`.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr`/`layout` describe a live block of this
        // allocator and `new_size` is the caller's checked size.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            grew(new_size);
        }
        p
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn encode_state_transient_heap_is_within_a_tenth_of_the_image() {
    let signer: Arc<dyn Signer> = Arc::new(MockSigner::new(43));
    let scheme = VbScheme::<4>::new(Acc256::test_default(), VbTreeConfig::default());
    let mut central = CentralServer::with_scheme(scheme, signer);
    for t in 0..4 {
        central.create_table(
            WorkloadSpec {
                table: format!("t{t}"),
                ..WorkloadSpec::new(600, 10, 20)
            }
            .build(),
        );
    }

    let live = LIVE.load(Ordering::Relaxed);
    PEAK.store(live, Ordering::Relaxed);
    let image = central.encode_state();
    let transient = PEAK.load(Ordering::Relaxed) - live;

    let ratio = transient as f64 / image.len() as f64;
    println!(
        "image {} B, transient peak {transient} B ({ratio:.2}x)",
        image.len()
    );
    assert!(
        transient * 10 <= 11 * image.len(),
        "encode_state() needed {ratio:.2}x its {} B image in transient heap",
        image.len()
    );
}
