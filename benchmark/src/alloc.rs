//! A counting global allocator: heap allocations and live bytes, read as
//! deltas around a timed region.
//!
//! The binary (and the allocator integration test) installs
//! [`CountingAlloc`] with `#[global_allocator]`; everything else only
//! calls [`snapshot`]. Counters are spread over cache-line-padded shards
//! picked by the calling thread's TLS address, so the load thread and the
//! UDP rack's host thread do not bounce one line between two cores on
//! every allocation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

const SHARDS: usize = 16;

#[repr(align(64))]
struct Shard {
    allocs: AtomicU64,
    alloc_bytes: AtomicU64,
    freed_bytes: AtomicU64,
}

#[allow(clippy::declare_interior_mutable_const)] // array-repeat initializer only
const EMPTY: Shard = Shard {
    allocs: AtomicU64::new(0),
    alloc_bytes: AtomicU64::new(0),
    freed_bytes: AtomicU64::new(0),
};

static COUNTERS: [Shard; SHARDS] = [EMPTY; SHARDS];

thread_local! {
    // Const-initialized and without a destructor: taking its address
    // never allocates and stays valid during thread teardown, which an
    // allocator hook requires.
    static MARK: u8 = const { 0 };
}

fn shard() -> &'static Shard {
    let addr = MARK.with(|m| m as *const u8 as usize);
    // Thread TLS blocks sit pages apart; fold the page bits down.
    &COUNTERS[(addr >> 12 ^ addr >> 20) % SHARDS]
}

/// The system allocator with counters.
pub struct CountingAlloc;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters are plain relaxed statistics and
// never influence what is returned.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let s = shard();
        s.allocs.fetch_add(1, Ordering::Relaxed);
        s.alloc_bytes
            .fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shard()
            .freed_bytes
            .fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let s = shard();
        s.allocs.fetch_add(1, Ordering::Relaxed);
        s.alloc_bytes
            .fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A reallocation is one allocation event; live bytes move by the
        // size difference.
        let s = shard();
        s.allocs.fetch_add(1, Ordering::Relaxed);
        s.alloc_bytes.fetch_add(new_size as u64, Ordering::Relaxed);
        s.freed_bytes
            .fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: `ptr`/`layout` describe a live `System` block and the
        // caller guarantees `new_size` is valid for the alignment.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Process-wide allocator totals at one instant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Allocation events (alloc, alloc_zeroed, realloc) so far.
    pub allocs: u64,
    /// Bytes currently allocated and not yet freed.
    pub live_bytes: u64,
}

/// Reads the totals (all zero unless [`CountingAlloc`] is installed).
pub fn snapshot() -> Snapshot {
    let mut allocs = 0u64;
    let mut allocated = 0u64;
    let mut freed = 0u64;
    for s in &COUNTERS {
        allocs += s.allocs.load(Ordering::Relaxed);
        allocated += s.alloc_bytes.load(Ordering::Relaxed);
        freed += s.freed_bytes.load(Ordering::Relaxed);
    }
    Snapshot {
        allocs,
        live_bytes: allocated.saturating_sub(freed),
    }
}
