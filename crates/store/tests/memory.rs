//! The store's memory pin: a shard loaded the way a rack loads its
//! servers (sized by `reserve`, then one put per key) holds its items in
//! at most 110 B of live heap each for 16 B keys and 64 B values, against
//! ~245 B for a chained table of boxed values.
//!
//! A binary of its own with a single `#[test]`: the count is process-wide,
//! so a second test running on another libtest thread would pollute it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};

use netcache_proto::{Key, Value};
use netcache_store::ShardedStore;

/// Bytes allocated and not yet freed, in the whole process.
static LIVE: AtomicI64 = AtomicI64::new(0);

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a relaxed statistic and never
// influences what is returned.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        // SAFETY: the layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        // SAFETY: the layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        // SAFETY: `ptr`/`layout` describe a live `System` block and the
        // caller guarantees `new_size` is valid for the alignment.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// One server's share of the contract benchmark's 100 000 keys.
const ITEMS: u64 = 12_500;

#[test]
fn loaded_shard_holds_at_most_110_bytes_per_item() {
    let before = LIVE.load(Ordering::Relaxed);
    let store = ShardedStore::new(1);
    store.reserve(&[ITEMS as usize]);
    for id in 0..ITEMS {
        store.put(Key::from_u64(id), Value::for_item(id, 64), 1);
    }
    let per_item = (LIVE.load(Ordering::Relaxed) - before) as f64 / ITEMS as f64;
    assert_eq!(store.len(), ITEMS as usize);
    assert!(per_item <= 110.0, "{per_item:.1} B of live heap per item");
}
