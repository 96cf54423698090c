//! The heap a register array holds: one bit per 1-bit slot, as the SRAM
//! accounting (`sram_bytes`) already assumes. The switch keeps its Bloom
//! partitions and `cache_status.valid` bits in such arrays.
//!
//! A binary of its own with a single `#[test]`: the count is process-wide,
//! so a second test running on another libtest thread would pollute it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use netcache_dataplane::register::RegisterArray;

/// Bytes requested by allocations so far, in the whole process.
static ALLOCATED: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a relaxed statistic and never
// influences what is returned.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size(), Ordering::Relaxed);
        // SAFETY: the layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size(), Ordering::Relaxed);
        // SAFETY: the layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATED.fetch_add(new_size, Ordering::Relaxed);
        // SAFETY: `ptr`/`layout` describe a live `System` block and the
        // caller guarantees `new_size` is valid for the alignment.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

#[test]
fn bool_array_holds_one_bit_per_slot() {
    let before = ALLOCATED.load(Ordering::Relaxed);
    let bits: RegisterArray<bool> = RegisterArray::new("stats.bloom", 262_144);
    let held = ALLOCATED.load(Ordering::Relaxed) - before;
    assert_eq!(bits.sram_bytes(), 32 * 1024);
    assert!(held <= 32 * 1024, "{held} B of heap for 262 144 bits");
}
