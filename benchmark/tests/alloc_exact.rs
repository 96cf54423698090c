//! The counting allocator counts exactly. An integration test of its own
//! so that no other test thread allocates while it counts.

use netcache_benchmark::alloc::{snapshot, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn a_known_loop_allocates_exactly_n() {
    const N: u64 = 1000;
    let mut keep: Vec<Box<[u8; 48]>> = Vec::with_capacity(N as usize);
    let before = snapshot();
    for i in 0..N {
        keep.push(Box::new([i as u8; 48]));
    }
    let filled = snapshot();
    assert_eq!(filled.allocs - before.allocs, N);
    assert_eq!(filled.live_bytes - before.live_bytes, N * 48);

    // Frees give the bytes back and are not allocation events; a
    // reallocation is one event and moves live bytes by the difference.
    keep.truncate(10);
    let mut v: Vec<u8> = Vec::with_capacity(100);
    let trimmed = snapshot();
    assert_eq!(trimmed.allocs - filled.allocs, 1);
    assert_eq!(trimmed.live_bytes, filled.live_bytes - (N - 10) * 48 + 100);
    v.reserve_exact(1000);
    let grown = snapshot();
    assert_eq!(grown.allocs - trimmed.allocs, 1);
    assert_eq!(grown.live_bytes - trimmed.live_bytes, 900);
    drop(v);
    drop(keep);
    // Everything is returned, and so is `keep`'s own buffer of N
    // pointers, which was allocated before the first snapshot.
    assert_eq!(snapshot().live_bytes, before.live_bytes - N * 8);
}
