//! The pin on the allocation-free packet path (DESIGN.md §16): once a rack
//! is warm, a get — cached or not, single-attempt or retrying, pipelined
//! or one at a time — allocates nothing anywhere between the client call
//! and its reply, in process, through the multi-rack fabric and over UDP
//! on every socket backend, and a same-length put allocates nothing but
//! amortised table growth. The switch hardware this models has no allocator on that path;
//! neither does the model.
//!
//! A binary of its own with a single `#[test]`: the count is process-wide,
//! so a second test running on another libtest thread would pollute it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};

use netcache::runtime::RuntimeKind;
use netcache::udp::{PipelineOp, UdpRack};
use netcache::{Rack, RackConfig, RackHandle};
use netcache_proto::{Key, Value};
use netcache_sim::{MultiRack, MultiRackClient, MultiRackConfig};

/// Allocation events (alloc, alloc_zeroed, realloc) in the whole process.
static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a relaxed statistic and never
// influences what is returned.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr`/`layout` describe a live `System` block and the
        // caller guarantees `new_size` is valid for the alignment.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

fn allocs_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.load(Ordering::Relaxed);
    f();
    ALLOCS.load(Ordering::Relaxed) - before
}

const OPS: u64 = 10_000;
const VALUE_LEN: usize = 64;
/// Keys `0..CACHED` are in the switch cache, `CACHED..KEYS` are not.
const CACHED: u64 = 16;
const KEYS: u64 = 32;

fn cached_key(i: u64) -> Key {
    Key::from_u64(i % CACHED)
}

fn uncached_key(i: u64) -> Key {
    Key::from_u64(CACHED + i % (KEYS - CACHED))
}

/// A two-server rack holding `KEYS` 64-byte items, the first `CACHED` of
/// them in the switch cache.
fn loaded<R: RackHandle>(rack: R) -> R {
    rack.load_dataset(KEYS, VALUE_LEN);
    let inserted = rack.populate_cache((0..CACHED).map(Key::from_u64).collect());
    assert_eq!(inserted, CACHED as usize);
    rack
}

fn in_process_rack() {
    let rack = loaded(Rack::new(RackConfig::small(2)).expect("valid rack"));
    let mut client = rack.client(0);
    let get = |client: &mut netcache::RackClient<'_>, key: Key, cached: bool| {
        let reply = client.get(key).expect("lossless rack");
        assert_eq!(reply.served_by_cache(), cached);
        assert_eq!(reply.value().map(Value::len), Some(VALUE_LEN));
    };
    let put = |client: &mut netcache::RackClient<'_>, i: u64| {
        let key = if i.is_multiple_of(2) {
            cached_key(i / 2)
        } else {
            uncached_key(i / 2)
        };
        let reply = client.put(key, Value::for_item(i, VALUE_LEN));
        assert!(reply.is_some(), "lossless rack");
    };

    // Warm-up. The writes fill each agent's bounded duplicate-suppression
    // table (1 024 entries) several times over, so its map has reached its
    // final size; the reads take every buffer to its steady capacity and
    // let the switch report each uncached key as hot once.
    for i in 0..OPS {
        put(&mut client, i);
        get(&mut client, cached_key(i), true);
        get(&mut client, uncached_key(i), false);
    }

    let hits = allocs_during(|| (0..OPS).for_each(|i| get(&mut client, cached_key(i), true)));
    assert_eq!(hits, 0, "{OPS} cached gets through RackClient");
    let misses = allocs_during(|| (0..OPS).for_each(|i| get(&mut client, uncached_key(i), false)));
    assert_eq!(misses, 0, "{OPS} uncached gets through RackClient");
    let retried = allocs_during(|| {
        for i in 0..OPS {
            let out = client.get_with_retry(cached_key(i));
            assert_eq!(out.retries, 0, "lossless rack");
            assert!(out.response.is_some_and(|r| r.served_by_cache()));
        }
    });
    assert!(
        retried <= 16,
        "{OPS} cached gets through get_with_retry allocated {retried} times"
    );
    let puts = allocs_during(|| (0..OPS).for_each(|i| put(&mut client, i)));
    assert!(puts <= 8, "{OPS} same-length puts allocated {puts} times");
    // The puts went through: every cached key is valid again and served
    // by the switch (write-through), every other one by its server.
    get(&mut client, cached_key(0), true);
    get(&mut client, uncached_key(0), false);
}

/// The multi-rack leg: every key in `0..CACHED` is cached in its home
/// ToR and in the spine, and p2c serves each get from one of the two
/// copies; neither path allocates.
fn multi_rack() {
    let mr = MultiRack::new(MultiRackConfig {
        racks: 2,
        spines: 1,
        servers_per_rack: 2,
        num_keys: KEYS,
        value_len: VALUE_LEN,
        leaf_cache_items: CACHED as usize,
        spine_cache_items: CACHED as usize,
        ..MultiRackConfig::default()
    })
    .expect("valid fabric");
    let mut client = mr.client(0);
    let get = |client: &mut MultiRackClient<'_>, i: u64| {
        let reply = client.get(cached_key(i)).expect("lossless fabric");
        assert!(reply.served_by_cache());
        assert_eq!(reply.value().map(Value::len), Some(VALUE_LEN));
    };
    (0..OPS).for_each(|i| get(&mut client, i));
    let before = mr.report();
    let allocs = allocs_during(|| (0..OPS).for_each(|i| get(&mut client, i)));
    let after = mr.report();
    assert!(
        after.spine_hits > before.spine_hits && after.leaf_hits > before.leaf_hits,
        "both cache layers serve: {before:?} -> {after:?}"
    );
    assert_eq!(allocs, 0, "{OPS} cached gets through MultiRackClient");
}

/// The UDP leg, once per socket backend this kernel runs (a uring rack on a
/// kernel without io_uring would silently be a second batched one).
fn udp_racks() {
    for kind in [
        RuntimeKind::Uring,
        RuntimeKind::Batched,
        RuntimeKind::Portable,
    ] {
        if kind.effective() == kind {
            udp_rack(kind);
        }
    }
}

fn udp_rack(kind: RuntimeKind) {
    let rack =
        loaded(UdpRack::start_with_runtime(RackConfig::small(2), kind).expect("loopback rack"));
    let mut client = rack.client(0);
    let ops: Vec<PipelineOp> = (0..OPS)
        .map(|i| {
            PipelineOp::Get(if i.is_multiple_of(4) {
                uncached_key(i)
            } else {
                cached_key(i)
            })
        })
        .collect();
    let run = |client: &mut netcache::udp::UdpClient| {
        let report = client.run_pipelined(&ops, 64);
        assert_eq!(report.completed + report.abandoned, OPS);
        assert!(report.cache_hits > OPS / 2, "{report:?}");
    };
    run(&mut client);
    // Both threads count: the client here and the rack's host thread. What
    // remains is `run_pipelined`'s own in-flight map growing to the window.
    let allocs = allocs_during(|| run(&mut client));
    assert!(
        allocs <= 16,
        "{OPS} pipelined gets allocated {allocs} times on {}",
        kind.name()
    );
    // Window 1: the one-at-a-time get, retrying under the loopback policy.
    let get_each = |client: &mut netcache::udp::UdpClient| {
        for i in 0..OPS {
            assert!(client.get(cached_key(i)).is_some(), "loopback get");
        }
    };
    get_each(&mut client);
    let allocs = allocs_during(|| get_each(&mut client));
    assert!(
        allocs <= 16,
        "{OPS} window-1 gets allocated {allocs} times on {}",
        kind.name()
    );
    rack.stop();
}

fn switch_program() {
    // One cached key per value width: one pass, one byte past it, and the
    // sixteen-pass maximum.
    const WIDTHS: [usize; 3] = [64, 129, 2048];
    let rack = Rack::new(RackConfig::small(2)).expect("valid rack");
    let fabric = rack.fabric();
    fabric.load_dataset_with(WIDTHS.len() as u64, |id| WIDTHS[id as usize]);
    assert_eq!(rack.populate_cache((0..3).map(Key::from_u64)), 3);
    let port = fabric.addressing().client_port(0);
    let mut client = fabric.make_client(0);
    let queries: Vec<_> = (0..3).map(|id| client.get(Key::from_u64(id))).collect();
    let frame = queries[0].deparse();
    let mut scratch = Vec::with_capacity(4096);
    fabric.with_switch(|sw| {
        for (query, (width, expected)) in queries.iter().zip(WIDTHS.into_iter().zip([0, 1, 1])) {
            let allocs = allocs_during(|| {
                black_box(sw.process(query.clone(), port));
            });
            assert_eq!(allocs, expected, "cached {width} B get inside process");
        }
        let allocs = allocs_during(|| {
            sw.process_frame_with(&frame, port, &mut scratch, |port, bytes| {
                black_box((port, bytes));
            });
        });
        assert_eq!(allocs, 0, "cached-get frame through process_frame_with");
        assert_eq!(sw.stats().cache_hits, 4, "every query above was a hit");
    });
}

#[test]
fn steady_state_requests_do_not_allocate() {
    in_process_rack();
    multi_rack();
    udp_racks();
    switch_program();
}
