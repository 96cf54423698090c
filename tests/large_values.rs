//! Variable-length values end-to-end (§2).
//!
//! A single item now carries up to `MAX_VALUE_LEN` (2 KB) bytes and is
//! served from the switch cache by recirculating the packet through the
//! value stages; payloads beyond that fall back to the §2 chunking
//! scheme. These tests pin the boundaries between the classes, the
//! recirculated cached path, overwrite interleavings, and a differential
//! against server ground truth under seeded network faults.

use netcache::{seed_from_env, FaultConfig, Rack, RackConfig, RackHandle};
use netcache_client::chunked::{self, FIRST_CHUNK_PAYLOAD, MAX_LARGE_LEN};
use netcache_proto::{Key, MAX_VALUE_LEN};
use proptest::prelude::*;

fn rack() -> Rack {
    let mut config = RackConfig::small(4);
    config.controller.cache_capacity = 32;
    config.switch.hot_threshold = 8;
    Rack::new(config).expect("valid config")
}

fn payload(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i * 13 % 251) as u8).collect()
}

#[test]
fn boundary_sizes_round_trip() {
    let r = rack();
    let mut c = r.client(0);
    // Every size-class boundary: empty, one pipeline pass's worth of
    // VALUE, the largest single (recirculated) item, the first chunked
    // payload, the two-/three-chunk boundary, and the absolute cap.
    let sizes = [
        0usize,
        1,
        128,
        129,
        FIRST_CHUNK_PAYLOAD - 1,
        FIRST_CHUNK_PAYLOAD,
        FIRST_CHUNK_PAYLOAD + 1,
        FIRST_CHUNK_PAYLOAD + MAX_VALUE_LEN,
        FIRST_CHUNK_PAYLOAD + MAX_VALUE_LEN + 1,
        MAX_LARGE_LEN,
    ];
    for len in sizes {
        let base = Key::from_u64(10_000 + len as u64);
        let p = payload(len);
        c.put_large(base, &p).expect("stored");
        let (back, _) = c.get_large(base).expect("read back");
        assert_eq!(back, p, "len {len}");
    }
    assert!(
        c.put_large(Key::from_u64(9), &payload(MAX_LARGE_LEN + 1))
            .is_none(),
        "over-cap payload must be rejected, not truncated"
    );
}

#[test]
fn hot_multi_pass_item_served_by_recirculation() {
    let r = rack();
    let mut c = r.client(0);
    let base = Key::from_u64(1);
    // 2044 B payload -> one 2048 B item: 128 units, 16 pipeline passes.
    let p = payload(FIRST_CHUNK_PAYLOAD);
    c.put_large(base, &p).expect("stored");
    for _ in 0..40 {
        c.get_large(base).expect("read");
    }
    r.run_controller();
    assert!(r.is_cached(&base), "hot single-item key should be admitted");
    let recirc_before = r.switch_stats().recirculations;
    let (back, all_cached) = c.get_large(base).expect("read");
    assert_eq!(back, p);
    assert!(
        all_cached,
        "the one constituent item should be switch-served"
    );
    assert_eq!(
        r.switch_stats().recirculations,
        recirc_before + 15,
        "a 16-pass cached read recirculates 15 times"
    );
}

#[test]
fn hot_chunked_item_gets_fully_cached() {
    let r = rack();
    let mut c = r.client(0);
    let base = Key::from_u64(1);
    let p = payload(FIRST_CHUNK_PAYLOAD + 2 * MAX_VALUE_LEN); // 3 chunks
    c.put_large(base, &p).expect("stored");
    // Reading heats every chunk key; the HH detector sees each chunk as
    // its own item (no new switch mechanism needed).
    for _ in 0..40 {
        c.get_large(base).expect("read");
    }
    r.run_controller();
    let (back, all_cached) = c.get_large(base).expect("read");
    assert_eq!(back, p);
    assert!(all_cached, "all 3 chunks should be switch-served");
}

#[test]
fn overwrite_with_different_size() {
    let r = rack();
    let mut c = r.client(0);
    let base = Key::from_u64(2);
    c.put_large(base, &payload(5_000)).expect("stored");
    // Shrink below one item.
    let small = payload(50);
    c.put_large(base, &small).expect("stored");
    let (back, _) = c.get_large(base).expect("read");
    assert_eq!(back, small);
    // Grow back across the chunking boundary.
    let big = payload(7_000);
    c.put_large(base, &big).expect("stored");
    let (back, _) = c.get_large(base).expect("read");
    assert_eq!(back, big);
}

#[test]
fn plain_small_values_and_chunked_share_namespace() {
    // A payload that fits one VALUE field is a single ordinary item
    // readable as such (with the 4-byte manifest header).
    let r = rack();
    let mut c = r.client(0);
    let base = Key::from_u64(3);
    let p = payload(300);
    c.put_large(base, &p).expect("stored");
    let raw = c.get(base).expect("reply");
    let (total, first) = chunked::decode_manifest(raw.value().expect("value")).expect("manifest");
    assert_eq!(total, 300);
    assert_eq!(first, &p[..]);
}

#[test]
fn missing_chunk_is_detected() {
    let r = rack();
    let mut c = r.client(0);
    let base = Key::from_u64(4);
    c.put_large(base, &payload(FIRST_CHUNK_PAYLOAD + 2 * MAX_VALUE_LEN))
        .expect("stored");
    // Delete one continuation chunk behind the reader's back.
    c.delete(chunked::chunk_key(base, 2)).expect("ack");
    assert!(
        c.get_large(base).is_none(),
        "corruption must not go unnoticed"
    );
}

/// Under seeded loss/duplication/reordering, reads of fault-free-written
/// items must be all-or-nothing: every successful `get_large` —
/// recirculation-cached or server-served — returns the ground-truth
/// bytes exactly, and the stores themselves hold precisely the chunk
/// layout `chunked::split` prescribes.
#[test]
fn faulty_network_reads_match_server_ground_truth() {
    let seed = seed_from_env(0xfa_1a46e);
    let mut config = RackConfig::small(4);
    config.controller.cache_capacity = 32;
    config.switch.hot_threshold = 8;
    config.faults = FaultConfig {
        loss: 0.05,
        duplicate: 0.02,
        reorder: 0.02,
        max_delay_ns: 20_000,
        seed,
    };
    let r = Rack::new(config).expect("valid config");
    let mut c = r.client(0);

    // One item per size class: multi-pass single item and chunked.
    let sizes = [300usize, FIRST_CHUNK_PAYLOAD, 6_000];
    for (i, &len) in sizes.iter().enumerate() {
        let base = Key::from_u64(100 + i as u64);
        let p = payload(len);
        // Composite writes abort on any lost constituent; rewriting the
        // same chunks is idempotent, so retry until one pass fully acks.
        let stored = (0..100).any(|_| c.put_large(base, &p).is_some());
        assert!(stored, "write never fully acked (seed {seed:#x})");
    }

    // Heat the keys and let the controller admit them mid-faults.
    for round in 0..60 {
        for (i, &len) in sizes.iter().enumerate() {
            let base = Key::from_u64(100 + i as u64);
            if let Some((back, _)) = c.get_large(base) {
                assert_eq!(back, payload(len), "partial/stale read (seed {seed:#x})");
            }
        }
        if round % 20 == 19 {
            r.run_controller();
        }
    }
    assert!(
        r.switch_stats().recirculations > 0,
        "hot multi-pass items never served by recirculation (seed {seed:#x})"
    );

    // Differential against the stores: every chunk of every item sits in
    // its owning server exactly as `split` prescribes.
    for (i, &len) in sizes.iter().enumerate() {
        let base = Key::from_u64(100 + i as u64);
        for (index, value) in chunked::split(&payload(len)).expect("fits") {
            let key = chunked::chunk_key(base, index);
            let home = r.addressing().home_of(&key);
            let item = r
                .server(home.server)
                .fetch(&key)
                .unwrap_or_else(|| panic!("chunk {index} of item {i} missing from store"));
            assert_eq!(
                item.value, value,
                "store diverged at chunk {index} of item {i} (seed {seed:#x})"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16 })]

    /// Round trip at arbitrary sizes, biased toward the class boundaries.
    #[test]
    fn round_trip_any_size(
        len in prop_oneof![
            Just(0usize),
            Just(FIRST_CHUNK_PAYLOAD - 1),
            Just(FIRST_CHUNK_PAYLOAD),
            Just(FIRST_CHUNK_PAYLOAD + 1),
            Just(MAX_LARGE_LEN),
            0usize..10_000,
        ],
    ) {
        let r = rack();
        let mut c = r.client(0);
        let base = Key::from_u64(77);
        let p = payload(len);
        prop_assert!(c.put_large(base, &p).is_some());
        let (back, _) = c.get_large(base).expect("read back");
        prop_assert_eq!(back, p);
    }

    /// Manifest-before-data overwrite ordering: a reader interleaved with
    /// an overwrite's constituent writes must always observe a payload of
    /// either the old or the new total length (a stale manifest may pair
    /// with already-rewritten continuation bytes, which the length checks
    /// in `reassemble` can reject — but never a dangling manifest, and
    /// single-item overwrites are fully atomic). After the final write the
    /// new bytes are visible exactly.
    #[test]
    fn overwrite_interleavings_never_dangle(
        old_len in prop_oneof![Just(0usize), Just(FIRST_CHUNK_PAYLOAD), 0usize..7_000],
        new_len in prop_oneof![Just(0usize), Just(FIRST_CHUNK_PAYLOAD), 0usize..7_000],
    ) {
        let r = rack();
        let mut c = r.client(0);
        let base = Key::from_u64(5);
        let old = payload(old_len);
        let mut new = payload(new_len);
        for b in &mut new {
            *b = b.wrapping_add(1); // distinguishable contents
        }
        c.put_large(base, &old).expect("stored");

        let both_single = old_len <= FIRST_CHUNK_PAYLOAD && new_len <= FIRST_CHUNK_PAYLOAD;
        // Replay put_large one constituent write at a time, reading
        // between writes like a concurrent reader would.
        let chunks = chunked::split(&new).expect("fits");
        for (index, value) in chunks {
            let key = chunked::chunk_key(base, index);
            c.put(key, value).expect("fault-free write");
            match c.get_large(base) {
                Some((back, _)) => {
                    prop_assert!(
                        back.len() == old_len || back.len() == new_len,
                        "reader saw length {} (old {}, new {})",
                        back.len(), old_len, new_len
                    );
                    if both_single {
                        prop_assert!(
                            back == old || back == new,
                            "single-item overwrite must be atomic"
                        );
                    }
                }
                None => prop_assert!(
                    !both_single,
                    "single-item reads can never fail mid-overwrite"
                ),
            }
        }
        let (back, _) = c.get_large(base).expect("read after overwrite");
        prop_assert_eq!(back, new);
    }
}
