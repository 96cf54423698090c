//! Property tests of the data-plane building blocks.

use std::cmp::Ordering;

use netcache_dataplane::program::status::CacheStatus;
use netcache_dataplane::program::values::ValueStages;
use netcache_dataplane::table::LpmTable;
use netcache_proto::Value;
use proptest::prelude::*;

proptest! {
    /// Values of any length round-trip through any bitmap with enough bits,
    /// via the data-plane write path and the data-plane read path.
    #[test]
    fn value_stages_roundtrip(
        len in 1usize..=128,
        bitmap in 1u8..=255,
        index in 0u32..16,
        fill in any::<u8>(),
    ) {
        let mut stages = ValueStages::new(8, 16);
        let value = Value::filled(fill, len);
        let fits = value.units() <= bitmap.count_ones() as usize;
        let wrote = stages.write_value(1, bitmap, index, 1, &value);
        prop_assert_eq!(wrote, fits);
        if fits {
            let back = stages.read_value(2, bitmap, index, 1, len as u16);
            prop_assert_eq!(back, Some(value));
        }
    }

    /// Values of any length up to the 2 KB recirculation cap round-trip
    /// through the multi-pass layout (full bins + a final tail bitmap).
    #[test]
    fn value_stages_multi_pass_roundtrip(
        len in 1usize..=netcache_proto::MAX_VALUE_LEN,
        index in 0u32..16,
        fill in any::<u8>(),
    ) {
        let value = Value::filled(fill, len);
        let passes = value.passes() as u8;
        let tail = value.units() - (passes as usize - 1) * 8;
        let bitmap = ((1u16 << tail) - 1) as u8;
        let mut stages = ValueStages::new(8, 16 + netcache_proto::MAX_RECIRC_PASSES);
        prop_assert!(stages.write_value(1, bitmap, index, passes, &value));
        let back = stages.read_value(100, bitmap, index, passes, len as u16);
        prop_assert_eq!(back, Some(value));
    }

    /// A shorter re-write through the same allocation reads back exactly,
    /// whatever the pass count of the original allocation.
    #[test]
    fn value_stages_shrinking_rewrite(
        first in 1usize..=2048,
        second in 1usize..=2048,
        index in 0u32..8,
    ) {
        let (big, small) = if first >= second { (first, second) } else { (second, first) };
        let big_v = Value::filled(0xAA, big);
        let passes = big_v.passes() as u8;
        let tail = big_v.units() - (passes as usize - 1) * 8;
        let bitmap = ((1u16 << tail) - 1) as u8;
        let mut stages = ValueStages::new(8, 8 + netcache_proto::MAX_RECIRC_PASSES);
        prop_assert!(stages.write_value(1, bitmap, index, passes, &big_v));
        prop_assert!(stages.write_value(100, bitmap, index, passes, &Value::filled(0xBB, small)));
        let back = stages.read_value(200, bitmap, index, passes, small as u16);
        prop_assert_eq!(back, Some(Value::filled(0xBB, small)));
    }

    /// LPM behaves exactly like a reference longest-prefix scan.
    #[test]
    fn lpm_matches_reference(
        routes in proptest::collection::vec((any::<u32>(), 0u8..=32, any::<u16>()), 0..24),
        probes in proptest::collection::vec(any::<u32>(), 1..32),
    ) {
        let mut lpm: LpmTable<u16> = LpmTable::new();
        // Reference: last-inserted wins for identical prefixes, like the map.
        let mut reference: Vec<(u32, u8, u16)> = Vec::new();
        for &(prefix, len, port) in &routes {
            lpm.insert(prefix, len, port);
            let mask = if len == 0 { 0 } else { u32::MAX << (32 - u32::from(len)) };
            reference.retain(|&(p, l, _)| !(l == len && p & mask == prefix & mask));
            reference.push((prefix & mask, len, port));
        }
        for &addr in &probes {
            let expected = reference
                .iter()
                .filter(|&&(p, l, _)| {
                    let mask = if l == 0 { 0 } else { u32::MAX << (32 - u32::from(l)) };
                    addr & mask == p
                })
                .max_by_key(|&&(_, l, _)| l)
                .map(|&(_, _, port)| port);
            prop_assert_eq!(lpm.lookup(addr).copied(), expected, "addr {:#010x}", addr);
        }
    }

    /// Status versions are monotone: replaying any subsequence of older
    /// updates never re-validates an entry past a newer applied version.
    #[test]
    fn status_versions_monotone(mut versions in proptest::collection::vec(1u32..1000, 1..40)) {
        let mut status = CacheStatus::new(4);
        status.install(0, versions[0]);
        let mut newest = versions[0];
        versions.remove(0);
        for (i, v) in versions.into_iter().enumerate() {
            let epoch = (i + 1) as u64;
            let applied = status.apply_update(epoch, 0, v) == Ordering::Greater;
            if applied {
                prop_assert!(
                    v.wrapping_sub(newest) as i32 > 0,
                    "stale version {} applied over {}", v, newest
                );
                newest = v;
            }
            prop_assert_eq!(status.peek_version(0), newest);
        }
    }
}
