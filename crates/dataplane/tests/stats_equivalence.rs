//! Equivalence between the standalone `netcache-sketch` structures and
//! their register-array renditions inside the switch program.
//!
//! The two share `HashFamily` placement when seeded identically, so after
//! identical input streams the register-array Count-Min sketch must hold
//! exactly the counters the standalone one holds — proving the switch
//! statistics engine is the same mathematical object, just mapped onto
//! per-stage stateful memory.

use netcache_dataplane::program::stats::QueryStats;
use netcache_dataplane::SwitchConfig;
use netcache_proto::Key;
use netcache_sketch::CountMinSketch;

fn config() -> SwitchConfig {
    let mut c = SwitchConfig::tiny();
    c.sample_rate = 1.0; // no sampling: streams must match exactly
    c.hot_threshold = u16::MAX; // no reports; pure counting
    c
}

#[test]
fn register_array_cms_equals_standalone_cms() {
    let config = config();
    let mut stats = QueryStats::new(&config);
    // QueryStats derives its CMS hash family from `seed ^ 0xc35`.
    let mut standalone =
        CountMinSketch::new(config.cms_depth, config.cms_width, config.seed ^ 0xc35);

    // A skewed stream with repeats and collisions.
    let mut epoch = 0u64;
    for i in 0..5_000u64 {
        let key = Key::from_u64(i % 257);
        epoch += 1;
        stats.on_cache_miss(epoch, &key);
        standalone.increment(key.as_bytes());
    }

    // Row-by-row, slot-by-slot equality.
    for row in 0..config.cms_depth {
        let reference = standalone.row(row);
        for (slot, &want) in reference.iter().enumerate() {
            assert_eq!(
                stats.cms_rows()[row].peek(slot),
                want,
                "row {row} slot {slot} diverged"
            );
        }
    }

    // And therefore identical estimates.
    for i in 0..257u64 {
        let key = Key::from_u64(i);
        assert_eq!(
            {
                // Estimate via the standalone object sharing placement.
                standalone.estimate(key.as_bytes())
            },
            {
                let mut min = u16::MAX;
                for row in 0..config.cms_depth {
                    let slot = standalone.slot(row, key.as_bytes());
                    min = min.min(stats.cms_rows()[row].peek(slot));
                }
                min
            },
            "estimate diverged for key {i}"
        );
    }
}

#[test]
fn sampling_only_thins_counts_never_inflates() {
    let mut config = config();
    config.sample_rate = 0.25;
    let mut sampled = QueryStats::new(&config);
    config.sample_rate = 1.0;
    let mut full = QueryStats::new(&config);

    let mut epoch = 0u64;
    for i in 0..20_000u64 {
        let key = Key::from_u64(i % 64);
        epoch += 1;
        sampled.on_cache_miss(epoch, &key);
        full.on_cache_miss(epoch, &key);
    }
    for row in 0..config.cms_depth {
        for slot in 0..config.cms_width {
            assert!(
                sampled.cms_rows()[row].peek(slot) <= full.cms_rows()[row].peek(slot),
                "sampling inflated a counter at row {row} slot {slot}"
            );
        }
    }
}
