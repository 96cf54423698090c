//! Figure 10(f): scaling out to multiple racks, §7.3 + §5.
//!
//! Paper result (simulation, read-only, up to 4096 servers on 32 racks):
//! NoCache stays flat ("bottlenecked by the most loaded node"); caching
//! only in ToR switches (Leaf-Cache) gives limited growth because
//! inter-rack imbalance remains; caching in spine switches as well
//! (Leaf-Spine-Cache) grows linearly with the number of servers.
//!
//! Measured on the deployed `MultiRack` fabric through
//! [`run_scaleout`], the same path as `bench_all`'s `scaleout` rows. The
//! three schemes are cache sizes of one fabric: 16 servers per rack
//! (the paper's 128 scaled down to keep the sweep to seconds), one spine
//! per rack, 10 MQPS servers, ToRs and spines at the paper's 2 BQPS per
//! 128 servers, 65 536 keys and 20 000 zipf-0.99 reads per rack.

use netcache::json::fmt_f64;
use netcache_bench::scaleout::{run_scaleout, ScaleOutShape};
use netcache_bench::scenario::{fig_json, parse_cli, write_json_file};
use netcache_bench::{banner, fmt_qps, PAPER_SWITCH_RATE};

const RACKS: [u32; 6] = [1, 2, 4, 8, 16, 32];

const SERVERS_PER_RACK: u32 = 16;

/// The Leaf-Spine-Cache fabric; the other two schemes zero its caches.
/// ToRs and spines keep the paper's 2 BQPS per 128 servers.
const LEAF_SPINE: ScaleOutShape = ScaleOutShape {
    servers_per_rack: SERVERS_PER_RACK,
    racks_per_spine: 1,
    num_keys: 65_536,
    leaf_cache_items: 64,
    spine_cache_items: 2_048,
    switch_rate: PAPER_SWITCH_RATE * SERVERS_PER_RACK as f64 / 128.0,
    reads_per_rack: 20_000,
};

/// NoCache, Leaf-Cache, Leaf-Spine-Cache.
const SCHEMES: [ScaleOutShape; 3] = [
    ScaleOutShape {
        leaf_cache_items: 0,
        spine_cache_items: 0,
        ..LEAF_SPINE
    },
    ScaleOutShape {
        spine_cache_items: 0,
        ..LEAF_SPINE
    },
    LEAF_SPINE,
];

fn main() {
    let cli = parse_cli("fig10f_scalability", "");
    let seed = netcache::seed_from_env(0x5eed);
    banner(
        "Figure 10(f)",
        "scale-out on the deployed fabric: NoCache vs Leaf-Cache vs Leaf-Spine-Cache",
    );
    println!(
        "{:>6} {:>8} | {:>12} {:>14} {:>18}",
        "racks", "servers", "NoCache", "Leaf-Cache", "Leaf-Spine-Cache"
    );
    let mut series = Vec::new();
    let mut rows = Vec::new();
    for racks in RACKS {
        let [no, leaf, spine] = SCHEMES.map(|shape| run_scaleout(&shape, racks, seed).goodput_qps);
        let servers = racks * SERVERS_PER_RACK;
        println!(
            "{:>6} {:>8} | {:>12} {:>14} {:>18}",
            racks,
            servers,
            fmt_qps(no),
            fmt_qps(leaf),
            fmt_qps(spine)
        );
        rows.push(format!(
            "{{\"name\":\"racks-{racks}\",\"racks\":{racks},\"servers\":{servers},\
             \"nocache_qps\":{},\"leaf_cache_qps\":{},\"leaf_spine_qps\":{}}}",
            fmt_f64(no),
            fmt_f64(leaf),
            fmt_f64(spine),
        ));
        series.push([no, leaf, spine]);
    }
    let (first, last) = (series[0], series[series.len() - 1]);
    let [n, l, s] = [0, 1, 2].map(|i| last[i] / first[i]);
    println!();
    println!(
        "Scaling 1→32 racks: NoCache {n:.2}x (paper: flat), Leaf {l:.1}x \
         (paper: limited), Leaf-Spine {s:.1}x (paper: ~linear, 32x)"
    );
    if let Some(path) = cli.json {
        write_json_file(&path, &fig_json("fig10f", Some(seed), &rows));
    }
}
