//! Figure 10(f): scaling out to multiple racks, §7.3 + §5.
//!
//! Paper result (simulation, read-only, up to 4096 servers on 32 racks):
//! NoCache stays flat ("bottlenecked by the most loaded node"); caching
//! only in ToR switches (Leaf-Cache) gives limited growth because
//! inter-rack imbalance remains; caching in spine switches as well
//! (Leaf-Spine-Cache) grows linearly with the number of servers.

use netcache::json::fmt_f64;
use netcache_bench::scenario::{fig_json, parse_cli, write_json_file};
use netcache_bench::{banner, fmt_qps};
use netcache_sim::{MultiRackConfig, MultiRackModel, ScaleOutScheme};

fn main() {
    let cli = parse_cli("fig10f_scalability", "");
    banner(
        "Figure 10(f)",
        "scale-out simulation: NoCache vs Leaf-Cache vs Leaf-Spine-Cache",
    );
    let model = MultiRackModel::new(MultiRackConfig {
        servers_per_rack: 128,
        num_keys: 10_000_000,
        theta: 0.99,
        leaf_cache_items: 10_000,
        spine_cache_items: 10_000,
        server_rate: 10e6,
        leaf_switch_rate: 2e9,
        partition_seed: 42,
        ..MultiRackConfig::default()
    })
    .expect("valid config");
    let racks = [1u32, 2, 4, 8, 16, 32];
    println!(
        "{:>6} {:>8} | {:>12} {:>14} {:>18}",
        "racks", "servers", "NoCache", "Leaf-Cache", "Leaf-Spine-Cache"
    );
    let mut first = None;
    let mut rows = Vec::new();
    for &r in &racks {
        let no = model.throughput(r, ScaleOutScheme::NoCache);
        let leaf = model.throughput(r, ScaleOutScheme::LeafCache);
        let spine = model.throughput(r, ScaleOutScheme::LeafSpineCache);
        if first.is_none() {
            first = Some((no, leaf, spine));
        }
        println!(
            "{:>6} {:>8} | {:>12} {:>14} {:>18}",
            r,
            r * 128,
            fmt_qps(no),
            fmt_qps(leaf),
            fmt_qps(spine)
        );
        rows.push(format!(
            "{{\"name\":\"racks-{r}\",\"racks\":{r},\"servers\":{},\
             \"nocache_qps\":{},\"leaf_cache_qps\":{},\"leaf_spine_qps\":{}}}",
            r * 128,
            fmt_f64(no),
            fmt_f64(leaf),
            fmt_f64(spine),
        ));
    }
    let (n0, l0, s0) = first.expect("at least one rack count");
    let n = model.throughput(32, ScaleOutScheme::NoCache) / n0;
    let l = model.throughput(32, ScaleOutScheme::LeafCache) / l0;
    let s = model.throughput(32, ScaleOutScheme::LeafSpineCache) / s0;
    println!();
    println!(
        "Scaling 1→32 racks: NoCache {n:.1}x (paper: flat), Leaf {l:.1}x \
         (paper: limited), Leaf-Spine {s:.1}x (paper: ~linear, 32x)"
    );
    if let Some(path) = cli.json {
        write_json_file(
            &path,
            &fig_json("fig10f", netcache::seed_from_env(0x5eed), &rows),
        );
    }
}
