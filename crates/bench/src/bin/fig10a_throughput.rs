//! Figure 10(a): system throughput vs workload skew, §7.3.
//!
//! Paper result (128 servers, read-only, 10K cached items):
//!
//! - NoCache collapses under skew: 22.5% (zipf-0.95) and 15.6% (zipf-0.99)
//!   of its uniform-workload throughput;
//! - NetCache improves throughput 3.6× / 6.5× / 10× over NoCache at
//!   zipf 0.9 / 0.95 / 0.99, with the switch cache serving a large share.

use netcache::json::fmt_f64;
use netcache_bench::scenario::{fig_json, parse_cli, report_json, write_json_file};
use netcache_bench::{banner, base_sim, fmt_qps, run_saturated, to_paper_scale};

fn main() {
    let cli = parse_cli("fig10a_throughput", "");
    banner(
        "Figure 10(a)",
        "throughput vs skew: NoCache vs NetCache (10K items cached)",
    );
    let servers = 128;
    let cache_items = 10_000;
    let mut rows = Vec::new();
    println!(
        "{:>9} {:>14} {:>14} {:>9} {:>14} {:>14} {:>10}",
        "skew", "NoCache", "NetCache", "speedup", "cache part", "server part", "hit%"
    );
    let mut uniform_nocache = None;
    for (label, theta) in [
        ("uniform", 0.0),
        ("zipf-.90", 0.90),
        ("zipf-.95", 0.95),
        ("zipf-.99", 0.99),
    ] {
        let nocache = run_saturated(base_sim(servers, theta, 0));
        let netcache = run_saturated(base_sim(servers, theta, cache_items));
        if theta == 0.0 {
            uniform_nocache = Some(nocache.goodput_qps);
        }
        rows.push(format!(
            "{{\"name\":\"{label}\",\"theta\":{},\"speedup\":{},\
             \"nocache\":{},\"netcache\":{}}}",
            fmt_f64(theta),
            fmt_f64(netcache.goodput_qps / nocache.goodput_qps),
            report_json(&nocache),
            report_json(&netcache),
        ));
        println!(
            "{:>9} {:>14} {:>14} {:>8.1}x {:>14} {:>14} {:>9.1}%",
            label,
            fmt_qps(to_paper_scale(nocache.goodput_qps)),
            fmt_qps(to_paper_scale(netcache.goodput_qps)),
            netcache.goodput_qps / nocache.goodput_qps,
            fmt_qps(to_paper_scale(netcache.cache_qps)),
            fmt_qps(to_paper_scale(netcache.server_qps)),
            netcache.hit_ratio * 100.0,
        );
        if let Some(uniform) = uniform_nocache {
            if theta > 0.0 {
                println!(
                    "          NoCache retains {:.1}% of its uniform throughput \
                     (paper: 22.5% at .95, 15.6% at .99)",
                    nocache.goodput_qps / uniform * 100.0
                );
            }
        }
    }

    println!("(paper: 3.6x / 6.5x / 10x at zipf 0.9 / 0.95 / 0.99)");
    if let Some(path) = cli.json {
        write_json_file(
            &path,
            &fig_json("fig10a", Some(netcache::seed_from_env(0x5eed)), &rows),
        );
    }
}
