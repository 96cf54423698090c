//! Figure 10(e): throughput vs cache size, §7.3.
//!
//! Paper result: "With a cache size of only 1,000 items, the 128 storage
//! nodes are well balanced and achieve the same throughput as with a
//! uniform workload"; the total keeps growing with diminishing returns
//! (log-scale x-axis); with small caches zipf-0.9 outperforms zipf-0.99,
//! with large caches 0.99 overtakes (its head is more cacheable).

use netcache::json::fmt_f64;
use netcache_bench::scenario::{fig_json, parse_cli, write_json_file};
use netcache_bench::{banner, base_sim, run_saturated, to_paper_scale};

fn main() {
    let cli = parse_cli("fig10e_cache_size", "");
    banner(
        "Figure 10(e)",
        "throughput vs cache size (zipf-.90 and zipf-.99)",
    );
    let servers = 128;
    let sizes = [0usize, 100, 1_000, 2_000, 5_000, 10_000];

    println!("Discrete-event simulation (scaled to paper rates):");
    println!(
        "{:>8} | {:>11} {:>12} {:>11} | {:>11} {:>12} {:>11}",
        "items",
        "z.90 total",
        "z.90 server",
        "z.90 cache",
        "z.99 total",
        "z.99 server",
        "z.99 cache"
    );
    let mut rows = Vec::new();
    for &size in &sizes {
        let mut cells = Vec::new();
        for theta in [0.90, 0.99] {
            let mut config = base_sim(servers, theta, size);
            config.duration_s = 1.5;
            let report = run_saturated(config);
            cells.push(to_paper_scale(report.goodput_qps) / 1e6);
            cells.push(to_paper_scale(report.server_qps) / 1e6);
            cells.push(to_paper_scale(report.cache_qps) / 1e6);
        }
        println!(
            "{:>8} | {:>11.0} {:>12.0} {:>11.0} | {:>11.0} {:>12.0} {:>11.0}",
            size, cells[0], cells[1], cells[2], cells[3], cells[4], cells[5]
        );
        rows.push(format!(
            "{{\"name\":\"items-{size}\",\"cache_items\":{size},\
             \"z90_total_mqps\":{},\"z90_server_mqps\":{},\"z90_cache_mqps\":{},\
             \"z99_total_mqps\":{},\"z99_server_mqps\":{},\"z99_cache_mqps\":{}}}",
            fmt_f64(cells[0]),
            fmt_f64(cells[1]),
            fmt_f64(cells[2]),
            fmt_f64(cells[3]),
            fmt_f64(cells[4]),
            fmt_f64(cells[5]),
        ));
    }

    println!();
    println!(
        "Paper: ~1,000 items already restore the uniform-workload level \
         (≈1.28 BQPS server side); growth beyond is sublinear (log x-axis)."
    );
    if let Some(path) = cli.json {
        write_json_file(
            &path,
            &fig_json("fig10e", Some(netcache::seed_from_env(0x5eed)), &rows),
        );
    }
}
