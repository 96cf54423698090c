//! Figure 10(d): throughput vs write ratio, §7.3.
//!
//! Paper result (reads zipf-0.99): with *uniform* writes, NetCache's
//! throughput decreases roughly linearly in the write ratio (writes don't
//! benefit from the cache), while NoCache *increases* with the write ratio
//! (uniform writes are balanced). With writes as skewed as the reads,
//! NetCache degrades to — or slightly below — NoCache beyond a write ratio
//! of ~0.2, because every write invalidates the hot cached items and pays
//! the coherence overhead.

use netcache::json::fmt_f64;
use netcache_bench::scenario::{fig_json, parse_cli, write_json_file};
use netcache_bench::{banner, base_sim, run_saturated, to_paper_scale};
use netcache_workload::WriteSkew;

fn main() {
    let cli = parse_cli("fig10d_write_ratio", "");
    banner(
        "Figure 10(d)",
        "throughput vs write ratio (reads zipf-.99; writes uniform or zipf-.99)",
    );
    let servers = 128;
    println!(
        "{:>7} | {:>13} {:>13} | {:>13} {:>13}",
        "w-ratio", "NC uni-wr", "NoC uni-wr", "NC skew-wr", "NoC skew-wr"
    );
    println!(
        "{:>7} | {:>27} | {:>27}",
        "", "(uniform writes, MQPS)", "(zipf-.99 writes, MQPS)"
    );
    let mut rows = Vec::new();
    for ratio in [0.0, 0.05, 0.1, 0.2, 0.4, 0.6, 0.8, 1.0] {
        let mut cells = Vec::new();
        for write_skew in [WriteSkew::Uniform, WriteSkew::SameAsReads] {
            for cache_items in [10_000usize, 0] {
                let mut config = base_sim(servers, 0.99, cache_items);
                config.write_ratio = ratio;
                config.write_skew = write_skew;
                config.duration_s = 1.5;
                let report = run_saturated(config);
                cells.push(to_paper_scale(report.goodput_qps) / 1e6);
            }
        }
        println!(
            "{:>7.2} | {:>13.1} {:>13.1} | {:>13.1} {:>13.1}",
            ratio, cells[0], cells[1], cells[2], cells[3]
        );
        rows.push(format!(
            "{{\"name\":\"write-ratio-{ratio}\",\"write_ratio\":{},\
             \"netcache_uniform_mqps\":{},\"nocache_uniform_mqps\":{},\
             \"netcache_skewed_mqps\":{},\"nocache_skewed_mqps\":{}}}",
            fmt_f64(ratio),
            fmt_f64(cells[0]),
            fmt_f64(cells[1]),
            fmt_f64(cells[2]),
            fmt_f64(cells[3]),
        ));
    }
    println!();
    println!(
        "Paper: uniform writes degrade NetCache ~linearly while NoCache grows; \
         skewed writes erase the caching benefit beyond ratio ~0.2, where \
         NetCache ≈ (or slightly below) NoCache."
    );
    if let Some(path) = cli.json {
        write_json_file(
            &path,
            &fig_json("fig10d", Some(netcache::seed_from_env(0x5eed)), &rows),
        );
    }
}
