//! Figure 10(c): average latency vs system throughput, §7.3.
//!
//! Paper result (zipf-0.99, read-only): NoCache serves everything from
//! servers at ~15 µs average and saturates at 0.2 BQPS, after which queues
//! grow without bound. NetCache stays at 11-12 µs (cache hits cost ~7 µs,
//! client-dominated) with steady latency as throughput grows to 2 BQPS.
//!
//! Latency constants are the paper's, scaled with the simulation's time
//! base (servers run `SCALE`× slower), and divided back out for display:
//! a cache hit costs the client-side ~7 µs; a server round trip adds NIC +
//! shim overhead for ~15 µs; queueing appears as the load approaches
//! saturation.

use netcache::json::fmt_f64;
use netcache_bench::scenario::{fig_json, parse_cli, report_json, write_json_file};
use netcache_bench::{banner, base_sim, fmt_qps, to_paper_scale, PARTITION_SEED, SCALE};
use netcache_sim::rack_sim::LatencyModel;
use netcache_sim::{AnalyticModel, RackSim};

fn main() {
    let cli = parse_cli("fig10c_latency", "");
    banner(
        "Figure 10(c)",
        "average latency vs throughput (zipf-.99 reads)",
    );
    let servers = 128;

    // Paper latency constants, stretched to the simulator's time base.
    let scaled = |us: f64| (us * 1_000.0 * SCALE) as u64;
    let latency = LatencyModel {
        client_overhead_ns: scaled(6.0),
        hop_ns: scaled(0.25),
        switch_ns: scaled(0.4),
        server_overhead_ns: scaled(7.0),
    };

    // Saturation estimate for the NoCache sweep range (scaled QPS).
    let no_sat = AnalyticModel::new(
        servers,
        netcache_bench::NUM_KEYS,
        0.99,
        0,
        2_000.0,
        4e5,
        PARTITION_SEED,
    )
    .saturated_throughput();
    let cache_sat = 4e5; // scaled 2 BQPS client cap

    println!(
        "{:>6} | {:>14} {:>11} | {:>14} {:>11}",
        "load", "NoCache tput", "avg lat", "NetCache tput", "avg lat"
    );
    let mut rows = Vec::new();
    for frac in [0.1, 0.3, 0.5, 0.7, 0.85, 0.95, 1.05] {
        let mut row = format!("{:>5.0}% |", frac * 100.0);
        let mut reports = Vec::new();
        for (cache_items, sat) in [(0usize, no_sat), (10_000, cache_sat)] {
            let mut config = base_sim(servers, 0.99, cache_items);
            config.fixed_rate_qps = Some(sat * frac);
            config.collect_latency = true;
            config.latency = latency;
            config.duration_s = 1.5;
            config.warmup_s = 1.0;
            let report = RackSim::new(config).expect("valid config").run();
            row.push_str(&format!(
                " {:>14} {:>8.1} µs",
                fmt_qps(to_paper_scale(report.goodput_qps)),
                report.latency.mean_ns / 1e3 / SCALE,
            ));
            if cache_items == 0 {
                row.push_str(" |");
            }
            reports.push(report);
        }
        println!("{row}");
        rows.push(format!(
            "{{\"name\":\"load-{:.0}%\",\"load_fraction\":{},\
             \"nocache\":{},\"netcache\":{}}}",
            frac * 100.0,
            fmt_f64(frac),
            report_json(&reports[0]),
            report_json(&reports[1]),
        ));
    }
    println!();
    println!(
        "Paper: NoCache flat at ~15 µs until 0.2 BQPS then saturates; \
         NetCache 11-12 µs steady to 2 BQPS (hits ~7 µs)."
    );
    if let Some(path) = cli.json {
        write_json_file(
            &path,
            &fig_json("fig10c", Some(netcache::seed_from_env(0x5eed)), &rows),
        );
    }
}
