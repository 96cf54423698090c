//! Figure 11: handling dynamic workloads, §7.4.
//!
//! Paper setup: zipf-0.99, 10,000 cached items pre-populated with the top
//! 10,000 keys, statistics reset every second, loss-adaptive client; the
//! paper's servers are emulated at 1/64 rate, ours at the simulation
//! scale. Three workloads:
//!
//! - **hot-in** (`200 coldest → top` every 10 s): deep per-second dips
//!   that recover within a few seconds as the heavy-hitter detector pulls
//!   the new hot keys into the cache; per-10s averages stay high;
//! - **random** (200 of the top 10K replaced each second): shallow dips,
//!   per-10s throughput almost unaffected;
//! - **hot-out** (200 hottest go cold each second): essentially steady.
//!
//! Run with an argument to select: `hot-in`, `random`, `hot-out`, or
//! `all` (default).

use netcache::json::escape;
use netcache_bench::scenario::{fig_json, parse_cli, write_json_file};
use netcache_bench::{banner, base_sim, to_paper_scale};
use netcache_workload::DynamicWorkload;

fn run_dynamic(name: &str, change: DynamicWorkload, period_s: f64, seconds: f64) -> String {
    banner(
        &format!("Figure 11 ({name})"),
        "per-second throughput under workload dynamics (zipf-.99, 10K cache)",
    );
    let servers = 64; // emulation-scale rack, as §7.1 does with 64 queues
    let mut config = base_sim(servers, 0.99, 10_000);
    // Dynamics can promote *any* key to the top, so the whole (reduced)
    // keyspace must be resident — unlike the static experiments, where
    // only the hot head is ever read.
    config.num_keys = 200_000;
    config.loaded_keys = None;
    config.duration_s = seconds;
    config.warmup_s = 2.0;
    config.dynamics = Some((change, period_s));
    // The paper's controller refreshes statistics and reacts at a 1-second
    // cadence (§6, §7.4); the recovery time in Fig. 11(a) comes from it.
    config.controller_interval_ms = 1_000;
    config.hot_threshold = 32;
    // The controller resets statistics every second (§6) — inherited from
    // the ControllerConfig default inside the simulator.
    let report = netcache_bench::run_saturated(config);

    println!(
        "{:>5} {:>14} {:>12} {:>9} {:>8}",
        "sec", "delivered", "hits", "hit%", "drops"
    );
    let mut window = Vec::new();
    for (i, s) in report.per_second.iter().enumerate() {
        let hitp = if s.delivered > 0 {
            s.cache_hits as f64 / s.delivered as f64 * 100.0
        } else {
            0.0
        };
        println!(
            "{:>5} {:>11.1} M {:>9.1} M {:>8.1}% {:>8}",
            i,
            to_paper_scale(s.delivered as f64) / 1e6,
            to_paper_scale(s.cache_hits as f64) / 1e6,
            hitp,
            s.drops
        );
        window.push(s.delivered);
        if window.len() == 10 {
            let avg: u64 = window.iter().sum::<u64>() / 10;
            println!(
                "      ── per-10s average: {:.1} MQPS ──",
                to_paper_scale(avg as f64) / 1e6
            );
            window.clear();
        }
    }
    // Skip partial boundary seconds when reporting the dip depth.
    let full: Vec<u64> = report
        .per_second
        .iter()
        .map(|s| s.delivered)
        .filter(|&d| d > 0)
        .collect();
    let min = full.iter().copied().min().unwrap_or(0);
    let max = full.iter().copied().max().unwrap_or(0);
    println!(
        "min/max per-second throughput: {:.1} / {:.1} MQPS (dip ratio {:.2})",
        to_paper_scale(min as f64) / 1e6,
        to_paper_scale(max as f64) / 1e6,
        min as f64 / max.max(1) as f64
    );
    println!();
    let series = report
        .per_second
        .iter()
        .map(|s| {
            format!(
                "{{\"offered\":{},\"delivered\":{},\"cache_hits\":{},\"drops\":{}}}",
                s.offered, s.delivered, s.cache_hits, s.drops
            )
        })
        .collect::<Vec<_>>()
        .join(",");
    format!(
        "{{\"name\":{},\"min_delivered\":{min},\"max_delivered\":{max},\
         \"per_second\":[{series}]}}",
        escape(name)
    )
}

fn main() {
    let cli = parse_cli("fig11_dynamics", " [hot-in|random|hot-out|all]");
    let which = match cli.positional.as_slice() {
        [] => "all".to_string(),
        [w] if ["hot-in", "random", "hot-out", "all"].contains(&w.as_str()) => w.clone(),
        other => {
            eprintln!("error: unknown workload {:?}", other[0]);
            eprintln!("usage: fig11_dynamics [--json <path>] [hot-in|random|hot-out|all]");
            std::process::exit(2);
        }
    };
    let n = 200;
    let m = 10_000;
    let mut rows = Vec::new();
    if which == "hot-in" || which == "all" {
        rows.push(run_dynamic(
            "hot-in",
            DynamicWorkload::HotIn { n },
            10.0,
            30.0,
        ));
    }
    if which == "random" || which == "all" {
        rows.push(run_dynamic(
            "random",
            DynamicWorkload::Random { n, m },
            1.0,
            20.0,
        ));
    }
    if which == "hot-out" || which == "all" {
        rows.push(run_dynamic(
            "hot-out",
            DynamicWorkload::HotOut { n },
            1.0,
            20.0,
        ));
    }
    println!(
        "Paper: hot-in recovers within seconds thanks to in-network HH \
         detection; random barely dips; hot-out is steady."
    );
    if let Some(path) = cli.json {
        write_json_file(
            &path,
            &fig_json("fig11", Some(netcache::seed_from_env(0x5eed)), &rows),
        );
    }
}
