//! Figure 10(b): throughput breakdown on individual storage servers, §7.3.
//!
//! Paper result: with caching disabled the per-server load is wildly
//! imbalanced (a few servers saturated, most idle), worse with higher
//! skew; with the NetCache switch cache enabled at zipf-0.99 the load on
//! all 128 servers is "effectively balanced".

use netcache::json::{escape, fmt_f64};
use netcache_bench::scenario::{fig_json, parse_cli, report_json, write_json_file};
use netcache_bench::{banner, base_sim, run_saturated, to_paper_scale};
use netcache_sim::SimReport;

/// Renders a compact distribution summary of per-server loads.
fn summarize(label: &str, per_server: &[f64], server_capacity: f64) {
    let mut sorted: Vec<f64> = per_server.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("loads are finite"));
    let n = sorted.len();
    let total: f64 = sorted.iter().sum();
    let max = sorted[n - 1];
    let min = sorted[0];
    let median = sorted[n / 2];
    let imbalance = if median > 0.0 { max / median } else { f64::NAN };
    println!(
        "{label:>16}: total {:>10.1} MQPS  min {:>7.2}  med {:>7.2}  max {:>7.2} MQPS  max/med {:>6.2}x  util(max) {:>5.1}%",
        to_paper_scale(total) / 1e6,
        to_paper_scale(min) / 1e6,
        to_paper_scale(median) / 1e6,
        to_paper_scale(max) / 1e6,
        imbalance,
        max / server_capacity * 100.0,
    );
    // A 16-bucket sparkline of the sorted distribution.
    let glyphs = [' ', '.', ':', '-', '=', '+', '*', '#'];
    let mut line = String::new();
    for chunk in sorted.chunks(n.div_ceil(32).max(1)) {
        let avg: f64 = chunk.iter().sum::<f64>() / chunk.len() as f64;
        let idx = ((avg / max.max(1e-9)) * (glyphs.len() - 1) as f64).round() as usize;
        line.push(glyphs[idx.min(glyphs.len() - 1)]);
    }
    println!("{:>16}  sorted loads: [{line}]", "");
}

/// One machine-readable row: the load-distribution summary plus the full
/// per-server vector (paper-scale MQPS) the figure plots.
fn row_json(label: &str, report: &SimReport) -> String {
    let loads = report
        .per_server_qps
        .iter()
        .map(|&q| fmt_f64(to_paper_scale(q) / 1e6))
        .collect::<Vec<_>>()
        .join(",");
    format!(
        "{{\"name\":{},\"per_server_mqps\":[{}],\"report\":{}}}",
        escape(label),
        loads,
        report_json(report),
    )
}

fn main() {
    let cli = parse_cli("fig10b_breakdown", "");
    banner(
        "Figure 10(b)",
        "per-server throughput: cache disabled (3 skews) vs enabled (zipf-.99)",
    );
    let servers = 128;
    let capacity = 2_000.0; // scaled per-server rate
    let mut rows = Vec::new();
    for (label, theta, cache) in [
        ("NoCache z-0.90", 0.90, 0usize),
        ("NoCache z-0.95", 0.95, 0),
        ("NoCache z-0.99", 0.99, 0),
        ("NetCache z-0.99", 0.99, 10_000),
    ] {
        let report = run_saturated(base_sim(servers, theta, cache));
        summarize(label, &report.per_server_qps, capacity);
        rows.push(row_json(label, &report));
    }
    println!();
    println!(
        "Paper: NoCache leaves most servers idle while a few saturate; \
         NetCache's switch cache absorbs the head and balances the rest."
    );
    if let Some(path) = cli.json {
        write_json_file(
            &path,
            &fig_json("fig10b", Some(netcache::seed_from_env(0x5eed)), &rows),
        );
    }
}
