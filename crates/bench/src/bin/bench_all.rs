//! The unified bench harness: drives the seeded scenario set behind the
//! figure binaries (Fig. 10 family, size mixes, multi-rack scale-out,
//! chain failover) and writes a machine-readable summary
//! (`BENCH_netcache.json` by default; `--json <path>` redirects it).
//!
//! Every scenario is deterministic for a seed: the simulator rows run in
//! virtual time, the scale-out rows derive goodput from measured load
//! counts, and the failover row reports exact op counts. The committed
//! `BENCH_netcache.json` is therefore a golden behaviour pin, written one
//! row per line: regenerate it and `git diff --exit-code` it, and the
//! diff names every row whose behaviour moved. Wall-clock timing belongs
//! to the contract benchmark (`benchmark/`).
//!
//! After writing, the harness re-reads its output and exits nonzero if
//! any number in it is not finite.

use netcache::{seed_from_env, Json};
use netcache_bench::failover::{failover_result_json, run_failover};
use netcache_bench::scaleout::{run_scaleout, scaleout_result_json, ScaleOutShape};
use netcache_bench::scenario::{named_report_json, parse_cli, write_json_file};
use netcache_bench::{banner, base_sim, fmt_qps, run_saturated, to_paper_scale};
use netcache_sim::SimConfig;
use netcache_workload::{SizeClass, SizeMix, WriteSkew};

const DEFAULT_OUT: &str = "BENCH_netcache.json";

/// Key → size-class assignment seed for the size-mixed scenarios. Fixed
/// like `PARTITION_SEED`: the size distribution is part of the scenario
/// definition, not of the replayable randomness.
const SIZE_MIX_SEED: u64 = 0x512e;

/// The size-mixed workload: mostly small items, some one-pass-plus
/// values, a tail of chunked 4 KB blobs (`(value_len, weight)` pairs).
const MIXED_SIZES: &[(usize, u32)] = &[(64, 80), (512, 15), (4096, 5)];

/// Rack counts the scale-out rows sweep.
const SCALEOUT_RACKS: [u32; 4] = [16, 32, 64, 128];

/// The scale-out fabric: two servers per rack, small on purpose (the
/// interesting contention is between racks, and total work is
/// O(racks * reads_per_rack)); one spine per 8 racks keeps the spine layer
/// proportionally provisioned as the fabric grows (DistCache's
/// constant-factor guarantee assumes the spine pool scales with the leaf
/// pool); 2 BQPS switches.
const SCALEOUT: ScaleOutShape = ScaleOutShape {
    servers_per_rack: 2,
    racks_per_spine: 8,
    num_keys: 16_384,
    leaf_cache_items: 64,
    spine_cache_items: 512,
    switch_rate: 2e9,
    reads_per_rack: 2_000,
};

/// Workload ops per failover phase.
const FAILOVER_OPS: u64 = 4_000;

struct Scenario {
    /// Stable scenario id (`figure/workload`).
    name: &'static str,
    theta: f64,
    cache_items: usize,
    write_ratio: f64,
    write_skew: WriteSkew,
    /// Value-size mixture (`(value_len, weight)`); empty = fixed 128 B.
    size_mix: &'static [(usize, u32)],
}

const SCENARIOS: &[Scenario] = &[
    Scenario {
        name: "fig10a/uniform-nocache",
        theta: 0.0,
        cache_items: 0,
        write_ratio: 0.0,
        write_skew: WriteSkew::Uniform,
        size_mix: &[],
    },
    Scenario {
        name: "fig10a/zipf99-nocache",
        theta: 0.99,
        cache_items: 0,
        write_ratio: 0.0,
        write_skew: WriteSkew::Uniform,
        size_mix: &[],
    },
    Scenario {
        name: "fig10a/zipf90-netcache",
        theta: 0.90,
        cache_items: 10_000,
        write_ratio: 0.0,
        write_skew: WriteSkew::Uniform,
        size_mix: &[],
    },
    Scenario {
        name: "fig10a/zipf99-netcache",
        theta: 0.99,
        cache_items: 10_000,
        write_ratio: 0.0,
        write_skew: WriteSkew::Uniform,
        size_mix: &[],
    },
    Scenario {
        name: "fig10d/zipf99-netcache-writes20",
        theta: 0.99,
        cache_items: 10_000,
        write_ratio: 0.2,
        write_skew: WriteSkew::Uniform,
        size_mix: &[],
    },
    // Size-mixed scenarios: the same zipf-0.99 read workload with each
    // key's value length drawn from a fixed mixture of one-pass,
    // multi-pass and chunked classes, with and without the cache.
    Scenario {
        name: "sizemix/mixed-netcache",
        theta: 0.99,
        cache_items: 10_000,
        write_ratio: 0.0,
        write_skew: WriteSkew::Uniform,
        size_mix: MIXED_SIZES,
    },
    Scenario {
        name: "sizemix/mixed-nocache",
        theta: 0.99,
        cache_items: 0,
        write_ratio: 0.0,
        write_skew: WriteSkew::Uniform,
        size_mix: MIXED_SIZES,
    },
];

fn config_for(s: &Scenario) -> SimConfig {
    let mut config = base_sim(128, s.theta, s.cache_items);
    config.write_ratio = s.write_ratio;
    config.write_skew = s.write_skew;
    config.collect_latency = true;
    if !s.size_mix.is_empty() {
        config.size_mix = Some(SizeMix::new(
            s.size_mix
                .iter()
                .map(|&(value_len, weight)| SizeClass { value_len, weight })
                .collect(),
            SIZE_MIX_SEED,
        ));
    }
    config
}

/// Collects the path of every non-finite number in `doc`. The writer
/// serializes NaN and infinities as `null`, so any `null` is one.
fn non_finite(doc: &Json, path: &str, problems: &mut Vec<String>) {
    match doc {
        Json::Null => problems.push(format!("{path}: not a finite number")),
        Json::Num(v) if !v.is_finite() => problems.push(format!("{path}: {v}")),
        Json::Arr(items) => {
            for (i, item) in items.iter().enumerate() {
                let label = item
                    .get("name")
                    .and_then(Json::as_str)
                    .map_or_else(|| format!("{path}[{i}]"), |name| format!("{path}[{name}]"));
                non_finite(item, &label, problems);
            }
        }
        Json::Obj(fields) => {
            for (key, value) in fields {
                non_finite(value, &format!("{path}.{key}"), problems);
            }
        }
        _ => {}
    }
}

fn main() {
    let cli = parse_cli("bench_all", "");
    if !cli.positional.is_empty() {
        eprintln!("error: unexpected argument {:?}", cli.positional[0]);
        eprintln!("usage: bench_all [--json <path>]");
        std::process::exit(2);
    }
    let out = cli.json.as_deref().unwrap_or(DEFAULT_OUT);
    let seed = seed_from_env(0x5eed);
    banner(
        "bench_all",
        &format!("unified scenario harness (seed {seed:#x}) -> {out}"),
    );

    println!(
        "{:>32} {:>14} {:>8} {:>11} {:>11} {:>8}",
        "scenario", "throughput", "hit%", "p50", "p99", "imbal"
    );
    let mut rows = Vec::new();
    for s in SCENARIOS {
        let report = run_saturated(config_for(s));
        println!(
            "{:>32} {:>14} {:>7.1}% {:>8.1} µs {:>8.1} µs {:>7.2}x",
            s.name,
            fmt_qps(to_paper_scale(report.goodput_qps)),
            report.hit_ratio * 100.0,
            report.latency.p50_ns as f64 / 1e3 / netcache_bench::SCALE,
            report.latency.p99_ns as f64 / 1e3 / netcache_bench::SCALE,
            report.load_imbalance(),
        );
        for class in &report.size_classes {
            println!(
                "{:>32} {:>14} {:>7.1}%",
                format!("└ {} B", class.value_len),
                fmt_qps(to_paper_scale(class.goodput_qps)),
                class.hit_ratio * 100.0,
            );
        }
        rows.push(named_report_json(s.name, &report));
    }

    // Scale-out scenario: the deployed multi-rack fabric (spine caches +
    // p2c) under zipf-0.99 reads at growing rack counts. Goodput is the
    // saturation throughput implied by the measured per-component loads;
    // efficiency compares it with the same loads perfectly balanced.
    println!(
        "{:>32} {:>14} {:>14} {:>8} {:>8}",
        "scale-out scenario", "goodput", "ideal", "eff", "tor-imb"
    );
    let mut scaleout_rows = Vec::new();
    for racks in SCALEOUT_RACKS {
        let r = run_scaleout(&SCALEOUT, racks, seed);
        println!(
            "{:>32} {:>14} {:>14} {:>8.3} {:>7.2}x",
            format!("scaleout/racks-{racks}"),
            fmt_qps(r.goodput_qps),
            fmt_qps(r.ideal_qps),
            r.efficiency,
            r.tor_imbalance,
        );
        scaleout_rows.push(scaleout_result_json(&r));
    }

    // Failover scenario: a chain-replicated rack loses a replica
    // mid-workload; report the availability gap, the repairs and the op
    // outcomes on either side of the event.
    let fo = run_failover(FAILOVER_OPS, seed);
    println!(
        "{:>32} {:>14} {:>14} {:>14}",
        "failover phase", "completed", "abandoned", "retried"
    );
    for (phase, p) in [
        ("before", fo.before),
        ("degraded", fo.degraded),
        ("recovered", fo.recovered),
    ] {
        println!(
            "{:>32} {:>14} {:>14} {:>14}",
            format!("failover/chain-rf{}/{phase}", fo.factor),
            p.completed,
            p.abandoned,
            p.retried,
        );
    }
    println!(
        "{:>32} {} ops gap, {} failovers, {} re-syncs",
        "", fo.unavailable_ops, fo.failovers, fo.resyncs,
    );

    // One row per line, so a regeneration's diff names the rows that moved.
    let payload = format!(
        "{{\"schema\":\"netcache-bench/v2\",\"seed\":{seed},\n\
         \"scenarios\":[\n{}\n],\n\
         \"scaleout\":{{\"ops_per_rack\":{},\"scenarios\":[\n{}\n]}},\n\
         \"failover\":\n{}\n}}\n",
        rows.join(",\n"),
        SCALEOUT.reads_per_rack,
        scaleout_rows.join(",\n"),
        failover_result_json(&fo)
    );
    write_json_file(out, &payload);

    // Self-check: re-read what was written and fail loudly on malformed
    // JSON or a non-finite statistic.
    let written = match std::fs::read_to_string(out) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot re-read {out}: {e}");
            std::process::exit(1);
        }
    };
    let mut problems = Vec::new();
    match Json::parse(&written) {
        Ok(doc) => non_finite(&doc, "$", &mut problems),
        Err(e) => problems.push(format!("output is not valid JSON: {e}")),
    }
    if !problems.is_empty() {
        eprintln!("error: {out} failed validation:");
        for p in &problems {
            eprintln!("  - {p}");
        }
        std::process::exit(1);
    }
    println!("validated {out}: every number finite");
}
