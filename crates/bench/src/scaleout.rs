//! Scale-out goodput scenario (the DistCache direction of §5): drives the
//! *deployed* multi-rack fabric — spine caches, p2c routing, per-rack
//! NetCache switches — at increasing rack counts under a zipf-0.99
//! read-only workload, then converts the measured load distribution into
//! an aggregate goodput bound.
//!
//! Unlike `fig10f_scalability` (which evaluates the closed-form
//! [`netcache_sim::MultiRackModel`]), every query here crosses the real
//! packet pipeline: the spine switch's cache and sketch, the p2c choice
//! between the two cached copies, the leaf ToR and the storage server.
//! Goodput is then the saturation throughput implied by the measured
//! per-component loads: the component that carries the largest share of
//! the run saturates first, so
//! `goodput = min over layers of rate * ops / max_load`.
//! `ideal` is the same bound with each layer's load spread perfectly
//! evenly over its members,
//! `ideal = min over layers of rate * members * ops / sum_load`,
//! so `efficiency = goodput / ideal <= 1` by construction: it measures how
//! close p2c and the cache layers come to perfect balance, not how much
//! the caches add.

use netcache::json::fmt_f64;
use netcache_proto::Key;
use netcache_sim::{MultiRack, MultiRackConfig};
use netcache_workload::ZipfGenerator;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Rack counts the bench sweeps.
pub const SCALEOUT_RACKS: [u32; 4] = [16, 32, 64, 128];

/// Storage servers per leaf rack. Small on purpose: the interesting
/// contention is between racks, and total work is O(racks * ops_per_rack).
pub const SERVERS_PER_RACK: u32 = 2;

/// What one rack-count sweep point measured.
#[derive(Debug, Clone)]
pub struct ScaleOutResult {
    pub racks: u32,
    pub spines: u32,
    pub servers: u32,
    pub ops: u64,
    /// Aggregate saturation throughput implied by the measured loads.
    pub goodput_qps: f64,
    /// The goodput bound had every layer's measured load been spread
    /// evenly over its members.
    pub ideal_qps: f64,
    /// `goodput_qps / ideal_qps`.
    pub efficiency: f64,
    pub spine_hits: u64,
    pub leaf_hits: u64,
    pub tor_imbalance: f64,
    pub server_imbalance: f64,
}

fn config_for(racks: u32, seed: u64) -> MultiRackConfig {
    MultiRackConfig {
        racks,
        // One spine per 8 racks keeps the spine layer proportionally
        // provisioned as the fabric grows (DistCache's constant-factor
        // guarantee assumes the spine pool scales with the leaf pool).
        spines: (racks / 8).max(2),
        servers_per_rack: SERVERS_PER_RACK,
        num_keys: 16_384,
        theta: 0.99,
        value_len: 16,
        leaf_cache_items: 64,
        spine_cache_items: 512,
        seed,
        ..MultiRackConfig::default()
    }
}

/// `min over layers of rate * ops / load(members)`: the aggregate rate
/// at which the first layer saturates, given the per-member loads a run
/// of `ops` queries left. A layer that carried nothing never saturates.
fn saturation_bound(layers: &[(f64, &[u64])], ops: u64, load: fn(&[u64]) -> f64) -> f64 {
    layers
        .iter()
        .map(|&(rate, loads)| match load(loads) {
            l if l > 0.0 => rate * ops as f64 / l,
            _ => f64::INFINITY,
        })
        .fold(f64::INFINITY, f64::min)
}

/// The busiest member's load: it saturates first.
fn max_load(loads: &[u64]) -> f64 {
    loads.iter().max().map_or(0.0, |&max| max as f64)
}

/// The load every member would carry under perfect balance.
fn mean_load(loads: &[u64]) -> f64 {
    loads.iter().sum::<u64>() as f64 / loads.len().max(1) as f64
}

/// Runs one sweep point: `ops_per_rack * racks` zipf-0.99 reads through
/// the deployed fabric, every reply checked against the dataset.
///
/// # Panics
///
/// Panics if the fabric drops or mis-answers any read — this is a
/// fault-free run, so goodput is only meaningful if every query is
/// actually served.
pub fn run_scaleout(racks: u32, ops_per_rack: u64, seed: u64) -> ScaleOutResult {
    let config = config_for(racks, seed);
    let server_rate = config.server_rate;
    let tor_rate = config.leaf_switch_rate;
    let spine_rate = config.spine_switch_rate;
    let num_keys = config.num_keys;
    let mr = MultiRack::new(config).expect("valid scale-out config");
    let mut client = mr.client(0);
    let zipf = ZipfGenerator::new(num_keys, 0.99);
    let mut rng = StdRng::seed_from_u64(seed ^ u64::from(racks));

    let ops = ops_per_rack * u64::from(racks);
    for i in 0..ops {
        let key = Key::from_u64(zipf.sample(&mut rng));
        let reply = client.get(key);
        assert!(reply.is_some(), "fault-free read dropped at op {i}");
        // Reset the p2c windows (and run cache repair) periodically, as a
        // deployment's controller cadence would.
        if i % 2_048 == 2_047 {
            mr.run_controller();
        }
    }

    let report = mr.report();
    let layers = [
        (server_rate, report.server_loads.as_slice()),
        (tor_rate, report.tor_loads.as_slice()),
        (spine_rate, report.spine_loads.as_slice()),
    ];
    let goodput = saturation_bound(&layers, ops, max_load);
    let ideal = saturation_bound(&layers, ops, mean_load);
    let servers = racks * SERVERS_PER_RACK;
    ScaleOutResult {
        racks,
        spines: report.spines,
        servers,
        ops,
        goodput_qps: goodput,
        ideal_qps: ideal,
        efficiency: goodput / ideal,
        spine_hits: report.spine_hits,
        leaf_hits: report.leaf_hits,
        tor_imbalance: report.tor_imbalance(),
        server_imbalance: report.server_imbalance(),
    }
}

/// One JSON row for the `scaleout` section of `BENCH_netcache.json`.
pub fn scaleout_result_json(r: &ScaleOutResult) -> String {
    format!(
        concat!(
            "{{\"name\":\"scaleout/racks-{}\",\"racks\":{},\"spines\":{},",
            "\"servers\":{},\"ops\":{},\"goodput_qps\":{},\"ideal_qps\":{},",
            "\"efficiency\":{},\"spine_hits\":{},\"leaf_hits\":{},",
            "\"tor_imbalance\":{},\"server_imbalance\":{}}}"
        ),
        r.racks,
        r.racks,
        r.spines,
        r.servers,
        r.ops,
        fmt_f64(r.goodput_qps),
        fmt_f64(r.ideal_qps),
        fmt_f64(r.efficiency),
        r.spine_hits,
        r.leaf_hits,
        fmt_f64(r.tor_imbalance),
        fmt_f64(r.server_imbalance),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_point_measures_positive_scaling() {
        let r = run_scaleout(16, 40, 0x5eed);
        assert_eq!(r.racks, 16);
        assert_eq!(r.servers, 32);
        assert_eq!(r.ops, 640);
        assert!(r.goodput_qps > 0.0 && r.goodput_qps.is_finite());
        assert!(
            r.efficiency > 0.0 && r.efficiency <= 1.0,
            "efficiency {}",
            r.efficiency
        );
        assert!(
            r.spine_hits + r.leaf_hits > 0,
            "no cache layer served a zipf-0.99 read workload"
        );
    }

    #[test]
    fn balanced_bound_caps_the_measured_bound() {
        // Servers are the bottleneck: the busiest one carries 60 of 100
        // ops, a perfectly balanced pair would carry 50 each.
        let layers = [(10.0, &[60, 40][..]), (1_000.0, &[100][..]), (5.0, &[][..])];
        assert_eq!(
            saturation_bound(&layers, 100, max_load),
            10.0 * 100.0 / 60.0
        );
        assert_eq!(
            saturation_bound(&layers, 100, mean_load),
            10.0 * 100.0 / 50.0
        );
        assert_eq!(saturation_bound(&[], 100, max_load), f64::INFINITY);
    }

    #[test]
    fn result_row_is_valid_json() {
        let r = run_scaleout(16, 10, 0x5eed);
        let row = scaleout_result_json(&r);
        let json = netcache::Json::parse(&row).expect("row parses");
        assert_eq!(
            json.get("name").and_then(netcache::Json::as_str),
            Some("scaleout/racks-16")
        );
        assert!(json.get_finite("efficiency").is_ok());
        assert_eq!(json.get_u64("racks"), Ok(16));
    }
}
