//! Scale-out goodput scenario (Fig. 10(f), and the DistCache direction of
//! §5): drives the *deployed* multi-rack fabric — spine caches, p2c
//! routing, per-rack NetCache switches — at a given rack count under a
//! zipf-0.99 read-only workload, then converts the measured load
//! distribution into an aggregate goodput bound. `fig10f_scalability` and
//! `bench_all`'s `scaleout` rows both run through [`run_scaleout`], each
//! with its own [`ScaleOutShape`]; the paper's three schemes are cache
//! sizes of that shape: NoCache `(0, 0)`, Leaf-Cache `(L, 0)`,
//! Leaf-Spine-Cache `(L, S)`.
//!
//! Every query crosses the real packet pipeline: the spine switch's cache
//! and sketch, the p2c choice between the two cached copies, the leaf ToR
//! and the storage server. Goodput is then the saturation throughput
//! implied by the measured per-component loads: the component that
//! carries the largest share of the run saturates first, so
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

use crate::PAPER_SERVER_RATE;

/// The fabric a sweep point builds and the reads it offers. Storage
/// servers run at the paper's 10 MQPS. The two callers size the rest
/// differently: `bench_all` pins a small, fast shape byte for byte,
/// `fig10f_scalability` sets the paper's switch-to-rack rate ratio.
#[derive(Debug, Clone, Copy)]
pub struct ScaleOutShape {
    /// Storage servers per leaf rack.
    pub servers_per_rack: u32,
    /// One spine switch per this many racks (at least one spine).
    pub racks_per_spine: u32,
    /// Distinct keys in the workload.
    pub num_keys: u64,
    /// Items cached per ToR (0 = no leaf cache).
    pub leaf_cache_items: usize,
    /// Items cached across the spine layer (0 = no spine layer).
    pub spine_cache_items: usize,
    /// A ToR or spine switch's rate, QPS. Every query into a rack crosses
    /// its ToR; every query the spine layer does not route to a leaf copy
    /// crosses a spine.
    pub switch_rate: f64,
    /// Zipf-0.99 reads offered per leaf rack.
    pub reads_per_rack: u64,
}

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

fn config_for(shape: &ScaleOutShape, racks: u32, seed: u64) -> MultiRackConfig {
    MultiRackConfig {
        racks,
        spines: (racks / shape.racks_per_spine).max(1),
        servers_per_rack: shape.servers_per_rack,
        num_keys: shape.num_keys,
        theta: 0.99,
        value_len: 16,
        leaf_cache_items: shape.leaf_cache_items,
        spine_cache_items: shape.spine_cache_items,
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

/// Runs one sweep point: `shape.reads_per_rack * racks` zipf-0.99 reads
/// through the deployed fabric of `racks` leaf racks. `seed` seeds the
/// fabric's switches and controllers and the read sequence.
///
/// # Panics
///
/// Panics if the fabric drops any read — this is a fault-free run, so
/// goodput is only meaningful if every query is actually served.
pub fn run_scaleout(shape: &ScaleOutShape, racks: u32, seed: u64) -> ScaleOutResult {
    let mr = MultiRack::new(config_for(shape, racks, seed)).expect("valid scale-out config");
    let mut client = mr.client(0);
    let zipf = ZipfGenerator::new(shape.num_keys, 0.99);
    let mut rng = StdRng::seed_from_u64(seed ^ u64::from(racks));

    let ops = shape.reads_per_rack * u64::from(racks);
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
        (PAPER_SERVER_RATE, report.server_loads.as_slice()),
        (shape.switch_rate, report.tor_loads.as_slice()),
        (shape.switch_rate, report.spine_loads.as_slice()),
    ];
    let goodput = saturation_bound(&layers, ops, max_load);
    let ideal = saturation_bound(&layers, ops, mean_load);
    ScaleOutResult {
        racks,
        spines: report.spines,
        servers: racks * shape.servers_per_rack,
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

    /// Sized for a debug build: 4 servers per rack, one spine per rack,
    /// ToRs and spines at the paper's 2 BQPS per 128 servers.
    const SHAPE: ScaleOutShape = ScaleOutShape {
        servers_per_rack: 4,
        racks_per_spine: 1,
        num_keys: 16_384,
        leaf_cache_items: 32,
        spine_cache_items: 256,
        switch_rate: 2e9 * 4.0 / 128.0,
        reads_per_rack: 2_000,
    };

    #[test]
    fn sweep_point_measures_positive_scaling() {
        let shape = ScaleOutShape {
            reads_per_rack: 40,
            ..SHAPE
        };
        let r = run_scaleout(&shape, 16, 0x5eed);
        assert_eq!(r.racks, 16);
        assert_eq!(r.servers, 64);
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

    /// Fig. 10(f)'s shape on the deployed fabric: at the largest rack
    /// count NoCache < Leaf-Cache < Leaf-Spine-Cache, and NoCache grows
    /// least from one rack.
    #[test]
    fn cache_layers_order_the_schemes_as_in_the_paper() {
        let schemes = [(0, 0), (32, 0), (32, 256)];
        let goodput = |racks| {
            schemes.map(|(leaf_cache_items, spine_cache_items)| {
                let shape = ScaleOutShape {
                    leaf_cache_items,
                    spine_cache_items,
                    ..SHAPE
                };
                run_scaleout(&shape, racks, 0x5eed).goodput_qps
            })
        };
        let (one, eight) = (goodput(1), goodput(8));
        assert!(
            eight[0] < eight[1] && eight[1] < eight[2],
            "NoCache / Leaf / Leaf-Spine at 8 racks: {eight:?}"
        );
        let growth = [0, 1, 2].map(|i| eight[i] / one[i]);
        assert!(
            growth[0] < growth[1] && growth[0] < growth[2],
            "1 -> 8 rack growth: {growth:?}"
        );
    }

    #[test]
    fn the_seed_moves_the_loads() {
        let shape = ScaleOutShape {
            reads_per_rack: 500,
            ..SHAPE
        };
        let loads = |seed| {
            let r = run_scaleout(&shape, 4, seed);
            (
                r.server_imbalance,
                r.tor_imbalance,
                r.spine_hits,
                r.leaf_hits,
            )
        };
        assert_ne!(loads(1), loads(2));
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
        let shape = ScaleOutShape {
            reads_per_rack: 10,
            ..SHAPE
        };
        let r = run_scaleout(&shape, 16, 0x5eed);
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
