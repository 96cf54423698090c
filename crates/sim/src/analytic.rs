//! Closed-form saturated-throughput model for a single rack.
//!
//! The paper's server-rotation methodology (§7.1) finds "the maximum
//! effective system throughput": the largest client rate at which the
//! bottleneck partition is exactly saturated. That quantity has a closed
//! form once the per-key query probabilities and the cache contents are
//! fixed:
//!
//! ```text
//! share_i  = Σ_{key k: home(k)=i, k ∉ cache} p(k)        (uncached load)
//! O*       = T / max_i share_i                            (max client rate)
//! goodput  = O*                  (all queries answered: hits by the
//!                                 switch, misses by non-saturated servers)
//! ```
//!
//! The figure binaries use it to seed a simulation's starting client rate
//! (`run_saturated`) and to size the offered-load sweep of Fig. 10(c); the
//! numbers they print all come from the discrete-event simulator.

use netcache_proto::Key;
use netcache_store::Partitioner;
use netcache_workload::ZipfGenerator;

/// Analytic single-rack model.
#[derive(Debug, Clone)]
pub struct AnalyticModel {
    per_server_uncached: Vec<f64>,
    cached_mass: f64,
    server_rate: f64,
    switch_rate: f64,
}

impl AnalyticModel {
    /// Builds the model: `num_keys` keys with Zipf skew `theta`, the top
    /// `cache_items` cached, partitioned over `servers` servers each
    /// serving `server_rate` QPS, with the switch capped at `switch_rate`
    /// QPS (one pipe's worth in the worst case, §4.4.4).
    pub fn new(
        servers: u32,
        num_keys: u64,
        theta: f64,
        cache_items: u64,
        server_rate: f64,
        switch_rate: f64,
        partition_seed: u64,
    ) -> Self {
        let zipf = ZipfGenerator::new(num_keys, theta);
        let partitioner = Partitioner::new(servers, partition_seed);
        let mut per_server_uncached = vec![0.0f64; servers as usize];
        let mut cached_mass = 0.0;
        // Hash the head exactly; the deep tail's per-key mass is tiny and
        // hash-partitioning spreads it uniformly, so it is added as a flat
        // per-server term. This keeps the model O(1M) for 100M-key spaces.
        let head = num_keys.min(cache_items.max(2_000_000));
        for rank in 0..head {
            let p = zipf.probability(rank);
            if rank < cache_items {
                cached_mass += p;
            } else {
                let server = partitioner.partition_of(&Key::from_u64(rank));
                per_server_uncached[server as usize] += p;
            }
        }
        if head < num_keys {
            let tail_mass = 1.0 - zipf.head_mass(head);
            let per_server = tail_mass / f64::from(servers);
            for share in &mut per_server_uncached {
                *share += per_server;
            }
        }
        AnalyticModel {
            per_server_uncached,
            cached_mass,
            server_rate,
            switch_rate,
        }
    }

    /// Maximum client rate with no server overloaded (and the switch under
    /// its cap): the saturated system throughput.
    pub fn saturated_throughput(&self) -> f64 {
        let max_share = self.per_server_uncached.iter().copied().fold(0.0, f64::max);
        let server_bound = if max_share > 0.0 {
            self.server_rate / max_share
        } else {
            f64::INFINITY
        };
        let switch_bound = if self.cached_mass > 0.0 {
            self.switch_rate / self.cached_mass
        } else {
            f64::INFINITY
        };
        let bound = server_bound.min(switch_bound);
        if bound.is_infinite() {
            // Degenerate: everything cached and no switch cap.
            self.switch_rate
        } else {
            bound
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(theta: f64, cache: u64) -> AnalyticModel {
        AnalyticModel::new(128, 1_000_000, theta, cache, 10e6, 2e9, 1)
    }

    #[test]
    fn uniform_nocache_is_near_ideal() {
        let ideal = 128.0 * 10e6;
        let sat = model(0.0, 0).saturated_throughput();
        // Hash partitioning over 100K keys: within ~20% of perfect balance.
        assert!(sat > ideal * 0.75, "sat {sat:.3e} vs ideal {ideal:.3e}");
        assert!(sat <= ideal * 1.01);
    }

    #[test]
    fn skew_collapses_nocache_throughput() {
        // Paper Fig. 10(a): NoCache at zipf-0.99 drops to 15.6% of uniform.
        let uniform = model(0.0, 0).saturated_throughput();
        let skewed = model(0.99, 0).saturated_throughput();
        let frac = skewed / uniform;
        assert!(
            (0.02..0.4).contains(&frac),
            "zipf-.99 NoCache fraction {frac}"
        );
    }

    #[test]
    fn netcache_beats_nocache_and_speedup_grows_with_skew() {
        // Paper: 3.6× (zipf-0.9), 6.5× (0.95), 10× (0.99) with 10K cached.
        // The analytic model (no client-side caps, ideal absorption)
        // over-predicts the absolute factors by ~2×, but the shape — a
        // multi-fold win that grows with skew — must hold.
        let mut speedups = Vec::new();
        for theta in [0.90, 0.95, 0.99] {
            let no = model(theta, 0).saturated_throughput();
            let yes = model(theta, 10_000).saturated_throughput();
            let speedup = yes / no;
            assert!(
                (2.0..40.0).contains(&speedup),
                "theta {theta}: speedup {speedup}"
            );
            speedups.push(speedup);
        }
        assert!(
            speedups[0] < speedups[1] && speedups[1] < speedups[2],
            "speedup must grow with skew: {speedups:?}"
        );
    }

    #[test]
    fn small_cache_already_balances() {
        // Paper Fig. 10(e): ~1000 cached items balance 128 servers back to
        // the uniform-workload level.
        let uniform = model(0.0, 0).saturated_throughput();
        let total = model(0.99, 1000).saturated_throughput();
        assert!(
            total >= uniform * 0.8,
            "total {total:.3e} vs uniform {uniform:.3e}"
        );
    }

    #[test]
    fn switch_cap_binds_under_extreme_caching() {
        // With everything cached, the switch pipe rate is the limit.
        let m = AnalyticModel::new(4, 100, 0.9, 100, 1000.0, 50_000.0, 1);
        assert!(m.cached_mass > 0.999);
        assert!((m.saturated_throughput() - 50_000.0).abs() < 1.0);
    }

    #[test]
    fn shares_sum_to_one() {
        let m = model(0.99, 10_000);
        let total: f64 = m.per_server_uncached.iter().sum::<f64>() + m.cached_mass;
        assert!((total - 1.0).abs() < 1e-9);
    }
}
