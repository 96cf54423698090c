//! Failover scenario: a chain-replicated rack loses a replica
//! mid-workload and the harness counts what that failure costs — the
//! availability gap until the controller splices the dead node out
//! (abandoned ops under a bounded retry budget), the chain repairs and
//! re-syncs it takes, and per phase (before, degraded, recovered) how many
//! ops completed, were abandoned or needed a retransmission. The
//! in-process rack has no virtual clock to time a phase by, so the
//! scenario reports exact counts only: a seed reproduces them bit for bit.

use netcache::{Rack, RackConfig, RackHandle, RackReport, RetryPolicy};
use netcache_proto::{Key, Value};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Keys in the workload; small enough that every chain sees traffic.
const KEYS: u64 = 256;

/// Op outcomes of one measured phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseCounts {
    /// Ops answered within the retry budget.
    pub completed: u64,
    /// Ops abandoned after exhausting the retry budget.
    pub abandoned: u64,
    /// Ops that needed at least one retransmission (completed or not).
    pub retried: u64,
}

/// What the failover scenario measured.
#[derive(Debug, Clone)]
pub struct FailoverResult {
    /// Replication factor (replicas per partition).
    pub factor: u32,
    pub servers: u32,
    /// Workload ops per measured phase.
    pub ops: u64,
    /// Every chain at full strength.
    pub before: PhaseCounts,
    /// After the failover (degraded chains).
    pub degraded: PhaseCounts,
    /// After the node re-synced and rejoined.
    pub recovered: PhaseCounts,
    /// Ops abandoned in the detection window between the kill and the
    /// repairing controller cycle (bounded retry budget).
    pub unavailable_ops: u64,
    /// Chain members spliced out by the repair.
    pub failovers: u64,
    /// Store re-syncs performed when the node rejoined.
    pub resyncs: u64,
}

/// One measured phase: `ops` mixed get/put ops under the default retry
/// policy.
fn run_phase(rack: &Rack, rng: &mut StdRng, ops: u64) -> PhaseCounts {
    let mut client = rack.client(0);
    let mut counts = PhaseCounts::default();
    for i in 0..ops {
        let k = rng.random_range(0..KEYS);
        let key = Key::from_u64(k);
        let outcome = if rng.random::<f64>() < 0.8 {
            client.get_with_retry(key)
        } else {
            let value = Value::filled((i % 251) as u8 + 1, 64);
            client.put_with_retry(key, value)
        };
        if outcome.response.is_some() {
            counts.completed += 1;
        } else {
            counts.abandoned += 1;
        }
        if outcome.retries > 0 {
            counts.retried += 1;
        }
    }
    counts
}

/// Runs the failover scenario on an in-process rack: measure, kill a
/// replica, probe the availability gap, repair, measure degraded, bring
/// the node back, re-sync, measure recovered.
pub fn run_failover(ops: u64, seed: u64) -> FailoverResult {
    let servers = 8u32;
    let factor = 2u32;
    let mut config = RackConfig::small(servers);
    config.replication_factor = factor;
    config.controller.cache_capacity = 64;
    let rack = Rack::new(config).expect("valid failover config");
    rack.load_dataset(KEYS, 64);
    rack.populate_cache((0..64).map(Key::from_u64));
    let mut rng = StdRng::seed_from_u64(seed ^ 0xfa11);

    let before = run_phase(&rack, &mut rng, ops);

    // Kill the tail of a populated partition (the hash partitioner can
    // leave small-keyspace partitions empty, so anchor on a real key's
    // chain). Until the controller notices, reads of that partition
    // dead-end at the killed tail and burn their (small) retry budget:
    // that window is the availability gap.
    let anchor = rack.addressing().partition_of(&Key::from_u64(0));
    let victim = (anchor + factor - 1) % servers;
    rack.kill_server(victim);
    let gap_policy = RetryPolicy {
        max_retries: 2,
        ..RetryPolicy::default()
    };
    let mut gap_client = rack.client(0).with_policy(gap_policy);
    let mut unavailable_ops = 0u64;
    // Cached keys (ids < 64) keep serving from the switch even with the
    // tail dead — probe the uncached remainder of the victim's partition.
    for k in 64..KEYS {
        if rack.addressing().partition_of(&Key::from_u64(k)) != anchor {
            continue;
        }
        if gap_client
            .get_with_retry(Key::from_u64(k))
            .response
            .is_none()
        {
            unavailable_ops += 1;
        }
    }

    rack.run_controller();
    let degraded = run_phase(&rack, &mut rng, ops);

    rack.restart_server(victim);
    rack.run_controller();
    let recovered = run_phase(&rack, &mut rng, ops);

    let report = RackReport::capture(&rack);
    assert!(
        report.controller.chain_failovers >= 1,
        "failover scenario never spliced the victim: {:?}",
        report.controller
    );
    assert_eq!(
        report.replication.full_chains, servers as usize,
        "failover scenario did not recover to full chains: {:?}",
        report.replication
    );
    FailoverResult {
        factor,
        servers,
        ops,
        before,
        degraded,
        recovered,
        unavailable_ops,
        failovers: report.controller.chain_failovers,
        resyncs: report.controller.chain_resyncs,
    }
}

/// Serializes one failover result as a JSON object.
pub fn failover_result_json(r: &FailoverResult) -> String {
    let phase = |name: &str, p: &PhaseCounts| {
        format!(
            "\"{name}\":{{\"completed\":{},\"abandoned\":{},\"retried\":{}}}",
            p.completed, p.abandoned, p.retried
        )
    };
    format!(
        "{{\"name\":\"failover/chain-rf{}\",\"factor\":{},\"servers\":{},\"ops\":{},\
         {},{},{},\"unavailable_ops\":{},\"failovers\":{},\"resyncs\":{}}}",
        r.factor,
        r.factor,
        r.servers,
        r.ops,
        phase("before", &r.before),
        phase("degraded", &r.degraded),
        phase("recovered", &r.recovered),
        r.unavailable_ops,
        r.failovers,
        r.resyncs
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use netcache::Json;

    #[test]
    fn failover_scenario_runs_and_serializes() {
        let r = run_failover(200, 7);
        for p in [r.before, r.degraded, r.recovered] {
            assert_eq!(p.completed + p.abandoned, r.ops);
        }
        assert!(r.before.completed > 0 && r.recovered.completed > 0);
        assert!(r.failovers >= 1);
        assert!(r.resyncs >= 1);
        let doc = Json::parse(&failover_result_json(&r)).expect("valid json");
        assert_eq!(doc.get_u64("factor"), Ok(2));
        let before = doc.get("before").expect("before phase");
        assert_eq!(before.get_u64("completed"), Ok(r.before.completed));
        assert_eq!(doc.get_u64("failovers"), Ok(r.failovers));
    }

    #[test]
    fn failover_counts_repeat_for_a_seed() {
        let (a, b) = (run_failover(200, 7), run_failover(200, 7));
        assert_eq!(failover_result_json(&a), failover_result_json(&b));
    }
}
