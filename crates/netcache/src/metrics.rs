//! Consolidated rack metrics: one structure aggregating the counters and
//! latency distributions of every component, with a human-readable
//! rendering for operations tooling and a stable JSON snapshot
//! ([`RackReport::to_json`]) for the bench harness.

use core::fmt;

use netcache_controller::ControllerStats;
use netcache_dataplane::SwitchStats;
use netcache_server::ServerStats;

use crate::fabric::RackHandle;
use crate::fault::FaultStats;
use crate::hist::Histogram;
use crate::json::fmt_f64;
use crate::runtime::TransportStats;

/// A point-in-time snapshot of every counter in the rack.
#[derive(Debug, Clone)]
pub struct RackReport {
    /// Switch data-plane counters.
    pub switch: SwitchStats,
    /// Per-server agent counters, indexed by server id.
    pub servers: Vec<ServerStats>,
    /// Controller counters.
    pub controller: ControllerStats,
    /// Keys currently cached.
    pub cached_keys: usize,
    /// Control-plane updates performed on the switch.
    pub control_updates: u64,
    /// Faults injected by the network model.
    pub faults: FaultStats,
    /// Client retransmissions (requests re-sent under a retry policy).
    pub client_retries: u64,
    /// Replies clients discarded as stale or duplicate.
    pub stale_replies: u64,
    /// Requests abandoned after exhausting a retry budget.
    pub abandoned_requests: u64,
    /// End-to-end per-operation client latency (wall clock, nanoseconds;
    /// includes retransmission rounds).
    pub op_latency: Histogram,
    /// Switch per-packet service time (wall clock, nanoseconds).
    pub switch_latency: Histogram,
    /// Server per-packet service time (wall clock, nanoseconds).
    pub server_latency: Histogram,
    /// Socket-transport syscall/datagram counters (all zero on
    /// deployments that move packets without sockets).
    pub transport: TransportStats,
    /// Datagrams per non-empty receive batch on the socket transport
    /// (empty on non-socket deployments).
    pub batch_occupancy: Histogram,
    /// Chain-replication health (factor 1 with every chain "full" on
    /// unreplicated racks).
    pub replication: ReplicationReport,
}

/// Chain-replication health: how many partitions are at full strength,
/// running degraded (fewer live replicas than the factor), or unserved
/// (every replica down).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicationReport {
    /// Configured replicas per partition (1 = unreplicated).
    pub factor: u32,
    /// Partitions whose chain has all `factor` members.
    pub full_chains: usize,
    /// Partitions serving with fewer members than the factor.
    pub degraded_chains: usize,
    /// Partitions with no live replica at all.
    pub unserved_partitions: usize,
}

impl RackReport {
    /// Captures a snapshot from any rack deployment (in-process, UDP, or
    /// simulated — anything implementing [`RackHandle`]).
    pub fn capture<H: RackHandle + ?Sized>(rack: &H) -> Self {
        let servers = (0..rack.config().servers)
            .map(|i| rack.server_stats(i))
            .collect();
        let counters = rack.client_counters();
        let replication = rack.with_controller(|c| match c.chain_manager() {
            Some(cm) => {
                let mut r = ReplicationReport {
                    factor: cm.factor(),
                    full_chains: 0,
                    degraded_chains: 0,
                    unserved_partitions: 0,
                };
                for p in 0..cm.servers() {
                    let members = cm.chain(p).len() as u32;
                    if members == 0 {
                        r.unserved_partitions += 1;
                    } else if members < r.factor {
                        r.degraded_chains += 1;
                    } else {
                        r.full_chains += 1;
                    }
                }
                r
            }
            None => ReplicationReport {
                factor: 1,
                full_chains: rack.config().servers as usize,
                degraded_chains: 0,
                unserved_partitions: 0,
            },
        });
        RackReport {
            switch: rack.switch_stats(),
            servers,
            controller: rack.controller_stats(),
            cached_keys: rack.cached_keys(),
            control_updates: rack.with_switch(|sw| sw.control_updates()),
            faults: rack.faults().stats(),
            client_retries: counters.retries(),
            stale_replies: counters.stale_replies(),
            abandoned_requests: counters.abandoned(),
            op_latency: rack.op_latency(),
            switch_latency: rack.switch_service(),
            server_latency: rack.server_service(),
            transport: rack.transport_stats(),
            batch_occupancy: rack.batch_occupancy(),
            replication,
        }
    }

    /// Total Get queries served by storage servers.
    pub fn server_gets(&self) -> u64 {
        self.servers.iter().map(|s| s.gets).sum()
    }

    /// Total writes committed by storage servers.
    pub fn server_writes(&self) -> u64 {
        self.servers.iter().map(|s| s.puts + s.deletes).sum()
    }

    /// Cache hit ratio among read queries the switch classified.
    pub fn hit_ratio(&self) -> f64 {
        let reads = self.switch.cache_hits + self.switch.invalid_hits + self.switch.cache_misses;
        if reads == 0 {
            0.0
        } else {
            self.switch.cache_hits as f64 / reads as f64
        }
    }

    /// Per-server load: queries each storage server actually served
    /// (gets + puts + deletes) — the distribution the paper's Fig. 10(b)
    /// plots, and the quantity DistCache-style balance claims are stated
    /// over.
    pub fn server_loads(&self) -> Vec<u64> {
        self.servers
            .iter()
            .map(|s| s.gets + s.puts + s.deletes)
            .collect()
    }

    /// Load-imbalance factor: max over mean of [`RackReport::server_loads`]
    /// (1.0 = perfectly balanced; 0.0 when no server served anything).
    pub fn load_imbalance(&self) -> f64 {
        load_imbalance_of(&self.server_loads())
    }

    /// A stable machine-readable snapshot (schema
    /// `netcache-rack-report/v4` — v4 dropped the io_uring zero-copy send
    /// counter with the ring send path; v3 added the switch
    /// `recirculations` counter for multi-pass values; v2 added the
    /// transport backend label and the io_uring ring counters). Key order
    /// is fixed; a golden test pins it so the bench schema cannot drift
    /// silently.
    pub fn to_json(&self) -> String {
        let loads = self.server_loads();
        let loads_json = loads
            .iter()
            .map(|l| l.to_string())
            .collect::<Vec<_>>()
            .join(",");
        format!(
            "{{\"schema\":\"netcache-rack-report/v4\",\
             \"switch\":{{\"packets\":{},\"netcache_packets\":{},\"cache_hits\":{},\
             \"invalid_hits\":{},\"cache_misses\":{},\"write_invalidations\":{},\
             \"updates_applied\":{},\"updates_ignored\":{},\"drops\":{},\
             \"recirculations\":{},\"hit_ratio\":{}}},\
             \"servers\":{{\"count\":{},\"gets\":{},\"writes\":{},\"not_found\":{},\
             \"updates_sent\":{},\"update_retries\":{},\"updates_abandoned\":{},\
             \"writes_blocked\":{},\"loads\":[{}],\"load_imbalance\":{}}},\
             \"controller\":{{\"reports\":{},\"insertions\":{},\"evictions\":{},\
             \"repairs\":{},\"reorganized\":{},\"stats_resets\":{}}},\
             \"cache\":{{\"cached_keys\":{},\"control_updates\":{}}},\
             \"network\":{{\"dropped\":{},\"duplicated\":{},\"reordered\":{},\"delayed\":{},\
             \"client_retries\":{},\"stale_replies\":{},\"abandoned_requests\":{}}},\
             \"latency\":{{\"op\":{},\"switch\":{},\"server\":{}}},\
             \"transport\":{{\"backend\":\"{}\",\
             \"recv_syscalls\":{},\"recv_packets\":{},\
             \"send_syscalls\":{},\"send_packets\":{},\"syscalls_per_packet\":{},\
             \"cqe_batches\":{},\
             \"batch_occupancy\":{}}},\
             \"replication\":{{\"factor\":{},\"full_chains\":{},\
             \"degraded_chains\":{},\"unserved_partitions\":{},\
             \"chain_writes\":{},\"chain_commits\":{},\
             \"failovers\":{},\"resyncs\":{}}}}}",
            self.switch.packets,
            self.switch.netcache_packets,
            self.switch.cache_hits,
            self.switch.invalid_hits,
            self.switch.cache_misses,
            self.switch.write_invalidations,
            self.switch.updates_applied,
            self.switch.updates_ignored,
            self.switch.drops,
            self.switch.recirculations,
            fmt_f64(self.hit_ratio()),
            self.servers.len(),
            self.server_gets(),
            self.server_writes(),
            self.servers.iter().map(|s| s.not_found).sum::<u64>(),
            self.servers.iter().map(|s| s.updates_sent).sum::<u64>(),
            self.servers.iter().map(|s| s.update_retries).sum::<u64>(),
            self.servers
                .iter()
                .map(|s| s.updates_abandoned)
                .sum::<u64>(),
            self.servers.iter().map(|s| s.writes_blocked).sum::<u64>(),
            loads_json,
            fmt_f64(load_imbalance_of(&loads)),
            self.controller.reports,
            self.controller.insertions,
            self.controller.evictions,
            self.controller.repairs,
            self.controller.reorganized,
            self.controller.stats_resets,
            self.cached_keys,
            self.control_updates,
            self.faults.dropped,
            self.faults.duplicated,
            self.faults.reordered,
            self.faults.delayed,
            self.client_retries,
            self.stale_replies,
            self.abandoned_requests,
            self.op_latency.to_json(),
            self.switch_latency.to_json(),
            self.server_latency.to_json(),
            self.transport.backend,
            self.transport.recv_syscalls,
            self.transport.recv_packets,
            self.transport.send_syscalls,
            self.transport.send_packets,
            fmt_f64(self.transport.syscalls_per_packet()),
            self.transport.cqe_batches,
            self.batch_occupancy.to_json(),
            self.replication.factor,
            self.replication.full_chains,
            self.replication.degraded_chains,
            self.replication.unserved_partitions,
            self.switch.chain_writes,
            self.switch.chain_commits,
            self.controller.chain_failovers,
            self.controller.chain_resyncs,
        )
    }
}

/// Max-over-mean load imbalance of a per-server load vector (0.0 when the
/// total load is zero, 1.0 when perfectly balanced).
pub fn load_imbalance_of(loads: &[u64]) -> f64 {
    if loads.is_empty() {
        return 0.0;
    }
    let total: u64 = loads.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let mean = total as f64 / loads.len() as f64;
    let max = *loads.iter().max().expect("non-empty") as f64;
    max / mean
}

impl fmt::Display for RackReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "rack report")?;
        writeln!(
            f,
            "  switch : {} pkts, {} hits / {} misses / {} invalid-hits ({:.1}% hit ratio)",
            self.switch.packets,
            self.switch.cache_hits,
            self.switch.cache_misses,
            self.switch.invalid_hits,
            self.hit_ratio() * 100.0,
        )?;
        writeln!(
            f,
            "           {} invalidations, {} updates applied / {} ignored, {} drops",
            self.switch.write_invalidations,
            self.switch.updates_applied,
            self.switch.updates_ignored,
            self.switch.drops,
        )?;
        writeln!(
            f,
            "  servers: {} gets ({} not-found), {} writes, {} updates sent ({} retries, {} abandoned), {} writes blocked",
            self.server_gets(),
            self.servers.iter().map(|s| s.not_found).sum::<u64>(),
            self.server_writes(),
            self.servers.iter().map(|s| s.updates_sent).sum::<u64>(),
            self.servers.iter().map(|s| s.update_retries).sum::<u64>(),
            self.servers.iter().map(|s| s.updates_abandoned).sum::<u64>(),
            self.servers.iter().map(|s| s.writes_blocked).sum::<u64>(),
        )?;
        writeln!(
            f,
            "  ctrl   : {} cached, {} reports -> {} inserts / {} evicts, {} repairs, {} moves, {} resets",
            self.cached_keys,
            self.controller.reports,
            self.controller.insertions,
            self.controller.evictions,
            self.controller.repairs,
            self.controller.reorganized,
            self.controller.stats_resets,
        )?;
        writeln!(
            f,
            "  switch control-plane updates: {}",
            self.control_updates
        )?;
        writeln!(
            f,
            "  network: {} dropped / {} duplicated / {} reordered / {} delayed; \
             {} client retries, {} stale replies, {} abandoned",
            self.faults.dropped,
            self.faults.duplicated,
            self.faults.reordered,
            self.faults.delayed,
            self.client_retries,
            self.stale_replies,
            self.abandoned_requests,
        )?;
        if self.transport.packets() > 0 {
            writeln!(
                f,
                "  transport[{}]: {} syscalls / {} datagrams ({:.2} per datagram), \
                 batch occupancy p50 {} / max {}",
                self.transport.backend,
                self.transport.syscalls(),
                self.transport.packets(),
                self.transport.syscalls_per_packet(),
                self.batch_occupancy.p50(),
                self.batch_occupancy.max(),
            )?;
        }
        if self.replication.factor > 1 {
            writeln!(
                f,
                "  chains : factor {}, {} full / {} degraded / {} unserved; \
                 {} chain writes, {} commits, {} failovers, {} resyncs",
                self.replication.factor,
                self.replication.full_chains,
                self.replication.degraded_chains,
                self.replication.unserved_partitions,
                self.switch.chain_writes,
                self.switch.chain_commits,
                self.controller.chain_failovers,
                self.controller.chain_resyncs,
            )?;
        }
        if !self.op_latency.is_empty() {
            writeln!(
                f,
                "  latency: op p50 {} / p99 {} ns ({} ops); switch svc p50 {} ns, \
                 server svc p50 {} ns; load imbalance {:.2}x",
                self.op_latency.p50(),
                self.op_latency.p99(),
                self.op_latency.count(),
                self.switch_latency.p50(),
                self.server_latency.p50(),
                self.load_imbalance(),
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Rack, RackConfig};
    use netcache_proto::{Key, Value};

    #[test]
    fn report_aggregates_counters() {
        let mut config = RackConfig::small(4);
        config.controller.cache_capacity = 8;
        let rack = Rack::new(config).expect("valid config");
        rack.load_dataset(100, 32);
        rack.populate_cache((0..8).map(Key::from_u64));
        let mut c = rack.client(0);
        c.get(Key::from_u64(1)).expect("reply"); // hit
        c.get(Key::from_u64(50)).expect("reply"); // miss
        c.put(Key::from_u64(1), Value::filled(9, 32)).expect("ack");

        let report = RackReport::capture(&rack);
        assert_eq!(report.switch.cache_hits, 1);
        assert_eq!(report.switch.cache_misses, 1);
        assert_eq!(report.server_gets(), 1);
        assert_eq!(report.server_writes(), 1);
        assert_eq!(report.cached_keys, 8);
        assert!(report.hit_ratio() > 0.0);

        let text = report.to_string();
        assert!(text.contains("rack report"));
        assert!(text.contains("8 cached"));
    }

    #[test]
    fn empty_rack_renders() {
        let rack = Rack::new(RackConfig::small(2)).expect("valid config");
        let report = RackReport::capture(&rack);
        assert_eq!(report.hit_ratio(), 0.0);
        assert!(!report.to_string().is_empty());
    }
}
