//! Golden snapshot of [`RackReport::to_json`]: pins the
//! `netcache-rack-report/v4` schema byte for byte, so any field rename,
//! reorder, or format change is a deliberate, reviewed schema bump — the
//! bench harness and any external plotting scripts parse this output.
//!
//! The report is hand-built (live captures embed wall-clock latencies and
//! would never be byte-stable); the values are arbitrary but distinct, so
//! a swapped pair of fields cannot cancel out.

use netcache::hist::Histogram;
use netcache::json::Json;
use netcache::{FaultStats, RackReport, ReplicationReport, TransportStats};
use netcache_controller::ControllerStats;
use netcache_dataplane::SwitchStats;
use netcache_server::ServerStats;

/// A fully deterministic report with every section populated.
fn sample_report() -> RackReport {
    let mut op_latency = Histogram::new();
    let mut switch_latency = Histogram::new();
    let mut server_latency = Histogram::new();
    let mut batch_occupancy = Histogram::new();
    for v in [1_000u64, 2_000, 4_000, 150_000] {
        op_latency.record(v);
    }
    for v in [8u64, 8, 16, 32] {
        batch_occupancy.record(v);
    }
    for v in [40u64, 50, 60] {
        switch_latency.record(v);
    }
    for v in [900u64, 1_100] {
        server_latency.record(v);
    }
    RackReport {
        switch: SwitchStats {
            packets: 120,
            netcache_packets: 100,
            cache_hits: 60,
            invalid_hits: 5,
            cache_misses: 15,
            write_invalidations: 7,
            updates_applied: 9,
            updates_ignored: 1,
            drops: 2,
            recirculations: 34,
            chain_writes: 21,
            chain_commits: 19,
        },
        servers: vec![
            ServerStats {
                gets: 12,
                not_found: 1,
                puts: 6,
                deletes: 2,
                updates_sent: 4,
                update_retries: 1,
                updates_abandoned: 0,
                acks_matched: 4,
                writes_blocked: 1,
                dup_writes_ignored: 0,
                chain_applied: 5,
                chain_forwarded: 6,
            },
            ServerStats {
                gets: 8,
                not_found: 0,
                puts: 3,
                deletes: 1,
                updates_sent: 2,
                update_retries: 0,
                updates_abandoned: 0,
                acks_matched: 2,
                writes_blocked: 0,
                dup_writes_ignored: 1,
                chain_applied: 3,
                chain_forwarded: 4,
            },
        ],
        controller: ControllerStats {
            reports: 30,
            insertions: 10,
            evictions: 3,
            repairs: 1,
            reorganized: 2,
            stats_resets: 5,
            chain_failovers: 2,
            chain_resyncs: 1,
            ..ControllerStats::default()
        },
        cached_keys: 7,
        control_updates: 25,
        faults: FaultStats {
            dropped: 11,
            duplicated: 4,
            reordered: 3,
            delayed: 6,
        },
        client_retries: 13,
        stale_replies: 2,
        abandoned_requests: 1,
        op_latency,
        switch_latency,
        server_latency,
        transport: TransportStats {
            backend: "uring",
            recv_syscalls: 50,
            recv_packets: 400,
            send_syscalls: 30,
            send_packets: 380,
            cqe_batches: 12,
        },
        batch_occupancy,
        replication: ReplicationReport {
            factor: 2,
            full_chains: 1,
            degraded_chains: 1,
            unserved_partitions: 0,
        },
    }
}

/// The pinned golden output. Regenerate (and bump the schema version) only
/// on a deliberate schema change.
const GOLDEN: &str = "{\"schema\":\"netcache-rack-report/v4\",\
\"switch\":{\"packets\":120,\"netcache_packets\":100,\"cache_hits\":60,\
\"invalid_hits\":5,\"cache_misses\":15,\"write_invalidations\":7,\
\"updates_applied\":9,\"updates_ignored\":1,\"drops\":2,\
\"recirculations\":34,\"hit_ratio\":0.75},\
\"servers\":{\"count\":2,\"gets\":20,\"writes\":12,\"not_found\":1,\
\"updates_sent\":6,\"update_retries\":1,\"updates_abandoned\":0,\
\"writes_blocked\":1,\"loads\":[20,12],\"load_imbalance\":1.25},\
\"controller\":{\"reports\":30,\"insertions\":10,\"evictions\":3,\
\"repairs\":1,\"reorganized\":2,\"stats_resets\":5},\
\"cache\":{\"cached_keys\":7,\"control_updates\":25},\
\"network\":{\"dropped\":11,\"duplicated\":4,\"reordered\":3,\"delayed\":6,\
\"client_retries\":13,\"stale_replies\":2,\"abandoned_requests\":1},\
\"latency\":{\
\"op\":{\"count\":4,\"min\":1000,\"max\":150000,\"sum\":157000,\"mean\":39250.0,\
\"p50\":1984,\"p90\":150000,\"p99\":150000,\"p999\":150000,\
\"buckets\":[[190,1],[222,1],[254,1],[420,1]]},\
\"switch\":{\"count\":3,\"min\":40,\"max\":60,\"sum\":150,\"mean\":50.0,\
\"p50\":50,\"p90\":60,\"p99\":60,\"p999\":60,\
\"buckets\":[[40,1],[50,1],[60,1]]},\
\"server\":{\"count\":2,\"min\":900,\"max\":1100,\"sum\":2000,\"mean\":1000.0,\
\"p50\":900,\"p90\":1100,\"p99\":1100,\"p999\":1100,\
\"buckets\":[[184,1],[194,1]]}},\
\"transport\":{\"backend\":\"uring\",\
\"recv_syscalls\":50,\"recv_packets\":400,\
\"send_syscalls\":30,\"send_packets\":380,\
\"syscalls_per_packet\":0.10256410256410256,\
\"cqe_batches\":12,\
\"batch_occupancy\":{\"count\":4,\"min\":8,\"max\":32,\"sum\":64,\"mean\":16.0,\
\"p50\":8,\"p90\":32,\"p99\":32,\"p999\":32,\
\"buckets\":[[8,2],[16,1],[32,1]]}},\
\"replication\":{\"factor\":2,\"full_chains\":1,\
\"degraded_chains\":1,\"unserved_partitions\":0,\
\"chain_writes\":21,\"chain_commits\":19,\
\"failovers\":2,\"resyncs\":1}}";

#[test]
fn rack_report_json_matches_golden_snapshot() {
    let json = sample_report().to_json();
    assert_eq!(
        json, GOLDEN,
        "RackReport::to_json drifted from the pinned netcache-rack-report/v4 \
         schema; if the change is intentional, update the golden snapshot \
         (and bump the schema version for field changes)"
    );
}

#[test]
fn rack_report_json_round_trips_through_parser() {
    let report = sample_report();
    let parsed = Json::parse(&report.to_json()).expect("own output parses");
    assert_eq!(
        parsed.get("schema").and_then(Json::as_str),
        Some("netcache-rack-report/v4")
    );
    let switch = parsed.get("switch").expect("switch section");
    assert_eq!(switch.get_u64("cache_hits"), Ok(60));
    assert_eq!(switch.get_u64("recirculations"), Ok(34));
    assert_eq!(switch.get_finite("hit_ratio"), Ok(0.75));
    let servers = parsed.get("servers").expect("servers section");
    assert_eq!(servers.get_u64("gets"), Ok(report.server_gets()));
    assert_eq!(servers.get_finite("load_imbalance"), Ok(1.25));
    let latency = parsed.get("latency").expect("latency section");
    let op = latency.get("op").expect("op histogram");
    let hist = Histogram::from_json_value(op).expect("embedded histogram parses");
    assert_eq!(hist.count(), report.op_latency.count());
    assert_eq!(hist.p50(), report.op_latency.p50());
    assert_eq!(hist.nonzero_buckets(), report.op_latency.nonzero_buckets());
    let transport = parsed.get("transport").expect("transport section");
    assert_eq!(
        transport.get("backend").and_then(Json::as_str),
        Some(report.transport.backend)
    );
    assert_eq!(
        transport.get_u64("recv_packets"),
        Ok(report.transport.recv_packets)
    );
    assert_eq!(
        transport.get_u64("cqe_batches"),
        Ok(report.transport.cqe_batches)
    );
    assert_eq!(
        transport.get_finite("syscalls_per_packet"),
        Ok(report.transport.syscalls_per_packet())
    );
    let occ = transport
        .get("batch_occupancy")
        .expect("occupancy histogram");
    let occ = Histogram::from_json_value(occ).expect("embedded histogram parses");
    assert_eq!(occ.count(), report.batch_occupancy.count());
    assert_eq!(occ.max(), report.batch_occupancy.max());
    let repl = parsed.get("replication").expect("replication section");
    assert_eq!(repl.get_u64("factor"), Ok(2));
    assert_eq!(repl.get_u64("full_chains"), Ok(1));
    assert_eq!(repl.get_u64("chain_commits"), Ok(19));
    assert_eq!(repl.get_u64("failovers"), Ok(2));
}
