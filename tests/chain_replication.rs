//! Deterministic integration tests of chain-replicated writes (NetChain
//! direction): the happy path — a write travels switch → head → tail and
//! acks from the tail commit, reads steer to the tail, the cache is only
//! revalidated by a tail commit — and the full failover lifecycle: kill
//! the tail, controller splices it out and promotes the head, the rack
//! keeps serving, and the restarted node is wiped, re-synced and rejoined
//! as tail.
//!
//! The randomized counterparts live in `chaos.rs` (seeded fault sweeps
//! with mid-workload kills) and `chain_props.rs` (arbitrary factors and
//! kill schedules).

use netcache::{Rack, RackConfig, RackHandle, RackReport};
use netcache_client::Response;
use netcache_proto::{Key, Value};

/// One key's full life on a replicated rack: an uncached read from the
/// tail, a write acked by the tail commit and applied by every replica,
/// cache hits that stay fresh across a write, and a delete.
fn serve_reads_and_writes(rack: &Rack, key: Key) {
    let mut c = rack.client(0);
    // Uncached read comes from the tail.
    let r = c.get(key).expect("reply");
    assert_eq!(r.value().unwrap(), &Value::for_item(key.low_u64(), 32));

    // A write travels the chain and acks from the tail commit.
    let resp = c.put(key, Value::filled(0xaa, 32)).expect("ack");
    assert!(
        matches!(resp.response(), Response::PutAck { .. }),
        "{resp:?}"
    );
    let r = c.get(key).expect("reply");
    assert_eq!(r.value().unwrap(), &Value::filled(0xaa, 32));

    // Both replicas applied it.
    let home = rack.addressing().home_of(&key);
    for s in rack.addressing().chain_servers(home.server, 2) {
        let item = rack.server(s).fetch(&key).expect("replica has it");
        assert_eq!(item.value, Value::filled(0xaa, 32));
    }

    // Cached keys serve from the switch and stay fresh across writes.
    rack.populate_cache([key]);
    let r = c.get(key).expect("reply");
    assert!(r.served_by_cache(), "{r:?}");
    c.put(key, Value::filled(0xbb, 32)).expect("ack");
    let r = c.get(key).expect("reply");
    assert_eq!(r.value().unwrap(), &Value::filled(0xbb, 32));
    assert!(r.served_by_cache(), "commit should revalidate: {r:?}");

    // Delete through the chain.
    c.delete(key).expect("ack");
    let r = c.get(key).expect("reply");
    assert!(matches!(r.response(), Response::NotFound { .. }), "{r:?}");
}

#[test]
fn replicated_rack_serves_reads_and_writes() {
    let mut config = RackConfig::small(4);
    config.replication_factor = 2;
    config.controller.cache_capacity = 8;
    let rack = Rack::new(config).expect("valid config");
    rack.load_dataset(16, 32);

    serve_reads_and_writes(&rack, Key::from_u64(3));

    let report = RackReport::capture(&rack);
    assert!(report.switch.chain_writes >= 3, "{:?}", report.switch);
    assert!(report.switch.chain_commits >= 3, "{:?}", report.switch);
    assert_eq!(report.replication.factor, 2);
    assert_eq!(report.replication.full_chains, 4);
}

/// The same life on a 2-pipe switch whose chains cross pipes: with 6
/// ports, servers 0-2 sit in pipe 0 and server 3 in pipe 1, so partition
/// 2 (chain 2 → 3) has its tail, and partition 3 (chain 3 → 0) its head,
/// in pipe 1. Writes enter through the head's pipe while the cached
/// entry and the read statistics live in the tail's.
#[test]
fn chains_across_two_pipes_serve_reads_and_writes() {
    let mut config = RackConfig::small(4);
    config.replication_factor = 2;
    config.controller.cache_capacity = 8;
    config.clients = 2;
    config.switch.ports = 6;
    config.switch.pipes = 2;
    let rack = Rack::new(config).expect("valid config");
    rack.load_dataset(64, 32);
    let a = rack.addressing();
    let pipe_of_server = |s: u32| a.pipe_of_port(a.server_port(s));
    assert_eq!((pipe_of_server(2), pipe_of_server(3)), (0, 1));
    assert_eq!(pipe_of_server(0), 0);

    for partition in [2, 3] {
        let mut keys = (0..64)
            .map(Key::from_u64)
            .filter(|k| a.partition_of(k) == partition);
        serve_reads_and_writes(&rack, keys.next().expect("a key in the partition"));

        // A hot uncached key is counted in its tail's pipe, reported, and
        // cached there by the controller.
        let hot = keys.next().expect("a second key in the partition");
        let mut c = rack.client(0);
        for _ in 0..20 {
            c.get(hot).expect("reply");
        }
        rack.run_controller();
        let r = c.get(hot).expect("reply");
        assert!(r.served_by_cache(), "partition {partition}: {r:?}");
        assert_eq!(r.value().unwrap(), &Value::for_item(hot.low_u64(), 32));
    }

    let report = RackReport::capture(&rack);
    assert_eq!(report.switch.chain_writes, 6, "{:?}", report.switch);
    assert_eq!(report.switch.chain_commits, 6, "{:?}", report.switch);
    assert_eq!(report.replication.full_chains, 4);
}

#[test]
fn kill_and_failover_keeps_serving() {
    let mut config = RackConfig::small(4);
    config.replication_factor = 2;
    config.controller.cache_capacity = 8;
    let rack = Rack::new(config).expect("valid config");
    rack.load_dataset(16, 32);

    let key = Key::from_u64(5);
    let home = rack.addressing().home_of(&key);
    let tail = (home.server + 1) % 4;

    let mut c = rack.client(0);
    c.put(key, Value::filled(0x11, 32)).expect("ack");

    // Kill the tail; before repair the partition can't ack (reads hit the
    // dead tail), after repair the head serves alone.
    rack.kill_server(tail);
    rack.run_controller();
    let r = c.get(key).expect("reply after failover");
    assert_eq!(r.value().unwrap(), &Value::filled(0x11, 32));
    c.put(key, Value::filled(0x22, 32))
        .expect("ack after failover");
    let r = c.get(key).expect("reply");
    assert_eq!(r.value().unwrap(), &Value::filled(0x22, 32));

    // Restart: wiped, re-synced from the surviving tail, re-joined as tail.
    rack.restart_server(tail);
    rack.run_controller();
    let item = rack.server(tail).fetch(&key).expect("resynced");
    assert_eq!(item.value, Value::filled(0x22, 32));
    let r = c.get(key).expect("reply");
    assert_eq!(r.value().unwrap(), &Value::filled(0x22, 32));

    let report = RackReport::capture(&rack);
    assert!(report.controller.chain_failovers >= 1);
    assert!(report.controller.chain_resyncs >= 1);
    assert_eq!(
        report.replication.full_chains, 4,
        "{:?}",
        report.replication
    );
}
