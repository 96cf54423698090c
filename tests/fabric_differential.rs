//! Cross-transport differential tests: the payoff of the fabric layer.
//!
//! All rack deployments are thin transport drivers over the same
//! `netcache::fabric` core, so the same seed and workload must produce
//! the *same logical outcome* everywhere:
//!
//! - in-process [`Rack`] vs discrete-event [`RackSim`]: both are
//!   deterministic and fault-free here, so the comparison is exact —
//!   identical replies, identical final store contents, identical cache
//!   membership, identical switch/server/controller counters.
//! - loopback-UDP [`UdpRack`] vs in-process [`Rack`]: real sockets and
//!   threads make packet-level timing non-deterministic, so the
//!   comparison is aggregate — same replies, same final values, same
//!   cache membership.
//!
//! Seeded via `NETCACHE_TEST_SEED` (see `netcache::seed_from_env`).

use netcache::udp::UdpRack;
use netcache::{seed_from_env, Rack, RackHandle};
use netcache_client::Response;
use netcache_proto::{Key, Value};
use netcache_sim::{rack_config_for, RackSim, ScriptOp, SimConfig};
use netcache_workload::QueryMix;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// A small, fully deterministic experiment: fault-free network, 8
/// servers, a 64-item cache over a 2000-key Zipf workload.
fn sim_config(seed: u64) -> SimConfig {
    SimConfig {
        servers: 8,
        num_keys: 2_000,
        value_len: 64,
        cache_items: 64,
        seed,
        ..SimConfig::default()
    }
}

/// Builds an in-process rack assembled *identically* to what
/// [`RackSim::new`] builds internally: same switch program and seed, same
/// partitioning, same dataset, same hottest-keys cache population.
fn build_rack(config: &SimConfig) -> Rack {
    let rack = Rack::new(rack_config_for(config, true)).expect("valid sim rack config");
    let loaded = config
        .loaded_keys
        .map_or(config.num_keys, |k| k.min(config.num_keys));
    rack.load_dataset(loaded, config.value_len);
    let mix = QueryMix::new(
        config.num_keys,
        config.theta,
        config.write_ratio,
        config.write_skew,
    );
    if config.cache_items > 0 {
        let hottest: Vec<Key> = mix
            .popularity()
            .hottest(config.cache_items)
            .iter()
            .map(|&id| Key::from_u64(id))
            .collect();
        rack.populate_cache(hottest);
    }
    rack
}

/// A deterministic script: mostly-hot reads, a write mix, occasional
/// deletes, controller cycles and time advances. Total virtual time stays
/// far below the controller's 1-second budget/stats windows on both
/// transports, so clock-scale differences between them cannot change
/// control-plane decisions.
fn script(seed: u64, config: &SimConfig) -> Vec<ScriptOp> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xd1ff);
    let hot = config.cache_items as u64;
    let mut ops = Vec::new();
    for i in 0..300u64 {
        let id = if rng.random::<f64>() < 0.7 {
            rng.random::<u64>() % hot
        } else {
            hot + rng.random::<u64>() % 200
        };
        let r = rng.random::<f64>();
        if r < 0.60 {
            ops.push(ScriptOp::Get(id));
        } else if r < 0.85 {
            ops.push(ScriptOp::Put(id, (i % 251) as u8 + 1));
        } else if r < 0.93 {
            ops.push(ScriptOp::Delete(id));
        } else {
            ops.push(ScriptOp::Controller);
        }
        if i % 41 == 0 {
            ops.push(ScriptOp::AdvanceMs(1));
        }
    }
    ops.push(ScriptOp::Controller);
    ops
}

/// Runs a script against the in-process rack, mirroring
/// [`RackSim::run_script`] op for op.
fn run_script_on_rack(rack: &Rack, ops: &[ScriptOp], value_len: usize) -> Vec<Option<Response>> {
    let mut client = rack.client(0);
    let mut results = Vec::new();
    for op in ops {
        match *op {
            ScriptOp::Get(id) => {
                results.push(client.get(Key::from_u64(id)).map(|r| r.into_response()));
            }
            ScriptOp::Put(id, fill) => {
                let value = Value::filled(fill, value_len);
                results.push(
                    client
                        .put(Key::from_u64(id), value)
                        .map(|r| r.into_response()),
                );
            }
            ScriptOp::Delete(id) => {
                results.push(client.delete(Key::from_u64(id)).map(|r| r.into_response()));
            }
            ScriptOp::Controller => {
                rack.run_controller();
            }
            ScriptOp::AdvanceMs(ms) => {
                rack.advance(ms * 1_000_000);
                rack.tick();
            }
        }
    }
    results
}

/// Snapshot of every store item, in key-id order, for exact comparison.
fn store_contents<H: RackHandle>(rack: &H, num_keys: u64) -> Vec<Option<(Value, u32)>> {
    (0..num_keys)
        .map(|id| {
            let key = Key::from_u64(id);
            let home = rack.addressing().home_of(&key);
            rack.server(home.server)
                .fetch(&key)
                .map(|item| (item.value, item.version))
        })
        .collect()
}

fn cache_membership<H: RackHandle>(rack: &H, num_keys: u64) -> Vec<u64> {
    (0..num_keys)
        .filter(|&id| rack.is_cached(&Key::from_u64(id)))
        .collect()
}

#[test]
fn rack_and_sim_agree_exactly() {
    let seed = seed_from_env(0x5eed_d1ff);
    let config = sim_config(seed);
    let ops = script(seed, &config);

    let mut sim = RackSim::new(config.clone()).expect("valid sim config");
    let rack = build_rack(&config);

    // Identically assembled: same pre-script state on both transports.
    assert_eq!(sim.switch_stats(), rack.switch_stats(), "seed {seed:#x}");
    assert_eq!(
        cache_membership(&sim, config.num_keys),
        cache_membership(&rack, config.num_keys),
        "initial cache membership diverged (seed {seed:#x})"
    );

    let sim_replies = sim.run_script(&ops);
    let rack_replies = run_script_on_rack(&rack, &ops, config.value_len);

    // Same replies, element-wise.
    assert_eq!(sim_replies.len(), rack_replies.len());
    for (i, (s, r)) in sim_replies.iter().zip(rack_replies.iter()).enumerate() {
        assert_eq!(s, r, "reply {i} diverged (seed {seed:#x}, op {:?})", ops[i]);
    }

    // Same final logical state: store contents, cache membership,
    // switch/server/controller counters.
    assert_eq!(
        store_contents(&sim, config.num_keys),
        store_contents(&rack, config.num_keys),
        "final store contents diverged (seed {seed:#x})"
    );
    assert_eq!(
        cache_membership(&sim, config.num_keys),
        cache_membership(&rack, config.num_keys),
        "final cache membership diverged (seed {seed:#x})"
    );
    assert_eq!(sim.cached_keys(), rack.cached_keys());
    assert_eq!(
        sim.switch_stats(),
        rack.switch_stats(),
        "switch counters diverged (seed {seed:#x})"
    );
    assert_eq!(
        sim.controller_stats(),
        rack.controller_stats(),
        "controller counters diverged (seed {seed:#x})"
    );
    for i in 0..config.servers {
        assert_eq!(
            sim.server_stats(i),
            rack.server_stats(i),
            "server {i} counters diverged (seed {seed:#x})"
        );
    }
}

/// Replication must be transport-invariant too: with `replication_factor
/// = 2` every write is rewritten to a chain op and crosses switch → head
/// → tail → switch on both transports, reads steer to the tail, and the
/// comparison stays exact — replies, stores, cache membership, and every
/// counter including the chain-write/commit stats.
#[test]
fn rack_and_sim_agree_with_replication() {
    let seed = seed_from_env(0x5eed_d1fc);
    let mut config = sim_config(seed);
    config.replication_factor = 2;
    let ops = script(seed, &config);

    let mut sim = RackSim::new(config.clone()).expect("valid sim config");
    let rack = build_rack(&config);

    assert_eq!(sim.switch_stats(), rack.switch_stats(), "seed {seed:#x}");
    let sim_replies = sim.run_script(&ops);
    let rack_replies = run_script_on_rack(&rack, &ops, config.value_len);
    assert_eq!(sim_replies.len(), rack_replies.len());
    for (i, (s, r)) in sim_replies.iter().zip(rack_replies.iter()).enumerate() {
        assert_eq!(s, r, "reply {i} diverged (seed {seed:#x}, op {:?})", ops[i]);
    }

    assert_eq!(
        store_contents(&sim, config.num_keys),
        store_contents(&rack, config.num_keys),
        "final store contents diverged (seed {seed:#x})"
    );
    assert_eq!(
        cache_membership(&sim, config.num_keys),
        cache_membership(&rack, config.num_keys),
        "final cache membership diverged (seed {seed:#x})"
    );
    let sim_switch = sim.switch_stats();
    assert!(
        sim_switch.chain_writes > 0 && sim_switch.chain_commits > 0,
        "replicated script never exercised the chain (seed {seed:#x}): {sim_switch:?}"
    );
    assert_eq!(sim_switch, rack.switch_stats(), "seed {seed:#x}");
    assert_eq!(
        sim.controller_stats(),
        rack.controller_stats(),
        "controller counters diverged (seed {seed:#x})"
    );
    for i in 0..config.servers {
        assert_eq!(
            sim.server_stats(i),
            rack.server_stats(i),
            "server {i} counters diverged (seed {seed:#x})"
        );
    }
}

#[test]
fn rack_and_sim_agree_in_write_around_mode() {
    let seed = seed_from_env(0x5eed_d1fe);
    let config = sim_config(seed);
    let ops = script(seed, &config);

    let mut sim = RackSim::with_dataplane_updates(config.clone(), false).expect("valid config");
    let rack = Rack::new(rack_config_for(&config, false)).expect("valid config");
    let loaded = config
        .loaded_keys
        .map_or(config.num_keys, |k| k.min(config.num_keys));
    rack.load_dataset(loaded, config.value_len);
    let mix = QueryMix::new(
        config.num_keys,
        config.theta,
        config.write_ratio,
        config.write_skew,
    );
    let hottest: Vec<Key> = mix
        .popularity()
        .hottest(config.cache_items)
        .iter()
        .map(|&id| Key::from_u64(id))
        .collect();
    rack.populate_cache(hottest);

    let sim_replies = sim.run_script(&ops);
    let rack_replies = run_script_on_rack(&rack, &ops, config.value_len);
    assert_eq!(sim_replies, rack_replies, "seed {seed:#x}");
    assert_eq!(
        store_contents(&sim, config.num_keys),
        store_contents(&rack, config.num_keys),
        "seed {seed:#x}"
    );
    assert_eq!(sim.switch_stats(), rack.switch_stats(), "seed {seed:#x}");
}

/// Strips the serving-path flag from a reply: over real loopback sockets
/// a Get can race the post-write `CacheUpdate` and be served by the
/// server instead of the (momentarily invalid) switch entry. The *value*
/// must still match; where it came from is transport timing.
fn logical(reply: Option<Response>) -> Option<Response> {
    reply.map(|r| match r {
        Response::Value { key, value, .. } => Response::Value {
            key,
            value,
            from_cache: false,
        },
        other => other,
    })
}

/// Over real loopback sockets timing is non-deterministic, so the UDP
/// comparison is aggregate: the same ops must yield the same logical
/// replies (same values, cache-vs-server path normalized away), the same
/// final store contents and the same cache membership as the in-process
/// rack, even though per-packet counters may differ by retransmissions.
#[test]
fn udp_matches_in_process_outcomes() {
    let seed = seed_from_env(0x5eed_0d1f);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut config = netcache::RackConfig::small(4);
    config.controller.cache_capacity = 16;

    let udp = UdpRack::start(config.clone()).expect("loopback rack");
    let rack = Rack::new(config.clone()).expect("valid config");
    udp.load_dataset(500, 32);
    udp.populate_cache((0..16).map(Key::from_u64));
    rack.load_dataset(500, 32);
    rack.populate_cache((0..16).map(Key::from_u64));

    let mut udp_client = udp.client(0);
    let mut rack_client = rack.client(0);
    for i in 0..200u64 {
        let id = if rng.random::<f64>() < 0.7 {
            rng.random::<u64>() % 16
        } else {
            16 + rng.random::<u64>() % 100
        };
        let key = Key::from_u64(id);
        let r = rng.random::<f64>();
        let (udp_outcome, rack_outcome) = if r < 0.6 {
            (
                udp_client.get_with_retry(key),
                rack_client.get_with_retry(key),
            )
        } else if r < 0.9 {
            let value = Value::filled((i % 251) as u8 + 1, 32);
            (
                udp_client.put_with_retry(key, value.clone()),
                rack_client.put_with_retry(key, value),
            )
        } else {
            (
                udp_client.delete_with_retry(key),
                rack_client.delete_with_retry(key),
            )
        };
        let udp_reply = logical(udp_outcome.response.map(|c| c.into_response()));
        let rack_reply = logical(rack_outcome.response.map(|c| c.into_response()));
        assert_eq!(udp_reply, rack_reply, "op {i} diverged (seed {seed:#x})");
    }

    assert_eq!(
        store_contents(&udp, 500),
        store_contents(&rack, 500),
        "final store contents diverged (seed {seed:#x})"
    );
    assert_eq!(
        cache_membership(&udp, 500),
        cache_membership(&rack, 500),
        "cache membership diverged (seed {seed:#x})"
    );
}

/// The large-value API must be transport-invariant: the same writes and
/// reads — single-pass (≤128 B values), recirculated multi-pass (up to
/// 2 KB in one item) and chunked-fallback (beyond 2 KB) sizes — must
/// return byte-identical payloads on the in-process rack, the
/// discrete-event simulator and the loopback-UDP rack, and agree with a
/// reference model of the logical store. Rack and sim are deterministic
/// and identically assembled, so their comparison is exact (including
/// serving provenance and the recirculation counter); the UDP rack is
/// compared on bytes. Multi-pass entries must actually be served by
/// recirculation once the controller admits the heavily read base keys.
#[test]
fn large_values_agree_across_all_three_transports() {
    use netcache_sim::ScriptOp;
    use std::collections::HashMap;

    // One logical item per size class: empty, one byte, exactly one
    // pass's worth of payload, one over, mid multi-pass, the largest
    // single item (manifest = 2048 B value, 16 passes), one byte into
    // chunked fallback, and a three-chunk payload.
    const SIZES: [usize; 8] = [0, 1, 128, 129, 300, 2044, 2045, 6000];
    fn payload(tag: usize, len: usize) -> Vec<u8> {
        (0..len).map(|j| ((tag * 31 + j * 7) % 251) as u8).collect()
    }
    fn base_key(i: usize) -> Key {
        Key::from_u64(50_000 + i as u64)
    }

    let seed = seed_from_env(0x001a_46e5);
    let config = sim_config(seed);
    let mut sim = RackSim::new(config.clone()).expect("valid sim config");
    let rack = build_rack(&config);
    let udp = UdpRack::start(rack_config_for(&config, true)).expect("loopback rack");
    {
        // Mirror build_rack's assembly for the UDP deployment.
        let loaded = config
            .loaded_keys
            .map_or(config.num_keys, |k| k.min(config.num_keys));
        udp.load_dataset(loaded, config.value_len);
        let mix = QueryMix::new(
            config.num_keys,
            config.theta,
            config.write_ratio,
            config.write_skew,
        );
        let hottest: Vec<Key> = mix
            .popularity()
            .hottest(config.cache_items)
            .iter()
            .map(|&id| Key::from_u64(id))
            .collect();
        udp.populate_cache(hottest);
    }
    let mut rack_client = rack.client(0);
    let mut udp_client = udp.client(0);

    // Phase 1: write one item per size class on every transport.
    let mut model: HashMap<usize, Vec<u8>> = HashMap::new();
    let mut sim_client = sim.client();
    for (i, &len) in SIZES.iter().enumerate() {
        let p = payload(i, len);
        assert!(
            rack_client.put_large(base_key(i), &p).is_some(),
            "rack put {len}"
        );
        assert!(
            sim_client.put_large(base_key(i), &p).is_some(),
            "sim put {len}"
        );
        assert!(
            udp_client.put_large(base_key(i), &p).is_some(),
            "udp put {len}"
        );
        model.insert(i, p);
    }

    // Phase 2: heat the base keys past the heavy-hitter threshold, then
    // run controller cycles so the size-aware admission installs them
    // (multi-pass slots for everything above one pass's worth).
    let mut sim_client = sim.client();
    for _ in 0..70 {
        for i in 0..SIZES.len() {
            assert!(rack_client.get_large(base_key(i)).is_some());
            assert!(sim_client.get_large(base_key(i)).is_some());
            assert!(udp_client.get_large(base_key(i)).is_some());
        }
    }
    let cycles = [
        ScriptOp::Controller,
        ScriptOp::AdvanceMs(2),
        ScriptOp::Controller,
    ];
    sim.run_script(&cycles);
    run_script_on_rack(&rack, &cycles, config.value_len);
    udp.run_controller(1_000_000);
    udp.run_controller(3_000_000);

    // Phase 3: cached reads — byte equality against the model
    // everywhere, exact equality (bytes + provenance) between rack and
    // sim, and actual recirculated service.
    let recirc_before = rack.switch_stats().recirculations;
    let mut any_fully_cached = false;
    let mut sim_client = sim.client();
    for (i, &len) in SIZES.iter().enumerate() {
        let rack_read = rack_client.get_large(base_key(i)).expect("rack read");
        let sim_read = sim_client.get_large(base_key(i)).expect("sim read");
        let udp_read = udp_client.get_large(base_key(i)).expect("udp read");
        assert_eq!(&rack_read.0, &model[&i], "rack bytes, size {len}");
        assert_eq!(
            sim_read, rack_read,
            "sim diverged from rack at size {len} (seed {seed:#x})"
        );
        assert_eq!(
            udp_read.0, rack_read.0,
            "udp bytes diverged at size {len} (seed {seed:#x})"
        );
        any_fully_cached |= rack_read.1;
    }
    assert!(
        any_fully_cached,
        "no large item was served entirely from the switch cache (seed {seed:#x})"
    );
    assert!(
        rack.switch_stats().recirculations > recirc_before,
        "cached multi-pass reads must recirculate (seed {seed:#x}): {:?}",
        rack.switch_stats()
    );
    assert_eq!(
        sim.switch_stats(),
        rack.switch_stats(),
        "switch counters diverged (seed {seed:#x})"
    );

    // Phase 4: overwrite every key with a different size class (shrinks
    // and grows, crossing the single-item/chunked boundary both ways),
    // then re-read everywhere.
    let mut sim_client = sim.client();
    for i in 0..SIZES.len() {
        let len = SIZES[(i + 3) % SIZES.len()];
        let p = payload(100 + i, len);
        assert!(rack_client.put_large(base_key(i), &p).is_some());
        assert!(sim_client.put_large(base_key(i), &p).is_some());
        assert!(udp_client.put_large(base_key(i), &p).is_some());
        model.insert(i, p);
    }
    for i in 0..SIZES.len() {
        let rack_read = rack_client.get_large(base_key(i)).expect("rack reread");
        let sim_read = sim_client.get_large(base_key(i)).expect("sim reread");
        let udp_read = udp_client.get_large(base_key(i)).expect("udp reread");
        assert_eq!(
            &rack_read.0, &model[&i],
            "rack bytes after overwrite, key {i}"
        );
        assert_eq!(
            sim_read, rack_read,
            "sim diverged from rack after overwrite, key {i} (seed {seed:#x})"
        );
        assert_eq!(
            udp_read.0, rack_read.0,
            "udp bytes diverged after overwrite, key {i} (seed {seed:#x})"
        );
    }
    assert_eq!(
        sim.switch_stats(),
        rack.switch_stats(),
        "final switch counters diverged (seed {seed:#x})"
    );
    udp.stop();
}

/// The runtime layer must be invisible to rack semantics: the same
/// seeded workload driven over the batched (`recvmmsg`/`sendmmsg`,
/// SO_REUSEPORT shards) and the portable (`recv_from`/`send_to`)
/// backends must produce the same logical replies, the same final store
/// contents and the same cache membership. Per-packet counters are free
/// to differ — that is the point of the abstraction — so the comparison
/// is aggregate, exactly like the UDP-vs-in-process case above.
#[test]
fn batched_and_portable_runtimes_agree() {
    use netcache::runtime::RuntimeKind;
    use netcache::udp::PipelineOp;

    let seed = seed_from_env(0xfab_0d1f);
    let mut config = netcache::RackConfig::small(4);
    config.controller.cache_capacity = 16;

    let racks = [
        UdpRack::start_with_runtime(config.clone(), RuntimeKind::Batched).expect("batched rack"),
        UdpRack::start_with_runtime(config.clone(), RuntimeKind::Portable).expect("portable rack"),
    ];
    for rack in &racks {
        rack.load_dataset(400, 32);
        rack.populate_cache((0..16).map(Key::from_u64));
    }

    // Phase 1: sequential ops, reply-for-reply equality (values only;
    // cache-vs-server serving path is transport timing, normalized by
    // `logical`).
    let mut rng = StdRng::seed_from_u64(seed);
    let mut clients = [racks[0].client(0), racks[1].client(0)];
    for i in 0..120u64 {
        let id = if rng.random::<f64>() < 0.7 {
            rng.random::<u64>() % 16
        } else {
            16 + rng.random::<u64>() % 80
        };
        let key = Key::from_u64(id);
        let replies: Vec<_> = if rng.random::<f64>() < 0.65 {
            clients.iter_mut().map(|c| c.get_with_retry(key)).collect()
        } else {
            let value = Value::filled((i % 251) as u8 + 1, 32);
            clients
                .iter_mut()
                .map(|c| c.put_with_retry(key, value.clone()))
                .collect()
        };
        let logical_replies: Vec<_> = replies
            .into_iter()
            .map(|out| logical(out.response.map(|c| c.into_response())))
            .collect();
        assert_eq!(
            logical_replies[0], logical_replies[1],
            "op {i} diverged between runtimes (seed {seed:#x})"
        );
    }

    // Phase 2: a pipelined burst — the window is what actually fills the
    // batched runtime's rings. Puts land on distinct keys so the final
    // store state is independent of in-flight completion order.
    let ops: Vec<PipelineOp> = (0..300u64)
        .map(|i| {
            if i % 5 == 4 {
                PipelineOp::Put(
                    Key::from_u64(200 + i),
                    Value::filled((i % 251) as u8 + 1, 32),
                )
            } else if i % 3 == 0 {
                PipelineOp::Get(Key::from_u64(i % 16))
            } else {
                PipelineOp::Get(Key::from_u64(16 + i % 80))
            }
        })
        .collect();
    for (rack, name) in racks.iter().zip(["batched", "portable"]) {
        let report = rack.client(1).run_pipelined(&ops, 32);
        assert_eq!(
            report.completed,
            ops.len() as u64,
            "{name}: pipelined ops lost (seed {seed:#x}, {report:?})"
        );
        assert_eq!(report.abandoned, 0, "{name}: {report:?}");
    }

    assert_eq!(
        store_contents(&racks[0], 400),
        store_contents(&racks[1], 400),
        "final store contents diverged (seed {seed:#x})"
    );
    assert_eq!(
        cache_membership(&racks[0], 400),
        cache_membership(&racks[1], 400),
        "cache membership diverged (seed {seed:#x})"
    );
    let [batched, portable] = racks;
    batched.stop();
    portable.stop();
}
