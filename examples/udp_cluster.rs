//! Real-sockets cluster: the rack as separate threads exchanging NetCache
//! frames over loopback UDP — the reproduction's analogue of the paper's
//! DPDK client/server processes around a Tofino.
//!
//! Run with: `cargo run --release --example udp_cluster`
//!
//! Pass `--loss <p>` (0.0–1.0) to inject seeded probabilistic loss (plus a
//! little duplication and delay) on every switch egress and watch the
//! client retransmission machinery absorb it. The fault seed honours
//! `NETCACHE_TEST_SEED` for reproducible runs.

use std::time::{Duration, Instant};

use netcache::udp::UdpRack;
use netcache::{seed_from_env, FaultConfig, RackConfig, RackHandle};
use netcache_client::Response;
use netcache_proto::{Key, Value};
use netcache_workload::QueryMix;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Parses `--loss <p>` from the command line (0 when absent; the last
/// occurrence wins, as is conventional).
fn loss_from_args() -> f64 {
    fn usage(problem: &str) -> ! {
        eprintln!("error: {problem}");
        eprintln!("usage: udp_cluster [--loss <p>]   with p in 0.0..=1.0, e.g. --loss 0.05");
        std::process::exit(2);
    }
    let mut loss = 0.0;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--loss" => {
                let Some(raw) = args.next() else {
                    usage("--loss takes a probability");
                };
                let Ok(p) = raw.parse::<f64>() else {
                    usage(&format!("--loss: not a number: {raw:?}"));
                };
                if !(0.0..=1.0).contains(&p) {
                    usage(&format!("--loss: {p} is outside 0.0..=1.0"));
                }
                loss = p;
            }
            other => usage(&format!("unknown argument {other:?}")),
        }
    }
    loss
}

fn main() {
    let loss = loss_from_args();
    let seed = seed_from_env(0x0c10_57e4);
    let mut config = RackConfig::small(4);
    config.controller.cache_capacity = 64;
    if loss > 0.0 {
        config.faults = FaultConfig {
            loss,
            duplicate: loss / 4.0,
            reorder: loss / 4.0,
            max_delay_ns: 500_000,
            seed,
        };
    }
    let rack = UdpRack::start(config).expect("sockets bind on loopback");
    println!("UDP rack up: switch at {}", rack.switch_addr());
    if loss > 0.0 {
        println!(
            "fault model on: {:.1}% loss per switch egress (seed {seed:#x})",
            loss * 100.0
        );
    }

    rack.load_dataset(2_000, 64);
    rack.populate_cache((0..64).map(Key::from_u64));
    println!("dataset loaded, 64 hottest keys cached in the switch thread");

    let mut client = rack.client(0);

    // Round-trip a cached read and an uncached read over real sockets.
    match client.get(Key::from_u64(3)) {
        Some(Response::Value {
            from_cache, value, ..
        }) => {
            println!(
                "GET 3   -> {} bytes via {}",
                value.len(),
                if from_cache { "switch cache" } else { "server" }
            )
        }
        other => panic!("unexpected: {other:?}"),
    }
    match client.get(Key::from_u64(1500)) {
        Some(Response::Value { from_cache, .. }) => {
            println!(
                "GET 1500 -> via {}",
                if from_cache { "switch cache" } else { "server" }
            )
        }
        other => panic!("unexpected: {other:?}"),
    }

    // Write-through coherence across threads and sockets.
    client
        .put(Key::from_u64(3), Value::filled(0x77, 64))
        .expect("put acked");
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        match client.get(Key::from_u64(3)) {
            Some(Response::Value {
                value, from_cache, ..
            }) if value == Value::filled(0x77, 64) => {
                println!(
                    "PUT 3 then GET -> new value via {} (coherent over UDP)",
                    if from_cache { "switch cache" } else { "server" }
                );
                break;
            }
            _ if Instant::now() > deadline => panic!("cache update never landed"),
            _ => std::thread::sleep(Duration::from_millis(5)),
        }
    }

    // A short throughput burst with a skewed workload.
    let mix = QueryMix::read_only(2_000, 0.99);
    let mut rng = StdRng::seed_from_u64(seed_from_env(1));
    let n = if loss > 0.0 { 1_000 } else { 5_000 };
    let start = Instant::now();
    let mut hits = 0;
    let mut lost = 0;
    for _ in 0..n {
        let q = mix.sample(&mut rng);
        match client.get(Key::from_u64(q.key_id())) {
            Some(Response::Value {
                from_cache: true, ..
            }) => hits += 1,
            Some(_) => {}
            None => lost += 1,
        }
    }
    let secs = start.elapsed().as_secs_f64();
    println!(
        "{n} zipf-0.99 reads in {secs:.2}s ({:.0} QPS over loopback), {:.1}% cache hits, \
         {lost} abandoned",
        n as f64 / secs,
        hits as f64 / n as f64 * 100.0
    );

    let stats = rack.switch_stats();
    println!(
        "switch thread stats: {} packets, {} hits, {} misses",
        stats.packets, stats.cache_hits, stats.cache_misses
    );
    if loss > 0.0 {
        let f = rack.faults().stats();
        let c = rack.client_counters();
        println!(
            "faults injected: {} dropped, {} duplicated, {} delayed; client: {} retransmissions, \
             {} duplicate replies suppressed",
            f.dropped,
            f.duplicated,
            f.delayed,
            c.retries(),
            c.stale_replies()
        );
    }
    rack.stop();
    println!("rack stopped cleanly");
}
