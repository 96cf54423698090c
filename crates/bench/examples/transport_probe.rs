//! Runtime tuning probe: isolates raw [`SocketDriver`] throughput (no
//! rack logic, one thread, two sockets ping-ponging full windows) to
//! compare backends without scheduler noise, then sweeps pipeline window
//! depth on a live rack. The rack-vs-UDP transport comparison lives in
//! the contract benchmark's `rack_*` and `udp_*` workloads.
//!
//! Usage: `cargo run --release -p netcache-bench --example transport_probe`
//!
//! [`SocketDriver`]: netcache::runtime::SocketDriver

use std::net::UdpSocket;
use std::time::{Duration, Instant};

use netcache::runtime::{make_driver, RecvRing, RuntimeKind, SendRing, DEFAULT_BATCH};

fn raw_driver_bench(kind: RuntimeKind, rounds: usize) {
    let a = UdpSocket::bind("127.0.0.1:0").unwrap();
    let b = UdpSocket::bind("127.0.0.1:0").unwrap();
    let addr_b = b.local_addr().unwrap();
    let addr_a = a.local_addr().unwrap();
    let mut drv_a = make_driver(kind);
    let mut drv_b = make_driver(kind);
    let mut send = SendRing::new(DEFAULT_BATCH);
    let mut recv = RecvRing::new(DEFAULT_BATCH);
    let payload = [7u8; 64];
    let timeout = Duration::from_millis(100);

    let mut moved = 0u64;
    let start = Instant::now();
    for _ in 0..rounds {
        // A -> B: one full window.
        send.clear();
        for _ in 0..DEFAULT_BATCH {
            send.push_frame(addr_b, &payload);
        }
        drv_a.send_batch(&a, &mut send).unwrap();
        let mut got = 0;
        while got < DEFAULT_BATCH {
            let out = drv_b.recv_batch(&b, &mut recv, timeout).unwrap();
            if out.packets == 0 {
                break;
            }
            got += out.packets;
        }
        moved += got as u64;
        // B -> A: echo the window back.
        send.clear();
        for _ in 0..got {
            send.push_frame(addr_a, &payload);
        }
        drv_b.send_batch(&b, &mut send).unwrap();
        let mut back = 0;
        while back < got {
            let out = drv_a.recv_batch(&a, &mut recv, timeout).unwrap();
            if out.packets == 0 {
                break;
            }
            back += out.packets;
        }
        moved += back as u64;
    }
    let el = start.elapsed().as_secs_f64();
    println!(
        "raw {:>8}: {:>8.1} kpps ({moved} packets in {el:.3}s)",
        kind.name(),
        moved as f64 / el / 1e3
    );
}

fn window_scaling(kind: RuntimeKind, window: usize) {
    use netcache::udp::{PipelineOp, UdpRack};
    use netcache::RackHandle;
    use netcache_proto::{Key, Value};
    let mut config = netcache::RackConfig::small(8);
    config.controller.cache_capacity = 64;
    let rack = UdpRack::start_with_runtime(config, kind).expect("rack");
    rack.load_dataset(2000, 64);
    rack.populate_cache((0..64).map(Key::from_u64));
    let ops: Vec<PipelineOp> = (0..6000u64)
        .map(|i| {
            if i % 10 == 9 {
                PipelineOp::Put(
                    Key::from_u64(i % 64),
                    Value::filled((i % 251) as u8 + 1, 64),
                )
            } else if i % 5 < 4 {
                PipelineOp::Get(Key::from_u64(i % 64))
            } else {
                PipelineOp::Get(Key::from_u64(64 + i % 500))
            }
        })
        .collect();
    let mut client = rack.client(0);
    let _ = client.run_pipelined(&ops[..512], window);
    let start = Instant::now();
    let report = client.run_pipelined(&ops, window);
    let el = start.elapsed().as_secs_f64();
    println!(
        "window {window:>4} [{:>8}]: {:>8.1} kqps (completed {} abandoned {})",
        kind.name(),
        report.completed as f64 / el / 1e3,
        report.completed,
        report.abandoned
    );
    rack.stop();
}

fn main() {
    for _ in 0..2 {
        raw_driver_bench(RuntimeKind::Batched, 2_000);
        raw_driver_bench(RuntimeKind::Uring, 2_000);
    }
    for &w in &[64usize, 128, 256] {
        window_scaling(RuntimeKind::Batched, w);
        window_scaling(RuntimeKind::Uring, w);
    }
}
