//! Runtime-backend differential tests: portable vs batched vs io_uring.
//!
//! The `SocketDriver` abstraction promises that the choice of I/O
//! backend is invisible to rack semantics. This suite replays one seeded
//! workload over every backend the host kernel supports and asserts the
//! racks converge to the same logical outcome: the same replies (values
//! only — cache-vs-server serving path is transport timing), the same
//! final store contents, and the same cache membership. Per-packet
//! transport counters are free to differ — syscall folding is the whole
//! point of the faster backends — but each rack's counters must still be
//! internally consistent (packets seen, backend label correct).
//!
//! When the kernel lacks io_uring the uring leg is skipped with a
//! notice and the portable/batched comparison still runs, so CI on old
//! kernels stays green without silently losing coverage.
//!
//! Agreeing is not enough: a backend that answers correctly at a few
//! hundred operations a second passes every comparison above, so
//! `every_runtime_keeps_a_pipelined_window_moving` puts a floor under
//! each backend's pipelined throughput.
//!
//! Seeded via `NETCACHE_TEST_SEED` (see `netcache::seed_from_env`).

use std::time::{Duration, Instant};

use netcache::runtime::{uring_available, RuntimeKind};
use netcache::udp::{PipelineOp, UdpRack};
use netcache::{seed_from_env, RackHandle};
use netcache_client::Response;
use netcache_proto::{Key, Value};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

const NUM_KEYS: u64 = 400;
const VALUE_LEN: usize = 32;
const CACHE_ITEMS: u64 = 16;

/// Every backend this kernel can actually run, most capable first.
fn available_backends() -> Vec<RuntimeKind> {
    let mut kinds = Vec::new();
    if uring_available() {
        kinds.push(RuntimeKind::Uring);
    } else {
        eprintln!("notice: io_uring unavailable on this kernel; uring leg skipped");
    }
    if RuntimeKind::Batched.effective() == RuntimeKind::Batched {
        kinds.push(RuntimeKind::Batched);
    }
    kinds.push(RuntimeKind::Portable);
    kinds
}

fn start_rack(kind: RuntimeKind) -> UdpRack {
    let mut config = netcache::RackConfig::small(4);
    config.controller.cache_capacity = CACHE_ITEMS as usize;
    let rack = UdpRack::start_with_runtime(config, kind).expect("loopback rack");
    rack.load_dataset(NUM_KEYS, VALUE_LEN);
    rack.populate_cache((0..CACHE_ITEMS).map(Key::from_u64));
    rack
}

/// Strips the serving-path flag: over real sockets a Get can race a
/// post-write `CacheUpdate` and be answered by the server instead of the
/// switch. The value must match; where it came from is timing.
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

fn store_contents(rack: &UdpRack) -> Vec<Option<(Value, u32)>> {
    (0..NUM_KEYS)
        .map(|id| {
            let key = Key::from_u64(id);
            let home = rack.addressing().home_of(&key);
            rack.server(home.server)
                .fetch(&key)
                .map(|item| (item.value, item.version))
        })
        .collect()
}

fn cache_membership(rack: &UdpRack) -> Vec<u64> {
    (0..NUM_KEYS)
        .filter(|&id| rack.is_cached(&Key::from_u64(id)))
        .collect()
}

/// Phase 1 drives sequential ops reply-for-reply; phase 2 runs a
/// pipelined burst (the window is what fills the rings on the batched
/// and uring backends); then final state must agree across every
/// backend pair.
#[test]
fn all_runtimes_agree_on_seeded_workload() {
    let seed = seed_from_env(0x0d1f_4169);
    let kinds = available_backends();
    let racks: Vec<UdpRack> = kinds.iter().map(|&k| start_rack(k)).collect();

    // Each rack must be running (and reporting) the backend we asked
    // for, modulo the documented fallback ladder.
    for (rack, &kind) in racks.iter().zip(&kinds) {
        assert_eq!(
            rack.runtime_kind().effective(),
            kind.effective(),
            "rack came up on the wrong backend"
        );
    }

    // Phase 1: sequential ops, reply-for-reply equality across all
    // racks, with the serving path normalized away.
    let mut rng = StdRng::seed_from_u64(seed);
    let mut clients: Vec<_> = racks.iter().map(|r| r.client(0)).collect();
    for i in 0..120u64 {
        let id = if rng.random::<f64>() < 0.7 {
            rng.random::<u64>() % CACHE_ITEMS
        } else {
            CACHE_ITEMS + rng.random::<u64>() % 80
        };
        let key = Key::from_u64(id);
        let r = rng.random::<f64>();
        let replies: Vec<_> = if r < 0.6 {
            clients.iter_mut().map(|c| c.get_with_retry(key)).collect()
        } else if r < 0.9 {
            let value = Value::filled((i % 251) as u8 + 1, VALUE_LEN);
            clients
                .iter_mut()
                .map(|c| c.put_with_retry(key, value.clone()))
                .collect()
        } else {
            clients
                .iter_mut()
                .map(|c| c.delete_with_retry(key))
                .collect()
        };
        let logical_replies: Vec<_> = replies
            .into_iter()
            .map(|out| logical(out.response.map(|c| c.into_response())))
            .collect();
        for (j, reply) in logical_replies.iter().enumerate().skip(1) {
            assert_eq!(
                &logical_replies[0],
                reply,
                "op {i} diverged: {} vs {} (seed {seed:#x})",
                kinds[0].name(),
                kinds[j].name()
            );
        }
    }

    // Phase 2: pipelined burst with puts on distinct keys, so the final
    // store state is independent of in-flight completion order.
    let ops: Vec<PipelineOp> = (0..300u64)
        .map(|i| {
            if i % 5 == 4 {
                PipelineOp::Put(
                    Key::from_u64(200 + i),
                    Value::filled((i % 251) as u8 + 1, VALUE_LEN),
                )
            } else if i % 3 == 0 {
                PipelineOp::Get(Key::from_u64(i % CACHE_ITEMS))
            } else {
                PipelineOp::Get(Key::from_u64(CACHE_ITEMS + i % 80))
            }
        })
        .collect();
    for (rack, &kind) in racks.iter().zip(&kinds) {
        let report = rack.client(1).run_pipelined(&ops, 32);
        assert_eq!(
            report.completed,
            ops.len() as u64,
            "{}: pipelined ops lost (seed {seed:#x}, {report:?})",
            kind.name()
        );
        assert_eq!(report.abandoned, 0, "{}: {report:?}", kind.name());
    }

    // Final state: every backend pair must agree exactly, and every
    // rack's transport counters must be self-consistent and labeled
    // with the backend that actually ran.
    let baseline_store = store_contents(&racks[0]);
    let baseline_cache = cache_membership(&racks[0]);
    for (rack, &kind) in racks.iter().zip(&kinds).skip(1) {
        assert_eq!(
            baseline_store,
            store_contents(rack),
            "final store contents diverged: {} vs {} (seed {seed:#x})",
            kinds[0].name(),
            kind.name()
        );
        assert_eq!(
            baseline_cache,
            cache_membership(rack),
            "cache membership diverged: {} vs {} (seed {seed:#x})",
            kinds[0].name(),
            kind.name()
        );
    }
    for (rack, &kind) in racks.iter().zip(&kinds) {
        let stats = rack.transport_stats();
        assert!(
            stats.packets() > 0,
            "{}: rack served traffic but counted no packets: {stats:?}",
            kind.name()
        );
        assert_eq!(
            stats.backend,
            kind.name(),
            "transport stats mislabeled (seed {seed:#x}): {stats:?}"
        );
        if kind.effective() == RuntimeKind::Uring {
            assert!(
                stats.cqe_batches > 0,
                "uring rack never drained a completion batch: {stats:?}"
            );
        }
    }
    for rack in racks {
        rack.stop();
    }
}

/// Progress floor: 10 000 pipelined gets at window 64 finish within 5 s
/// on every backend — two orders of magnitude below what any healthy
/// backend does on loopback, far above a backend that stalls per sweep.
#[test]
fn every_runtime_keeps_a_pipelined_window_moving() {
    const OPS: u64 = 10_000;
    const FLOOR: Duration = Duration::from_secs(5);
    let ops: Vec<PipelineOp> = (0..OPS)
        .map(|i| PipelineOp::Get(Key::from_u64(i % NUM_KEYS)))
        .collect();
    for kind in available_backends() {
        let rack = start_rack(kind);
        let mut client = rack.client(0);
        let started = Instant::now();
        let report = client.run_pipelined(&ops, 64);
        let took = started.elapsed();
        assert_eq!(report.completed, OPS, "{}: {report:?}", kind.name());
        assert!(
            took < FLOOR,
            "{}: {OPS} pipelined gets took {took:?} (floor {FLOOR:?}, {report:?})",
            kind.name()
        );
        rack.stop();
    }
}
