//! A real-sockets deployment of the rack: every node is a thread with a
//! `std::net::UdpSocket`, and NetCache packets cross the loopback as raw
//! frames (Ethernet/IP/UDP/NetCache bytes inside a datagram).
//!
//! This is the reproduction's analogue of the paper's DPDK client/server
//! processes around a Tofino: same wire format, same switch program, same
//! agents — different I/O. Loopback UDP can drop under load, which
//! exercises the retransmission machinery for real.
//!
//! The rack itself — switch, agents, controller, fault model, stats —
//! comes from the shared [`FabricCore`]; this file contributes only the
//! socket topology, the node threads, and a [`Link`] implementation so
//! [`UdpClient`] is the same [`Client`] as the in-process rack's.
//!
//! All packet I/O goes through the [`crate::runtime`] event-loop layer:
//! a [`SocketDriver`] moves whole batches of datagrams per syscall
//! (`recvmmsg`/`sendmmsg` on Linux, plain `recv_from`/`send_to` on the
//! portable fallback) between reusable [`RecvRing`]/[`SendRing`] buffer
//! rings, so the steady-state hot path performs no per-frame heap
//! allocation and spends ~2 syscalls per *batch* instead of ~2 per
//! packet. [`UdpRack::start`] picks the backend via
//! [`RuntimeKind::detect`]; [`UdpRack::start_with_runtime`] pins one.
//!
//! Topology: each switch port maps to one socket address. The switch
//! binds a [`bind_sharded`] socket group — on Linux an `SO_REUSEPORT`
//! group sharing one address, so the kernel shards flows across per-pipe
//! queues — and the servers bind one socket each. All of those sockets
//! are served by a *single* run-to-completion host thread: one
//! [`SocketDriver::wait_group`] covers the whole set, and each wakeup sweeps every
//! ready socket — switch shards run the data-plane program under a
//! shared read lock (per-pipe serialization happens inside
//! [`netcache_dataplane::NetCacheSwitch`]; see DESIGN.md §10), server
//! indices run their [`ServerAgent`] — then re-polls at zero timeout
//! until the rack is quiet. Loopback delivers inline, so a whole
//! request chain (client → switch → server → switch → client) completes
//! within one scheduling visit instead of one thread-rotation per hop;
//! on a single core that is what closes most of the gap to the
//! in-process rack (see DESIGN.md §12).

use std::borrow::Cow;
use std::collections::HashMap;
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use netcache_client::Response;
use netcache_dataplane::PortId;
use netcache_proto::{Key, Packet, Value};
use netcache_server::ServerAgent;

use crate::config::RackConfig;
use crate::fabric::{
    AgentTiming, Client, ClientCounters, ClientResponse, FabricCore, Link, RackError, RackHandle,
    RetryPolicy,
};
use crate::hist::ShardedHistogram;
use crate::runtime::{
    bind_sharded, enter_io_scheduling, make_driver, make_driver_group, RecvRing, RuntimeKind,
    SendRing, SocketDriver, DEFAULT_BATCH, MIN_WAIT,
};

/// Upper bound on an idle wait: long enough to sleep cheaply, short
/// enough that shutdown and retransmission timers stay responsive.
const RECV_TIMEOUT: Duration = Duration::from_millis(20);
/// How often the rack host sweeps agent retransmission timers.
const TICK_EVERY_NS: u64 = 5_000_000;
/// Upper bound on back-to-back run-to-completion sweeps before the rack
/// host re-enters its blocking wait (keeps a saturating sender from
/// pinning the host on a starved scheduler).
const MAX_HOST_PASSES: usize = 8;

fn spawn_thread(
    name: String,
    body: impl FnOnce() + Send + 'static,
) -> Result<JoinHandle<()>, RackError> {
    std::thread::Builder::new()
        .name(name)
        .spawn(body)
        .map_err(RackError::Spawn)
}

/// Flushes `tx` through `driver`, rolling the outcome into the rack's
/// transport counters.
fn flush(core: &FabricCore, driver: &mut dyn SocketDriver, sock: &UdpSocket, tx: &mut SendRing) {
    if tx.is_empty() {
        return;
    }
    if let Ok(out) = driver.send_batch(sock, tx) {
        core.transport().note_send(out);
    } else {
        tx.clear();
    }
}

/// A NetCache rack running over real UDP sockets on loopback.
pub struct UdpRack {
    core: Arc<FabricCore>,
    runtime: RuntimeKind,
    switch_addr: SocketAddr,
    server_sockets: Vec<Arc<UdpSocket>>,
    client_sockets: Vec<Arc<UdpSocket>>,
    shutdown: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

impl UdpRack {
    /// Starts the rack on the auto-detected runtime backend
    /// ([`RuntimeKind::detect`]): binds all sockets, spawns the switch
    /// and server threads, and loads nothing (use `load_dataset`).
    pub fn start(config: RackConfig) -> Result<UdpRack, RackError> {
        UdpRack::start_with_runtime(config, RuntimeKind::detect())
    }

    /// Starts the rack on a specific runtime backend — the one way to pin
    /// a backend; the differential, chaos and allocation suites run each
    /// backend through it.
    pub fn start_with_runtime(
        config: RackConfig,
        runtime: RuntimeKind,
    ) -> Result<UdpRack, RackError> {
        let core = Arc::new(FabricCore::new(config, AgentTiming::loopback())?);
        core.transport().set_backend(runtime.name());
        let shutdown = Arc::new(AtomicBool::new(false));

        // Sockets: one per server, one per client, and a sharded group
        // (one socket per pipe worker) for the switch.
        let workers = core.config().switch.pipes.max(1);
        let (switch_addr, switch_shards) = bind_sharded(workers, runtime)?;

        let mut port_to_addr: HashMap<PortId, SocketAddr> = HashMap::new();
        let mut addr_to_port: HashMap<SocketAddr, PortId> = HashMap::new();

        let mut server_sockets = Vec::new();
        for i in 0..core.config().servers {
            let sock = Arc::new(UdpSocket::bind("127.0.0.1:0")?);
            let addr = sock.local_addr()?;
            let port = core.addressing().server_port(i);
            port_to_addr.insert(port, addr);
            addr_to_port.insert(addr, port);
            server_sockets.push(sock);
        }
        let mut client_sockets = Vec::new();
        for j in 0..core.config().clients {
            let sock = Arc::new(UdpSocket::bind("127.0.0.1:0")?);
            let addr = sock.local_addr()?;
            let port = core.addressing().client_port(j);
            port_to_addr.insert(port, addr);
            addr_to_port.insert(addr, port);
            client_sockets.push(sock);
        }

        let mut threads = Vec::new();

        // The rack host: one run-to-completion event-loop thread drives
        // the switch shards and every storage agent. Each node keeps its
        // own socket and address — every frame still crosses the
        // loopback network — but readiness is polled across the whole
        // set with one `wait_group`, and after a sweep the host re-polls
        // without blocking: loopback delivers inline, so a request's
        // chained switch→server→switch legs complete within one visit
        // instead of threading through a scheduler hand-off per hop.
        // (With one thread per node, a write's invalidate→store→update→
        // ack chain crossed ~5 thread-visit cycles; on machines with few
        // cores each cycle is a full rotation of every busy thread.)
        //
        // Per-socket work is unchanged from the per-thread layout: drain
        // a receive batch, run the data plane / agent on each frame,
        // serialize outputs in place (`deparse_into`) on the transmit
        // ring, flush with one batched send. Ring buffers, drivers and
        // the agents' output buffer are reused for the life of the
        // thread, and neither the switch program nor an agent allocates
        // for a value of at most one pipeline pass (128 B), so the
        // fault-free hot path performs no per-frame heap allocation
        // (`tests/alloc_free.rs` pins this).
        //
        // The fault model is applied on switch egress: every forwarded
        // frame passes through `transmit`, which may drop, duplicate or
        // delay it. Delayed copies sit in a stash drained each loop;
        // the idle wait shrinks to the earliest pending delivery.
        // Server retransmission timers tick on a fixed cadence so a
        // busy host cannot starve them.
        {
            let agents: Vec<Arc<ServerAgent>> = (0..core.config().servers)
                .map(|i| Arc::clone(core.server(i)))
                .collect();
            let core = Arc::clone(&core);
            let shutdown = Arc::clone(&shutdown);
            let shards = switch_shards;
            let socks = server_sockets.clone();
            threads.push(spawn_thread("netcache-rack".into(), move || {
                let _sched = enter_io_scheduling(runtime);
                let start = Instant::now();
                let n_shards = shards.len();
                let refs: Vec<&UdpSocket> =
                    shards.iter().chain(socks.iter().map(Arc::as_ref)).collect();
                // One driver per socket; on the uring backend the whole
                // group shares a single ring, so `wait_group` below is
                // one `io_uring_enter` covering every socket. (Its
                // multishot receives take datagrams off the sockets, so
                // no other readiness test would see them.)
                let mut drivers = make_driver_group(runtime, refs.len());
                let mut rx = RecvRing::new(DEFAULT_BATCH);
                let mut tx = SendRing::new(DEFAULT_BATCH);
                let mut scratch: Vec<u8> = Vec::with_capacity(crate::runtime::MAX_FRAME);
                let mut delayed: Vec<(u64, SocketAddr, Vec<u8>)> = Vec::new();
                let mut deliveries = Vec::new();
                let mut outs: Vec<Packet> = Vec::new();
                let mut ready: Vec<usize> = Vec::with_capacity(refs.len());
                let mut last_tick = 0u64;
                while !shutdown.load(Ordering::Relaxed) {
                    let mut now = start.elapsed().as_nanos() as u64;
                    // Mature fault-model deliveries (sent via shard 0:
                    // the shard group shares one source address).
                    let mut i = 0;
                    while i < delayed.len() {
                        if delayed[i].0 <= now {
                            let (_, addr, frame) = delayed.swap_remove(i);
                            if tx.is_full() {
                                flush(&core, drivers[0].as_mut(), refs[0], &mut tx);
                            }
                            tx.push_frame(addr, &frame);
                        } else {
                            i += 1;
                        }
                    }
                    flush(&core, drivers[0].as_mut(), refs[0], &mut tx);
                    // Wake for the earliest pending delivery rather than
                    // sitting out the full idle timeout.
                    let wait = delayed
                        .iter()
                        .map(|&(at, _, _)| Duration::from_nanos(at.saturating_sub(now)))
                        .min()
                        .map_or(RECV_TIMEOUT, |d| d.clamp(MIN_WAIT, RECV_TIMEOUT));
                    if drivers[0].wait_group(&refs, wait, &mut ready).is_err() {
                        continue;
                    }
                    // Run to completion: sweep every ready socket, then
                    // re-poll without blocking until the rack is quiet
                    // (bounded so a saturating client cannot pin us).
                    let mut passes = 0;
                    loop {
                        now = start.elapsed().as_nanos() as u64;
                        let mut moved = 0usize;
                        for &i in &ready {
                            let Ok(got) = drivers[i].recv_batch(refs[i], &mut rx, Duration::ZERO)
                            else {
                                continue;
                            };
                            core.transport().note_recv(got);
                            moved += got.packets;
                            if i < n_shards {
                                // Switch data plane, under the shared
                                // read lock (per-pipe serialization
                                // happens inside the switch program).
                                for f in 0..rx.len() {
                                    let (frame, src) = rx.frame(f);
                                    let Some(&in_port) = addr_to_port.get(&src) else {
                                        continue; // unknown sender
                                    };
                                    let t0 = Instant::now();
                                    core.switch.read().process_frame_with(
                                        frame,
                                        in_port,
                                        &mut scratch,
                                        |out_port, bytes| {
                                            let Some(&addr) = port_to_addr.get(&out_port) else {
                                                return;
                                            };
                                            if tx.is_full() {
                                                flush(&core, drivers[i].as_mut(), refs[i], &mut tx);
                                            }
                                            if core.faults.is_passthrough() {
                                                tx.push_frame(addr, bytes);
                                                return;
                                            }
                                            let Ok(pkt) = Packet::parse(bytes) else {
                                                // Non-NetCache frames
                                                // bypass the model.
                                                tx.push_frame(addr, bytes);
                                                return;
                                            };
                                            deliveries.clear();
                                            core.faults.transmit(pkt, now, &mut deliveries);
                                            for d in deliveries.drain(..) {
                                                if d.deliver_at_ns <= now {
                                                    if tx.is_full() {
                                                        flush(
                                                            &core,
                                                            drivers[i].as_mut(),
                                                            refs[i],
                                                            &mut tx,
                                                        );
                                                    }
                                                    tx.push_with(addr, |buf| {
                                                        d.pkt.deparse_into(buf)
                                                    });
                                                } else {
                                                    delayed.push((
                                                        d.deliver_at_ns,
                                                        addr,
                                                        d.pkt.deparse(),
                                                    ));
                                                }
                                            }
                                        },
                                    );
                                    core.switch_latency.record(t0.elapsed().as_nanos() as u64);
                                }
                            } else {
                                // Storage agent for this server socket.
                                let agent = &agents[i - n_shards];
                                for f in 0..rx.len() {
                                    let (frame, src) = rx.frame(f);
                                    let Ok(pkt) = Packet::parse(frame) else {
                                        continue;
                                    };
                                    let t0 = Instant::now();
                                    agent.handle_packet_into(pkt, now, &mut outs);
                                    core.server_latency.record(t0.elapsed().as_nanos() as u64);
                                    for out in outs.drain(..) {
                                        if tx.is_full() {
                                            flush(&core, drivers[i].as_mut(), refs[i], &mut tx);
                                        }
                                        tx.push_with(src, |buf| out.deparse_into(buf));
                                    }
                                }
                            }
                            flush(&core, drivers[i].as_mut(), refs[i], &mut tx);
                        }
                        passes += 1;
                        if moved == 0 || passes >= MAX_HOST_PASSES {
                            break;
                        }
                        if drivers[0]
                            .wait_group(&refs, Duration::ZERO, &mut ready)
                            .is_err()
                            || ready.is_empty()
                        {
                            break;
                        }
                    }
                    // Retransmit pending update acks on a fixed cadence.
                    if now.saturating_sub(last_tick) >= TICK_EVERY_NS {
                        last_tick = now;
                        for (s, agent) in agents.iter().enumerate() {
                            let i = n_shards + s;
                            for out in agent.tick(now) {
                                if tx.is_full() {
                                    flush(&core, drivers[i].as_mut(), refs[i], &mut tx);
                                }
                                tx.push_with(switch_addr, |buf| out.deparse_into(buf));
                            }
                            flush(&core, drivers[i].as_mut(), refs[i], &mut tx);
                        }
                    }
                }
            })?);
        }

        Ok(UdpRack {
            core,
            runtime,
            switch_addr,
            server_sockets,
            client_sockets,
            shutdown,
            threads,
        })
    }

    /// The switch's socket address (where clients send frames).
    pub fn switch_addr(&self) -> SocketAddr {
        self.switch_addr
    }

    /// The runtime backend this rack was started on.
    pub fn runtime_kind(&self) -> RuntimeKind {
        self.runtime
    }

    /// Runs one controller cycle (call periodically from the application
    /// thread). The packets of writes its unlocks release are sent as in
    /// [`Self::populate_cache`].
    pub fn run_controller(&self, now_ns: u64) {
        let released = self.core.run_controller_cycle(now_ns);
        self.send_released(released);
    }

    /// Pre-populates the cache with `keys`. Writes that arrived while a
    /// key was locked for its insertion are committed when the unlock
    /// releases them; their packets (the client's ack, a cache update)
    /// are sent to the switch from the owning server's socket, as if the
    /// server had emitted them, so they cross the same fault model.
    pub fn populate_cache(&self, keys: impl IntoIterator<Item = Key>) -> usize {
        let (inserted, released) = self.core.populate(keys, 0);
        self.send_released(released);
        inserted
    }

    /// Sends packets released by controller unlocks, each from the socket
    /// of the server whose port it enters the switch on. These are rare
    /// control-plane sends, so they bypass the runtime's batching; a send
    /// that fails is a lost datagram, which the client's retransmission
    /// covers.
    fn send_released(&self, released: Vec<(PortId, Packet)>) {
        let addressing = self.core.addressing();
        for (port, pkt) in released {
            let server = (0..self.core.config().servers)
                .find(|&i| addressing.server_port(i) == port)
                .expect("released packets enter on a server port");
            let _ = self.server_sockets[server as usize].send_to(&pkt.deparse(), self.switch_addr);
        }
    }

    /// A blocking UDP client bound to client port `j`.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    pub fn client(&self, j: u32) -> UdpClient {
        let link = UdpLink {
            core: Arc::clone(&self.core),
            socket: Arc::clone(&self.client_sockets[j as usize]),
            switch_addr: self.switch_addr,
            runtime: self.runtime,
            driver: make_driver(self.runtime),
            rx: RecvRing::new(DEFAULT_BATCH),
            tx: SendRing::new(DEFAULT_BATCH),
        };
        Client::new(link, self.core.make_client(j)).with_policy(RetryPolicy::loopback())
    }

    /// Stops all threads and joins them.
    pub fn stop(mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl RackHandle for UdpRack {
    fn fabric(&self) -> &FabricCore {
        &self.core
    }

    fn populate_cache(&self, keys: Vec<Key>) -> usize {
        UdpRack::populate_cache(self, keys)
    }
}

impl Drop for UdpRack {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// The UDP client's attachment: its socket, socket driver and buffer
/// rings. Transmit serializes the frame into the transmit ring
/// (`deparse_into`, no allocation) and flushes it to the switch; waiting
/// drives batched receives on the client socket for up to the timeout,
/// returning early once the wanted reply arrives.
pub struct UdpLink {
    core: Arc<FabricCore>,
    socket: Arc<UdpSocket>,
    switch_addr: SocketAddr,
    runtime: RuntimeKind,
    driver: Box<dyn SocketDriver>,
    rx: RecvRing,
    tx: SendRing,
}

impl UdpLink {
    /// Hands over every reply in the receive ring; true if one carried
    /// `want_seq`.
    fn drain_rx(&mut self, reply: &mut impl FnMut(Packet), want_seq: u32) -> bool {
        let mut done = false;
        for i in 0..self.rx.len() {
            let (frame, _) = self.rx.frame(i);
            let Ok(pkt) = Packet::parse(frame) else {
                continue;
            };
            done |= pkt.netcache.seq == want_seq;
            reply(pkt);
        }
        done
    }

    /// Flushes the transmit ring to the switch.
    fn flush(&mut self) {
        flush(&self.core, self.driver.as_mut(), &self.socket, &mut self.tx);
    }
}

impl Link for UdpLink {
    fn transmit(&mut self, pkt: Cow<'_, Packet>, _reply: impl FnMut(Packet)) {
        self.tx
            .push_with(self.switch_addr, |buf| pkt.deparse_into(buf));
        self.flush();
    }

    fn wait(&mut self, timeout_ns: u64, want_seq: u32, mut reply: impl FnMut(Packet)) {
        let deadline = Instant::now() + Duration::from_nanos(timeout_ns);
        loop {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return;
            }
            let Ok(got) = self
                .driver
                .recv_batch(&self.socket, &mut self.rx, remaining)
            else {
                return;
            };
            self.core.transport().note_recv(got);
            if self.drain_rx(&mut reply, want_seq) {
                return;
            }
        }
    }

    fn counters(&self) -> &ClientCounters {
        self.core.counters()
    }

    fn op_latency(&self) -> &ShardedHistogram {
        &self.core.op_latency
    }
}

/// One operation of a pipelined batch (see [`UdpClient::run_pipelined`]).
#[derive(Debug, Clone)]
pub enum PipelineOp {
    /// Read a key.
    Get(Key),
    /// Write a value under a key.
    Put(Key, Value),
    /// Delete a key.
    Delete(Key),
}

/// What a [`UdpClient::run_pipelined`] run accomplished.
#[derive(Debug, Clone, Copy, Default)]
pub struct PipelineReport {
    /// Operations that received a seq-matching reply.
    pub completed: u64,
    /// Operations abandoned after exhausting the retry budget.
    pub abandoned: u64,
    /// Retransmissions performed across all operations.
    pub retries: u64,
    /// Replies discarded as stale or duplicate.
    pub stale_replies: u64,
    /// Completed reads served by the switch cache.
    pub cache_hits: u64,
}

/// One in-flight pipelined request.
struct InFlight {
    pkt: Packet,
    attempt: u32,
    deadline: Instant,
    started: Instant,
}

/// A blocking client over a real UDP socket: per-request retransmission
/// with exponential backoff on the receive window, reply matching by
/// sequence number, and duplicate/stale reply suppression. Defaults to
/// [`RetryPolicy::loopback`].
///
/// [`run_pipelined`](Client::run_pipelined) additionally drives a sliding
/// window of concurrent requests over the same socket — the mode that
/// actually exercises the batched runtime (a single blocking round-trip
/// has nothing to batch).
pub type UdpClient = Client<UdpLink>;

impl Client<UdpLink> {
    /// Reads `key`, retransmitting on loss.
    pub fn get(&mut self, key: Key) -> Option<Response> {
        self.get_with_retry(key)
            .response
            .map(ClientResponse::into_response)
    }

    /// Writes `value` under `key`, retransmitting on loss.
    pub fn put(&mut self, key: Key, value: Value) -> Option<Response> {
        self.put_with_retry(key, value)
            .response
            .map(ClientResponse::into_response)
    }

    /// Deletes `key`, retransmitting on loss.
    pub fn delete(&mut self, key: Key) -> Option<Response> {
        self.delete_with_retry(key)
            .response
            .map(ClientResponse::into_response)
    }

    /// Issues `ops` with up to `window` requests in flight at once.
    ///
    /// Each request individually follows the client's [`RetryPolicy`]
    /// (per-request deadline, exponential backoff, same sequence number
    /// on retransmit, stale/duplicate suppression), exactly like the
    /// one-at-a-time path — but the window keeps the socket full, so
    /// sends coalesce into batched syscalls at every hop and the
    /// round-trip latency of one request overlaps the service of the
    /// others. Completion latency per op is recorded in the rack's
    /// op-latency histogram; retries/stale/abandoned roll into the
    /// rack-wide client counters.
    pub fn run_pipelined(&mut self, ops: &[PipelineOp], window: usize) -> PipelineReport {
        // Batch scheduling for the duration of the run (restored on
        // return): without it, window-sized bursts degenerate into
        // one-datagram ping-pong whenever runnable threads outnumber
        // cores. See [`enter_io_scheduling`].
        let _sched = enter_io_scheduling(self.link.runtime);
        let window = window.max(1);
        let mut report = PipelineReport::default();
        let mut inflight: HashMap<u32, InFlight> = HashMap::new();
        let mut next = 0usize;
        let mut expired: Vec<u32> = Vec::new();
        let core = Arc::clone(&self.link.core);
        let counters = core.counters();
        while next < ops.len() || !inflight.is_empty() {
            // Fill the window, serializing each frame straight into the
            // transmit ring; one flush sends the whole refill.
            while inflight.len() < window && next < ops.len() {
                let pkt = match &ops[next] {
                    PipelineOp::Get(key) => self.builder.get(*key),
                    PipelineOp::Put(key, value) => self.builder.put(*key, value.clone()),
                    PipelineOp::Delete(key) => self.builder.delete(*key),
                };
                next += 1;
                let now = Instant::now();
                let link = &mut self.link;
                if link.tx.is_full() {
                    link.flush();
                }
                link.tx
                    .push_with(link.switch_addr, |buf| pkt.deparse_into(buf));
                let seq = pkt.netcache.seq;
                inflight.insert(
                    seq,
                    InFlight {
                        pkt,
                        attempt: 0,
                        deadline: now + Duration::from_nanos(self.policy.timeout_ns(seq, 0)),
                        started: now,
                    },
                );
            }
            self.link.flush();

            // Sleep until the earliest per-request deadline (bounded so
            // a full window never waits past its first retransmission).
            let now = Instant::now();
            let wait = inflight
                .values()
                .map(|r| r.deadline.saturating_duration_since(now))
                .min()
                .map_or(MIN_WAIT, |d| d.clamp(MIN_WAIT, RECV_TIMEOUT));
            let link = &mut self.link;
            if let Ok(got) = link.driver.recv_batch(&link.socket, &mut link.rx, wait) {
                core.transport().note_recv(got);
            }
            for i in 0..link.rx.len() {
                let (frame, _) = link.rx.frame(i);
                let Ok(reply) = Packet::parse(frame) else {
                    continue;
                };
                let seq = reply.netcache.seq;
                let response = Response::from_packet(&reply);
                let Some(entry) = inflight.get(&seq) else {
                    report.stale_replies += 1;
                    counters.stale_replies.fetch_add(1, Ordering::Relaxed);
                    continue;
                };
                let Some(response) = response else {
                    continue; // not a reply to our query; keep waiting
                };
                core.op_latency
                    .record(entry.started.elapsed().as_nanos() as u64);
                inflight.remove(&seq);
                report.completed += 1;
                if matches!(
                    response,
                    Response::Value {
                        from_cache: true,
                        ..
                    }
                ) {
                    report.cache_hits += 1;
                }
            }

            // Retransmit (or abandon) every request past its deadline.
            let now = Instant::now();
            expired.clear();
            expired.extend(
                inflight
                    .iter()
                    .filter(|(_, r)| r.deadline <= now)
                    .map(|(&seq, _)| seq),
            );
            for &seq in &expired {
                let entry = inflight.get_mut(&seq).expect("expired seq is in flight");
                if entry.attempt >= self.policy.max_retries {
                    inflight.remove(&seq);
                    report.abandoned += 1;
                    counters.abandoned.fetch_add(1, Ordering::Relaxed);
                    continue;
                }
                entry.attempt += 1;
                entry.deadline =
                    now + Duration::from_nanos(self.policy.timeout_ns(seq, entry.attempt));
                report.retries += 1;
                counters.retries.fetch_add(1, Ordering::Relaxed);
                let link = &mut self.link;
                if link.tx.is_full() {
                    link.flush();
                }
                let pkt = &entry.pkt;
                link.tx
                    .push_with(link.switch_addr, |buf| pkt.deparse_into(buf));
            }
            self.link.flush();
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn udp_rack_end_to_end() {
        let mut config = RackConfig::small(2);
        config.clients = 2;
        let rack = UdpRack::start(config).unwrap();
        rack.load_dataset(50, 32);
        rack.populate_cache([Key::from_u64(1)]);

        let mut client = rack.client(0);
        // Cached read: served by the switch thread.
        match client.get(Key::from_u64(1)) {
            Some(Response::Value {
                value, from_cache, ..
            }) => {
                assert!(from_cache);
                assert_eq!(value, Value::for_item(1, 32));
            }
            other => panic!("unexpected response {other:?}"),
        }
        // Uncached read: served by a server thread.
        match client.get(Key::from_u64(2)) {
            Some(Response::Value { from_cache, .. }) => assert!(!from_cache),
            other => panic!("unexpected response {other:?}"),
        }
        // Write-through on a cached key, then read the new value.
        assert!(matches!(
            client.put(Key::from_u64(1), Value::filled(0xdd, 32)),
            Some(Response::PutAck { .. })
        ));
        // The cache update is async; poll until the new value is visible.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            match client.get(Key::from_u64(1)) {
                Some(Response::Value { value, .. }) if value == Value::filled(0xdd, 32) => break,
                _ if std::time::Instant::now() > deadline => panic!("new value never visible"),
                _ => std::thread::sleep(Duration::from_millis(10)),
            }
        }
        // The batched transport accounted its work.
        let stats = rack.transport_stats();
        assert!(stats.recv_packets > 0, "{stats:?}");
        assert!(stats.send_packets > 0, "{stats:?}");
        rack.stop();
    }

    #[test]
    fn udp_rack_survives_lossy_network() {
        let mut config = RackConfig::small(2);
        config.faults = crate::fault::FaultConfig {
            loss: 0.1,
            duplicate: 0.1,
            reorder: 0.05,
            max_delay_ns: 2_000_000, // 2 ms, well under a receive window
            seed: 0xbad_1157,
        };
        let rack = UdpRack::start(config).unwrap();
        rack.load_dataset(20, 32);
        rack.populate_cache([Key::from_u64(1)]);

        let mut client = rack.client(0);
        let mut ok = 0;
        for round in 0..10u64 {
            if matches!(
                client.put(Key::from_u64(round % 4), Value::filled(round as u8, 32)),
                Some(Response::PutAck { .. })
            ) {
                ok += 1;
            }
            if client.get(Key::from_u64(round % 4)).is_some() {
                ok += 1;
            }
        }
        // Retransmission must ride out the injected faults for most
        // requests (each has 6 attempts at ≥90% per-crossing delivery).
        assert!(ok >= 15, "only {ok}/20 requests succeeded");
        let stats = rack.faults().stats();
        assert!(
            stats.dropped + stats.duplicated + stats.delayed > 0,
            "{stats:?}"
        );
        rack.stop();
    }

    #[test]
    fn writes_released_by_a_controller_unlock_are_sent() {
        let rack = UdpRack::start(RackConfig::small(2)).unwrap();
        rack.load_dataset(8, 32);
        let key = Key::from_u64(3);
        let agent = Arc::clone(
            rack.fabric()
                .server(rack.fabric().addressing().home_of(&key).server),
        );
        agent.controller_lock(key);
        // One retransmission at most, long after the unlock: a reply that
        // is never sent shows as a retry.
        let mut client = rack.client(0).with_policy(RetryPolicy {
            max_retries: 1,
            base_timeout_ns: 5_000_000_000,
            max_timeout_ns: 5_000_000_000,
            jitter: 0.0,
        });
        let out = std::thread::scope(|s| {
            let put = s.spawn(move || client.put_with_retry(key, Value::filled(0xab, 32)));
            // The put parks behind the lock; the cache insertion's unlock
            // releases and commits it.
            let deadline = Instant::now() + Duration::from_secs(5);
            while agent.stats().writes_blocked == 0 {
                assert!(
                    Instant::now() < deadline,
                    "the put did not park behind the controller lock within 5 s"
                );
                std::thread::yield_now();
            }
            assert_eq!(rack.populate_cache([key]), 1);
            put.join().expect("client thread")
        });
        assert!(matches!(
            out.response.map(ClientResponse::into_response),
            Some(Response::PutAck { .. })
        ));
        assert_eq!(out.retries, 0, "the released write's ack was not sent");
        assert_eq!(agent.fetch(&key).unwrap().value, Value::filled(0xab, 32));
        rack.stop();
    }

    #[test]
    fn udp_client_reports_retry_outcomes() {
        let config = RackConfig::small(2);
        let rack = UdpRack::start(config).unwrap();
        rack.load_dataset(8, 32);
        let mut client = rack.client(0).with_policy(RetryPolicy {
            max_retries: 3,
            base_timeout_ns: 50_000_000,
            max_timeout_ns: 400_000_000,
            jitter: 0.0,
        });
        let out = client.get_with_retry(Key::from_u64(3));
        let resp = out.response.expect("loopback get should succeed");
        assert!(resp.value().is_some());
        let out = client.put_with_retry(Key::from_u64(3), Value::filled(0x5a, 32));
        assert!(out.response.is_some());
        rack.stop();
    }

    #[test]
    fn pipelined_client_completes_mixed_workload() {
        let mut config = RackConfig::small(2);
        config.controller.cache_capacity = 8;
        let rack = UdpRack::start(config).unwrap();
        rack.load_dataset(64, 32);
        rack.populate_cache((0..4).map(Key::from_u64));

        let mut ops = Vec::new();
        for i in 0..200u64 {
            match i % 5 {
                0 => ops.push(PipelineOp::Put(
                    Key::from_u64(i % 16),
                    Value::filled(i as u8, 32),
                )),
                _ => ops.push(PipelineOp::Get(Key::from_u64(i % 16))),
            }
        }
        let mut client = rack.client(0);
        let report = client.run_pipelined(&ops, 32);
        assert_eq!(
            report.completed + report.abandoned,
            ops.len() as u64,
            "{report:?}"
        );
        assert_eq!(report.abandoned, 0, "loopback should not abandon");
        assert!(report.cache_hits > 0, "cached keys are in the mix");
        // The whole point: far fewer syscalls than packets.
        let stats = rack.transport_stats();
        assert!(stats.packets() > 0);
        if rack.runtime_kind().effective() != RuntimeKind::Portable {
            assert!(
                stats.syscalls_per_packet() < 2.0,
                "batching should beat the 2-syscalls-per-packet baseline: {stats:?}"
            );
        }
        rack.stop();
    }

    #[test]
    fn pipelined_client_on_portable_runtime_matches() {
        let config = RackConfig::small(2);
        let rack = UdpRack::start_with_runtime(config, RuntimeKind::Portable).unwrap();
        rack.load_dataset(32, 32);
        let ops: Vec<PipelineOp> = (0..50u64)
            .map(|i| PipelineOp::Get(Key::from_u64(i % 8)))
            .collect();
        let mut client = rack.client(0);
        let report = client.run_pipelined(&ops, 8);
        assert_eq!(report.completed, 50, "{report:?}");
        rack.stop();
    }
}
