//! The socket event-loop runtime: batched, allocation-free UDP I/O.
//!
//! `BENCH_netcache.json` used to record the loopback-UDP deployment an
//! order of magnitude behind the in-process rack on the same workload —
//! a gap that is pure per-datagram syscall and wakeup overhead, not
//! data-plane cost. This module closes it with a small, pluggable
//! event-loop layer the UDP transport (and any future socket transport)
//! builds on:
//!
//! - [`SocketDriver`] — the backend trait: a batch receive, a batch send
//!   and one wait over a whole socket set. Three backends implement it
//!   (DESIGN.md §12):
//!   - **uring** (Linux, default): multishot `recvmsg` into a provided
//!     buffer ring, one `io_uring_enter` as the set wait, sends through
//!     the batched backend's `sendmmsg`.
//!   - **batched** (Linux): `ppoll(2)` readiness waits with nanosecond
//!     deadlines, then `recvmmsg(2)`/`sendmmsg(2)` move a whole batch of
//!     datagrams per syscall. Declared via local `extern "C"` bindings —
//!     no external crate.
//!   - **portable**: plain `recv_from`/`send_to` behind the same trait,
//!     one datagram per call (kept for non-Linux builds and as a
//!     differential-testing control).
//! - [`RecvRing`] / [`SendRing`] — registered buffer rings: fixed slabs
//!   of reusable frame buffers the drivers scatter into and gather from,
//!   so the steady-state hot path performs no per-packet heap
//!   allocation (pairing with [`netcache_proto::Packet::deparse_into`]).
//! - [`bind_sharded`] — per-pipe sharded switch sockets: on the batched
//!   backend, `n` sockets bound to one address via `SO_REUSEPORT` (the
//!   kernel shards flows across workers, each worker drains its own
//!   queue); on the portable backend, `n` clones of one socket (the
//!   kernel hands each datagram to exactly one blocked receiver).
//! - [`TransportCounters`] — syscalls-per-packet and batch-occupancy
//!   accounting, surfaced through [`crate::RackReport`] so the batching
//!   win is observable rather than assumed.
//!
//! Backend selection is automatic ([`RuntimeKind::detect`]: uring on
//! Linux, degrading per [`RuntimeKind::effective`], portable elsewhere);
//! tests pin a backend through `UdpRack::start_with_runtime`.

use std::io;
use std::net::{Ipv4Addr, SocketAddr, SocketAddrV4, UdpSocket};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use crate::hist::{Histogram, ShardedHistogram};

#[cfg(target_os = "linux")]
mod linux;
mod portable;
#[cfg(target_os = "linux")]
mod uring;

/// Largest frame any rack transport carries (Ethernet/IP/UDP/NetCache).
/// Sized for a maximally recirculated value: 2 KB of VALUE plus the
/// NetCache and encapsulation headers, rounded to a power of two.
pub const MAX_FRAME: usize = 4096;

/// Default datagrams moved per batched syscall. 32 frames amortize the
/// per-call cost well below the per-datagram work while keeping a ring
/// slab at 128 KiB.
pub const DEFAULT_BATCH: usize = 32;

/// Lower bound on a wait (don't busy-spin on an imminent deadline); also
/// the portable backend's one sleep per idle [`SocketDriver::wait_group`].
pub const MIN_WAIT: Duration = Duration::from_micros(50);

/// Which event-loop backend a socket transport runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuntimeKind {
    /// io_uring: multishot `recvmsg` into provided buffer rings, one
    /// `io_uring_enter` wait, `sendmmsg` sends (Linux 6.0+; falls back to
    /// [`RuntimeKind::Batched`] on kernels or sandboxes without the
    /// required opcodes).
    Uring,
    /// `ppoll` + `recvmmsg`/`sendmmsg` batched syscalls with
    /// `SO_REUSEPORT` socket sharding (Linux only; falls back to
    /// [`RuntimeKind::Portable`] elsewhere).
    Batched,
    /// Plain `recv_from`/`send_to`, one datagram per call. Works on every
    /// std platform.
    Portable,
}

impl RuntimeKind {
    /// Picks the backend: uring on Linux (degrading per
    /// [`RuntimeKind::effective`]) and portable everywhere else.
    pub fn detect() -> RuntimeKind {
        if cfg!(target_os = "linux") {
            RuntimeKind::Uring
        } else {
            RuntimeKind::Portable
        }
    }

    /// The backend that will actually run — the fallback ladder:
    /// `Uring` degrades to `Batched` when the io_uring self-test fails
    /// (old kernel, seccomp sandbox), and everything degrades to
    /// `Portable` off Linux.
    pub fn effective(self) -> RuntimeKind {
        #[cfg(target_os = "linux")]
        {
            match self {
                RuntimeKind::Uring if uring::available() => RuntimeKind::Uring,
                RuntimeKind::Uring => RuntimeKind::Batched,
                other => other,
            }
        }
        #[cfg(not(target_os = "linux"))]
        {
            RuntimeKind::Portable
        }
    }

    /// Stable name of the backend that will actually run, for logs and
    /// reports.
    pub fn name(self) -> &'static str {
        match self.effective() {
            RuntimeKind::Uring => "uring",
            RuntimeKind::Batched => "batched",
            RuntimeKind::Portable => "portable",
        }
    }
}

/// What one driver call did: datagrams moved and syscalls spent doing it
/// (including readiness waits and empty wakeups).
#[derive(Debug, Clone, Copy, Default)]
pub struct IoOutcome {
    /// Datagrams received or sent by the call.
    pub packets: usize,
    /// Syscalls the call issued.
    pub syscalls: u64,
    /// Completion-queue entries the call reaped (io_uring backend;
    /// zero elsewhere).
    pub cqes: u64,
}

/// A registered receive ring: `slots` fixed [`MAX_FRAME`] buffers the
/// driver scatters incoming datagrams into. Allocated once, reused for
/// the life of the event loop.
pub struct RecvRing {
    bufs: Vec<Vec<u8>>,
    lens: Vec<usize>,
    srcs: Vec<SocketAddr>,
    count: usize,
}

impl RecvRing {
    /// A ring of `slots` frame buffers.
    pub fn new(slots: usize) -> RecvRing {
        let slots = slots.max(1);
        RecvRing {
            bufs: (0..slots).map(|_| vec![0u8; MAX_FRAME]).collect(),
            lens: vec![0; slots],
            srcs: vec![SocketAddr::V4(SocketAddrV4::new(Ipv4Addr::LOCALHOST, 0)); slots],
            count: 0,
        }
    }

    /// Number of slots.
    pub fn capacity(&self) -> usize {
        self.bufs.len()
    }

    /// Datagrams the last driver call filled.
    pub fn len(&self) -> usize {
        self.count
    }

    /// Whether the last driver call filled nothing.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The `i`-th received frame and its sender.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn frame(&self, i: usize) -> (&[u8], SocketAddr) {
        assert!(i < self.count, "frame index out of range");
        (&self.bufs[i][..self.lens[i]], self.srcs[i])
    }

    /// Driver-side: the whole backing buffer of slot `i`.
    pub(crate) fn slot_mut(&mut self, i: usize) -> &mut [u8] {
        &mut self.bufs[i]
    }

    /// Driver-side: records that slot `i` holds `len` bytes from `src`.
    pub(crate) fn commit(&mut self, i: usize, len: usize, src: SocketAddr) {
        self.lens[i] = len;
        self.srcs[i] = src;
    }

    /// Driver-side: sets the number of filled slots.
    pub(crate) fn set_len(&mut self, count: usize) {
        debug_assert!(count <= self.capacity());
        self.count = count;
    }
}

/// A registered transmit ring: reusable frame buffers gathered into one
/// batched send. Buffers are cleared and refilled in place
/// ([`netcache_proto::Packet::deparse_into`]-style), never freed.
pub struct SendRing {
    bufs: Vec<Vec<u8>>,
    dsts: Vec<SocketAddr>,
    count: usize,
}

impl SendRing {
    /// A ring of `slots` frame buffers.
    pub fn new(slots: usize) -> SendRing {
        let slots = slots.max(1);
        SendRing {
            bufs: (0..slots).map(|_| Vec::with_capacity(MAX_FRAME)).collect(),
            dsts: vec![SocketAddr::V4(SocketAddrV4::new(Ipv4Addr::LOCALHOST, 0)); slots],
            count: 0,
        }
    }

    /// Number of slots.
    pub fn capacity(&self) -> usize {
        self.bufs.len()
    }

    /// Frames queued for the next flush.
    pub fn len(&self) -> usize {
        self.count
    }

    /// Whether nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Whether every slot is queued (flush before pushing more).
    pub fn is_full(&self) -> bool {
        self.count == self.capacity()
    }

    /// Queues a copy of `frame` for `dst`.
    ///
    /// # Panics
    ///
    /// Panics if the ring [`is_full`](Self::is_full).
    pub fn push_frame(&mut self, dst: SocketAddr, frame: &[u8]) {
        self.push_with(dst, |buf| {
            buf.clear();
            buf.extend_from_slice(frame);
        });
    }

    /// Queues a frame for `dst`, letting `fill` serialize directly into
    /// the reused slot buffer (e.g. `|buf| pkt.deparse_into(buf)`).
    ///
    /// # Panics
    ///
    /// Panics if the ring [`is_full`](Self::is_full).
    pub fn push_with(&mut self, dst: SocketAddr, fill: impl FnOnce(&mut Vec<u8>)) {
        assert!(!self.is_full(), "send ring full; flush first");
        fill(&mut self.bufs[self.count]);
        self.dsts[self.count] = dst;
        self.count += 1;
    }

    /// The `i`-th queued frame and its destination.
    pub(crate) fn frame(&self, i: usize) -> (&[u8], SocketAddr) {
        (&self.bufs[i], self.dsts[i])
    }

    /// Empties the ring (buffers keep their capacity).
    pub fn clear(&mut self) {
        self.count = 0;
    }
}

/// The pluggable event-loop backend: batch receive and batch send over one
/// UDP socket, and one wait over a socket set.
///
/// The contract is completion-shaped so the io_uring backend implements
/// it by reaping CQEs: callers never hold socket timeouts or per-frame
/// state between calls — everything a call needs rides in the rings.
pub trait SocketDriver: Send {
    /// The backend actually in use (`"uring"`, `"batched"` or
    /// `"portable"`).
    fn backend(&self) -> &'static str;

    /// Blocks until `sock` is readable or `timeout` elapses, then drains
    /// up to [`RecvRing::capacity`] datagrams without further blocking.
    /// Returns what was moved; `ring.len() == 0` means the wait timed
    /// out (the idle wakeup still counts one syscall). A zero `timeout`
    /// never blocks: the caller has already waited in
    /// [`wait_group`](Self::wait_group).
    fn recv_batch(
        &mut self,
        sock: &UdpSocket,
        ring: &mut RecvRing,
        timeout: Duration,
    ) -> io::Result<IoOutcome>;

    /// Sends every queued frame of `ring` (one syscall per batch on the
    /// batched backend) and clears it. Per-datagram send errors are
    /// dropped silently — UDP gives no delivery guarantee anyway, and
    /// the retransmission machinery above owns recovery.
    fn send_batch(&mut self, sock: &UdpSocket, ring: &mut SendRing) -> io::Result<IoOutcome>;

    /// Waits up to `timeout` for any of `socks` to become readable and
    /// replaces the contents of `ready` with the indices of the sockets
    /// worth a [`recv_batch`](Self::recv_batch) — the multi-socket face of
    /// the event loop, for one thread hosting many endpoints (every switch
    /// shard and storage server of a rack). One `io_uring_enter` on the
    /// uring backend, one `ppoll` on batched; the portable backend cannot
    /// poll a set through `std`, so it sleeps once for at most
    /// [`MIN_WAIT`] and marks every socket ready.
    fn wait_group(
        &mut self,
        socks: &[&UdpSocket],
        timeout: Duration,
        ready: &mut Vec<usize>,
    ) -> io::Result<()>;
}

/// While held, the calling thread runs under the runtime's I/O
/// scheduling regime; dropping it restores the previous policy. See
/// [`enter_io_scheduling`].
pub struct IoSchedGuard {
    #[cfg(target_os = "linux")]
    prev: Option<i32>,
}

impl Drop for IoSchedGuard {
    fn drop(&mut self) {
        #[cfg(target_os = "linux")]
        if let Some(prev) = self.prev.take() {
            linux::restore_scheduling(prev);
        }
    }
}

/// Puts the calling thread under the batched runtime's scheduling regime
/// (`SCHED_BATCH` on Linux) for as long as the returned guard lives.
///
/// Batch scheduling disables wakeup preemption: without it, a thread
/// woken by the first datagram of a burst preempts the sender
/// mid-`sendmmsg` whenever runnable threads outnumber cores, and every
/// batch degenerates into one-datagram ping-pong. With it, senders
/// finish their burst and receivers drain full rings. No-op (the guard
/// is inert) on the portable runtime and on non-Linux platforms.
pub fn enter_io_scheduling(kind: RuntimeKind) -> IoSchedGuard {
    #[cfg(target_os = "linux")]
    {
        IoSchedGuard {
            prev: (kind.effective() != RuntimeKind::Portable)
                .then(linux::enter_batch_scheduling)
                .flatten(),
        }
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = kind;
        IoSchedGuard {}
    }
}

/// Builds the driver for `kind` (see [`RuntimeKind::effective`]).
pub fn make_driver(kind: RuntimeKind) -> Box<dyn SocketDriver> {
    make_driver_group(kind, 1).pop().expect("group of one")
}

/// Builds `n` drivers for one host thread's socket set. On the uring
/// backend all `n` handles share a single ring (so the host's wait is
/// one `io_uring_enter` for the whole set); other backends get `n`
/// independent drivers. A uring group that fails setup at this point
/// (probe raced a sandbox change) degrades to batched drivers.
pub fn make_driver_group(kind: RuntimeKind, n: usize) -> Vec<Box<dyn SocketDriver>> {
    let n = n.max(1);
    match kind.effective() {
        #[cfg(target_os = "linux")]
        RuntimeKind::Uring => uring::make_group(n).unwrap_or_else(|| {
            (0..n)
                .map(|_| Box::new(linux::BatchedDriver::new()) as Box<dyn SocketDriver>)
                .collect()
        }),
        #[cfg(target_os = "linux")]
        RuntimeKind::Batched => (0..n)
            .map(|_| Box::new(linux::BatchedDriver::new()) as Box<dyn SocketDriver>)
            .collect(),
        _ => (0..n)
            .map(|_| Box::<portable::PortableDriver>::default() as Box<dyn SocketDriver>)
            .collect(),
    }
}

/// Whether this process can run the io_uring backend (one probe per
/// process; see `runtime/uring.rs` for what the self-test covers).
pub fn uring_available() -> bool {
    #[cfg(target_os = "linux")]
    {
        uring::available()
    }
    #[cfg(not(target_os = "linux"))]
    {
        false
    }
}

/// Binds `shards` loopback sockets sharing one address for a worker
/// pool: an `SO_REUSEPORT` group on the batched backend (the kernel
/// shards flows, each worker drains a private queue), clones of one
/// socket on the portable backend (each datagram wakes exactly one
/// blocked receiver). Returns the shared address and one socket per
/// worker.
pub fn bind_sharded(shards: usize, kind: RuntimeKind) -> io::Result<(SocketAddr, Vec<UdpSocket>)> {
    let shards = shards.max(1);
    #[cfg(target_os = "linux")]
    if kind.effective() != RuntimeKind::Portable {
        match linux::bind_reuseport_group(shards) {
            Ok(out) => return Ok(out),
            Err(_) => {
                // SO_REUSEPORT unavailable (exotic kernels): degrade to
                // the clone model rather than failing the rack.
            }
        }
    }
    let _ = kind;
    let first = UdpSocket::bind("127.0.0.1:0")?;
    let addr = first.local_addr()?;
    let mut sockets = vec![first];
    while sockets.len() < shards {
        sockets.push(sockets[0].try_clone()?);
    }
    Ok((addr, sockets))
}

/// Rack-wide socket-transport accounting: syscalls and datagrams per
/// direction plus the receive batch-occupancy distribution. Lives in the
/// fabric core so every worker, agent and client of a deployment rolls
/// into one [`crate::RackReport`]; deployments that move packets without
/// sockets (in-process, simulator) leave it at zero.
#[derive(Debug, Default)]
pub struct TransportCounters {
    /// Receive-side syscalls (readiness waits, `recvmmsg`, `recv_from`,
    /// timeout updates).
    pub recv_syscalls: AtomicU64,
    /// Datagrams received.
    pub recv_packets: AtomicU64,
    /// Send-side syscalls.
    pub send_syscalls: AtomicU64,
    /// Datagrams sent.
    pub send_packets: AtomicU64,
    /// Non-empty completion-queue drains (io_uring backend).
    pub cqe_batches: AtomicU64,
    /// Datagrams per non-empty receive batch.
    pub batch_occupancy: ShardedHistogram,
    /// The [`RuntimeKind::name`] of the backend feeding these counters;
    /// set once by the deployment that owns them.
    backend: std::sync::OnceLock<&'static str>,
}

impl TransportCounters {
    /// Labels the counters with the active backend (first caller wins).
    pub fn set_backend(&self, name: &'static str) {
        let _ = self.backend.set(name);
    }

    /// Accounts one receive call; non-empty batches feed the occupancy
    /// distribution.
    pub fn note_recv(&self, out: IoOutcome) {
        self.recv_syscalls
            .fetch_add(out.syscalls, Ordering::Relaxed);
        self.note_ring(out);
        if out.packets > 0 {
            self.recv_packets
                .fetch_add(out.packets as u64, Ordering::Relaxed);
            self.batch_occupancy.record(out.packets as u64);
        }
    }

    /// Accounts one send call.
    pub fn note_send(&self, out: IoOutcome) {
        self.send_syscalls
            .fetch_add(out.syscalls, Ordering::Relaxed);
        self.send_packets
            .fetch_add(out.packets as u64, Ordering::Relaxed);
        self.note_ring(out);
    }

    fn note_ring(&self, out: IoOutcome) {
        if out.cqes > 0 {
            self.cqe_batches.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Point-in-time snapshot of the counters.
    pub fn snapshot(&self) -> TransportStats {
        TransportStats {
            backend: self.backend.get().copied().unwrap_or("none"),
            recv_syscalls: self.recv_syscalls.load(Ordering::Relaxed),
            recv_packets: self.recv_packets.load(Ordering::Relaxed),
            send_syscalls: self.send_syscalls.load(Ordering::Relaxed),
            send_packets: self.send_packets.load(Ordering::Relaxed),
            cqe_batches: self.cqe_batches.load(Ordering::Relaxed),
        }
    }

    /// Snapshot of the receive batch-occupancy distribution.
    pub fn occupancy(&self) -> Histogram {
        self.batch_occupancy.snapshot()
    }
}

/// Snapshot of [`TransportCounters`], surfaced in [`crate::RackReport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransportStats {
    /// The backend that produced these numbers (`"none"` for
    /// deployments that move packets without sockets).
    pub backend: &'static str,
    /// Receive-side syscalls.
    pub recv_syscalls: u64,
    /// Datagrams received.
    pub recv_packets: u64,
    /// Send-side syscalls.
    pub send_syscalls: u64,
    /// Datagrams sent.
    pub send_packets: u64,
    /// Non-empty completion-queue drains (io_uring backend).
    pub cqe_batches: u64,
}

impl Default for TransportStats {
    fn default() -> TransportStats {
        TransportStats {
            backend: "none",
            recv_syscalls: 0,
            recv_packets: 0,
            send_syscalls: 0,
            send_packets: 0,
            cqe_batches: 0,
        }
    }
}

impl TransportStats {
    /// Total syscalls, both directions.
    pub fn syscalls(&self) -> u64 {
        self.recv_syscalls + self.send_syscalls
    }

    /// Total datagrams moved, both directions.
    pub fn packets(&self) -> u64 {
        self.recv_packets + self.send_packets
    }

    /// Syscalls per datagram moved (0.0 before any traffic). The number
    /// the batching exists to push below 1.0 — the unbatched loop spends
    /// ~2 per packet.
    pub fn syscalls_per_packet(&self) -> f64 {
        let packets = self.packets();
        if packets == 0 {
            0.0
        } else {
            self.syscalls() as f64 / packets as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn echo_pair() -> (UdpSocket, UdpSocket) {
        let a = UdpSocket::bind("127.0.0.1:0").unwrap();
        let b = UdpSocket::bind("127.0.0.1:0").unwrap();
        (a, b)
    }

    fn driver_round_trip(kind: RuntimeKind) {
        let (a, b) = echo_pair();
        let b_addr = b.local_addr().unwrap();
        let a_addr = a.local_addr().unwrap();
        let mut driver = make_driver(kind);

        let mut tx = SendRing::new(8);
        for i in 0..5u8 {
            tx.push_with(b_addr, |buf| {
                buf.clear();
                buf.extend_from_slice(&[i, i, i]);
            });
        }
        let sent = driver.send_batch(&a, &mut tx).unwrap();
        assert_eq!(sent.packets, 5);
        assert!(tx.is_empty(), "flush clears the ring");

        let mut rx = RecvRing::new(8);
        let mut got = 0;
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while got < 5 && std::time::Instant::now() < deadline {
            let out = driver
                .recv_batch(&b, &mut rx, Duration::from_millis(100))
                .unwrap();
            assert_eq!(out.packets, rx.len());
            for i in 0..rx.len() {
                let (frame, src) = rx.frame(i);
                assert_eq!(src, a_addr);
                assert_eq!(frame.len(), 3);
                got += 1;
            }
        }
        assert_eq!(got, 5, "all datagrams arrive ({})", driver.backend());
    }

    #[test]
    fn portable_driver_round_trips() {
        driver_round_trip(RuntimeKind::Portable);
    }

    #[test]
    fn batched_driver_round_trips() {
        driver_round_trip(RuntimeKind::Batched);
    }

    #[test]
    fn uring_driver_round_trips() {
        // Degrades to batched where io_uring is unavailable; the
        // round-trip contract holds either way.
        driver_round_trip(RuntimeKind::Uring);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn batched_driver_moves_whole_batches() {
        let (a, b) = echo_pair();
        let b_addr = b.local_addr().unwrap();
        let mut driver = make_driver(RuntimeKind::Batched);
        assert_eq!(driver.backend(), "batched");

        let mut tx = SendRing::new(16);
        for i in 0..16u8 {
            tx.push_frame(b_addr, &[i; 4]);
        }
        let sent = driver.send_batch(&a, &mut tx).unwrap();
        assert_eq!(sent.packets, 16);
        assert_eq!(sent.syscalls, 1, "one sendmmsg moves the whole batch");

        // Give the loopback queue a moment, then drain in one call.
        let mut rx = RecvRing::new(16);
        let mut got = 0;
        let mut calls = 0;
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while got < 16 && std::time::Instant::now() < deadline {
            driver
                .recv_batch(&b, &mut rx, Duration::from_millis(200))
                .unwrap();
            if !rx.is_empty() {
                calls += 1;
                got += rx.len();
            }
        }
        assert_eq!(got, 16);
        assert!(calls <= 4, "batched receive drains multiple frames/call");
    }

    #[test]
    fn recv_timeout_returns_empty() {
        let (a, _b) = echo_pair();
        let mut rx = RecvRing::new(4);
        for kind in [
            RuntimeKind::Portable,
            RuntimeKind::Batched,
            RuntimeKind::Uring,
        ] {
            let mut driver = make_driver(kind);
            for timeout in [Duration::from_millis(5), Duration::ZERO] {
                let out = driver.recv_batch(&a, &mut rx, timeout).unwrap();
                assert_eq!(out.packets, 0);
                assert!(rx.is_empty());
                assert!(out.syscalls >= 1, "the idle wakeup is accounted");
            }
        }
    }

    #[test]
    fn portable_sweep_sets_nonblocking_mode_once() {
        let (a, _b) = echo_pair();
        let mut rx = RecvRing::new(4);
        let mut driver = make_driver(RuntimeKind::Portable);
        let mut sweep = |driver: &mut Box<dyn SocketDriver>| {
            driver
                .recv_batch(&a, &mut rx, Duration::ZERO)
                .unwrap()
                .syscalls
        };
        assert_eq!(sweep(&mut driver), 2, "first sweep sets the mode");
        assert_eq!(sweep(&mut driver), 1, "later sweeps only probe");
        // A blocking receive leaves the socket blocking; the next sweep
        // must set the mode again rather than block.
        driver
            .recv_batch(&a, &mut RecvRing::new(4), Duration::from_millis(1))
            .unwrap();
        assert_eq!(sweep(&mut driver), 2, "mode restored after a wait");
    }

    #[test]
    fn sharded_bind_shares_one_address() {
        for kind in [
            RuntimeKind::Portable,
            RuntimeKind::Batched,
            RuntimeKind::Uring,
        ] {
            let (addr, sockets) = bind_sharded(3, kind).unwrap();
            assert_eq!(sockets.len(), 3);
            for s in &sockets {
                assert_eq!(s.local_addr().unwrap(), addr);
            }
            // Datagrams sent to the shared address land on exactly one
            // shard and are receivable.
            let tx = UdpSocket::bind("127.0.0.1:0").unwrap();
            tx.send_to(b"ping", addr).unwrap();
            let mut driver = make_driver(kind);
            let mut rx = RecvRing::new(4);
            let mut seen = 0;
            let deadline = std::time::Instant::now() + Duration::from_secs(5);
            'outer: while std::time::Instant::now() < deadline {
                for s in &sockets {
                    driver
                        .recv_batch(s, &mut rx, Duration::from_millis(20))
                        .unwrap();
                    if !rx.is_empty() {
                        seen += rx.len();
                        break 'outer;
                    }
                }
            }
            assert_eq!(seen, 1, "one shard received the datagram");
        }
    }

    #[test]
    fn counters_accumulate_and_ratio() {
        let c = TransportCounters::default();
        c.set_backend("uring");
        c.note_recv(IoOutcome {
            packets: 8,
            syscalls: 2,
            cqes: 8,
        });
        c.note_recv(IoOutcome {
            packets: 0,
            syscalls: 1,
            ..Default::default()
        });
        c.note_send(IoOutcome {
            packets: 8,
            syscalls: 1,
            cqes: 2,
        });
        let s = c.snapshot();
        assert_eq!(s.backend, "uring");
        assert_eq!(s.cqe_batches, 2, "only non-empty drains count");
        assert_eq!(s.recv_packets, 8);
        assert_eq!(s.recv_syscalls, 3);
        assert_eq!(s.send_packets, 8);
        assert_eq!(s.packets(), 16);
        assert_eq!(s.syscalls(), 4);
        assert!((s.syscalls_per_packet() - 0.25).abs() < 1e-9);
        let occ = c.occupancy();
        assert_eq!(occ.count(), 1, "empty wakeups don't skew occupancy");
        assert_eq!(occ.max(), 8);
    }

    #[test]
    fn detect_picks_the_platform_backend() {
        let (detected, batched) = if cfg!(target_os = "linux") {
            (RuntimeKind::Uring, "batched")
        } else {
            (RuntimeKind::Portable, "portable")
        };
        assert_eq!(RuntimeKind::detect(), detected);
        assert_eq!(RuntimeKind::Batched.name(), batched);
        assert_eq!(RuntimeKind::Portable.effective(), RuntimeKind::Portable);
        assert_eq!(RuntimeKind::Portable.name(), "portable");
    }

    #[test]
    fn wait_group_finds_the_readable_socket() {
        for kind in [
            RuntimeKind::Portable,
            RuntimeKind::Batched,
            RuntimeKind::Uring,
        ] {
            let (tx, idle) = echo_pair();
            let busy = UdpSocket::bind("127.0.0.1:0").unwrap();
            let socks = [&idle, &busy];
            let mut driver = make_driver(kind);
            let mut ready = vec![7];
            driver
                .wait_group(&socks, Duration::from_millis(5), &mut ready)
                .unwrap();
            assert!(
                ready.iter().all(|&i| i < socks.len()),
                "ready is replaced, not appended to ({})",
                driver.backend()
            );

            tx.send_to(b"ping", busy.local_addr().unwrap()).unwrap();
            let mut rx = RecvRing::new(4);
            let deadline = std::time::Instant::now() + Duration::from_secs(5);
            let mut got = 0;
            while got == 0 && std::time::Instant::now() < deadline {
                driver
                    .wait_group(&socks, Duration::from_millis(100), &mut ready)
                    .unwrap();
                for &i in &ready {
                    got += driver
                        .recv_batch(socks[i], &mut rx, Duration::ZERO)
                        .unwrap()
                        .packets;
                }
            }
            assert_eq!(got, 1, "the datagram arrives ({})", driver.backend());
        }
    }

    #[test]
    fn send_ring_reuses_buffers() {
        let mut ring = SendRing::new(2);
        let dst: SocketAddr = "127.0.0.1:9".parse().unwrap();
        ring.push_frame(dst, &[1, 2, 3]);
        ring.push_frame(dst, &[4]);
        assert!(ring.is_full());
        let ptr_before = ring.frame(0).0.as_ptr();
        ring.clear();
        ring.push_frame(dst, &[9, 9]);
        assert_eq!(ring.frame(0).0, &[9, 9]);
        assert_eq!(ring.frame(0).0.as_ptr(), ptr_before, "slot buffer reused");
    }
}
