//! The Linux batched backend: `ppoll` readiness waits, `recvmmsg` /
//! `sendmmsg` batch syscalls, and `SO_REUSEPORT` socket groups.
//!
//! The workspace vendors no FFI crate, so the handful of syscalls and C
//! structs this backend needs are declared locally. Layouts match the
//! x86_64/aarch64 Linux ABI: `#[repr(C)]` reproduces the kernel's field
//! padding from the same field order and widths glibc uses.

use std::io;
use std::mem;
use std::net::{Ipv4Addr, SocketAddr, SocketAddrV4, UdpSocket};
use std::os::unix::io::{AsRawFd, FromRawFd, RawFd};
use std::time::Duration;

use super::{IoOutcome, RecvRing, SendRing, SocketDriver};

const AF_INET: i32 = 2;
const SOCK_DGRAM: i32 = 2;
const SOL_SOCKET: i32 = 1;
const SO_REUSEPORT: i32 = 15;
const SOL_UDP: i32 = 17;
const UDP_SEGMENT: i32 = 103;
const UDP_GRO: i32 = 104;
const POLLIN: i16 = 0x001;
const POLLOUT: i16 = 0x004;
const MSG_DONTWAIT: i32 = 0x40;
const EINTR: i32 = 4;
const EAGAIN: i32 = 11;
const EINVAL: i32 = 22;

/// Kernel limit on segments per GSO super-datagram (`UDP_MAX_SEGMENTS`).
const MAX_GSO_SEGMENTS: usize = 64;
/// Stay safely under the 65507-byte UDP payload ceiling.
const MAX_GSO_BYTES: usize = 60_000;
/// Staging size for one GRO super-datagram (the 16-bit UDP ceiling).
const GRO_BUF: usize = 1 << 16;

#[repr(C)]
#[derive(Clone, Copy)]
pub(crate) struct SockaddrIn {
    sin_family: u16,
    /// Network byte order.
    sin_port: u16,
    /// Network byte order.
    sin_addr: u32,
    sin_zero: [u8; 8],
}

impl SockaddrIn {
    fn zeroed() -> SockaddrIn {
        SockaddrIn {
            sin_family: 0,
            sin_port: 0,
            sin_addr: 0,
            sin_zero: [0; 8],
        }
    }

    fn from_addr(addr: &SocketAddrV4) -> SockaddrIn {
        SockaddrIn {
            sin_family: AF_INET as u16,
            sin_port: addr.port().to_be(),
            sin_addr: u32::from(*addr.ip()).to_be(),
            sin_zero: [0; 8],
        }
    }

    pub(crate) fn to_addr(self) -> SocketAddr {
        SocketAddr::V4(SocketAddrV4::new(
            Ipv4Addr::from(u32::from_be(self.sin_addr)),
            u16::from_be(self.sin_port),
        ))
    }
}

#[repr(C)]
#[derive(Clone, Copy)]
struct IoVec {
    base: *mut u8,
    len: usize,
}

#[repr(C)]
#[derive(Clone, Copy)]
pub(crate) struct MsgHdr {
    name: *mut SockaddrIn,
    namelen: u32,
    iov: *mut IoVec,
    iovlen: usize,
    control: *mut u8,
    controllen: usize,
    flags: i32,
}

impl MsgHdr {
    /// A header carrying only buffer lengths — the template a multishot
    /// `recvmsg` reads: room for a `namelen`-byte source address and
    /// `controllen` bytes of control messages in each provided buffer.
    pub(crate) fn lengths_only(namelen: u32, controllen: usize) -> MsgHdr {
        MsgHdr {
            name: std::ptr::null_mut(),
            namelen,
            iov: std::ptr::null_mut(),
            iovlen: 0,
            control: std::ptr::null_mut(),
            controllen,
            flags: 0,
        }
    }
}

#[repr(C)]
#[derive(Clone, Copy)]
struct MMsgHdr {
    hdr: MsgHdr,
    /// Bytes transferred for this message, filled by the kernel.
    len: u32,
}

impl MMsgHdr {
    fn zeroed() -> MMsgHdr {
        MMsgHdr {
            hdr: MsgHdr::lengths_only(0, 0),
            len: 0,
        }
    }
}

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
pub(crate) struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

impl Timespec {
    pub(crate) fn from_duration(d: Duration) -> Timespec {
        Timespec {
            tv_sec: d.as_secs() as i64,
            tv_nsec: d.subsec_nanos() as i64,
        }
    }
}

/// `struct cmsghdr` followed by its aligned payload — sized exactly
/// `CMSG_SPACE(sizeof(u16))` for the one control message we ever send:
/// `UDP_SEGMENT`, the GSO segment size.
#[repr(C)]
#[derive(Clone, Copy)]
struct GsoCmsg {
    /// `cmsg_len`: header plus payload, unpadded (`CMSG_LEN(2)`).
    len: usize,
    level: i32,
    ty: i32,
    gso_size: u16,
    _pad: [u8; 6],
}

impl GsoCmsg {
    fn new(gso_size: u16) -> GsoCmsg {
        GsoCmsg {
            len: mem::size_of::<usize>() + 2 * mem::size_of::<i32>() + mem::size_of::<u16>(),
            level: SOL_UDP,
            ty: UDP_SEGMENT,
            gso_size,
            _pad: [0; 6],
        }
    }
}

#[repr(C)]
struct SchedParam {
    priority: i32,
}

const SCHED_OTHER: i32 = 0;
const SCHED_BATCH: i32 = 3;

extern "C" {
    fn socket(domain: i32, ty: i32, protocol: i32) -> i32;
    fn bind(fd: i32, addr: *const SockaddrIn, addrlen: u32) -> i32;
    fn getsockname(fd: i32, addr: *mut SockaddrIn, addrlen: *mut u32) -> i32;
    fn setsockopt(fd: i32, level: i32, optname: i32, optval: *const i32, optlen: u32) -> i32;
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
    fn recvmmsg(
        fd: i32,
        msgvec: *mut MMsgHdr,
        vlen: u32,
        flags: i32,
        timeout: *mut Timespec,
    ) -> i32;
    fn sendmmsg(fd: i32, msgvec: *mut MMsgHdr, vlen: u32, flags: i32) -> i32;
    fn sched_getscheduler(pid: i32) -> i32;
    fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
}

/// Moves the calling thread to `SCHED_BATCH`, disabling wakeup
/// preemption: a thread woken by an incoming batch no longer preempts
/// the sender mid-`sendmmsg`, so bursts stay intact instead of
/// degenerating into one-datagram ping-pong when cores are scarce.
/// Returns the previous policy for [`restore_scheduling`], or `None` if
/// the kernel refused (nothing changed).
pub(crate) fn enter_batch_scheduling() -> Option<i32> {
    let prev = unsafe { sched_getscheduler(0) };
    if prev < 0 || prev == SCHED_BATCH {
        return None;
    }
    let param = SchedParam { priority: 0 };
    let rc = unsafe { sched_setscheduler(0, SCHED_BATCH, &param) };
    (rc == 0).then_some(prev)
}

/// Restores the scheduling policy saved by [`enter_batch_scheduling`].
pub(crate) fn restore_scheduling(policy: i32) {
    let param = SchedParam { priority: 0 };
    let policy = if policy == SCHED_BATCH {
        SCHED_OTHER
    } else {
        policy
    };
    unsafe { sched_setscheduler(0, policy, &param) };
}

fn last_errno() -> i32 {
    io::Error::last_os_error().raw_os_error().unwrap_or(0)
}

/// One `ppoll` over `pfds` with nanosecond precision. Returns whether any
/// descriptor is ready; `EINTR` counts as "none ready" (the caller's loop
/// re-enters).
fn poll(pfds: &mut [PollFd], timeout: Duration) -> io::Result<bool> {
    let ts = Timespec::from_duration(timeout);
    let rc = unsafe { ppoll(pfds.as_mut_ptr(), pfds.len() as u64, &ts, std::ptr::null()) };
    if rc < 0 {
        let errno = last_errno();
        if errno == EINTR {
            return Ok(false);
        }
        return Err(io::Error::last_os_error());
    }
    Ok(rc > 0)
}

/// Waits for `events` on `fd`. Exactly one syscall.
fn wait_ready(fd: RawFd, events: i16, timeout: Duration) -> io::Result<bool> {
    let mut pfd = [PollFd {
        fd,
        events,
        revents: 0,
    }];
    poll(&mut pfd, timeout)
}

/// The `ppoll` + `recvmmsg`/`sendmmsg` driver. Holds the scatter-gather
/// scratch arrays (message headers, iovecs, address slots) so no call
/// allocates once the arrays reach the ring size.
pub(crate) struct BatchedDriver {
    addrs: Vec<SockaddrIn>,
    iovecs: Vec<IoVec>,
    msgs: Vec<MMsgHdr>,
    /// Whether sends may coalesce same-destination equal-size runs into
    /// GSO super-datagrams (`UDP_SEGMENT`). Probed once per process;
    /// cleared if the kernel ever rejects a GSO send.
    gso: bool,
    /// Send-plan scratch: ring indices in (destination, length) order.
    order: Vec<usize>,
    /// Send-plan scratch: datagrams carried by each planned message.
    segs: Vec<u32>,
    /// Concatenated payloads of GSO messages (reused across flushes).
    staging: Vec<Vec<u8>>,
    /// One `UDP_SEGMENT` control message per GSO message; doubles as the
    /// `UDP_GRO` control space on receive (same wire layout).
    controls: Vec<GsoCmsg>,
    /// Whether this driver's socket has `UDP_GRO` coalescing enabled —
    /// `None` until the first receive probes the kernel.
    gro: Option<bool>,
    /// GRO staging: one [`GRO_BUF`] buffer per message of the last
    /// `recvmmsg`, cut back into ring frames as calls ask for them.
    gro_bufs: Vec<Vec<u8>>,
    /// The non-empty messages in `gro_bufs`, recorded before a send can
    /// reuse the shared header arrays.
    gro_msgs: Vec<GroMsg>,
    /// Where the next datagram starts: message index into `gro_msgs`,
    /// byte offset into its buffer. Datagrams that did not fit the ring
    /// are served from here, with no syscall, by the next call.
    gro_next: (usize, usize),
    /// The `wait_group` poll set, rebuilt in place on every call.
    pollfds: Vec<PollFd>,
}

/// Whether this kernel supports `UDP_SEGMENT` (one probe per process).
fn gso_supported() -> bool {
    static SUPPORTED: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *SUPPORTED.get_or_init(|| {
        let Ok(sock) = UdpSocket::bind("127.0.0.1:0") else {
            return false;
        };
        let zero: i32 = 0;
        unsafe { setsockopt(sock.as_raw_fd(), SOL_UDP, UDP_SEGMENT, &zero, 4) == 0 }
    })
}

// The raw pointers inside `msgs` are scratch: they are (re)pointed at the
// driver's own `addrs`/`iovecs` and the caller's ring buffers at the top of
// every `recv_batch`/`send_batch` call and never escape it, so moving the
// driver between threads cannot leave a pointer dangling across uses.
unsafe impl Send for BatchedDriver {}

impl BatchedDriver {
    pub(crate) fn new() -> BatchedDriver {
        BatchedDriver {
            addrs: Vec::new(),
            iovecs: Vec::new(),
            msgs: Vec::new(),
            gso: gso_supported(),
            order: Vec::new(),
            segs: Vec::new(),
            staging: Vec::new(),
            controls: Vec::new(),
            gro: None,
            gro_bufs: Vec::new(),
            gro_msgs: Vec::new(),
            gro_next: (0, 0),
            pollfds: Vec::new(),
        }
    }

    /// Grows the scratch arrays to hold `n` messages. Everything is sized
    /// up-front so the planning pass in `send_batch` never reallocates a
    /// vector that raw message pointers already point into.
    fn reserve(&mut self, n: usize) {
        if self.addrs.len() < n {
            self.addrs.resize(n, SockaddrIn::zeroed());
            self.iovecs.resize(
                n,
                IoVec {
                    base: std::ptr::null_mut(),
                    len: 0,
                },
            );
            self.msgs.resize(n, MMsgHdr::zeroed());
            self.staging.resize_with(n, Vec::new);
            self.controls.resize(n, GsoCmsg::new(0));
        }
    }

    /// Cuts datagrams out of the GRO messages from `gro_next` on until the
    /// ring is full or every message is consumed.
    fn split_gro(&mut self, ring: &mut RecvRing) -> usize {
        let mut out = 0;
        while out < ring.capacity() {
            let (i, off) = self.gro_next;
            let Some(&GroMsg { buf, len, src, seg }) = self.gro_msgs.get(i) else {
                break;
            };
            let end = (off + seg).min(len);
            let slot = ring.slot_mut(out);
            let take = (end - off).min(slot.len());
            slot[..take].copy_from_slice(&self.gro_bufs[buf][off..off + take]);
            ring.commit(out, take, src);
            out += 1;
            self.gro_next = if end < len { (i, end) } else { (i + 1, 0) };
        }
        ring.set_len(out);
        out
    }
}

/// One message of a GRO receive: the `gro_bufs` index it landed in
/// (its `recvmmsg` index — empty messages are skipped, so this differs
/// from its position in `gro_msgs`), its length, sender and segment size.
#[derive(Clone, Copy)]
struct GroMsg {
    buf: usize,
    len: usize,
    src: SocketAddr,
    seg: usize,
}

impl SocketDriver for BatchedDriver {
    fn backend(&self) -> &'static str {
        "batched"
    }

    fn recv_batch(
        &mut self,
        sock: &UdpSocket,
        ring: &mut RecvRing,
        timeout: Duration,
    ) -> io::Result<IoOutcome> {
        ring.set_len(0);
        // Serve what is left of an earlier GRO receive before touching
        // the socket again: it is already in user space.
        if self.gro_next.0 < self.gro_msgs.len() {
            return Ok(IoOutcome {
                packets: self.split_gro(ring),
                syscalls: 0,
                ..Default::default()
            });
        }
        let fd = sock.as_raw_fd();
        if self.gro.is_none() {
            // First receive on this socket: ask the kernel to hand GSO
            // super-datagrams up intact (one skb and one `UDP_GRO` cmsg
            // for a whole same-flow burst) instead of re-segmenting them.
            let one: i32 = 1;
            let rc = unsafe { setsockopt(fd, SOL_UDP, UDP_GRO, &one, 4) };
            self.gro = Some(rc == 0);
        }
        // A zero timeout follows a group wait that already reported the
        // socket readable: go straight to the non-blocking drain, where
        // `EAGAIN` means empty.
        let mut syscalls = 1;
        if !timeout.is_zero() {
            if !wait_ready(fd, POLLIN, timeout)? {
                return Ok(IoOutcome {
                    packets: 0,
                    syscalls,
                    ..Default::default()
                });
            }
            syscalls += 1;
        }
        let n = ring.capacity();
        self.reserve(n);
        let gro = self.gro == Some(true);
        if gro && self.gro_bufs.len() < n {
            self.gro_bufs.resize_with(n, || vec![0u8; GRO_BUF]);
            self.gro_msgs.reserve(n);
        }
        for i in 0..n {
            let (base, len, control, controllen) = if gro {
                self.controls[i] = GsoCmsg::new(0);
                (
                    self.gro_bufs[i].as_mut_ptr(),
                    GRO_BUF,
                    (&mut self.controls[i]) as *mut GsoCmsg as *mut u8,
                    mem::size_of::<GsoCmsg>(),
                )
            } else {
                let buf = ring.slot_mut(i);
                (buf.as_mut_ptr(), buf.len(), std::ptr::null_mut(), 0)
            };
            self.iovecs[i] = IoVec { base, len };
            self.addrs[i] = SockaddrIn::zeroed();
            self.msgs[i] = MMsgHdr {
                hdr: MsgHdr {
                    name: &mut self.addrs[i],
                    namelen: mem::size_of::<SockaddrIn>() as u32,
                    iov: &mut self.iovecs[i],
                    iovlen: 1,
                    control,
                    controllen,
                    flags: 0,
                },
                len: 0,
            };
        }
        let rc = unsafe {
            recvmmsg(
                fd,
                self.msgs.as_mut_ptr(),
                n as u32,
                MSG_DONTWAIT,
                std::ptr::null_mut(),
            )
        };
        if rc < 0 {
            let errno = last_errno();
            if errno == EAGAIN || errno == EINTR {
                // Nothing queued, or raced another shard to the queue:
                // readable when polled, empty by the time we drained.
                return Ok(IoOutcome {
                    packets: 0,
                    syscalls,
                    ..Default::default()
                });
            }
            return Err(io::Error::last_os_error());
        }
        let got = rc as usize;
        if !gro {
            for i in 0..got {
                ring.commit(i, self.msgs[i].len as usize, self.addrs[i].to_addr());
            }
            ring.set_len(got);
            return Ok(IoOutcome {
                packets: got,
                syscalls,
                ..Default::default()
            });
        }
        // GRO split: each message may carry a whole burst; the `UDP_GRO`
        // cmsg gives the segment size to cut it back into datagrams.
        self.gro_msgs.clear();
        for i in 0..got {
            let len = self.msgs[i].len as usize;
            let c = &self.controls[i];
            let seg = if self.msgs[i].hdr.controllen >= GsoCmsg::new(0).len
                && c.level == SOL_UDP
                && c.ty == UDP_GRO
                && c.gso_size > 0
            {
                c.gso_size as usize
            } else {
                len
            };
            if len > 0 {
                let src = self.addrs[i].to_addr();
                self.gro_msgs.push(GroMsg {
                    buf: i,
                    len,
                    src,
                    seg,
                });
            }
        }
        self.gro_next = (0, 0);
        Ok(IoOutcome {
            packets: self.split_gro(ring),
            syscalls,
            ..Default::default()
        })
    }

    fn send_batch(&mut self, sock: &UdpSocket, ring: &mut SendRing) -> io::Result<IoOutcome> {
        let count = ring.len();
        if count == 0 {
            return Ok(IoOutcome::default());
        }
        let fd = sock.as_raw_fd();
        self.reserve(count);

        // Plan the flush: visit frames in (destination, length) order so
        // equal-size same-destination runs coalesce into one GSO
        // super-datagram — one kernel traversal for the whole run
        // instead of one per datagram. Reordering across destinations
        // (and across sizes within one) is plain UDP behavior the
        // sequence-matching machinery above already absorbs; per-run
        // order is preserved.
        self.order.clear();
        self.order.extend(0..count);
        if self.gso {
            self.order.sort_by(|&a, &b| {
                let (fa, da) = ring.frame(a);
                let (fb, db) = ring.frame(b);
                (da, fa.len()).cmp(&(db, fb.len())).then(a.cmp(&b))
            });
        }
        self.segs.clear();
        let mut staged = 0usize;
        let mut messages = 0usize;
        let mut i = 0usize;
        while i < count {
            let (first, dst) = ring.frame(self.order[i]);
            let flen = first.len();
            let mut j = i + 1;
            if self.gso && flen > 0 {
                while j < count && j - i < MAX_GSO_SEGMENTS && (j - i + 1) * flen <= MAX_GSO_BYTES {
                    let (f, d) = ring.frame(self.order[j]);
                    if d != dst || f.len() != flen {
                        break;
                    }
                    j += 1;
                }
            }
            let SocketAddr::V4(dst) = dst else {
                unreachable!("rack transports are IPv4-loopback only");
            };
            self.addrs[messages] = SockaddrIn::from_addr(&dst);
            let (control, controllen): (*mut u8, usize) = if j - i == 1 {
                // Lone frame: gather straight from the ring, no GSO.
                self.iovecs[messages] = IoVec {
                    base: first.as_ptr() as *mut u8,
                    len: flen,
                };
                (std::ptr::null_mut(), 0)
            } else {
                // A run: concatenate into a reused staging buffer and
                // let the kernel segment it back at `flen` boundaries.
                self.staging[staged].clear();
                for &k in &self.order[i..j] {
                    let (f, _) = ring.frame(k);
                    self.staging[staged].extend_from_slice(f);
                }
                self.controls[staged] = GsoCmsg::new(flen as u16);
                self.iovecs[messages] = IoVec {
                    base: self.staging[staged].as_ptr() as *mut u8,
                    len: self.staging[staged].len(),
                };
                let control = (&mut self.controls[staged]) as *mut GsoCmsg as *mut u8;
                staged += 1;
                (control, mem::size_of::<GsoCmsg>())
            };
            self.segs.push((j - i) as u32);
            self.msgs[messages] = MMsgHdr {
                hdr: MsgHdr {
                    name: &mut self.addrs[messages],
                    namelen: mem::size_of::<SockaddrIn>() as u32,
                    iov: &mut self.iovecs[messages],
                    iovlen: 1,
                    control,
                    controllen,
                    flags: 0,
                },
                len: 0,
            };
            messages += 1;
            i = j;
        }

        let mut sent = 0usize;
        let mut syscalls = 0u64;
        let mut stalls = 0u32;
        while sent < messages {
            let rc = unsafe {
                sendmmsg(
                    fd,
                    self.msgs.as_mut_ptr().wrapping_add(sent),
                    (messages - sent) as u32,
                    MSG_DONTWAIT,
                )
            };
            syscalls += 1;
            if rc > 0 {
                sent += rc as usize;
                continue;
            }
            let errno = last_errno();
            if errno == EINTR {
                continue;
            }
            if errno == EAGAIN && stalls < 3 {
                // Socket buffer full: wait briefly for drain, then retry.
                stalls += 1;
                syscalls += 1;
                let _ = wait_ready(fd, POLLOUT, Duration::from_millis(1))?;
                continue;
            }
            if self.gso && staged > 0 && errno == EINVAL {
                // An exotic kernel took the probe but rejects real GSO
                // sends: never coalesce again. The rest of this batch is
                // dropped (UDP semantics; retransmission recovers).
                self.gso = false;
            }
            // Persistent backpressure or a real error: drop the rest of
            // the batch (UDP semantics; retransmission recovers).
            break;
        }
        ring.clear();
        let packets = self.segs[..sent].iter().map(|&s| s as usize).sum();
        Ok(IoOutcome {
            packets,
            syscalls,
            ..Default::default()
        })
    }

    fn wait_group(
        &mut self,
        socks: &[&UdpSocket],
        timeout: Duration,
        ready: &mut Vec<usize>,
    ) -> io::Result<()> {
        ready.clear();
        self.pollfds.clear();
        self.pollfds.extend(socks.iter().map(|s| PollFd {
            fd: s.as_raw_fd(),
            events: POLLIN,
            revents: 0,
        }));
        if poll(&mut self.pollfds, timeout)? {
            ready
                .extend((0..self.pollfds.len()).filter(|&i| self.pollfds[i].revents & POLLIN != 0));
        }
        Ok(())
    }
}

/// Binds `shards` UDP sockets to one loopback address via an
/// `SO_REUSEPORT` group: the kernel hashes each flow to one member, so
/// every worker drains a private queue with no cross-worker wakeups.
pub(crate) fn bind_reuseport_group(shards: usize) -> io::Result<(SocketAddr, Vec<UdpSocket>)> {
    let mut sockets: Vec<UdpSocket> = Vec::with_capacity(shards);
    let mut port: u16 = 0;
    for _ in 0..shards.max(1) {
        let fd = unsafe { socket(AF_INET, SOCK_DGRAM, 0) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        // From here the fd is owned by a UdpSocket, so error paths close it.
        let sock = unsafe { UdpSocket::from_raw_fd(fd) };
        let one: i32 = 1;
        if unsafe { setsockopt(fd, SOL_SOCKET, SO_REUSEPORT, &one, 4) } < 0 {
            return Err(io::Error::last_os_error());
        }
        let want = SockaddrIn::from_addr(&SocketAddrV4::new(Ipv4Addr::LOCALHOST, port));
        if unsafe { bind(fd, &want, mem::size_of::<SockaddrIn>() as u32) } < 0 {
            return Err(io::Error::last_os_error());
        }
        if port == 0 {
            let mut bound = SockaddrIn::zeroed();
            let mut len = mem::size_of::<SockaddrIn>() as u32;
            if unsafe { getsockname(fd, &mut bound, &mut len) } < 0 {
                return Err(io::Error::last_os_error());
            }
            let SocketAddr::V4(v4) = bound.to_addr() else {
                unreachable!("bound AF_INET");
            };
            port = v4.port();
        }
        sockets.push(sock);
    }
    Ok((
        SocketAddr::V4(SocketAddrV4::new(Ipv4Addr::LOCALHOST, port)),
        sockets,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn abi_layouts_match_the_kernel() {
        // x86_64/aarch64 Linux: msghdr 56 bytes, mmsghdr padded to 64,
        // sockaddr_in 16, iovec 16, pollfd 8, timespec 16. A drift here
        // means the FFI structs no longer match what the kernel reads.
        assert_eq!(mem::size_of::<MsgHdr>(), 56);
        assert_eq!(mem::size_of::<MMsgHdr>(), 64);
        assert_eq!(mem::size_of::<SockaddrIn>(), 16);
        assert_eq!(mem::size_of::<IoVec>(), 16);
        assert_eq!(mem::size_of::<PollFd>(), 8);
        assert_eq!(mem::size_of::<Timespec>(), 16);
    }

    #[test]
    fn sockaddr_round_trips() {
        let addr = SocketAddrV4::new(Ipv4Addr::new(127, 0, 0, 1), 0xbeef);
        let raw = SockaddrIn::from_addr(&addr);
        assert_eq!(raw.to_addr(), SocketAddr::V4(addr));
    }

    #[test]
    fn gro_cursor_drains_past_an_empty_datagram() {
        let [rx_sock, gso_sock, empty_sock] =
            [(); 3].map(|_| UdpSocket::bind("127.0.0.1:0").unwrap());
        let (dst, gso_src) = (
            rx_sock.local_addr().unwrap(),
            gso_sock.local_addr().unwrap(),
        );
        let (mut rx, mut tx) = (BatchedDriver::new(), BatchedDriver::new());
        let mut ring = RecvRing::new(4);
        // The first receive switches `UDP_GRO` on; the queue is empty.
        rx.recv_batch(&rx_sock, &mut ring, Duration::ZERO).unwrap();
        if rx.gro != Some(true) || !gso_supported() {
            eprintln!("kernel lacks UDP_GRO/UDP_SEGMENT; cursor not exercised");
            return;
        }
        // Two 8-segment GSO super-datagrams with an empty datagram from
        // another sender between them: three `recvmmsg` messages, the
        // middle one skipped by the split.
        let mut send = SendRing::new(8);
        for first in [0u8, 8] {
            if first > 0 {
                empty_sock.send_to(&[], dst).unwrap();
            }
            (first..first + 8).for_each(|i| send.push_frame(dst, &[i; 8]));
            let out = tx.send_batch(&gso_sock, &mut send).unwrap();
            assert_eq!((out.packets, out.syscalls), (8, 1), "one GSO sendmmsg");
        }
        // Let loopback queue all three messages for one `recvmmsg`.
        std::thread::sleep(Duration::from_millis(50));

        let mut next = 0u8;
        for call in 0..4 {
            let out = rx.recv_batch(&rx_sock, &mut ring, Duration::ZERO).unwrap();
            assert_eq!(out.packets, 4, "call {call} fills the ring");
            assert_eq!(out.syscalls, u64::from(call == 0), "call {call}");
            for k in 0..ring.len() {
                let (frame, src) = ring.frame(k);
                assert_eq!((frame, src), (&[next; 8][..], gso_src), "frame {next}");
                next += 1;
            }
        }
        let out = rx.recv_batch(&rx_sock, &mut ring, Duration::ZERO).unwrap();
        assert_eq!(out.packets, 0, "the empty datagram is not delivered");
    }

    #[test]
    fn reuseport_group_members_share_a_port() {
        let (addr, sockets) = bind_reuseport_group(4).expect("SO_REUSEPORT group");
        assert_eq!(sockets.len(), 4);
        for s in &sockets {
            assert_eq!(s.local_addr().unwrap(), addr);
        }
    }
}
