//! The io_uring backend: multishot `recvmsg` into a registered
//! provided-buffer ring and a single `io_uring_enter` wait in place of
//! the `ppoll` readiness loop. Sends go through the batched backend.
//!
//! The workspace vendors no io_uring crate, so the entire syscall/ABI
//! surface — `io_uring_setup`/`enter`/`register`, the SQ/CQ ring
//! layouts, SQE/CQE formats, and the provided-buffer ring — is declared
//! by hand and `const`-asserted against the kernel ABI, the same way
//! `runtime/linux.rs` declares the `recvmmsg` surface.
//!
//! Shape of the backend:
//!
//! - **One ring per driver group.** [`make_group`] builds `n`
//!   [`SocketDriver`] handles over a single shared [`Core`]
//!   (ring + buffer pool + completion queues), so one rack-host thread
//!   hosting many sockets waits on *one* `io_uring_enter` for all of
//!   them — that call is the whole event loop.
//! - **Receive:** each socket gets one armed multishot `IORING_OP_RECVMSG`
//!   with `IOSQE_BUFFER_SELECT` against a registered provided-buffer
//!   ring ([`BUF_COUNT`] × [`BUF_SIZE`]). Every arriving datagram costs
//!   zero syscalls: the kernel picks a buffer, posts a CQE, and this
//!   module copies the payload out and recycles the buffer id to the
//!   ring tail. The multishot re-arms itself until buffer exhaustion
//!   (`-ENOBUFS`) or cancellation, at which point the next call re-arms.
//! - **Send:** `send_batch` reaps the completion queue, then hands the
//!   flush to an embedded batched driver (`sendmmsg` with UDP GSO). A
//!   ring send only pays once a flush is large enough for zero-copy
//!   pinning to amortize, and on loopback none is (DESIGN.md §12).
//! - **Fallback ladder:** [`available`] runs a full loopback round-trip
//!   self-test once per process (setup + provided-buffer registration +
//!   multishot recvmsg + a `sendmmsg` send). Kernels or sandboxes that
//!   refuse any step (old kernels, seccomp-filtered containers) degrade
//!   `RuntimeKind::Uring` to `Batched` — and from there the existing
//!   ladder continues to `Portable`.

use std::collections::{HashMap, HashSet, VecDeque};
use std::io;
use std::mem;
use std::net::{Ipv4Addr, SocketAddr, SocketAddrV4, UdpSocket};
use std::os::unix::io::{AsRawFd, RawFd};
use std::ptr;
use std::sync::atomic::{AtomicU16, AtomicU32, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

use super::linux::{BatchedDriver, MsgHdr, SockaddrIn, Timespec};
use super::{IoOutcome, RecvRing, SendRing, SocketDriver};

// --- syscall numbers (identical on x86_64 and aarch64) ---
const SYS_IO_URING_SETUP: i64 = 425;
const SYS_IO_URING_ENTER: i64 = 426;
const SYS_IO_URING_REGISTER: i64 = 427;

// --- io_uring_setup flags / features ---
const IORING_SETUP_CQSIZE: u32 = 1 << 3;
const IORING_SETUP_CLAMP: u32 = 1 << 4;
const IORING_FEAT_SINGLE_MMAP: u32 = 1 << 0;
const IORING_FEAT_EXT_ARG: u32 = 1 << 8;

// --- mmap offsets ---
const IORING_OFF_SQ_RING: i64 = 0;
const IORING_OFF_SQES: i64 = 0x1000_0000;

// --- io_uring_enter flags ---
const IORING_ENTER_GETEVENTS: u32 = 1 << 0;
const IORING_ENTER_EXT_ARG: u32 = 1 << 3;

// --- io_uring_register opcodes ---
const IORING_REGISTER_PBUF_RING: u32 = 22;

// --- SQE opcodes and flags ---
const IORING_OP_RECVMSG: u8 = 10;
const IOSQE_BUFFER_SELECT: u8 = 1 << 5;
/// `sqe.ioprio` flag: keep the recvmsg armed across completions.
const IORING_RECV_MULTISHOT: u16 = 1 << 1;

// --- CQE flags ---
const IORING_CQE_F_BUFFER: u32 = 1 << 0;
const IORING_CQE_F_MORE: u32 = 1 << 1;
const IORING_CQE_BUFFER_SHIFT: u32 = 16;

// --- errno ---
const EINTR: i32 = 4;
const EAGAIN: i32 = 11;
const EBUSY: i32 = 16;
const ETIME: i32 = 62;

// --- mmap ---
const PROT_READ: i32 = 1;
const PROT_WRITE: i32 = 2;
const MAP_SHARED: i32 = 1;
const MAP_PRIVATE: i32 = 2;
const MAP_ANONYMOUS: i32 = 0x20;
const MAP_POPULATE: i32 = 0x8000;

/// Submission-queue depth: one multishot re-arm per hosted socket fits
/// with room to spare.
const SQ_ENTRIES: u32 = 256;
/// Completion-queue depth: a burst of multishot receives across every
/// hosted socket can be outstanding at once.
const CQ_ENTRIES: u32 = 1024;
/// Provided receive buffers shared by every socket on the ring.
const BUF_COUNT: usize = 128;
/// Space for `io_uring_recvmsg_out` (16) + the sockaddr area (16) + the
/// `UDP_GRO` control message (24) + a full GRO aggregate (up to the
/// 65507-byte UDP payload ceiling), rounded to a cache-line multiple.
/// GRO is what makes the receive side competitive on loopback: without
/// it every GSO super-datagram is re-segmented before delivery and the
/// stack pays per-segment costs that dwarf the syscalls the ring saves.
const BUF_SIZE: usize = 65_664;
/// Offset of the datagram payload inside a provided buffer:
/// `recvmsg_out` header + the template's `msg_namelen` + control space.
const PAYLOAD_OFF: usize = 16 + MSG_NAMELEN + MSG_CONTROLLEN;
/// `msg_namelen` of the multishot template: one `sockaddr_in`.
const MSG_NAMELEN: usize = 16;
/// `msg_controllen` of the multishot template: one cmsg header (16) +
/// the `UDP_GRO` segment-size `int`, padded to the 8-byte cmsg
/// alignment.
const MSG_CONTROLLEN: usize = 24;
/// `setsockopt` level/name for receive-side GRO coalescing.
const SOL_UDP: i32 = 17;
const UDP_GRO: i32 = 104;

#[repr(C)]
#[derive(Clone, Copy)]
struct SqringOffsets {
    head: u32,
    tail: u32,
    ring_mask: u32,
    ring_entries: u32,
    flags: u32,
    dropped: u32,
    array: u32,
    resv1: u32,
    user_addr: u64,
}

#[repr(C)]
#[derive(Clone, Copy)]
struct CqringOffsets {
    head: u32,
    tail: u32,
    ring_mask: u32,
    ring_entries: u32,
    overflow: u32,
    cqes: u32,
    flags: u32,
    resv1: u32,
    user_addr: u64,
}

#[repr(C)]
#[derive(Clone, Copy)]
struct IoUringParams {
    sq_entries: u32,
    cq_entries: u32,
    flags: u32,
    sq_thread_cpu: u32,
    sq_thread_idle: u32,
    features: u32,
    wq_fd: u32,
    resv: [u32; 3],
    sq_off: SqringOffsets,
    cq_off: CqringOffsets,
}

/// One 64-byte submission-queue entry. Union fields are declared at
/// their fixed offsets with the meanings this module uses.
#[repr(C)]
#[derive(Clone, Copy)]
struct Sqe {
    opcode: u8,
    flags: u8,
    /// `RECVMSG`: multishot flag lives here.
    ioprio: u16,
    fd: i32,
    off: u64,
    /// Pointer to the `msghdr`.
    addr: u64,
    /// `1` for sendmsg/recvmsg (iovec count convention).
    len: u32,
    msg_flags: u32,
    user_data: u64,
    /// Provided-buffer group id when `IOSQE_BUFFER_SELECT` is set.
    buf_group: u16,
    personality: u16,
    splice_fd_in: i32,
    addr3: u64,
    _pad2: u64,
}

impl Sqe {
    fn zeroed() -> Sqe {
        // Every field is an integer; all-zero is the kernel's own no-op
        // encoding for unused union arms.
        unsafe { mem::zeroed() }
    }
}

/// One 16-byte completion-queue entry.
#[repr(C)]
#[derive(Clone, Copy)]
struct Cqe {
    user_data: u64,
    res: i32,
    flags: u32,
}

/// `io_uring_register(PBUF_RING)` argument.
#[repr(C)]
struct BufReg {
    ring_addr: u64,
    ring_entries: u32,
    bgid: u16,
    flags: u16,
    resv: [u64; 3],
}

/// One provided-buffer ring entry; entry 0's `resv` field doubles as
/// the ring tail the kernel reads (`struct io_uring_buf_ring`).
#[repr(C)]
#[derive(Clone, Copy)]
struct UringBuf {
    addr: u64,
    len: u32,
    bid: u16,
    resv: u16,
}

/// Byte offset of the shared tail inside the buffer-ring mapping.
const BUF_RING_TAIL_OFF: usize = 14;

/// `io_uring_enter2` extended argument (`IORING_ENTER_EXT_ARG`).
#[repr(C)]
struct GetEventsArg {
    sigmask: u64,
    sigmask_sz: u32,
    pad: u32,
    ts: u64,
}

/// Header the kernel writes at the front of every multishot-recvmsg
/// provided buffer (`struct io_uring_recvmsg_out`).
#[repr(C)]
#[derive(Clone, Copy)]
struct RecvmsgOut {
    namelen: u32,
    controllen: u32,
    payloadlen: u32,
    flags: u32,
}

extern "C" {
    fn syscall(num: i64, ...) -> i64;
    fn mmap(addr: *mut u8, len: usize, prot: i32, flags: i32, fd: i32, offset: i64) -> *mut u8;
    fn munmap(addr: *mut u8, len: usize) -> i32;
    fn close(fd: i32) -> i32;
    fn setsockopt(fd: i32, level: i32, optname: i32, optval: *const i32, optlen: u32) -> i32;
}

fn last_errno() -> i32 {
    io::Error::last_os_error().raw_os_error().unwrap_or(0)
}

fn map_failed(p: *mut u8) -> bool {
    p as usize == usize::MAX
}

/// The mmap'd ring pair plus submission bookkeeping. Owns the ring fd.
struct Ring {
    fd: i32,
    ring_base: *mut u8,
    ring_map_len: usize,
    sqes: *mut Sqe,
    sqes_map_len: usize,
    sq_head: *const AtomicU32,
    sq_tail: *const AtomicU32,
    sq_mask: u32,
    sq_entries: u32,
    cq_head: *const AtomicU32,
    cq_tail: *const AtomicU32,
    cq_mask: u32,
    cqes: *const Cqe,
    /// SQEs queued but not yet consumed by an `enter`.
    pending_submit: u32,
}

impl Ring {
    fn new() -> io::Result<Ring> {
        let mut p: IoUringParams = unsafe { mem::zeroed() };
        p.flags = IORING_SETUP_CQSIZE | IORING_SETUP_CLAMP;
        p.cq_entries = CQ_ENTRIES;
        let fd = unsafe {
            syscall(
                SYS_IO_URING_SETUP,
                SQ_ENTRIES as usize,
                &mut p as *mut IoUringParams as usize,
            )
        } as i32;
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        // Single-mmap rings (5.4+) and EXT_ARG enter timeouts (5.11+)
        // are both far older than the multishot/pbuf-ring opcodes this
        // backend needs, so requiring them loses nothing.
        let need = IORING_FEAT_SINGLE_MMAP | IORING_FEAT_EXT_ARG;
        if p.features & need != need {
            unsafe { close(fd) };
            return Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "io_uring lacks SINGLE_MMAP/EXT_ARG",
            ));
        }
        let sq_len = p.sq_off.array as usize + p.sq_entries as usize * mem::size_of::<u32>();
        let cq_len = p.cq_off.cqes as usize + p.cq_entries as usize * mem::size_of::<Cqe>();
        let ring_map_len = sq_len.max(cq_len);
        let ring_base = unsafe {
            mmap(
                ptr::null_mut(),
                ring_map_len,
                PROT_READ | PROT_WRITE,
                MAP_SHARED | MAP_POPULATE,
                fd,
                IORING_OFF_SQ_RING,
            )
        };
        if map_failed(ring_base) {
            let err = io::Error::last_os_error();
            unsafe { close(fd) };
            return Err(err);
        }
        let sqes_map_len = p.sq_entries as usize * mem::size_of::<Sqe>();
        let sqes = unsafe {
            mmap(
                ptr::null_mut(),
                sqes_map_len,
                PROT_READ | PROT_WRITE,
                MAP_SHARED | MAP_POPULATE,
                fd,
                IORING_OFF_SQES,
            )
        };
        if map_failed(sqes) {
            let err = io::Error::last_os_error();
            unsafe {
                munmap(ring_base, ring_map_len);
                close(fd)
            };
            return Err(err);
        }
        let ring = unsafe {
            Ring {
                fd,
                ring_base,
                ring_map_len,
                sqes: sqes as *mut Sqe,
                sqes_map_len,
                sq_head: ring_base.add(p.sq_off.head as usize) as *const AtomicU32,
                sq_tail: ring_base.add(p.sq_off.tail as usize) as *const AtomicU32,
                sq_mask: *(ring_base.add(p.sq_off.ring_mask as usize) as *const u32),
                sq_entries: p.sq_entries,
                cq_head: ring_base.add(p.cq_off.head as usize) as *const AtomicU32,
                cq_tail: ring_base.add(p.cq_off.tail as usize) as *const AtomicU32,
                cq_mask: *(ring_base.add(p.cq_off.ring_mask as usize) as *const u32),
                cqes: ring_base.add(p.cq_off.cqes as usize) as *const Cqe,
                pending_submit: 0,
            }
        };
        // Identity-map the SQ index array once: slot i always submits
        // sqes[i], so pushes only ever touch the tail.
        unsafe {
            let array = ring_base.add(p.sq_off.array as usize) as *mut u32;
            for i in 0..p.sq_entries {
                *array.add(i as usize) = i;
            }
        }
        Ok(ring)
    }

    /// Queues one SQE; submits eagerly (without waiting) if the
    /// submission queue is full. Returns syscalls spent doing so.
    fn push_sqe(&mut self, sqe: Sqe) -> io::Result<u64> {
        let mut syscalls = 0u64;
        unsafe {
            let head = (*self.sq_head).load(Ordering::Acquire);
            let tail = (*self.sq_tail).load(Ordering::Relaxed);
            if tail.wrapping_sub(head) >= self.sq_entries {
                syscalls += self.enter(0, None)?;
            }
            let tail = (*self.sq_tail).load(Ordering::Relaxed);
            ptr::write(self.sqes.add((tail & self.sq_mask) as usize), sqe);
            (*self.sq_tail).store(tail.wrapping_add(1), Ordering::Release);
        }
        self.pending_submit += 1;
        Ok(syscalls)
    }

    /// One `io_uring_enter`: submits everything queued and, when
    /// `min_complete > 0`, waits for a completion or `timeout`. Returns
    /// the number of syscalls issued (EINTR retries included).
    fn enter(&mut self, min_complete: u32, timeout: Option<Duration>) -> io::Result<u64> {
        let mut syscalls = 0u64;
        let mut attempts = 0u32;
        loop {
            let to_submit = self.pending_submit;
            let mut flags = 0u32;
            if min_complete > 0 {
                flags |= IORING_ENTER_GETEVENTS;
            }
            let ts;
            let arg;
            let rc = if let Some(t) = timeout.filter(|_| min_complete > 0) {
                flags |= IORING_ENTER_EXT_ARG;
                ts = Timespec::from_duration(t);
                arg = GetEventsArg {
                    sigmask: 0,
                    sigmask_sz: 0,
                    pad: 0,
                    ts: &ts as *const Timespec as u64,
                };
                unsafe {
                    syscall(
                        SYS_IO_URING_ENTER,
                        self.fd as usize,
                        to_submit as usize,
                        min_complete as usize,
                        flags as usize,
                        &arg as *const GetEventsArg as usize,
                        mem::size_of::<GetEventsArg>(),
                    )
                }
            } else {
                unsafe {
                    syscall(
                        SYS_IO_URING_ENTER,
                        self.fd as usize,
                        to_submit as usize,
                        min_complete as usize,
                        flags as usize,
                        0usize,
                        0usize,
                    )
                }
            };
            syscalls += 1;
            if rc >= 0 {
                self.pending_submit = self.pending_submit.saturating_sub(rc as u32);
                if self.pending_submit > 0 && min_complete == 0 && attempts < 8 {
                    // Partial submit (CQ backpressure): push the rest.
                    attempts += 1;
                    continue;
                }
                return Ok(syscalls);
            }
            match last_errno() {
                EINTR if attempts < 32 => attempts += 1,
                // Timeout reached: a normal empty wait.
                ETIME => return Ok(syscalls),
                // CQ saturated: the caller drains completions and the
                // still-pending SQEs ride the next enter.
                EBUSY | EAGAIN => return Ok(syscalls),
                _ => return Err(io::Error::last_os_error()),
            }
        }
    }
}

impl Drop for Ring {
    fn drop(&mut self) {
        unsafe {
            munmap(self.sqes as *mut u8, self.sqes_map_len);
            munmap(self.ring_base, self.ring_map_len);
            close(self.fd);
        }
    }
}

/// One received datagram, parked in place inside the provided-buffer
/// area until a `recv_batch` for its socket claims it.
struct PendingSeg {
    bid: u16,
    /// Byte offset of the segment payload within `buf_area`.
    off: u32,
    len: u32,
    src: SocketAddr,
}

/// The shared ring state behind every driver handle of one group.
struct Core {
    ring: Ring,
    /// mmap'd `io_uring_buf_ring`: [`BUF_COUNT`] entries; entry 0's
    /// `resv` is the shared tail.
    buf_ring: *mut UringBuf,
    buf_ring_map_len: usize,
    /// Backing storage for the provided buffers, `bid * BUF_SIZE` each.
    buf_area: Box<[u8]>,
    /// Local copy of the published buffer-ring tail.
    buf_tail: u16,
    /// The template msghdr every multishot recvmsg points at (the kernel
    /// only reads `namelen`/`controllen`; boxed for address stability).
    msg_template: Box<MsgHdr>,
    /// Sockets with an armed multishot recvmsg.
    armed: HashSet<RawFd>,
    /// Datagrams completed by the kernel, not yet claimed by a
    /// `recv_batch` for their socket. Each entry references a span of
    /// `buf_area` in place — no copy until the caller's ring takes it.
    pending: HashMap<RawFd, VecDeque<PendingSeg>>,
    /// Outstanding pending segments per provided buffer; the buffer is
    /// recycled to the kernel only when its count returns to zero.
    buf_refs: [u16; BUF_COUNT],
    /// Syscalls/CQEs spent inside `wait_group`, folded into the next
    /// `recv_batch` outcome so the counters stay truthful.
    carry_syscalls: u64,
    carry_cqes: u64,
}

// The raw pointers all target mappings and boxed allocations owned by
// this Core (ring mmaps, buffer-ring mmap, boxed msghdr), so the struct
// can move between threads; the surrounding Mutex serializes use.
unsafe impl Send for Core {}

impl Core {
    fn new() -> io::Result<Core> {
        let ring = Ring::new()?;
        // The provided-buffer ring must be page-aligned: one anonymous
        // page holds the 256 × 16-byte entries.
        let buf_ring_map_len = (BUF_COUNT * mem::size_of::<UringBuf>()).max(4096);
        let buf_ring = unsafe {
            mmap(
                ptr::null_mut(),
                buf_ring_map_len,
                PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS,
                -1,
                0,
            )
        };
        if map_failed(buf_ring) {
            return Err(io::Error::last_os_error());
        }
        let reg = BufReg {
            ring_addr: buf_ring as u64,
            ring_entries: BUF_COUNT as u32,
            bgid: 0,
            flags: 0,
            resv: [0; 3],
        };
        let rc = unsafe {
            syscall(
                SYS_IO_URING_REGISTER,
                ring.fd as usize,
                IORING_REGISTER_PBUF_RING as usize,
                &reg as *const BufReg as usize,
                1usize,
            )
        };
        if rc < 0 {
            let err = io::Error::last_os_error();
            unsafe { munmap(buf_ring, buf_ring_map_len) };
            return Err(err);
        }
        let mut core = Core {
            ring,
            buf_ring: buf_ring as *mut UringBuf,
            buf_ring_map_len,
            buf_area: vec![0u8; BUF_COUNT * BUF_SIZE].into_boxed_slice(),
            buf_tail: 0,
            // `controllen` reserves room in each provided buffer for the
            // `UDP_GRO` segment-size cmsg.
            msg_template: Box::new(MsgHdr::lengths_only(MSG_NAMELEN as u32, MSG_CONTROLLEN)),
            armed: HashSet::new(),
            pending: HashMap::new(),
            buf_refs: [0; BUF_COUNT],
            carry_syscalls: 0,
            carry_cqes: 0,
        };
        for bid in 0..BUF_COUNT as u16 {
            core.recycle(bid);
        }
        Ok(core)
    }

    fn tail_atomic(&self) -> *const AtomicU16 {
        unsafe { (self.buf_ring as *const u8).add(BUF_RING_TAIL_OFF) as *const AtomicU16 }
    }

    /// Hands buffer `bid` back to the kernel at the ring tail. Entry 0
    /// overlays the tail word, so only `addr`/`len`/`bid` are written.
    fn recycle(&mut self, bid: u16) {
        let idx = (self.buf_tail as usize) & (BUF_COUNT - 1);
        unsafe {
            let e = self.buf_ring.add(idx);
            (*e).addr = self.buf_area.as_ptr() as u64 + (bid as u64) * BUF_SIZE as u64;
            (*e).len = BUF_SIZE as u32;
            (*e).bid = bid;
        }
        self.buf_tail = self.buf_tail.wrapping_add(1);
        unsafe { (*self.tail_atomic()).store(self.buf_tail, Ordering::Release) };
    }

    /// Queues a multishot recvmsg for `fd` unless one is already armed.
    fn arm(&mut self, fd: RawFd) -> io::Result<u64> {
        if self.armed.contains(&fd) {
            return Ok(0);
        }
        // GRO: let the kernel hand GSO super-datagrams up intact (one
        // CQE and one `UDP_GRO` cmsg instead of per-segment delivery);
        // `harvest` re-splits by the reported segment size. Best-effort:
        // on kernels without `UDP_GRO` the cmsg simply never appears.
        let one: i32 = 1;
        unsafe { setsockopt(fd, SOL_UDP, UDP_GRO, &one, 4) };
        let mut sqe = Sqe::zeroed();
        sqe.opcode = IORING_OP_RECVMSG;
        sqe.flags = IOSQE_BUFFER_SELECT;
        sqe.ioprio = IORING_RECV_MULTISHOT;
        sqe.fd = fd;
        sqe.addr = &*self.msg_template as *const MsgHdr as u64;
        sqe.len = 1;
        sqe.user_data = fd as u32 as u64;
        sqe.buf_group = 0;
        let syscalls = self.ring.push_sqe(sqe)?;
        self.armed.insert(fd);
        Ok(syscalls)
    }

    /// Consumes every posted CQE; returns how many were reaped.
    fn drain_cq(&mut self) -> u64 {
        let mut n = 0u64;
        loop {
            let cqe = unsafe {
                let head = (*self.ring.cq_head).load(Ordering::Relaxed);
                if head == (*self.ring.cq_tail).load(Ordering::Acquire) {
                    break;
                }
                let cqe = ptr::read(self.ring.cqes.add((head & self.ring.cq_mask) as usize));
                (*self.ring.cq_head).store(head.wrapping_add(1), Ordering::Release);
                cqe
            };
            n += 1;
            self.process_cqe(cqe);
        }
        n
    }

    /// Every SQE this module submits is a multishot recvmsg whose
    /// `user_data` is the socket fd.
    fn process_cqe(&mut self, cqe: Cqe) {
        let fd = cqe.user_data as RawFd;
        if cqe.res >= 0 && cqe.flags & IORING_CQE_F_BUFFER != 0 {
            let bid = (cqe.flags >> IORING_CQE_BUFFER_SHIFT) as u16;
            let refs = self.harvest(fd, bid, cqe.res as usize);
            if refs == 0 {
                // Nothing usable in the buffer: hand it straight back.
                // Otherwise `copy_out` recycles it once the last
                // referencing segment is consumed.
                self.recycle(bid);
            } else {
                self.buf_refs[bid as usize] = refs;
            }
        }
        if cqe.flags & IORING_CQE_F_MORE == 0 {
            // Multishot retired (buffer exhaustion, -ENOBUFS, or a
            // transient error): the next call re-arms it.
            self.armed.remove(&fd);
        }
    }

    /// Parses one completed multishot message in provided buffer `bid`
    /// (`res` bytes written) into pending-segment references for `fd`,
    /// in place — no payload copy. A GRO aggregate carries a `UDP_GRO`
    /// cmsg with the original segment size and is split back into its
    /// constituent datagrams here. Returns the number of segments now
    /// referencing the buffer (0 = nothing usable, recycle at once).
    fn harvest(&mut self, fd: RawFd, bid: u16, res: usize) -> u16 {
        if res < PAYLOAD_OFF {
            return 0;
        }
        let base = bid as usize * BUF_SIZE;
        let buf = &self.buf_area[base..base + res.min(BUF_SIZE)];
        let out: RecvmsgOut = unsafe { ptr::read_unaligned(buf.as_ptr() as *const RecvmsgOut) };
        let plen = (out.payloadlen as usize).min(buf.len() - PAYLOAD_OFF);
        let src = if out.namelen as usize >= MSG_NAMELEN {
            let raw: SockaddrIn =
                unsafe { ptr::read_unaligned(buf[16..].as_ptr() as *const SockaddrIn) };
            raw.to_addr()
        } else {
            SocketAddr::V4(SocketAddrV4::new(Ipv4Addr::LOCALHOST, 0))
        };
        // Segment size: the whole payload unless a `UDP_GRO` cmsg says
        // this is a coalesced super-datagram. The control region sits
        // between the name area and the payload; the kernel wrote
        // `out.controllen` bytes of it.
        let mut seg = plen.max(1);
        if out.controllen as usize >= MSG_CONTROLLEN {
            let c = &buf[16 + MSG_NAMELEN..];
            let cmsg_len = u64::from_ne_bytes(c[0..8].try_into().unwrap());
            let level = i32::from_ne_bytes(c[8..12].try_into().unwrap());
            let ty = i32::from_ne_bytes(c[12..16].try_into().unwrap());
            if level == SOL_UDP && ty == UDP_GRO && cmsg_len >= 20 {
                let size = i32::from_ne_bytes(c[16..20].try_into().unwrap());
                if size > 0 {
                    seg = size as usize;
                }
            }
        }
        let q = self.pending.entry(fd).or_default();
        let mut off = 0;
        let mut refs = 0u16;
        loop {
            let take = seg.min(plen - off);
            q.push_back(PendingSeg {
                bid,
                off: (base + PAYLOAD_OFF + off) as u32,
                len: take as u32,
                src,
            });
            refs += 1;
            off += take;
            if off >= plen {
                break;
            }
        }
        refs
    }

    fn pending_count(&self, fd: RawFd) -> usize {
        self.pending.get(&fd).map_or(0, |q| q.len())
    }

    /// Moves pending datagrams for `fd` into the caller's ring: the one
    /// and only payload copy on the receive path. Buffers drained of
    /// their last segment go back to the kernel's ring.
    fn copy_out(&mut self, fd: RawFd, ring: &mut RecvRing) -> usize {
        let mut got = 0usize;
        while got < ring.capacity() {
            let Some(seg) = self.pending.get_mut(&fd).and_then(|q| q.pop_front()) else {
                break;
            };
            let slot = ring.slot_mut(got);
            let len = (seg.len as usize).min(slot.len());
            slot[..len].copy_from_slice(&self.buf_area[seg.off as usize..seg.off as usize + len]);
            ring.commit(got, len, seg.src);
            let refs = &mut self.buf_refs[seg.bid as usize];
            *refs -= 1;
            if *refs == 0 {
                self.recycle(seg.bid);
            }
            got += 1;
        }
        ring.set_len(got);
        got
    }

    fn take_carry(&mut self) -> (u64, u64) {
        (
            mem::take(&mut self.carry_syscalls),
            mem::take(&mut self.carry_cqes),
        )
    }
}

impl Drop for Core {
    fn drop(&mut self) {
        // Dropping `ring` closes the ring fd, which unregisters the
        // provided-buffer ring; only the anonymous mapping remains ours.
        unsafe { munmap(self.buf_ring as *mut u8, self.buf_ring_map_len) };
    }
}

/// One handle onto a shared ring [`Core`]. Handles from the same
/// [`make_group`] share completions and buffers, so a host thread driving
/// many sockets pays for one ring. Sends go through each handle's own
/// batched driver.
pub(crate) struct UringDriver {
    core: Arc<Mutex<Core>>,
    send: BatchedDriver,
}

impl SocketDriver for UringDriver {
    fn backend(&self) -> &'static str {
        "uring"
    }

    fn recv_batch(
        &mut self,
        sock: &UdpSocket,
        ring: &mut RecvRing,
        timeout: Duration,
    ) -> io::Result<IoOutcome> {
        ring.set_len(0);
        let fd = sock.as_raw_fd();
        let mut core = self.core.lock().unwrap();
        let (mut syscalls, mut cqes) = core.take_carry();
        cqes += core.drain_cq();
        syscalls += core.arm(fd)?;
        if core.pending_count(fd) == 0 {
            // Nothing harvested yet: submit anything queued and park in
            // one enter until a completion lands or the timeout fires —
            // this is the io_uring replacement for the ppoll wait.
            syscalls += core.ring.enter(1, Some(timeout))?;
            cqes += core.drain_cq();
        } else if core.ring.pending_submit > 0 {
            // Data is ready; just flush the re-arm without waiting.
            syscalls += core.ring.enter(0, None)?;
        }
        let packets = core.copy_out(fd, ring);
        Ok(IoOutcome {
            packets,
            syscalls,
            cqes,
        })
    }

    fn send_batch(&mut self, sock: &UdpSocket, ring: &mut SendRing) -> io::Result<IoOutcome> {
        // Reap first so receive completions never back up behind a
        // stream of sends.
        let cqes = self
            .core
            .lock()
            .expect("a uring handle panicked holding the ring")
            .drain_cq();
        let mut out = self.send.send_batch(sock, ring)?;
        out.cqes += cqes;
        Ok(out)
    }

    fn wait_group(
        &mut self,
        socks: &[&UdpSocket],
        timeout: Duration,
        ready: &mut Vec<usize>,
    ) -> io::Result<()> {
        ready.clear();
        let mut core = self.core.lock().unwrap();
        let mut syscalls = 0u64;
        let mut cqes = core.drain_cq();
        for s in socks {
            syscalls += core.arm(s.as_raw_fd())?;
        }
        let mark = |core: &Core, ready: &mut Vec<usize>| {
            for (i, s) in socks.iter().enumerate() {
                if core.pending_count(s.as_raw_fd()) > 0 {
                    ready.push(i);
                }
            }
        };
        mark(&core, ready);
        if ready.is_empty() {
            // The single wait replacing the ppoll loop: submit any
            // re-arms and sleep until one CQE or the timeout.
            syscalls += core.ring.enter(1, Some(timeout))?;
            cqes += core.drain_cq();
            mark(&core, ready);
        } else if core.ring.pending_submit > 0 {
            syscalls += core.ring.enter(0, None)?;
        }
        core.carry_syscalls += syscalls;
        core.carry_cqes += cqes;
        Ok(())
    }
}

/// Builds `n` driver handles over one shared ring, or `None` when the
/// kernel refuses any setup step (callers fall back to batched).
pub(crate) fn make_group(n: usize) -> Option<Vec<Box<dyn SocketDriver>>> {
    let core = Arc::new(Mutex::new(Core::new().ok()?));
    Some(
        (0..n.max(1))
            .map(|_| {
                Box::new(UringDriver {
                    core: core.clone(),
                    send: BatchedDriver::new(),
                }) as Box<dyn SocketDriver>
            })
            .collect(),
    )
}

/// Whether this kernel/sandbox supports everything the backend needs:
/// one full loopback round-trip (ring setup, provided-buffer ring
/// registration, multishot recvmsg, a `sendmmsg` send) probed once per
/// process. Sandboxes that seccomp-filter `io_uring_setup` and kernels
/// without the 6.0-era opcodes both fail here and degrade to batched.
pub(crate) fn available() -> bool {
    static AVAILABLE: OnceLock<bool> = OnceLock::new();
    *AVAILABLE.get_or_init(self_test)
}

fn self_test() -> bool {
    let Some(mut group) = make_group(1) else {
        return false;
    };
    let driver = &mut group[0];
    let (Ok(a), Ok(b)) = (
        UdpSocket::bind("127.0.0.1:0"),
        UdpSocket::bind("127.0.0.1:0"),
    ) else {
        return false;
    };
    let (Ok(a_addr), Ok(b_addr)) = (a.local_addr(), b.local_addr()) else {
        return false;
    };
    let mut tx = SendRing::new(4);
    tx.push_frame(b_addr, b"uring-probe");
    if driver.send_batch(&a, &mut tx).is_err() {
        return false;
    }
    let mut rx = RecvRing::new(4);
    let deadline = std::time::Instant::now() + Duration::from_secs(2);
    while std::time::Instant::now() < deadline {
        if driver
            .recv_batch(&b, &mut rx, Duration::from_millis(50))
            .is_err()
        {
            return false;
        }
        if !rx.is_empty() {
            let (frame, src) = rx.frame(0);
            return frame == b"uring-probe" && src == a_addr;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn abi_layouts_match_the_kernel() {
        // Linux io_uring ABI: params 120 bytes (40 of offsets each for
        // SQ and CQ), SQE 64, CQE 16, provided-buffer entry 16,
        // registration argument 40, enter ext-arg 24, recvmsg header 16.
        // A drift here means the kernel reads garbage.
        assert_eq!(mem::size_of::<IoUringParams>(), 120);
        assert_eq!(mem::size_of::<SqringOffsets>(), 40);
        assert_eq!(mem::size_of::<CqringOffsets>(), 40);
        assert_eq!(mem::size_of::<Sqe>(), 64);
        assert_eq!(mem::size_of::<Cqe>(), 16);
        assert_eq!(mem::size_of::<UringBuf>(), 16);
        assert_eq!(mem::size_of::<BufReg>(), 40);
        assert_eq!(mem::size_of::<GetEventsArg>(), 24);
        assert_eq!(mem::size_of::<RecvmsgOut>(), 16);

        // Key SQE union offsets the kernel dereferences.
        let sqe = Sqe::zeroed();
        let base = &sqe as *const Sqe as usize;
        assert_eq!(&sqe.fd as *const i32 as usize - base, 4);
        assert_eq!(&sqe.addr as *const u64 as usize - base, 16);
        assert_eq!(&sqe.len as *const u32 as usize - base, 24);
        assert_eq!(&sqe.user_data as *const u64 as usize - base, 32);
        assert_eq!(&sqe.buf_group as *const u16 as usize - base, 40);
    }

    #[test]
    fn probe_is_stable() {
        // Whatever the kernel answers, asking twice answers the same.
        assert_eq!(available(), available());
    }

    #[test]
    fn group_round_trips_and_shares_completions() {
        if !available() {
            eprintln!("skipping: io_uring unavailable on this kernel/sandbox");
            return;
        }
        let mut group = make_group(2).expect("probe passed");
        let a = UdpSocket::bind("127.0.0.1:0").unwrap();
        let b = UdpSocket::bind("127.0.0.1:0").unwrap();
        let b_addr = b.local_addr().unwrap();

        let mut tx = SendRing::new(8);
        for i in 0..5u8 {
            tx.push_frame(b_addr, &[i, i, i]);
        }
        let sent = group[0].send_batch(&a, &mut tx).unwrap();
        assert_eq!(sent.packets, 5);
        assert_eq!(sent.syscalls, 1, "one sendmmsg moves the whole flush");

        // The second handle of the group sees the same ring: wait, then
        // drain with zero additional syscalls once CQEs are pending.
        let socks = [&b];
        let mut ready = Vec::new();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        let mut got = 0;
        let mut rx = RecvRing::new(8);
        while got < 5 && std::time::Instant::now() < deadline {
            group[1]
                .wait_group(&socks, Duration::from_millis(100), &mut ready)
                .unwrap();
            if ready.is_empty() {
                continue;
            }
            group[1]
                .recv_batch(&b, &mut rx, Duration::from_millis(10))
                .unwrap();
            got += rx.len();
        }
        assert_eq!(got, 5, "all datagrams arrive through the ring");
    }

    #[test]
    fn multishot_recv_is_syscall_free_once_armed() {
        if !available() {
            eprintln!("skipping: io_uring unavailable on this kernel/sandbox");
            return;
        }
        let mut group = make_group(1).expect("probe passed");
        let driver = &mut group[0];
        let a = UdpSocket::bind("127.0.0.1:0").unwrap();
        let b = UdpSocket::bind("127.0.0.1:0").unwrap();
        let b_addr = b.local_addr().unwrap();

        // Arm via an (empty) timed receive, then land a burst.
        let mut rx = RecvRing::new(4);
        driver
            .recv_batch(&b, &mut rx, Duration::from_millis(1))
            .unwrap();
        let mut tx = SendRing::new(8);
        for i in 0..8u8 {
            tx.push_frame(b_addr, &[i; 32]);
        }
        driver.send_batch(&a, &mut tx).unwrap();

        let mut got = 0;
        let mut free_calls = 0;
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while got < 8 && std::time::Instant::now() < deadline {
            let out = driver
                .recv_batch(&b, &mut rx, Duration::from_millis(100))
                .unwrap();
            got += out.packets;
            if out.packets > 0 && out.syscalls == 0 {
                free_calls += 1;
            }
        }
        assert_eq!(got, 8);
        assert!(
            free_calls > 0,
            "armed multishot serves at least one batch with zero syscalls"
        );
    }
}
