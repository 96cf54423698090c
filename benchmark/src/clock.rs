//! Process CPU time, host steal time and core count: the readings printed
//! beside every wall-clock figure so interference can be told from
//! regression.

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time consumed by every thread of this process, user plus system,
/// in nanoseconds. On a `udp_*` workload that includes the rack's host
/// thread and the kernel's loopback work done in either thread's context.
pub fn process_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two C longs on
    // every 64-bit Linux target this crate builds for) and the clock id is
    // a constant the kernel defines; the call writes only into `ts`.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "CLOCK_PROCESS_CPUTIME_ID is always available");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Steal ticks of the whole machine so far (`/proc/stat`, first line,
/// eighth figure); 0 where the file is missing.
pub fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            s.lines()
                .next()?
                .split_whitespace()
                .nth(8)
                .and_then(|f| f.parse().ok())
        })
        .unwrap_or(0)
}

/// A Linux `cpu_set_t`: 1024 bits.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// Confines this thread, and every thread started after it, to one of the
/// cores it may run on (the highest-numbered, which is the least likely to
/// serve interrupts). Returns that core, or `None` if the kernel refused.
///
/// On a virtual machine a wake-up that crosses cores costs tens of
/// microseconds and varies with the host; with the load thread and the
/// UDP rack's host thread on one core, a window-1 round trip is two
/// context switches and a run measures the code's own cost. Measured on
/// the 2-core sandbox: window-1 median 12-15 us confined, 40-60 us free
/// and bimodal with where the scheduler happens to put the host thread.
pub fn confine_to_one_core() -> Option<usize> {
    let mut allowed: CpuSet = [0; 16];
    // SAFETY: `allowed` is a writable buffer of exactly the size passed;
    // pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut allowed) } != 0 {
        return None;
    }
    let (word, bits) = allowed.iter().enumerate().rev().find(|(_, w)| **w != 0)?;
    let core = word * 64 + 63 - bits.leading_zeros() as usize;
    let mut one: CpuSet = [0; 16];
    one[core / 64] = 1 << (core % 64);
    // SAFETY: `one` is a readable buffer of exactly the size passed.
    (unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &one) } == 0).then_some(core)
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Cost of one call, as [`measure`] reports it.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    /// Nanoseconds per call: the fastest repetition (interference only
    /// ever adds time).
    pub ns: f64,
    /// Heap allocations per call (an exact count, all repetitions).
    pub allocs: f64,
}

/// Repetitions per [`measure`]; the fastest is reported.
pub const REPS: usize = 5;

/// Times `call` on inputs from `make`, single thread. Inputs are built in
/// batches outside the timed loop; the result of every call is dropped
/// inside it, as it is on the real path. Each of the [`REPS`] repetitions
/// runs whole batches until `rep_budget` has passed.
pub fn measure<T, R>(
    rep_budget: std::time::Duration,
    mut make: impl FnMut() -> T,
    mut call: impl FnMut(T) -> R,
) -> Timing {
    use std::hint::black_box;
    use std::time::Instant;
    const BATCH: usize = 256;
    let mut inputs: Vec<T> = Vec::with_capacity(BATCH);
    let mut per_rep = [0.0f64; REPS];
    let (mut allocs, mut calls) = (0u64, 0u64);
    for rep_ns in &mut per_rep {
        let (mut ns, mut n) = (0u128, 0u64);
        let rep_start = Instant::now();
        while n == 0 || rep_start.elapsed() < rep_budget {
            inputs.extend((0..BATCH).map(|_| make()));
            let a0 = crate::alloc::snapshot().allocs;
            let t0 = Instant::now();
            for input in inputs.drain(..) {
                black_box(call(black_box(input)));
            }
            ns += t0.elapsed().as_nanos();
            allocs += crate::alloc::snapshot().allocs - a0;
            n += BATCH as u64;
        }
        *rep_ns = ns as f64 / n as f64;
        calls += n;
    }
    Timing {
        ns: per_rep.iter().copied().fold(f64::INFINITY, f64::min),
        allocs: allocs as f64 / calls as f64,
    }
}
