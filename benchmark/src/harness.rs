//! Runs one workload: rounds of set-up, warm-up, a closed-loop throughput
//! phase in timed chunks, a read-back audit, and a window-1 latency phase
//! with every reply checked against the harness's own per-key model.
//!
//! Load comes from this one thread (the UDP rack adds its host thread),
//! closed loop: the next request of a window slot is sent only when the
//! previous one was answered. Traffic crosses the host loopback, never a
//! real link.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use crate::alloc;
use crate::clock::{process_cpu_ns, steal_ticks};
use crate::stats::{median, percentile};
use crate::sut::{Chunk, Counters, Reply, Session, SetupTimes, Sut, Walker};
use crate::trace::{self_time_by_layer, Tracer};
use crate::workload::{
    version_of, written_value, Op, Stream, Transport, Workload, CHUNK_OPS, CHURN_CHUNKS,
    CHURN_SHIFTS,
};

/// Rounds of a static workload's run, each on a fresh rack.
pub const ROUNDS: usize = 12;
/// Where in a round's chunk samples a timing is read. Interference on a
/// shared host only ever slows a chunk down, in bursts of milliseconds to
/// seconds, so the undisturbed cost sits at the fast end: throughput is
/// the 90th percentile over the round's chunks and CPU cost the 10th.
/// (Measured on the 2-core sandbox: the median over chunks spread 12%
/// from run to run, this quantile 2-3%.)
pub const QUIET_QUANTILE: f64 = 0.9;
/// Window-1 latency is read at its fastest decile for the same reason;
/// it lies among the cache hits on every workload. (Run to run the
/// median spread 14%, the lower quartile 2-6%, this 1-3%.)
pub const LATENCY_QUANTILE: f64 = 0.1;
/// Most window-1 samples kept per round (the vector is pre-allocated).
const MAX_LATENCY_SAMPLES: usize = 1 << 20;
/// Operations replayed through the traced walker (five chunks).
const WALK_CHUNKS: usize = 5;
/// Times each replay of the traced run is repeated.
const REPLAYS: usize = 5;
/// Chunks of warm-up before a static workload's throughput phase. A
/// count, not a time, so the rack enters the counted chunks in the same
/// state on every run.
const WARMUP_CHUNKS: usize = 8;

/// How long the phases of one round run.
#[derive(Debug, Clone, Copy)]
pub struct Phases {
    /// Throughput phase (it also runs at least `count_chunks()` chunks).
    pub throughput: Duration,
    /// Window-1 latency phase.
    pub latency: Duration,
}

impl Phases {
    /// Splits the `round` seconds one round measures: two thirds
    /// throughput, one third latency.
    pub fn for_round(round: f64) -> Phases {
        Phases {
            throughput: Duration::from_secs_f64(round * 2.0 / 3.0),
            latency: Duration::from_secs_f64(round / 3.0),
        }
    }
}

/// Operations that did not get the right answer, by kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Failures {
    /// No reply within the client's retry budget.
    pub abandoned: u64,
    /// A reply whose value is not one the harness loaded or wrote for
    /// that key (wrong key id, wrong length, torn bytes).
    pub wrong_value: u64,
    /// A well-formed value that the key must no longer (or not yet)
    /// hold: a read older than an acknowledged write.
    pub coherence: u64,
    /// A read of a loaded key answered not-found, or a write not acked.
    pub unexpected: u64,
}

impl Failures {
    /// All failed operations.
    pub fn total(&self) -> u64 {
        self.abandoned + self.wrong_value + self.coherence + self.unexpected
    }

    fn add(&mut self, other: &Failures) {
        self.abandoned += other.abandoned;
        self.wrong_value += other.wrong_value;
        self.coherence += other.coherence;
        self.unexpected += other.unexpected;
    }
}

/// The harness's own record of what each key may hold.
#[derive(Default)]
struct Model {
    keys: HashMap<u64, KeyState>,
    versions: u64,
}

#[derive(Default)]
struct KeyState {
    /// The version the key held when it was last read back (0 = the
    /// loaded dataset value).
    settled: u64,
    /// Versions written in the last chunk that wrote the key and not yet
    /// read back: with a window of requests in flight any of them may
    /// have committed last.
    pending: Vec<u64>,
    pending_chunk: u64,
}

impl Model {
    /// Assigns the next version to a write of `key` issued in `chunk`.
    fn write(&mut self, key: u64, chunk: u64) -> u64 {
        self.versions += 1;
        let state = self.keys.entry(key).or_default();
        if state.pending_chunk != chunk {
            state.pending.clear();
            state.pending_chunk = chunk;
        }
        state.pending.push(self.versions);
        self.versions
    }

    /// Whether `key` may hold `version` now.
    fn allows(&self, key: u64, version: u64) -> bool {
        match self.keys.get(&key) {
            None => version == 0,
            Some(s) if s.pending.is_empty() => version == s.settled,
            Some(s) => s.pending.contains(&version),
        }
    }

    /// Records that `key` was observed (or acknowledged) at `version`.
    fn settle(&mut self, key: u64, version: u64) {
        let state = self.keys.entry(key).or_default();
        state.settled = version;
        state.pending.clear();
    }

    /// Keys with writes not yet read back, in a repeatable order.
    fn unsettled(&self) -> Vec<u64> {
        let mut keys: Vec<u64> = self
            .keys
            .iter()
            .filter(|(_, s)| !s.pending.is_empty())
            .map(|(&k, _)| k)
            .collect();
        keys.sort_unstable();
        keys
    }
}

/// Class of a window-1 sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// A read the switch cache served.
    Hit,
    /// A read a server answered.
    Miss,
    /// A write.
    Put,
}

/// Everything one round measured.
#[derive(Debug, Clone, Default)]
pub struct Round {
    /// Set-up timings.
    pub setup: SetupTimes,
    /// Live heap bytes the rack holds after set-up.
    pub heap_live_bytes: u64,
    /// Completed operations per wall second: [`QUIET_QUANTILE`] over the
    /// throughput phase's chunks.
    pub throughput_ops_s: f64,
    /// Process CPU nanoseconds per completed operation: the matching low
    /// quantile over the same chunks.
    pub cpu_ns_per_op: f64,
    /// Reads served by the cache ÷ reads, first `count_chunks()` chunks.
    pub hit_ratio: f64,
    /// Max ÷ mean of per-server request counts, same chunks.
    pub server_imbalance: f64,
    /// Heap allocations per operation, same chunks.
    pub allocs_per_op: f64,
    /// Hit ratio of every chunk of the throughput phase.
    pub chunk_hit_ratios: Vec<f64>,
    /// Median milliseconds of a `rack_churn` control step.
    pub control_step_ms: f64,
    /// Window-1 latency at [`LATENCY_QUANTILE`], microseconds, all
    /// classes.
    pub op_latency_us: f64,
    /// Window-1 latency samples (ns) by class.
    latency: Vec<(u32, Class)>,
    /// Operations attempted in all phases (warm-up and audit included).
    pub attempted: u64,
    /// Operations that failed, by kind.
    pub failures: Failures,
    /// Counter deltas over the throughput phase.
    pub phase: Counters,
    /// Operations completed in the throughput phase.
    pub phase_ops: u64,
    /// Receive-batch occupancy median at the end of the round.
    pub batch_occupancy_p50: f64,
    /// Keys cached when the round ended.
    pub cached_keys: usize,
    /// Machine-wide steal ticks during the round.
    pub steal_ticks: u64,
    /// Socket backend.
    pub backend: &'static str,
}

impl Round {
    /// Set-up seconds: rack start + dataset load + cache populate.
    pub fn setup_s(&self) -> f64 {
        self.setup.start_s + self.setup.load_s + self.setup.populate_s
    }

    /// Window-1 latency at quantile `q`, microseconds, over all classes.
    pub fn latency_us(&self, q: f64) -> f64 {
        let mut ns: Vec<u32> = self.latency.iter().map(|&(ns, _)| ns).collect();
        percentile(&mut ns, q) / 1e3
    }

    /// Window-1 samples taken.
    pub fn latency_samples(&self) -> usize {
        self.latency.len()
    }

    /// Median window-1 latency of the samples of `class`, microseconds.
    pub fn class_p50_us(&self, class: Class) -> f64 {
        let mut ns: Vec<u32> = self
            .latency
            .iter()
            .filter(|&&(_, c)| c == class)
            .map(|&(ns, _)| ns)
            .collect();
        percentile(&mut ns, 0.5) / 1e3
    }

    /// Chunks after each popularity shift until a chunk's hit ratio is
    /// back to 0.9 × the ratio of the chunk before the shift; mean over
    /// the shifts (0 where the workload has none).
    pub fn adapt_chunks(&self) -> f64 {
        let r = &self.chunk_hit_ratios;
        let waits: Vec<f64> = CHURN_SHIFTS
            .iter()
            .filter(|&&s| s >= 1 && s < r.len())
            .map(|&s| {
                let target = 0.9 * r[s - 1];
                let wait = r[s..].iter().position(|&h| h >= target);
                wait.unwrap_or(r.len() - s) as f64
            })
            .collect();
        if waits.is_empty() {
            0.0
        } else {
            waits.iter().sum::<f64>() / waits.len() as f64
        }
    }
}

fn delta(after: &Counters, before: &Counters) -> Counters {
    Counters {
        switch_packets: after.switch_packets - before.switch_packets,
        recirculations: after.recirculations - before.recirculations,
        server_requests: after
            .server_requests
            .iter()
            .zip(&before.server_requests)
            .map(|(a, b)| a - b)
            .collect(),
        retries: after.retries - before.retries,
        stale: after.stale - before.stale,
        io_syscalls: after.io_syscalls - before.io_syscalls,
        io_packets: after.io_packets - before.io_packets,
        insertions: after.insertions - before.insertions,
        evictions: after.evictions - before.evictions,
    }
}

fn imbalance(requests: &[u64]) -> f64 {
    let total: u64 = requests.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let mean = total as f64 / requests.len() as f64;
    *requests.iter().max().expect("at least one server") as f64 / mean
}

/// Drives one rack through the phases of a round.
struct Driver<'a> {
    workload: &'a Workload,
    ops: &'a [Op],
    model: Model,
    chunk: Chunk,
    chunk_seq: u64,
    attempted: u64,
    failures: Failures,
}

impl<'a> Driver<'a> {
    fn new(workload: &'a Workload, stream: &'a Stream) -> Driver<'a> {
        Driver {
            workload,
            ops: &stream.ops,
            model: Model::default(),
            chunk: Chunk::default(),
            chunk_seq: 0,
            attempted: 0,
            failures: Failures::default(),
        }
    }

    fn chunk_ops(&self, index: usize) -> &'a [Op] {
        let chunks = self.ops.len() / CHUNK_OPS;
        let at = (index % chunks) * CHUNK_OPS;
        &self.ops[at..at + CHUNK_OPS]
    }

    /// Builds chunk `index` in client form, assigning a version to every
    /// write. Untimed.
    fn prepare(&mut self, index: usize) -> &'a [Op] {
        let ops = self.chunk_ops(index);
        self.chunk_seq += 1;
        let (workload, model, seq) = (self.workload, &mut self.model, self.chunk_seq);
        self.chunk.fill(ops.iter().map(|op| {
            let id = op.key_id();
            let value = op
                .is_write()
                .then(|| written_value(id, model.write(id, seq), workload.value_len(id)));
            (op.key(), value)
        }));
        ops
    }

    /// Runs the prepared chunk and checks what can be checked without
    /// slowing the timed loop: every in-process reply must carry the key
    /// it was asked for at the key's length.
    fn run_prepared(&mut self, session: &mut Session<'_>, ops: &[Op]) -> (u64, u64) {
        let workload = self.workload;
        let failures = &mut self.failures;
        let counts = session.run_chunk(&self.chunk, |i, reply| {
            let op = ops[i];
            match reply {
                Reply::Value { value, .. } if !op.is_write() => {
                    let id = op.key_id();
                    let bytes = value.as_bytes();
                    if bytes.len() != workload.value_len(id) || bytes[..8] != id.to_be_bytes() {
                        failures.wrong_value += 1;
                    }
                }
                Reply::Ack if op.is_write() => {}
                Reply::Lost => {} // counted as abandoned below
                _ => failures.unexpected += 1,
            }
        });
        self.attempted += ops.len() as u64;
        self.failures.abandoned += counts.abandoned;
        (counts.completed, counts.cache_hits)
    }

    /// Reads back every key with unsettled writes: the value must be one
    /// written to that key in the last chunk that wrote it.
    fn audit(&mut self, session: &mut Session<'_>) {
        for id in self.model.unsettled() {
            self.attempted += 1;
            let len = self.workload.value_len(id);
            match session.get(crate::sut::Key::from_u64(id)) {
                Reply::Value { value, .. } => match version_of(id, len, &value) {
                    Some(v) if self.model.allows(id, v) => self.model.settle(id, v),
                    Some(_) => self.failures.coherence += 1,
                    None => self.failures.wrong_value += 1,
                },
                Reply::Lost => self.failures.abandoned += 1,
                _ => self.failures.unexpected += 1,
            }
        }
    }

    /// Window-1 phase: one operation at a time, each timed, each reply
    /// checked in full against the model.
    fn latency_phase(
        &mut self,
        session: &mut Session<'_>,
        budget: Duration,
        samples: &mut Vec<(u32, Class)>,
    ) {
        let start = Instant::now();
        let mut next = 0usize;
        while start.elapsed() < budget && samples.len() < MAX_LATENCY_SAMPLES {
            // Check the clock once per 64 operations: on the in-process
            // rack reading it costs as much as a cached get.
            for _ in 0..64 {
                let op = self.ops[next % self.ops.len()];
                next += 1;
                let id = op.key_id();
                let len = self.workload.value_len(id);
                self.attempted += 1;
                if op.is_write() {
                    self.chunk_seq += 1;
                    let version = self.model.write(id, self.chunk_seq);
                    let value = written_value(id, version, len);
                    let t0 = Instant::now();
                    let reply = session.put(op.key(), value);
                    let ns = t0.elapsed().as_nanos() as u32;
                    match reply {
                        Reply::Ack => {
                            self.model.settle(id, version);
                            samples.push((ns, Class::Put));
                        }
                        Reply::Lost => self.failures.abandoned += 1,
                        _ => self.failures.unexpected += 1,
                    }
                } else {
                    let t0 = Instant::now();
                    let reply = session.get(op.key());
                    let ns = t0.elapsed().as_nanos() as u32;
                    match reply {
                        Reply::Value { value, from_cache } => {
                            match version_of(id, len, &value) {
                                Some(v) if self.model.allows(id, v) => {}
                                Some(_) => self.failures.coherence += 1,
                                None => self.failures.wrong_value += 1,
                            }
                            let class = if from_cache { Class::Hit } else { Class::Miss };
                            samples.push((ns, class));
                        }
                        Reply::Lost => self.failures.abandoned += 1,
                        _ => self.failures.unexpected += 1,
                    }
                }
            }
        }
    }
}

/// Runs one round of `workload` on a fresh rack.
pub fn run_round(workload: &Workload, stream: &Stream, phases: &Phases) -> Round {
    let steal0 = steal_ticks();
    let mut latency = Vec::with_capacity(MAX_LATENCY_SAMPLES);
    let mut chunk_ops_s: Vec<f64> = Vec::with_capacity(4096);
    let mut chunk_cpu_ns: Vec<f64> = Vec::with_capacity(4096);
    let mut chunk_hit_ratios: Vec<f64> = Vec::with_capacity(4096);
    let mut step_ms: Vec<f64> = Vec::with_capacity(CHURN_CHUNKS);

    let heap0 = alloc::snapshot().live_bytes;
    let (sut, setup) = Sut::start(workload, &stream.hottest);
    let heap_live_bytes = alloc::snapshot().live_bytes.saturating_sub(heap0);
    let mut driver = Driver::new(workload, stream);
    let chunks_in_stream = stream.ops.len() / CHUNK_OPS;

    // Warm-up on the second half of the stream; the throughput phase
    // starts at chunk 0. The churn round has none: its cache must start
    // cold.
    if !workload.churn {
        let mut session = sut.session();
        let first = chunks_in_stream / 2;
        for index in first..first + WARMUP_CHUNKS {
            let ops = driver.prepare(index);
            driver.run_prepared(&mut session, ops);
        }
        driver.audit(&mut session);
    }

    // Throughput phase.
    let mut round = Round {
        backend: sut.backend(),
        ..Round::default()
    };
    {
        let mut session = sut.session();
        let before = sut.counters();
        let mut ops_done = 0u64;
        let (mut count_hits, mut count_reads, mut count_allocs) = (0u64, 0u64, 0u64);
        let count_chunks = workload.count_chunks();
        let start = Instant::now();
        let mut index = 0usize;
        loop {
            let done = if workload.churn {
                index == CHURN_CHUNKS
            } else {
                index >= count_chunks && start.elapsed() >= phases.throughput
            };
            if done {
                break;
            }
            let ops = driver.prepare(index);
            let reads = ops.iter().filter(|op| !op.is_write()).count() as u64;
            let a0 = alloc::snapshot().allocs;
            let c0 = process_cpu_ns();
            let t0 = Instant::now();
            let (completed, hits) = driver.run_prepared(&mut session, ops);
            let wall = t0.elapsed();
            let cpu_ns = process_cpu_ns() - c0;
            chunk_cpu_ns.push(cpu_ns as f64 / completed.max(1) as f64);
            let allocs = alloc::snapshot().allocs - a0;
            ops_done += completed;
            chunk_ops_s.push(completed as f64 / wall.as_secs_f64());
            chunk_hit_ratios.push(hits as f64 / reads.max(1) as f64);
            if index < count_chunks {
                count_hits += hits;
                count_reads += reads;
                count_allocs += allocs;
            }
            index += 1;
            if index == count_chunks {
                let counted = delta(&sut.counters(), &before);
                round.server_imbalance = imbalance(&counted.server_requests);
            }
            if workload.churn {
                let t0 = Instant::now();
                sut.control_step();
                step_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            }
        }
        round.phase = delta(&sut.counters(), &before);
        round.phase_ops = ops_done;
        round.throughput_ops_s = percentile(&mut chunk_ops_s, QUIET_QUANTILE);
        round.cpu_ns_per_op = percentile(&mut chunk_cpu_ns, 1.0 - QUIET_QUANTILE);
        round.hit_ratio = count_hits as f64 / count_reads.max(1) as f64;
        round.allocs_per_op = count_allocs as f64 / (count_chunks * CHUNK_OPS) as f64;
        driver.audit(&mut session);
    }

    // Window-1 latency phase.
    {
        let mut session = sut.session();
        driver.latency_phase(&mut session, phases.latency, &mut latency);
    }

    round.setup = setup;
    round.heap_live_bytes = heap_live_bytes;
    round.chunk_hit_ratios = chunk_hit_ratios;
    round.control_step_ms = median(&step_ms);
    round.latency = latency;
    round.op_latency_us = round.latency_us(LATENCY_QUANTILE);
    round.attempted = driver.attempted;
    round.failures = driver.failures;
    round.batch_occupancy_p50 = sut.batch_occupancy_p50();
    round.cached_keys = sut.cached_keys();
    sut.stop();
    round.steal_ticks = steal_ticks().saturating_sub(steal0);
    round
}

/// All rounds of one workload run.
pub struct RunResult {
    /// The rounds, in order.
    pub rounds: Vec<Round>,
    /// Measured seconds the rounds were given.
    pub seconds: f64,
}

impl RunResult {
    /// One value per round.
    pub fn per_round(&self, f: impl Fn(&Round) -> f64) -> Vec<f64> {
        self.rounds.iter().map(f).collect()
    }

    /// Operations attempted over all rounds.
    pub fn attempted(&self) -> u64 {
        self.rounds.iter().map(|r| r.attempted).sum()
    }

    /// Failures over all rounds.
    pub fn failures(&self) -> Failures {
        let mut total = Failures::default();
        for r in &self.rounds {
            total.add(&r.failures);
        }
        total
    }
}

/// Runs `workload` for about `seconds` of measurement: [`ROUNDS`] rounds
/// of time-bounded phases, or — for the count-bounded `rack_churn` — as
/// many whole rounds as fit (at least two).
pub fn run_workload(
    workload: &Workload,
    stream: &Stream,
    seconds: f64,
    rounds: usize,
) -> RunResult {
    let phases = Phases::for_round(seconds / rounds as f64);
    let mut result = RunResult {
        rounds: Vec::new(),
        seconds,
    };
    let start = Instant::now();
    if workload.churn {
        let min_rounds = rounds.min(2);
        while result.rounds.len() < min_rounds
            || (result.rounds.len() < 4 * ROUNDS && start.elapsed().as_secs_f64() < seconds)
        {
            result.rounds.push(run_round(workload, stream, &phases));
        }
    } else {
        for _ in 0..rounds {
            result.rounds.push(run_round(workload, stream, &phases));
        }
    }
    result
}

/// What the traced replay measured.
#[derive(Debug, Clone, Default)]
pub struct TraceResult {
    /// Self time per layer, microseconds per operation.
    pub layer_us_per_op: Vec<(&'static str, f64)>,
    /// Calls into the switch per operation.
    pub switch_visits_per_op: f64,
    /// Calls into a server per operation.
    pub server_visits_per_op: f64,
    /// Pipeline passes per switch packet.
    pub passes_per_pkt: f64,
    /// Wall microseconds per operation of the product's own in-process
    /// client over the same operations, untraced.
    pub rack_us_per_op: f64,
    /// Process CPU microseconds per operation of that reference run.
    pub rack_cpu_us_per_op: f64,
    /// Walker wall time per operation without and with spans.
    pub walker_us_per_op: (f64, f64),
    /// Spans written.
    pub spans: usize,
}

impl TraceResult {
    /// Self time of `layer`, microseconds per operation.
    pub fn layer(&self, layer: &str) -> f64 {
        self.layer_us_per_op
            .iter()
            .find(|(l, _)| *l == layer)
            .map_or(0.0, |&(_, us)| us)
    }

    /// Share of the in-process cost the public layer calls explain.
    pub fn coverage(&self) -> f64 {
        // The in-process rack never serializes, so `proto` (present only
        // when mirroring the UDP hops) is left out, as is the walker's
        // own bookkeeping.
        let explained: f64 = ["client", "dataplane", "server"]
            .iter()
            .map(|l| self.layer(l))
            .sum();
        explained / self.rack_us_per_op
    }

    /// `(with spans − without) ÷ without`.
    pub fn overhead_share(&self) -> f64 {
        let (off, on) = self.walker_us_per_op;
        (on - off) / off
    }
}

/// Runs `replay` [`REPLAYS`] times and keeps the fastest: a replay is
/// tens of milliseconds long, so one burst of interference would
/// otherwise decide a whole per-layer figure.
fn fastest<T>(mut replay: impl FnMut() -> (Duration, T)) -> (Duration, T) {
    let mut best = replay();
    for _ in 1..REPLAYS {
        let next = replay();
        if next.0 < best.0 {
            best = next;
        }
    }
    best
}

/// Replays the first chunks of the stream on fresh in-process racks three
/// ways: through the product's own client (the reference), through the
/// walker without spans, and through the walker with spans. Each way is
/// replayed [`REPLAYS`] times and the fastest replay counts; its spans
/// are written to `spans_path`.
pub fn run_trace(
    workload: &Workload,
    stream: &Stream,
    spans_path: &std::path::Path,
) -> TraceResult {
    let in_process = Workload {
        transport: Transport::InProcess,
        ..*workload
    };
    let wire = workload.transport == Transport::Udp;
    let chunks = WALK_CHUNKS.min(stream.ops.len() / CHUNK_OPS);
    let ops = (chunks * CHUNK_OPS) as f64;
    let us_per_op = |wall: Duration| wall.as_secs_f64() * 1e6 / ops;

    // Reference: RackClient, untraced.
    let (wall, cpu_ns) = fastest(|| {
        let (sut, _) = Sut::start(&in_process, &stream.hottest);
        let mut driver = Driver::new(&in_process, stream);
        let mut session = sut.session();
        let (mut wall, mut cpu_ns) = (Duration::ZERO, 0u64);
        for index in 0..chunks {
            let chunk_ops = driver.prepare(index);
            let c0 = process_cpu_ns();
            let t0 = Instant::now();
            driver.run_prepared(&mut session, chunk_ops);
            wall += t0.elapsed();
            cpu_ns += process_cpu_ns() - c0;
            if workload.churn {
                sut.control_step();
            }
        }
        (wall, cpu_ns)
    });
    let mut result = TraceResult {
        rack_us_per_op: us_per_op(wall),
        rack_cpu_us_per_op: cpu_ns as f64 / 1e3 / ops,
        ..TraceResult::default()
    };

    let walk = |traced: bool| {
        fastest(|| {
            let (sut, _) = Sut::start(&in_process, &stream.hottest);
            let mut driver = Driver::new(&in_process, stream);
            let mut walker = Walker::new(&sut, wire);
            // Room for the deepest request: a put to a cached key crosses
            // the switch four times and a server twice.
            let mut tracer = Tracer::new(traced, chunks * CHUNK_OPS * 24);
            let before = sut.counters();
            let mut wall = Duration::ZERO;
            for index in 0..chunks {
                driver.prepare(index);
                let t0 = Instant::now();
                walker.walk(&driver.chunk, &mut tracer, (index * CHUNK_OPS) as u32);
                wall += t0.elapsed();
                if workload.churn {
                    sut.control_step();
                }
            }
            let counts = walker.counts;
            assert_eq!(counts.replies, counts.ops, "every walked op is answered");
            let used = delta(&sut.counters(), &before);
            (wall, (counts, used, tracer))
        })
    };
    let (wall_off, _) = walk(false);
    let (wall_on, (counts, used, tracer)) = walk(true);
    result.walker_us_per_op = (us_per_op(wall_off), us_per_op(wall_on));
    result.switch_visits_per_op = counts.switch_visits as f64 / ops;
    result.server_visits_per_op = counts.server_visits as f64 / ops;
    result.passes_per_pkt =
        (used.switch_packets + used.recirculations) as f64 / used.switch_packets.max(1) as f64;
    result.layer_us_per_op = self_time_by_layer(tracer.spans())
        .into_iter()
        .map(|(layer, ns)| (layer, ns as f64 / 1e3 / ops))
        .collect();
    result.spans = tracer.spans().len();
    if let Err(e) = crate::trace::write_jsonl(spans_path, tracer.spans()) {
        eprintln!("warning: could not write {}: {e}", spans_path.display());
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_accepts_any_write_of_the_last_writing_chunk_until_read_back() {
        let mut m = Model::default();
        assert!(m.allows(5, 0) && !m.allows(5, 1));
        let a = m.write(5, 1);
        let b = m.write(5, 1);
        assert!(m.allows(5, a) && m.allows(5, b) && !m.allows(5, 0));
        let c = m.write(5, 2); // a later chunk: earlier writes are settled history
        assert!(m.allows(5, c) && !m.allows(5, a) && !m.allows(5, b));
        assert_eq!(m.unsettled(), vec![5]);
        m.settle(5, c);
        assert!(m.unsettled().is_empty());
        assert!(m.allows(5, c) && !m.allows(5, 0));
    }

    #[test]
    fn imbalance_is_max_over_mean() {
        assert_eq!(imbalance(&[10, 10, 10, 10]), 1.0);
        assert_eq!(imbalance(&[30, 10, 10, 10]), 2.0);
        assert_eq!(imbalance(&[0, 0]), 0.0);
    }

    #[test]
    fn adapt_chunks_counts_chunks_until_recovery() {
        // 0.8 before each shift; first shift recovers after 3 chunks, the
        // second immediately.
        let mut r = Round {
            chunk_hit_ratios: vec![0.8; CHURN_CHUNKS],
            ..Round::default()
        };
        for (i, h) in [0.2, 0.5, 0.7].iter().enumerate() {
            r.chunk_hit_ratios[CHURN_SHIFTS[0] + i] = *h;
        }
        assert_eq!(r.adapt_chunks(), 1.5);
        assert_eq!(Round::default().adapt_chunks(), 0.0);
    }
}
