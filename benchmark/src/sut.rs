//! The adapter: every call into the product crates is in this file.
//!
//! The rest of the benchmark sees only [`Key`], [`Value`] and the plain
//! types defined here, so a change to the product's client or driver API
//! needs a follow-up in this one file, not a rewrite of the harness.

use std::collections::VecDeque;
use std::hint::black_box;
use std::time::{Duration, Instant};

use netcache::addressing::{Attachment, SWITCH_IP};
use netcache::runtime::{make_driver, RecvRing, RuntimeKind, SendRing};
use netcache::udp::{PipelineOp, UdpClient, UdpRack};
use netcache::{Rack, RackClient, RackConfig, RackHandle};
use netcache_client::{NetCacheClient, Response};
use netcache_controller::ControllerConfig;
use netcache_dataplane::{PortId, SwitchConfig};
use netcache_proto::{Op as WireOp, Packet};
use netcache_sim::{RackSim, SimConfig};
use netcache_sketch::{BloomFilter, CountMinSketch, Sampler};
use netcache_store::ShardedStore;
use netcache_workload::{QueryMix, SizeClass, SizeMix, WriteSkew};
use rand::rngs::StdRng;
use rand::SeedableRng;

pub use netcache_proto::{Key, Value};

use crate::clock::{measure, Timing};
use crate::trace::{SpanId, Tracer, NONE};
use crate::workload::{Sizes, Transport, Workload, CACHE_ITEMS, NUM_KEYS, SERVERS, THETA};

/// Requests the pipelined UDP client keeps in flight (one runtime batch).
pub const WINDOW: usize = 64;

/// Heavy-hitter threshold of the switch statistics. Low enough that a
/// cold cache fills within a `rack_churn` round.
const HOT_THRESHOLD: u16 = 8;

/// Virtual time `rack_churn` advances per chunk: ten chunks per
/// controller statistics reset.
pub const CHURN_STEP_NS: u64 = 100_000_000;

// ---- Workload generation -------------------------------------------------

/// Seeded operation sampler over the product's Zipf generator and
/// popularity map (`netcache_workload::QueryMix`).
pub struct OpSampler {
    mix: QueryMix,
    rng: StdRng,
}

impl OpSampler {
    /// A sampler over `num_keys` keys; writes follow the read skew.
    pub fn new(num_keys: u64, theta: f64, write_ratio: f64, seed: u64) -> OpSampler {
        OpSampler {
            mix: QueryMix::new(num_keys, theta, write_ratio, WriteSkew::SameAsReads),
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// The next operation: key id and whether it is a write.
    pub fn next_op(&mut self) -> (u64, bool) {
        let q = self.mix.sample(&mut self.rng);
        (q.key_id(), q.is_write())
    }

    /// Moves the `n` coldest keys to the top of the popularity order.
    pub fn hot_in(&mut self, n: usize) {
        self.mix.popularity_mut().hot_in(n);
    }

    /// The `n` currently hottest key ids.
    pub fn hottest(&self, n: usize) -> Vec<u64> {
        self.mix.popularity().hottest(n)
    }
}

fn size_mix() -> SizeMix {
    let class = |value_len, weight| SizeClass { value_len, weight };
    // The assignment is a property of the dataset, not of the run: the
    // seed is fixed so every run loads the same values.
    SizeMix::new(vec![class(64, 80), class(512, 15), class(2048, 5)], 0x512e)
}

/// Value length of key `id` under the 64 B / 512 B / 2 048 B mix.
pub fn mixed_value_len(id: u64) -> usize {
    thread_local! {
        static MIX: SizeMix = size_mix();
    }
    MIX.with(|m| m.len_of(id))
}

// ---- Racks ---------------------------------------------------------------

/// The rack every workload runs on, built from `RackConfig` directly.
fn rack_config() -> RackConfig {
    let mut switch = SwitchConfig::prototype();
    switch.ports = (SERVERS + 8) as usize;
    // Room for 10 000 cached items of the size mix (a 2 KB value takes 16
    // slot rows).
    switch.value_slots = 32_768;
    switch.cache_capacity = switch.value_slots;
    switch.hot_threshold = HOT_THRESHOLD;
    switch.sample_rate = 1.0;
    RackConfig {
        servers: SERVERS,
        shards_per_server: 1,
        switch,
        controller: ControllerConfig {
            cache_capacity: CACHE_ITEMS,
            ..ControllerConfig::default()
        },
        clients: 1,
        replication_factor: 1,
        partition_seed: 0x7061_7274,
        agent_retry_timeout_ns: 200_000,
        dataplane_updates: true,
        faults: Default::default(),
    }
}

/// Counters read from the rack's public statistics, all cumulative.
#[derive(Debug, Clone, Default)]
pub struct Counters {
    /// Packets offered to the switch.
    pub switch_packets: u64,
    /// Extra pipeline passes taken by recirculated packets.
    pub recirculations: u64,
    /// Requests (gets, puts, deletes) each server handled.
    pub server_requests: Vec<u64>,
    /// Client retransmissions.
    pub retries: u64,
    /// Replies the client discarded as stale or duplicate.
    pub stale: u64,
    /// Socket syscalls (0 without sockets).
    pub io_syscalls: u64,
    /// Datagrams moved (0 without sockets).
    pub io_packets: u64,
    /// Controller cache insertions.
    pub insertions: u64,
    /// Controller cache evictions.
    pub evictions: u64,
}

/// A running rack of either deployment.
pub enum Sut {
    /// Loopback UDP rack (one host thread).
    Udp(UdpRack),
    /// In-process rack.
    InProcess(Box<Rack>),
}

/// Setup timings of [`Sut::start`].
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// Rack start (sockets, threads, switch program, agents).
    pub start_s: f64,
    /// Dataset load into the stores.
    pub load_s: f64,
    /// Cache pre-population through the controller.
    pub populate_s: f64,
    /// Keys the controller inserted.
    pub populated: usize,
}

impl Sut {
    /// Starts `workload`'s rack, loads the dataset and — on the static
    /// workloads — pre-populates the cache with `hottest`.
    pub fn start(workload: &Workload, hottest: &[u64]) -> (Sut, SetupTimes) {
        Sut::start_on(workload.transport, workload.sizes, workload.churn, hottest)
    }

    fn start_on(
        transport: Transport,
        sizes: Sizes,
        cold: bool,
        hottest: &[u64],
    ) -> (Sut, SetupTimes) {
        let t0 = Instant::now();
        let sut = match transport {
            Transport::Udp => Sut::Udp(UdpRack::start(rack_config()).expect("loopback rack")),
            Transport::InProcess => {
                Sut::InProcess(Box::new(Rack::new(rack_config()).expect("valid rack")))
            }
        };
        let start_s = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        match sizes {
            Sizes::Fixed64 => sut.fabric().load_dataset(NUM_KEYS, 64),
            Sizes::Mixed => sut.fabric().load_dataset_with(NUM_KEYS, mixed_value_len),
        }
        let load_s = t1.elapsed().as_secs_f64();
        let t2 = Instant::now();
        let populated = if cold {
            0
        } else {
            let keys = hottest.iter().map(|&id| Key::from_u64(id));
            match &sut {
                Sut::Udp(r) => r.populate_cache(keys),
                Sut::InProcess(r) => r.populate_cache(keys),
            }
        };
        assert!(
            cold || populated == hottest.len(),
            "the controller cached {populated} of {} hot keys",
            hottest.len()
        );
        let times = SetupTimes {
            start_s,
            load_s,
            populate_s: t2.elapsed().as_secs_f64(),
            populated,
        };
        (sut, times)
    }

    fn fabric(&self) -> &netcache::FabricCore {
        match self {
            Sut::Udp(r) => r.fabric(),
            Sut::InProcess(r) => r.fabric(),
        }
    }

    /// The socket backend in use (`"none"` in process).
    pub fn backend(&self) -> &'static str {
        match self {
            Sut::Udp(r) => r.runtime_kind().effective().name(),
            Sut::InProcess(_) => "none",
        }
    }

    /// A client on port 0. Each call starts a fresh sequence-number
    /// epoch, so make one per phase, not per operation.
    pub fn session(&self) -> Session<'_> {
        match self {
            Sut::Udp(r) => Session::Udp(Box::new(r.client(0))),
            Sut::InProcess(r) => Session::InProcess(r.client(0)),
        }
    }

    /// One control-plane step of `rack_churn`: advance virtual time, run
    /// a controller cycle, tick the agents' retransmission timers.
    pub fn control_step(&self) {
        match self {
            Sut::InProcess(r) => {
                r.advance(CHURN_STEP_NS);
                r.run_controller();
                r.tick();
            }
            Sut::Udp(_) => unreachable!("churn runs in process"),
        }
    }

    /// Reads the cumulative counters.
    pub fn counters(&self) -> Counters {
        let f = self.fabric();
        let sw = f.switch_stats();
        let io = f.transport_stats();
        let ctl = f.controller_stats();
        Counters {
            switch_packets: sw.packets,
            recirculations: sw.recirculations,
            server_requests: (0..SERVERS)
                .map(|i| {
                    let s = f.server_stats(i);
                    s.gets + s.puts + s.deletes
                })
                .collect(),
            retries: f.counters().retries(),
            stale: f.counters().stale_replies(),
            io_syscalls: io.syscalls(),
            io_packets: io.packets(),
            insertions: ctl.insertions,
            evictions: ctl.evictions,
        }
    }

    /// Median receive-batch occupancy of the socket transport so far.
    pub fn batch_occupancy_p50(&self) -> f64 {
        self.fabric().batch_occupancy().p50() as f64
    }

    /// Keys in the switch cache.
    pub fn cached_keys(&self) -> usize {
        self.fabric().cached_keys()
    }

    /// Stops the rack and joins its threads.
    pub fn stop(self) {
        if let Sut::Udp(r) = self {
            r.stop();
        }
    }
}

/// What came back for one operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    /// A read's value and whether the switch served it.
    Value {
        /// The value.
        value: Value,
        /// Served by the switch cache.
        from_cache: bool,
    },
    /// The key does not exist.
    NotFound,
    /// A write was committed.
    Ack,
    /// No reply within the client's retry budget.
    Lost,
}

impl From<Option<Response>> for Reply {
    fn from(r: Option<Response>) -> Reply {
        match r {
            Some(Response::Value {
                value, from_cache, ..
            }) => Reply::Value { value, from_cache },
            Some(Response::NotFound { .. }) => Reply::NotFound,
            Some(Response::PutAck { .. } | Response::DeleteAck { .. }) => Reply::Ack,
            None => Reply::Lost,
        }
    }
}

/// One chunk of operations in the form the clients take, built outside
/// the timed region.
#[derive(Default)]
pub struct Chunk {
    ops: Vec<PipelineOp>,
}

impl Chunk {
    /// Replaces the contents with `ops` (`Some(value)` makes a write).
    pub fn fill(&mut self, ops: impl Iterator<Item = (Key, Option<Value>)>) {
        self.ops.clear();
        self.ops.extend(ops.map(|(key, value)| match value {
            Some(v) => PipelineOp::Put(key, v),
            None => PipelineOp::Get(key),
        }));
    }
}

/// Outcome of one [`Session::run_chunk`].
#[derive(Debug, Clone, Copy, Default)]
pub struct ChunkCounts {
    /// Operations answered.
    pub completed: u64,
    /// Operations abandoned after the retry budget.
    pub abandoned: u64,
    /// Reads the switch cache served.
    pub cache_hits: u64,
}

/// A client attached to a running rack.
pub enum Session<'a> {
    /// Blocking/pipelined UDP client.
    Udp(Box<UdpClient>),
    /// Synchronous in-process client.
    InProcess(RackClient<'a>),
}

impl Session<'_> {
    /// Reads `key` and waits for the reply (window 1).
    pub fn get(&mut self, key: Key) -> Reply {
        match self {
            Session::Udp(c) => c.get(key).into(),
            Session::InProcess(c) => c.get(key).map(|r| r.into_response()).into(),
        }
    }

    /// Writes `value` under `key` and waits for the ack (window 1).
    pub fn put(&mut self, key: Key, value: Value) -> Reply {
        match self {
            Session::Udp(c) => c.put(key, value).into(),
            Session::InProcess(c) => c.put(key, value).map(|r| r.into_response()).into(),
        }
    }

    /// Runs a whole chunk closed-loop: [`WINDOW`] requests in flight over
    /// UDP (`run_pipelined` reports counts only), one at a time in
    /// process, where `on_reply` sees every reply.
    pub fn run_chunk(
        &mut self,
        chunk: &Chunk,
        mut on_reply: impl FnMut(usize, &Reply),
    ) -> ChunkCounts {
        match self {
            Session::Udp(c) => {
                let r = c.run_pipelined(&chunk.ops, WINDOW);
                ChunkCounts {
                    completed: r.completed,
                    abandoned: r.abandoned,
                    cache_hits: r.cache_hits,
                }
            }
            Session::InProcess(c) => {
                let mut counts = ChunkCounts::default();
                for (i, op) in chunk.ops.iter().enumerate() {
                    let reply: Reply = match op {
                        PipelineOp::Get(key) => c.get(*key),
                        PipelineOp::Put(key, value) => c.put(*key, value.clone()),
                        PipelineOp::Delete(key) => c.delete(*key),
                    }
                    .map(|r| r.into_response())
                    .into();
                    match &reply {
                        Reply::Lost => counts.abandoned += 1,
                        Reply::Value {
                            from_cache: true, ..
                        } => {
                            counts.completed += 1;
                            counts.cache_hits += 1;
                        }
                        _ => counts.completed += 1,
                    }
                    on_reply(i, &reply);
                }
                counts
            }
        }
    }
}

// ---- Traced walker -------------------------------------------------------

/// Boundary counts of everything a [`Walker`] has walked.
#[derive(Debug, Clone, Copy, Default)]
pub struct WalkCounts {
    /// Operations walked.
    pub ops: u64,
    /// Calls into the switch.
    pub switch_visits: u64,
    /// Calls into a server agent.
    pub server_visits: u64,
    /// Operations that produced a decodable client reply.
    pub replies: u64,
}

enum Hop {
    Switch(PortId, Packet),
    Server(u32, PortId, Packet),
    Client(Packet),
}

/// A benchmark-side replica of the rack's forwarding loop over the
/// fabric's public accessors, with a span around every call into a layer.
/// With `wire` set it also serializes and re-parses the packet at every
/// link crossing, as the UDP host does per hop.
pub struct Walker<'a> {
    rack: &'a Rack,
    client: NetCacheClient,
    client_port: PortId,
    wire: bool,
    queue: VecDeque<Hop>,
    frame: Vec<u8>,
    /// Counts over every chunk walked so far.
    pub counts: WalkCounts,
}

impl<'a> Walker<'a> {
    /// A walker over `sut`, which must be an in-process rack.
    pub fn new(sut: &'a Sut, wire: bool) -> Walker<'a> {
        let Sut::InProcess(rack) = sut else {
            unreachable!("the walker drives an in-process rack");
        };
        Walker {
            rack,
            client: rack.fabric().make_client(0),
            client_port: rack.addressing().client_port(0),
            wire,
            queue: VecDeque::with_capacity(16),
            frame: Vec::with_capacity(4096),
            counts: WalkCounts::default(),
        }
    }

    /// One link crossing on the wire: deparse at the sender, parse at the
    /// receiver.
    fn cross(&mut self, pkt: Packet, t: &mut Tracer, parent: SpanId, req: u32) -> Packet {
        if !self.wire {
            return pkt;
        }
        let s = t.begin("Packet::deparse_into", "proto", parent, req);
        pkt.deparse_into(&mut self.frame);
        t.end(s);
        let s = t.begin("Packet::parse", "proto", parent, req);
        let parsed = Packet::parse(&self.frame).expect("own frame parses");
        t.end(s);
        parsed
    }

    /// Walks every operation of `chunk`; request ids start at `first_req`.
    pub fn walk(&mut self, chunk: &Chunk, t: &mut Tracer, first_req: u32) {
        let fabric = self.rack.fabric();
        for (i, op) in chunk.ops.iter().enumerate() {
            let req = first_req + i as u32;
            let root = t.begin("request", "walker", NONE, req);
            let s = t.begin("NetCacheClient::get/put", "client", root, req);
            let pkt = match op {
                PipelineOp::Get(key) => self.client.get(*key),
                PipelineOp::Put(key, value) => self.client.put(*key, value.clone()),
                PipelineOp::Delete(key) => self.client.delete(*key),
            };
            t.end(s);
            self.queue.push_back(Hop::Switch(self.client_port, pkt));
            while let Some(hop) = self.queue.pop_front() {
                match hop {
                    Hop::Switch(port, pkt) => {
                        let pkt = self.cross(pkt, t, root, req);
                        let s = t.begin("NetCacheSwitch::process", "dataplane", root, req);
                        let outputs = fabric.with_switch(|sw| sw.process(pkt, port));
                        t.end(s);
                        self.counts.switch_visits += 1;
                        for (out_port, out) in outputs {
                            match fabric.addressing().attachment(out_port) {
                                Attachment::Server(i) => {
                                    self.queue.push_back(Hop::Server(i, out_port, out))
                                }
                                Attachment::Client(_) => self.queue.push_back(Hop::Client(out)),
                                Attachment::Unused => {}
                            }
                        }
                    }
                    Hop::Server(index, port, pkt) => {
                        let pkt = self.cross(pkt, t, root, req);
                        let s = t.begin("ServerAgent::handle_packet", "server", root, req);
                        let outputs = fabric.server(index).handle_packet(pkt, self.rack.now());
                        t.end(s);
                        self.counts.server_visits += 1;
                        for out in outputs {
                            self.queue.push_back(Hop::Switch(port, out));
                        }
                    }
                    Hop::Client(pkt) => {
                        let pkt = self.cross(pkt, t, root, req);
                        let s = t.begin("Response::from_packet", "client", root, req);
                        let decoded = Response::from_packet(&pkt);
                        t.end(s);
                        self.counts.replies += u64::from(black_box(decoded).is_some());
                    }
                }
            }
            t.end(root);
            self.counts.ops += 1;
        }
    }
}

// ---- Per-layer timings ---------------------------------------------------

fn first_key(mut pred: impl FnMut(u64) -> bool, from: u64) -> u64 {
    (from..NUM_KEYS)
        .find(|&id| pred(id))
        .expect("the dataset holds a key of every kind")
}

/// Times the public functions of each layer. Returns `(name, value)`
/// pairs for every per-layer metric that is a plain function timing or
/// allocation count; the harness adds the ones that need a workload run.
pub fn layer_timings(rep: Duration) -> Vec<(&'static str, f64)> {
    let mut out: Vec<(&'static str, f64)> = Vec::new();
    let mut ns = |name, t: Timing| out.push((name, t.ns));

    // One in-process rack holding the size-mix dataset, cache populated
    // by the real controller, so entries of every width exist.
    let hottest: Vec<u64> = (0..CACHE_ITEMS as u64).collect();
    let (sut, _) = Sut::start_on(Transport::InProcess, Sizes::Mixed, false, &hottest);
    let Sut::InProcess(rack) = &sut else {
        unreachable!("started in process");
    };
    let fabric = rack.fabric();
    let cached_with = |len: usize, from: u64| {
        first_key(
            |id| mixed_value_len(id) == len && fabric.is_cached(&Key::from_u64(id)),
            from,
        )
    };
    let hit64 = cached_with(64, 0);
    let hit512 = cached_with(512, 0);
    let hit2k = cached_with(2048, 0);
    let put_cached = cached_with(64, hit64 + 1);
    let updated = cached_with(64, put_cached + 1);
    let srv_cached = cached_with(64, updated + 1);
    let uncached = first_key(
        |id| mixed_value_len(id) == 64 && !fabric.is_cached(&Key::from_u64(id)),
        CACHE_ITEMS as u64,
    );
    let client_port = fabric.addressing().client_port(0);
    let home = |id: u64| fabric.addressing().home_of(&Key::from_u64(id));
    let mut client = fabric.make_client(0);
    let get = |c: &mut NetCacheClient, id: u64| c.get(Key::from_u64(id));
    let reply_of = |c: &mut NetCacheClient, id: u64, op: WireOp, len: usize| {
        get(c, id).into_reply(op, Some(Value::for_item(id, len)))
    };

    // proto
    let mut buf = Vec::with_capacity(4096);
    let get_pkt = get(&mut client, hit64);
    let reply64 = reply_of(&mut client, hit64, WireOp::GetReplyHit, 64);
    let reply2k = reply_of(&mut client, hit2k, WireOp::GetReplyHit, 2048);
    let mut allocs = Vec::new();
    for (parse_name, deparse_name, alloc_name, pkt) in [
        ("proto.parse_get_ns", "proto.deparse_get_ns", None, &get_pkt),
        (
            "proto.parse_reply64_ns",
            "proto.deparse_reply64_ns",
            Some("proto.parse_reply64_allocs"),
            &reply64,
        ),
        (
            "proto.parse_reply2k_ns",
            "proto.deparse_reply2k_ns",
            Some("proto.parse_reply2k_allocs"),
            &reply2k,
        ),
    ] {
        let frame = pkt.deparse();
        let t = measure(rep, || (), |()| Packet::parse(black_box(&frame)));
        ns(parse_name, t);
        if let Some(name) = alloc_name {
            allocs.push((name, t.allocs));
        }
        ns(
            deparse_name,
            measure(rep, || (), |()| pkt.deparse_into(&mut buf)),
        );
    }

    // sketch (prototype dimensions, as the rack's switch uses)
    let key_bytes: Vec<Key> = (0..1024).map(Key::from_u64).collect();
    let mut next = 0usize;
    let mut cycle = move || {
        next = (next + 1) % 1024;
        next
    };
    let mut cms = CountMinSketch::prototype(1);
    ns(
        "sketch.cms_increment_ns",
        measure(rep, &mut cycle, |i| cms.increment(key_bytes[i].as_bytes())),
    );
    let mut bloom = BloomFilter::prototype(1);
    ns(
        "sketch.bloom_insert_ns",
        measure(rep, &mut cycle, |i| bloom.insert(key_bytes[i].as_bytes())),
    );
    let mut sampler = Sampler::new(0.5, 1);
    ns(
        "sketch.sampler_ns",
        measure(rep, || (), |()| sampler.should_sample()),
    );

    // dataplane
    fabric.with_switch(|sw| {
        let sw = &*sw;
        for (name, alloc_name, id) in [
            (
                "dataplane.get_hit64_ns",
                Some("dataplane.get_hit64_allocs"),
                hit64,
            ),
            ("dataplane.get_hit512_ns", None, hit512),
            ("dataplane.get_hit2k_ns", None, hit2k),
            (
                "dataplane.get_miss_ns",
                Some("dataplane.get_miss_allocs"),
                uncached,
            ),
        ] {
            let pkt = get(&mut client, id);
            let t = measure(rep, || pkt.clone(), |p| sw.process(p, client_port));
            ns(name, t);
            if let Some(alloc_name) = alloc_name {
                allocs.push((alloc_name, t.allocs));
            }
        }
        let frame = get_pkt.deparse();
        let mut scratch = Vec::with_capacity(4096);
        ns(
            "dataplane.frame_get_hit64_ns",
            measure(
                rep,
                || (),
                |()| {
                    sw.process_frame_with(&frame, client_port, &mut scratch, |port, bytes| {
                        black_box((port, bytes));
                    })
                },
            ),
        );
        // The first put invalidates the entry; the rest meet it invalid,
        // which takes the same path (lookup hit, status write, op
        // rewrite, forward).
        for (name, id) in [
            ("dataplane.put_cached_ns", put_cached),
            ("dataplane.put_uncached_ns", uncached),
        ] {
            let value = Value::for_item(id, 64);
            ns(
                name,
                measure(
                    rep,
                    || client.put(Key::from_u64(id), value.clone()),
                    |p| sw.process(p, client_port),
                ),
            );
        }
        let h = home(updated);
        let server_ip = fabric.addressing().server_ip(h.server);
        let value = Value::for_item(updated, 64);
        let mut version = 1_000u32;
        ns(
            "dataplane.cache_update64_ns",
            measure(
                rep,
                || {
                    version += 1;
                    Packet::cache_update(
                        server_ip,
                        SWITCH_IP,
                        Key::from_u64(updated),
                        version,
                        value.clone(),
                    )
                },
                |p| sw.process(p, h.egress_port),
            ),
        );
        let reply = reply_of(&mut client, uncached, WireOp::GetReplyMiss, 64);
        let from = home(uncached).egress_port;
        ns(
            "dataplane.reply_forward_ns",
            measure(rep, || reply.clone(), |p| sw.process(p, from)),
        );
    });

    // store, at the rack's keys per server
    let store = ShardedStore::new(1);
    let per_server = NUM_KEYS / u64::from(SERVERS);
    for id in 0..per_server {
        store.put(Key::from_u64(id), Value::for_item(id, 64), 1);
    }
    let mut at = 0u64;
    let mut resident = move || {
        at = (at + 7919) % per_server;
        at
    };
    ns(
        "store.get_ns",
        measure(rep, &mut resident, |id| store.get(&Key::from_u64(id))),
    );
    ns(
        "store.get_absent_ns",
        measure(rep, &mut resident, |id| {
            store.get(&Key::from_u64(id + NUM_KEYS))
        }),
    );
    let value = Value::for_item(0, 64);
    ns(
        "store.put_ns",
        measure(
            rep,
            || (resident(), value.clone()),
            |(id, v)| store.put(Key::from_u64(id), v, 2),
        ),
    );

    // server
    let now = rack.now();
    let agent = fabric.server(home(uncached).server);
    let pkt = get(&mut client, uncached);
    let t = measure(rep, || pkt.clone(), |p| agent.handle_packet(p, now));
    ns("server.get_ns", t);
    allocs.push(("server.get_allocs", t.allocs));
    let value = Value::for_item(uncached, 64);
    ns(
        "server.put_uncached_ns",
        measure(
            rep,
            || client.put(Key::from_u64(uncached), value.clone()),
            |p| agent.handle_packet(p, now),
        ),
    );
    // A write to a cached key emits a cache update and blocks the key
    // until the switch acks it, so the pair is timed: commit, then ack.
    let agent = fabric.server(home(srv_cached).server);
    let value = Value::for_item(srv_cached, 64);
    let t = measure(
        rep,
        || {
            let mut p = client.put(Key::from_u64(srv_cached), value.clone());
            p.netcache.op = WireOp::PutCached;
            p
        },
        |p| {
            let update = agent
                .handle_packet(p, now)
                .into_iter()
                .find(|o| o.netcache.op == WireOp::CacheUpdate)
                .expect("a cached write pushes an update");
            agent.handle_packet(update.into_reply(WireOp::CacheUpdateAck, None), now)
        },
    );
    ns("server.put_cached_ns", t);
    allocs.push(("server.put_cached_allocs", t.allocs));

    // client
    ns(
        "client.encode_get_ns",
        measure(rep, || (), |()| client.get(Key::from_u64(hit64))),
    );
    ns(
        "client.decode_reply64_ns",
        measure(rep, || (), |()| Response::from_packet(black_box(&reply64))),
    );

    // runtime: one batch of reply-sized datagrams over a loopback pair
    let (send_ns, recv_ns) = runtime_batch_ns(&reply64.deparse(), rep);
    out.push(("runtime.send_ns_per_dgram", send_ns));
    out.push(("runtime.recv_ns_per_dgram", recv_ns));

    // workload
    let mut sampler = OpSampler::new(NUM_KEYS, THETA, 0.0, 1);
    out.push((
        "workload.zipf_sample_ns",
        measure(rep, || (), |()| sampler.next_op()).ns,
    ));

    // sim: wall seconds per simulated second of a short saturated run
    let sim_s = 0.2;
    let sim = RackSim::new(SimConfig {
        servers: SERVERS,
        num_keys: NUM_KEYS,
        value_len: 64,
        cache_items: CACHE_ITEMS,
        duration_s: sim_s,
        warmup_s: 0.0,
        ..SimConfig::default()
    })
    .expect("valid sim config");
    let t0 = Instant::now();
    black_box(sim.run());
    out.push(("sim.wall_s_per_sim_s", t0.elapsed().as_secs_f64() / sim_s));

    out.extend(allocs);
    sut.stop();
    out
}

/// Nanoseconds per datagram to send and to receive one [`WINDOW`]-sized
/// batch through the detected socket driver.
fn runtime_batch_ns(frame: &[u8], rep: Duration) -> (f64, f64) {
    let kind = RuntimeKind::detect();
    let a = std::net::UdpSocket::bind("127.0.0.1:0").expect("loopback bind");
    let b = std::net::UdpSocket::bind("127.0.0.1:0").expect("loopback bind");
    let to = b.local_addr().expect("bound socket has an address");
    let mut driver = make_driver(kind);
    let mut tx = SendRing::new(WINDOW);
    let mut rx = RecvRing::new(WINDOW);
    let mut send = Vec::new();
    let mut recv = Vec::new();
    for _ in 0..crate::clock::REPS {
        let (mut send_ns, mut recv_ns, mut sent, mut got) = (0u128, 0u128, 0u64, 0u64);
        let start = Instant::now();
        while sent == 0 || start.elapsed() < rep {
            for _ in 0..WINDOW {
                tx.push_frame(to, frame);
            }
            let t0 = Instant::now();
            let out = driver.send_batch(&a, &mut tx).expect("loopback send");
            send_ns += t0.elapsed().as_nanos();
            sent += out.packets as u64;
            let mut pending = out.packets;
            while pending > 0 {
                let t0 = Instant::now();
                let out = driver
                    .recv_batch(&b, &mut rx, Duration::from_millis(100))
                    .expect("loopback recv");
                if out.packets == 0 {
                    break; // loopback dropped the rest; count what arrived
                }
                recv_ns += t0.elapsed().as_nanos();
                got += out.packets as u64;
                pending = pending.saturating_sub(out.packets);
            }
        }
        send.push(send_ns as f64 / sent.max(1) as f64);
        recv.push(recv_ns as f64 / got.max(1) as f64);
    }
    let fastest = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    (fastest(&send), fastest(&recv))
}
