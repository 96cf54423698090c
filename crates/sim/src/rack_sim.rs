//! The rack-level discrete-event simulation.
//!
//! One logical client generates Poisson query traffic from a
//! [`QueryMix`] and adapts its rate to observed loss (§7.4). The switch is
//! the *real* [`netcache_dataplane`] program; servers are the real agents
//! behind rate-limited bounded queues; the controller is the real control
//! loop running on its own timer. Rates are scaled down from the paper's
//! hardware exactly like the paper's own 64-queue server emulation scaled
//! them — ratios, not absolute numbers, are the observable.

use netcache::addressing::Attachment;
use netcache::fabric::EventQueue;
use netcache::{
    Client, ClientCounters, ClientResponse, FabricCore, FaultConfig, FaultStats, Histogram, Link,
    NetworkModel, Rack, RackConfig, RackError, RackHandle, ShardedHistogram, Synchronous,
};
use netcache_client::chunked;
use netcache_client::{NetCacheClient, RateController, Response};
use netcache_controller::ControllerConfig;
use netcache_dataplane::{PortId, SwitchConfig};
use netcache_proto::{Key, Op, Packet, Value};
use netcache_workload::{DynamicWorkload, QueryMix, SizeMix, WriteSkew};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::borrow::Cow;
use std::collections::HashMap;

/// Fixed latency components (nanoseconds), calibrated so the absolute
/// numbers land near the paper's: 7 µs for a cache hit (client-dominated),
/// ~15 µs for a server round trip at low load.
#[derive(Debug, Clone, Copy)]
pub struct LatencyModel {
    /// Client-side processing per query (both directions combined).
    pub client_overhead_ns: u64,
    /// One link traversal.
    pub hop_ns: u64,
    /// Switch pipeline traversal.
    pub switch_ns: u64,
    /// Server-side I/O overhead per query (NIC + shim), on top of the
    /// rate-derived service time.
    pub server_overhead_ns: u64,
}

impl Default for LatencyModel {
    fn default() -> Self {
        LatencyModel {
            client_overhead_ns: 6_000,
            hop_ns: 250,
            switch_ns: 400,
            server_overhead_ns: 2_000,
        }
    }
}

/// Simulation configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Storage servers (partitions).
    pub servers: u32,
    /// Distinct keys in the workload.
    pub num_keys: u64,
    /// How many of the hottest key ids to actually load into the stores
    /// (`None` = all). Large keyspaces only need their head resident: tail
    /// misses are served as not-found at identical cost, exactly like the
    /// paper's hash-partitioned store serving an arbitrary keyspace.
    pub loaded_keys: Option<u64>,
    /// Aggregate client sending capacity, QPS (`None` = unbounded). The
    /// paper's testbed was bounded by its clients' NICs at ≈2 BQPS; the
    /// rate controller never exceeds this cap.
    pub client_cap_qps: Option<f64>,
    /// Value size in bytes (≤ [`netcache_proto::MAX_VALUE_LEN`]). Sizes
    /// beyond one pipeline pass's worth (128 B) are cached as multi-pass
    /// entries and each switch traversal is charged one pipeline slot per
    /// recirculation pass.
    pub value_len: usize,
    /// Optional value-size mixture: when set, each key's logical payload
    /// length comes from this deterministic key → size-class assignment
    /// instead of the uniform `value_len`. Sizes up to
    /// [`netcache_proto::MAX_VALUE_LEN`] are single items; larger sizes
    /// use the §2 chunked layout, and one logical query fans out into one
    /// packet per chunk (manifest first, continuations after it arrives —
    /// the same order a real chunked reader issues them in). The report's
    /// [`SimReport::size_classes`] breaks goodput and hit ratio down per
    /// class.
    pub size_mix: Option<SizeMix>,
    /// Zipf skew of reads (0 = uniform).
    pub theta: f64,
    /// Fraction of writes.
    pub write_ratio: f64,
    /// Write key distribution.
    pub write_skew: WriteSkew,
    /// Cache size in items (0 disables caching: the NoCache baseline).
    pub cache_items: usize,
    /// Seed of the rack's hash partitioner.
    pub partition_seed: u64,
    /// Per-server service rate, queries/second (scaled-down stand-in for
    /// the paper's 10 MQPS servers).
    pub server_rate_qps: u64,
    /// Per-server queue capacity (jobs); beyond this, drops.
    pub queue_capacity: usize,
    /// Simulated duration in seconds (after warmup).
    pub duration_s: f64,
    /// Warmup before measurement starts, seconds.
    pub warmup_s: f64,
    /// Initial client offered rate, queries/second.
    pub initial_rate_qps: f64,
    /// If set, the client sends at this fixed rate (no loss adaptation);
    /// used for latency-vs-throughput curves.
    pub fixed_rate_qps: Option<f64>,
    /// Rate-adaptation interval, milliseconds.
    pub rate_interval_ms: u64,
    /// Controller cycle interval, milliseconds.
    pub controller_interval_ms: u64,
    /// Optional dynamic workload: the change and its period in seconds.
    pub dynamics: Option<(DynamicWorkload, f64)>,
    /// Heavy-hitter threshold for the switch statistics.
    pub hot_threshold: u16,
    /// Statistics sampling rate.
    pub sample_rate: f64,
    /// Latency model constants.
    pub latency: LatencyModel,
    /// Collect per-query latency samples (every delivered reply is
    /// recorded into a fixed-memory [`Histogram`]).
    pub collect_latency: bool,
    /// Network fault model applied on every simulated link crossing
    /// (loss, duplication, reordering, bounded delay). Defaults to a
    /// perfect network.
    pub faults: FaultConfig,
    /// Replicas per partition (chain replication; 1 = unreplicated).
    pub replication_factor: u32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            servers: 128,
            num_keys: 100_000,
            loaded_keys: None,
            client_cap_qps: None,
            value_len: 128,
            size_mix: None,
            theta: 0.99,
            write_ratio: 0.0,
            write_skew: WriteSkew::Uniform,
            cache_items: 10_000,
            partition_seed: 0x7061_7274,
            server_rate_qps: 2_000,
            queue_capacity: 64,
            duration_s: 2.0,
            warmup_s: 1.0,
            initial_rate_qps: 50_000.0,
            fixed_rate_qps: None,
            rate_interval_ms: 100,
            controller_interval_ms: 100,
            dynamics: None,
            hot_threshold: 64,
            sample_rate: 1.0,
            latency: LatencyModel::default(),
            collect_latency: false,
            faults: FaultConfig::default(),
            replication_factor: 1,
            seed: 0x5eed,
        }
    }
}

/// Per-second time series entry (Fig. 11 plots these).
#[derive(Debug, Clone, Copy, Default)]
pub struct SecondStats {
    /// Queries offered by the client.
    pub offered: u64,
    /// Replies delivered to the client.
    pub delivered: u64,
    /// Replies served by the switch cache.
    pub cache_hits: u64,
    /// Queries dropped at server queues.
    pub drops: u64,
}

/// Latency summary over sampled queries.
#[derive(Debug, Clone, Copy, Default)]
pub struct LatencyStats {
    /// Mean, nanoseconds.
    pub mean_ns: f64,
    /// Median.
    pub p50_ns: u64,
    /// 90th percentile.
    pub p90_ns: u64,
    /// 99th percentile.
    pub p99_ns: u64,
    /// 99.9th percentile.
    pub p999_ns: u64,
    /// Number of samples.
    pub samples: usize,
}

impl LatencyStats {
    /// Summarizes a latency [`Histogram`] (all zeros when empty).
    pub fn from_histogram(h: &Histogram) -> Self {
        if h.is_empty() {
            return LatencyStats::default();
        }
        LatencyStats {
            mean_ns: h.mean(),
            p50_ns: h.p50(),
            p90_ns: h.p90(),
            p99_ns: h.p99(),
            p999_ns: h.p999(),
            samples: h.count() as usize,
        }
    }
}

impl SimReport {
    /// Max-over-mean imbalance of the per-server delivered load (1.0 =
    /// perfectly balanced, 0.0 when no server served anything).
    pub fn load_imbalance(&self) -> f64 {
        if self.per_server_qps.is_empty() {
            return 0.0;
        }
        let total: f64 = self.per_server_qps.iter().sum();
        if total <= 0.0 {
            return 0.0;
        }
        let mean = total / self.per_server_qps.len() as f64;
        let max = self.per_server_qps.iter().cloned().fold(0.0, f64::max);
        max / mean
    }

    /// Renders the per-second series as CSV (`second,offered,delivered,
    /// cache_hits,drops`), ready for external plotting of the Fig. 11
    /// time series.
    pub fn per_second_csv(&self) -> String {
        let mut out = String::from("second,offered,delivered,cache_hits,drops\n");
        for (i, s) in self.per_second.iter().enumerate() {
            out.push_str(&format!(
                "{},{},{},{},{}\n",
                i, s.offered, s.delivered, s.cache_hits, s.drops
            ));
        }
        out
    }

    /// Renders the headline numbers as one CSV row (`goodput_qps,
    /// offered_qps,cache_qps,server_qps,hit_ratio,drops`).
    pub fn summary_csv_row(&self) -> String {
        format!(
            "{:.1},{:.1},{:.1},{:.1},{:.4},{}",
            self.goodput_qps,
            self.offered_qps,
            self.cache_qps,
            self.server_qps,
            self.hit_ratio,
            self.drops
        )
    }
}

/// Per-size-class results of a size-mixed run (see [`SimConfig::size_mix`]).
///
/// Counters are in *logical* operations: a chunked query counts once, and
/// counts as a cache hit only when every constituent chunk was served by
/// the switch.
#[derive(Debug, Clone, Copy)]
pub struct ClassStats {
    /// Logical payload length of this class, bytes.
    pub value_len: usize,
    /// Logical operations offered during measurement.
    pub offered: u64,
    /// Logical operations fully delivered during measurement.
    pub delivered: u64,
    /// Delivered operations served entirely by the switch cache.
    pub hits: u64,
    /// Delivered logical operations per second.
    pub goodput_qps: f64,
    /// `hits / delivered` (0 when nothing was delivered).
    pub hit_ratio: f64,
}

/// Simulation results.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Average goodput over the measurement window, queries/second.
    pub goodput_qps: f64,
    /// Average offered rate over the measurement window.
    pub offered_qps: f64,
    /// Goodput served by the switch cache.
    pub cache_qps: f64,
    /// Goodput served by storage servers.
    pub server_qps: f64,
    /// Cache hit ratio among delivered reads.
    pub hit_ratio: f64,
    /// Total drops during measurement.
    pub drops: u64,
    /// Per-server delivered queries/second (Fig. 10(b)).
    pub per_server_qps: Vec<f64>,
    /// Latency summary (if collection was enabled).
    pub latency: LatencyStats,
    /// Full latency distribution (virtual time, ns; empty unless
    /// `collect_latency` was set).
    pub latency_hist: Histogram,
    /// Per-second series (Fig. 11).
    pub per_second: Vec<SecondStats>,
    /// Faults injected by the network model over the whole run.
    pub faults: FaultStats,
    /// Per-size-class breakdown (empty unless [`SimConfig::size_mix`]
    /// was set).
    pub size_classes: Vec<ClassStats>,
}

// The packet-carrying variant is scheduled once per server visit; boxing
// it to even out the variants would put an allocation back on each one.
#[allow(clippy::large_enum_variant)]
enum Event {
    /// The client emits its next query.
    ClientSend,
    /// A server finishes servicing a query.
    ServerComplete {
        server: u32,
        pkt: Packet,
        enqueued_at: u64,
    },
    /// A reply reaches the client.
    ClientRecv {
        seq: u32,
        from_cache: bool,
        not_found: bool,
    },
    /// Periodic rate adaptation + bookkeeping.
    Interval,
    /// Periodic controller cycle.
    ControllerCycle,
    /// Periodic agent retransmission timers.
    AgentTick,
    /// Periodic dynamic-workload change.
    WorkloadChange,
    /// One-shot agent-timer tick used by scripted runs (never
    /// reschedules itself, so [`RackSim::run_script`] can drain the
    /// queue to empty).
    ScriptTick,
}

/// One step of a scripted workload, used by the cross-transport
/// differential tests: the same script run on the in-process `Rack` and
/// on [`RackSim::run_script`] must produce identical logical outcomes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScriptOp {
    /// Read key id.
    Get(u64),
    /// Write key id with a value filled with the given byte.
    Put(u64, u8),
    /// Delete key id.
    Delete(u64),
    /// Run one controller cycle.
    Controller,
    /// Advance virtual time (drives agent retransmission timers).
    AdvanceMs(u64),
}

/// The rack configuration a [`SimConfig`] maps onto: the real switch
/// program, partitioning and controller settings the simulator drives.
///
/// Public so the cross-transport differential tests can build an
/// in-process [`Rack`] that is assembled *identically* to the simulated
/// one (same switch seed, same partitioning, same cache sizing).
pub fn rack_config_for(config: &SimConfig, dataplane_updates: bool) -> RackConfig {
    let mut switch = SwitchConfig::prototype();
    switch.ports = (config.servers + 8) as usize;
    // Size the value arrays to the experiment: enough slots for the
    // target cache size, 8 stages as in the prototype.
    switch.value_slots = config.cache_items.max(1024).next_power_of_two();
    switch.cache_capacity = switch.value_slots;
    switch.hot_threshold = config.hot_threshold;
    switch.sample_rate = config.sample_rate;
    switch.seed = config.seed ^ 0x5717c4;

    RackConfig {
        servers: config.servers,
        shards_per_server: 1,
        switch,
        controller: ControllerConfig {
            cache_capacity: config.cache_items,
            stats_reset_interval_ns: 1_000_000_000,
            ..ControllerConfig::default()
        },
        clients: 1,
        replication_factor: config.replication_factor,
        partition_seed: config.partition_seed,
        agent_retry_timeout_ns: 200_000,
        dataplane_updates,
        // The sim routes every packet through its own latency-modelled
        // links, so the rack-internal fault model stays off and the
        // sim applies `config.faults` itself in `dispatch`.
        faults: FaultConfig::default(),
    }
}

/// The simulator.
pub struct RackSim {
    config: SimConfig,
    rack: Rack,
    mix: QueryMix,
    client: NetCacheClient,
    client_port: PortId,
    // Scripted requests (see `SimLink`): while set, replies delivered to
    // the client are also captured whole for decoding.
    capture_replies: bool,
    script_replies: Vec<Packet>,
    /// The server agents' output buffer, reused across packets.
    server_out: Vec<Packet>,
    rng: StdRng,
    faults: NetworkModel,
    queue: EventQueue<Event>,
    /// Simulation time: the timestamp of the last event popped.
    now: u64,
    rate: RateController,
    // Server state.
    server_free_at: Vec<u64>,
    server_pending: Vec<usize>,
    server_served: Vec<u64>,
    service_ns: u64,
    // Client accounting.
    in_flight: HashMap<u32, Flight>,
    // Logical chunked operations in flight (size-mixed workloads): one
    // entry per multi-packet query, plus the packet → operation index.
    large_ops: HashMap<u64, LargeOp>,
    seq_to_op: HashMap<u32, u64>,
    next_op_id: u64,
    class_stats: Vec<ClassCounters>,
    interval_sent: u64,
    interval_recv: u64,
    // Measurement.
    warmup_end_ns: u64,
    end_ns: u64,
    current_second: SecondStats,
    second_boundary_ns: u64,
    per_second: Vec<SecondStats>,
    delivered: u64,
    delivered_hits: u64,
    offered: u64,
    drops: u64,
    latencies: Histogram,
}

/// One single-packet query in flight.
#[derive(Debug, Clone, Copy)]
struct Flight {
    sent_at: u64,
    class: u8,
}

/// One logical chunked query in flight (size classes beyond
/// [`netcache_proto::MAX_VALUE_LEN`]).
#[derive(Debug, Clone, Copy)]
struct LargeOp {
    started_at: u64,
    base_id: u64,
    total_len: usize,
    class: u8,
    /// Constituent packets still outstanding.
    remaining: u32,
    /// Every reply so far was served by the switch cache.
    all_hits: bool,
    /// Read whose manifest has not arrived yet (continuation reads are
    /// issued once it does).
    awaiting_manifest: bool,
}

/// Per-size-class counters accumulated during measurement.
#[derive(Debug, Clone, Copy, Default)]
struct ClassCounters {
    offered: u64,
    delivered: u64,
    hits: u64,
}

impl RackSim {
    /// Builds the simulator (rack constructed, dataset loaded, cache
    /// pre-populated with the hottest `cache_items` keys).
    pub fn new(config: SimConfig) -> Result<Self, RackError> {
        Self::with_dataplane_updates(config, true)
    }

    /// Like [`RackSim::new`] but selecting the write-around ablation when
    /// `dataplane_updates` is `false` (§4.3: servers do not push values to
    /// the switch; the controller's repair pass refreshes invalid entries).
    pub fn with_dataplane_updates(
        config: SimConfig,
        dataplane_updates: bool,
    ) -> Result<Self, RackError> {
        if let Some(mix) = &config.size_mix {
            for class in mix.classes() {
                assert!(
                    class.value_len <= chunked::MAX_LARGE_LEN,
                    "size-mix class of {} bytes exceeds the chunked cap of {} bytes",
                    class.value_len,
                    chunked::MAX_LARGE_LEN
                );
            }
        }
        let rack = Rack::new(rack_config_for(&config, dataplane_updates))?;
        let loaded = config
            .loaded_keys
            .map_or(config.num_keys, |k| k.min(config.num_keys));
        match &config.size_mix {
            None => rack.load_dataset(loaded, config.value_len),
            Some(mix) => rack.fabric().load_dataset_with(loaded, |id| mix.len_of(id)),
        }

        let mix = QueryMix::new(
            config.num_keys,
            config.theta,
            config.write_ratio,
            config.write_skew,
        );
        if config.cache_items > 0 {
            let hottest: Vec<Key> = mix
                .popularity()
                .hottest(config.cache_items)
                .iter()
                .map(|&id| Key::from_u64(id))
                .collect();
            rack.populate_cache(hottest);
        }
        let client = rack.fabric().make_client(0);
        let client_port = rack.addressing().client_port(0);
        let service_ns = 1_000_000_000 / config.server_rate_qps;
        let initial = config.fixed_rate_qps.unwrap_or(config.initial_rate_qps);
        let cap = config.client_cap_qps.unwrap_or(1e9);
        let rate = RateController::new(initial.max(10.0).min(cap), 10.0, cap);
        let warmup_end_ns = (config.warmup_s * 1e9) as u64;
        let end_ns = warmup_end_ns + (config.duration_s * 1e9) as u64;
        Ok(RackSim {
            rng: StdRng::seed_from_u64(config.seed),
            faults: NetworkModel::new(config.faults.clone()),
            mix,
            client,
            client_port,
            capture_replies: false,
            script_replies: Vec::new(),
            server_out: Vec::new(),
            queue: EventQueue::new(),
            now: 0,
            rate,
            server_free_at: vec![0; config.servers as usize],
            server_pending: vec![0; config.servers as usize],
            server_served: vec![0; config.servers as usize],
            service_ns,
            in_flight: HashMap::new(),
            large_ops: HashMap::new(),
            seq_to_op: HashMap::new(),
            next_op_id: 0,
            class_stats: vec![
                ClassCounters::default();
                config.size_mix.as_ref().map_or(1, |m| m.classes().len())
            ],
            interval_sent: 0,
            interval_recv: 0,
            warmup_end_ns,
            end_ns,
            current_second: SecondStats::default(),
            second_boundary_ns: 1_000_000_000,
            per_second: Vec::new(),
            delivered: 0,
            delivered_hits: 0,
            offered: 0,
            drops: 0,
            latencies: Histogram::new(),
            rack,
            config,
        })
    }

    /// Access to the underlying rack (inspection in tests).
    pub fn rack(&self) -> &Rack {
        &self.rack
    }

    /// A scripted client: each request runs through the full simulated
    /// data path (real switch, latency-modelled links, rate-limited
    /// servers) until the event queue is quiet. Every call starts a fresh
    /// sequence-number epoch, so keep one per phase, not per request.
    pub fn client(&mut self) -> SimClient<'_> {
        let builder = self.rack.fabric().make_client(0);
        Client::new(SimLink { sim: self }, builder)
    }

    /// Runs a deterministic scripted workload one operation at a time
    /// through a [`RackSim::client`], returning the decoded single-attempt
    /// reply of each data operation. The cross-transport differential
    /// tests run the same script on the in-process [`Rack`] and assert
    /// identical logical outcomes.
    pub fn run_script(&mut self, ops: &[ScriptOp]) -> Vec<Option<Response>> {
        let value_len = self.config.value_len;
        let mut client = self.client();
        let mut results = Vec::new();
        for op in ops {
            let reply = match *op {
                ScriptOp::Get(id) => client.get(Key::from_u64(id)),
                ScriptOp::Put(id, fill) => {
                    client.put(Key::from_u64(id), Value::filled(fill, value_len))
                }
                ScriptOp::Delete(id) => client.delete(Key::from_u64(id)),
                ScriptOp::Controller => {
                    let sim = &mut *client.link_mut().sim;
                    sim.controller_cycle_at(sim.now);
                    sim.drain();
                    continue;
                }
                ScriptOp::AdvanceMs(ms) => {
                    client.link_mut().sim.advance_script(ms * 1_000_000);
                    continue;
                }
            };
            results.push(reply.map(ClientResponse::into_response));
        }
        results
    }

    /// Lets `ns` of simulated time pass in scripted mode: agent timers
    /// fire at the end of it, and everything in flight runs to quiet.
    fn advance_script(&mut self, ns: u64) {
        self.schedule(self.now + ns, Event::ScriptTick);
        self.drain();
    }

    /// Runs `start` and then the event queue to quiet, handing the
    /// client-bound replies to `reply`.
    fn capture_into(&mut self, reply: impl FnMut(Packet), start: impl FnOnce(&mut Self)) {
        self.capture_replies = true;
        start(self);
        self.drain();
        self.capture_replies = false;
        self.script_replies.drain(..).for_each(reply);
    }

    /// Schedules `event` at `at`, clamped to now: events cannot fire in
    /// the simulated past.
    fn schedule(&mut self, at: u64, event: Event) {
        self.queue.push(at.max(self.now), event);
    }

    /// Pops the earliest event, advancing simulation time to it.
    fn pop(&mut self) -> Option<(u64, Event)> {
        let (at, event) = self.queue.pop()?;
        self.now = at;
        Some((at, event))
    }

    /// Processes one packet through the real switch, charging one
    /// `switch_ns` pipeline slot per pass the touched key's cached value
    /// occupies: a recirculated multi-pass entry holds the pipeline for
    /// proportionally longer in the event queue, so large cached values
    /// are not simulated as free.
    fn switch_process(&mut self, pkt: Packet, port: PortId) -> (u64, Option<(PortId, Packet)>) {
        let key = pkt.netcache.key;
        let (passes, out) = self.rack.with_switch(|sw| {
            let passes = sw.passes_for(&key);
            (passes, sw.process(pkt, port))
        });
        (self.config.latency.switch_ns * u64::from(passes), out)
    }

    /// Runs the event queue dry (scripted mode only: no periodic events
    /// reschedule themselves, so quiescence is reached).
    fn drain(&mut self) {
        while let Some((now, event)) = self.pop() {
            self.handle(now, event);
        }
    }

    fn exp_interarrival_ns(&mut self, rate_qps: f64) -> u64 {
        let u: f64 = self.rng.random::<f64>().max(1e-12);
        ((-u.ln()) / rate_qps * 1e9) as u64 + 1
    }

    /// Runs the simulation to completion and reports.
    pub fn run(mut self) -> SimReport {
        let interval_ns = self.config.rate_interval_ms * 1_000_000;
        let controller_ns = self.config.controller_interval_ms * 1_000_000;
        self.schedule(0, Event::ClientSend);
        self.schedule(interval_ns, Event::Interval);
        self.schedule(controller_ns, Event::ControllerCycle);
        self.schedule(1_000_000, Event::AgentTick);
        if let Some((_, period_s)) = self.config.dynamics {
            self.schedule((period_s * 1e9) as u64, Event::WorkloadChange);
        }
        while let Some((now, event)) = self.pop() {
            if now >= self.end_ns {
                break;
            }
            self.handle(now, event);
        }
        self.finish()
    }

    fn measuring(&self, now: u64) -> bool {
        now >= self.warmup_end_ns
    }

    fn handle(&mut self, now: u64, event: Event) {
        match event {
            Event::ClientSend => self.on_client_send(now),
            Event::ServerComplete {
                server,
                pkt,
                enqueued_at,
            } => self.on_server_complete(now, server, pkt, enqueued_at),
            Event::ClientRecv {
                seq,
                from_cache,
                not_found,
            } => self.on_client_recv(now, seq, from_cache, not_found),
            Event::Interval => self.on_interval(now),
            Event::ControllerCycle => self.on_controller(now),
            Event::AgentTick => self.on_agent_tick(now),
            Event::WorkloadChange => self.on_workload_change(now),
            Event::ScriptTick => self.tick_agents(now),
        }
    }

    /// The class index and logical payload length assigned to a key.
    fn size_of(&self, id: u64) -> (u8, usize) {
        match &self.config.size_mix {
            None => (0, self.config.value_len),
            Some(mix) => {
                let class = mix.class_of(id);
                (class as u8, mix.classes()[class].value_len)
            }
        }
    }

    /// Injects one client packet at the switch.
    fn send_packet(&mut self, now: u64, pkt: Packet) {
        let (switch_ns, out) = self.switch_process(pkt, self.client_port);
        self.dispatch(now + self.config.latency.hop_ns + switch_ns, out);
    }

    fn on_client_send(&mut self, now: u64) {
        // Schedule the next arrival first (open loop).
        let next = now + self.exp_interarrival_ns(self.rate.rate());
        self.schedule(next, Event::ClientSend);

        let query = self.mix.sample(&mut self.rng);
        let id = query.key_id();
        let (class, len) = self.size_of(id);
        self.interval_sent += 1;
        if self.measuring(now) {
            self.offered += 1;
            self.current_second.offered += 1;
            self.class_stats[class as usize].offered += 1;
        }
        if len > netcache_proto::MAX_VALUE_LEN {
            self.send_chunked(now, id, len, class, query.is_write());
            return;
        }
        let key = Key::from_u64(id);
        let pkt = match query {
            netcache_workload::QueryKind::Get(_) => self.client.get(key),
            netcache_workload::QueryKind::Put(id) => self.client.put(key, Value::for_item(id, len)),
        };
        self.in_flight.insert(
            pkt.netcache.seq,
            Flight {
                sent_at: now,
                class,
            },
        );
        self.send_packet(now, pkt);
    }

    /// Issues one logical query of a key whose payload spans multiple
    /// chunked items. A write stores every chunk (continuations first,
    /// manifest last — the ordering `put_large` uses); a read fetches the
    /// manifest and fans out to the continuations once it arrives. The
    /// operation completes — one delivered logical query — when the last
    /// constituent reply reaches the client.
    fn send_chunked(&mut self, now: u64, id: u64, len: usize, class: u8, is_write: bool) {
        let op_id = self.next_op_id;
        self.next_op_id += 1;
        let base = Key::from_u64(id);
        let mut op = LargeOp {
            started_at: now,
            base_id: id,
            total_len: len,
            class,
            remaining: 1,
            all_hits: !is_write,
            awaiting_manifest: !is_write,
        };
        if is_write {
            let chunks = chunked::split(&netcache_proto::item_bytes(id, len))
                .expect("size-mix lengths are validated against the chunking cap");
            op.remaining = chunks.len() as u32;
            self.large_ops.insert(op_id, op);
            for (index, value) in chunks {
                let pkt = self.client.put(chunked::chunk_key(base, index), value);
                self.seq_to_op.insert(pkt.netcache.seq, op_id);
                self.send_packet(now, pkt);
            }
        } else {
            self.large_ops.insert(op_id, op);
            let pkt = self.client.get(base);
            self.seq_to_op.insert(pkt.netcache.seq, op_id);
            self.send_packet(now, pkt);
        }
    }

    /// Passes one packet through the fault model for a link crossing,
    /// returning the surviving copies and their departure times.
    fn link(&mut self, pkt: Packet, now: u64) -> Vec<(u64, Packet)> {
        let mut deliveries = Vec::new();
        self.faults.transmit(pkt, now, &mut deliveries);
        deliveries
            .into_iter()
            .map(|d| (d.deliver_at_ns, d.pkt))
            .collect()
    }

    /// Routes the switch's output to its attached node with latency,
    /// applying the fault model per link crossing.
    fn dispatch(&mut self, now: u64, out: Option<(PortId, Packet)>) {
        let Some((port, pkt)) = out else {
            return;
        };
        match self.rack.addressing().attachment(port) {
            Attachment::Client(_) => {
                for (at, pkt) in self.link(pkt, now) {
                    let from_cache = pkt.netcache.op == Op::GetReplyHit;
                    let not_found = pkt.netcache.op == Op::GetReplyNotFound;
                    self.schedule(
                        at + self.config.latency.hop_ns,
                        Event::ClientRecv {
                            seq: pkt.netcache.seq,
                            from_cache,
                            not_found,
                        },
                    );
                    if self.capture_replies {
                        self.script_replies.push(pkt);
                    }
                }
            }
            Attachment::Server(i) => {
                for (at, pkt) in self.link(pkt, now) {
                    self.deliver_to_server(at, i, pkt);
                }
            }
            Attachment::Unused => {}
        }
    }

    fn deliver_to_server(&mut self, now: u64, server: u32, pkt: Packet) {
        let s = server as usize;
        let arrival = now + self.config.latency.hop_ns;
        match pkt.netcache.op {
            // Queries contend for the server's service capacity.
            Op::Get
            | Op::Put
            | Op::PutCached
            | Op::Delete
            | Op::DeleteCached
            | Op::ChainPut
            | Op::ChainDelete => {
                if self.server_pending[s] >= self.config.queue_capacity {
                    if self.measuring(now) {
                        self.drops += 1;
                        self.current_second.drops += 1;
                    }
                    return;
                }
                self.server_pending[s] += 1;
                let start = self.server_free_at[s].max(arrival);
                // The server is busy for one service time; the I/O
                // overhead adds pipeline latency without occupying the
                // core (DPDK-style overlapped I/O).
                self.server_free_at[s] = start + self.service_ns;
                let finish = start + self.service_ns + self.config.latency.server_overhead_ns;
                self.schedule(
                    finish,
                    Event::ServerComplete {
                        server,
                        pkt,
                        enqueued_at: arrival,
                    },
                );
            }
            // Acks and stray packets are handled by the shim's I/O path
            // without consuming KV service capacity.
            _ => self.serve(arrival, server, pkt),
        }
    }

    /// Hands `pkt` to server `server`'s agent and forwards what it emits.
    /// The agent writes into one buffer reused across packets.
    fn serve(&mut self, now: u64, server: u32, pkt: Packet) {
        let mut outs = std::mem::take(&mut self.server_out);
        self.rack
            .server(server)
            .handle_packet_into(pkt, now, &mut outs);
        self.forward_from_server(now, server, &mut outs);
        self.server_out = outs;
    }

    /// Drains `outs`, the packets server `server` emitted at `now`, into
    /// the switch.
    fn forward_from_server(&mut self, now: u64, server: u32, outs: &mut Vec<Packet>) {
        let port = self.rack.addressing().server_port(server);
        for pkt in outs.drain(..) {
            // Server → switch is a link crossing of its own; copies that
            // survive it traverse the switch at their (possibly delayed)
            // arrival time.
            for (at, pkt) in self.link(pkt, now) {
                let (switch_ns, out) = self.switch_process(pkt, port);
                self.dispatch(at + self.config.latency.hop_ns + switch_ns, out);
            }
        }
    }

    fn on_server_complete(&mut self, now: u64, server: u32, pkt: Packet, _enqueued_at: u64) {
        let s = server as usize;
        self.server_pending[s] -= 1;
        if self.measuring(now) {
            self.server_served[s] += 1;
        }
        self.serve(now, server, pkt);
    }

    fn on_client_recv(&mut self, now: u64, seq: u32, from_cache: bool, not_found: bool) {
        if let Some(op_id) = self.seq_to_op.remove(&seq) {
            self.on_chunk_recv(now, op_id, from_cache, not_found);
            return;
        }
        self.interval_recv += 1;
        let flight = self.in_flight.remove(&seq);
        if self.measuring(now) {
            self.delivered += 1;
            self.current_second.delivered += 1;
            if from_cache {
                self.delivered_hits += 1;
                self.current_second.cache_hits += 1;
            }
            if let Some(f) = flight {
                let c = &mut self.class_stats[f.class as usize];
                c.delivered += 1;
                c.hits += u64::from(from_cache);
            }
            if self.config.collect_latency {
                if let Some(f) = flight {
                    self.latencies
                        .record(now - f.sent_at + self.config.latency.client_overhead_ns);
                }
            }
        }
    }

    /// One constituent reply of a logical chunked operation.
    fn on_chunk_recv(&mut self, now: u64, op_id: u64, from_cache: bool, not_found: bool) {
        let Some(op) = self.large_ops.get_mut(&op_id) else {
            // The operation aged out of the in-flight table (a lost
            // constituent); late stragglers are dropped on the floor.
            return;
        };
        op.all_hits &= from_cache;
        op.remaining -= 1;
        if op.awaiting_manifest && !not_found {
            // The manifest arrived: fan out the continuation reads. (A
            // not-found manifest ends the operation — the key holds no
            // chunked item, exactly like a plain miss.)
            op.awaiting_manifest = false;
            let count = chunked::chunk_count(op.total_len);
            op.remaining = count - 1;
            let base_id = op.base_id;
            for index in 1..count {
                let pkt = self
                    .client
                    .get(chunked::chunk_key(Key::from_u64(base_id), index));
                self.seq_to_op.insert(pkt.netcache.seq, op_id);
                self.send_packet(now, pkt);
            }
            return;
        }
        if op.remaining > 0 {
            return;
        }
        let op = self.large_ops.remove(&op_id).expect("operation present");
        self.interval_recv += 1;
        if self.measuring(now) {
            self.delivered += 1;
            self.current_second.delivered += 1;
            let c = &mut self.class_stats[op.class as usize];
            c.delivered += 1;
            if op.all_hits {
                self.delivered_hits += 1;
                self.current_second.cache_hits += 1;
                c.hits += 1;
            }
            if self.config.collect_latency {
                self.latencies
                    .record(now - op.started_at + self.config.latency.client_overhead_ns);
            }
        }
    }

    fn on_interval(&mut self, now: u64) {
        let interval_ns = self.config.rate_interval_ms * 1_000_000;
        self.schedule(now + interval_ns, Event::Interval);
        if self.config.fixed_rate_qps.is_none() {
            self.rate
                .on_interval(self.interval_sent, self.interval_recv);
        }
        self.interval_sent = 0;
        self.interval_recv = 0;
        // In-flight entries older than a second are lost queries.
        self.in_flight
            .retain(|_, f| now - f.sent_at < 1_000_000_000);
        self.large_ops
            .retain(|_, op| now - op.started_at < 1_000_000_000);
        let live_ops = &self.large_ops;
        self.seq_to_op.retain(|_, op| live_ops.contains_key(op));
        // Per-second rollover.
        if now >= self.second_boundary_ns {
            if self.measuring(now) {
                self.per_second.push(self.current_second);
            }
            self.current_second = SecondStats::default();
            self.second_boundary_ns += 1_000_000_000;
        }
    }

    fn on_controller(&mut self, now: u64) {
        let controller_ns = self.config.controller_interval_ms * 1_000_000;
        self.schedule(now + controller_ns, Event::ControllerCycle);
        self.controller_cycle_at(now);
    }

    /// One controller cycle against the real switch and servers, run by
    /// the shared fabric core; packets the agents release (write
    /// unblocking after cache insertion) re-enter the simulated network
    /// at the owning server's link.
    fn controller_cycle_at(&mut self, now: u64) {
        let released = self.rack.fabric().run_controller_cycle(now);
        for (port, pkt) in released {
            if let Attachment::Server(i) = self.rack.addressing().attachment(port) {
                self.forward_from_server(now, i, &mut vec![pkt]);
            }
        }
    }

    fn on_agent_tick(&mut self, now: u64) {
        self.schedule(now + 1_000_000, Event::AgentTick);
        self.tick_agents(now);
    }

    fn tick_agents(&mut self, now: u64) {
        for i in 0..self.config.servers {
            let mut outs = self.rack.server(i).tick(now);
            if !outs.is_empty() {
                self.forward_from_server(now, i, &mut outs);
            }
        }
    }

    fn on_workload_change(&mut self, now: u64) {
        if let Some((change, period_s)) = self.config.dynamics {
            self.schedule(now + (period_s * 1e9) as u64, Event::WorkloadChange);
            self.mix.popularity_mut().apply(change, &mut self.rng);
        }
    }

    fn finish(mut self) -> SimReport {
        if self.current_second.offered > 0 {
            self.per_second.push(self.current_second);
        }
        let window_s = self.config.duration_s;
        let goodput = self.delivered as f64 / window_s;
        let cache_qps = self.delivered_hits as f64 / window_s;
        let latency = LatencyStats::from_histogram(&self.latencies);
        SimReport {
            goodput_qps: goodput,
            offered_qps: self.offered as f64 / window_s,
            cache_qps,
            server_qps: goodput - cache_qps,
            hit_ratio: if self.delivered > 0 {
                self.delivered_hits as f64 / self.delivered as f64
            } else {
                0.0
            },
            drops: self.drops,
            per_server_qps: self
                .server_served
                .iter()
                .map(|&c| c as f64 / window_s)
                .collect(),
            latency,
            latency_hist: self.latencies,
            per_second: self.per_second,
            faults: self.faults.stats(),
            size_classes: match &self.config.size_mix {
                None => Vec::new(),
                Some(mix) => mix
                    .classes()
                    .iter()
                    .zip(&self.class_stats)
                    .map(|(class, c)| ClassStats {
                        value_len: class.value_len,
                        offered: c.offered,
                        delivered: c.delivered,
                        hits: c.hits,
                        goodput_qps: c.delivered as f64 / window_s,
                        hit_ratio: if c.delivered > 0 {
                            c.hits as f64 / c.delivered as f64
                        } else {
                            0.0
                        },
                    })
                    .collect(),
            },
        }
    }
}

impl RackHandle for RackSim {
    fn fabric(&self) -> &FabricCore {
        self.rack.fabric()
    }

    fn populate_cache(&self, keys: Vec<Key>) -> usize {
        RackHandle::populate_cache(&self.rack, keys)
    }
}

/// The scripted client's attachment: transmitting injects the query at
/// the switch and runs the simulation until it is quiet; waiting lets
/// simulated time pass so agent timers fire. Scripts run over the sim's
/// own latency-modelled links, so a transmit returns every reply the
/// request will ever get.
pub struct SimLink<'a> {
    sim: &'a mut RackSim,
}

impl Link for SimLink<'_> {
    fn transmit(&mut self, pkt: Cow<'_, Packet>, reply: impl FnMut(Packet)) {
        self.sim.capture_into(reply, |sim| {
            sim.send_packet(sim.now, pkt.into_owned());
        });
    }

    fn wait(&mut self, timeout_ns: u64, _want_seq: u32, reply: impl FnMut(Packet)) {
        self.sim
            .capture_into(reply, |sim| sim.advance_script(timeout_ns));
    }

    fn counters(&self) -> &ClientCounters {
        self.sim.client_counters()
    }

    fn op_latency(&self) -> &ShardedHistogram {
        self.sim.fabric().op_latency_recorder()
    }
}

impl Synchronous for SimLink<'_> {}

/// A scripted client of the simulator (see [`RackSim::client`]).
pub type SimClient<'a> = Client<SimLink<'a>>;

#[cfg(test)]
mod tests {
    use super::*;

    fn base_config() -> SimConfig {
        SimConfig {
            servers: 8,
            num_keys: 5_000,
            value_len: 64,
            server_rate_qps: 1_000,
            cache_items: 100,
            duration_s: 1.0,
            warmup_s: 0.5,
            initial_rate_qps: 2_000.0,
            ..SimConfig::default()
        }
    }

    #[test]
    fn uniform_nocache_reaches_near_aggregate() {
        let report = RackSim::new(SimConfig {
            theta: 0.0,
            cache_items: 0,
            // Start above capacity so the controller only has to back off.
            initial_rate_qps: 12_000.0,
            duration_s: 1.5,
            warmup_s: 1.0,
            ..base_config()
        })
        .unwrap()
        .run();
        // 8 servers × 1000 QPS = 8000 QPS aggregate; uniform load should
        // reach a large fraction of it.
        assert!(
            report.goodput_qps > 5_000.0,
            "goodput {} too low",
            report.goodput_qps
        );
        assert_eq!(report.cache_qps, 0.0);
    }

    #[test]
    fn skewed_nocache_collapses() {
        let uniform = RackSim::new(SimConfig {
            theta: 0.0,
            cache_items: 0,
            ..base_config()
        })
        .unwrap()
        .run();
        let skewed = RackSim::new(SimConfig {
            theta: 0.99,
            cache_items: 0,
            ..base_config()
        })
        .unwrap()
        .run();
        assert!(
            skewed.goodput_qps < uniform.goodput_qps * 0.75,
            "skew should hurt NoCache: {} vs {}",
            skewed.goodput_qps,
            uniform.goodput_qps
        );
    }

    #[test]
    fn cache_recovers_skewed_throughput() {
        let nocache = RackSim::new(SimConfig {
            theta: 0.99,
            cache_items: 0,
            ..base_config()
        })
        .unwrap()
        .run();
        let netcache = RackSim::new(SimConfig {
            theta: 0.99,
            cache_items: 100,
            initial_rate_qps: 10_000.0,
            ..base_config()
        })
        .unwrap()
        .run();
        assert!(
            netcache.goodput_qps > nocache.goodput_qps * 1.5,
            "cache should lift throughput: {} vs {}",
            netcache.goodput_qps,
            nocache.goodput_qps
        );
        assert!(netcache.hit_ratio > 0.3, "hit ratio {}", netcache.hit_ratio);
    }

    #[test]
    fn latency_flat_below_saturation() {
        let report = RackSim::new(SimConfig {
            theta: 0.0,
            cache_items: 0,
            fixed_rate_qps: Some(2_000.0),
            collect_latency: true,
            ..base_config()
        })
        .unwrap()
        .run();
        assert!(report.latency.samples > 10);
        // Near-idle: latency ≈ overhead + hops + service (1 ms service at
        // 1000 QPS scaled servers).
        assert!(
            report.latency.mean_ns < 3_000_000.0,
            "mean {}",
            report.latency.mean_ns
        );
    }

    #[test]
    fn csv_renderings_are_well_formed() {
        let report = RackSim::new(SimConfig {
            duration_s: 1.0,
            warmup_s: 0.0,
            ..base_config()
        })
        .unwrap()
        .run();
        let csv = report.per_second_csv();
        let mut lines = csv.lines();
        assert_eq!(
            lines.next(),
            Some("second,offered,delivered,cache_hits,drops")
        );
        for line in lines {
            assert_eq!(line.split(',').count(), 5, "bad row: {line}");
        }
        assert_eq!(report.summary_csv_row().split(',').count(), 6);
    }

    #[test]
    fn lossy_network_degrades_but_does_not_kill_goodput() {
        let clean = RackSim::new(base_config()).unwrap().run();
        let lossy = RackSim::new(SimConfig {
            faults: FaultConfig {
                loss: 0.05,
                duplicate: 0.02,
                reorder: 0.02,
                max_delay_ns: 50_000,
                seed: 0xc4a05,
            },
            ..base_config()
        })
        .unwrap()
        .run();
        assert_eq!(clean.faults, FaultStats::default());
        assert!(lossy.faults.dropped > 0, "{:?}", lossy.faults);
        assert!(lossy.faults.duplicated > 0, "{:?}", lossy.faults);
        assert!(
            lossy.goodput_qps > 0.0 && lossy.goodput_qps < clean.offered_qps,
            "lossy {} vs clean {}",
            lossy.goodput_qps,
            clean.offered_qps
        );
    }

    #[test]
    fn events_scheduled_in_the_past_fire_now() {
        let mut sim = RackSim::new(base_config()).unwrap();
        sim.schedule(10, Event::ScriptTick);
        assert_eq!(sim.pop().map(|(at, _)| at), Some(10));
        sim.schedule(5, Event::ScriptTick);
        assert_eq!(sim.pop().map(|(at, _)| at), Some(10), "clamped to now");
    }

    #[test]
    fn per_second_series_collected() {
        let report = RackSim::new(SimConfig {
            duration_s: 2.0,
            warmup_s: 0.0,
            ..base_config()
        })
        .unwrap()
        .run();
        assert!(report.per_second.len() >= 2, "{}", report.per_second.len());
    }
}
