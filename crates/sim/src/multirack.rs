//! Scale-out to multiple racks (§5 "Scaling to multiple racks"): a *real*
//! two-layer deployment in the DistCache direction.
//!
//! The paper simulates up to 4096 servers on 32 racks with read-only
//! workloads and compares three schemes (Fig. 10(f)): NoCache, Leaf-Cache
//! (each ToR caches the hottest keys *of its own rack*) and
//! Leaf-Spine-Cache (spine switches additionally cache the globally
//! hottest keys). Here the three schemes are cache sizes of one fabric —
//! `leaf_cache_items` and `spine_cache_items`, either or both of which may
//! be zero — and `netcache-bench`'s `scaleout` module measures them by
//! driving reads through it.
//!
//! [`MultiRack`] is a spine cache layer built from the *same*
//! [`NetCacheSwitch`] program and [`Controller`] control loop fronting N
//! in-process leaf racks (each a full [`netcache::Rack`], driven
//! directly: packets injected with [`Rack::execute_each`], clocks moved
//! with [`Rack::advance`]), with the three DistCache ingredients made
//! concrete:
//!
//! - **independent hash functions per layer** — keys map to leaf racks
//!   by one seeded [`Partitioner`] (`rack_seed`) and to spine switches
//!   by another (`spine_seed`), so a rack that homes many hot keys does
//!   not also congest a single spine;
//! - **power-of-two-choices routing** — a read of a spine-cached key
//!   goes to whichever of its two cache copies (owning leaf ToR, or
//!   spine) has received less traffic in the current window;
//! - **cross-rack hot-key aggregation** — every query that is not
//!   served by the spine cache crosses a spine switch, so the spine's
//!   Count-Min sketch observes the *global* miss stream and its
//!   controller's heavy-hitter reports pick the cluster-wide hottest
//!   keys, exactly how one rack's controller picks rack-hot keys.
//!
//! Coherence stays §4.3-fresh across both layers: a write through the
//! spine invalidates the spine copy in the data plane before it ever
//! reaches the leaf (the spine's `PutCached` rewrite is converted back
//! to a plain `Put` at the rack boundary so the leaf performs its own
//! invalidate-then-update dance), and spine entries are refreshed
//! write-around by the spine controller's repair pass. A dead leaf rack
//! is a network partition: its valid spine entries keep serving reads,
//! while writes to it die unacknowledged and the repair pass evicts the
//! entries it can no longer re-fetch.

use std::borrow::Cow;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;

use netcache::addressing::SERVER_IP_BASE;
use netcache::rack::DriveScratch;
use netcache::{
    Client, ClientCounters, FaultConfig, Link, Rack, RackError, RackHandle, ShardedHistogram,
    Synchronous,
};
use netcache_client::{ClientConfig, NetCacheClient};
use netcache_controller::{Controller, ControllerConfig, KeyHome, ServerBackend};
use netcache_dataplane::{NetCacheSwitch, PortId, SwitchConfig};
use netcache_proto::{Key, Op, Packet, Value};
use netcache_store::Partitioner;

use crate::rack_sim::{rack_config_for, SimConfig};

/// Odd 64-bit mixing constant (2⁶⁴/φ), used to derive per-rack and
/// per-spine seeds from the configuration seed.
const GOLDEN: u64 = 0x9e37_79b9_7f4a_7c15;

/// Configuration of a deployed [`MultiRack`].
#[derive(Debug, Clone)]
pub struct MultiRackConfig {
    /// Servers per rack (128 in the paper).
    pub servers_per_rack: u32,
    /// Distinct keys in the workload.
    pub num_keys: u64,
    /// Zipf skew (0.99 in the paper's Fig. 10(f)).
    pub theta: f64,
    /// Items cached per ToR switch (0 = no leaf cache).
    pub leaf_cache_items: usize,
    /// Items cached in the spine layer (globally hottest keys), summed
    /// over all spine switches in the deployment.
    pub spine_cache_items: usize,
    /// Intra-rack partitioner seed (key → server within its rack).
    pub partition_seed: u64,
    /// Leaf racks in the deployment.
    pub racks: u32,
    /// Spine switches in the deployment. `spine_cache_items == 0`
    /// disables the spine layer entirely (queries go straight to their
    /// owning rack), which is the Leaf-Cache scheme — and, with one rack,
    /// exactly a single-rack NetCache deployment.
    pub spines: u32,
    /// Client attachment points (each leaf rack and each spine exposes
    /// one port per client).
    pub clients: u32,
    /// Value size in bytes (≤ [`netcache_proto::MAX_VALUE_LEN`]).
    pub value_len: usize,
    /// Hash seed of the key → rack layer (independent of `spine_seed`).
    pub rack_seed: u64,
    /// Hash seed of the key → spine layer (independent of `rack_seed`).
    pub spine_seed: u64,
    /// Heavy-hitter threshold for every switch's statistics pipeline.
    pub hot_threshold: u16,
    /// Statistics sampling rate.
    pub sample_rate: f64,
    /// Replicas per intra-rack partition (chain replication; 1 = none).
    pub replication_factor: u32,
    /// Network fault model applied on every leaf rack's internal links
    /// (per-rack seeds are derived so racks do not mirror each other).
    pub faults: FaultConfig,
    /// Master seed (switch hashing, controller sampling, per-rack
    /// derivation).
    pub seed: u64,
}

impl Default for MultiRackConfig {
    fn default() -> Self {
        MultiRackConfig {
            servers_per_rack: 128,
            num_keys: 1_000_000,
            theta: 0.99,
            leaf_cache_items: 10_000,
            spine_cache_items: 10_000,
            partition_seed: 1,
            racks: 4,
            spines: 2,
            clients: 1,
            value_len: 64,
            rack_seed: 0x7261_636b,  // "rack"
            spine_seed: 0x7370_696e, // "spin"
            hot_threshold: 64,
            sample_rate: 1.0,
            replication_factor: 1,
            faults: FaultConfig::default(),
            seed: 0x5eed,
        }
    }
}

impl MultiRackConfig {
    /// Validates the configuration, with the same typed error the fabric
    /// layer gives [`netcache::RackConfig`]. Zero racks, spines, servers,
    /// clients or keys are rejected instead of producing an
    /// unconstructible fabric. A fabric with no cache in either layer is
    /// valid: it is the NoCache scheme.
    pub fn validate(&self) -> Result<(), RackError> {
        let err = |msg: String| Err(RackError::InvalidConfig(msg));
        if self.racks == 0 {
            return err("racks must be positive".into());
        }
        if self.spines == 0 {
            return err("spines must be positive".into());
        }
        if self.servers_per_rack == 0 {
            return err("servers_per_rack must be positive".into());
        }
        if self.clients == 0 {
            return err("clients must be positive".into());
        }
        if self.num_keys == 0 {
            return err("num_keys must be positive".into());
        }
        if !(self.theta.is_finite() && (0.0..1.0).contains(&self.theta)) {
            // The Zipf generator (YCSB parameterization) requires θ < 1.
            return err(format!("theta {} out of range [0, 1)", self.theta));
        }
        if self.value_len == 0 || self.value_len > netcache_proto::MAX_VALUE_LEN {
            return err(format!(
                "value_len {} out of range 1..={}",
                self.value_len,
                netcache_proto::MAX_VALUE_LEN
            ));
        }
        if self.replication_factor == 0 || self.replication_factor > self.servers_per_rack {
            return err(format!(
                "replication_factor {} out of range 1..={}",
                self.replication_factor, self.servers_per_rack
            ));
        }
        Ok(())
    }
}

/// One spine switch and its controller. The switch runs the same compiled
/// NetCache program as a ToR: ports `0..racks` are downlinks (one per
/// leaf rack, routed by the rack's aggregate IP), ports `racks..` are
/// client uplinks.
struct Spine {
    switch: NetCacheSwitch,
    controller: Controller,
}

/// Mutable routing state, behind one mutex: the spine layer, the
/// liveness flags and the power-of-two-choices window counters. The
/// deployment is single-threaded (virtual time); the mutex only provides
/// `&self` interior mutability for the client handles.
struct ScaleState {
    spines: Vec<Spine>,
    /// Per-rack network-partition flags ([`MultiRack::kill_rack`]).
    killed: Vec<bool>,
    /// Queries routed into each rack since the last controller cycle
    /// (the p2c decision window).
    tor_window: Vec<u64>,
    /// Queries processed by each spine switch since the last cycle.
    spine_window: Vec<u64>,
    /// Cumulative queries into each rack (every one crosses its ToR).
    tor_loads: Vec<u64>,
    /// Cumulative queries processed by each spine switch.
    spine_loads: Vec<u64>,
    /// Reads served by a spine cache (never reached a rack).
    spine_hits: u64,
    /// Reads of spine-cached keys routed to the leaf copy by p2c.
    leaf_bypass: u64,
    /// Packets dropped at a dead rack's boundary.
    dead_drops: u64,
}

/// The deployed multi-rack fabric: a spine cache layer over N in-process
/// leaf racks, with independent per-layer hashing and p2c read routing.
pub struct MultiRack {
    config: MultiRackConfig,
    /// Key → owning leaf rack (layer-A hash).
    rack_hash: Partitioner,
    /// Key → spine switch (layer-B hash, independent seed).
    spine_hash: Partitioner,
    racks: Vec<Rack>,
    state: Mutex<ScaleState>,
    client_epochs: AtomicU32,
    counters: ClientCounters,
    op_latency: ShardedHistogram,
}

impl MultiRack {
    /// Builds and populates the fabric: every leaf rack assembled exactly
    /// as a standalone [`crate::RackSim`] rack would be (same switch
    /// program, seeds derived per rack), the dataset hash-distributed
    /// over racks, leaf caches pre-filled with each rack's hottest owned
    /// keys and spine caches with the globally hottest keys.
    pub fn new(config: MultiRackConfig) -> Result<Self, RackError> {
        config.validate()?;
        let rack_hash = Partitioner::new(config.racks, config.rack_seed);
        let spine_hash = Partitioner::new(config.spines, config.spine_seed);
        let racks = (0..config.racks)
            .map(|r| Rack::new(Self::leaf_config(&config, r)))
            .collect::<Result<Vec<_>, _>>()?;

        // Dataset: global key ids distributed to their owning rack, then
        // placed exactly as `FabricCore::load_dataset` places them inside
        // one rack (home server plus chain replicas, version 1).
        let factor = config.replication_factor.max(1);
        for id in 0..config.num_keys {
            let key = Key::from_u64(id);
            let rack = &racks[rack_hash.partition_of(&key) as usize];
            let home = rack.addressing().home_of(&key);
            for server in rack.addressing().chain_servers(home.server, factor) {
                rack.server(server)
                    .store()
                    .put(key, Value::for_item(id, config.value_len), 1);
            }
        }

        let spines = if config.spine_cache_items == 0 {
            Vec::new()
        } else {
            (0..config.spines)
                .map(|s| Self::build_spine(&config, rack_hash, s))
                .collect()
        };
        let mr = MultiRack {
            rack_hash,
            spine_hash,
            racks,
            state: Mutex::new(ScaleState {
                spines,
                killed: vec![false; config.racks as usize],
                tor_window: vec![0; config.racks as usize],
                spine_window: vec![0; config.spines as usize],
                tor_loads: vec![0; config.racks as usize],
                spine_loads: vec![0; config.spines as usize],
                spine_hits: 0,
                leaf_bypass: 0,
                dead_drops: 0,
            }),
            client_epochs: AtomicU32::new(0),
            counters: ClientCounters::default(),
            op_latency: ShardedHistogram::new(),
            config,
        };
        mr.populate();
        Ok(mr)
    }

    /// The leaf rack configuration for rack `r`: byte-identical to what a
    /// standalone [`crate::RackSim`] with the same workload parameters
    /// assembles (this is what the 1-rack differential test pins), with
    /// per-rack derived seeds so racks do not mirror each other.
    fn leaf_config(c: &MultiRackConfig, r: u32) -> netcache::RackConfig {
        let sim = SimConfig {
            servers: c.servers_per_rack,
            num_keys: c.num_keys,
            value_len: c.value_len,
            theta: c.theta,
            cache_items: c.leaf_cache_items,
            partition_seed: c.partition_seed,
            hot_threshold: c.hot_threshold,
            sample_rate: c.sample_rate,
            replication_factor: c.replication_factor,
            seed: c.seed ^ (r as u64).wrapping_mul(GOLDEN),
            ..SimConfig::default()
        };
        let mut rc = rack_config_for(&sim, true);
        rc.clients = c.clients;
        rc.faults = FaultConfig {
            seed: c.faults.seed ^ (r as u64).wrapping_mul(GOLDEN),
            ..c.faults.clone()
        };
        rc
    }

    /// Builds spine `s`: the NetCache switch program with one downlink
    /// route per rack and one uplink route per client, plus a controller
    /// whose topology maps a key to its owning *rack* (the spine's
    /// "server" is a whole leaf rack).
    fn build_spine(c: &MultiRackConfig, rack_hash: Partitioner, s: u32) -> Spine {
        let per_spine = c.spine_cache_items.div_ceil(c.spines as usize);
        let mut sw = SwitchConfig::spine(c.racks as usize, c.clients as usize, per_spine);
        sw.hot_threshold = c.hot_threshold;
        sw.sample_rate = c.sample_rate;
        sw.seed = c.seed ^ 0x0073_7069_6e65 ^ (s as u64).wrapping_mul(GOLDEN);
        let mut switch = NetCacheSwitch::new(sw.clone()).expect("spine switch config is valid");
        for r in 0..c.racks {
            switch.add_route(SERVER_IP_BASE + r, 32, r as PortId);
        }
        for j in 0..c.clients {
            switch.add_route(Self::client_ip(j), 32, (c.racks + j) as PortId);
        }
        let controller = Controller::new(
            ControllerConfig {
                cache_capacity: per_spine,
                stats_reset_interval_ns: 1_000_000_000,
                seed: c.seed ^ 0x6370_6c61_6e65 ^ (s as u64).wrapping_mul(GOLDEN), // "cplane"
                ..ControllerConfig::default()
            },
            sw.pipes,
            sw.value_stages,
            sw.value_slots,
            move |key| Self::spine_home(&rack_hash, key),
        );
        Spine { switch, controller }
    }

    /// The spine-layer home of a key: its owning leaf rack, addressed by
    /// the rack's aggregate IP on the spine's downlink port for that rack.
    fn spine_home(rack_hash: &Partitioner, key: &Key) -> KeyHome {
        let rack = rack_hash.partition_of(key);
        KeyHome {
            server: rack,
            server_ip: SERVER_IP_BASE + rack,
            egress_port: rack as u16,
            pipe: 0,
        }
    }

    /// Client `j`'s IP, shared by every layer's routing tables.
    fn client_ip(j: u32) -> u32 {
        netcache::addressing::CLIENT_IP_BASE + j + 1
    }

    /// Pre-fills both cache layers, hottest-first (the static workload's
    /// rank order is the key-id order, as in [`crate::RackSim`]): each
    /// leaf caches the hottest keys *it owns*, each spine the globally
    /// hottest keys hashed to it.
    fn populate(&self) {
        let c = &self.config;
        if c.leaf_cache_items > 0 {
            let mut per_rack: Vec<Vec<Key>> = vec![Vec::new(); c.racks as usize];
            let mut remaining = c.racks as usize;
            for id in 0..c.num_keys {
                if remaining == 0 {
                    break;
                }
                let key = Key::from_u64(id);
                let r = self.rack_hash.partition_of(&key) as usize;
                if per_rack[r].len() < c.leaf_cache_items {
                    per_rack[r].push(key);
                    if per_rack[r].len() == c.leaf_cache_items {
                        remaining -= 1;
                    }
                }
            }
            for (r, keys) in per_rack.into_iter().enumerate() {
                self.racks[r].populate_cache(keys);
            }
        }
        let mut st = self.state.lock().expect("state mutex");
        let ScaleState { spines, killed, .. } = &mut *st;
        if !spines.is_empty() {
            let per_spine = c.spine_cache_items.div_ceil(c.spines as usize);
            let mut per: Vec<Vec<Key>> = vec![Vec::new(); spines.len()];
            let mut remaining = spines.len();
            for id in 0..c.num_keys {
                if remaining == 0 {
                    break;
                }
                let key = Key::from_u64(id);
                let s = self.spine_hash.partition_of(&key) as usize;
                if per[s].len() < per_spine {
                    per[s].push(key);
                    if per[s].len() == per_spine {
                        remaining -= 1;
                    }
                }
            }
            for (s, keys) in per.into_iter().enumerate() {
                let spine = &mut spines[s];
                let mut backend = SpineBackend {
                    racks: &self.racks,
                    killed,
                    released: Vec::new(),
                };
                spine
                    .controller
                    .populate(&mut spine.switch, &mut backend, keys);
                // Population happens before traffic: nothing is blocked,
                // so no released packets need re-injection.
                debug_assert!(backend.released.is_empty());
            }
        }
    }

    /// The configuration this fabric was built from.
    pub fn config(&self) -> &MultiRackConfig {
        &self.config
    }

    /// Number of leaf racks.
    pub fn racks(&self) -> u32 {
        self.config.racks
    }

    /// Direct access to leaf rack `r` (tests, reports).
    pub fn leaf(&self, r: u32) -> &Rack {
        &self.racks[r as usize]
    }

    /// The leaf rack owning `key` under the layer-A hash.
    pub fn rack_of(&self, key: &Key) -> u32 {
        self.rack_hash.partition_of(key)
    }

    /// The spine switch serving `key` under the layer-B hash.
    pub fn spine_of(&self, key: &Key) -> u32 {
        self.spine_hash.partition_of(key)
    }

    /// Whether `key` is currently in its spine switch's cache (the spine
    /// controller's view). Always false when the spine layer is disabled.
    pub fn spine_is_cached(&self, key: &Key) -> bool {
        let st = self.state.lock().expect("state mutex");
        if st.spines.is_empty() {
            return false;
        }
        st.spines[self.spine_of(key) as usize]
            .controller
            .is_cached(key)
    }

    /// Current fabric virtual time (all rack clocks advance in lockstep).
    pub fn now(&self) -> u64 {
        self.racks[0].now()
    }

    /// Advances every rack's virtual clock (dead racks' clocks too: a
    /// partitioned rack keeps running, it just cannot be reached).
    pub fn advance(&self, ns: u64) {
        for rack in &self.racks {
            rack.advance(ns);
        }
    }

    /// Drives retransmission timers and matured delayed traffic on every
    /// reachable rack; returns client-bound packets.
    pub fn tick(&self) -> Vec<(u32, Packet)> {
        let st = self.state.lock().expect("state mutex");
        let mut out = Vec::new();
        for (r, rack) in self.racks.iter().enumerate() {
            if st.killed[r] {
                continue;
            }
            out.extend(rack.tick());
        }
        out
    }

    /// Partitions rack `r` from the fabric: every packet to or from it is
    /// dropped at the boundary. The rack's internal state (stores, switch
    /// cache, clocks) stays intact — this is a network/power-domain
    /// failure of a whole rack, not 128 disk losses. Valid spine entries
    /// for its keys keep serving reads §4.3-fresh; writes to it die
    /// unacknowledged, and the spine repair pass evicts entries it can no
    /// longer re-fetch.
    pub fn kill_rack(&self, r: u32) {
        self.state.lock().expect("state mutex").killed[r as usize] = true;
    }

    /// Reconnects rack `r`. Its state is exactly as the partition left it
    /// (unreachable-side writes were never applied anywhere).
    pub fn restart_rack(&self, r: u32) {
        self.state.lock().expect("state mutex").killed[r as usize] = false;
    }

    /// Whether rack `r` is currently partitioned off.
    pub fn is_killed(&self, r: u32) -> bool {
        self.state.lock().expect("state mutex").killed[r as usize]
    }

    /// Runs one control-plane cycle across the whole fabric: every
    /// reachable leaf rack's controller (heavy-hitter intake, repairs),
    /// then every spine controller against its own switch — the spine's
    /// sketch has been observing the global miss stream, so this is where
    /// cross-rack hot-key aggregation lands. Resets the p2c windows.
    /// Returns client-bound packets produced by writes the cycles
    /// released.
    pub fn run_controller(&self) -> Vec<(u32, Packet)> {
        let mut out = Vec::new();
        let mut st = self.state.lock().expect("state mutex");
        for (r, rack) in self.racks.iter().enumerate() {
            if st.killed[r] {
                continue;
            }
            out.extend(rack.run_controller());
        }
        let now = self.now();
        let mut released = Vec::new();
        {
            let ScaleState { spines, killed, .. } = &mut *st;
            for spine in spines.iter_mut() {
                let mut backend = SpineBackend {
                    racks: &self.racks,
                    killed,
                    released: Vec::new(),
                };
                spine
                    .controller
                    .run_cycle(&mut spine.switch, &mut backend, now);
                released.append(&mut backend.released);
            }
        }
        // Writes released by spine-side unlocks re-enter their leaf
        // rack's network at the owning server's port.
        for (r, port, pkt) in released {
            if st.killed[r as usize] {
                st.dead_drops += 1;
                continue;
            }
            out.extend(self.racks[r as usize].execute(pkt, port));
        }
        st.tor_window.fill(0);
        st.spine_window.fill(0);
        out
    }

    /// Fabric-wide client retry/stale/abandoned counters.
    pub fn client_counters(&self) -> &ClientCounters {
        &self.counters
    }

    /// A synchronous client handle on client attachment `j`.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    pub fn client(&self, j: u32) -> MultiRackClient<'_> {
        assert!(j < self.config.clients, "client index out of range");
        let mut client = NetCacheClient::new(ClientConfig {
            client_id: (j + 1) as u8,
            ip: Self::client_ip(j),
            partitions: self.config.racks,
            partition_seed: self.config.rack_seed,
            server_ip_base: SERVER_IP_BASE,
        });
        let epoch = self.client_epochs.fetch_add(1, Ordering::Relaxed);
        client.start_seq_at(epoch.wrapping_shl(24) | 1);
        let link = MultiRackLink {
            mr: self,
            index: j,
            scratch: DriveScratch::default(),
        };
        Client::new(link, client)
    }

    /// Routes one client packet through the fabric, handing each reply
    /// destined for client `j` to `reply`. `scratch` is the caller's
    /// forwarding buffers for the leaf racks (one set serves every rack).
    ///
    /// Reads of spine-cached keys pick the less-loaded of the key's two
    /// cache copies (p2c between the owning leaf ToR and the spine);
    /// everything else — all writes, reads of uncached keys — crosses the
    /// key's spine switch, feeding its heavy-hitter sketch and keeping
    /// spine copies coherent on writes.
    fn route(
        &self,
        scratch: &mut DriveScratch,
        pkt: Packet,
        j: u32,
        mut reply: impl FnMut(Packet),
    ) {
        let mut st = self.state.lock().expect("state mutex");
        let key = pkt.netcache.key;
        let r = self.rack_hash.partition_of(&key);
        if st.spines.is_empty() {
            return self.deliver_to_rack(&mut st, scratch, r, pkt, j, reply);
        }
        let s = self.spine_of(&key) as usize;
        if pkt.netcache.op == Op::Get && st.spines[s].controller.is_cached(&key) {
            // Two cached copies exist; power-of-two-choices between them.
            // The comparison is deliberately asymmetric: the leaf choice
            // costs a crossing of the key's home ToR, which carries *all*
            // of its rack's traffic, so the ToR window counts every
            // delivery; the spine choice costs one cache lookup on spine
            // `s`, so the spine window counts only queries the spine
            // cache serves — pass-through traffic rides the forwarding
            // pipeline and does not consume serving capacity. Counting
            // pass-through on the spine side would make every tail miss
            // inflate the spine window and steer hot reads back onto an
            // already-overloaded home ToR, which is exactly the hotspot
            // the spine layer exists to absorb.
            if st.tor_window[r as usize] < st.spine_window[s] {
                st.leaf_bypass += 1;
                return self.deliver_to_rack(&mut st, scratch, r, pkt, j, reply);
            }
            st.spine_window[s] += 1;
        }
        st.spine_loads[s] += 1;
        let out = st.spines[s]
            .switch
            .process(pkt, (self.config.racks + j) as PortId);
        let Some((port, mut out)) = out else {
            return;
        };
        if (port as u32) < self.config.racks {
            // Forwarded down to a leaf rack. The spine already
            // invalidated its own copy and rewrote the op to the
            // cached-write marker; the leaf must see the plain client
            // op so *its* copy is invalidated and its own §4.3 update
            // dance runs (the spine copy is repaired write-around by
            // the spine controller instead).
            match out.netcache.op {
                Op::PutCached => out.netcache.op = Op::Put,
                Op::DeleteCached => out.netcache.op = Op::Delete,
                _ => {}
            }
            self.deliver_to_rack(&mut st, scratch, port as u32, out, j, reply);
        } else {
            // Uplink: served by the spine cache.
            if out.netcache.op == Op::GetReplyHit {
                st.spine_hits += 1;
            }
            reply(out);
        }
    }

    /// Delivers one query into leaf rack `r` (the ToR crossing): rewrites
    /// the destination to the key's home server inside the rack — the
    /// only packet field the inter-rack layer addresses differently — and
    /// runs the rack's forwarding loop. Dead racks drop at the boundary.
    fn deliver_to_rack(
        &self,
        st: &mut ScaleState,
        scratch: &mut DriveScratch,
        r: u32,
        mut pkt: Packet,
        j: u32,
        mut reply: impl FnMut(Packet),
    ) {
        st.tor_window[r as usize] += 1;
        st.tor_loads[r as usize] += 1;
        if st.killed[r as usize] {
            st.dead_drops += 1;
            return;
        }
        let rack = &self.racks[r as usize];
        let home = rack.addressing().home_of(&pkt.netcache.key);
        pkt.ipv4.dst = home.server_ip;
        rack.execute_each(scratch, pkt, rack.addressing().client_port(j), |idx, p| {
            if idx == j {
                reply(p);
            }
        });
    }

    /// Snapshot of the fabric's load distribution and routing counters.
    pub fn report(&self) -> MultiRackReport {
        let st = self.state.lock().expect("state mutex");
        let mut server_loads = Vec::new();
        let mut leaf_hits = 0;
        let mut leaf_cached = 0;
        for rack in &self.racks {
            for i in 0..self.config.servers_per_rack {
                let s = rack.server_stats(i);
                server_loads.push(s.gets + s.puts + s.deletes);
            }
            leaf_hits += rack.switch_stats().cache_hits;
            leaf_cached += rack.cached_keys();
        }
        let spine_cached = st
            .spines
            .iter()
            .map(|s| s.controller.cached_keys())
            .sum::<usize>();
        MultiRackReport {
            racks: self.config.racks,
            spines: st.spines.len() as u32,
            dead_racks: st.killed.iter().filter(|&&k| k).count() as u32,
            tor_loads: st.tor_loads.clone(),
            spine_loads: st.spine_loads.clone(),
            server_loads,
            spine_hits: st.spine_hits,
            leaf_hits,
            leaf_bypass: st.leaf_bypass,
            dead_drops: st.dead_drops,
            leaf_cached_keys: leaf_cached,
            spine_cached_keys: spine_cached,
            client_retries: self.counters.retries(),
            client_abandoned: self.counters.abandoned(),
        }
    }
}

impl core::fmt::Debug for MultiRack {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("MultiRack")
            .field("racks", &self.config.racks)
            .field("spines", &self.config.spines)
            .finish_non_exhaustive()
    }
}

/// The spine controller's view of the leaf racks: "fetch from the home
/// server" becomes "fetch from the key's home server inside its owning
/// rack", write locks land on the same leaf server agents the rack's own
/// controller uses, and a partitioned rack answers nothing (so the spine
/// repair pass evicts what it cannot re-fetch, and chain-style repair
/// sees the rack as dead).
struct SpineBackend<'a> {
    racks: &'a [Rack],
    killed: &'a [bool],
    /// Write packets released by unlocks: `(rack, ingress_port, packet)`,
    /// re-injected by the caller after the controller releases its locks.
    released: Vec<(u32, PortId, Packet)>,
}

impl SpineBackend<'_> {
    /// The leaf-rack-internal home of `key` within rack `home.server`,
    /// or `None` if that rack is partitioned off.
    fn inner_home(&self, home: &KeyHome, key: &Key) -> Option<(u32, KeyHome)> {
        let r = home.server;
        if self.killed[r as usize] {
            return None;
        }
        Some((r, self.racks[r as usize].addressing().home_of(key)))
    }
}

impl ServerBackend for SpineBackend<'_> {
    fn fetch(&mut self, home: &KeyHome, key: &Key) -> Option<(Value, u32)> {
        let (r, inner) = self.inner_home(home, key)?;
        self.racks[r as usize]
            .server(inner.server)
            .fetch(key)
            .map(|item| (item.value, item.version))
    }

    fn lock_writes(&mut self, home: &KeyHome, key: Key) {
        if let Some((r, inner)) = self.inner_home(home, &key) {
            self.racks[r as usize]
                .server(inner.server)
                .controller_lock(key);
        }
    }

    fn unlock_writes(&mut self, home: &KeyHome, key: Key) {
        if let Some((r, inner)) = self.inner_home(home, &key) {
            let rack = &self.racks[r as usize];
            let released = rack.server(inner.server).controller_unlock(key, rack.now());
            self.released
                .extend(released.into_iter().map(|p| (r, inner.egress_port, p)));
        }
    }

    // `mark_cached`/`unmark_cached` stay no-ops: the leaf agent's cached
    // mark drives *leaf-switch* data-plane updates; spine copies are
    // deliberately write-around (invalidated by the write in the spine's
    // data plane, refreshed by the spine controller's repair pass).

    fn is_alive(&mut self, server: u32) -> bool {
        !self.killed[server as usize]
    }
}

/// The inter-rack client attachment: transmitting routes the packet
/// through the spine layer and the leaf racks synchronously; waiting
/// advances the fabric clock and fires retransmission timers.
pub struct MultiRackLink<'a> {
    mr: &'a MultiRack,
    index: u32,
    /// The leaf racks' forwarding buffers, reused by every request.
    scratch: DriveScratch,
}

impl Link for MultiRackLink<'_> {
    fn transmit(&mut self, pkt: Cow<'_, Packet>, reply: impl FnMut(Packet)) {
        self.mr
            .route(&mut self.scratch, pkt.into_owned(), self.index, reply);
    }

    fn wait(&mut self, timeout_ns: u64, _want_seq: u32, mut reply: impl FnMut(Packet)) {
        self.mr.advance(timeout_ns);
        for (j, pkt) in self.mr.tick() {
            if j == self.index {
                reply(pkt);
            }
        }
    }

    fn counters(&self) -> &ClientCounters {
        &self.mr.counters
    }

    fn op_latency(&self) -> &ShardedHistogram {
        &self.mr.op_latency
    }
}

impl Synchronous for MultiRackLink<'_> {}

/// A synchronous client over the whole fabric, the same [`Client`] as
/// [`netcache::RackClient`]: builds a query, routes it through the
/// two-layer fabric, and matches the reply by sequence number.
pub type MultiRackClient<'a> = Client<MultiRackLink<'a>>;

/// Load-distribution snapshot of a deployed [`MultiRack`], the scale-out
/// analogue of [`netcache::RackReport`]. Serialized as
/// `netcache-multirack-report/v1`.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiRackReport {
    /// Leaf racks in the fabric.
    pub racks: u32,
    /// Spine switches (0 when the spine layer is disabled).
    pub spines: u32,
    /// Racks currently partitioned off.
    pub dead_racks: u32,
    /// Cumulative queries into each rack (every one crosses its ToR).
    pub tor_loads: Vec<u64>,
    /// Cumulative queries processed by each spine switch.
    pub spine_loads: Vec<u64>,
    /// Queries served by each server, flattened rack-major.
    pub server_loads: Vec<u64>,
    /// Reads served by a spine cache (never entered a rack).
    pub spine_hits: u64,
    /// Reads served by a leaf ToR cache.
    pub leaf_hits: u64,
    /// Reads of spine-cached keys that p2c routed to the leaf copy.
    pub leaf_bypass: u64,
    /// Packets dropped at a dead rack's boundary.
    pub dead_drops: u64,
    /// Keys cached across all leaf switches.
    pub leaf_cached_keys: usize,
    /// Keys cached across all spine switches.
    pub spine_cached_keys: usize,
    /// Client retransmissions (retry-path clients).
    pub client_retries: u64,
    /// Client requests abandoned after the retry budget.
    pub client_abandoned: u64,
}

impl MultiRackReport {
    /// Max-over-mean load imbalance across ToRs — the DistCache headline
    /// metric (1.0 = perfectly balanced; 0.0 when no load was routed).
    pub fn tor_imbalance(&self) -> f64 {
        netcache::metrics::load_imbalance_of(&self.tor_loads)
    }

    /// Max-over-mean load imbalance across spine switches.
    pub fn spine_imbalance(&self) -> f64 {
        netcache::metrics::load_imbalance_of(&self.spine_loads)
    }

    /// Max-over-mean load imbalance across all servers in the fabric.
    pub fn server_imbalance(&self) -> f64 {
        netcache::metrics::load_imbalance_of(&self.server_loads)
    }

    /// Renders the report as stable JSON (`netcache-multirack-report/v1`).
    pub fn to_json(&self) -> String {
        use netcache::json::fmt_f64;
        let nums = |v: &[u64]| {
            v.iter()
                .map(|n| n.to_string())
                .collect::<Vec<_>>()
                .join(",")
        };
        format!(
            concat!(
                "{{\"schema\":\"netcache-multirack-report/v1\",",
                "\"racks\":{},\"spines\":{},\"dead_racks\":{},",
                "\"tor_loads\":[{}],\"tor_imbalance\":{},",
                "\"spine_loads\":[{}],\"spine_imbalance\":{},",
                "\"server_loads\":[{}],\"server_imbalance\":{},",
                "\"spine_hits\":{},\"leaf_hits\":{},\"leaf_bypass\":{},",
                "\"dead_drops\":{},\"leaf_cached_keys\":{},",
                "\"spine_cached_keys\":{},\"client_retries\":{},",
                "\"client_abandoned\":{}}}"
            ),
            self.racks,
            self.spines,
            self.dead_racks,
            nums(&self.tor_loads),
            fmt_f64(self.tor_imbalance()),
            nums(&self.spine_loads),
            fmt_f64(self.spine_imbalance()),
            nums(&self.server_loads),
            fmt_f64(self.server_imbalance()),
            self.spine_hits,
            self.leaf_hits,
            self.leaf_bypass,
            self.dead_drops,
            self.leaf_cached_keys,
            self.spine_cached_keys,
            self.client_retries,
            self.client_abandoned,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netcache_client::Response;

    #[test]
    fn invalid_configs_are_typed_errors() {
        for broken in [
            MultiRackConfig {
                racks: 0,
                ..MultiRackConfig::default()
            },
            MultiRackConfig {
                spines: 0,
                ..MultiRackConfig::default()
            },
            MultiRackConfig {
                servers_per_rack: 0,
                ..MultiRackConfig::default()
            },
            MultiRackConfig {
                num_keys: 0,
                ..MultiRackConfig::default()
            },
            MultiRackConfig {
                theta: f64::NAN,
                ..MultiRackConfig::default()
            },
            MultiRackConfig {
                value_len: 0,
                ..MultiRackConfig::default()
            },
        ] {
            match MultiRack::new(broken.clone()) {
                Err(RackError::InvalidConfig(_)) => {}
                Err(other) => panic!("expected InvalidConfig for {broken:?}, got {other:?}"),
                Ok(mr) => panic!("expected InvalidConfig for {broken:?}, built {mr:?}"),
            }
        }
    }

    fn small_config() -> MultiRackConfig {
        MultiRackConfig {
            servers_per_rack: 4,
            num_keys: 400,
            leaf_cache_items: 16,
            spine_cache_items: 16,
            racks: 3,
            spines: 2,
            value_len: 32,
            ..MultiRackConfig::default()
        }
    }

    #[test]
    fn deployment_serves_reads_and_writes_everywhere() {
        let mr = MultiRack::new(small_config()).unwrap();
        let mut c = mr.client(0);
        for id in [0u64, 17, 133, 399] {
            let resp = c.get(Key::from_u64(id)).expect("reply");
            assert_eq!(resp.value().expect("value"), &Value::for_item(id, 32));
        }
        let k = Key::from_u64(42);
        let resp = c.put(k, Value::filled(0xaa, 32)).expect("ack");
        assert!(matches!(resp.response(), Response::PutAck { .. }));
        let resp = c.get(k).expect("reply");
        assert_eq!(resp.value().expect("value"), &Value::filled(0xaa, 32));
    }

    #[test]
    fn cacheless_fabric_serves_every_read_from_servers() {
        // The NoCache scheme: no cache in either layer.
        let mr = MultiRack::new(MultiRackConfig {
            leaf_cache_items: 0,
            spine_cache_items: 0,
            ..small_config()
        })
        .unwrap();
        let mut c = mr.client(0);
        for id in 0..mr.config().num_keys {
            let resp = c.get(Key::from_u64(id)).expect("reply");
            assert!(!resp.served_by_cache());
            assert_eq!(resp.value().expect("value"), &Value::for_item(id, 32));
        }
        let report = mr.report();
        assert_eq!((report.spine_hits, report.leaf_hits), (0, 0), "{report:?}");
        assert_eq!(
            report.server_loads.iter().sum::<u64>(),
            mr.config().num_keys
        );
    }

    #[test]
    fn spine_serves_globally_hot_reads() {
        let mr = MultiRack::new(small_config()).unwrap();
        let mut c = mr.client(0);
        // Key 0 is globally hottest → populated in both layers. The first
        // read (fresh p2c windows: 0 < 0 is false) goes through the spine.
        assert!(mr.spine_is_cached(&Key::from_u64(0)));
        let resp = c.get(Key::from_u64(0)).expect("reply");
        assert!(resp.served_by_cache());
        assert!(mr.report().spine_hits >= 1);
    }

    #[test]
    fn p2c_splits_reads_between_the_two_copies() {
        let mr = MultiRack::new(small_config()).unwrap();
        let mut c = mr.client(0);
        for _ in 0..40 {
            c.get(Key::from_u64(0)).expect("reply");
        }
        let report = mr.report();
        assert!(report.spine_hits > 0, "{report:?}");
        assert!(report.leaf_bypass > 0, "{report:?}");
    }

    #[test]
    fn writes_keep_both_layers_fresh() {
        let mr = MultiRack::new(small_config()).unwrap();
        let k = Key::from_u64(0);
        let mut c = mr.client(0);
        c.put(k, Value::filled(0xbb, 32)).expect("ack");
        // The spine copy was invalidated by the write; until repaired,
        // reads fall through to the (coherent) leaf. Never stale:
        for _ in 0..8 {
            let resp = c.get(k).expect("reply");
            assert_eq!(resp.value().expect("value"), &Value::filled(0xbb, 32));
        }
        // The spine controller's repair pass refreshes its copy.
        mr.run_controller();
        let before = mr.report().spine_hits;
        let resp = c.get(k).expect("reply");
        assert!(resp.served_by_cache());
        assert_eq!(resp.value().expect("value"), &Value::filled(0xbb, 32));
        assert_eq!(mr.report().spine_hits, before + 1, "repair missed");
    }

    #[test]
    fn dead_rack_keeps_spine_cached_reads_alive() {
        let mr = MultiRack::new(small_config()).unwrap();
        let k = Key::from_u64(0);
        let victim = mr.rack_of(&k);
        mr.kill_rack(victim);
        let mut c = mr.client(0);
        // Spine copy still serves (fresh: nothing wrote it since).
        let resp = c.get(k).expect("spine must serve");
        assert!(resp.served_by_cache());
        // An uncached key of the dead rack is unreachable.
        let uncached = (0..mr.config().num_keys)
            .map(Key::from_u64)
            .find(|key| mr.rack_of(key) == victim && !mr.spine_is_cached(key))
            .expect("some uncached key in the victim rack");
        assert!(c.get(uncached).is_none());
        assert!(mr.report().dead_drops > 0);
        // Reconnect: everything serves again.
        mr.restart_rack(victim);
        assert!(c.get(uncached).is_some());
    }

    #[test]
    fn spine_layer_aggregates_hot_keys_across_racks() {
        // Start with an empty spine (capacity but no pre-population
        // overlap): hammer one tail key from the workload and check the
        // spine controller learns it from its own sketch.
        let mut config = small_config();
        config.hot_threshold = 8;
        let mr = MultiRack::new(config).unwrap();
        let hot = Key::from_u64(399); // cold enough to be uncached anywhere
        assert!(!mr.spine_is_cached(&hot));
        let mut c = mr.client(0);
        for _ in 0..60 {
            c.get(hot).expect("reply");
        }
        mr.advance(1_000_000);
        mr.run_controller();
        assert!(
            mr.spine_is_cached(&hot),
            "spine controller must learn the global heavy hitter"
        );
        let before = mr.report().spine_hits;
        assert!(c.get(hot).expect("reply").served_by_cache());
        assert_eq!(mr.report().spine_hits, before + 1);
    }

    #[test]
    fn report_json_is_schema_tagged() {
        let mr = MultiRack::new(small_config()).unwrap();
        let mut c = mr.client(0);
        c.get(Key::from_u64(1)).expect("reply");
        let json = mr.report().to_json();
        assert!(json.starts_with("{\"schema\":\"netcache-multirack-report/v1\""));
        netcache::Json::parse(&json).expect("well-formed JSON");
    }
}
