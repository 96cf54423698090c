//! Deployment-independent rack assembly and control-plane glue.
//!
//! [`FabricCore`] owns everything all three deployments used to build
//! separately: the compiled switch program with its routes, the server
//! agents, the controller, the fault model, the shared client-side
//! counters, and the latency histograms. A transport driver (`Rack`,
//! `UdpRack`, `RackSim`) embeds one core and contributes only packet
//! movement and a notion of time.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use netcache_client::{ClientConfig, NetCacheClient};
use netcache_controller::{
    ChainManager, Controller, ControllerStats, KeyHome, NodeAddr, ServerBackend,
};
use netcache_dataplane::{NetCacheSwitch, PortId, SwitchStats};
use netcache_proto::{Key, Packet, Value};
use netcache_server::{AgentConfig, ServerAgent, ServerStats};
use parking_lot::{Mutex, RwLock};

use crate::addressing::{Addressing, SWITCH_IP};
use crate::config::RackConfig;
use crate::fabric::client::ClientCounters;
use crate::fabric::error::RackError;
use crate::fault::NetworkModel;
use crate::hist::{Histogram, ShardedHistogram};
use crate::runtime::{TransportCounters, TransportStats};

/// Server-agent retransmission timing, the one assembly knob that differs
/// per transport (virtual-time racks tick fast; loopback UDP gives the
/// kernel headroom).
#[derive(Debug, Clone, Copy)]
pub struct AgentTiming {
    /// Nanoseconds between cache-update retransmissions.
    pub update_retry_timeout_ns: u64,
    /// Retransmissions before an update is abandoned.
    pub update_max_retries: u32,
}

impl AgentTiming {
    /// Virtual-time deployments: the retry timeout comes from the rack
    /// configuration and is driven by explicit ticks.
    pub fn in_process(update_retry_timeout_ns: u64) -> Self {
        AgentTiming {
            update_retry_timeout_ns,
            update_max_retries: 5,
        }
    }

    /// Loopback UDP: 5 ms between retransmissions, 10 attempts — sized for
    /// a kernel-scheduled network that can stall for milliseconds.
    pub fn loopback() -> Self {
        AgentTiming {
            update_retry_timeout_ns: 5_000_000,
            update_max_retries: 10,
        }
    }
}

/// The deployment-independent heart of a rack: switch + agents +
/// controller + fault model + shared client accounting, assembled from a
/// [`RackConfig`].
pub struct FabricCore {
    pub(crate) config: RackConfig,
    pub(crate) addressing: Addressing,
    /// Read lock = data-plane forwarding (concurrent, per-pipe serialized
    /// inside the switch); write lock = control plane (exclusive).
    pub(crate) switch: RwLock<NetCacheSwitch>,
    pub(crate) servers: Vec<Arc<ServerAgent>>,
    pub(crate) controller: Mutex<Controller>,
    pub(crate) faults: NetworkModel,
    /// Client instances created so far; numbers sequence-number epochs
    /// (see [`FabricCore::make_client`]).
    client_epochs: AtomicU32,
    /// Rack-wide client retry/stale/abandoned accounting.
    pub(crate) counters: ClientCounters,
    /// End-to-end per-operation client latency (wall clock, ns; a retried
    /// request contributes one sample covering all its attempts).
    /// Per-thread shards: recording must not re-serialize parallel drives.
    pub(crate) op_latency: ShardedHistogram,
    /// Switch service time per ingress packet (wall clock, ns).
    pub(crate) switch_latency: ShardedHistogram,
    /// Server service time per delivered packet (wall clock, ns).
    pub(crate) server_latency: ShardedHistogram,
    /// Socket-transport I/O accounting (syscalls, datagrams, batch
    /// occupancy). Zero for deployments that move packets without
    /// sockets (in-process rack, simulator).
    pub(crate) transport: TransportCounters,
}

impl FabricCore {
    /// Assembles the rack: switch program compiled, routes installed,
    /// server agents started, controller initialized.
    pub fn new(config: RackConfig, timing: AgentTiming) -> Result<Self, RackError> {
        config.validate()?;
        let addressing = Addressing::new(
            config.servers,
            config.clients,
            config.partition_seed,
            &config.switch,
        );
        let mut switch = NetCacheSwitch::new(config.switch.clone()).map_err(RackError::Switch)?;
        // L3 routes: one host route per server and per client port.
        for i in 0..config.servers {
            switch.add_route(addressing.server_ip(i), 32, addressing.server_port(i));
        }
        for j in 0..config.clients {
            switch.add_route(addressing.client_ip(j), 32, addressing.client_port(j));
        }
        let servers: Vec<Arc<ServerAgent>> = (0..config.servers)
            .map(|i| {
                Arc::new(ServerAgent::new(AgentConfig {
                    ip: addressing.server_ip(i),
                    switch_ip: SWITCH_IP,
                    shards: config.shards_per_server,
                    update_retry_timeout_ns: timing.update_retry_timeout_ns,
                    update_max_retries: timing.update_max_retries,
                    dataplane_updates: config.dataplane_updates,
                }))
            })
            .collect();
        let topo = addressing.clone();
        let mut controller = Controller::new(
            config.controller.clone(),
            config.switch.pipes,
            config.switch.value_stages,
            config.switch.value_slots,
            move |key| topo.home_of(key),
        );
        if config.replication_factor > 1 {
            controller.enable_replication(ChainManager::new(
                config.replication_factor,
                Self::node_addrs(&addressing),
            ));
            controller.install_chains(&mut switch);
        }
        Ok(FabricCore {
            addressing,
            switch: RwLock::new(switch),
            servers,
            controller: Mutex::new(controller),
            faults: NetworkModel::new(config.faults.clone()),
            client_epochs: AtomicU32::new(0),
            counters: ClientCounters::default(),
            op_latency: ShardedHistogram::new(),
            switch_latency: ShardedHistogram::new(),
            server_latency: ShardedHistogram::new(),
            transport: TransportCounters::default(),
            config,
        })
    }

    /// One [`NodeAddr`] per server, for the chain manager.
    fn node_addrs(addressing: &Addressing) -> Vec<NodeAddr> {
        (0..addressing.servers())
            .map(|i| {
                let port = addressing.server_port(i);
                NodeAddr {
                    ip: addressing.server_ip(i),
                    port,
                    pipe: addressing.pipe_of_port(port),
                }
            })
            .collect()
    }

    /// The rack configuration.
    pub fn config(&self) -> &RackConfig {
        &self.config
    }

    /// The rack addressing plan.
    pub fn addressing(&self) -> &Addressing {
        &self.addressing
    }

    /// The network fault model (scripted drops + seeded probabilistic
    /// faults).
    pub fn faults(&self) -> &NetworkModel {
        &self.faults
    }

    /// Rack-wide client-side retry/stale/abandoned counters.
    pub fn counters(&self) -> &ClientCounters {
        &self.counters
    }

    /// Switch data-plane counters.
    pub fn switch_stats(&self) -> SwitchStats {
        self.switch.read().stats()
    }

    /// Server agent counters.
    pub fn server_stats(&self, i: u32) -> ServerStats {
        self.servers[i as usize].stats()
    }

    /// Controller counters.
    pub fn controller_stats(&self) -> ControllerStats {
        self.controller.lock().stats()
    }

    /// Number of keys currently in the switch cache.
    pub fn cached_keys(&self) -> usize {
        self.switch.read().cached_keys()
    }

    /// Whether `key` is currently cached (controller's view).
    pub fn is_cached(&self, key: &Key) -> bool {
        self.controller.lock().is_cached(key)
    }

    /// Direct access to a server agent (tests, simulator).
    pub fn server(&self, i: u32) -> &Arc<ServerAgent> {
        &self.servers[i as usize]
    }

    /// Exclusive (write-locked) access to the switch — the serial wrapper
    /// used by tests, the single-threaded simulator, and the resource
    /// report. Excludes all concurrent forwarding.
    pub fn with_switch<T>(&self, f: impl FnOnce(&mut NetCacheSwitch) -> T) -> T {
        f(&mut self.switch.write())
    }

    /// Locked access to the controller (tests, simulator).
    pub fn with_controller<T>(&self, f: impl FnOnce(&mut Controller) -> T) -> T {
        f(&mut self.controller.lock())
    }

    /// Snapshot of the end-to-end per-operation client latency
    /// distribution (wall clock, ns; merged across recording threads).
    pub fn op_latency(&self) -> Histogram {
        self.op_latency.snapshot()
    }

    /// The live op-latency histogram clients record into (what a
    /// deployment's [`crate::fabric::Link::op_latency`] returns).
    pub fn op_latency_recorder(&self) -> &ShardedHistogram {
        &self.op_latency
    }

    /// Snapshot of the switch per-packet service-time distribution.
    pub fn switch_service(&self) -> Histogram {
        self.switch_latency.snapshot()
    }

    /// Snapshot of the server per-packet service-time distribution.
    pub fn server_service(&self) -> Histogram {
        self.server_latency.snapshot()
    }

    /// The socket-transport I/O counters (live; socket deployments record
    /// into these from every worker, agent and client).
    pub fn transport(&self) -> &TransportCounters {
        &self.transport
    }

    /// Snapshot of the socket-transport syscall/datagram counters.
    pub fn transport_stats(&self) -> TransportStats {
        self.transport.snapshot()
    }

    /// Snapshot of the receive batch-occupancy distribution.
    pub fn batch_occupancy(&self) -> Histogram {
        self.transport.occupancy()
    }

    /// Loads `num_keys` items of `value_len` bytes directly into the
    /// stores (dataset setup, bypassing the protocol), with key ids
    /// `0..num_keys` and deterministic per-key values.
    pub fn load_dataset(&self, num_keys: u64, value_len: usize) {
        self.load_dataset_with(num_keys, |_| value_len);
    }

    /// Like [`FabricCore::load_dataset`] but with a per-key logical
    /// payload length. Lengths up to [`netcache_proto::MAX_VALUE_LEN`]
    /// are stored as one plain item under the base key; longer payloads
    /// are stored in the §2 chunked layout (manifest chunk under the base
    /// key, continuations under derived chunk keys), exactly as
    /// [`crate::fabric::Client::put_large`] would write them.
    pub fn load_dataset_with(&self, num_keys: u64, len_of: impl Fn(u64) -> usize) {
        let factor = self.config.replication_factor.max(1);
        let replicas = |key: &Key| {
            self.addressing
                .chain_servers(self.addressing.partition_of(key), factor)
        };
        // Size every store for exactly the keys it is about to receive, so
        // the load does not rehash its way up from 16 buckets.
        let mut expected: Vec<Vec<usize>> = self
            .servers
            .iter()
            .map(|s| vec![0; s.store().shard_count()])
            .collect();
        for id in 0..num_keys {
            dataset_items(id, len_of(id), false, |key, _| {
                for server in replicas(&key) {
                    let store = self.servers[server as usize].store();
                    expected[server as usize][store.shard_of(&key)] += 1;
                }
            });
        }
        for (server, per_shard) in self.servers.iter().zip(&expected) {
            server.store().reserve(per_shard);
        }
        for id in 0..num_keys {
            dataset_items(id, len_of(id), true, |key, value| {
                let value = value.expect("walked with values");
                for server in replicas(&key) {
                    self.servers[server as usize].store().put(key, &value, 1);
                }
            });
        }
    }

    /// Kills server `i`: it drops every packet and answers no fetches
    /// until restarted. With `replication_factor > 1` the controller's
    /// next [`Self::run_controller_cycle`] splices it out of its chains
    /// and the rack keeps serving its partitions.
    pub fn kill_server(&self, i: u32) {
        self.servers[i as usize].kill();
    }

    /// Restarts server `i` with a wiped store (a crash loses memory
    /// state). It stays non-serving until the controller's next repair
    /// pass copies its partitions back from the chain heads and re-joins
    /// it as a tail.
    pub fn restart_server(&self, i: u32) {
        self.servers[i as usize].revive();
    }

    /// A packet-building client bound to client port `j`, with a fresh
    /// sequence-number epoch.
    ///
    /// Successive client instances on the same port share an IP; each gets
    /// a disjoint sequence-number epoch so the servers' `(src, seq)` write
    /// dedup never mistakes a new instance's writes for retransmissions of
    /// an old one's.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    pub fn make_client(&self, j: u32) -> NetCacheClient {
        assert!(j < self.config.clients, "client index out of range");
        let mut client = NetCacheClient::new(ClientConfig {
            client_id: (j + 1) as u8,
            ip: self.addressing.client_ip(j),
            partitions: self.config.servers,
            partition_seed: self.config.partition_seed,
            server_ip_base: self.addressing.server_ip(0),
        });
        let epoch = self.client_epochs.fetch_add(1, Ordering::Relaxed);
        client.start_seq_at(epoch.wrapping_shl(24) | 1);
        client
    }

    /// Runs one controller cycle (heavy-hitter intake, cache updates,
    /// periodic statistics reset) at `now`. Returns packets produced by
    /// writes the cycle released, as `(ingress_port, packet)` — the
    /// transport decides how they re-enter the network.
    pub fn run_controller_cycle(&self, now: u64) -> Vec<(PortId, Packet)> {
        let mut backend = AgentBackend {
            servers: &self.servers,
            addressing: &self.addressing,
            released: Vec::new(),
            now,
        };
        {
            let mut switch = self.switch.write();
            let mut controller = self.controller.lock();
            controller.run_cycle(&mut switch, &mut backend, now);
        }
        backend.released
    }

    /// Pre-populates the switch cache with `keys` (up to the controller's
    /// capacity) at `now`. Returns the number inserted and any packets
    /// released by the insertions' unlock steps.
    pub fn populate(
        &self,
        keys: impl IntoIterator<Item = Key>,
        now: u64,
    ) -> (usize, Vec<(PortId, Packet)>) {
        let mut backend = AgentBackend {
            servers: &self.servers,
            addressing: &self.addressing,
            released: Vec::new(),
            now,
        };
        let inserted = {
            let mut switch = self.switch.write();
            let mut controller = self.controller.lock();
            controller.populate(&mut switch, &mut backend, keys)
        };
        (inserted, backend.released)
    }

    /// Runs the controller's memory reorganization over all pipes
    /// (Algorithm 2's "periodic memory reorganization"); returns keys
    /// moved.
    pub fn reorganize_cache(&self) -> usize {
        let mut switch = self.switch.write();
        let mut controller = self.controller.lock();
        let pipes = self.config.switch.pipes;
        let mut moved = 0;
        for pipe in 0..pipes {
            moved += controller.reorganize_pipe(&mut switch, pipe);
        }
        moved
    }

    /// Reboots the switch (cache and statistics lost, routes survive) and
    /// resets the controller's view to match — the failure-recovery story
    /// of §3.
    pub fn reboot_switch(&self) {
        let mut switch = self.switch.write();
        let mut controller = self.controller.lock();
        switch.reboot();
        let cfg = &self.config;
        let topo = self.addressing.clone();
        let chains = controller.chain_manager().cloned();
        *controller = Controller::new(
            cfg.controller.clone(),
            cfg.switch.pipes,
            cfg.switch.value_stages,
            cfg.switch.value_slots,
            move |key| topo.home_of(key),
        );
        if let Some(cm) = chains {
            // Chain membership survives the switch reboot (it lives in the
            // controller, like the routes live in the driver), and so does
            // the switch's chain table; re-pushing it keeps the two in step.
            controller.enable_replication(cm);
            controller.install_chains(&mut switch);
        }
    }
}

/// Visits the items dataset id `id` is stored as at logical length `len`:
/// one plain item under the base key up to [`netcache_proto::MAX_VALUE_LEN`],
/// the §2 chunked layout (continuation chunks first) beyond it. This is the
/// one statement of that layout; [`FabricCore::load_dataset_with`] walks it
/// once for the keys alone (`with_values` false: no payload is generated
/// and `f` sees `None`) and once to store.
fn dataset_items(id: u64, len: usize, with_values: bool, mut f: impl FnMut(Key, Option<Value>)) {
    use netcache_client::chunked;
    let base = Key::from_u64(id);
    if len <= netcache_proto::MAX_VALUE_LEN {
        f(base, with_values.then(|| Value::for_item(id, len)));
    } else if with_values {
        let payload = netcache_proto::item_bytes(id, len);
        let chunks = chunked::split(&payload).expect("dataset payload within the chunking cap");
        for (index, value) in chunks {
            f(chunked::chunk_key(base, index), Some(value));
        }
    } else {
        for index in (0..chunked::chunk_count(len)).rev() {
            f(chunked::chunk_key(base, index), None);
        }
    }
}

impl core::fmt::Debug for FabricCore {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("FabricCore")
            .field("servers", &self.servers.len())
            .field("cached_keys", &self.cached_keys())
            .finish_non_exhaustive()
    }
}

/// The one controller backend over in-process server agents, shared by
/// every deployment (the UDP rack and the simulator used to carry their
/// own trimmed copies that silently skipped `mark_cached`).
struct AgentBackend<'a> {
    servers: &'a [Arc<ServerAgent>],
    addressing: &'a Addressing,
    /// Packets released by unlocks, to be re-injected by the transport
    /// after the controller releases its locks: `(ingress_port, packet)`.
    released: Vec<(PortId, Packet)>,
    now: u64,
}

impl ServerBackend for AgentBackend<'_> {
    fn fetch(&mut self, home: &KeyHome, key: &Key) -> Option<(Value, u32)> {
        self.servers[home.server as usize]
            .fetch(key)
            .map(|item| (item.value, item.version))
    }

    fn lock_writes(&mut self, home: &KeyHome, key: Key) {
        self.servers[home.server as usize].controller_lock(key);
    }

    fn unlock_writes(&mut self, home: &KeyHome, key: Key) {
        let released = self.servers[home.server as usize].controller_unlock(key, self.now);
        self.released
            .extend(released.into_iter().map(|p| (home.egress_port, p)));
    }

    fn mark_cached(&mut self, home: &KeyHome, key: Key) {
        self.servers[home.server as usize].mark_cached(key);
    }

    fn unmark_cached(&mut self, home: &KeyHome, key: Key) {
        self.servers[home.server as usize].unmark_cached(&key);
    }

    fn is_alive(&mut self, server: u32) -> bool {
        self.servers[server as usize].is_alive()
    }

    fn needs_resync(&mut self, server: u32) -> bool {
        self.servers[server as usize].needs_resync()
    }

    fn resync(&mut self, from: u32, to: u32, partition: u32) -> usize {
        let mut items = Vec::new();
        self.servers[from as usize]
            .store()
            .for_each(|key, bytes, version| {
                if self.addressing.partition_of(key) == partition {
                    let value = Value::from_slice(bytes).expect("stored from a bounded Value");
                    items.push((*key, value, version));
                }
            });
        let dst = self.servers[to as usize].store();
        let copied = items.len();
        for (key, value, version) in items {
            dst.put(key, value, version);
        }
        copied
    }

    fn mark_synced(&mut self, server: u32) {
        self.servers[server as usize].mark_resynced();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assembly_installs_routes_and_partitions() {
        let core = FabricCore::new(RackConfig::small(4), AgentTiming::in_process(100_000))
            .expect("valid config");
        assert_eq!(core.servers.len(), 4);
        core.load_dataset(64, 32);
        // Every key landed on the server its home says it should.
        for id in 0..64 {
            let key = Key::from_u64(id);
            let home = core.addressing().home_of(&key);
            assert!(core.server(home.server).fetch(&key).is_some(), "key {id}");
        }
    }

    #[test]
    fn dataset_key_walk_matches_value_walk() {
        for len in [0, 64, 2048, 2049, 2 * 2048 - 4, 2 * 2048 - 3, 5000] {
            let (mut keys, mut stored) = (Vec::new(), Vec::new());
            dataset_items(9, len, false, |key, value| {
                assert!(value.is_none());
                keys.push(key);
            });
            dataset_items(9, len, true, |key, value| {
                assert!(value.is_some());
                stored.push(key);
            });
            assert_eq!(keys, stored, "len {len}");
        }
    }

    #[test]
    fn constructor_errors_are_typed() {
        let mut config = RackConfig::small(4);
        config.servers = 0;
        match FabricCore::new(config, AgentTiming::loopback()) {
            Err(RackError::InvalidConfig(msg)) => assert!(msg.contains("server")),
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }

    #[test]
    fn populate_marks_agents_cached() {
        let core = FabricCore::new(RackConfig::small(2), AgentTiming::in_process(100_000))
            .expect("valid config");
        core.load_dataset(16, 32);
        let (inserted, released) = core.populate((0..4).map(Key::from_u64), 0);
        assert_eq!(inserted, 4);
        assert!(released.is_empty(), "no writes were blocked");
        assert_eq!(core.cached_keys(), 4);
        assert!(core.is_cached(&Key::from_u64(0)));
    }

    #[test]
    fn client_epochs_are_disjoint() {
        let core = FabricCore::new(RackConfig::small(2), AgentTiming::in_process(100_000))
            .expect("valid config");
        let a = core.make_client(0).get(Key::from_u64(1)).netcache.seq;
        let b = core.make_client(0).get(Key::from_u64(1)).netcache.seq;
        assert_ne!(a, b, "instances on one port must not share seq space");
    }
}
