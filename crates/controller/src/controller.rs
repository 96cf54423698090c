//! The cache-update control loop (§4.3, Fig. 4).
//!
//! "The controller receives HH reports from the data plane via the switch
//! driver ... It compares the hits of the HHs and the counters of the
//! cached items, evicts less popular keys, and inserts more popular keys.
//! As the cache may contain tens of thousands of items, it is expensive to
//! fetch all counters ... we use a sampling technique similar to Redis,
//! i.e., the controller samples a few keys from the cache and compares
//! their counters with the HHs."

use std::collections::HashMap;

use netcache_dataplane::{HotReport, LookupEntry, NetCacheSwitch};
use netcache_proto::{Key, Value};

use crate::alloc::{SlotAllocator, SlotAssignment};
use crate::chain::ChainManager;
use netcache_dataplane::ChainHop;

/// Where a key lives: its home server and the switch resources serving it.
///
/// `server` is a generic *downstream node* index: for a ToR controller it
/// is a storage server in the rack, while a spine-layer controller (the
/// DistCache-style scale-out of `netcache-sim`) uses it as a leaf-rack
/// index — the controller itself never interprets it beyond handing it to
/// the topology closure's [`ServerBackend`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyHome {
    /// Downstream node (partition) index: a server in a single rack, or a
    /// leaf rack behind a spine switch.
    pub server: u32,
    /// The server's IP address.
    pub server_ip: u32,
    /// Switch port that connects to the server.
    pub egress_port: u16,
    /// Egress pipe of that port (where the value must be stored).
    pub pipe: usize,
}

/// The controller's interface to storage servers for the insertion-time
/// coherence protocol (§4.3): "when the controller is inserting a key to
/// the cache, write queries to this key are blocked at the storage servers
/// until the insertion is finished". Fetches return the value and its
/// current version.
pub trait ServerBackend {
    /// Reads the current item for `key` from its home server.
    fn fetch(&mut self, home: &KeyHome, key: &Key) -> Option<(Value, u32)>;
    /// Blocks writes to `key` at its home server.
    fn lock_writes(&mut self, home: &KeyHome, key: Key);
    /// Unblocks writes to `key`.
    fn unlock_writes(&mut self, home: &KeyHome, key: Key);
    /// Tells the home server that `key` is now in the switch cache, so
    /// writes it sees without the switch's cached-op rewrite (e.g. ones
    /// blocked during the insertion) still emit cache updates. Default:
    /// no-op, for backends that don't track membership.
    fn mark_cached(&mut self, _home: &KeyHome, _key: Key) {}
    /// Tells the home server that `key` left the switch cache. Called
    /// lazily (evictions queue the notification until the next backend
    /// call); a stale mark is safe — the switch acks updates for keys it
    /// no longer caches without applying them.
    fn unmark_cached(&mut self, _home: &KeyHome, _key: Key) {}
    /// Whether server `server` responds at all (chain-repair failure
    /// detection). Default: always, for unreplicated backends.
    fn is_alive(&mut self, _server: u32) -> bool {
        true
    }
    /// Whether server `server` restarted and is waiting for its state to
    /// be copied back before serving.
    fn needs_resync(&mut self, _server: u32) -> bool {
        false
    }
    /// Copies `partition`'s items from server `from` to server `to`
    /// (chain recovery). Returns the number of items copied.
    fn resync(&mut self, _from: u32, _to: u32, _partition: u32) -> usize {
        0
    }
    /// Tells server `server` its resync is complete and it may serve.
    fn mark_synced(&mut self, _server: u32) {}
}

/// Controller configuration.
#[derive(Debug, Clone)]
pub struct ControllerConfig {
    /// Target number of cached items (≤ the switch lookup capacity). The
    /// paper evaluates mostly with 10,000.
    pub cache_capacity: usize,
    /// Keys sampled per eviction decision (Redis samples 5 by default).
    pub eviction_samples: usize,
    /// Nanoseconds between statistics resets ("We reset them every second
    /// in the experiments", §6).
    pub stats_reset_interval_ns: u64,
    /// Control-plane updates allowed per second ("more than 10K table
    /// entries per second", §4.3).
    pub update_budget_per_sec: u64,
    /// A heavy hitter replaces a sampled victim only if its estimate
    /// exceeds the victim's counter (strictly, scaled by this margin ≥ 1).
    pub insert_margin: f64,
    /// Seed for the sampling RNG.
    pub seed: u64,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        ControllerConfig {
            cache_capacity: 10_000,
            eviction_samples: 8,
            stats_reset_interval_ns: 1_000_000_000,
            update_budget_per_sec: 10_000,
            insert_margin: 1.0,
            seed: 0xc0de_c0de_c0de_c0de,
        }
    }
}

/// Controller observability counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ControllerStats {
    /// Heavy-hitter reports consumed.
    pub reports: u64,
    /// Successful cache insertions.
    pub insertions: u64,
    /// Evictions performed.
    pub evictions: u64,
    /// Reports skipped because the key was already cached.
    pub skipped_cached: u64,
    /// Reports skipped because the key was not hotter than the sampled
    /// victim.
    pub skipped_not_hotter: u64,
    /// Reports skipped because the key no longer exists on its server.
    pub skipped_missing: u64,
    /// Reports dropped because the per-second update budget was exhausted.
    pub skipped_budget: u64,
    /// Reports skipped because no slots could be allocated even after an
    /// eviction attempt.
    pub skipped_no_space: u64,
    /// Periodic statistics resets performed.
    pub stats_resets: u64,
    /// Invalid entries repaired through the control plane.
    pub repairs: u64,
    /// Keys moved by memory reorganization.
    pub reorganized: u64,
    /// Chain members spliced out after a failure (dead or awaiting resync).
    pub chain_failovers: u64,
    /// Recovered chain members re-synced and re-joined as tails.
    pub chain_resyncs: u64,
}

/// Metadata the controller keeps per cached key.
#[derive(Debug, Clone, Copy)]
struct CachedMeta {
    home: KeyHome,
    key_index: u32,
    slot: SlotAssignment,
}

/// A set of keys supporting O(1) insert/remove and uniform sampling.
#[derive(Debug, Default)]
struct SampleSet {
    keys: Vec<Key>,
    positions: HashMap<Key, usize>,
}

impl SampleSet {
    fn insert(&mut self, key: Key) {
        if self.positions.contains_key(&key) {
            return;
        }
        self.positions.insert(key, self.keys.len());
        self.keys.push(key);
    }

    fn remove(&mut self, key: &Key) {
        if let Some(pos) = self.positions.remove(key) {
            self.keys.swap_remove(pos);
            if let Some(moved) = self.keys.get(pos) {
                self.positions.insert(*moved, pos);
            }
        }
    }

    fn len(&self) -> usize {
        self.keys.len()
    }

    fn sample(&self, rng_state: &mut u64) -> Option<Key> {
        if self.keys.is_empty() {
            return None;
        }
        *rng_state ^= *rng_state << 13;
        *rng_state ^= *rng_state >> 7;
        *rng_state ^= *rng_state << 17;
        let idx = (*rng_state % self.keys.len() as u64) as usize;
        Some(self.keys[idx])
    }
}

/// The NetCache controller.
pub struct Controller {
    config: ControllerConfig,
    topology: Box<dyn Fn(&Key) -> KeyHome + Send>,
    /// Per-pipe slot allocators (Algorithm 2).
    allocators: Vec<SlotAllocator>,
    /// Per-pipe free key indexes for the counter/status arrays.
    free_key_indexes: Vec<Vec<u32>>,
    /// Per-pipe cached-key sets for eviction sampling.
    per_pipe: Vec<SampleSet>,
    /// All cached keys (global sampling when at capacity).
    all_cached: SampleSet,
    /// Chain membership when replication is enabled; `None` = the legacy
    /// unreplicated deployment.
    chains: Option<ChainManager>,
    cached: HashMap<Key, CachedMeta>,
    /// Evicted keys whose home servers have not yet been told (evictions
    /// can happen without a backend at hand; see
    /// [`ServerBackend::unmark_cached`]).
    pending_unmarks: Vec<(KeyHome, Key)>,
    rng_state: u64,
    last_reset_ns: u64,
    window_start_ns: u64,
    window_updates: u64,
    stats: ControllerStats,
}

impl core::fmt::Debug for Controller {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Controller")
            .field("cached", &self.cached.len())
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl Controller {
    /// Creates a controller for a switch with `pipes` egress pipes, each
    /// with `value_stages` arrays of `value_slots` indexes. `topology` maps
    /// a key to its home server/port/pipe.
    pub fn new(
        config: ControllerConfig,
        pipes: usize,
        value_stages: usize,
        value_slots: usize,
        topology: impl Fn(&Key) -> KeyHome + Send + 'static,
    ) -> Self {
        Controller {
            rng_state: config.seed | 1,
            allocators: (0..pipes)
                .map(|_| SlotAllocator::new(value_stages, value_slots))
                .collect(),
            free_key_indexes: (0..pipes)
                .map(|_| (0..value_slots as u32).rev().collect())
                .collect(),
            per_pipe: (0..pipes).map(|_| SampleSet::default()).collect(),
            all_cached: SampleSet::default(),
            chains: None,
            cached: HashMap::new(),
            pending_unmarks: Vec::new(),
            last_reset_ns: 0,
            window_start_ns: 0,
            window_updates: 0,
            stats: ControllerStats::default(),
            config,
            topology: Box::new(topology),
        }
    }

    /// Observability counters.
    pub fn stats(&self) -> ControllerStats {
        self.stats
    }

    /// Number of cached keys.
    pub fn cached_keys(&self) -> usize {
        self.cached.len()
    }

    /// The configured cache capacity (target number of cached items).
    pub fn capacity(&self) -> usize {
        self.config.cache_capacity
    }

    /// Whether `key` is currently cached.
    pub fn is_cached(&self, key: &Key) -> bool {
        self.cached.contains_key(key)
    }

    /// The slot assignment of a cached key (diagnostics, ablation benches).
    pub fn cached_slot(&self, key: &Key) -> Option<SlotAssignment> {
        self.cached.get(key).map(|m| m.slot)
    }

    /// Free units in `pipe` that are unusable for a `units`-unit value
    /// because no single bin holds that many (the reorganization trigger).
    pub fn stranded_units(&self, pipe: usize, units: usize) -> usize {
        self.allocators[pipe].stranded_units(units)
    }

    /// Total free units in `pipe`'s value memory.
    pub fn free_units(&self, pipe: usize) -> usize {
        self.allocators[pipe].free_units()
    }

    /// Turns on chain replication: `manager` describes the per-partition
    /// chains. From here on, cache insertions target each partition's
    /// **tail** (writes commit at the tail, so only its version is safe to
    /// serve), and [`Self::run_cycle`] repairs chains before anything else.
    /// The caller is responsible for installing the matching chain tables
    /// in the switch (see [`Self::install_chains`]).
    pub fn enable_replication(&mut self, manager: ChainManager) {
        self.chains = Some(manager);
    }

    /// The chain membership, when replication is enabled.
    pub fn chain_manager(&self) -> Option<&ChainManager> {
        self.chains.as_ref()
    }

    /// Installs every partition's current chain hop list in the switch. A
    /// switch reboot keeps the chain table, so calling this after one
    /// rewrites the same chains.
    pub fn install_chains(&self, driver: &mut NetCacheSwitch) {
        let Some(cm) = &self.chains else {
            return;
        };
        for p in 0..cm.servers() {
            Self::push_chain(cm, driver, p);
        }
    }

    /// Installs `partition`'s current hop list in the switch, clearing the
    /// chain of a partition with no live member.
    fn push_chain(cm: &ChainManager, driver: &mut NetCacheSwitch, partition: u32) {
        let hops: Vec<ChainHop> = cm
            .chain(partition)
            .iter()
            .map(|&n| ChainHop {
                ip: cm.node(n).ip,
                port: cm.node(n).port,
            })
            .collect();
        if hops.is_empty() {
            driver.clear_chain(cm.home_ip(partition));
        } else {
            driver.set_chain(cm.home_ip(partition), hops);
        }
    }

    /// Where the cacheable copy of `key` lives: the partition's home in an
    /// unreplicated rack, the current **tail** of its chain otherwise.
    fn effective_home(&self, key: &Key) -> KeyHome {
        let home = (self.topology)(key);
        let Some(cm) = &self.chains else {
            return home;
        };
        match cm.tail(home.server) {
            Some(t) if t != home.server => {
                let a = cm.node(t);
                KeyHome {
                    server: t,
                    server_ip: a.ip,
                    egress_port: a.port,
                    pipe: a.pipe,
                }
            }
            _ => home,
        }
    }

    /// Detects failed replicas, splices chains around them, re-syncs
    /// recovered nodes, and pushes the updated chain tables to the switch.
    /// Cached keys of partitions whose tail moved are evicted (their switch
    /// entries point at the old tail's pipe); reinsertion against the new
    /// tail happens through the normal heavy-hitter path.
    ///
    /// Runs **before** the budget-gated work in [`Self::run_cycle`]:
    /// repairing availability cannot wait behind cache churn.
    ///
    /// Returns the number of partitions whose chain changed.
    pub fn repair_chains<B: ServerBackend>(
        &mut self,
        driver: &mut NetCacheSwitch,
        backend: &mut B,
    ) -> usize {
        let Some(cm) = &mut self.chains else {
            return 0;
        };
        let outcome = cm.repair(backend);
        self.stats.chain_failovers += outcome.failovers;
        self.stats.chain_resyncs += outcome.resyncs;
        if outcome.changed.is_empty() {
            return 0;
        }
        let cm = self.chains.as_ref().expect("checked above");
        for &p in &outcome.changed {
            Self::push_chain(cm, driver, p);
        }
        if !outcome.tail_changed.is_empty() {
            let mut affected: Vec<Key> = self
                .cached
                .keys()
                .copied()
                .filter(|k| outcome.tail_changed.contains(&(self.topology)(k).server))
                .collect();
            affected.sort_unstable();
            for key in affected {
                self.evict_key(driver, &key);
            }
        }
        outcome.changed.len()
    }

    /// One control cycle: repair replica chains, drain heavy-hitter
    /// reports, update the cache, repair entries left invalid by abandoned
    /// or disabled data-plane updates, and reset statistics if the reset
    /// interval elapsed.
    pub fn run_cycle<B: ServerBackend>(
        &mut self,
        driver: &mut NetCacheSwitch,
        backend: &mut B,
        now_ns: u64,
    ) {
        self.repair_chains(driver, backend);
        let reports = driver.drain_reports();
        for report in reports {
            self.process_report(driver, backend, report, now_ns);
        }
        self.repair_invalid(driver, backend, now_ns);
        self.maybe_reset_stats(driver, now_ns);
        self.drain_unmarks(backend);
    }

    /// Flushes queued eviction notifications to the servers.
    fn drain_unmarks<B: ServerBackend>(&mut self, backend: &mut B) {
        for (home, key) in self.pending_unmarks.drain(..) {
            backend.unmark_cached(&home, key);
        }
    }

    /// Control-plane repair pass: re-fetches and re-installs cached keys
    /// whose switch entry is invalid.
    ///
    /// Entries go invalid when a write's data-plane update was lost beyond
    /// its retry budget, or permanently in the *write-around* ablation
    /// (data-plane updates disabled). Repairs consume control-plane update
    /// budget — this is exactly why the paper prefers data-plane updates
    /// ("much faster than control plane updates", §4.3).
    pub fn repair_invalid<B: ServerBackend>(
        &mut self,
        driver: &mut NetCacheSwitch,
        backend: &mut B,
        now_ns: u64,
    ) -> usize {
        let mut invalid: Vec<Key> = self
            .cached
            .iter()
            .filter(|(_, meta)| !driver.peek_valid(meta.home.pipe, meta.key_index))
            .map(|(key, _)| *key)
            .collect();
        // HashMap iteration order varies per instance; sort so repair
        // order (and thus the whole controller cycle) is a pure function
        // of the state, keeping seeded runs reproducible.
        invalid.sort_unstable();
        let mut repaired = 0;
        for key in invalid {
            let meta = self.cached[&key];
            // Each extra pass is one more value-register write.
            if !self.budget_allows(now_ns, 2 + u64::from(meta.slot.passes.max(1))) {
                break;
            }
            let (pipe, slot) = (meta.home.pipe, meta.slot);
            let arrays = self.allocators[pipe].arrays();
            backend.lock_writes(&meta.home, key);
            match backend.fetch(&meta.home, &key) {
                Some((value, version)) if value.units() <= slot.units(arrays) => {
                    driver.write_value(pipe, slot.bitmap, slot.index, slot.passes, &value);
                    let len = value.len() as u16;
                    driver.install_status(pipe, meta.key_index, version.max(1), len);
                    repaired += 1;
                    backend.unlock_writes(&meta.home, key);
                }
                _ => {
                    // Key deleted, or the new value outgrew its slots:
                    // evict so the slots can be reallocated.
                    backend.unlock_writes(&meta.home, key);
                    self.evict_key(driver, &key);
                }
            }
        }
        self.stats.repairs += repaired as u64;
        repaired
    }

    /// Periodic statistics reset, honoring the configured interval.
    pub fn maybe_reset_stats(&mut self, driver: &mut NetCacheSwitch, now_ns: u64) {
        if now_ns.saturating_sub(self.last_reset_ns) >= self.config.stats_reset_interval_ns {
            driver.reset_statistics();
            self.last_reset_ns = now_ns;
            self.stats.stats_resets += 1;
        }
    }

    fn budget_allows(&mut self, now_ns: u64, cost: u64) -> bool {
        if now_ns.saturating_sub(self.window_start_ns) >= 1_000_000_000 {
            self.window_start_ns = now_ns;
            self.window_updates = 0;
        }
        if self.window_updates + cost > self.config.update_budget_per_sec {
            return false;
        }
        self.window_updates += cost;
        true
    }

    /// Handles one heavy-hitter report: decide, evict, insert.
    fn process_report<B: ServerBackend>(
        &mut self,
        driver: &mut NetCacheSwitch,
        backend: &mut B,
        report: HotReport,
        now_ns: u64,
    ) {
        self.stats.reports += 1;
        if self.cached.contains_key(&report.key) {
            self.stats.skipped_cached += 1;
            return;
        }
        // Rough cost: evict (2 updates) + insert (4 updates).
        if !self.budget_allows(now_ns, 6) {
            self.stats.skipped_budget += 1;
            return;
        }
        // Fetch before deciding (§4.3's write lock held throughout): with
        // variable-length values the newcomer's *size* is part of the
        // admission decision, and only the home server knows it.
        let key = report.key;
        let home = self.effective_home(&key);
        backend.lock_writes(&home, key);
        let Some((value, version)) = backend.fetch(&home, &key) else {
            backend.unlock_writes(&home, key);
            self.stats.skipped_missing += 1;
            return;
        };
        // Each pass beyond the first is one more value-register write
        // through the driver: charge it to the control-plane budget.
        let extra_passes = value.passes() as u64 - 1;
        if extra_passes > 0 && !self.budget_allows(now_ns, extra_passes) {
            backend.unlock_writes(&home, key);
            self.stats.skipped_budget += 1;
            return;
        }
        // At capacity: find a sampled victim and require the newcomer to
        // deliver more hits per switch-memory unit than the victim does —
        // a hot 2 KB value must beat 16 victims' worth of slots, not one.
        if self.cached.len() >= self.config.cache_capacity {
            match self.sample_victim(driver, None) {
                Some((victim, victim_count)) => {
                    let meta = self.cached[&victim];
                    let victim_units = meta.slot.units(self.allocators[meta.home.pipe].arrays());
                    let newcomer_units = value.units().max(1);
                    let hot_enough = f64::from(report.estimate) / newcomer_units as f64
                        > f64::from(victim_count) / victim_units.max(1) as f64
                            * self.config.insert_margin;
                    if !hot_enough {
                        backend.unlock_writes(&home, key);
                        self.stats.skipped_not_hotter += 1;
                        return;
                    }
                    self.evict_key(driver, &victim);
                }
                None => {
                    backend.unlock_writes(&home, key);
                    self.stats.skipped_no_space += 1;
                    return;
                }
            }
        }
        self.install_fetched(driver, backend, key, home, value, version);
    }

    /// Samples `eviction_samples` cached keys (optionally restricted to one
    /// pipe) and returns the coldest with its counter.
    fn sample_victim(
        &mut self,
        driver: &NetCacheSwitch,
        pipe: Option<usize>,
    ) -> Option<(Key, u16)> {
        let set = match pipe {
            Some(p) => &self.per_pipe[p],
            None => &self.all_cached,
        };
        if set.len() == 0 {
            return None;
        }
        let mut best: Option<(Key, u16)> = None;
        for _ in 0..self.config.eviction_samples {
            let key = set.sample(&mut self.rng_state)?;
            let meta = self.cached[&key];
            let count = driver.read_counter(meta.home.pipe, meta.key_index);
            if best.is_none_or(|(_, c)| count < c) {
                best = Some((key, count));
            }
        }
        best
    }

    /// Evicts `key` from the cache, releasing all resources. The home
    /// server's membership notification is queued and delivered on the
    /// next backend interaction.
    pub fn evict_key(&mut self, driver: &mut NetCacheSwitch, key: &Key) -> bool {
        let Some(meta) = self.cached.remove(key) else {
            return false;
        };
        self.pending_unmarks.push((meta.home, *key));
        let pipe = meta.home.pipe;
        let _ = driver.remove_entry(key);
        driver.evict_status(pipe, meta.key_index);
        self.allocators[pipe].evict(key);
        self.free_key_indexes[pipe].push(meta.key_index);
        self.per_pipe[pipe].remove(key);
        self.all_cached.remove(key);
        self.stats.evictions += 1;
        true
    }

    /// Inserts `key` into the cache, performing the full coherence dance:
    /// lock writes at the server → fetch the value → allocate slots →
    /// install value, lookup entry and status → unlock writes.
    ///
    /// Returns `false` (with a skip counter bumped) if the key cannot be
    /// inserted.
    pub fn insert_key<B: ServerBackend>(
        &mut self,
        driver: &mut NetCacheSwitch,
        backend: &mut B,
        key: Key,
    ) -> bool {
        if self.cached.contains_key(&key) {
            self.stats.skipped_cached += 1;
            return false;
        }
        let home = self.effective_home(&key);
        backend.lock_writes(&home, key);
        let Some((value, version)) = backend.fetch(&home, &key) else {
            backend.unlock_writes(&home, key);
            self.stats.skipped_missing += 1;
            return false;
        };
        self.install_fetched(driver, backend, key, home, value, version)
    }

    /// Installs an already-fetched item: allocate slots → install value,
    /// lookup entry and status → unlock writes. The caller holds the
    /// server-side write lock for `key`; it is released on every path.
    fn install_fetched<B: ServerBackend>(
        &mut self,
        driver: &mut NetCacheSwitch,
        backend: &mut B,
        key: Key,
        home: KeyHome,
        value: Value,
        version: u32,
    ) -> bool {
        let pipe = home.pipe;
        let units = value.units();
        // Allocate slots; if the pipe is fragmented or full, evict a cold
        // victim from the same pipe and retry once.
        let slot = match self.allocators[pipe].insert(key, units) {
            Some(slot) => Some(slot),
            None => {
                if let Some((victim, _)) = self.sample_victim(driver, Some(pipe)) {
                    self.evict_key(driver, &victim);
                }
                self.allocators[pipe].insert(key, units)
            }
        };
        let Some(slot) = slot else {
            backend.unlock_writes(&home, key);
            self.stats.skipped_no_space += 1;
            return false;
        };
        let key_index = match self.free_key_indexes[pipe].pop() {
            Some(idx) => Some(idx),
            None => {
                // Counter/status slots exhausted (capacity above the
                // switch's per-pipe slot count): evict a sampled victim
                // from this pipe to free one.
                if let Some((victim, _)) = self.sample_victim(driver, Some(pipe)) {
                    self.evict_key(driver, &victim);
                }
                self.free_key_indexes[pipe].pop()
            }
        };
        let Some(key_index) = key_index else {
            self.allocators[pipe].evict(&key);
            backend.unlock_writes(&home, key);
            self.stats.skipped_no_space += 1;
            return false;
        };
        // Install: value units → lookup entry → counter reset → status.
        driver.write_value(pipe, slot.bitmap, slot.index, slot.passes, &value);
        let entry = LookupEntry {
            bitmap: slot.bitmap,
            value_index: slot.index,
            key_index,
            egress_port: home.egress_port,
            value_len: value.len() as u16,
            passes: slot.passes,
        };
        if driver.insert_entry(key, entry).is_err() {
            // Lookup table full (capacity below controller target): roll back.
            self.allocators[pipe].evict(&key);
            self.free_key_indexes[pipe].push(key_index);
            backend.unlock_writes(&home, key);
            self.stats.skipped_no_space += 1;
            return false;
        }
        driver.reset_counter(pipe, key_index);
        driver.install_status(pipe, key_index, version.max(1), value.len() as u16);
        // Flush queued eviction notifications (including this insertion's
        // victim) before marking, so an old unmark for this key cannot
        // land after the fresh mark. Mark before releasing blocked writes,
        // so a write that queued during the insertion still refreshes the
        // cache.
        self.drain_unmarks(backend);
        backend.mark_cached(&home, key);
        backend.unlock_writes(&home, key);

        self.cached.insert(
            key,
            CachedMeta {
                home,
                key_index,
                slot,
            },
        );
        self.per_pipe[pipe].insert(key);
        self.all_cached.insert(key);
        self.stats.insertions += 1;
        true
    }

    /// Periodic memory reorganization (§4.4.2): re-packs one pipe's value
    /// slots with First-Fit so that fragmented free units become usable
    /// for large values ("periodic memory reorganization is still needed
    /// to pack small values with different indexes into register slots
    /// with same indexes, in order to make room for large values").
    ///
    /// Moves are applied move-safely under the driver's control-plane
    /// atomicity: every moved key is first marked invalid (reads fall to
    /// its server), then all values are copied to their new slots, then
    /// lookup entries are swapped and previously-valid keys re-validated.
    /// Returns the number of keys moved.
    pub fn reorganize_pipe(&mut self, driver: &mut NetCacheSwitch, pipe: usize) -> usize {
        let moves = self.allocators[pipe].reorganize();
        if moves.is_empty() {
            return 0;
        }
        // Stage: snapshot values from the old slots and invalidate.
        struct Staged {
            key: Key,
            entry: LookupEntry,
            new_slot: SlotAssignment,
            value: Value,
            was_valid: bool,
        }
        let mut staged: Vec<Staged> = Vec::with_capacity(moves.len());
        for (key, old, new) in &moves {
            let Some(meta) = self.cached.get(key).copied() else {
                continue;
            };
            let Some(entry) = driver.peek_entry(key) else {
                continue;
            };
            // The live length is in the data plane (updates may have
            // shrunk the value below the installed one).
            let len = driver.peek_value_len(pipe, meta.key_index);
            let Some(value) = driver.peek_value(pipe, old.bitmap, old.index, old.passes, len)
            else {
                continue;
            };
            let was_valid = driver.peek_valid(pipe, meta.key_index);
            driver.invalidate_status(pipe, meta.key_index);
            staged.push(Staged {
                key: *key,
                entry,
                new_slot: *new,
                value,
                was_valid,
            });
        }
        // Copy all values, then swap all entries, then re-validate.
        for s in &staged {
            driver.write_value(
                pipe,
                s.new_slot.bitmap,
                s.new_slot.index,
                s.new_slot.passes,
                &s.value,
            );
        }
        let mut moved = 0;
        for s in &staged {
            let new_entry = LookupEntry {
                bitmap: s.new_slot.bitmap,
                value_index: s.new_slot.index,
                passes: s.new_slot.passes,
                ..s.entry
            };
            if driver.insert_entry(s.key, new_entry).is_ok() {
                moved += 1;
            }
            if let Some(meta) = self.cached.get_mut(&s.key) {
                meta.slot = s.new_slot;
            }
            if s.was_valid {
                driver.revalidate_status(pipe, s.entry.key_index);
            }
        }
        self.stats.reorganized += moved as u64;
        moved
    }

    /// Runs [`Self::reorganize_pipe`] on every pipe whose fragmentation
    /// strands more than `threshold_units` free units for 8-unit values.
    pub fn maybe_reorganize(
        &mut self,
        driver: &mut NetCacheSwitch,
        threshold_units: usize,
    ) -> usize {
        let pipes = self.allocators.len();
        let mut total = 0;
        for pipe in 0..pipes {
            if self.allocators[pipe].stranded_units(8) > threshold_units {
                total += self.reorganize_pipe(driver, pipe);
            }
        }
        total
    }

    /// Pre-populates the cache with `keys` (experiment setup: "Each
    /// experiment begins with a pre-populated cache containing the top
    /// 10,000 hottest items", §7.4).
    pub fn populate<B: ServerBackend>(
        &mut self,
        driver: &mut NetCacheSwitch,
        backend: &mut B,
        keys: impl IntoIterator<Item = Key>,
    ) -> usize {
        let mut inserted = 0;
        for key in keys {
            if self.cached.len() >= self.config.cache_capacity {
                break;
            }
            if self.insert_key(driver, backend, key) {
                inserted += 1;
            }
        }
        inserted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netcache_dataplane::{NetCacheSwitch, SwitchConfig};
    use netcache_proto::Op;
    use netcache_proto::Packet;
    use std::collections::HashMap as Map;

    const CLIENT_IP: u32 = 0x0a00_0001;
    const SERVER_IP: u32 = 0x0a00_0101;
    const SERVER_PORT: u16 = 1;
    const CLIENT_PORT: u16 = 7;

    /// A fake backend: an in-memory map plus lock bookkeeping.
    #[derive(Default)]
    struct FakeBackend {
        items: Map<Key, (Value, u32)>,
        locked: Vec<Key>,
        unlock_order_ok: bool,
        lock_events: u64,
    }

    impl FakeBackend {
        fn with_items(n: u64) -> Self {
            let mut b = FakeBackend {
                unlock_order_ok: true,
                ..Default::default()
            };
            for i in 0..n {
                b.items
                    .insert(Key::from_u64(i), (Value::for_item(i, 32), 1));
            }
            b
        }
    }

    impl ServerBackend for FakeBackend {
        fn fetch(&mut self, _home: &KeyHome, key: &Key) -> Option<(Value, u32)> {
            assert!(
                self.locked.contains(key),
                "fetch must happen under the write lock"
            );
            self.items.get(key).cloned()
        }

        fn lock_writes(&mut self, _home: &KeyHome, key: Key) {
            self.locked.push(key);
            self.lock_events += 1;
        }

        fn unlock_writes(&mut self, _home: &KeyHome, key: Key) {
            match self.locked.iter().position(|k| *k == key) {
                Some(pos) => {
                    self.locked.remove(pos);
                }
                None => self.unlock_order_ok = false,
            }
        }
    }

    fn topology() -> impl Fn(&Key) -> KeyHome + Send + 'static {
        |_key| KeyHome {
            server: 0,
            server_ip: SERVER_IP,
            egress_port: SERVER_PORT,
            pipe: 0,
        }
    }

    fn controller(capacity: usize) -> Controller {
        let cfg = SwitchConfig::tiny();
        Controller::new(
            ControllerConfig {
                cache_capacity: capacity,
                eviction_samples: 4,
                ..ControllerConfig::default()
            },
            cfg.pipes,
            cfg.value_stages,
            cfg.value_slots,
            topology(),
        )
    }

    fn switch() -> NetCacheSwitch {
        let mut sw = NetCacheSwitch::new(SwitchConfig::tiny()).unwrap();
        sw.add_route(CLIENT_IP, 32, CLIENT_PORT);
        sw.add_route(SERVER_IP, 32, SERVER_PORT);
        sw
    }

    #[test]
    fn insert_installs_servable_entry() {
        let mut sw = switch();
        let mut backend = FakeBackend::with_items(10);
        let mut ctl = controller(8);
        assert!(ctl.insert_key(&mut sw, &mut backend, Key::from_u64(3)));
        assert!(ctl.is_cached(&Key::from_u64(3)));
        assert!(backend.locked.is_empty(), "lock must be released");
        assert!(backend.unlock_order_ok);

        // The switch now serves the key from cache.
        let get = Packet::get_query(1, CLIENT_IP, SERVER_IP, Key::from_u64(3), 0);
        let out = sw.process(get, CLIENT_PORT).expect("one output");
        assert_eq!(out.1.netcache.op, Op::GetReplyHit);
        assert_eq!(
            out.1.netcache.value.as_ref().unwrap(),
            &Value::for_item(3, 32)
        );
    }

    #[test]
    fn insert_installs_multi_pass_entry_served_by_recirculation() {
        let mut sw = switch();
        let mut backend = FakeBackend::with_items(0);
        let key = Key::from_u64(7);
        let value = Value::filled(0x5A, 300);
        backend.items.insert(key, (value.clone(), 1));
        let mut ctl = controller(8);
        assert!(ctl.insert_key(&mut sw, &mut backend, key));
        let slot = ctl.cached_slot(&key).unwrap();
        assert_eq!(slot.passes, 3, "300 B = 19 units = 3 passes of 8 stages");
        assert!(backend.locked.is_empty());

        // The switch serves the wide value from cache, recirculating twice.
        let get = Packet::get_query(1, CLIENT_IP, SERVER_IP, key, 0);
        let out = sw.process(get, CLIENT_PORT).expect("one output");
        assert_eq!(out.1.netcache.op, Op::GetReplyHit);
        assert_eq!(out.1.netcache.value.as_ref().unwrap(), &value);
        assert_eq!(sw.stats().recirculations, 2);
    }

    #[test]
    fn large_newcomer_must_beat_victims_per_unit() {
        let mut sw = switch();
        let mut backend = FakeBackend::with_items(2);
        let mut ctl = controller(2);
        ctl.populate(&mut sw, &mut backend, [Key::from_u64(0), Key::from_u64(1)]);
        // One cache hit each: victims have density 1 hit / 2 units.
        for k in [0u64, 1] {
            let get = Packet::get_query(1, CLIENT_IP, SERVER_IP, Key::from_u64(k), 0);
            sw.process(get, CLIENT_PORT);
        }
        // A 2 KB key crosses the HH threshold: absolutely hotter than the
        // victims' counters, but it would buy 128 units of switch memory.
        backend
            .items
            .insert(Key::from_u64(50), (Value::filled(1, 2048), 1));
        for seq in 0..40 {
            let get = Packet::get_query(1, CLIENT_IP, SERVER_IP, Key::from_u64(50), seq);
            sw.process(get, CLIENT_PORT);
        }
        ctl.run_cycle(&mut sw, &mut backend, 10);
        assert!(
            !ctl.is_cached(&Key::from_u64(50)),
            "per-unit-cold wide value admitted: {:?}",
            ctl.stats()
        );
        assert!(ctl.stats().skipped_not_hotter >= 1);
        assert!(backend.locked.is_empty(), "rejection path must unlock");

        // The same hotness in a small value wins: the skip was about size.
        backend
            .items
            .insert(Key::from_u64(51), (Value::for_item(51, 32), 1));
        for seq in 0..40 {
            let get = Packet::get_query(1, CLIENT_IP, SERVER_IP, Key::from_u64(51), seq);
            sw.process(get, CLIENT_PORT);
        }
        ctl.run_cycle(&mut sw, &mut backend, 20);
        assert!(ctl.is_cached(&Key::from_u64(51)), "{:?}", ctl.stats());
        assert_eq!(ctl.cached_keys(), 2, "capacity preserved");
    }

    #[test]
    fn missing_key_not_inserted() {
        let mut sw = switch();
        let mut backend = FakeBackend::with_items(2);
        let mut ctl = controller(8);
        assert!(!ctl.insert_key(&mut sw, &mut backend, Key::from_u64(99)));
        assert_eq!(ctl.stats().skipped_missing, 1);
        assert!(backend.locked.is_empty());
    }

    #[test]
    fn evict_releases_everything() {
        let mut sw = switch();
        let mut backend = FakeBackend::with_items(10);
        let mut ctl = controller(8);
        ctl.insert_key(&mut sw, &mut backend, Key::from_u64(1));
        assert!(ctl.evict_key(&mut sw, &Key::from_u64(1)));
        assert!(!ctl.is_cached(&Key::from_u64(1)));
        assert_eq!(sw.cached_keys(), 0);

        // The key can be inserted again (slots were freed).
        assert!(ctl.insert_key(&mut sw, &mut backend, Key::from_u64(1)));
    }

    #[test]
    fn populate_respects_capacity() {
        let mut sw = switch();
        let mut backend = FakeBackend::with_items(100);
        let mut ctl = controller(5);
        let inserted = ctl.populate(&mut sw, &mut backend, (0..100).map(Key::from_u64));
        assert_eq!(inserted, 5);
        assert_eq!(ctl.cached_keys(), 5);
    }

    #[test]
    fn hot_report_displaces_cold_victim() {
        let mut sw = switch();
        let mut backend = FakeBackend::with_items(100);
        let mut ctl = controller(2);
        ctl.populate(&mut sw, &mut backend, [Key::from_u64(0), Key::from_u64(1)]);

        // Make key 50 hot in the data plane: stream Get queries until the
        // switch reports it (tiny config threshold is 8).
        for seq in 0..40 {
            let get = Packet::get_query(1, CLIENT_IP, SERVER_IP, Key::from_u64(50), seq);
            sw.process(get, CLIENT_PORT);
        }
        // Cached keys have counter 0 (never read), so the report wins.
        ctl.run_cycle(&mut sw, &mut backend, 10);
        assert!(ctl.is_cached(&Key::from_u64(50)), "{:?}", ctl.stats());
        assert_eq!(ctl.cached_keys(), 2, "capacity preserved");
        assert_eq!(ctl.stats().evictions, 1);
    }

    #[test]
    fn cold_report_does_not_displace_hot_cached_key() {
        let mut sw = switch();
        let mut backend = FakeBackend::with_items(100);
        let mut ctl = controller(2);
        ctl.populate(&mut sw, &mut backend, [Key::from_u64(0), Key::from_u64(1)]);

        // Heat up the cached keys well beyond the HH threshold.
        for seq in 0..200 {
            for k in [0u64, 1] {
                let get = Packet::get_query(1, CLIENT_IP, SERVER_IP, Key::from_u64(k), seq);
                sw.process(get, CLIENT_PORT);
            }
        }
        // Key 50 barely crosses the threshold (8 < counters of cached).
        for seq in 0..9 {
            let get = Packet::get_query(1, CLIENT_IP, SERVER_IP, Key::from_u64(50), seq);
            sw.process(get, CLIENT_PORT);
        }
        ctl.run_cycle(&mut sw, &mut backend, 10);
        assert!(!ctl.is_cached(&Key::from_u64(50)));
        assert_eq!(ctl.stats().skipped_not_hotter, 1);
        assert_eq!(ctl.cached_keys(), 2);
    }

    #[test]
    fn stats_reset_interval_honored() {
        let mut sw = switch();
        let mut backend = FakeBackend::with_items(1);
        let mut ctl = controller(4);
        let second = 1_000_000_000;
        ctl.run_cycle(&mut sw, &mut backend, 0);
        ctl.run_cycle(&mut sw, &mut backend, second / 2);
        assert_eq!(ctl.stats().stats_resets, 0, "interval not yet elapsed");
        ctl.run_cycle(&mut sw, &mut backend, second + 1);
        assert_eq!(ctl.stats().stats_resets, 1);
        ctl.run_cycle(&mut sw, &mut backend, second + 2);
        assert_eq!(ctl.stats().stats_resets, 1, "no double reset");
    }

    #[test]
    fn update_budget_limits_churn() {
        let mut sw = switch();
        let mut backend = FakeBackend::with_items(1000);
        let cfg = SwitchConfig::tiny();
        let mut ctl = Controller::new(
            ControllerConfig {
                cache_capacity: 2,
                update_budget_per_sec: 6, // exactly one report's worth
                ..ControllerConfig::default()
            },
            cfg.pipes,
            cfg.value_stages,
            cfg.value_slots,
            topology(),
        );
        ctl.populate(&mut sw, &mut backend, [Key::from_u64(0), Key::from_u64(1)]);

        // Two distinct hot keys report in the same cycle.
        for key in [500u64, 501] {
            for seq in 0..40 {
                let get = Packet::get_query(1, CLIENT_IP, SERVER_IP, Key::from_u64(key), seq);
                sw.process(get, CLIENT_PORT);
            }
        }
        ctl.run_cycle(&mut sw, &mut backend, 10);
        assert_eq!(ctl.stats().skipped_budget, 1, "{:?}", ctl.stats());
    }

    #[test]
    fn duplicate_report_skipped() {
        let mut sw = switch();
        let mut backend = FakeBackend::with_items(10);
        let mut ctl = controller(8);
        ctl.insert_key(&mut sw, &mut backend, Key::from_u64(3));
        let before = ctl.stats().insertions;
        // Simulate a duplicate report arriving for an already-cached key.
        ctl.process_report(
            &mut sw,
            &mut backend,
            HotReport {
                key: Key::from_u64(3),
                estimate: 100,
            },
            5,
        );
        assert_eq!(ctl.stats().insertions, before);
        assert_eq!(ctl.stats().skipped_cached, 1);
    }
}
