//! The NetCache switch: Algorithm 1 on the pipeline of Fig. 8.
//!
//! Packet flow:
//!
//! 1. **Ingress** — classify NetCache traffic by the reserved L4 port;
//!    cache lookup (replicated per ingress pipe); chain steering for
//!    replicated partitions; routing (by destination, or by source for
//!    cached reads, saving the reply route as metadata). Ingress picks the
//!    egress port and the egress action.
//! 2. **Traffic manager** — steer to the egress pipe of the chosen port.
//! 3. **Egress** — cache status check/invalidate; query statistics; value
//!    stages (append on read, write on update); reply mirroring back to
//!    the client for served cache hits.
//!
//! The control-plane methods (the second `impl NetCacheSwitch` block) are
//! the software analogue of the generated Thrift APIs (§6). Control-plane
//! operations are counted so higher layers can model the bounded
//! table-update rate (§4.3: "commodity switches are able to update more
//! than 10K table entries per second").
//!
//! # Concurrency model (§6, Fig. 8: "pipes process packets concurrently")
//!
//! [`NetCacheSwitch::process`] takes `&self`: packets steered to *different*
//! egress pipes execute genuinely in parallel, while packets landing in the
//! *same* pipe serialize in arrival order behind that pipe's mutex — the
//! hardware-faithful invariant (a pipeline is a sequential machine; the
//! chip's parallelism is across pipes). That mutex is the only lock a
//! packet takes. Shared read-only match state (lookup replicas, chain
//! table, routing) is searched without locks: mutating it needs `&mut
//! self` (control plane), which Rust's aliasing rules guarantee cannot
//! overlap a data-plane `&self` borrow. Global telemetry counters are
//! relaxed atomics. See `DESIGN.md` §10.

use std::cmp;
use std::sync::atomic::{AtomicU64, Ordering};

use netcache_proto::{Key, Op, Packet, Value};
use parking_lot::Mutex;

use crate::config::SwitchConfig;
use crate::phv::{Phv, PortId};
use crate::program::chain::{ChainHop, ChainTable, Steer};
use crate::program::lookup::{LookupEntry, LookupTables};
use crate::program::routing::Router;
use crate::program::stats::{HotReport, QueryStats};
use crate::program::status::CacheStatus;
use crate::program::values::ValueStages;
use crate::register::RegisterArray;
use crate::resources::{Direction, PlacementError, ResourceReport, StageMap};
use crate::table::TableError;

/// One egress pipe's NetCache state (Fig. 8, right half).
#[derive(Debug)]
struct EgressPipe {
    status: CacheStatus,
    stats: QueryStats,
    values: ValueStages,
    /// True value length per cached key, in bytes. This must live in the
    /// data plane (not in lookup action data): a data-plane `CacheUpdate`
    /// may carry a *shorter* value than the one the controller installed
    /// (§4.3 allows "no larger"), and the read path needs the new length
    /// to trim the zero padding of the final 16-byte unit.
    value_len: RegisterArray<u16>,
}

impl EgressPipe {
    fn new(config: &SwitchConfig) -> Self {
        EgressPipe {
            status: CacheStatus::new(config.value_slots),
            stats: QueryStats::new(config),
            values: ValueStages::new(config.value_stages, config.value_slots),
            value_len: RegisterArray::new("value_len", config.value_slots),
        }
    }
}

/// The egress action ingress selects for a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Action {
    /// No egress state: leave on the egress port (replies, acks, plain IP,
    /// chain writes between replicas).
    Forward,
    /// A read query: status check, statistics, value stages.
    Read,
    /// A client write: invalidate the cached entry, then leave on the
    /// egress port, or on `head` when it enters a replication chain.
    Invalidate { head: Option<PortId> },
    /// A server's cache update: the value write, acknowledged to it.
    Update,
    /// The tail replica's copy of a chain write: the value write (a
    /// delete invalidates), then the client's reply.
    Commit,
}

/// Data-plane counters, exposed for benchmarks and experiments.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SwitchStats {
    /// Total packets offered to the switch.
    pub packets: u64,
    /// Packets recognized as NetCache queries/replies.
    pub netcache_packets: u64,
    /// Read queries served from the cache (valid hits).
    pub cache_hits: u64,
    /// Read queries that matched the lookup table but found the entry
    /// invalid (in-flight write), and so went to the server.
    pub invalid_hits: u64,
    /// Read queries that missed the cache entirely.
    pub cache_misses: u64,
    /// Write queries that invalidated a cached key.
    pub write_invalidations: u64,
    /// Data-plane cache updates applied.
    pub updates_applied: u64,
    /// Data-plane cache updates ignored (stale version, missing entry, or
    /// value larger than the allocated slots).
    pub updates_ignored: u64,
    /// Packets dropped (unroutable or malformed).
    pub drops: u64,
    /// Client writes steered into a replication chain.
    pub chain_writes: u64,
    /// Chain writes committed at the tail and converted into client
    /// replies.
    pub chain_commits: u64,
    /// Extra pipeline passes consumed by recirculated packets (a packet
    /// serving a `passes = k` entry adds `k - 1`). Each recirculation
    /// occupies one pipeline slot, so this is the line-rate cost of
    /// serving wide values from the cache.
    pub recirculations: u64,
}

/// [`SwitchStats`] with atomic fields: data-plane counters bumped from
/// `&self` by concurrently executing pipes (relaxed ordering — they are
/// telemetry, not synchronization).
#[derive(Debug, Default)]
struct AtomicSwitchStats {
    packets: AtomicU64,
    netcache_packets: AtomicU64,
    cache_hits: AtomicU64,
    invalid_hits: AtomicU64,
    cache_misses: AtomicU64,
    write_invalidations: AtomicU64,
    updates_applied: AtomicU64,
    updates_ignored: AtomicU64,
    drops: AtomicU64,
    chain_writes: AtomicU64,
    chain_commits: AtomicU64,
    recirculations: AtomicU64,
}

impl AtomicSwitchStats {
    fn snapshot(&self) -> SwitchStats {
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        SwitchStats {
            packets: load(&self.packets),
            netcache_packets: load(&self.netcache_packets),
            cache_hits: load(&self.cache_hits),
            invalid_hits: load(&self.invalid_hits),
            cache_misses: load(&self.cache_misses),
            write_invalidations: load(&self.write_invalidations),
            updates_applied: load(&self.updates_applied),
            updates_ignored: load(&self.updates_ignored),
            drops: load(&self.drops),
            chain_writes: load(&self.chain_writes),
            chain_commits: load(&self.chain_commits),
            recirculations: load(&self.recirculations),
        }
    }
}

/// The NetCache switch data plane.
///
/// Per-pipe state (`egress`) sits behind one mutex per pipe; global match
/// state (`lookup`, `chains`, `router`) is read lock-free from the data
/// plane and mutated only through `&mut self` control-plane calls.
#[derive(Debug)]
pub struct NetCacheSwitch {
    config: SwitchConfig,
    lookup: LookupTables,
    router: Router,
    /// Replication chains keyed by a partition's static home IP. Like
    /// routes, they survive [`reboot`](NetCacheSwitch::reboot).
    chains: ChainTable,
    egress: Vec<Mutex<EgressPipe>>,
    epoch: AtomicU64,
    stats: AtomicSwitchStats,
    control_updates: u64,
}

impl NetCacheSwitch {
    /// Builds the switch, verifying the configuration is self-consistent
    /// and the program fits the ASIC profile. Routing holds a route per
    /// port, the chain table a chain per port.
    pub fn new(config: SwitchConfig) -> Result<Self, String> {
        config.validate()?;
        let switch = NetCacheSwitch {
            lookup: LookupTables::new(config.pipes, config.cache_capacity),
            router: Router::new(config.ports),
            chains: ChainTable::new(&config),
            egress: (0..config.pipes)
                .map(|_| Mutex::new(EgressPipe::new(&config)))
                .collect(),
            epoch: AtomicU64::new(0),
            stats: AtomicSwitchStats::default(),
            control_updates: 0,
            config,
        };
        switch
            .compile_report()
            .map_err(|e| format!("program does not fit ASIC: {e}"))?;
        Ok(switch)
    }

    /// The switch configuration.
    pub fn config(&self) -> &SwitchConfig {
        &self.config
    }

    /// Data-plane counters (a consistent-enough snapshot of the relaxed
    /// atomics; exact once the data plane is quiescent).
    pub fn stats(&self) -> SwitchStats {
        self.stats.snapshot()
    }

    /// Number of control-plane updates performed (table entries + register
    /// pokes), for modelling the bounded update rate.
    pub fn control_updates(&self) -> u64 {
        self.control_updates
    }

    /// Pipeline passes a query touching `key`'s cached value consumes
    /// (1 when uncached or single-pass). Transports use this to charge
    /// recirculated packets one pipeline slot per pass.
    pub fn passes_for(&self, key: &Key) -> u32 {
        self.lookup
            .lookup(0, key)
            .map_or(1, |e| u32::from(e.passes.max(1)))
    }

    /// Reserves register epochs for a `passes`-wide value operation and
    /// returns the base epoch. A single-pass operation reuses the packet's
    /// own epoch (the paper's path, unchanged); a multi-pass operation
    /// claims a fresh contiguous block so that every recirculated pass
    /// carries its own epoch, keeping the one-access-per-array-per-pass
    /// contract intact, and counts the extra passes as recirculations.
    fn value_epochs(&self, pkt_epoch: u64, passes: u8) -> u64 {
        if passes <= 1 {
            pkt_epoch
        } else {
            self.stats
                .recirculations
                .fetch_add(u64::from(passes) - 1, Ordering::Relaxed);
            self.epoch.fetch_add(u64::from(passes), Ordering::Relaxed) + 1
        }
    }

    /// Simulates a switch reboot: the cache and statistics are lost, the
    /// routing state (re-pushed by the network control plane) and the
    /// chain table are kept.
    ///
    /// "If the switch fails, operators can simply reboot the switch with an
    /// empty cache ... it does not maintain any critical system state" (§3).
    pub fn reboot(&mut self) {
        let config = self.config.clone();
        self.lookup = LookupTables::new(config.pipes, config.cache_capacity);
        self.egress = (0..config.pipes)
            .map(|_| Mutex::new(EgressPipe::new(&config)))
            .collect();
        self.stats = AtomicSwitchStats::default();
    }

    /// Processes one packet arriving on `in_port`, returning the packet to
    /// emit as `(egress_port, packet)`, or `None` if it was dropped. No
    /// branch of the program emits more than one packet: a served read is
    /// the query rewritten in place, an update turns into its own ack, and
    /// chain steering forwards to exactly one next hop.
    ///
    /// `&self`: callers in different threads proceed concurrently. Two
    /// packets steered to the same egress pipe serialize behind that pipe's
    /// mutex in lock-acquisition order (= arrival order at the pipe);
    /// packets in different pipes share nothing but lock-free match state
    /// and relaxed counters.
    pub fn process(&self, pkt: Packet, in_port: PortId) -> Option<(PortId, Packet)> {
        // Epochs are allocated globally, so they are unique per packet but
        // not necessarily monotone *within* a pipe — the register access
        // discipline (one access per array per packet) only needs
        // uniqueness, and the pipe mutex orders the actual state changes.
        let epoch = self.epoch.fetch_add(1, Ordering::Relaxed) + 1;
        self.stats.packets.fetch_add(1, Ordering::Relaxed);
        let mut phv = Phv::new(pkt, in_port, epoch);
        let action = self.ingress(&mut phv);
        if phv.meta.drop {
            self.stats.drops.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let egress_port = phv
            .meta
            .egress_port
            .expect("ingress sets egress_port unless dropping");
        if action == Action::Forward {
            return Some((egress_port, phv.pkt));
        }
        // ---- Traffic manager → egress pipeline ----
        // The packet's one lock, held for the whole egress pipeline: the
        // per-pipe serialization point. No other lock is taken while it is
        // held, so lock ordering is trivially acyclic.
        let mut pipe = self.egress[self.config.pipe_of_port(egress_port as usize)].lock();
        let port = self.egress(&mut pipe, &mut phv, action, egress_port)?;
        Some((port, phv.pkt))
    }

    /// The ingress pipeline: cache lookup → chain steering → routing. Sets
    /// the egress port (or the drop flag) and returns the egress action.
    #[inline]
    fn ingress(&self, phv: &mut Phv) -> Action {
        if !phv.pkt.is_netcache() {
            self.router.route(phv);
            return Action::Forward;
        }
        self.stats.netcache_packets.fetch_add(1, Ordering::Relaxed);
        let op = phv.pkt.netcache.op;
        // The cache lookup table matches queries and cache updates; it
        // must not match replies (their key may be cached, but replies
        // just get forwarded).
        if matches!(
            op,
            Op::Get | Op::Put | Op::Delete | Op::ChainPut | Op::ChainDelete | Op::CacheUpdate
        ) {
            let pipe = self.config.pipe_of_port(phv.ingress_port as usize);
            phv.meta.cache = self.lookup.lookup(pipe, &phv.pkt.netcache.key);
        }
        // A replicated partition's cached entry lives in its tail's pipe
        // (reads are served from the tail), which is not the pipe a write
        // is forwarded through: writes and commits traverse the entry's
        // pipe and leave on the chain's port.
        let entry_port = phv.meta.cache.map(|e| e.egress_port);
        let (port, action) = match self.chains.steer(phv) {
            Some(Steer::Head(head)) => (
                entry_port.unwrap_or(head),
                Action::Invalidate { head: Some(head) },
            ),
            Some(Steer::Next(next)) => (next, Action::Forward),
            Some(Steer::Tail(tail)) => (tail, Action::Read),
            Some(Steer::Commit) => {
                // The commit turns into the client's reply: route it back
                // by source, like a cached read.
                phv.meta.reply_port = self.router.lookup(phv.pkt.ipv4.src);
                (entry_port.unwrap_or(phv.ingress_port), Action::Commit)
            }
            Some(Steer::Drop) => {
                phv.meta.drop = true;
                return Action::Forward;
            }
            // Cache updates are consumed by the switch itself: steer to the
            // egress pipe that stores the value (the home server's port),
            // falling back to the ingress port when the entry is gone. The
            // routing table is never consulted — the switch's own IP needs
            // no route.
            None if op == Op::CacheUpdate => {
                (entry_port.unwrap_or(phv.ingress_port), Action::Update)
            }
            None => {
                self.router.route(phv);
                return match op {
                    Op::Get => Action::Read,
                    Op::Put | Op::Delete => Action::Invalidate { head: None },
                    _ => Action::Forward,
                };
            }
        };
        phv.meta.egress_port = Some(port);
        action
    }

    /// The egress pipeline of `pipe` (locked by the caller) for a packet
    /// the traffic manager steered to `egress_port`: returns the port the
    /// packet leaves on, or `None` if it is dropped.
    #[inline]
    fn egress(
        &self,
        pipe: &mut EgressPipe,
        phv: &mut Phv,
        action: Action,
        egress_port: PortId,
    ) -> Option<PortId> {
        let epoch = phv.epoch;
        let cache = phv.meta.cache;
        let op = phv.pkt.netcache.op;
        match action {
            Action::Forward => Some(egress_port),
            Action::Read => {
                let Some(entry) = cache else {
                    // Cache miss: heavy-hitter detection on the uncached key.
                    self.stats.cache_misses.fetch_add(1, Ordering::Relaxed);
                    pipe.stats.on_cache_miss(epoch, &phv.pkt.netcache.key);
                    return Some(egress_port);
                };
                let valid = pipe.status.check_valid(epoch, entry.key_index);
                // Statistics: cached keys are counted by the per-key counter
                // whether or not the entry is momentarily valid (popularity
                // is a property of the key).
                pipe.stats.on_cache_hit(epoch, entry.key_index);
                if valid {
                    let len = pipe.value_len.read(epoch, entry.key_index as usize);
                    // A multi-pass entry recirculates: the pipe mutex is
                    // held across all passes, so the multi-bin read is
                    // atomic with respect to concurrent updates — no packet
                    // can interleave between the passes.
                    let passes = entry.passes.max(1);
                    let base = self.value_epochs(epoch, passes);
                    if let Some(value) =
                        pipe.values
                            .read_value(base, entry.bitmap, entry.value_index, passes, len)
                    {
                        self.stats.cache_hits.fetch_add(1, Ordering::Relaxed);
                        let reply_port = phv
                            .meta
                            .reply_port
                            .expect("router saved reply route for cached read");
                        phv.pkt.make_reply(Op::GetReplyHit, Some(value));
                        // Mirror to the upstream port toward the client.
                        return Some(reply_port);
                    }
                    // Inconsistent controller state: fail safe by sending
                    // the query to the server.
                }
                self.stats.invalid_hits.fetch_add(1, Ordering::Relaxed);
                Some(egress_port)
            }
            Action::Invalidate { head } => {
                if let Some(entry) = cache {
                    pipe.status.invalidate(epoch, entry.key_index);
                    self.stats
                        .write_invalidations
                        .fetch_add(1, Ordering::Relaxed);
                }
                let Some(head) = head else {
                    if cache.is_some() {
                        // Tell the server the key is cached (§4.3:
                        // "modifies the operation field in the packet
                        // header").
                        phv.pkt.netcache.op = op
                            .cached_variant()
                            .expect("Put/Delete have cached variants");
                    }
                    return Some(egress_port);
                };
                // A write to a replicated partition enters its chain: the
                // head stamps the version (chain_version = 0 means
                // "unstamped").
                self.stats.chain_writes.fetch_add(1, Ordering::Relaxed);
                phv.pkt.netcache.op = if op == Op::Put {
                    Op::ChainPut
                } else {
                    Op::ChainDelete
                };
                phv.pkt.netcache.chain_version = 0;
                phv.pkt.refresh_lengths();
                Some(head)
            }
            Action::Update => {
                let value = phv.pkt.netcache.value.as_ref();
                let version = phv.pkt.netcache.seq;
                let freshness =
                    cache.and_then(|entry| self.write_entry(pipe, epoch, entry, value, version));
                let counter = if freshness == Some(cmp::Ordering::Greater) {
                    &self.stats.updates_applied
                } else {
                    &self.stats.updates_ignored
                };
                counter.fetch_add(1, Ordering::Relaxed);
                // Always acknowledge: the ack means "processed", and a
                // non-applied update leaves the entry invalid, which is
                // safe (reads go to the server).
                phv.pkt.make_reply(Op::CacheUpdateAck, None);
                Some(phv.ingress_port)
            }
            Action::Commit => {
                // The tail replica has committed: the cached copy (if any)
                // is brought up to the head-stamped version and the forward
                // is converted into the client's reply. Because the reply is
                // only produced here — after the tail's store and the
                // switch cache both hold the write — a client never sees an
                // ack for a value the cache could still serve stale (§4.3
                // freshness, extended across replicas).
                if let Some(entry) = cache {
                    if op == Op::ChainDelete {
                        // Deletes leave the entry invalid; the controller's
                        // repair pass re-fetches or evicts it.
                        pipe.status.invalidate(epoch, entry.key_index);
                    } else {
                        let value = phv.pkt.netcache.value.as_ref();
                        let version = phv.pkt.netcache.chain_version;
                        let counter = match self.write_entry(pipe, epoch, entry, value, version) {
                            Some(cmp::Ordering::Greater) => &self.stats.updates_applied,
                            Some(cmp::Ordering::Equal) => {
                                // Duplicate of the committed write (a client
                                // retransmission the head deduplicated): the
                                // value bytes are already in place, so just
                                // restore the valid bit the duplicate's
                                // invalidation cleared.
                                pipe.status.revalidate(epoch, entry.key_index);
                                &self.stats.updates_ignored
                            }
                            // Stale, or no value that fits: leave it invalid.
                            _ => &self.stats.updates_ignored,
                        };
                        counter.fetch_add(1, Ordering::Relaxed);
                    }
                }
                self.stats.chain_commits.fetch_add(1, Ordering::Relaxed);
                phv.pkt
                    .make_reply(op.reply_op().expect("chain ops have reply opcodes"), None);
                if phv.meta.reply_port.is_none() {
                    self.stats.drops.fetch_add(1, Ordering::Relaxed);
                }
                phv.meta.reply_port
            }
        }
    }

    /// The value-write action, shared by a server's `CacheUpdate` and a
    /// chain write committing at the tail: brings `entry` to `version`.
    ///
    /// The status stage precedes the value stages: its one read-modify-write
    /// of the version register decides whether the update is fresh
    /// *before* any value unit is written, so a stale retransmission
    /// arriving after a newer update has been applied cannot clobber the
    /// valid entry's bytes on its way to being ignored. Only a strictly
    /// newer version writes the value stages and the length register. The
    /// size check uses only lookup action data (bitmap popcount and pass
    /// count), so it costs no register access. A multi-pass write
    /// recirculates like a multi-pass read; the pipe mutex is held across
    /// all passes, so a Get can never observe a half-written multi-bin
    /// value (§4.3 atomicity extended to recirculated entries).
    ///
    /// Returns how `version` compares with the stored one, or `None`,
    /// touching no register, when there is no value or it does not fit the
    /// entry's allocation.
    fn write_entry(
        &self,
        pipe: &mut EgressPipe,
        epoch: u64,
        entry: LookupEntry,
        value: Option<&Value>,
        version: u32,
    ) -> Option<cmp::Ordering> {
        let value = value.filter(|v| {
            v.units() <= pipe.values.capacity_units(entry.bitmap, entry.passes)
                && pipe
                    .values
                    .entry_in_bounds(entry.bitmap, entry.value_index, entry.passes)
        })?;
        let freshness = pipe.status.apply_update(epoch, entry.key_index, version);
        if freshness == cmp::Ordering::Greater {
            let passes = entry.passes.max(1);
            let base = self.value_epochs(epoch, passes);
            let wrote =
                pipe.values
                    .write_value(base, entry.bitmap, entry.value_index, passes, value);
            debug_assert!(wrote, "size was prechecked against the allocation");
            pipe.value_len
                .write(epoch, entry.key_index as usize, value.len() as u16);
        }
        Some(freshness)
    }

    /// Processes a raw frame, parsing it first, and deparses the output
    /// frame into the caller-owned `scratch` buffer (reused across calls)
    /// for `emit`. Unparseable frames are dropped; non-NetCache frames
    /// would be forwarded by a real switch, but the reproduction's
    /// transports only carry NetCache traffic. This is the transport hot
    /// path — the UDP switch workers send straight from `scratch` without
    /// per-packet `Vec` churn.
    pub fn process_frame_with(
        &self,
        frame: &[u8],
        in_port: PortId,
        scratch: &mut Vec<u8>,
        mut emit: impl FnMut(PortId, &[u8]),
    ) {
        match Packet::parse(frame) {
            Ok(pkt) => {
                if let Some((port, out)) = self.process(pkt, in_port) {
                    out.deparse_into(scratch);
                    emit(port, scratch);
                }
            }
            Err(_) => {
                self.stats.drops.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Compiles the program against the ASIC profile, producing the
    /// placement / resource report of §6 from the tables and register
    /// arrays the switch allocates. One pipe's program is placed: every
    /// ingress pipe holds the same tables (on the chip, routes and chains
    /// are replicated per pipe like the lookup table) and every egress pipe
    /// the same arrays.
    pub fn compile_report(&self) -> Result<ResourceReport, PlacementError> {
        let profile = &self.config.profile;
        let mut ingress = StageMap::new(*profile, Direction::Ingress);
        let lookup_stage = ingress.place(0, self.lookup.allocation())?;
        // Chain steering consumes the lookup result (a cached read is never
        // steered); routing follows it (a chain commit routes back to the
        // client).
        let chain_stage = ingress.place(lookup_stage + 1, self.chains.allocation())?;
        ingress.place(chain_stage + 1, self.router.allocation())?;

        let mut egress = StageMap::new(*profile, Direction::Egress);
        let pipe = self.egress[0].lock();
        let (valid, version) = pipe.status.arrays();
        let status_stage = egress.place_all(
            0,
            [
                valid.allocation(profile),
                version.allocation(profile),
                pipe.value_len.allocation(profile),
            ],
        )?;
        // Statistics: counters + CMS rows may share a stage (independent
        // accesses); Bloom depends on the CMS estimate.
        let counters_stage =
            egress.place(status_stage + 1, pipe.stats.counters().allocation(profile)?)?;
        let cms_stage = egress.place_all(
            counters_stage,
            pipe.stats.cms_rows().iter().map(|r| r.allocation(profile)),
        )?;
        let mut stage = egress.place_all(
            cms_stage + 1,
            pipe.stats
                .bloom_parts()
                .iter()
                .map(|p| p.allocation(profile)),
        )?;
        // Value stages: one register array per stage, strictly sequential
        // (each appends after the previous).
        for array in pipe.values.stages() {
            stage = egress.place(stage + 1, array.allocation(profile)?)?;
        }

        Ok(ResourceReport {
            profile: *profile,
            ingress,
            egress,
        })
    }
}

/// The control plane: the switch driver the controller uses (§3: "It
/// communicates with the switch ASIC through a switch driver in the switch
/// OS"). Every mutating call counts against the bounded control-plane
/// update rate, observable via [`NetCacheSwitch::control_updates`].
impl NetCacheSwitch {
    /// Installs a cache lookup entry for `key` in every ingress replica.
    pub fn insert_entry(&mut self, key: Key, entry: LookupEntry) -> Result<(), TableError> {
        self.control_updates += self.config.pipes as u64;
        self.lookup.insert(key, entry)
    }

    /// Removes the lookup entry for `key`.
    pub fn remove_entry(&mut self, key: &Key) -> Result<LookupEntry, TableError> {
        self.control_updates += self.config.pipes as u64;
        self.lookup.remove(key)
    }

    /// Reads the lookup entry for `key` without data-plane effects.
    pub fn peek_entry(&self, key: &Key) -> Option<LookupEntry> {
        self.lookup.lookup(0, key)
    }

    /// Writes a value into the value arrays of egress pipe `pipe`. A
    /// `passes > 1` entry spans consecutive bins starting at `index`.
    pub fn write_value(
        &mut self,
        pipe: usize,
        bitmap: u8,
        index: u32,
        passes: u8,
        value: &Value,
    ) -> bool {
        self.control_updates += 1;
        self.egress[pipe]
            .get_mut()
            .values
            .poke_value(bitmap, index, passes, value)
    }

    /// Reads a value back from egress pipe `pipe` (testing/verification).
    pub fn peek_value(
        &self,
        pipe: usize,
        bitmap: u8,
        index: u32,
        passes: u8,
        value_len: u16,
    ) -> Option<Value> {
        self.egress[pipe]
            .lock()
            .values
            .peek_value(bitmap, index, passes, value_len)
    }

    /// The last step of a cache insertion: records the true value length
    /// of `key_index` (read by the data plane to trim the final 16-byte
    /// unit) and marks it valid with `version` — two register writes.
    pub fn install_status(&mut self, pipe: usize, key_index: u32, version: u32, value_len: u16) {
        self.control_updates += 2;
        let p = self.egress[pipe].get_mut();
        p.value_len.poke(key_index as usize, value_len);
        p.status.install(key_index, version);
    }

    /// Clears `key_index` when its key is evicted.
    pub fn evict_status(&mut self, pipe: usize, key_index: u32) {
        self.control_updates += 1;
        let p = self.egress[pipe].get_mut();
        p.status.evict(key_index);
        p.value_len.poke(key_index as usize, 0);
    }

    /// Whether `key_index` currently holds a valid value (control-plane
    /// read, used by the controller's repair pass).
    pub fn peek_valid(&self, pipe: usize, key_index: u32) -> bool {
        self.egress[pipe].lock().status.peek_valid(key_index)
    }

    /// Marks `key_index` invalid without touching its version (used while
    /// the controller moves a value between slots).
    pub fn invalidate_status(&mut self, pipe: usize, key_index: u32) {
        self.control_updates += 1;
        self.egress[pipe]
            .get_mut()
            .status
            .set_valid(key_index, false);
    }

    /// Marks `key_index` valid again without touching its version.
    pub fn revalidate_status(&mut self, pipe: usize, key_index: u32) {
        self.control_updates += 1;
        self.egress[pipe]
            .get_mut()
            .status
            .set_valid(key_index, true);
    }

    /// The true value length currently recorded for `key_index`.
    pub fn peek_value_len(&self, pipe: usize, key_index: u32) -> u16 {
        self.egress[pipe].lock().value_len.peek(key_index as usize)
    }

    /// Reads the per-key hit counter.
    pub fn read_counter(&self, pipe: usize, key_index: u32) -> u16 {
        self.egress[pipe].lock().stats.read_counter(key_index)
    }

    /// Zeroes the per-key hit counter (slot reassignment).
    pub fn reset_counter(&mut self, pipe: usize, key_index: u32) {
        self.control_updates += 1;
        self.egress[pipe].get_mut().stats.reset_counter(key_index);
    }

    /// Drains heavy-hitter reports from all egress pipes.
    pub fn drain_reports(&mut self) -> Vec<HotReport> {
        let mut all = Vec::new();
        for pipe in &mut self.egress {
            all.extend(pipe.get_mut().stats.drain_reports());
        }
        all
    }

    /// Clears all statistics (the periodic reset).
    pub fn reset_statistics(&mut self) {
        self.control_updates += 1;
        for pipe in &mut self.egress {
            pipe.get_mut().stats.reset_all();
        }
    }

    /// Reconfigures the statistics sampling rate.
    pub fn set_sample_rate(&mut self, rate: f64) {
        self.control_updates += 1;
        for pipe in &mut self.egress {
            pipe.get_mut().stats.set_sample_rate(rate);
        }
    }

    /// Reconfigures the heavy-hitter threshold.
    pub fn set_hot_threshold(&mut self, threshold: u16) {
        self.control_updates += 1;
        for pipe in &mut self.egress {
            pipe.get_mut().stats.set_hot_threshold(threshold);
        }
    }

    /// Installs an L3 route.
    ///
    /// # Panics
    ///
    /// Panics if the route is new and the table already holds one route
    /// per port.
    pub fn add_route(&mut self, prefix: u32, len: u8, port: PortId) {
        self.control_updates += 1;
        self.router.add_route(prefix, len, port);
    }

    /// Number of cached keys.
    pub fn cached_keys(&self) -> usize {
        self.lookup.len()
    }

    /// Installs (or replaces) the replication chain for the partition whose
    /// static home IP is `home_ip`. `hops` is in head→tail order.
    ///
    /// # Panics
    ///
    /// Panics if `hops` is empty or longer than the port count.
    pub fn set_chain(&mut self, home_ip: u32, hops: Vec<ChainHop>) {
        self.control_updates += 1;
        self.chains.insert(home_ip, hops);
    }

    /// Removes the replication chain for `home_ip`.
    pub fn clear_chain(&mut self, home_ip: u32) {
        self.control_updates += 1;
        self.chains.remove(home_ip);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CLIENT_IP: u32 = 0x0a00_0001;
    const SERVER_IP: u32 = 0x0a00_0101;
    const SWITCH_IP: u32 = 0x0a00_00fe;
    const CLIENT_PORT: PortId = 7;
    const SERVER_PORT: PortId = 1;

    fn switch() -> NetCacheSwitch {
        let mut sw = NetCacheSwitch::new(SwitchConfig::tiny()).unwrap();
        sw.add_route(CLIENT_IP, 32, CLIENT_PORT);
        sw.add_route(SERVER_IP, 32, SERVER_PORT);
        sw.add_route(SWITCH_IP, 32, 0);
        sw
    }

    /// Installs `key` in the cache the way the controller would: the tail
    /// units in the final bin's bitmap, full bins for every earlier pass.
    fn install(sw: &mut NetCacheSwitch, key: Key, value: &Value, key_index: u32, index: u32) {
        let passes = value.passes() as u8;
        let tail = value.units() - (passes as usize - 1) * 8;
        let bitmap = ((1u16 << tail) - 1) as u8;
        assert!(sw.write_value(0, bitmap, index, passes, value));
        sw.insert_entry(
            key,
            LookupEntry {
                bitmap,
                value_index: index,
                key_index,
                egress_port: SERVER_PORT,
                value_len: value.len() as u16,
                passes,
            },
        )
        .unwrap();
        sw.install_status(0, key_index, 1, value.len() as u16);
    }

    #[test]
    fn cache_hit_served_back_to_client() {
        let mut sw = switch();
        let key = Key::from_u64(42);
        let value = Value::for_item(42, 48);
        install(&mut sw, key, &value, 0, 0);

        let query = Packet::get_query(1, CLIENT_IP, SERVER_IP, key, 5);
        let out = sw.process(query, CLIENT_PORT).expect("one output");
        let (port, reply) = &out;
        assert_eq!(*port, CLIENT_PORT, "mirrored to the client's port");
        assert_eq!(reply.netcache.op, Op::GetReplyHit);
        assert_eq!(reply.netcache.value.as_ref().unwrap(), &value);
        assert_eq!(reply.ipv4.dst, CLIENT_IP);
        assert_eq!(reply.netcache.seq, 5, "other fields retained");
        assert_eq!(sw.stats().cache_hits, 1);
    }

    #[test]
    fn multi_pass_hit_recirculates_and_serves_wide_value() {
        let mut sw = switch();
        let key = Key::from_u64(77);
        let value = Value::for_item(77, 300); // 19 units = 3 passes
        install(&mut sw, key, &value, 0, 0);

        let query = Packet::get_query(1, CLIENT_IP, SERVER_IP, key, 5);
        let out = sw.process(query, CLIENT_PORT).expect("one output");
        let (port, reply) = &out;
        assert_eq!(*port, CLIENT_PORT);
        assert_eq!(reply.netcache.op, Op::GetReplyHit);
        assert_eq!(reply.netcache.value.as_ref().unwrap(), &value);
        assert_eq!(sw.stats().cache_hits, 1);
        assert_eq!(
            sw.stats().recirculations,
            2,
            "3 passes = 1 traversal + 2 recirculations"
        );
        assert_eq!(sw.passes_for(&key), 3);
        assert_eq!(sw.passes_for(&Key::from_u64(9999)), 1, "uncached: 1 pass");
    }

    #[test]
    fn one_pass_values_never_recirculate() {
        // Values up to 128 B (8 units) fit one traversal; one byte more
        // costs exactly one recirculation.
        for (len, recirculations) in [(64, 0), (128, 0), (129, 1)] {
            let mut sw = switch();
            let key = Key::from_u64(len as u64);
            let value = Value::for_item(len as u64, len);
            install(&mut sw, key, &value, 0, 0);
            let out = sw
                .process(
                    Packet::get_query(1, CLIENT_IP, SERVER_IP, key, 1),
                    CLIENT_PORT,
                )
                .expect("one output");
            assert_eq!(out.1.netcache.op, Op::GetReplyHit, "{len} B");
            assert_eq!(out.1.netcache.value.as_ref().unwrap(), &value, "{len} B");
            assert_eq!(sw.stats().recirculations, recirculations, "{len} B");
        }
    }

    #[test]
    fn max_width_value_served_at_the_pass_budget() {
        let mut sw = switch();
        let key = Key::from_u64(2048);
        let value = Value::for_item(9, 2048); // 128 units = 16 passes
        install(&mut sw, key, &value, 0, 0);
        let out = sw
            .process(
                Packet::get_query(1, CLIENT_IP, SERVER_IP, key, 1),
                CLIENT_PORT,
            )
            .expect("one output");
        assert_eq!(out.1.netcache.value.as_ref().unwrap(), &value);
        assert_eq!(sw.stats().recirculations, 15);
    }

    #[test]
    fn cache_update_refreshes_multi_pass_entry() {
        let mut sw = switch();
        let key = Key::from_u64(3);
        install(&mut sw, key, &Value::for_item(3, 300), 0, 0);

        // Write invalidates; the server pushes a *smaller* replacement
        // through the same 3-pass allocation (§4.3: no larger).
        let put = Packet::put_query(1, CLIENT_IP, SERVER_IP, key, 2, Value::for_item(4, 200));
        sw.process(put, CLIENT_PORT);
        let update = Packet::cache_update(SERVER_IP, SWITCH_IP, key, 2, Value::for_item(4, 200));
        let out = sw.process(update, SERVER_PORT).expect("one output");
        assert_eq!(out.1.netcache.op, Op::CacheUpdateAck);
        assert_eq!(sw.stats().updates_applied, 1);

        let get = Packet::get_query(1, CLIENT_IP, SERVER_IP, key, 3);
        let out = sw.process(get, CLIENT_PORT).expect("one output");
        assert_eq!(out.1.netcache.op, Op::GetReplyHit);
        assert_eq!(
            out.1.netcache.value.as_ref().unwrap(),
            &Value::for_item(4, 200)
        );

        // An update wider than the 3-pass allocation is ignored.
        let put = Packet::put_query(1, CLIENT_IP, SERVER_IP, key, 4, Value::for_item(5, 400));
        sw.process(put, CLIENT_PORT);
        let update = Packet::cache_update(SERVER_IP, SWITCH_IP, key, 4, Value::for_item(5, 400));
        sw.process(update, SERVER_PORT);
        assert_eq!(sw.stats().updates_ignored, 1);
        let out = sw
            .process(
                Packet::get_query(1, CLIENT_IP, SERVER_IP, key, 5),
                CLIENT_PORT,
            )
            .expect("one output");
        assert_eq!(out.0, SERVER_PORT, "entry stays invalid");
    }

    #[test]
    fn cache_miss_forwarded_to_server() {
        let sw = switch();
        let query = Packet::get_query(1, CLIENT_IP, SERVER_IP, Key::from_u64(9), 0);
        let out = sw.process(query.clone(), CLIENT_PORT).expect("one output");
        assert_eq!(out.0, SERVER_PORT);
        assert_eq!(out.1, query, "miss forwards the query unchanged");
        assert_eq!(sw.stats().cache_misses, 1);
    }

    #[test]
    fn write_to_cached_key_invalidates_and_rewrites_op() {
        let mut sw = switch();
        let key = Key::from_u64(1);
        install(&mut sw, key, &Value::filled(1, 16), 0, 0);

        let put = Packet::put_query(1, CLIENT_IP, SERVER_IP, key, 2, Value::filled(2, 16));
        let out = sw.process(put, CLIENT_PORT).expect("one output");
        assert_eq!(out.0, SERVER_PORT);
        assert_eq!(out.1.netcache.op, Op::PutCached);
        assert_eq!(sw.stats().write_invalidations, 1);

        // Subsequent read must go to the server, not the stale cache.
        let get = Packet::get_query(1, CLIENT_IP, SERVER_IP, key, 3);
        let out = sw.process(get, CLIENT_PORT).expect("one output");
        assert_eq!(out.0, SERVER_PORT);
        assert_eq!(out.1.netcache.op, Op::Get);
        assert_eq!(sw.stats().invalid_hits, 1);
    }

    #[test]
    fn write_to_uncached_key_passes_through() {
        let sw = switch();
        let put = Packet::put_query(
            1,
            CLIENT_IP,
            SERVER_IP,
            Key::from_u64(5),
            2,
            Value::filled(2, 16),
        );
        let out = sw.process(put.clone(), CLIENT_PORT).expect("one output");
        assert_eq!(out.1.netcache.op, Op::Put, "op unchanged for uncached");
        assert_eq!(sw.stats().write_invalidations, 0);
    }

    #[test]
    fn cache_update_revalidates_with_new_value() {
        let mut sw = switch();
        let key = Key::from_u64(1);
        install(&mut sw, key, &Value::filled(1, 32), 0, 0);

        // Write invalidates.
        let put = Packet::put_query(1, CLIENT_IP, SERVER_IP, key, 2, Value::filled(9, 32));
        sw.process(put, CLIENT_PORT);

        // Server pushes the new value with version 2.
        let update = Packet::cache_update(SERVER_IP, SWITCH_IP, key, 2, Value::filled(9, 32));
        let out = sw.process(update, SERVER_PORT).expect("one output");
        assert_eq!(out.1.netcache.op, Op::CacheUpdateAck);
        assert_eq!(out.0, SERVER_PORT, "ack returns to the server");
        assert_eq!(sw.stats().updates_applied, 1);

        // Read is now served by the cache with the new value.
        let get = Packet::get_query(1, CLIENT_IP, SERVER_IP, key, 3);
        let out = sw.process(get, CLIENT_PORT).expect("one output");
        assert_eq!(out.1.netcache.op, Op::GetReplyHit);
        assert_eq!(
            out.1.netcache.value.as_ref().unwrap(),
            &Value::filled(9, 32)
        );
    }

    /// A stale (already superseded) update replayed at a *valid* entry —
    /// e.g. a server retransmission whose original was acked late — must
    /// not write a single value byte: the version check gates the value
    /// stages. (Regression: the value was written before the check, so a
    /// replay served old bytes under a valid entry until the next write.)
    #[test]
    fn stale_cache_update_does_not_clobber_valid_value() {
        let mut sw = switch();
        let key = Key::from_u64(1);
        install(&mut sw, key, &Value::filled(1, 16), 0, 0); // version 1

        // Write → update(v2) → applied: entry valid with v2's value.
        let put = Packet::put_query(1, CLIENT_IP, SERVER_IP, key, 2, Value::filled(2, 16));
        sw.process(put, CLIENT_PORT);
        let update = Packet::cache_update(SERVER_IP, SWITCH_IP, key, 2, Value::filled(2, 16));
        sw.process(update, SERVER_PORT);
        assert_eq!(sw.stats().updates_applied, 1);

        // A duplicate of the v2 update (same version = not newer) arrives
        // while the entry is valid, carrying different bytes.
        let replay = Packet::cache_update(SERVER_IP, SWITCH_IP, key, 2, Value::filled(0x66, 16));
        sw.process(replay, SERVER_PORT);
        assert_eq!(sw.stats().updates_ignored, 1);

        let get = Packet::get_query(1, CLIENT_IP, SERVER_IP, key, 3);
        let out = sw.process(get, CLIENT_PORT).expect("one output");
        assert_eq!(out.1.netcache.op, Op::GetReplyHit, "entry stays valid");
        assert_eq!(
            out.1.netcache.value.as_ref().unwrap(),
            &Value::filled(2, 16),
            "replayed stale update must not overwrite the live value"
        );
    }

    #[test]
    fn stale_cache_update_ignored_but_acked() {
        let mut sw = switch();
        let key = Key::from_u64(1);
        install(&mut sw, key, &Value::filled(1, 16), 0, 0); // version 1

        let put = Packet::put_query(1, CLIENT_IP, SERVER_IP, key, 2, Value::filled(2, 16));
        sw.process(put, CLIENT_PORT);
        // A stale/duplicate update with version 1 must not revalidate.
        let update = Packet::cache_update(SERVER_IP, SWITCH_IP, key, 1, Value::filled(8, 16));
        let out = sw.process(update, SERVER_PORT).expect("one output");
        assert_eq!(out.1.netcache.op, Op::CacheUpdateAck);
        assert_eq!(sw.stats().updates_ignored, 1);

        let get = Packet::get_query(1, CLIENT_IP, SERVER_IP, key, 3);
        let out = sw.process(get, CLIENT_PORT).expect("one output");
        assert_eq!(out.0, SERVER_PORT, "entry must stay invalid");
    }

    #[test]
    fn oversized_cache_update_leaves_entry_invalid() {
        let mut sw = switch();
        let key = Key::from_u64(1);
        install(&mut sw, key, &Value::filled(1, 16), 0, 0); // 1 unit allocated

        let put = Packet::put_query(1, CLIENT_IP, SERVER_IP, key, 2, Value::filled(2, 64));
        sw.process(put, CLIENT_PORT);
        let update = Packet::cache_update(SERVER_IP, SWITCH_IP, key, 2, Value::filled(2, 64));
        let out = sw.process(update, SERVER_PORT).expect("one output");
        assert_eq!(out.1.netcache.op, Op::CacheUpdateAck);
        assert_eq!(sw.stats().updates_ignored, 1);
        let get = Packet::get_query(1, CLIENT_IP, SERVER_IP, key, 3);
        let out = sw.process(get, CLIENT_PORT).expect("one output");
        assert_eq!(out.0, SERVER_PORT);
    }

    #[test]
    fn update_for_evicted_key_acked_without_write() {
        let sw = switch();
        let update = Packet::cache_update(
            SERVER_IP,
            SWITCH_IP,
            Key::from_u64(77),
            1,
            Value::filled(1, 16),
        );
        let out = sw.process(update, SERVER_PORT).expect("one output");
        assert_eq!(out.1.netcache.op, Op::CacheUpdateAck);
        assert_eq!(sw.stats().updates_ignored, 1);
    }

    #[test]
    fn hot_uncached_keys_reported_once() {
        let mut sw = switch();
        let key = Key::from_u64(1234);
        for seq in 0..20 {
            let get = Packet::get_query(1, CLIENT_IP, SERVER_IP, key, seq);
            sw.process(get, CLIENT_PORT);
        }
        let reports = sw.drain_reports();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].key, key);
    }

    #[test]
    fn replies_forwarded_not_cached_matched() {
        let mut sw = switch();
        let key = Key::from_u64(42);
        install(&mut sw, key, &Value::filled(1, 16), 0, 0);
        // A reply from the server for the cached key must just pass through
        // toward the client (it must not hit the cache path).
        let reply = Packet::get_query(1, SERVER_IP, CLIENT_IP, key, 0)
            .into_reply(Op::GetReplyMiss, Some(Value::filled(3, 16)));
        // into_reply swapped src/dst, so dst is SERVER... build manually:
        let mut reply = reply;
        reply.ipv4.src = SERVER_IP;
        reply.ipv4.dst = CLIENT_IP;
        let out = sw.process(reply, SERVER_PORT).expect("one output");
        assert_eq!(out.0, CLIENT_PORT);
        assert_eq!(out.1.netcache.op, Op::GetReplyMiss);
        assert_eq!(sw.stats().cache_hits, 0);
    }

    #[test]
    fn reboot_clears_cache_keeps_routes() {
        let mut sw = switch();
        let key = Key::from_u64(42);
        install(&mut sw, key, &Value::filled(1, 16), 0, 0);
        sw.reboot();
        assert_eq!(sw.cached_keys(), 0);
        let get = Packet::get_query(1, CLIENT_IP, SERVER_IP, key, 0);
        let out = sw.process(get, CLIENT_PORT).expect("one output");
        assert_eq!(out.0, SERVER_PORT, "routes survive, cache does not");
    }

    /// Runs `frame` through [`NetCacheSwitch::process_frame_with`],
    /// returning what it emitted.
    fn process_frame(sw: &NetCacheSwitch, frame: &[u8]) -> Vec<(PortId, Vec<u8>)> {
        let mut out = Vec::new();
        sw.process_frame_with(frame, CLIENT_PORT, &mut Vec::new(), |port, bytes| {
            out.push((port, bytes.to_vec()))
        });
        out
    }

    #[test]
    fn frame_round_trip() {
        let mut sw = switch();
        let key = Key::from_u64(42);
        let value = Value::for_item(42, 64);
        install(&mut sw, key, &value, 0, 0);
        let query = Packet::get_query(1, CLIENT_IP, SERVER_IP, key, 5).deparse();
        let out = process_frame(&sw, &query);
        assert_eq!(out.len(), 1, "one output");
        let reply = Packet::parse(&out[0].1).unwrap();
        assert_eq!(reply.netcache.value.unwrap(), value);
    }

    #[test]
    fn malformed_frames_dropped() {
        let sw = switch();
        assert!(process_frame(&sw, &[0u8; 10]).is_empty());
        assert_eq!(sw.stats().drops, 1);
    }

    #[test]
    fn prototype_fits_asic_under_50_percent() {
        let sw = NetCacheSwitch::new(SwitchConfig::prototype()).unwrap();
        let report = sw.compile_report().unwrap();
        assert!(
            report.sram_fraction() < 0.5,
            "paper claims <50%, got {:.1}%",
            report.sram_fraction() * 100.0
        );
    }

    /// The resource report is the switch's own allocations: every match
    /// table (chain table included) and every register array of every
    /// egress pipe appears in it with its own size, and nothing else does.
    #[test]
    fn compile_report_accounts_every_allocation() {
        let mut sw = NetCacheSwitch::new(SwitchConfig {
            pipes: 2,
            ..SwitchConfig::prototype()
        })
        .unwrap();
        sw.set_chain(
            SERVER_IP,
            vec![ChainHop {
                ip: SERVER_IP,
                port: SERVER_PORT,
            }],
        );
        let report = sw.compile_report().unwrap();
        let rows = |map: &StageMap| {
            let mut rows: Vec<(String, usize)> = map
                .stages()
                .iter()
                .flatten()
                .map(|a| (a.name.clone(), a.sram_bytes))
                .collect();
            rows.sort();
            rows
        };
        let mut tables: Vec<(String, usize)> = [
            sw.lookup.allocation(),
            sw.chains.allocation(),
            sw.router.allocation(),
        ]
        .into_iter()
        .map(|a| (a.name, a.sram_bytes))
        .collect();
        tables.sort();
        assert_eq!(rows(&report.ingress), tables);
        let ports = sw.config.ports;
        assert!(tables.contains(&("chain_steering".into(), ports * (5 + ports * 6))));
        assert!(tables.contains(&("l3_routing".into(), ports * 7)));

        for (p, pipe) in sw.egress.iter().enumerate() {
            let pipe = pipe.lock();
            let (valid, version) = pipe.status.arrays();
            let mut arrays = vec![
                (valid.name().to_string(), valid.sram_bytes()),
                (version.name().to_string(), version.sram_bytes()),
                (
                    pipe.value_len.name().to_string(),
                    pipe.value_len.sram_bytes(),
                ),
                (
                    pipe.stats.counters().name().to_string(),
                    pipe.stats.counters().sram_bytes(),
                ),
            ];
            for a in pipe.stats.cms_rows() {
                arrays.push((a.name().to_string(), a.sram_bytes()));
            }
            for a in pipe.stats.bloom_parts() {
                arrays.push((a.name().to_string(), a.sram_bytes()));
            }
            for a in pipe.values.stages() {
                arrays.push((a.name().to_string(), a.sram_bytes()));
            }
            arrays.sort();
            assert_eq!(rows(&report.egress), arrays, "egress pipe {p}");
        }
    }

    #[test]
    fn control_updates_counted() {
        let mut sw = switch();
        let before = sw.control_updates();
        install(&mut sw, Key::from_u64(9), &Value::filled(1, 16), 1, 1);
        assert!(sw.control_updates() > before);
    }

    const REPLICA_IP: u32 = 0x0a00_0102;
    const REPLICA_PORT: PortId = 2;

    /// A two-replica chain on the home IP: head = the home server itself,
    /// tail = the next server over.
    fn chained_switch() -> NetCacheSwitch {
        let mut sw = switch();
        sw.add_route(REPLICA_IP, 32, REPLICA_PORT);
        sw.set_chain(
            SERVER_IP,
            vec![
                ChainHop {
                    ip: SERVER_IP,
                    port: SERVER_PORT,
                },
                ChainHop {
                    ip: REPLICA_IP,
                    port: REPLICA_PORT,
                },
            ],
        );
        sw
    }

    #[test]
    fn client_write_steered_to_chain_head() {
        let sw = chained_switch();
        let put = Packet::put_query(
            1,
            CLIENT_IP,
            SERVER_IP,
            Key::from_u64(4),
            2,
            Value::filled(3, 16),
        );
        let out = sw.process(put, CLIENT_PORT).expect("one output");
        assert_eq!(out.0, SERVER_PORT, "head gets the write first");
        assert_eq!(out.1.netcache.op, Op::ChainPut);
        assert_eq!(out.1.netcache.chain_version, 0, "unstamped until head");
        assert_eq!(sw.stats().chain_writes, 1);
    }

    #[test]
    fn chain_forward_hops_head_to_tail_then_replies() {
        let sw = chained_switch();
        // A stamped forward re-emitted by the head arrives on the head's
        // port: it must hop to the tail.
        let mut fwd = Packet::put_query(
            1,
            CLIENT_IP,
            SERVER_IP,
            Key::from_u64(4),
            2,
            Value::filled(3, 16),
        );
        fwd.netcache.op = Op::ChainPut;
        fwd.netcache.chain_version = 7;
        fwd.refresh_lengths();
        let out = sw.process(fwd.clone(), SERVER_PORT).expect("one output");
        assert_eq!(out.0, REPLICA_PORT, "mid-chain hop goes to successor");
        assert_eq!(out.1.netcache.op, Op::ChainPut);

        // The same forward re-emitted by the tail converts to the reply.
        let out = sw.process(fwd, REPLICA_PORT).expect("one output");
        assert_eq!(out.0, CLIENT_PORT);
        assert_eq!(out.1.netcache.op, Op::PutReply);
        assert_eq!(out.1.ipv4.dst, CLIENT_IP);
        assert_eq!(out.1.netcache.seq, 2);
        assert_eq!(sw.stats().chain_commits, 1);
    }

    #[test]
    fn tail_commit_refreshes_cached_value() {
        let mut sw = chained_switch();
        let key = Key::from_u64(4);
        // The controller caches the key with the entry homed at the TAIL's
        // port (read-from-tail); the forwarding path still goes through the
        // head, so the entry's pipe is not the forwarding pipe.
        let bitmap = 1u8;
        sw.write_value(0, bitmap, 0, 1, &Value::filled(1, 16));
        sw.insert_entry(
            key,
            LookupEntry {
                bitmap,
                value_index: 0,
                key_index: 0,
                egress_port: REPLICA_PORT,
                value_len: 16,
                passes: 1,
            },
        )
        .unwrap();
        sw.install_status(0, 0, 1, 16);

        // Client write: entry invalidated, write steered to the head.
        let put = Packet::put_query(1, CLIENT_IP, SERVER_IP, key, 9, Value::filled(7, 16));
        let out = sw.process(put, CLIENT_PORT).expect("one output");
        assert_eq!(out.1.netcache.op, Op::ChainPut);
        assert_eq!(sw.stats().write_invalidations, 1);
        let get = Packet::get_query(1, CLIENT_IP, SERVER_IP, key, 10);
        let out = sw.process(get.clone(), CLIENT_PORT).expect("one output");
        assert_eq!(out.0, REPLICA_PORT, "invalid entry: read goes to tail");

        // Head stamps version 2, forwards; tail re-emits → cache refreshed
        // in the same traversal that produces the client reply.
        let mut fwd = Packet::put_query(1, CLIENT_IP, SERVER_IP, key, 9, Value::filled(7, 16));
        fwd.netcache.op = Op::ChainPut;
        fwd.netcache.chain_version = 2;
        fwd.refresh_lengths();
        sw.process(fwd.clone(), SERVER_PORT);
        let out = sw.process(fwd.clone(), REPLICA_PORT).expect("one output");
        assert_eq!(out.1.netcache.op, Op::PutReply);
        assert_eq!(sw.stats().updates_applied, 1);

        let out = sw.process(get.clone(), CLIENT_PORT).expect("one output");
        assert_eq!(out.1.netcache.op, Op::GetReplyHit);
        assert_eq!(
            out.1.netcache.value.as_ref().unwrap(),
            &Value::filled(7, 16)
        );
        assert_eq!(sw.egress[0].lock().status.peek_version(0), 2);

        // A duplicate of the SAME committed write (client retransmission):
        // the client-facing invalidation is healed by the equal-version
        // tail conversion without rewriting the bytes.
        let dup = Packet::put_query(1, CLIENT_IP, SERVER_IP, key, 9, Value::filled(7, 16));
        sw.process(dup, CLIENT_PORT); // invalidates again
        sw.process(fwd.clone(), SERVER_PORT);
        let out = sw.process(fwd, REPLICA_PORT).expect("one output");
        assert_eq!(out.1.netcache.op, Op::PutReply);
        let out = sw.process(get, CLIENT_PORT).expect("one output");
        assert_eq!(
            out.1.netcache.op,
            Op::GetReplyHit,
            "equal-version duplicate revalidates the entry"
        );
    }

    #[test]
    fn chain_delete_invalidates_entry_at_tail() {
        let mut sw = chained_switch();
        let key = Key::from_u64(4);
        install(&mut sw, key, &Value::filled(1, 16), 0, 0);
        let mut fwd = Packet::delete_query(1, CLIENT_IP, SERVER_IP, key, 3);
        fwd.netcache.op = Op::ChainDelete;
        fwd.netcache.chain_version = 2;
        fwd.refresh_lengths();
        let out = sw.process(fwd, REPLICA_PORT).expect("one output");
        assert_eq!(out.1.netcache.op, Op::DeleteReply);
        let get = Packet::get_query(1, CLIENT_IP, SERVER_IP, key, 4);
        let out = sw.process(get, CLIENT_PORT).expect("one output");
        assert_ne!(out.1.netcache.op, Op::GetReplyHit, "entry invalidated");
    }

    #[test]
    fn stale_chain_sender_dropped() {
        let sw = chained_switch();
        let mut fwd = Packet::put_query(
            1,
            CLIENT_IP,
            SERVER_IP,
            Key::from_u64(4),
            2,
            Value::filled(3, 16),
        );
        fwd.netcache.op = Op::ChainPut;
        fwd.netcache.chain_version = 7;
        fwd.refresh_lengths();
        // Arrives on a port that is not part of the chain (a spliced-out
        // replica flushing a stale forward).
        let out = sw.process(fwd, CLIENT_PORT);
        assert!(out.is_none());
        assert_eq!(sw.stats().drops, 1);
    }

    #[test]
    fn uncached_get_reads_from_tail() {
        let sw = chained_switch();
        let get = Packet::get_query(1, CLIENT_IP, SERVER_IP, Key::from_u64(11), 0);
        let out = sw.process(get, CLIENT_PORT).expect("one output");
        assert_eq!(out.0, REPLICA_PORT, "reads go to the tail replica");
        assert_eq!(out.1.netcache.op, Op::Get);
        assert_eq!(sw.stats().cache_misses, 1);
    }

    #[test]
    fn chains_survive_reboot_and_clear() {
        let mut sw = chained_switch();
        sw.reboot();
        assert!(sw.chains.hops(SERVER_IP).is_some(), "chains survive reboot");
        let get = Packet::get_query(1, CLIENT_IP, SERVER_IP, Key::from_u64(11), 0);
        assert_eq!(
            sw.process(get.clone(), CLIENT_PORT).expect("one output").0,
            REPLICA_PORT
        );
        sw.clear_chain(SERVER_IP);
        assert!(sw.chains.hops(SERVER_IP).is_none());
        assert_eq!(
            sw.process(get, CLIENT_PORT).expect("one output").0,
            SERVER_PORT,
            "without a chain the home server serves reads again"
        );
    }

    #[test]
    fn writes_to_unchained_partition_unaffected() {
        let sw = chained_switch();
        let put = Packet::put_query(
            1,
            CLIENT_IP,
            0x0a00_0103,
            Key::from_u64(5),
            2,
            Value::filled(2, 16),
        );
        // No route for that IP → dropped, but crucially NOT chain-steered.
        let out = sw.process(put, CLIENT_PORT);
        assert!(out.is_none());
        assert_eq!(sw.stats().chain_writes, 0);
    }

    /// A chain whose head (port 1) and tail (port 5) sit in different
    /// egress pipes of a 2-pipe switch: the tail-homed entry lives in pipe
    /// 1 while client writes are forwarded through the head's pipe 0.
    /// Every cross-pipe branch must touch the pipe of the entry it serves
    /// and leave an unrelated entry at the same key index in the other
    /// pipe alone.
    #[test]
    fn chain_across_pipes_touches_only_the_entry_pipe() {
        const TAIL_IP: u32 = 0x0a00_0105;
        const TAIL_PORT: PortId = 5;
        let mut sw = NetCacheSwitch::new(SwitchConfig {
            pipes: 2,
            ..SwitchConfig::tiny()
        })
        .unwrap();
        assert_eq!(sw.config().pipe_of_port(SERVER_PORT as usize), 0);
        assert_eq!(sw.config().pipe_of_port(TAIL_PORT as usize), 1);
        sw.add_route(CLIENT_IP, 32, CLIENT_PORT);
        sw.add_route(SERVER_IP, 32, SERVER_PORT);
        sw.add_route(TAIL_IP, 32, TAIL_PORT);
        sw.set_chain(
            SERVER_IP,
            vec![
                ChainHop {
                    ip: SERVER_IP,
                    port: SERVER_PORT,
                },
                ChainHop {
                    ip: TAIL_IP,
                    port: TAIL_PORT,
                },
            ],
        );
        // `key` is cached at the tail (pipe 1); `bystander` holds key
        // index 0 of pipe 0 under an unchained home.
        let key = Key::from_u64(4);
        let bystander = Key::from_u64(5);
        for (k, pipe, port, fill) in [(key, 1, TAIL_PORT, 1), (bystander, 0, 2, 2)] {
            assert!(sw.write_value(pipe, 1, 0, 1, &Value::filled(fill, 16)));
            sw.insert_entry(
                k,
                LookupEntry {
                    bitmap: 1,
                    value_index: 0,
                    key_index: 0,
                    egress_port: port,
                    value_len: 16,
                    passes: 1,
                },
            )
            .unwrap();
            sw.install_status(pipe, 0, 1, 16);
        }
        let get = |k: Key| Packet::get_query(1, CLIENT_IP, SERVER_IP, k, 10);
        let bystander_hit = |sw: &NetCacheSwitch| {
            let out = sw.process(get(bystander), CLIENT_PORT).expect("one output");
            out.1.netcache.op == Op::GetReplyHit
                && out.1.netcache.value == Some(Value::filled(2, 16))
        };
        assert!(bystander_hit(&sw));

        // Uncached reads steer to the tail and feed the tail pipe's
        // heavy-hitter statistics.
        let cold = Key::from_u64(11);
        for seq in 0..20 {
            let out = sw
                .process(
                    Packet::get_query(1, CLIENT_IP, SERVER_IP, cold, seq),
                    CLIENT_PORT,
                )
                .expect("one output");
            assert_eq!(out.0, TAIL_PORT);
        }
        assert!(sw.egress[0].get_mut().stats.drain_reports().is_empty());
        let reports = sw.egress[1].get_mut().stats.drain_reports();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].key, cold);

        // A client write invalidates the tail pipe's entry and enters the
        // chain at the head.
        let put = Packet::put_query(1, CLIENT_IP, SERVER_IP, key, 9, Value::filled(7, 16));
        let out = sw.process(put, CLIENT_PORT).expect("one output");
        assert_eq!((out.0, out.1.netcache.op), (SERVER_PORT, Op::ChainPut));
        let out = sw.process(get(key), CLIENT_PORT).expect("one output");
        assert_eq!(out.0, TAIL_PORT, "invalid entry: read goes to the tail");
        assert!(bystander_hit(&sw), "pipe 0 untouched by the invalidation");

        // Head → tail hop, then the tail's commit refreshes pipe 1.
        let mut fwd = Packet::put_query(1, CLIENT_IP, SERVER_IP, key, 9, Value::filled(7, 16));
        fwd.netcache.op = Op::ChainPut;
        fwd.netcache.chain_version = 2;
        fwd.refresh_lengths();
        let out = sw.process(fwd.clone(), SERVER_PORT).expect("one output");
        assert_eq!(out.0, TAIL_PORT);
        let out = sw.process(fwd.clone(), TAIL_PORT).expect("one output");
        assert_eq!((out.0, out.1.netcache.op), (CLIENT_PORT, Op::PutReply));
        assert_eq!(sw.stats().updates_applied, 1);
        let out = sw.process(get(key), CLIENT_PORT).expect("one output");
        assert_eq!(out.1.netcache.op, Op::GetReplyHit);
        assert_eq!(out.1.netcache.value, Some(Value::filled(7, 16)));
        assert!(bystander_hit(&sw), "pipe 0 untouched by the commit");

        // A duplicate of the committed write: invalidated again, healed by
        // the equal-version commit.
        let dup = Packet::put_query(1, CLIENT_IP, SERVER_IP, key, 9, Value::filled(7, 16));
        sw.process(dup, CLIENT_PORT);
        sw.process(fwd.clone(), TAIL_PORT);
        let out = sw.process(get(key), CLIENT_PORT).expect("one output");
        assert_eq!(out.1.netcache.op, Op::GetReplyHit, "healed in pipe 1");
        assert_eq!(sw.stats().updates_ignored, 1);

        // A committed delete leaves the tail pipe's entry invalid.
        let mut del = Packet::delete_query(1, CLIENT_IP, SERVER_IP, key, 12);
        del.netcache.op = Op::ChainDelete;
        del.netcache.chain_version = 3;
        del.refresh_lengths();
        let out = sw.process(del, TAIL_PORT).expect("one output");
        assert_eq!(out.1.netcache.op, Op::DeleteReply);
        let out = sw.process(get(key), CLIENT_PORT).expect("one output");
        assert_eq!(out.0, TAIL_PORT);
        assert!(bystander_hit(&sw), "pipe 0 untouched by the delete");
        assert_eq!(sw.stats().write_invalidations, 2);
        assert_eq!(sw.stats().chain_commits, 3);

        // An entry homed in the head's pipe (cached before its partition's
        // tail moved) is committed where it lives, not in the tail's pipe.
        let moved = Key::from_u64(6);
        assert!(sw.write_value(0, 1, 1, 1, &Value::filled(3, 16)));
        let entry = LookupEntry {
            bitmap: 1,
            value_index: 1,
            key_index: 1,
            egress_port: SERVER_PORT,
            value_len: 16,
            passes: 1,
        };
        sw.insert_entry(moved, entry).unwrap();
        sw.install_status(0, 1, 1, 16);
        let put = Packet::put_query(1, CLIENT_IP, SERVER_IP, moved, 13, Value::filled(8, 16));
        sw.process(put.clone(), CLIENT_PORT);
        let mut fwd = put;
        fwd.netcache.op = Op::ChainPut;
        fwd.netcache.chain_version = 4;
        fwd.refresh_lengths();
        sw.process(fwd, TAIL_PORT);
        let out = sw.process(get(moved), CLIENT_PORT).expect("one output");
        assert_eq!(
            out.1.netcache.value,
            Some(Value::filled(8, 16)),
            "refreshed in pipe 0"
        );
    }

    /// Every control-plane write counts against the update budget: one
    /// per register poke or chain-table entry, one per pipe for a lookup
    /// entry (the table is replicated per ingress pipe).
    #[test]
    fn control_updates_per_operation() {
        let mut sw = NetCacheSwitch::new(SwitchConfig {
            pipes: 2,
            ..SwitchConfig::tiny()
        })
        .unwrap();
        let mut expect = 0;
        let mut step = |sw: &NetCacheSwitch, cost: u64, what: &str| {
            expect += cost;
            assert_eq!(sw.control_updates(), expect, "{what}");
        };
        sw.add_route(CLIENT_IP, 32, CLIENT_PORT);
        step(&sw, 1, "add_route");
        let hop = ChainHop {
            ip: SERVER_IP,
            port: SERVER_PORT,
        };
        sw.set_chain(SERVER_IP, vec![hop]);
        step(&sw, 1, "set_chain");
        sw.clear_chain(SERVER_IP);
        step(&sw, 1, "clear_chain");
        sw.write_value(1, 1, 0, 1, &Value::filled(1, 16));
        step(&sw, 1, "write_value");
        let key = Key::from_u64(1);
        let entry = LookupEntry {
            bitmap: 1,
            value_index: 0,
            key_index: 0,
            egress_port: 5,
            value_len: 16,
            passes: 1,
        };
        sw.insert_entry(key, entry).unwrap();
        step(&sw, 2, "insert_entry: one per pipe");
        sw.install_status(1, 0, 1, 16);
        step(&sw, 2, "length + status install");
        sw.reset_counter(1, 0);
        step(&sw, 1, "reset_counter");
        sw.invalidate_status(1, 0);
        step(&sw, 1, "invalidate_status");
        sw.revalidate_status(1, 0);
        step(&sw, 1, "revalidate_status");
        sw.evict_status(1, 0);
        step(&sw, 1, "evict_status");
        sw.remove_entry(&key).unwrap();
        step(&sw, 2, "remove_entry: one per pipe");
        sw.reset_statistics();
        step(&sw, 1, "reset_statistics");
        sw.set_sample_rate(0.5);
        step(&sw, 1, "set_sample_rate");
        sw.set_hot_threshold(4);
        step(&sw, 1, "set_hot_threshold");
        sw.drain_reports();
        step(&sw, 0, "reads are free");
    }

    /// The profile's register width limit applies to every array the
    /// program allocates: 16-byte value units cannot compile on a chip
    /// whose register arrays move 8 bytes per stage.
    #[test]
    fn register_wider_than_profile_limit_rejected() {
        let mut config = SwitchConfig::prototype();
        config.profile.register_width_limit = 8;
        let Err(err) = NetCacheSwitch::new(config) else {
            panic!("an 8 B register width limit accepted 16 B value units");
        };
        assert!(err.contains("register width 16 exceeds"), "{err}");
    }
}
