//! The in-process NetCache rack: a synchronous-forwarding-loop driver
//! over the shared [`FabricCore`].
//!
//! [`Rack::execute`] injects a packet at a port and runs it — and every
//! packet it spawns (server replies, cache updates, acks, released blocked
//! writes) — through the switch until only client-bound packets remain.
//! With the default (disabled) fault model this is a lossless rack network
//! with deterministic ordering, which is what unit/integration tests and
//! the quickstart want. With a [`crate::fault::FaultConfig`] enabled, every link crossing
//! runs through the seeded [`NetworkModel`]: packets may be lost,
//! duplicated, or delayed past the current rack time — delayed traffic
//! parks in a pending set and is delivered by a later [`Rack::execute`] or
//! [`Rack::tick`] once [`Rack::advance`] moves the clock past its due time,
//! which is how reordering becomes visible to clients. Timing-accurate
//! behaviour (queueing, saturation) lives in `netcache-sim`, which drives
//! these same components from a discrete-event loop.
//!
//! The switch sits behind a reader-writer lock. Data-plane forwarding
//! loops ([`Rack::execute`], [`Rack::tick`]) take the *read* lock: any
//! number of client threads drive packets concurrently, serializing only
//! per egress pipe inside [`netcache_dataplane::NetCacheSwitch::process`]
//! — the hardware
//! concurrency model (see `DESIGN.md` §10). Control-plane paths (the
//! controller cycle, cache population, reboot, `with_switch`) take the
//! *write* lock, so a query still can never interleave with a cache
//! insertion halfway through its journey (the classification a packet
//! received at the switch stays valid when it reaches the server), and
//! single-threaded callers — the simulator, seeded tests — observe exactly
//! the serial semantics they did when the switch sat behind a mutex.
//!
//! Everything deployment-independent — rack assembly, the controller
//! backend, client retry/backoff, stats aggregation — lives in
//! [`crate::fabric`]; this file is only the transport.

use std::borrow::Cow;
use std::sync::atomic::{AtomicU64, Ordering};

use netcache_dataplane::PortId;
use netcache_proto::{Key, Packet};
use parking_lot::Mutex;

use crate::addressing::Attachment;
use crate::config::RackConfig;
use crate::fabric::{
    AgentTiming, Client, ClientCounters, EventQueue, FabricCore, Link, RackError, RackHandle,
    Synchronous,
};
use crate::fault::Delivery;
#[allow(unused_imports)] // rustdoc links
use crate::fault::NetworkModel;
use crate::hist::ShardedHistogram;

/// A packet in flight toward its next processing point.
enum Hop {
    /// Arriving at the switch on `port`.
    Switch { port: PortId, pkt: Packet },
    /// Arriving at server `index` (whose switch port is `port`, where any
    /// packets it produces re-enter the network).
    Server {
        index: usize,
        port: PortId,
        pkt: Packet,
    },
    /// Arriving at client `index`.
    Client { index: u32, pkt: Packet },
}

/// The buffers of one forwarding loop. A [`RackClient`]'s link owns a
/// set, and so does any driver that injects through
/// [`Rack::execute_each`]; every request clears — not drops — them, so a
/// steady-state request allocates nothing here. [`Rack::execute`] and
/// [`Rack::tick`] run the same loop over a fresh set. The loop leaves
/// every buffer but `to_clients`, its result, empty (the event queue
/// keeps its capacity).
#[derive(Default)]
pub struct DriveScratch {
    events: EventQueue<Hop>,
    /// Packets that exited toward clients, as `(client_index, packet)`.
    to_clients: Vec<(u32, Packet)>,
    /// Deliveries due after the current rack time, on their way to
    /// [`Rack::pending`].
    deferred: Vec<(u64, Hop)>,
    /// Service-time samples, recorded in one batch after the loop so the
    /// histogram shards are not locked per packet.
    switch_ns: Vec<u64>,
    server_ns: Vec<u64>,
    /// What the server agent being visited emits.
    server_out: Vec<Packet>,
    /// What the fault model makes of one link crossing.
    deliveries: Vec<Delivery>,
}

/// The in-process rack.
pub struct Rack {
    core: FabricCore,
    now_ns: AtomicU64,
    /// Deliveries due after the current rack time, waiting for the clock:
    /// `(deliver_at_ns, hop)`.
    pending: Mutex<Vec<(u64, Hop)>>,
}

impl Rack {
    /// Builds the rack: switch program compiled, routes installed, servers
    /// started, controller initialized.
    pub fn new(config: RackConfig) -> Result<Self, RackError> {
        let timing = AgentTiming::in_process(config.agent_retry_timeout_ns);
        Ok(Rack {
            core: FabricCore::new(config, timing)?,
            now_ns: AtomicU64::new(0),
            pending: Mutex::new(Vec::new()),
        })
    }

    /// Current rack time in nanoseconds.
    pub fn now(&self) -> u64 {
        self.now_ns.load(Ordering::Relaxed)
    }

    /// Advances rack time.
    pub fn advance(&self, ns: u64) {
        self.now_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Sends `pkt` across one link at `now`, converting each resulting
    /// delivery into an event via `hop` (deliveries may land in the
    /// future, realizing delay and reordering).
    fn link(
        &self,
        pkt: Packet,
        now: u64,
        hop: impl Fn(Packet) -> Hop,
        events: &mut EventQueue<Hop>,
        deliveries: &mut Vec<Delivery>,
    ) {
        // Fault-free fast path: `transmit` would produce exactly one
        // immediate delivery, so skip its mutexes (they serialize
        // concurrent forwarding threads) and the Vec round-trip.
        if self.core.faults.is_passthrough() {
            events.push(now, hop(pkt));
            return;
        }
        self.core.faults.transmit(pkt, now, deliveries);
        for d in deliveries.drain(..) {
            events.push(d.deliver_at_ns, hop(d.pkt));
        }
    }

    /// Injects `pkt` at `in_port` and runs the forwarding loop to
    /// completion; returns packets that exited toward clients, as
    /// `(client_index, packet)`. Deliveries due after the current rack
    /// time park in the pending set and are drained by a later call once
    /// [`Rack::advance`] catches up.
    pub fn execute(&self, pkt: Packet, in_port: PortId) -> Vec<(u32, Packet)> {
        let mut scratch = DriveScratch::default();
        self.execute_with(&mut scratch, pkt, in_port);
        scratch.to_clients
    }

    /// [`Rack::execute`] over caller-owned buffers, handing each
    /// client-bound packet to `reply` as `(client_index, packet)`: a driver
    /// that keeps one [`DriveScratch`] across injections allocates nothing
    /// per packet.
    pub fn execute_each(
        &self,
        s: &mut DriveScratch,
        pkt: Packet,
        in_port: PortId,
        mut reply: impl FnMut(u32, Packet),
    ) {
        self.execute_with(s, pkt, in_port);
        for (j, pkt) in s.to_clients.drain(..) {
            reply(j, pkt);
        }
    }

    /// [`Rack::execute`] over caller-owned buffers; the client-bound
    /// packets are left in `s.to_clients`.
    // Inline: the client's link calls this from whichever crate
    // instantiates `Client<RackLink>`; outlined, the cross-crate call cost
    // an in-process get ~3 % in an interleaved A/B (2-vCPU x86-64 VM).
    #[inline]
    fn execute_with(&self, s: &mut DriveScratch, pkt: Packet, in_port: PortId) {
        self.link(
            pkt,
            self.now(),
            |pkt| Hop::Switch { port: in_port, pkt },
            &mut s.events,
            &mut s.deliveries,
        );
        self.drive(s);
    }

    /// Runs `s.events` (and everything they spawn) to completion, in
    /// delivery-time order, holding the switch *read* lock throughout:
    /// concurrent `drive` calls in other threads forward in parallel
    /// (serializing per egress pipe inside the switch), while the control
    /// plane's write lock still excludes whole forwarding loops.
    fn drive(&self, s: &mut DriveScratch) {
        let now = self.now();
        // Pull in previously delayed traffic that has matured. Drain order
        // (swap_remove scan) matches the pre-heap code: matured pending
        // traffic sorts after same-time events already in the queue.
        {
            let mut pending = self.pending.lock();
            let mut i = 0;
            while i < pending.len() {
                if pending[i].0 <= now {
                    let (at, hop) = pending.swap_remove(i);
                    s.events.push(at, hop);
                } else {
                    i += 1;
                }
            }
        }
        s.to_clients.clear();
        let switch = self.core.switch.read();
        // Bounded loop: coherence traffic is finite, but a bug must not
        // hang tests.
        let mut hops = 0usize;
        while let Some((at, hop)) = s.events.pop() {
            if at > now {
                // Not due yet: wait for the clock.
                s.deferred.push((at, hop));
                continue;
            }
            hops += 1;
            assert!(hops < 10_000, "forwarding loop did not converge");
            match hop {
                Hop::Switch { port, pkt } => {
                    let t0 = std::time::Instant::now();
                    let output = switch.process(pkt, port);
                    s.switch_ns.push(t0.elapsed().as_nanos() as u64);
                    let Some((out_port, out_pkt)) = output else {
                        continue;
                    };
                    match self.core.addressing.attachment(out_port) {
                        Attachment::Server(i) => self.link(
                            out_pkt,
                            now,
                            |pkt| Hop::Server {
                                index: i as usize,
                                port: out_port,
                                pkt,
                            },
                            &mut s.events,
                            &mut s.deliveries,
                        ),
                        Attachment::Client(j) => self.link(
                            out_pkt,
                            now,
                            |pkt| Hop::Client { index: j, pkt },
                            &mut s.events,
                            &mut s.deliveries,
                        ),
                        Attachment::Unused => {}
                    }
                }
                Hop::Server { index, port, pkt } => {
                    let t0 = std::time::Instant::now();
                    self.core.servers[index].handle_packet_into(pkt, now, &mut s.server_out);
                    s.server_ns.push(t0.elapsed().as_nanos() as u64);
                    for produced in s.server_out.drain(..) {
                        // Packets a server emits cross the network too and
                        // are subject to the same faults.
                        self.link(
                            produced,
                            now,
                            |pkt| Hop::Switch { port, pkt },
                            &mut s.events,
                            &mut s.deliveries,
                        );
                    }
                }
                Hop::Client { index, pkt } => s.to_clients.push((index, pkt)),
            }
        }
        drop(switch);
        self.core.switch_latency.record_batch(&s.switch_ns);
        self.core.server_latency.record_batch(&s.server_ns);
        s.switch_ns.clear();
        s.server_ns.clear();
        if !s.deferred.is_empty() {
            self.pending.lock().append(&mut s.deferred);
        }
    }

    /// Drives server-agent retransmission timers at the current rack time
    /// and delivers any matured delayed traffic; retransmitted cache
    /// updates run through the forwarding loop.
    pub fn tick(&self) -> Vec<(u32, Packet)> {
        let mut scratch = DriveScratch::default();
        self.tick_with(&mut scratch);
        scratch.to_clients
    }

    /// [`Rack::tick`] over caller-owned buffers.
    fn tick_with(&self, s: &mut DriveScratch) {
        let now = self.now();
        for (i, server) in self.core.servers.iter().enumerate() {
            let port = self.core.addressing.server_port(i as u32);
            for pkt in server.tick(now) {
                self.link(
                    pkt,
                    now,
                    |pkt| Hop::Switch { port, pkt },
                    &mut s.events,
                    &mut s.deliveries,
                );
            }
        }
        self.drive(s);
    }

    /// Runs one controller cycle (heavy-hitter intake, cache updates,
    /// periodic statistics reset) at the current rack time. Returns any
    /// client-bound packets produced by writes the cycle released (their
    /// acks), so callers can route them.
    pub fn run_controller(&self) -> Vec<(u32, Packet)> {
        // Writes released by controller unlocks re-enter the network.
        let mut to_clients = Vec::new();
        for (port, pkt) in self.core.run_controller_cycle(self.now()) {
            to_clients.extend(self.execute(pkt, port));
        }
        to_clients
    }

    /// Pre-populates the switch cache with `keys` (up to the controller's
    /// capacity), e.g. the hottest items of a static workload.
    pub fn populate_cache(&self, keys: impl IntoIterator<Item = Key>) -> usize {
        let (inserted, released) = self.core.populate(keys, self.now());
        for (port, pkt) in released {
            self.execute(pkt, port);
        }
        inserted
    }

    /// A synchronous client handle attached to client port `j`.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    pub fn client(&self, j: u32) -> RackClient<'_> {
        let link = RackLink {
            rack: self,
            index: j,
            port: self.core.addressing.client_port(j),
            scratch: DriveScratch::default(),
        };
        Client::new(link, self.core.make_client(j))
    }
}

impl RackHandle for Rack {
    fn fabric(&self) -> &FabricCore {
        &self.core
    }

    fn populate_cache(&self, keys: Vec<Key>) -> usize {
        Rack::populate_cache(self, keys)
    }
}

impl core::fmt::Debug for Rack {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Rack")
            .field("servers", &self.core.servers.len())
            .field("cached_keys", &self.core.cached_keys())
            .finish_non_exhaustive()
    }
}

/// The in-process client's attachment: transmitting runs the whole
/// synchronous forwarding loop over the link's own buffers; waiting
/// advances the virtual clock and ticks the server agents.
pub struct RackLink<'a> {
    rack: &'a Rack,
    index: u32,
    port: PortId,
    scratch: DriveScratch,
}

impl RackLink<'_> {
    /// Hands over this client's packets, discarding traffic for other
    /// ports.
    fn collect(&mut self, mut reply: impl FnMut(Packet)) {
        for (j, pkt) in self.scratch.to_clients.drain(..) {
            if j == self.index {
                reply(pkt);
            }
        }
    }
}

impl Link for RackLink<'_> {
    fn transmit(&mut self, pkt: Cow<'_, Packet>, reply: impl FnMut(Packet)) {
        self.rack
            .execute_with(&mut self.scratch, pkt.into_owned(), self.port);
        self.collect(reply);
    }

    fn wait(&mut self, timeout_ns: u64, _want_seq: u32, reply: impl FnMut(Packet)) {
        self.rack.advance(timeout_ns);
        self.rack.tick_with(&mut self.scratch);
        self.collect(reply);
    }

    fn counters(&self) -> &ClientCounters {
        &self.rack.core.counters
    }

    fn op_latency(&self) -> &ShardedHistogram {
        &self.rack.core.op_latency
    }
}

impl Synchronous for RackLink<'_> {}

/// A synchronous client of the in-process rack.
pub type RackClient<'a> = Client<RackLink<'a>>;

#[cfg(test)]
mod tests {
    use super::*;
    use netcache_client::Response;
    use netcache_proto::{Op, Value};

    fn rack() -> Rack {
        let mut config = RackConfig::small(4);
        config.controller.cache_capacity = 8;
        let rack = Rack::new(config).unwrap();
        rack.load_dataset(100, 32);
        rack
    }

    #[test]
    fn uncached_read_served_by_server() {
        let r = rack();
        let mut c = r.client(0);
        let resp = c.get(Key::from_u64(5)).unwrap();
        assert!(!resp.served_by_cache());
        assert_eq!(resp.value().unwrap(), &Value::for_item(5, 32));
        assert_eq!(r.switch_stats().cache_misses, 1);
    }

    #[test]
    fn cached_read_served_by_switch() {
        let r = rack();
        assert_eq!(r.populate_cache([Key::from_u64(5)]), 1);
        let mut c = r.client(0);
        let resp = c.get(Key::from_u64(5)).unwrap();
        assert!(resp.served_by_cache());
        assert_eq!(resp.value().unwrap(), &Value::for_item(5, 32));
        assert_eq!(r.switch_stats().cache_hits, 1);
        // The server never saw the query.
        let home = r.addressing().home_of(&Key::from_u64(5));
        assert_eq!(r.server_stats(home.server).gets, 0);
    }

    #[test]
    fn write_through_coherence_end_to_end() {
        let r = rack();
        r.populate_cache([Key::from_u64(5)]);
        let mut c = r.client(0);
        // Write: invalidate → commit → background cache update (the whole
        // exchange happens inside execute()).
        let resp = c.put(Key::from_u64(5), Value::filled(0xee, 32)).unwrap();
        assert!(matches!(resp.response(), Response::PutAck { .. }));
        // Read now hits the refreshed cache.
        let resp = c.get(Key::from_u64(5)).unwrap();
        assert!(resp.served_by_cache(), "{:?}", r.switch_stats());
        assert_eq!(resp.value().unwrap(), &Value::filled(0xee, 32));
    }

    #[test]
    fn lost_cache_update_never_serves_stale() {
        let r = rack();
        r.populate_cache([Key::from_u64(5)]);
        let mut c = r.client(0);
        // Drop the update and all 5 retries: the entry must stay invalid.
        r.faults().drop_next(Op::CacheUpdate, 6);
        c.put(Key::from_u64(5), Value::filled(0xbb, 32)).unwrap();
        let resp = c.get(Key::from_u64(5)).unwrap();
        assert!(!resp.served_by_cache(), "stale cache served!");
        assert_eq!(resp.value().unwrap(), &Value::filled(0xbb, 32));
    }

    #[test]
    fn retransmission_repairs_lost_update() {
        let r = rack();
        r.populate_cache([Key::from_u64(5)]);
        let mut c = r.client(0);
        r.faults().drop_next(Op::CacheUpdate, 1);
        c.put(Key::from_u64(5), Value::filled(0xcc, 32)).unwrap();
        // Reads meanwhile go to the server.
        assert!(!c.get(Key::from_u64(5)).unwrap().served_by_cache());
        // After the retry timeout, tick() retransmits and the cache heals.
        r.advance(1_000_000);
        r.tick();
        let resp = c.get(Key::from_u64(5)).unwrap();
        assert!(resp.served_by_cache());
        assert_eq!(resp.value().unwrap(), &Value::filled(0xcc, 32));
    }

    #[test]
    fn delete_leaves_no_stale_cache() {
        let r = rack();
        r.populate_cache([Key::from_u64(5)]);
        let mut c = r.client(0);
        let resp = c.delete(Key::from_u64(5)).unwrap();
        assert!(matches!(resp.response(), Response::DeleteAck { .. }));
        let resp = c.get(Key::from_u64(5)).unwrap();
        assert!(resp.not_found());
    }

    #[test]
    fn controller_learns_hot_keys() {
        let r = rack();
        let mut c = r.client(0);
        // Hammer one key past the HH threshold (tiny config: 8).
        for _ in 0..40 {
            c.get(Key::from_u64(7)).unwrap();
        }
        r.run_controller();
        assert!(r.is_cached(&Key::from_u64(7)), "{:?}", r.controller_stats());
        let hits_before = r.switch_stats().cache_hits;
        assert!(c.get(Key::from_u64(7)).unwrap().served_by_cache());
        assert_eq!(r.switch_stats().cache_hits, hits_before + 1);
    }

    #[test]
    fn switch_reboot_recovers_through_controller() {
        let r = rack();
        r.populate_cache([Key::from_u64(3)]);
        r.reboot_switch();
        assert_eq!(r.cached_keys(), 0);
        let mut c = r.client(0);
        // Queries still work (served by servers)...
        let resp = c.get(Key::from_u64(3)).unwrap();
        assert!(!resp.served_by_cache());
        // ...and the heavy-hitter path refills the cache.
        for _ in 0..40 {
            c.get(Key::from_u64(3)).unwrap();
        }
        r.run_controller();
        assert!(c.get(Key::from_u64(3)).unwrap().served_by_cache());
    }

    #[test]
    fn multiple_clients_share_the_cache() {
        let r = rack();
        r.populate_cache([Key::from_u64(1)]);
        for j in 0..4 {
            let mut c = r.client(j);
            assert!(
                c.get(Key::from_u64(1)).unwrap().served_by_cache(),
                "client {j}"
            );
        }
    }

    /// A recreated client (same port, same IP) must not have its fresh
    /// writes mistaken for retransmissions of the previous instance's —
    /// each instance gets a disjoint sequence-number epoch.
    #[test]
    fn recreated_client_writes_are_not_deduplicated() {
        let r = rack();
        r.load_dataset(8, 32);
        r.populate_cache([Key::from_u64(0)]);
        let k = Key::from_u64(0);
        {
            let mut first = r.client(0);
            first.put(k, Value::filled(0x11, 32)).expect("ack");
        }
        // Same seq counter start would collide with the first instance's
        // put in the server's (src, seq) dedup memory.
        let mut second = r.client(0);
        second.put(k, Value::filled(0x22, 32)).expect("ack");
        let resp = second.get(k).expect("reply");
        assert_eq!(resp.value().expect("value"), &Value::filled(0x22, 32));
        assert!(resp.served_by_cache(), "write-through missed the cache");
    }

    #[test]
    fn paper_scale_rack_constructs() {
        let r = Rack::new(RackConfig::paper_rack()).unwrap();
        // Spot-check one end-to-end query at full scale.
        r.load_dataset(100, 128);
        let mut c = r.client(0);
        assert_eq!(
            c.get(Key::from_u64(42)).unwrap().value().unwrap(),
            &Value::for_item(42, 128)
        );
    }
}
