//! The server agent state machine.
//!
//! The agent is transport-agnostic: callers feed it packets and a clock,
//! and it returns the packets to transmit. The in-process rack, the UDP
//! cluster example and the discrete-event simulator all drive the same
//! code.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use netcache_proto::{Key, Op, Packet, Value};
use netcache_store::{ShardedStore, StoredItem};
use parking_lot::Mutex;

/// Configuration for a [`ServerAgent`].
#[derive(Debug, Clone)]
pub struct AgentConfig {
    /// This server's IP address (used as the source of cache updates).
    pub ip: u32,
    /// The switch's IP address (destination of cache updates).
    pub switch_ip: u32,
    /// Number of store shards (per-core sharding).
    pub shards: usize,
    /// Nanoseconds to wait for a `CacheUpdateAck` before retransmitting.
    pub update_retry_timeout_ns: u64,
    /// Retransmissions before giving up on a cache update. Giving up is
    /// safe: the switch entry stays invalid, so reads fall through to the
    /// server; the controller repairs the entry on its next update cycle.
    pub update_max_retries: u32,
    /// Whether writes to cached keys push the new value into the switch
    /// via data-plane `CacheUpdate` packets (§4.3's design). `false`
    /// selects the *write-around* ablation: the entry stays invalid until
    /// the controller's control-plane repair pass refreshes it — the
    /// slower alternative the paper rejects ("data plane updates incur
    /// little overhead and are much faster than control plane updates").
    pub dataplane_updates: bool,
}

impl Default for AgentConfig {
    fn default() -> Self {
        AgentConfig {
            ip: 0x0a00_0101,
            switch_ip: 0x0a00_00fe,
            shards: 8,
            update_retry_timeout_ns: 100_000, // 100 µs
            update_max_retries: 5,
            dataplane_updates: true,
        }
    }
}

/// Counters exposed by the agent.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Get queries served.
    pub gets: u64,
    /// Get queries for absent keys.
    pub not_found: u64,
    /// Put queries committed.
    pub puts: u64,
    /// Delete queries committed.
    pub deletes: u64,
    /// Cache updates sent (first transmissions).
    pub updates_sent: u64,
    /// Cache update retransmissions.
    pub update_retries: u64,
    /// Cache updates abandoned after max retries.
    pub updates_abandoned: u64,
    /// Acks received and matched to a pending update.
    pub acks_matched: u64,
    /// Write queries that had to wait behind a pending cache update or a
    /// controller-initiated insertion.
    pub writes_blocked: u64,
    /// Retransmitted writes recognized as duplicates (the original's reply
    /// was resent instead of recommitting).
    pub dup_writes_ignored: u64,
    /// Chain-replicated writes applied to the store (head, mid or tail).
    pub chain_applied: u64,
    /// Chain forwards re-emitted toward the successor (including tail
    /// re-emissions the switch converts into client replies).
    pub chain_forwarded: u64,
}

/// A cache update awaiting acknowledgement from the switch.
#[derive(Debug, Clone)]
struct PendingUpdate {
    version: u32,
    value: Value,
    retries: u32,
    last_sent_ns: u64,
}

/// Per-key coherence state.
#[derive(Debug, Default)]
struct KeyState {
    /// Outstanding cache update, if any.
    pending: Option<PendingUpdate>,
    /// Writes queued behind the pending update / controller lock.
    blocked: VecDeque<Packet>,
    /// Set while the controller is inserting this key into the cache.
    controller_locked: bool,
}

impl KeyState {
    fn is_blocked(&self) -> bool {
        self.pending.is_some() || self.controller_locked
    }

    /// Whether the write `(client ip, seq)` is waiting in the blocked queue.
    fn holds_blocked(&self, id: (u32, u32)) -> bool {
        self.blocked
            .iter()
            .any(|b| (b.ipv4.src, b.netcache.seq) == id)
    }

    fn is_idle(&self) -> bool {
        self.pending.is_none() && self.blocked.is_empty() && !self.controller_locked
    }
}

/// Bound on the duplicate-write suppression table (FIFO eviction). A
/// retransmission arriving after its entry was evicted recommits the
/// write — safe for the value (puts are absolute), at worst bumping the
/// version once more.
const RECENT_WRITES_CAP: usize = 1024;

/// Bound on the per-key applied-chain-version tombstones (FIFO eviction).
/// The tombstone keeps version monotonicity across deletes: without it, a
/// chain delete followed by a chain put would restart the key at version 1
/// and be rejected by replicas (and the switch) still holding the higher
/// pre-delete version.
const APPLIED_VERSIONS_CAP: usize = 1024;

#[derive(Debug, Default)]
struct Inner {
    keys: HashMap<Key, KeyState>,
    /// Keys this server believes are in the switch cache (maintained by
    /// the controller via [`ServerAgent::mark_cached`]). Writes to these
    /// keys emit cache updates even if the query arrived without the
    /// switch's cached-op rewrite — e.g. a write that was blocked while
    /// the controller was inserting the key, then released after the
    /// insertion finished. A stale entry is harmless: the switch ignores
    /// (but still acks) updates for keys it no longer caches.
    cached_keys: HashSet<Key>,
    /// Replies to recently committed writes, by `(client ip, seq)`; a
    /// retransmitted or duplicated write resends the stored reply instead
    /// of recommitting. Sequence number 0 is exempt (unsequenced traffic).
    recent_writes: HashMap<(u32, u32), Packet>,
    /// FIFO of `recent_writes` keys for bounded eviction.
    recent_order: VecDeque<(u32, u32)>,
    /// Last chain version applied per key, surviving deletes (see
    /// [`APPLIED_VERSIONS_CAP`]).
    applied_versions: HashMap<Key, u32>,
    /// FIFO of `applied_versions` keys for bounded eviction.
    applied_order: VecDeque<Key>,
    stats: ServerStats,
}

impl Inner {
    fn remember_write(&mut self, id: (u32, u32), reply: Packet) {
        if self.recent_writes.insert(id, reply).is_none() {
            self.recent_order.push_back(id);
            if self.recent_order.len() > RECENT_WRITES_CAP {
                if let Some(old) = self.recent_order.pop_front() {
                    self.recent_writes.remove(&old);
                }
            }
        }
    }

    fn remember_applied(&mut self, key: Key, version: u32) {
        if self.applied_versions.insert(key, version).is_none() {
            self.applied_order.push_back(key);
            if self.applied_order.len() > APPLIED_VERSIONS_CAP {
                if let Some(old) = self.applied_order.pop_front() {
                    self.applied_versions.remove(&old);
                }
            }
        }
    }
}

/// The server agent: store + coherence state machine.
///
/// Thread-safe; the store is sharded and the coherence state sits behind a
/// single mutex (coherence traffic is rare compared to reads). A Get takes
/// its store shard's lock and nothing else: the read counters are relaxed
/// atomics (plain statistics, they publish no other data).
#[derive(Debug)]
pub struct ServerAgent {
    config: AgentConfig,
    store: ShardedStore,
    inner: Mutex<Inner>,
    /// [`ServerStats::gets`], kept outside `inner` for the read path.
    gets: AtomicU64,
    /// [`ServerStats::not_found`], likewise.
    not_found: AtomicU64,
    /// Cleared by [`kill`](Self::kill): a dead agent drops every packet
    /// and answers no fetches, exactly like an unplugged machine.
    alive: AtomicBool,
    /// Set by [`revive`](Self::revive): the agent is back up but its store
    /// was wiped, so it must not serve until the controller resyncs it
    /// from a surviving replica ([`mark_resynced`](Self::mark_resynced)).
    needs_resync: AtomicBool,
}

impl ServerAgent {
    /// Creates an agent with an empty store.
    pub fn new(config: AgentConfig) -> Self {
        ServerAgent {
            store: ShardedStore::new(config.shards),
            config,
            inner: Mutex::new(Inner::default()),
            gets: AtomicU64::new(0),
            not_found: AtomicU64::new(0),
            alive: AtomicBool::new(true),
            needs_resync: AtomicBool::new(false),
        }
    }

    // ---- Failure lifecycle (chain replication / chaos harness) ----
    //
    // `alive` and `needs_resync` pair Release stores with Acquire loads.
    // `revive` wipes the store, sets `needs_resync`, then sets `alive`; a
    // packet thread whose Acquire load sees `alive` therefore also sees
    // the wipe and the resync flag, and one whose Acquire load sees the
    // flag cleared by `mark_resynced` sees everything the controller
    // copied into the store before clearing it.

    /// Kills the agent: every subsequent packet is dropped and fetches
    /// return nothing, until [`revive`](Self::revive).
    pub fn kill(&self) {
        self.alive.store(false, Ordering::Release);
    }

    /// Restarts a killed agent with an empty store (a crashed machine does
    /// not keep its memory-resident state). The agent stays out of service
    /// until the controller resyncs it and calls
    /// [`mark_resynced`](Self::mark_resynced).
    pub fn revive(&self) {
        self.store.clear();
        {
            let mut inner = self.inner.lock();
            let stats = inner.stats;
            *inner = Inner::default();
            inner.stats = stats;
        }
        self.needs_resync.store(true, Ordering::Release);
        self.alive.store(true, Ordering::Release);
    }

    /// Whether the agent is up (not killed).
    pub fn is_alive(&self) -> bool {
        self.alive.load(Ordering::Acquire)
    }

    /// Whether the agent is awaiting a state resync before serving.
    pub fn needs_resync(&self) -> bool {
        self.needs_resync.load(Ordering::Acquire)
    }

    /// Marks the resync complete; the agent serves traffic again.
    pub fn mark_resynced(&self) {
        self.needs_resync.store(false, Ordering::Release);
    }

    /// Whether the agent processes traffic (alive and synced).
    pub fn is_serving(&self) -> bool {
        self.is_alive() && !self.needs_resync()
    }

    /// Current statistics snapshot.
    pub fn stats(&self) -> ServerStats {
        ServerStats {
            gets: self.gets.load(Ordering::Relaxed),
            not_found: self.not_found.load(Ordering::Relaxed),
            ..self.inner.lock().stats
        }
    }

    /// Direct access to the backing store (loading datasets, assertions).
    pub fn store(&self) -> &ShardedStore {
        &self.store
    }

    /// This agent's configuration.
    pub fn config(&self) -> &AgentConfig {
        &self.config
    }

    /// Handles one incoming packet at time `now_ns`, returning packets to
    /// transmit (client replies and/or switch cache updates). Allocating
    /// convenience over [`handle_packet_into`](Self::handle_packet_into).
    pub fn handle_packet(&self, pkt: Packet, now_ns: u64) -> Vec<Packet> {
        let mut out = Vec::new();
        self.handle_packet_into(pkt, now_ns, &mut out);
        out
    }

    /// Handles one incoming packet at time `now_ns`, appending the packets
    /// to transmit to `out`. Transport loops pass the same buffer for every
    /// packet, so the steady state allocates nothing here.
    pub fn handle_packet_into(&self, pkt: Packet, now_ns: u64, out: &mut Vec<Packet>) {
        if !self.is_serving() {
            // Dead or not-yet-resynced: the machine is effectively off the
            // network; packets to it simply vanish.
            return;
        }
        match pkt.netcache.op {
            Op::Get => self.handle_get(pkt, out),
            Op::Put | Op::Delete => self.handle_write(pkt, /*cached=*/ false, now_ns, out),
            Op::PutCached | Op::DeleteCached => {
                self.handle_write(pkt, /*cached=*/ true, now_ns, out)
            }
            Op::ChainPut | Op::ChainDelete => self.handle_chain(pkt, out),
            Op::CacheUpdateAck => self.handle_ack(pkt, now_ns, out),
            // Anything else (replies, stray updates) is not for a server.
            _ => {}
        }
    }

    /// Periodic clock tick: retransmits timed-out cache updates. Returns
    /// packets to transmit.
    pub fn tick(&self, now_ns: u64) -> Vec<Packet> {
        if !self.is_serving() {
            return Vec::new();
        }
        let mut inner = self.inner.lock();
        let mut out = Vec::new();
        let mut give_up: Vec<Key> = Vec::new();
        for (key, state) in inner.keys.iter_mut() {
            let Some(pending) = &mut state.pending else {
                continue;
            };
            if now_ns.saturating_sub(pending.last_sent_ns) < self.config.update_retry_timeout_ns {
                continue;
            }
            if pending.retries >= self.config.update_max_retries {
                give_up.push(*key);
                continue;
            }
            pending.retries += 1;
            pending.last_sent_ns = now_ns;
            out.push(Packet::cache_update(
                self.config.ip,
                self.config.switch_ip,
                *key,
                pending.version,
                pending.value.clone(),
            ));
        }
        let mut retries = 0;
        let mut abandoned = 0;
        retries += out.len() as u64;
        for key in give_up {
            abandoned += 1;
            if let Some(state) = inner.keys.get_mut(&key) {
                state.pending = None;
            }
            self.release_blocked(&mut inner, key, now_ns, &mut out);
        }
        inner.stats.update_retries += retries;
        inner.stats.updates_abandoned += abandoned;
        out
    }

    // ---- Controller-facing out-of-band hooks (§4.3 cache update) ----

    /// Blocks writes to `key` while the controller inserts it into the
    /// cache ("write queries to this key are blocked at the storage
    /// servers until the insertion is finished").
    pub fn controller_lock(&self, key: Key) {
        self.inner
            .lock()
            .keys
            .entry(key)
            .or_default()
            .controller_locked = true;
    }

    /// Releases the controller lock and returns any packets produced by
    /// draining the blocked-write queue.
    pub fn controller_unlock(&self, key: Key, now_ns: u64) -> Vec<Packet> {
        let mut inner = self.inner.lock();
        if let Some(state) = inner.keys.get_mut(&key) {
            state.controller_locked = false;
        }
        let mut out = Vec::new();
        self.release_blocked(&mut inner, key, now_ns, &mut out);
        Self::gc_key(&mut inner, &key);
        out
    }

    /// Fetches the current item for `key` (the controller reads "the values
    /// of the keys to insert ... from the storage servers").
    pub fn fetch(&self, key: &Key) -> Option<StoredItem> {
        if !self.is_serving() {
            return None;
        }
        self.store.get(key)
    }

    /// Records that `key` is now in the switch cache: subsequent writes to
    /// it emit cache updates even if they arrive without the switch's
    /// cached-op rewrite (e.g. writes blocked during the insertion itself).
    pub fn mark_cached(&self, key: Key) {
        self.inner.lock().cached_keys.insert(key);
    }

    /// Records that `key` left the switch cache.
    pub fn unmark_cached(&self, key: &Key) {
        self.inner.lock().cached_keys.remove(key);
    }

    // ---- Query handlers ----

    fn handle_get(&self, mut pkt: Packet, out: &mut Vec<Packet>) {
        match self.store.get(&pkt.netcache.key) {
            Some(item) => pkt.make_reply(Op::GetReplyMiss, Some(item.value)),
            None => {
                self.not_found.fetch_add(1, Ordering::Relaxed);
                pkt.make_reply(Op::GetReplyNotFound, None);
            }
        }
        self.gets.fetch_add(1, Ordering::Relaxed);
        out.push(pkt);
    }

    /// Dedup check, blocked check and commit happen in one critical
    /// section: between a check and a separately locked commit, a second
    /// writer to the same cached key could pass the blocked check before
    /// the first had set its pending update.
    fn handle_write(&self, pkt: Packet, cached: bool, now_ns: u64, out: &mut Vec<Packet>) {
        let key = pkt.netcache.key;
        let id = (pkt.ipv4.src, pkt.netcache.seq);
        let sequenced = id.1 != 0;
        let mut inner = self.inner.lock();
        if sequenced {
            // Retransmission of a committed write: resend its reply.
            if let Some(reply) = inner.recent_writes.get(&id) {
                out.push(reply.clone());
                inner.stats.dup_writes_ignored += 1;
                return;
            }
        }
        if let Some(state) = inner.keys.get_mut(&key) {
            // Duplicate of a write already waiting in the blocked
            // queue: drop it (the queued original will answer).
            if sequenced && state.holds_blocked(id) {
                inner.stats.dup_writes_ignored += 1;
                return;
            }
            if state.is_blocked() {
                // §4.3: serialize writes behind the in-flight cache update
                // or controller insertion.
                state.blocked.push_back(pkt);
                inner.stats.writes_blocked += 1;
                return;
            }
        }
        let cached = cached || inner.cached_keys.contains(&key);
        self.commit_write_locked(&mut inner, pkt, cached, now_ns, out);
    }

    fn handle_ack(&self, pkt: Packet, now_ns: u64, out: &mut Vec<Packet>) {
        let key = pkt.netcache.key;
        let mut inner = self.inner.lock();
        let Some(state) = inner.keys.get_mut(&key) else {
            return;
        };
        let matches = state
            .pending
            .as_ref()
            .is_some_and(|p| p.version == pkt.netcache.seq);
        if !matches {
            // Stale ack (for an older retransmission); the current update
            // is still outstanding.
            return;
        }
        state.pending = None;
        inner.stats.acks_matched += 1;
        self.release_blocked(&mut inner, key, now_ns, out);
        Self::gc_key(&mut inner, &key);
    }

    /// Releases the first blocked write for `key`, if the key is now
    /// unblocked. Called with the inner lock held; commits outside the
    /// lock via re-entry-safe structure.
    fn release_blocked(&self, inner: &mut Inner, key: Key, now_ns: u64, out: &mut Vec<Packet>) {
        while let Some(state) = inner.keys.get_mut(&key) {
            if state.is_blocked() {
                break;
            }
            let Some(next) = state.blocked.pop_front() else {
                break;
            };
            if next.netcache.op.is_chain() {
                // Chain writes never create a pending update, so keep
                // draining — every queued forward must leave the node or
                // its chain stalls forever.
                self.commit_chain_locked(inner, next, out);
                continue;
            }
            // A write can arrive *before* the key becomes cached (plain op)
            // and be released *after* — the membership set catches that, so
            // the switch still gets its update.
            let cached = matches!(next.netcache.op, Op::PutCached | Op::DeleteCached)
                || inner.cached_keys.contains(&key);
            self.commit_write_locked(inner, next, cached, now_ns, out);
            // Committing a cached put re-blocks the key behind its pending
            // cache update; the loop condition handles that.
        }
    }

    // ---- Chain replication (NetChain direction) ----

    /// Handles a chain-replicated write: the switch steers these down the
    /// replica chain, and every hop applies then re-emits the packet
    /// unchanged (the switch routes by ingress port, and converts the
    /// tail's re-emission into the client's reply).
    fn handle_chain(&self, pkt: Packet, out: &mut Vec<Packet>) {
        let key = pkt.netcache.key;
        let id = (pkt.ipv4.src, pkt.netcache.seq);
        let sequenced = id.1 != 0;
        let mut inner = self.inner.lock();
        if sequenced {
            // Duplicate of a write this node already processed: re-emit the
            // remembered *stamped forward*. At the head/mid that re-walks
            // the rest of the chain; at the tail the switch reconverts it
            // into the client reply. Either way the client's retry is
            // answered without reapplying.
            if let Some(fwd) = inner.recent_writes.get(&id) {
                out.push(fwd.clone());
                inner.stats.dup_writes_ignored += 1;
                inner.stats.chain_forwarded += 1;
                return;
            }
        }
        if let Some(state) = inner.keys.get_mut(&key) {
            // Duplicate of a forward still waiting in the blocked queue:
            // drop it, the queued original will travel when released.
            if sequenced && state.holds_blocked(id) {
                inner.stats.dup_writes_ignored += 1;
                return;
            }
            if state.is_blocked() {
                // Controller lock (cache insertion at this node): queue the
                // forward; `release_blocked` drains it on unlock.
                state.blocked.push_back(pkt);
                inner.stats.writes_blocked += 1;
                return;
            }
        }
        self.commit_chain_locked(&mut inner, pkt, out);
    }

    /// The newest version this node has applied for `key`, across deletes
    /// (serial-number arithmetic, 0 = never written).
    fn last_applied_version(&self, inner: &Inner, key: &Key) -> u32 {
        let stored = self.store.version_of(key).unwrap_or(0);
        let tomb = inner.applied_versions.get(key).copied().unwrap_or(0);
        match (stored, tomb) {
            (0, t) => t,
            (s, 0) => s,
            (s, t) if (t.wrapping_sub(s) as i32) > 0 => t,
            (s, _) => s,
        }
    }

    /// Applies a chain write (if it is news to this node) and returns the
    /// stamped forward to re-emit. The head (recognizable by
    /// `chain_version == 0`) assigns the version; replicas apply
    /// iff-newer, which makes duplicates and stale retransmissions
    /// harmless at every hop.
    fn commit_chain_locked(&self, inner: &mut Inner, mut pkt: Packet, out: &mut Vec<Packet>) {
        let key = pkt.netcache.key;
        let last = self.last_applied_version(inner, &key);
        if pkt.netcache.chain_version == 0 {
            pkt.netcache.chain_version = last.wrapping_add(1).max(1);
        }
        let version = pkt.netcache.chain_version;
        let newer = last == 0 || (version.wrapping_sub(last) as i32) > 0;
        if newer {
            if pkt.netcache.op == Op::ChainDelete {
                self.store.delete(&key);
                inner.stats.deletes += 1;
            } else {
                let empty = Value::default();
                let value = pkt.netcache.value.as_ref().unwrap_or(&empty);
                self.store.put(key, value, version);
                inner.stats.puts += 1;
            }
            inner.remember_applied(key, version);
            inner.stats.chain_applied += 1;
        }
        if pkt.netcache.seq != 0 {
            inner.remember_write((pkt.ipv4.src, pkt.netcache.seq), pkt.clone());
        }
        inner.stats.chain_forwarded += 1;
        // Re-emit unchanged: dst stays the partition's static home IP and
        // src stays the client, so the tail's reply reaches the client.
        out.push(pkt);
    }

    /// Commits a write with the inner lock already held.
    ///
    /// Versions are server-assigned and monotone per key; version 0 is
    /// reserved as "never written" by the switch status array. The reply to
    /// the client is produced as soon as the write commits — the switch
    /// update proceeds in the background (§4.3: the server "replies to the
    /// client as soon as it completes the write query, and does not need to
    /// wait for the switch cache to be updated").
    fn commit_write_locked(
        &self,
        inner: &mut Inner,
        mut pkt: Packet,
        cached: bool,
        now_ns: u64,
        out: &mut Vec<Packet>,
    ) {
        let key = pkt.netcache.key;
        let write_id = (pkt.ipv4.src, pkt.netcache.seq);
        let reply_at = out.len();
        if matches!(pkt.netcache.op, Op::Delete | Op::DeleteCached) {
            self.store.delete(&key);
            inner.stats.deletes += 1;
            // The switch entry (if any) was invalidated by the switch and
            // stays invalid; the controller will evict it. No cache update
            // is sent for deletes — there is no value to push.
            pkt.make_reply(Op::DeleteReply, None);
            out.push(pkt);
        } else {
            let next_version = self
                .store
                .version_of(&key)
                .map_or(1, |v| v.wrapping_add(1).max(1));
            let value = pkt.netcache.value.take().unwrap_or_default();
            self.store.put(key, &value, next_version);
            inner.stats.puts += 1;
            pkt.make_reply(Op::PutReply, None);
            out.push(pkt);
            if cached && self.config.dataplane_updates {
                let state = inner.keys.entry(key).or_default();
                state.pending = Some(PendingUpdate {
                    version: next_version,
                    value: value.clone(),
                    retries: 0,
                    last_sent_ns: now_ns,
                });
                inner.stats.updates_sent += 1;
                out.push(Packet::cache_update(
                    self.config.ip,
                    self.config.switch_ip,
                    key,
                    next_version,
                    value,
                ));
            }
        }
        if write_id.1 != 0 {
            inner.remember_write(write_id, out[reply_at].clone());
        }
    }

    /// Drops empty per-key coherence state to keep the map bounded.
    fn gc_key(inner: &mut Inner, key: &Key) {
        if inner.keys.get(key).is_some_and(KeyState::is_idle) {
            inner.keys.remove(key);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CLIENT_IP: u32 = 0x0a00_0001;

    fn agent() -> ServerAgent {
        ServerAgent::new(AgentConfig::default())
    }

    fn get(key: u64) -> Packet {
        Packet::get_query(
            1,
            CLIENT_IP,
            AgentConfig::default().ip,
            Key::from_u64(key),
            0,
        )
    }

    fn put(key: u64, fill: u8) -> Packet {
        Packet::put_query(
            1,
            CLIENT_IP,
            AgentConfig::default().ip,
            Key::from_u64(key),
            0,
            Value::filled(fill, 32),
        )
    }

    fn put_cached(key: u64, fill: u8) -> Packet {
        let mut p = put(key, fill);
        p.netcache.op = Op::PutCached;
        p
    }

    fn ack_for(update: &Packet) -> Packet {
        update.clone().into_reply(Op::CacheUpdateAck, None)
    }

    #[test]
    fn get_missing_key_not_found() {
        let a = agent();
        let out = a.handle_packet(get(1), 0);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].netcache.op, Op::GetReplyNotFound);
        assert_eq!(out[0].ipv4.dst, CLIENT_IP);
        assert_eq!(a.stats().not_found, 1);
    }

    #[test]
    fn put_then_get_round_trip() {
        let a = agent();
        let out = a.handle_packet(put(1, 7), 0);
        assert_eq!(out.len(), 1, "uncached put: reply only, no cache update");
        assert_eq!(out[0].netcache.op, Op::PutReply);

        let out = a.handle_packet(get(1), 0);
        assert_eq!(out[0].netcache.op, Op::GetReplyMiss);
        assert_eq!(
            out[0].netcache.value.as_ref().unwrap(),
            &Value::filled(7, 32)
        );
    }

    #[test]
    fn cached_put_emits_reply_and_cache_update() {
        let a = agent();
        let out = a.handle_packet(put_cached(1, 7), 0);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].netcache.op, Op::PutReply);
        assert_eq!(out[1].netcache.op, Op::CacheUpdate);
        assert_eq!(out[1].ipv4.dst, AgentConfig::default().switch_ip);
        assert_eq!(out[1].netcache.seq, 1, "first version is 1");
        assert_eq!(
            out[1].netcache.value.as_ref().unwrap(),
            &Value::filled(7, 32)
        );
    }

    #[test]
    fn versions_increase_per_write() {
        let a = agent();
        let out1 = a.handle_packet(put_cached(1, 1), 0);
        a.handle_packet(ack_for(&out1[1]), 1);
        let out2 = a.handle_packet(put_cached(1, 2), 2);
        assert_eq!(out2[1].netcache.seq, 2);
    }

    #[test]
    fn second_write_blocks_until_ack() {
        let a = agent();
        let out1 = a.handle_packet(put_cached(1, 1), 0);
        // Second write arrives before the ack: it must be blocked (no
        // reply yet).
        let out2 = a.handle_packet(put_cached(1, 2), 10);
        assert!(
            out2.is_empty(),
            "write must be blocked behind pending update"
        );
        assert_eq!(a.stats().writes_blocked, 1);
        // Store must not have been modified by the blocked write.
        assert_eq!(
            a.store().get(&Key::from_u64(1)).unwrap().value,
            Value::filled(1, 32)
        );
        // Ack releases the blocked write, which commits and produces its
        // own reply + cache update.
        let out3 = a.handle_packet(ack_for(&out1[1]), 20);
        assert_eq!(out3.len(), 2);
        assert_eq!(out3[0].netcache.op, Op::PutReply);
        assert_eq!(out3[1].netcache.op, Op::CacheUpdate);
        assert_eq!(out3[1].netcache.seq, 2);
        assert_eq!(
            a.store().get(&Key::from_u64(1)).unwrap().value,
            Value::filled(2, 32)
        );
    }

    #[test]
    fn stale_ack_does_not_release() {
        let a = agent();
        let out1 = a.handle_packet(put_cached(1, 1), 0);
        let mut stale = ack_for(&out1[1]);
        stale.netcache.seq = 99;
        assert!(a.handle_packet(stale, 1).is_empty());
        // Real ack still works.
        let out = a.handle_packet(ack_for(&out1[1]), 2);
        assert!(out.is_empty(), "nothing blocked, so no output");
        assert_eq!(a.stats().acks_matched, 1);
    }

    #[test]
    fn tick_retransmits_until_limit() {
        let cfg = AgentConfig {
            update_retry_timeout_ns: 100,
            update_max_retries: 3,
            ..AgentConfig::default()
        };
        let a = ServerAgent::new(cfg);
        a.handle_packet(put_cached(1, 1), 0);
        let mut retransmissions = 0;
        let mut t = 0;
        for _ in 0..10 {
            t += 200;
            retransmissions += a
                .tick(t)
                .iter()
                .filter(|p| p.netcache.op == Op::CacheUpdate)
                .count();
        }
        assert_eq!(retransmissions, 3, "bounded retries");
        assert_eq!(a.stats().updates_abandoned, 1);
        // After abandoning, new writes are no longer blocked.
        let out = a.handle_packet(put_cached(1, 2), t + 1);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn abandoned_update_releases_blocked_writes() {
        let cfg = AgentConfig {
            update_retry_timeout_ns: 100,
            update_max_retries: 0,
            ..AgentConfig::default()
        };
        let a = ServerAgent::new(cfg);
        a.handle_packet(put_cached(1, 1), 0);
        assert!(a.handle_packet(put_cached(1, 2), 1).is_empty());
        let out = a.tick(500);
        // Abandon happens immediately (0 retries allowed); the blocked
        // write is then committed.
        assert!(out.iter().any(|p| p.netcache.op == Op::PutReply));
        assert_eq!(
            a.store().get(&Key::from_u64(1)).unwrap().value,
            Value::filled(2, 32)
        );
    }

    #[test]
    fn controller_lock_blocks_writes() {
        let a = agent();
        a.handle_packet(put(1, 1), 0);
        a.controller_lock(Key::from_u64(1));
        let out = a.handle_packet(put(1, 2), 1);
        assert!(out.is_empty());
        // Reads are never blocked.
        let out = a.handle_packet(get(1), 2);
        assert_eq!(
            out[0].netcache.value.as_ref().unwrap(),
            &Value::filled(1, 32)
        );
        // Unlock releases the write.
        let out = a.controller_unlock(Key::from_u64(1), 3);
        assert!(out.iter().any(|p| p.netcache.op == Op::PutReply));
        assert_eq!(
            a.store().get(&Key::from_u64(1)).unwrap().value,
            Value::filled(2, 32)
        );
    }

    #[test]
    fn delete_cached_removes_and_replies_without_update() {
        let a = agent();
        a.handle_packet(put(1, 1), 0);
        let mut del =
            Packet::delete_query(1, CLIENT_IP, AgentConfig::default().ip, Key::from_u64(1), 0);
        del.netcache.op = Op::DeleteCached;
        let out = a.handle_packet(del, 1);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].netcache.op, Op::DeleteReply);
        assert!(a.store().get(&Key::from_u64(1)).is_none());
    }

    #[test]
    fn fetch_reads_without_side_effects() {
        let a = agent();
        a.handle_packet(put(1, 9), 0);
        let item = a.fetch(&Key::from_u64(1)).unwrap();
        assert_eq!(item.value, Value::filled(9, 32));
        assert_eq!(item.version, 1);
        assert!(a.fetch(&Key::from_u64(2)).is_none());
    }

    #[test]
    fn retransmitted_write_resends_reply_without_recommit() {
        let a = agent();
        let mut p = put(1, 1);
        p.netcache.seq = 7;
        let out1 = a.handle_packet(p.clone(), 0);
        assert_eq!(out1[0].netcache.op, Op::PutReply);
        let v1 = a.store().get(&Key::from_u64(1)).unwrap().version;
        let out2 = a.handle_packet(p, 1);
        assert_eq!(out2.len(), 1);
        assert_eq!(out2[0].netcache.op, Op::PutReply, "stored reply resent");
        assert_eq!(
            a.store().get(&Key::from_u64(1)).unwrap().version,
            v1,
            "duplicate must not bump the version"
        );
        assert_eq!(a.stats().dup_writes_ignored, 1);
        assert_eq!(a.stats().puts, 1);
    }

    #[test]
    fn duplicate_of_blocked_write_is_dropped() {
        let a = agent();
        a.handle_packet(put_cached(1, 1), 0); // pending update blocks key 1
        let mut p = put_cached(1, 2);
        p.netcache.seq = 9;
        assert!(a.handle_packet(p.clone(), 1).is_empty());
        assert!(a.handle_packet(p, 2).is_empty());
        assert_eq!(a.stats().dup_writes_ignored, 1);
        assert_eq!(a.stats().writes_blocked, 1, "only queued once");
    }

    #[test]
    fn sink_appends_and_remembers_the_right_reply() {
        // Drivers hand the agent one buffer for many packets; outputs are
        // appended after whatever is already there, and the reply stored
        // for dedup is this write's, not the buffer's first packet.
        let a = agent();
        let mut out = Vec::new();
        for (key, seq) in [(1u64, 7u32), (2, 8)] {
            let mut p = put(key, 1);
            p.netcache.seq = seq;
            a.handle_packet_into(p, 0, &mut out);
        }
        assert_eq!(out.len(), 2);
        let mut dup = put(2, 1);
        dup.netcache.seq = 8;
        a.handle_packet_into(dup, 1, &mut out);
        assert_eq!(out.len(), 3);
        assert_eq!(out[2], out[1], "key 2's stored reply, resent");
        assert_eq!(out[2].netcache.key, Key::from_u64(2));
    }

    #[test]
    fn uncached_writes_leave_no_coherence_state() {
        let a = agent();
        for key in 0..100 {
            a.handle_packet(put(key, 1), 0);
        }
        assert!(a.inner.lock().keys.is_empty());
        // A cached write holds state only until its update is acked.
        let out = a.handle_packet(put_cached(1, 2), 1);
        assert_eq!(a.inner.lock().keys.len(), 1);
        a.handle_packet(ack_for(&out[1]), 2);
        assert!(a.inner.lock().keys.is_empty());
    }

    #[test]
    fn racing_writers_to_a_cached_key_commit_exactly_one() {
        // Blocked check and commit share one critical section: of two
        // writers released together onto an idle cached key, one commits
        // and sets the pending update, the other must queue behind it.
        for _ in 0..200 {
            let a = agent();
            let start = std::sync::Barrier::new(2);
            std::thread::scope(|s| {
                for fill in [1, 2] {
                    let (a, start) = (&a, &start);
                    s.spawn(move || {
                        start.wait();
                        a.handle_packet(put_cached(1, fill), 0);
                    });
                }
            });
            let stats = a.stats();
            assert_eq!((stats.puts, stats.writes_blocked), (1, 1));
        }
    }

    #[test]
    fn marked_key_write_emits_update_without_rewrite() {
        let a = agent();
        a.mark_cached(Key::from_u64(1));
        // Plain Put (no switch rewrite) still refreshes the cache.
        let out = a.handle_packet(put(1, 5), 0);
        assert_eq!(out.len(), 2);
        assert_eq!(out[1].netcache.op, Op::CacheUpdate);
        a.handle_packet(ack_for(&out[1]), 1);
        a.unmark_cached(&Key::from_u64(1));
        let out = a.handle_packet(put(1, 6), 2);
        assert_eq!(out.len(), 1, "unmarked key: plain write again");
    }

    #[test]
    fn blocked_plain_write_released_after_mark_emits_update() {
        // A write arrives while the controller is inserting the key (so it
        // carries the plain op), and is released after the insertion
        // finished — the membership set must still produce the update.
        let a = agent();
        a.handle_packet(put(1, 1), 0);
        a.controller_lock(Key::from_u64(1));
        assert!(a.handle_packet(put(1, 2), 1).is_empty());
        a.mark_cached(Key::from_u64(1));
        let out = a.controller_unlock(Key::from_u64(1), 2);
        assert!(
            out.iter().any(|p| p.netcache.op == Op::CacheUpdate),
            "released write must refresh the now-cached key"
        );
    }

    fn chain_put(key: u64, fill: u8, seq: u32, version: u32) -> Packet {
        let mut p = Packet::put_query(
            1,
            CLIENT_IP,
            AgentConfig::default().ip,
            Key::from_u64(key),
            seq,
            Value::filled(fill, 32),
        );
        p.netcache.op = Op::ChainPut;
        p.netcache.chain_version = version;
        p.refresh_lengths();
        p
    }

    #[test]
    fn chain_head_stamps_and_applies() {
        let a = agent();
        let out = a.handle_packet(chain_put(1, 7, 5, 0), 0);
        assert_eq!(out.len(), 1, "one forward, no client reply, no update");
        assert_eq!(out[0].netcache.op, Op::ChainPut);
        assert_eq!(out[0].netcache.chain_version, 1, "head stamped v1");
        assert_eq!(out[0].ipv4.dst, AgentConfig::default().ip, "dst unchanged");
        let item = a.store().get(&Key::from_u64(1)).unwrap();
        assert_eq!(item.version, 1);
        assert_eq!(item.value, Value::filled(7, 32));
        assert_eq!(a.stats().chain_applied, 1);

        // Next write stamps v2.
        let out = a.handle_packet(chain_put(1, 8, 6, 0), 1);
        assert_eq!(out[0].netcache.chain_version, 2);
    }

    #[test]
    fn chain_replica_applies_stamped_version() {
        let a = agent();
        let out = a.handle_packet(chain_put(1, 7, 5, 9), 0);
        assert_eq!(out[0].netcache.chain_version, 9, "stamp preserved");
        assert_eq!(a.store().get(&Key::from_u64(1)).unwrap().version, 9);
        // A stale forward (lower version) re-emits without applying.
        let out = a.handle_packet(chain_put(1, 3, 6, 4), 1);
        assert_eq!(out[0].netcache.chain_version, 4);
        assert_eq!(
            a.store().get(&Key::from_u64(1)).unwrap().version,
            9,
            "stale version must not clobber"
        );
    }

    #[test]
    fn chain_duplicate_reemits_remembered_forward() {
        let a = agent();
        let out1 = a.handle_packet(chain_put(1, 7, 5, 0), 0);
        let v1 = a.store().get(&Key::from_u64(1)).unwrap().version;
        // Client retransmission arrives unstamped again.
        let out2 = a.handle_packet(chain_put(1, 7, 5, 0), 1);
        assert_eq!(out2, out1, "remembered stamped forward re-emitted");
        assert_eq!(a.store().get(&Key::from_u64(1)).unwrap().version, v1);
        assert_eq!(a.stats().dup_writes_ignored, 1);
        assert_eq!(a.stats().chain_applied, 1, "applied exactly once");
    }

    #[test]
    fn chain_delete_keeps_version_monotone() {
        let a = agent();
        a.handle_packet(chain_put(1, 7, 5, 0), 0); // v1
        let mut del =
            Packet::delete_query(1, CLIENT_IP, AgentConfig::default().ip, Key::from_u64(1), 6);
        del.netcache.op = Op::ChainDelete;
        del.netcache.chain_version = 0;
        del.refresh_lengths();
        let out = a.handle_packet(del, 1);
        assert_eq!(out[0].netcache.chain_version, 2, "delete stamped v2");
        assert!(a.store().get(&Key::from_u64(1)).is_none());
        // The next put must continue past the tombstone, not restart at 1.
        let out = a.handle_packet(chain_put(1, 9, 7, 0), 2);
        assert_eq!(out[0].netcache.chain_version, 3);
        assert_eq!(a.store().get(&Key::from_u64(1)).unwrap().version, 3);
    }

    #[test]
    fn controller_lock_queues_chain_writes_and_unlock_drains_all() {
        let a = agent();
        a.controller_lock(Key::from_u64(1));
        assert!(a.handle_packet(chain_put(1, 1, 5, 0), 0).is_empty());
        assert!(a.handle_packet(chain_put(1, 2, 6, 0), 1).is_empty());
        assert_eq!(a.stats().writes_blocked, 2);
        let out = a.controller_unlock(Key::from_u64(1), 2);
        assert_eq!(out.len(), 2, "every queued forward drains on unlock");
        assert_eq!(out[0].netcache.chain_version, 1);
        assert_eq!(out[1].netcache.chain_version, 2);
        assert_eq!(a.store().get(&Key::from_u64(1)).unwrap().version, 2);
    }

    #[test]
    fn killed_agent_drops_everything() {
        let a = agent();
        a.handle_packet(put(1, 1), 0);
        a.kill();
        assert!(!a.is_alive());
        assert!(a.handle_packet(get(1), 1).is_empty());
        assert!(a.handle_packet(put(1, 2), 2).is_empty());
        assert!(a.fetch(&Key::from_u64(1)).is_none());
        assert!(a.tick(100).is_empty());
    }

    #[test]
    fn revive_wipes_store_and_waits_for_resync() {
        let a = agent();
        a.handle_packet(put(1, 1), 0);
        a.kill();
        a.revive();
        assert!(a.is_alive());
        assert!(a.needs_resync());
        assert!(!a.is_serving());
        assert!(a.handle_packet(get(1), 1).is_empty(), "not serving yet");
        assert!(a.store().is_empty(), "crash loses memory state");
        // Resync path: the controller copies items in, then marks synced.
        a.store().put(Key::from_u64(1), Value::filled(1, 32), 4);
        a.mark_resynced();
        assert!(a.is_serving());
        let out = a.handle_packet(get(1), 2);
        assert_eq!(out[0].netcache.op, Op::GetReplyMiss);
        assert_eq!(a.stats().puts, 1, "stats survive the restart");
    }

    #[test]
    fn blocked_writes_commit_in_fifo_order() {
        let a = agent();
        let out1 = a.handle_packet(put_cached(1, 1), 0);
        assert!(a.handle_packet(put_cached(1, 2), 1).is_empty());
        assert!(a.handle_packet(put_cached(1, 3), 2).is_empty());
        // First ack releases write #2.
        let out2 = a.handle_packet(ack_for(&out1[1]), 3);
        assert_eq!(
            a.store().get(&Key::from_u64(1)).unwrap().value,
            Value::filled(2, 32)
        );
        // Second ack releases write #3.
        let update2 = out2
            .iter()
            .find(|p| p.netcache.op == Op::CacheUpdate)
            .unwrap();
        a.handle_packet(ack_for(update2), 4);
        assert_eq!(
            a.store().get(&Key::from_u64(1)).unwrap().value,
            Value::filled(3, 32)
        );
    }
}
