//! The client library, once for every transport.
//!
//! Every deployment does the same thing on behalf of an application:
//! turn a `get`/`put`/`delete` call into a NetCache query, send it toward
//! the switch, take the reply carrying the query's sequence number,
//! retransmit on a timeout with exponential backoff, and suppress stale
//! or duplicate replies. [`Client`] is that library, generic over a
//! [`Link`] — the primitives a transport provides: inject a frame, let
//! transport time pass while collecting what comes back, and name the
//! counters and latency histogram its clients account against.

use std::borrow::Cow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use netcache_client::{AppResponse, NetCacheClient, Response};
use netcache_proto::{Key, Packet, Value};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::hist::ShardedHistogram;

/// A client-visible response plus provenance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientResponse {
    inner: Response,
}

impl ClientResponse {
    /// Wraps a decoded response.
    pub(crate) fn new(inner: Response) -> Self {
        ClientResponse { inner }
    }

    /// The decoded response.
    pub fn response(&self) -> &Response {
        &self.inner
    }

    /// Unwraps into the bare decoded response.
    pub fn into_response(self) -> Response {
        self.inner
    }

    /// The value, if this is a successful read.
    pub fn value(&self) -> Option<&netcache_proto::Value> {
        match &self.inner {
            Response::Value { value, .. } => Some(value),
            _ => None,
        }
    }

    /// Whether the switch cache served this read.
    pub fn served_by_cache(&self) -> bool {
        matches!(
            self.inner,
            Response::Value {
                from_cache: true,
                ..
            }
        )
    }

    /// Whether the key was absent.
    pub fn not_found(&self) -> bool {
        matches!(self.inner, Response::NotFound { .. })
    }
}

/// A client's attachment to one rack deployment: the primitives
/// [`Client`] needs from a transport.
pub trait Link {
    /// Transmits `pkt` toward the switch, handing every reply already
    /// available when the call returns to `reply` (synchronous
    /// virtual-time transports complete the whole exchange here). The
    /// packet comes borrowed when the client may retransmit it and owned
    /// when it will not, so a link that consumes packets clones only for
    /// retries.
    fn transmit(&mut self, pkt: Cow<'_, Packet>, reply: impl FnMut(Packet));

    /// Lets up to `timeout_ns` of transport time elapse — advancing a
    /// virtual clock and driving retransmission timers, or blocking on a
    /// socket — handing replies that surface meanwhile to `reply`.
    /// Transports may return early once a reply carrying `want_seq` has
    /// been handed over.
    fn wait(&mut self, timeout_ns: u64, want_seq: u32, reply: impl FnMut(Packet));

    /// The deployment-wide counters this link's clients account retries,
    /// stale replies and abandoned requests against.
    fn counters(&self) -> &ClientCounters;

    /// The deployment-wide end-to-end op latency histogram (one sample
    /// per answered request, covering all its attempts).
    fn op_latency(&self) -> &ShardedHistogram;
}

/// A [`Link`] whose [`Link::transmit`] runs the whole exchange: every
/// reply a request gets without transport time passing has been handed
/// over when it returns. Only over such a link does a single attempt — no
/// wait, no retransmission — mean anything, so only these clients offer
/// one ([`Client::get`] and friends).
pub trait Synchronous: Link {}

/// Client-side retransmission policy: per-request timeout with exponential
/// backoff and deterministic jitter.
///
/// On virtual-time transports a "timeout" advances the rack clock by the
/// computed interval and drives server retransmission timers — exactly
/// what elapsing real time does on the UDP transport.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Retransmissions allowed per request (0 = single attempt).
    pub max_retries: u32,
    /// Timeout before the first retransmission, nanoseconds.
    pub base_timeout_ns: u64,
    /// Cap on the backed-off timeout, nanoseconds.
    pub max_timeout_ns: u64,
    /// Jitter added to each timeout, as a fraction of the backoff
    /// (derived deterministically from the request sequence number and
    /// attempt, so runs stay reproducible).
    pub jitter: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 16,
            base_timeout_ns: 200_000,
            max_timeout_ns: 10_000_000,
            jitter: 0.25,
        }
    }
}

impl RetryPolicy {
    /// The policy the UDP deployment's clients use by default: wall-clock
    /// receive windows sized for loopback (20 ms doubling to a 320 ms
    /// cap, no jitter — the kernel's scheduling provides plenty).
    pub fn loopback() -> Self {
        RetryPolicy {
            max_retries: 5,
            base_timeout_ns: 20_000_000,
            max_timeout_ns: 320_000_000,
            jitter: 0.0,
        }
    }

    /// The timeout before retransmission number `attempt + 1` of the
    /// request with sequence number `seq`.
    pub fn timeout_ns(&self, seq: u32, attempt: u32) -> u64 {
        let backoff = self
            .base_timeout_ns
            .saturating_mul(1u64 << attempt.min(16))
            .min(self.max_timeout_ns);
        if self.jitter <= 0.0 {
            return backoff;
        }
        let span = (backoff as f64 * self.jitter) as u64;
        if span == 0 {
            return backoff;
        }
        let mut rng = StdRng::seed_from_u64(((seq as u64) << 32) | attempt as u64);
        backoff + rng.random_range(0..=span)
    }
}

/// Outcome of one request issued under a [`RetryPolicy`].
#[derive(Debug, Clone)]
pub struct RetryOutcome {
    /// The reply, or `None` if the retry budget was exhausted.
    pub response: Option<ClientResponse>,
    /// Retransmissions performed (0 = first attempt succeeded).
    pub retries: u32,
    /// Replies discarded during this request as stale (earlier seq) or
    /// duplicate deliveries.
    pub stale_replies: u32,
}

/// Rack-wide client-side counters, shared by every client a deployment
/// hands out and surfaced through [`crate::RackReport`].
#[derive(Debug, Default)]
pub struct ClientCounters {
    /// Retransmissions performed under a [`RetryPolicy`].
    pub retries: AtomicU64,
    /// Replies discarded because their sequence number did not match the
    /// outstanding request (late duplicates, reordered traffic).
    pub stale_replies: AtomicU64,
    /// Requests abandoned after exhausting a retry budget.
    pub abandoned: AtomicU64,
}

impl ClientCounters {
    /// Retransmissions performed so far.
    pub fn retries(&self) -> u64 {
        self.retries.load(Ordering::Relaxed)
    }

    /// Stale/duplicate replies discarded so far.
    pub fn stale_replies(&self) -> u64 {
        self.stale_replies.load(Ordering::Relaxed)
    }

    /// Requests abandoned so far.
    pub fn abandoned(&self) -> u64 {
        self.abandoned.load(Ordering::Relaxed)
    }
}

/// The client library: builds queries with its [`NetCacheClient`], sends
/// them over its [`Link`] and matches replies by sequence number as the
/// link hands them over, so a request allocates nothing here.
///
/// Every link offers the retrying operations (`*_with_retry`, `*_large`,
/// `*_app`), which follow the client's [`RetryPolicy`]. Synchronous links
/// add single-attempt [`get`](Client::get)/[`put`](Client::put)/
/// [`delete`](Client::delete); the UDP client keeps its own retrying
/// `get`/`put`/`delete` and a pipelined mode (see `crate::udp`).
pub struct Client<L: Link> {
    pub(crate) link: L,
    pub(crate) builder: NetCacheClient,
    pub(crate) policy: RetryPolicy,
}

impl<L: Link> Client<L> {
    /// A client sending over `link` the queries `builder` makes, under
    /// the default [`RetryPolicy`].
    pub fn new(link: L, builder: NetCacheClient) -> Self {
        Client {
            link,
            builder,
            policy: RetryPolicy::default(),
        }
    }

    /// Sets the retransmission policy of the retrying operations.
    pub fn with_policy(mut self, policy: RetryPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// The underlying packet-building client.
    pub fn inner_mut(&mut self) -> &mut NetCacheClient {
        &mut self.builder
    }

    /// The transport attachment (drivers reach their deployment through
    /// it between requests).
    pub fn link_mut(&mut self) -> &mut L {
        &mut self.link
    }

    /// Reads `key` under the retry policy.
    pub fn get_with_retry(&mut self, key: Key) -> RetryOutcome {
        let pkt = self.builder.get(key);
        self.request(pkt)
    }

    /// Writes `value` under `key` under the retry policy.
    pub fn put_with_retry(&mut self, key: Key, value: Value) -> RetryOutcome {
        let pkt = self.builder.put(key, value);
        self.request(pkt)
    }

    /// Deletes `key` under the retry policy.
    pub fn delete_with_retry(&mut self, key: Key) -> RetryOutcome {
        let pkt = self.builder.delete(key);
        self.request(pkt)
    }

    // ---- Large values (§2) ----

    /// Writes a logical payload of up to
    /// [`netcache_client::chunked::MAX_LARGE_LEN`] bytes under `base`.
    /// `None` if the payload is too large or a constituent write was lost.
    ///
    /// The split point falls out of the layout:
    /// [`netcache_client::chunked::split`] emits one chunk (the manifest,
    /// under the base key) whenever the payload fits
    /// [`netcache_client::chunked::FIRST_CHUNK_PAYLOAD`] bytes, and that
    /// item is recirculation-cacheable like any other; larger payloads get
    /// continuation chunks, written before the manifest so no reader sees
    /// a manifest whose data is missing.
    pub fn put_large(&mut self, base: Key, payload: &[u8]) -> Option<()> {
        let chunks = netcache_client::chunked::split(payload)?;
        for (index, value) in chunks {
            let key = netcache_client::chunked::chunk_key(base, index);
            self.put_with_retry(key, value).response?;
        }
        Some(())
    }

    /// Reads a logical payload; returns the bytes and whether *every*
    /// constituent item was served by the switch cache. `None` if a
    /// constituent read was lost or the chunks do not reassemble.
    pub fn get_large(&mut self, base: Key) -> Option<(Vec<u8>, bool)> {
        let manifest_resp = self.get_with_retry(base).response?;
        let mut all_cached = manifest_resp.served_by_cache();
        let manifest = manifest_resp.value()?.clone();
        let (total, _) = netcache_client::chunked::decode_manifest(&manifest)?;
        let count = netcache_client::chunked::chunk_count(total);
        let mut continuations = Vec::with_capacity(count as usize - 1);
        for index in 1..count {
            let key = netcache_client::chunked::chunk_key(base, index);
            let resp = self.get_with_retry(key).response?;
            all_cached &= resp.served_by_cache();
            continuations.push(resp.value()?.clone());
        }
        let payload = netcache_client::chunked::reassemble(&manifest, &continuations)?;
        Some((payload, all_cached))
    }

    // ---- Variable-length application keys (§5) ----

    /// Writes `payload` under a variable-length application key, embedding
    /// the original key in the value for collision detection (§5).
    ///
    /// Returns `None` on transport loss or if the key/payload exceed the
    /// [`netcache_client::appkey`] bounds.
    pub fn put_app(&mut self, app_key: &[u8], payload: &[u8]) -> Option<ClientResponse> {
        let record = netcache_client::AppRecord::new(app_key, payload)?;
        self.put_with_retry(record.hashed_key(), record.encode())
            .response
    }

    /// Reads a variable-length application key, verifying the embedded
    /// original key against the queried one (§5: "the client should verify
    /// whether the value is for the queried key").
    pub fn get_app(&mut self, app_key: &[u8]) -> Option<AppResponse> {
        let resp = self.get_with_retry(Key::from_app_key(app_key)).response?;
        Some(netcache_client::appkey::verify_response(
            app_key,
            resp.response(),
        ))
    }

    /// Deletes a variable-length application key.
    pub fn delete_app(&mut self, app_key: &[u8]) -> Option<ClientResponse> {
        self.delete_with_retry(Key::from_app_key(app_key)).response
    }

    /// Issues `pkt`, retransmitting it (same sequence number) per the
    /// policy until a seq-matching reply arrives or the budget is
    /// exhausted. On a timeout the link lets transport time elapse, so
    /// retransmission timers fire and delayed traffic matures — the reply
    /// may merely have been slow rather than lost.
    fn request(&mut self, pkt: Packet) -> RetryOutcome {
        let seq = pkt.netcache.seq;
        let t0 = Instant::now();
        let mut m = Matcher::new(seq);
        let mut retries = 0u32;
        loop {
            self.link
                .transmit(Cow::Borrowed(&pkt), |reply| m.offer(reply));
            if m.found.is_some() {
                break;
            }
            let timeout = self.policy.timeout_ns(seq, retries);
            self.link.wait(timeout, seq, |reply| m.offer(reply));
            if m.found.is_some() {
                break;
            }
            if retries >= self.policy.max_retries {
                self.link
                    .counters()
                    .abandoned
                    .fetch_add(1, Ordering::Relaxed);
                break;
            }
            retries += 1;
            self.link.counters().retries.fetch_add(1, Ordering::Relaxed);
        }
        RetryOutcome {
            stale_replies: m.stale,
            retries,
            response: self.settle(m, t0),
        }
    }

    /// Sends `pkt` once, with no wait and no retransmission.
    fn request_once(&mut self, pkt: Packet) -> Option<ClientResponse> {
        let t0 = Instant::now();
        let mut m = Matcher::new(pkt.netcache.seq);
        self.link.transmit(Cow::Owned(pkt), |reply| m.offer(reply));
        self.settle(m, t0)
    }

    /// Accounts a finished request: its stale replies, and its latency
    /// (since `t0`) if it was answered.
    fn settle(&self, m: Matcher, t0: Instant) -> Option<ClientResponse> {
        if m.stale > 0 {
            self.link
                .counters()
                .stale_replies
                .fetch_add(u64::from(m.stale), Ordering::Relaxed);
        }
        if m.found.is_some() {
            self.link
                .op_latency()
                .record(t0.elapsed().as_nanos() as u64);
        }
        m.found
    }
}

/// Sorts the replies one request receives: the first decodable one
/// carrying its sequence number answers it; a late reply to an earlier
/// request, or a duplicate delivery of this one, is stale and dropped.
struct Matcher {
    seq: u32,
    found: Option<ClientResponse>,
    stale: u32,
}

impl Matcher {
    fn new(seq: u32) -> Self {
        Matcher {
            seq,
            found: None,
            stale: 0,
        }
    }

    fn offer(&mut self, reply: Packet) {
        if reply.netcache.seq != self.seq || self.found.is_some() {
            self.stale += 1;
        } else {
            self.found = Response::from_packet(&reply).map(ClientResponse::new);
        }
    }
}

impl<L: Synchronous> Client<L> {
    /// Reads `key` with one attempt. `None` means the query or its reply
    /// was lost or is still in flight; a reply that turns up later is
    /// suppressed as stale by whichever request sees it.
    pub fn get(&mut self, key: Key) -> Option<ClientResponse> {
        let pkt = self.builder.get(key);
        self.request_once(pkt)
    }

    /// Writes `value` under `key` with one attempt.
    pub fn put(&mut self, key: Key, value: Value) -> Option<ClientResponse> {
        let pkt = self.builder.put(key, value);
        self.request_once(pkt)
    }

    /// Deletes `key` with one attempt.
    pub fn delete(&mut self, key: Key) -> Option<ClientResponse> {
        let pkt = self.builder.delete(key);
        self.request_once(pkt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netcache_client::ClientConfig;
    use netcache_proto::Op;

    fn reply(seq: u32) -> Packet {
        let mut pkt = Packet::get_query(1, 2, 3, Key::from_u64(1), seq);
        pkt.netcache.op = Op::GetReplyNotFound;
        pkt
    }

    /// A scripted link: each transmission pops the next canned reply batch.
    #[derive(Default)]
    struct Script {
        batches: Vec<Vec<Packet>>,
        transmits: u32,
        waits: u32,
        counters: ClientCounters,
        latency: ShardedHistogram,
    }

    impl Link for Script {
        fn transmit(&mut self, _pkt: Cow<'_, Packet>, reply: impl FnMut(Packet)) {
            self.transmits += 1;
            if !self.batches.is_empty() {
                self.batches.remove(0).into_iter().for_each(reply);
            }
        }
        fn wait(&mut self, _timeout_ns: u64, _want: u32, _reply: impl FnMut(Packet)) {
            self.waits += 1;
        }
        fn counters(&self) -> &ClientCounters {
            &self.counters
        }
        fn op_latency(&self) -> &ShardedHistogram {
            &self.latency
        }
    }

    impl Synchronous for Script {}

    /// A client over `batches`, allowing three retransmissions.
    fn client(batches: Vec<Vec<Packet>>) -> Client<Script> {
        let builder = NetCacheClient::new(ClientConfig {
            client_id: 1,
            ip: 2,
            partitions: 1,
            partition_seed: 0,
            server_ip_base: 3,
        });
        let link = Script {
            batches,
            ..Script::default()
        };
        Client::new(link, builder).with_policy(RetryPolicy {
            max_retries: 3,
            base_timeout_ns: 10,
            max_timeout_ns: 100,
            jitter: 0.0,
        })
    }

    #[test]
    fn first_attempt_success_is_retry_free() {
        let mut c = client(vec![vec![reply(7)]]);
        let out = c.request(reply(7));
        assert!(out.response.is_some());
        assert_eq!(out.retries, 0);
        assert_eq!(c.link.counters.retries(), 0);
        assert_eq!(c.link.latency.snapshot().count(), 1);
    }

    #[test]
    fn lost_replies_retransmit_then_succeed() {
        let mut c = client(vec![vec![], vec![], vec![reply(7)]]);
        let out = c.request(reply(7));
        assert!(out.response.is_some());
        assert_eq!(out.retries, 2);
        assert_eq!(c.link.counters.retries(), 2);
    }

    #[test]
    fn stale_and_duplicate_replies_are_counted_and_suppressed() {
        // One stale (seq 3), then the match, then a duplicate of it.
        let mut c = client(vec![vec![reply(3), reply(7), reply(7)]]);
        let out = c.request(reply(7));
        assert!(out.response.is_some());
        assert_eq!(out.stale_replies, 2);
        assert_eq!(c.link.counters.stale_replies(), 2);
    }

    #[test]
    fn budget_exhaustion_abandons() {
        let mut c = client(vec![]);
        let out = c.request(reply(7));
        assert!(out.response.is_none());
        assert_eq!(out.retries, 3, "policy allows 3 retransmissions");
        assert_eq!(c.link.transmits, 4, "1 attempt + 3 retries");
        assert_eq!(c.link.counters.abandoned(), 1);
        assert_eq!(
            c.link.latency.snapshot().count(),
            0,
            "no sample for abandoned"
        );
    }

    #[test]
    fn single_attempt_takes_only_its_own_reply() {
        // The builder's first query carries seq 1; a late reply to an
        // earlier request (seq 9) arrives alone and must not answer it.
        let mut c = client(vec![vec![reply(9)], vec![reply(2)]]);
        assert!(c.get(Key::from_u64(1)).is_none());
        assert!(c.get(Key::from_u64(1)).is_some(), "seq 2 answers seq 2");
        assert_eq!(c.link.transmits, 2);
        assert_eq!(c.link.waits, 0, "a single attempt never waits");
        assert_eq!(c.link.counters.stale_replies(), 1);
        assert_eq!(c.link.counters.abandoned(), 0);
        assert_eq!(c.link.latency.snapshot().count(), 1);
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let policy = RetryPolicy {
            max_retries: 10,
            base_timeout_ns: 100,
            max_timeout_ns: 500,
            jitter: 0.0,
        };
        assert_eq!(policy.timeout_ns(1, 0), 100);
        assert_eq!(policy.timeout_ns(1, 1), 200);
        assert_eq!(policy.timeout_ns(1, 2), 400);
        assert_eq!(policy.timeout_ns(1, 3), 500, "capped");
    }

    #[test]
    fn jitter_is_deterministic_per_seq_and_attempt() {
        let policy = RetryPolicy {
            jitter: 0.5,
            ..RetryPolicy::default()
        };
        assert_eq!(policy.timeout_ns(9, 2), policy.timeout_ns(9, 2));
    }
}
