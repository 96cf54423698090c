//! The transport-agnostic client request engine.
//!
//! Every deployment ultimately does the same thing on behalf of a client:
//! send a query packet toward the switch, wait for the seq-matching reply,
//! retransmit on a timeout with exponential backoff, and suppress stale or
//! duplicate replies. The three historical copies of that state machine
//! (in-process rack, UDP sockets, simulator glue) are collapsed here into
//! [`RequestEngine::run`], generic over a [`Link`] — the two primitives a
//! transport must provide: inject a frame, and let transport time pass
//! while collecting whatever comes back.

use std::sync::atomic::{AtomicU64, Ordering};

use netcache_client::Response;
use netcache_proto::Packet;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::hist::ShardedHistogram;

/// A client-visible response plus provenance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientResponse {
    inner: Response,
}

impl ClientResponse {
    /// Wraps a decoded response. Public so external transport drivers
    /// (e.g. the simulator's multi-rack fabric) can surface replies
    /// through the same type the rack clients use.
    pub fn new(inner: Response) -> Self {
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

/// A deployment's notion of time.
///
/// Virtual-time transports (the in-process rack, the simulator) jump their
/// clock forward; wall-clock transports read the machine's clock and block
/// to advance. The request engine never touches time directly — it goes
/// through [`Link::wait`] — but drivers share this vocabulary for their
/// retransmission timers and delayed-delivery bookkeeping.
pub trait Clock {
    /// Current transport time, nanoseconds since the rack started.
    fn now_ns(&self) -> u64;
    /// Moves time forward by `ns` (virtual clocks jump; wall clocks block).
    fn advance_ns(&self, ns: u64);
}

/// A wall clock anchored at construction time; [`Clock::advance_ns`]
/// blocks the calling thread. Used by the UDP deployment's node threads.
#[derive(Debug)]
pub struct WallClock {
    start: std::time::Instant,
}

impl WallClock {
    /// A clock reading zero now.
    pub fn start() -> Self {
        WallClock {
            start: std::time::Instant::now(),
        }
    }
}

impl Default for WallClock {
    fn default() -> Self {
        WallClock::start()
    }
}

impl Clock for WallClock {
    fn now_ns(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }

    fn advance_ns(&self, ns: u64) {
        std::thread::sleep(std::time::Duration::from_nanos(ns));
    }
}

/// A client's attachment to one rack deployment: the primitives the
/// shared request engine needs from a transport.
pub trait Link {
    /// Transmits `pkt` toward the switch. Replies already available when
    /// the call returns (synchronous virtual-time transports complete the
    /// whole exchange here) are appended to `replies`.
    fn transmit(&mut self, pkt: &Packet, replies: &mut Vec<Packet>);

    /// Lets up to `timeout_ns` of transport time elapse — advancing a
    /// virtual clock and driving retransmission timers, or blocking on a
    /// socket — appending replies that surface meanwhile. Transports may
    /// return early once a reply carrying `want_seq` has been appended.
    fn wait(&mut self, timeout_ns: u64, want_seq: u32, replies: &mut Vec<Packet>);
}

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

/// The shared request state machine: one instance per in-flight request,
/// borrowing the deployment's policy, counters and latency histogram.
pub struct RequestEngine<'a> {
    /// Retransmission policy in force for this request.
    pub policy: &'a RetryPolicy,
    /// Rack-wide counters to account retries/stale/abandoned against.
    pub counters: &'a ClientCounters,
    /// End-to-end op latency histogram (one sample per completed request,
    /// covering all its attempts).
    pub latency: &'a ShardedHistogram,
}

impl RequestEngine<'_> {
    /// Issues `pkt` through `link`, retransmitting it (same sequence
    /// number) per the policy until a seq-matching reply arrives or the
    /// budget is exhausted. Stale and duplicate replies are counted and
    /// suppressed.
    pub fn run(&self, link: &mut impl Link, pkt: Packet) -> RetryOutcome {
        let seq = pkt.netcache.seq;
        let mut replies = Vec::new();
        let mut retries = 0u32;
        let mut stale = 0u32;
        let t0 = std::time::Instant::now();
        loop {
            link.transmit(&pkt, &mut replies);
            if let Some(resp) = self.take_matching(&mut replies, seq, &mut stale) {
                self.latency.record(t0.elapsed().as_nanos() as u64);
                return RetryOutcome {
                    response: Some(resp),
                    retries,
                    stale_replies: stale,
                };
            }
            // Timeout: let transport time elapse so retransmission timers
            // fire and delayed traffic matures — the reply may have merely
            // been slow rather than lost.
            link.wait(self.policy.timeout_ns(seq, retries), seq, &mut replies);
            if let Some(resp) = self.take_matching(&mut replies, seq, &mut stale) {
                self.latency.record(t0.elapsed().as_nanos() as u64);
                return RetryOutcome {
                    response: Some(resp),
                    retries,
                    stale_replies: stale,
                };
            }
            if retries >= self.policy.max_retries {
                self.counters.abandoned.fetch_add(1, Ordering::Relaxed);
                return RetryOutcome {
                    response: None,
                    retries,
                    stale_replies: stale,
                };
            }
            retries += 1;
            self.counters.retries.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Scans and drains `replies` for the one answering sequence number
    /// `seq`, counting (and discarding) replies for earlier requests and
    /// duplicate deliveries.
    fn take_matching(
        &self,
        replies: &mut Vec<Packet>,
        seq: u32,
        stale: &mut u32,
    ) -> Option<ClientResponse> {
        let mut found: Option<ClientResponse> = None;
        for pkt in replies.drain(..) {
            if pkt.netcache.seq != seq || found.is_some() {
                // A late reply to a request we've moved past, or a
                // duplicate delivery of the current one: suppress.
                *stale += 1;
                self.counters.stale_replies.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            found = Response::from_packet(&pkt).map(ClientResponse::new);
        }
        found
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netcache_proto::{Key, Op};

    fn reply(seq: u32) -> Packet {
        let mut pkt = Packet::get_query(1, 2, 3, Key::from_u64(1), seq);
        pkt.netcache.op = Op::GetReplyNotFound;
        pkt
    }

    /// A scripted link: each attempt pops the next canned reply batch.
    struct Script {
        batches: Vec<Vec<Packet>>,
        transmits: u32,
        waits: u32,
    }

    impl Link for Script {
        fn transmit(&mut self, _pkt: &Packet, replies: &mut Vec<Packet>) {
            self.transmits += 1;
            if !self.batches.is_empty() {
                replies.extend(self.batches.remove(0));
            }
        }
        fn wait(&mut self, _timeout_ns: u64, _want: u32, _replies: &mut Vec<Packet>) {
            self.waits += 1;
        }
    }

    fn engine_parts() -> (RetryPolicy, ClientCounters, ShardedHistogram) {
        (
            RetryPolicy {
                max_retries: 3,
                base_timeout_ns: 10,
                max_timeout_ns: 100,
                jitter: 0.0,
            },
            ClientCounters::default(),
            ShardedHistogram::new(),
        )
    }

    #[test]
    fn first_attempt_success_is_retry_free() {
        let (policy, counters, latency) = engine_parts();
        let engine = RequestEngine {
            policy: &policy,
            counters: &counters,
            latency: &latency,
        };
        let mut link = Script {
            batches: vec![vec![reply(7)]],
            transmits: 0,
            waits: 0,
        };
        let out = engine.run(&mut link, reply(7));
        assert!(out.response.is_some());
        assert_eq!(out.retries, 0);
        assert_eq!(counters.retries(), 0);
        assert_eq!(latency.snapshot().count(), 1);
    }

    #[test]
    fn lost_replies_retransmit_then_succeed() {
        let (policy, counters, latency) = engine_parts();
        let engine = RequestEngine {
            policy: &policy,
            counters: &counters,
            latency: &latency,
        };
        let mut link = Script {
            batches: vec![vec![], vec![], vec![reply(7)]],
            transmits: 0,
            waits: 0,
        };
        let out = engine.run(&mut link, reply(7));
        assert!(out.response.is_some());
        assert_eq!(out.retries, 2);
        assert_eq!(counters.retries(), 2);
    }

    #[test]
    fn stale_and_duplicate_replies_are_counted_and_suppressed() {
        let (policy, counters, latency) = engine_parts();
        let engine = RequestEngine {
            policy: &policy,
            counters: &counters,
            latency: &latency,
        };
        // One stale (seq 3), then the match, then a duplicate of it.
        let mut link = Script {
            batches: vec![vec![reply(3), reply(7), reply(7)]],
            transmits: 0,
            waits: 0,
        };
        let out = engine.run(&mut link, reply(7));
        assert!(out.response.is_some());
        assert_eq!(out.stale_replies, 2);
        assert_eq!(counters.stale_replies(), 2);
    }

    #[test]
    fn budget_exhaustion_abandons() {
        let (policy, counters, latency) = engine_parts();
        let engine = RequestEngine {
            policy: &policy,
            counters: &counters,
            latency: &latency,
        };
        let mut link = Script {
            batches: vec![],
            transmits: 0,
            waits: 0,
        };
        let out = engine.run(&mut link, reply(7));
        assert!(out.response.is_none());
        assert_eq!(out.retries, 3, "policy allows 3 retransmissions");
        assert_eq!(link.transmits, 4, "1 attempt + 3 retries");
        assert_eq!(counters.abandoned(), 1);
        assert_eq!(latency.snapshot().count(), 0, "no sample for abandoned");
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

    #[test]
    fn wall_clock_advances_monotonically() {
        let clock = WallClock::start();
        let a = clock.now_ns();
        clock.advance_ns(1_000_000);
        assert!(clock.now_ns() >= a + 1_000_000);
    }
}
