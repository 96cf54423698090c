//! Chaos suite: mixed read/write workloads replayed across many seeds of
//! the probabilistic network fault model (loss + duplication + reordering
//! + delay), asserting the §4.3 coherence guarantees end to end:
//!
//! - **Freshness**: every acked read reflects at least the latest acked
//!   write to its key at the moment the read was issued, and never a value
//!   newer than anything issued.
//! - **Bounded retries**: no request exceeds its [`RetryPolicy`] budget,
//!   and below heavy loss no request is abandoned at all.
//! - **Observability**: the injected faults and the client's reaction
//!   (retransmissions, suppressed duplicates) surface in [`RackReport`].
//!
//! Every scenario is exactly reproducible: the fault sequence and the
//! workload derive from one seed, adjustable via `NETCACHE_TEST_SEED`.

use netcache::{seed_from_env, FaultConfig, Rack, RackConfig, RackHandle, RackReport, RetryPolicy};
use netcache_client::Response;
use netcache_proto::{Key, Value};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Distinct keys in the workload; the cache covers the first half.
const KEYS: u64 = 16;
/// Mixed operations per scenario, after the initial seeding puts.
const OPS: usize = 200;
/// Scenarios per loss level (3 levels × 12 = 36 distinct seeds).
const SEEDS_PER_LEVEL: u64 = 12;

/// Values carry a big-endian write counter so reads can be checked for
/// staleness against the issue/ack history.
fn val(counter: u64) -> Value {
    Value::new(counter.to_be_bytes().to_vec()).expect("8 bytes fits")
}

fn counter_of(v: &Value) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(&v.as_bytes()[..8]);
    u64::from_be_bytes(b)
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The scenario seed for case `i` of the level with the given index. All
/// seeds across all levels are distinct; the base comes from
/// `NETCACHE_TEST_SEED` when set.
fn scenario_seed(level: u64, i: u64) -> u64 {
    splitmix64(seed_from_env(0xc4a0_5eed) ^ (level << 32) ^ i)
}

/// Per-key ground truth maintained by the (single, sequential) client.
#[derive(Clone, Copy, Default)]
struct KeyState {
    /// Highest write counter ever issued for this key (acked or not).
    max_issued: u64,
    /// Counter of the latest *acked* put, cleared by an acked delete.
    floor: Option<u64>,
}

/// What one scenario observed, for aggregate assertions and determinism
/// checks.
#[derive(Debug, PartialEq)]
struct Outcome {
    acked: u64,
    abandoned: u64,
    dropped: u64,
    duplicated: u64,
    reordered: u64,
    delayed: u64,
    client_retries: u64,
    stale_replies: u64,
}

fn run_scenario(seed: u64, loss: f64) -> Outcome {
    let mut config = RackConfig::small(4);
    config.controller.cache_capacity = 8;
    config.faults = FaultConfig {
        loss,
        duplicate: 0.05,
        reorder: 0.05,
        max_delay_ns: 300_000,
        seed,
    };
    let rack = Rack::new(config).expect("valid config");
    let policy = RetryPolicy::default();
    let mut client = rack.client(0).with_policy(policy.clone());
    let mut rng = StdRng::seed_from_u64(splitmix64(seed));

    let mut keys = [KeyState::default(); KEYS as usize];
    let mut next_counter = 0u64;
    let mut acked = 0u64;
    let mut abandoned = 0u64;

    // Seed every key with an initial value (under faults too), then cache
    // the first half of the keyspace so the workload mixes switch-served
    // and server-served reads.
    for k in 0..KEYS {
        next_counter += 1;
        keys[k as usize].max_issued = next_counter;
        let out = client.put_with_retry(Key::from_u64(k), val(next_counter));
        assert!(out.retries <= policy.max_retries);
        match out.response {
            Some(_) => keys[k as usize].floor = Some(next_counter),
            None => abandoned += 1,
        }
    }
    rack.populate_cache(
        (0..KEYS / 2).filter_map(|k| keys[k as usize].floor.map(|_| Key::from_u64(k))),
    );

    for _ in 0..OPS {
        let k = rng.random_range(0..KEYS);
        let key = Key::from_u64(k);
        let roll: f64 = rng.random();
        if roll < 0.6 {
            let out = client.get_with_retry(key);
            assert!(out.retries <= policy.max_retries, "retry bound exceeded");
            let Some(resp) = out.response else {
                abandoned += 1;
                continue;
            };
            acked += 1;
            let st = keys[k as usize];
            match resp.response() {
                Response::Value { value, .. } => {
                    let c = counter_of(value);
                    assert!(
                        c <= st.max_issued,
                        "read counter {c} was never issued for this key \
                         (max {}, seed {seed:#x})",
                        st.max_issued
                    );
                    if let Some(f) = st.floor {
                        assert!(
                            c >= f,
                            "stale read: counter {c} < acked floor {f} (seed {seed:#x})"
                        );
                    }
                }
                Response::NotFound { .. } => {
                    assert!(
                        st.floor.is_none(),
                        "acked write {:?} vanished: read NotFound (seed {seed:#x})",
                        st.floor
                    );
                }
                other => panic!("unexpected get response {other:?}"),
            }
        } else if roll < 0.9 {
            next_counter += 1;
            keys[k as usize].max_issued = next_counter;
            let out = client.put_with_retry(key, val(next_counter));
            assert!(out.retries <= policy.max_retries, "retry bound exceeded");
            match out.response {
                Some(resp) => {
                    assert!(matches!(resp.response(), Response::PutAck { .. }));
                    keys[k as usize].floor = Some(next_counter);
                    acked += 1;
                }
                None => abandoned += 1,
            }
        } else {
            let out = client.delete_with_retry(key);
            assert!(out.retries <= policy.max_retries, "retry bound exceeded");
            match out.response {
                Some(resp) => {
                    assert!(matches!(resp.response(), Response::DeleteAck { .. }));
                    keys[k as usize].floor = None;
                    acked += 1;
                }
                None => {
                    abandoned += 1;
                    // The delete may have been applied with every ack lost:
                    // the key's fate is unknown, so the floor no longer
                    // bounds reads (an abandoned *put* is harmless here —
                    // it can only raise the counter above the old floor).
                    keys[k as usize].floor = None;
                }
            }
        }
    }

    let report = RackReport::capture(&rack);
    assert_eq!(report.abandoned_requests, abandoned);
    Outcome {
        acked,
        abandoned,
        dropped: report.faults.dropped,
        duplicated: report.faults.duplicated,
        reordered: report.faults.reordered,
        delayed: report.faults.delayed,
        client_retries: report.client_retries,
        stale_replies: report.stale_replies,
    }
}

/// Runs every seed of one loss level and checks the aggregate: faults were
/// actually injected, the client actually retried, and the abandoned
/// fraction stays within `max_abandoned_frac`.
fn run_level(level: u64, loss: f64, max_abandoned_frac: f64) {
    let mut total = Outcome {
        acked: 0,
        abandoned: 0,
        dropped: 0,
        duplicated: 0,
        reordered: 0,
        delayed: 0,
        client_retries: 0,
        stale_replies: 0,
    };
    for i in 0..SEEDS_PER_LEVEL {
        let out = run_scenario(scenario_seed(level, i), loss);
        total.acked += out.acked;
        total.abandoned += out.abandoned;
        total.dropped += out.dropped;
        total.duplicated += out.duplicated;
        total.reordered += out.reordered;
        total.delayed += out.delayed;
        total.client_retries += out.client_retries;
        total.stale_replies += out.stale_replies;
    }
    let requests = total.acked + total.abandoned;
    assert!(total.dropped > 0, "no loss injected: {total:?}");
    assert!(total.duplicated > 0, "no duplication injected: {total:?}");
    assert!(
        total.reordered + total.delayed > 0,
        "no reordering/delay injected: {total:?}"
    );
    assert!(total.client_retries > 0, "client never retried: {total:?}");
    assert!(
        total.stale_replies > 0,
        "no duplicate replies suppressed: {total:?}"
    );
    assert!(
        (total.abandoned as f64) <= (requests as f64) * max_abandoned_frac,
        "{} of {} requests abandoned (budget {:.1}%)",
        total.abandoned,
        requests,
        max_abandoned_frac * 100.0
    );
}

#[test]
fn chaos_light_loss() {
    run_level(1, 0.01, 0.0);
}

#[test]
fn chaos_moderate_loss() {
    run_level(2, 0.05, 0.0);
}

#[test]
fn chaos_heavy_loss() {
    // At 20% per-crossing loss a server round trip survives one attempt
    // with probability ≈ 0.8⁴ ≈ 0.41, so a 16-retry budget still abandons
    // ~0.59¹⁷ ≈ 10⁻⁴ of requests; allow 1% for headroom.
    run_level(3, 0.20, 0.01);
}

#[test]
fn chaos_is_deterministic_per_seed() {
    let seed = scenario_seed(4, 0);
    let a = run_scenario(seed, 0.10);
    let b = run_scenario(seed, 0.10);
    assert_eq!(a, b, "same seed must replay the same faults and outcomes");
}

#[test]
fn clean_network_needs_no_retries() {
    let out = run_scenario(scenario_seed(5, 0), 0.0);
    // duplicate/reorder/delay are still enabled; only loss is off, so
    // every request must succeed on some attempt without abandonment.
    assert_eq!(out.abandoned, 0);
    assert_eq!(out.dropped, 0);
}

// ---------------------------------------------------------------------------
// Chain-replication chaos (NetChain direction): kill and restart replicas
// mid-workload while the probabilistic fault model keeps dropping packets.
// ---------------------------------------------------------------------------

/// Ground truth for one key under replicated writes. A plain "latest acked
/// counter" floor is not enough here: a chain write the client abandons may
/// have committed at a *prefix* of the chain (head applied, tail never
/// reached), and a later failover that promotes the head legitimately
/// exposes it. So the model keeps the full admissible set — an acked op
/// collapses it to a singleton, an abandoned op widens it — exactly like
/// the model-check suite, plus the never-newer-than-issued bound.
#[derive(Clone)]
struct ChainKeyState {
    /// Highest write counter ever issued for this key (acked or not).
    max_issued: u64,
    /// Observations a read may legally return: `Some(counter)` or `None`.
    admissible: Vec<Option<u64>>,
}

impl ChainKeyState {
    fn new() -> Self {
        ChainKeyState {
            max_issued: 0,
            admissible: vec![None],
        }
    }

    /// An acked op resolves all uncertainty: the tail committed, so every
    /// chain member applied it and no failover can roll it back.
    fn commit(&mut self, v: Option<u64>) {
        self.admissible = vec![v];
    }

    /// An abandoned op may have been applied at a prefix of the chain and
    /// survive a failover, or may have been lost entirely.
    fn admit(&mut self, v: Option<u64>) {
        if !self.admissible.contains(&v) {
            self.admissible.push(v);
        }
    }

    fn check(&self, observed: Option<u64>, seed: u64, k: u64) {
        if let Some(c) = observed {
            assert!(
                c <= self.max_issued,
                "read counter {c} was never issued for key {k} (max {}, seed {seed:#x})",
                self.max_issued
            );
        }
        assert!(
            self.admissible.contains(&observed),
            "lost acked write on key {k}: read {observed:?}, admissible \
             {:?} (seed {seed:#x})",
            self.admissible
        );
    }
}

/// What one chain scenario observed, for aggregate assertions and the
/// determinism check.
#[derive(Debug, PartialEq)]
struct ChainOutcome {
    acked: u64,
    abandoned: u64,
    failovers: u64,
    resyncs: u64,
    full_chains: usize,
}

/// Replays a mixed workload against a replicated rack while killing a
/// replica a quarter of the way in and restarting it at the halfway mark,
/// with a controller cycle every 8 ops so failure detection, chain repair
/// and re-sync all run mid-stream. Every acked read must land inside the
/// admissible set — in particular, no acknowledged write may ever be lost
/// across the failover.
///
/// The victim is chosen relative to a partition that actually holds
/// workload keys (the hash partitioner can leave small-keyspace partitions
/// empty): `victim_offset` positions it inside that partition's chain —
/// offset 1 is the tail at factor 2 and the middle replica at factor 3 —
/// so the kill is guaranteed to land on a chain the workload exercises.
fn run_chain_scenario(seed: u64, loss: f64, factor: u32, victim_offset: u32) -> ChainOutcome {
    let mut config = RackConfig::small(4);
    config.replication_factor = factor;
    config.controller.cache_capacity = 8;
    config.faults = FaultConfig {
        loss,
        duplicate: 0.05,
        reorder: 0.05,
        max_delay_ns: 300_000,
        seed,
    };
    let rack = Rack::new(config).expect("valid config");
    let policy = RetryPolicy::default();
    let mut client = rack.client(0).with_policy(policy.clone());
    let mut rng = StdRng::seed_from_u64(splitmix64(seed ^ 0xc4a1));

    // Anchor the kill to the chain of key 0's partition, which the
    // workload definitely hits.
    let anchor = rack.addressing().partition_of(&Key::from_u64(0));
    let victim = (anchor + victim_offset) % 4;

    let mut keys: Vec<ChainKeyState> = (0..KEYS).map(|_| ChainKeyState::new()).collect();
    let mut next_counter = 0u64;
    let mut acked = 0u64;
    let mut abandoned = 0u64;

    for k in 0..KEYS {
        next_counter += 1;
        keys[k as usize].max_issued = next_counter;
        let out = client.put_with_retry(Key::from_u64(k), val(next_counter));
        assert!(out.retries <= policy.max_retries);
        match out.response {
            Some(_) => keys[k as usize].commit(Some(next_counter)),
            None => {
                keys[k as usize].admit(Some(next_counter));
                abandoned += 1;
            }
        }
    }
    rack.populate_cache((0..KEYS / 2).map(Key::from_u64));

    let kill_at = OPS / 4;
    let restart_at = OPS / 2;
    for i in 0..OPS {
        if i == kill_at {
            rack.kill_server(victim);
        }
        if i == restart_at {
            rack.restart_server(victim);
        }
        if i % 8 == 0 {
            rack.run_controller();
        }
        let k = rng.random_range(0..KEYS);
        let key = Key::from_u64(k);
        let roll: f64 = rng.random();
        if roll < 0.6 {
            let out = client.get_with_retry(key);
            assert!(out.retries <= policy.max_retries, "retry bound exceeded");
            let Some(resp) = out.response else {
                abandoned += 1;
                continue;
            };
            acked += 1;
            let observed = match resp.response() {
                Response::Value { value, .. } => Some(counter_of(value)),
                Response::NotFound { .. } => None,
                other => panic!("unexpected get response {other:?}"),
            };
            keys[k as usize].check(observed, seed, k);
        } else if roll < 0.9 {
            next_counter += 1;
            keys[k as usize].max_issued = next_counter;
            let out = client.put_with_retry(key, val(next_counter));
            assert!(out.retries <= policy.max_retries, "retry bound exceeded");
            match out.response {
                Some(resp) => {
                    assert!(matches!(resp.response(), Response::PutAck { .. }));
                    keys[k as usize].commit(Some(next_counter));
                    acked += 1;
                }
                None => {
                    keys[k as usize].admit(Some(next_counter));
                    abandoned += 1;
                }
            }
        } else {
            let out = client.delete_with_retry(key);
            assert!(out.retries <= policy.max_retries, "retry bound exceeded");
            match out.response {
                Some(resp) => {
                    assert!(matches!(resp.response(), Response::DeleteAck { .. }));
                    keys[k as usize].commit(None);
                    acked += 1;
                }
                None => {
                    keys[k as usize].admit(None);
                    abandoned += 1;
                }
            }
        }
    }

    // Let repair finish (re-splice + re-sync the restarted node), then
    // sweep every key: whatever each read observes must be admissible.
    rack.run_controller();
    for k in 0..KEYS {
        let out = client.get_with_retry(Key::from_u64(k));
        let Some(resp) = out.response else {
            abandoned += 1;
            continue;
        };
        acked += 1;
        let observed = match resp.response() {
            Response::Value { value, .. } => Some(counter_of(value)),
            Response::NotFound { .. } => None,
            other => panic!("unexpected get response {other:?}"),
        };
        keys[k as usize].check(observed, seed, k);
    }

    let report = RackReport::capture(&rack);
    assert_eq!(report.abandoned_requests, abandoned, "seed {seed:#x}");
    assert_eq!(report.replication.factor, factor);
    ChainOutcome {
        acked,
        abandoned,
        failovers: report.controller.chain_failovers,
        resyncs: report.controller.chain_resyncs,
        full_chains: report.replication.full_chains,
    }
}

/// Runs several seeds of one chain-chaos level. Every scenario must splice
/// the victim out (failover), re-sync it back in, end with every chain at
/// full strength, and keep abandonment confined to the detection window
/// between the kill and the next controller cycle (plus ordinary loss).
fn run_chain_level(level: u64, factor: u32, victim: u32) {
    for i in 0..4 {
        let seed = scenario_seed(level, i);
        let out = run_chain_scenario(seed, 0.05, factor, victim);
        assert!(
            out.failovers >= 1,
            "victim was never spliced out (seed {seed:#x}): {out:?}"
        );
        assert!(
            out.resyncs >= 1,
            "restarted victim never re-synced (seed {seed:#x}): {out:?}"
        );
        assert_eq!(
            out.full_chains, 4,
            "repair did not converge to full chains (seed {seed:#x}): {out:?}"
        );
        assert!(
            out.acked > out.abandoned,
            "rack mostly unavailable (seed {seed:#x}): {out:?}"
        );
        // The kill is detected within 8 ops; everything else is ordinary
        // 5%-loss attrition that the 16-retry budget absorbs.
        let requests = out.acked + out.abandoned;
        assert!(
            out.abandoned <= requests / 5,
            "abandonment beyond the detection window (seed {seed:#x}): {out:?}"
        );
    }
}

/// Factor 2, offset 1: the *tail* of a populated partition's chain dies
/// mid-workload (its reads dead-end until repair promotes the head; the
/// same server is head of the next chain, killing its writes too). Acked
/// writes must survive — the head holds everything the tail committed.
#[test]
fn chaos_chain_kill_tail_replica_under_loss() {
    run_chain_level(7, 2, 1);
}

/// Factor 3, offset 1: a *mid-chain* replica of a populated partition dies
/// mid-workload (writes stall at the head→mid hop until repair), plus tail
/// duty for the preceding chain and head duty for the next. Splicing the
/// middle out must leave head→tail forwarding intact.
#[test]
fn chaos_chain_kill_mid_replica_under_loss() {
    run_chain_level(8, 3, 1);
}

/// The whole chain scenario — faults, kill/restart schedule, repair,
/// observations — is a pure function of the seed.
#[test]
fn chaos_chain_is_deterministic_per_seed() {
    let seed = scenario_seed(9, 0);
    let a = run_chain_scenario(seed, 0.05, 2, 1);
    let b = run_chain_scenario(seed, 0.05, 2, 1);
    assert_eq!(a, b, "same seed must replay the same chain outcomes");
}

// ---------------------------------------------------------------------------
// Multi-rack chaos (DistCache direction): kill an entire leaf rack
// mid-workload while the per-rack fault models keep dropping packets, and
// check that spine-cached reads of the dead rack's keys stay alive and
// §4.3-fresh while everything that must cross the dead ToR abandons
// cleanly instead of going stale.
// ---------------------------------------------------------------------------

/// What one multi-rack chaos scenario observed.
#[derive(Debug, PartialEq)]
struct MultiRackOutcome {
    acked: u64,
    abandoned: u64,
    /// Packets the fabric dropped at the dead rack's boundary.
    dead_drops: u64,
    /// Acked reads of victim-owned keys *while the victim rack was dead* —
    /// only the spine layer can have served these.
    outage_spine_reads: u64,
    spine_hits: u64,
    client_retries: u64,
}

/// Replays a mixed workload against a 4-rack × 2-spine fabric under loss,
/// killing the leaf rack that owns key 0 a quarter of the way in (so the
/// victim is guaranteed to own populated, workload-hot partitions) and —
/// when `restart` is set — bringing it back at the halfway mark.
///
/// Ground truth is the same admissible-set model the chain suite uses: an
/// acked op collapses a key's admissible observations to a singleton, an
/// abandoned op widens it (a write dropped at the dead ToR never commits,
/// but a write whose *ack* was lost did — the set covers both). On top of
/// that, §4.3 demands that a read served by a cache copy is never staler
/// than the latest acked write, which the admissible check enforces: the
/// spine invalidates its copy before forwarding any write toward the dead
/// rack, so a spine-served read is either pre-write-fresh or the read
/// abandons — it must never answer with the overwritten value.
fn run_multirack_scenario(seed: u64, loss: f64, restart: bool) -> MultiRackOutcome {
    use netcache_sim::{MultiRack, MultiRackConfig};

    let mr = MultiRack::new(MultiRackConfig {
        racks: 4,
        spines: 2,
        servers_per_rack: 2,
        num_keys: KEYS,
        value_len: 8,
        leaf_cache_items: 8,
        // Ample spine capacity: every key fits, so membership churn can
        // never evict a valid copy the outage assertions depend on.
        spine_cache_items: 2 * KEYS as usize,
        faults: FaultConfig {
            loss,
            duplicate: 0.05,
            reorder: 0.05,
            max_delay_ns: 300_000,
            seed,
        },
        seed,
        ..MultiRackConfig::default()
    })
    .expect("valid multirack config");
    let policy = RetryPolicy::default();
    let mut client = mr.client(0).with_policy(policy.clone());
    let mut rng = StdRng::seed_from_u64(splitmix64(seed ^ 0xd15c));

    // Victim-anchoring: kill the rack that owns key 0, so the outage is
    // guaranteed to hit partitions the workload exercises.
    let victim = mr.rack_of(&Key::from_u64(0));

    let mut keys: Vec<ChainKeyState> = (0..KEYS).map(|_| ChainKeyState::new()).collect();
    let mut next_counter = 0u64;
    let mut acked = 0u64;
    let mut abandoned = 0u64;
    let mut outage_spine_reads = 0u64;

    for k in 0..KEYS {
        next_counter += 1;
        keys[k as usize].max_issued = next_counter;
        let out = client.put_with_retry(Key::from_u64(k), val(next_counter));
        assert!(out.retries <= policy.max_retries);
        match out.response {
            Some(_) => keys[k as usize].commit(Some(next_counter)),
            None => {
                keys[k as usize].admit(Some(next_counter));
                abandoned += 1;
            }
        }
    }
    // The seeding writes invalidated the pre-populated spine copies
    // (write-around, §4.3); a controller cycle re-fetches them so the
    // spine enters the outage with valid copies of the live values.
    mr.run_controller();

    let kill_at = OPS / 4;
    let restart_at = OPS / 2;
    for i in 0..OPS {
        if i == kill_at {
            mr.kill_rack(victim);
        }
        if restart && i == restart_at {
            mr.restart_rack(victim);
        }
        if i % 8 == 0 {
            mr.run_controller();
        }
        let k = rng.random_range(0..KEYS);
        let key = Key::from_u64(k);
        let roll: f64 = rng.random();
        // Key 0 — the victim anchor — is pinned read-only: no write ever
        // invalidates its spine copy, so at least one victim-owned key is
        // guaranteed to stay servable through the outage (the sweep below
        // always reads it while the rack is dead in the no-restart
        // levels). Every other key keeps the full mixed op distribution.
        if roll < 0.6 || k == 0 {
            let out = client.get_with_retry(key);
            assert!(out.retries <= policy.max_retries, "retry bound exceeded");
            let Some(resp) = out.response else {
                abandoned += 1;
                continue;
            };
            acked += 1;
            if mr.is_killed(mr.rack_of(&key)) {
                // The home ToR is down; only the spine copy can answer.
                outage_spine_reads += 1;
            }
            let observed = match resp.response() {
                Response::Value { value, .. } => Some(counter_of(value)),
                Response::NotFound { .. } => None,
                other => panic!("unexpected get response {other:?}"),
            };
            keys[k as usize].check(observed, seed, k);
        } else if roll < 0.9 {
            next_counter += 1;
            keys[k as usize].max_issued = next_counter;
            let out = client.put_with_retry(key, val(next_counter));
            assert!(out.retries <= policy.max_retries, "retry bound exceeded");
            match out.response {
                Some(resp) => {
                    assert!(matches!(resp.response(), Response::PutAck { .. }));
                    keys[k as usize].commit(Some(next_counter));
                    acked += 1;
                }
                None => {
                    keys[k as usize].admit(Some(next_counter));
                    abandoned += 1;
                }
            }
        } else {
            let out = client.delete_with_retry(key);
            assert!(out.retries <= policy.max_retries, "retry bound exceeded");
            match out.response {
                Some(resp) => {
                    assert!(matches!(resp.response(), Response::DeleteAck { .. }));
                    keys[k as usize].commit(None);
                    acked += 1;
                }
                None => {
                    keys[k as usize].admit(None);
                    abandoned += 1;
                }
            }
        }
    }

    // Let repair settle (spine re-fetches whatever the outage invalidated),
    // then sweep every key: acked observations must be admissible. With the
    // rack restarted the sweep doubles as a recovery check; with it still
    // dead, victim-owned keys may only answer via the spine or abandon.
    mr.run_controller();
    for k in 0..KEYS {
        let out = client.get_with_retry(Key::from_u64(k));
        let Some(resp) = out.response else {
            abandoned += 1;
            continue;
        };
        acked += 1;
        if mr.is_killed(mr.rack_of(&Key::from_u64(k))) {
            outage_spine_reads += 1;
        }
        let observed = match resp.response() {
            Response::Value { value, .. } => Some(counter_of(value)),
            Response::NotFound { .. } => None,
            other => panic!("unexpected get response {other:?}"),
        };
        keys[k as usize].check(observed, seed, k);
    }

    let report = mr.report();
    assert_eq!(report.dead_racks, u32::from(!restart));
    assert_eq!(report.client_abandoned, abandoned, "seed {seed:#x}");
    MultiRackOutcome {
        acked,
        abandoned,
        dead_drops: report.dead_drops,
        outage_spine_reads,
        spine_hits: report.spine_hits,
        client_retries: report.client_retries,
    }
}

/// Runs several seeds of one multi-rack chaos level and checks the
/// aggregate: the outage actually dropped traffic at the dead boundary,
/// the spine actually kept some of the dead rack's reads alive, and
/// abandonment stays confined to what must cross the dead ToR plus
/// ordinary loss attrition.
fn run_multirack_level(level: u64, restart: bool, max_abandoned_frac: f64) {
    let mut total_dead_drops = 0u64;
    let mut total_outage_reads = 0u64;
    let mut total_acked = 0u64;
    let mut total_abandoned = 0u64;
    for i in 0..4 {
        let seed = scenario_seed(level, i);
        let out = run_multirack_scenario(seed, 0.05, restart);
        assert!(
            out.acked > out.abandoned,
            "fabric mostly unavailable (seed {seed:#x}): {out:?}"
        );
        assert!(out.spine_hits > 0, "spine never served (seed {seed:#x})");
        assert!(
            out.client_retries > 0,
            "client never retried (seed {seed:#x})"
        );
        total_dead_drops += out.dead_drops;
        total_outage_reads += out.outage_spine_reads;
        total_acked += out.acked;
        total_abandoned += out.abandoned;
    }
    assert!(
        total_dead_drops > 0,
        "no packet ever hit the dead rack's boundary"
    );
    assert!(
        total_outage_reads > 0,
        "the spine never served a dead rack's key during an outage"
    );
    let requests = total_acked + total_abandoned;
    assert!(
        (total_abandoned as f64) <= (requests as f64) * max_abandoned_frac,
        "{total_abandoned} of {requests} requests abandoned \
         (budget {:.0}%)",
        max_abandoned_frac * 100.0
    );
}

/// A whole leaf rack dies a quarter of the way in and comes back at the
/// halfway mark, under 5% loss. Spine-cached reads of its keys keep
/// serving §4.3-fresh values through the outage; writes toward it abandon
/// (never committing stale state), and recovery restores full service.
#[test]
fn chaos_multirack_rack_death_and_recovery_under_loss() {
    run_multirack_level(10, true, 0.25);
}

/// The rack never comes back: every surviving read of its keyspace for
/// the rest of the run — including the final sweep — can only have been
/// served by the spine layer, and must still be admissible.
#[test]
fn chaos_multirack_permanent_rack_death_under_loss() {
    run_multirack_level(11, false, 0.40);
}

/// The whole fabric scenario — per-rack fault models, the kill/restart
/// schedule, spine repair, observations — is a pure function of the seed.
#[test]
fn chaos_multirack_is_deterministic_per_seed() {
    let seed = scenario_seed(12, 0);
    let a = run_multirack_scenario(seed, 0.05, true);
    let b = run_multirack_scenario(seed, 0.05, true);
    assert_eq!(a, b, "same seed must replay the same fabric outcomes");
}

/// The same §4.3 freshness contract over the *real* loopback transport:
/// a seeded fault model drops, duplicates, reorders and delays real
/// datagrams while a sequential client interleaves writes and reads.
/// Every acked put must be visible to every subsequent acked get — the
/// write-through invalidation means no stale switch entry may answer
/// once the server has committed — and abandonment stays bounded by the
/// retry budget. Parameterized over the runtime backend so the uring
/// ring-buffer reuse path faces the same duplicate/reorder storm as the
/// batched one (a recycled provided buffer must never leak a stale
/// payload into a retransmitted reply).
fn chaos_udp_write_freshness(runtime: netcache::runtime::RuntimeKind, scenario: u64) {
    use netcache::udp::UdpRack;

    let seed = scenario_seed(6, scenario);
    let mut config = RackConfig::small(2);
    config.controller.cache_capacity = 8;
    config.faults = FaultConfig {
        loss: 0.05,
        duplicate: 0.05,
        reorder: 0.05,
        max_delay_ns: 2_000_000, // 2 ms, well inside the client timeout
        seed,
    };
    let rack = UdpRack::start_with_runtime(config, runtime).expect("loopback rack");
    rack.load_dataset(KEYS, 32);
    rack.populate_cache((0..KEYS / 2).map(Key::from_u64));

    let policy = RetryPolicy::loopback();
    let mut client = rack.client(0).with_policy(policy.clone());
    let mut rng = StdRng::seed_from_u64(splitmix64(seed));

    // Latest *acked* counter per key; None until the first acked put.
    let mut floor = [None::<u64>; KEYS as usize];
    let mut next_counter = 0u64;
    let mut abandoned = 0u64;
    let mut checked_reads = 0u64;

    for _ in 0..150 {
        let k = rng.random::<u64>() % KEYS;
        if rng.random::<f64>() < 0.4 {
            next_counter += 1;
            let out = client.put_with_retry(Key::from_u64(k), val(next_counter));
            assert!(out.retries <= policy.max_retries);
            match out.response {
                Some(c) => {
                    assert!(
                        matches!(c.clone().into_response(), Response::PutAck { .. }),
                        "put answered with {c:?} (seed {seed:#x})"
                    );
                    floor[k as usize] = Some(next_counter);
                }
                None => abandoned += 1,
            }
        } else {
            let out = client.get_with_retry(Key::from_u64(k));
            assert!(out.retries <= policy.max_retries);
            match out.response.map(|c| c.into_response()) {
                Some(Response::Value { value, .. }) => {
                    // One sequential writer: an acked read must carry
                    // exactly the latest acked write (retransmitted
                    // duplicates of older puts are deduplicated by the
                    // server and must not resurface).
                    if let Some(expect) = floor[k as usize] {
                        checked_reads += 1;
                        assert_eq!(
                            counter_of(&value),
                            expect,
                            "stale read on key {k} (seed {seed:#x})"
                        );
                    }
                }
                Some(Response::NotFound { .. }) => {
                    assert!(
                        floor[k as usize].is_none(),
                        "acked value for key {k} vanished (seed {seed:#x})"
                    );
                }
                Some(other) => panic!("get answered with {other:?} (seed {seed:#x})"),
                None => abandoned += 1,
            }
        }
    }

    // 5% per-crossing loss with a 6-attempt budget abandons almost
    // nothing; allow a small fraction for scheduling jitter on top.
    assert!(abandoned <= 7, "{abandoned}/150 requests abandoned");
    assert!(checked_reads > 20, "only {checked_reads} checked reads");
    let stats = rack.faults().stats();
    assert!(
        stats.dropped + stats.duplicated + stats.delayed > 0,
        "fault model never fired: {stats:?}"
    );
    rack.stop();
}

#[test]
fn chaos_udp_batched_write_freshness() {
    chaos_udp_write_freshness(netcache::runtime::RuntimeKind::Batched, 0);
}

/// The uring leg of the freshness matrix: multishot recv recycles
/// provided buffers across packets, so a duplicate/reorder storm is the
/// sharpest probe for a buffer handed back to the kernel before its
/// payload was fully copied out. Skips with a notice where the kernel
/// lacks io_uring so old-kernel CI stays green.
#[test]
fn chaos_udp_uring_write_freshness() {
    if !netcache::runtime::uring_available() {
        eprintln!("notice: io_uring unavailable on this kernel; uring chaos leg skipped");
        return;
    }
    chaos_udp_write_freshness(netcache::runtime::RuntimeKind::Uring, 1);
}

/// The portable leg: the fallback non-Linux builds get, whose host sweeps
/// every socket without a readiness wait, under the same storm.
#[test]
fn chaos_udp_portable_write_freshness() {
    chaos_udp_write_freshness(netcache::runtime::RuntimeKind::Portable, 2);
}

// ---------------------------------------------------------------------------
// Recirculation chaos (size-mixed, OrbitCache direction): kill and restart
// a replica with large values in flight — multi-pass recirculated items and
// chunked payloads — while the fault model keeps dropping packets.
// ---------------------------------------------------------------------------

/// Value length per key: 2 pipeline passes, the full 16-pass
/// recirculation cap, and a 3-chunk payload beyond it.
fn large_len(k: u64) -> usize {
    [300, netcache_proto::MAX_VALUE_LEN, 6_000][(k % 3) as usize]
}

/// Payload for (key, counter): counter big-endian in the first 8 bytes,
/// deterministic fill after, sized by [`large_len`].
fn large_payload(k: u64, counter: u64) -> Vec<u8> {
    let mut p = vec![0u8; large_len(k)];
    p[..8].copy_from_slice(&counter.to_be_bytes());
    let fill = counter.to_le_bytes();
    for (i, b) in p.iter_mut().enumerate().skip(8) {
        *b = (i as u8) ^ fill[i % 8];
    }
    p
}

/// What one large-value chaos scenario observed, for aggregate assertions
/// and the determinism check.
#[derive(Debug, PartialEq)]
struct LargeChaosOutcome {
    acked: u64,
    abandoned: u64,
    recirculations: u64,
}

/// Chain-replicated rack (factor 2) under loss: size-mixed keys see
/// interleaved `put_large`/`get_large` while the anchored replica is
/// killed a quarter of the way in and restarted at the halfway mark.
///
/// Every successful read's leading counter must sit in the admissible
/// set: an abandoned composite write may have applied any prefix of its
/// chunks, but the manifest is written *last*, so the observable counter
/// only flips once the write got all the way through — the same
/// commit/admit semantics as single-item chain writes. After repair, a
/// fully-acked overwrite of every key must read back byte for byte from
/// whatever mixture of switch cache and chain tails serves the
/// constituents: the §4.3 freshness guarantee extended to recirculated
/// and chunked values.
fn run_large_value_scenario(seed: u64, loss: f64) -> LargeChaosOutcome {
    const LKEYS: u64 = 6;
    let mut config = RackConfig::small(4);
    config.replication_factor = 2;
    config.controller.cache_capacity = 8;
    config.switch.hot_threshold = 8;
    config.faults = FaultConfig {
        loss,
        duplicate: 0.05,
        reorder: 0.05,
        max_delay_ns: 300_000,
        seed,
    };
    let rack = Rack::new(config).expect("valid config");
    let policy = RetryPolicy::default();
    let mut client = rack.client(0).with_policy(policy.clone());
    let mut rng = StdRng::seed_from_u64(splitmix64(seed ^ 0x14c4));

    // Anchor the kill to the chain of key 0's partition, as the plain
    // chain suite does.
    let anchor = rack.addressing().partition_of(&Key::from_u64(0));
    let victim = (anchor + 1) % 4;

    let mut keys: Vec<ChainKeyState> = (0..LKEYS).map(|_| ChainKeyState::new()).collect();
    let mut next_counter = 0u64;
    let mut acked = 0u64;
    let mut abandoned = 0u64;

    // Seed every key to a known committed state. Composite writes abort on
    // any lost constituent and rewriting the same chunks is idempotent, so
    // retry whole passes until one fully acks.
    for k in 0..LKEYS {
        next_counter += 1;
        keys[k as usize].max_issued = next_counter;
        let p = large_payload(k, next_counter);
        let stored = (0..100).any(|_| client.put_large(Key::from_u64(k), &p).is_some());
        assert!(stored, "seeding write never fully acked (seed {seed:#x})");
        keys[k as usize].commit(Some(next_counter));
    }
    // Cache the single-item bases up front (served by recirculation); the
    // chunked keys' manifests and continuations heat up via the sketch.
    rack.populate_cache(
        (0..LKEYS)
            .filter(|k| large_len(*k) <= netcache_proto::MAX_VALUE_LEN)
            .map(Key::from_u64),
    );

    let kill_at = OPS / 4;
    let restart_at = OPS / 2;
    for i in 0..OPS {
        if i == kill_at {
            rack.kill_server(victim);
        }
        if i == restart_at {
            rack.restart_server(victim);
        }
        if i % 8 == 0 {
            rack.run_controller();
        }
        let k = rng.random_range(0..LKEYS);
        let key = Key::from_u64(k);
        let roll: f64 = rng.random();
        if roll < 0.6 {
            match client.get_large(key) {
                Some((payload, _all_cached)) => {
                    acked += 1;
                    let mut b = [0u8; 8];
                    b.copy_from_slice(&payload[..8]);
                    keys[k as usize].check(Some(u64::from_be_bytes(b)), seed, k);
                    assert_eq!(
                        payload.len(),
                        large_len(k),
                        "torn read length on key {k} (seed {seed:#x})"
                    );
                }
                None => abandoned += 1,
            }
        } else {
            next_counter += 1;
            keys[k as usize].max_issued = next_counter;
            let p = large_payload(k, next_counter);
            match client.put_large(key, &p) {
                Some(()) => {
                    keys[k as usize].commit(Some(next_counter));
                    acked += 1;
                }
                None => {
                    keys[k as usize].admit(Some(next_counter));
                    abandoned += 1;
                }
            }
        }
    }

    // Let repair finish, then re-establish a committed state per key and
    // demand the exact bytes back (§4.3 freshness after failover).
    rack.run_controller();
    for k in 0..LKEYS {
        next_counter += 1;
        keys[k as usize].max_issued = next_counter;
        let p = large_payload(k, next_counter);
        let key = Key::from_u64(k);
        let stored = (0..100).any(|_| client.put_large(key, &p).is_some());
        assert!(
            stored,
            "post-repair write never fully acked (seed {seed:#x})"
        );
        keys[k as usize].commit(Some(next_counter));
        let (back, _) = (0..100)
            .find_map(|_| client.get_large(key))
            .unwrap_or_else(|| panic!("post-repair read never acked (seed {seed:#x})"));
        assert_eq!(
            back, p,
            "stale or torn read after repair on key {k} (seed {seed:#x})"
        );
    }

    LargeChaosOutcome {
        acked,
        abandoned,
        recirculations: rack.switch_stats().recirculations,
    }
}

/// Four seeds of the large-value kill/restart scenario at 5% loss. The
/// pre-cached multi-pass entries must actually be served by
/// recirculation, and the rack must stay mostly available.
#[test]
fn chaos_large_values_chain_kill_restart_under_loss() {
    for i in 0..4 {
        let seed = scenario_seed(13, i);
        let out = run_large_value_scenario(seed, 0.05);
        assert!(
            out.recirculations > 0,
            "multi-pass entries never served by recirculation (seed {seed:#x}): {out:?}"
        );
        assert!(
            out.acked > out.abandoned,
            "rack mostly unavailable (seed {seed:#x}): {out:?}"
        );
    }
}

/// The whole large-value scenario — faults, kill/restart schedule,
/// composite retries, observations — is a pure function of the seed.
#[test]
fn chaos_large_values_deterministic_per_seed() {
    let seed = scenario_seed(14, 0);
    let a = run_large_value_scenario(seed, 0.05);
    let b = run_large_value_scenario(seed, 0.05);
    assert_eq!(a, b, "same seed must replay the same outcomes");
}

// ---------------------------------------------------------------------------
// Single-attempt requests: a reply answers only the request it belongs to.
// ---------------------------------------------------------------------------

/// Keys the single-attempt legs read, one after another.
const SINGLE_KEYS: u64 = 1_000;
/// Single-attempt gets per leg.
const SINGLE_GETS: u64 = 2_000;
/// Virtual time between two gets: longer than any one link's delay, so a
/// reply that missed its own request surfaces during a later one.
const SINGLE_GAP_NS: u64 = 2_000_000;

/// Every link crossing is delayed by up to 1 ms and nothing else goes
/// wrong: no loss, no duplicates.
fn delaying_faults() -> FaultConfig {
    FaultConfig {
        max_delay_ns: 1_000_000,
        seed: seed_from_env(0x516e_61e5),
        ..FaultConfig::default()
    }
}

/// Reads keys `0, 1, 2, …` (mod [`SINGLE_KEYS`]) with one attempt each,
/// calling `advance` after every get, and returns how many gets were
/// answered and how many of those answers were for another key.
fn single_attempt_replies(
    mut get: impl FnMut(Key) -> Option<netcache::ClientResponse>,
    advance: impl Fn(),
) -> (u64, u64) {
    let (mut answered, mut wrong) = (0, 0);
    for i in 0..SINGLE_GETS {
        let key = Key::from_u64(i % SINGLE_KEYS);
        if let Some(resp) = get(key) {
            answered += 1;
            wrong += u64::from(resp.response().key() != key);
        }
        advance();
    }
    (answered, wrong)
}

/// A delayed reply must not answer the next request: a single-attempt
/// get matches its reply by sequence number, like a retried one, and
/// suppresses the earlier request's late reply as stale.
#[test]
fn single_attempt_get_answers_only_its_own_request() {
    use netcache_sim::{MultiRack, MultiRackConfig};

    let mut config = RackConfig::small(4);
    config.faults = delaying_faults();
    let rack = Rack::new(config).expect("valid config");
    rack.load_dataset(SINGLE_KEYS, 8);
    let mut client = rack.client(0);
    let (answered, wrong) =
        single_attempt_replies(|key| client.get(key), || rack.advance(SINGLE_GAP_NS));
    assert_eq!(
        wrong, 0,
        "rack: {wrong} of {answered} single-attempt replies were for another key"
    );
    assert!(
        rack.client_counters().stale_replies() > 0,
        "rack: the late replies never reached the client"
    );

    let mr = MultiRack::new(MultiRackConfig {
        racks: 2,
        spines: 1,
        servers_per_rack: 4,
        num_keys: SINGLE_KEYS,
        value_len: 8,
        leaf_cache_items: 8,
        spine_cache_items: 8,
        faults: delaying_faults(),
        ..MultiRackConfig::default()
    })
    .expect("valid multirack config");
    let mut client = mr.client(0);
    let (answered, wrong) =
        single_attempt_replies(|key| client.get(key), || mr.advance(SINGLE_GAP_NS));
    assert_eq!(
        wrong, 0,
        "multirack: {wrong} of {answered} single-attempt replies were for another key"
    );
    assert!(
        mr.client_counters().stale_replies() > 0,
        "multirack: the late replies never reached the client"
    );
}
