//! The five workloads and their seeded operation streams.
//!
//! Every workload runs against the same rack (8 servers, 100 000 keys,
//! cache capacity 10 000) with Zipf-0.99 reads. The stream is generated
//! from `--seed` before any timed region; the program under test only
//! ever sees the generated operations.

use crate::sut::{self, Key, Value};

/// Storage servers in the rack.
pub const SERVERS: u32 = 8;
/// Keys in the dataset (ids `0..NUM_KEYS`, all resident).
pub const NUM_KEYS: u64 = 100_000;
/// Switch cache capacity, items.
pub const CACHE_ITEMS: usize = 10_000;
/// Zipf skew of the key popularity.
pub const THETA: f64 = 0.99;
/// Operations per chunk: the unit a throughput phase times, and the
/// quiescence boundary the write audit relies on.
pub const CHUNK_OPS: usize = 4096;
/// Chunks in a generated stream; time-bounded phases wrap around.
pub const STREAM_CHUNKS: usize = 256;
/// Chunks of a throughput phase over which the count metrics
/// (`hit_ratio`, `server_imbalance`, `allocs_per_op`) are taken. A phase
/// always runs at least this many, so the counts cover the same
/// operations on every run and repeat exactly where the rack is
/// deterministic.
pub const COUNT_CHUNKS: usize = 32;
/// Chunks of one `rack_churn` round (the whole round is count-bounded).
pub const CHURN_CHUNKS: usize = 96;
/// Chunk indices at which `rack_churn`'s popularity shifts (Fig. 11's
/// hot-in: the coldest keys become the hottest).
pub const CHURN_SHIFTS: [usize; 2] = [32, 64];
/// Keys moved to the top of the popularity order by each shift.
pub const CHURN_SHIFT_KEYS: usize = 200;

/// Which deployment carries the operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// `UdpRack`: frames cross the host loopback; the rack adds one host
    /// thread.
    Udp,
    /// In-process `Rack`: `Packet` structs move by function call, nothing
    /// is serialized.
    InProcess,
}

/// Value sizes of the dataset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sizes {
    /// Every value is 64 bytes.
    Fixed64,
    /// Per-key 64 B / 512 B / 2 048 B at weights 80 / 15 / 5 (1 / 4 / 16
    /// pipeline passes).
    Mixed,
}

/// One workload: a traffic mix and the deployment it runs on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    /// Name on the command line and in every report.
    pub name: &'static str,
    /// Why the workload exists, one line.
    pub why: &'static str,
    /// Deployment under test.
    pub transport: Transport,
    /// Share of writes; write keys follow the read skew (the paper's
    /// adversarial Fig. 10(d) case).
    pub write_ratio: f64,
    /// Value sizes.
    pub sizes: Sizes,
    /// Cold cache, controller cycles between chunks, popularity shifts.
    pub churn: bool,
}

/// The five workloads, in the order a full run visits them.
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "udp_read_hot",
        why: "loopback UDP, read-only, 64 B: the switch fast path and sockets carry ~80% of ops, so proto, runtime and the host loop dominate",
        transport: Transport::Udp,
        write_ratio: 0.0,
        sizes: Sizes::Fixed64,
        churn: false,
    },
    Workload {
        name: "udp_write_mix",
        why: "loopback UDP, 20% skewed writes: every write and miss is a 4-hop trip through server+store and drives invalidate/update coherence",
        transport: Transport::Udp,
        write_ratio: 0.2,
        sizes: Sizes::Fixed64,
        churn: false,
    },
    Workload {
        name: "udp_size_mix",
        why: "loopback UDP, 64 B/512 B/2 KB values, 10% writes: the only workload where the recirculating value pipeline and large buffers work",
        transport: Transport::Udp,
        write_ratio: 0.1,
        sizes: Sizes::Mixed,
        churn: false,
    },
    Workload {
        name: "rack_read_hot",
        why: "in-process rack, same ops as udp_read_hot: no sockets, no serialization, so dataplane+server+client are all of the time",
        transport: Transport::InProcess,
        write_ratio: 0.0,
        sizes: Sizes::Fixed64,
        churn: false,
    },
    Workload {
        name: "rack_churn",
        why: "in-process rack, cold cache, controller cycle per chunk, hot-in shifts: the only workload sketch and controller decide",
        transport: Transport::InProcess,
        write_ratio: 0.0,
        sizes: Sizes::Fixed64,
        churn: true,
    },
];

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// Length of key `id`'s value.
    pub fn value_len(&self, id: u64) -> usize {
        match self.sizes {
            Sizes::Fixed64 => 64,
            Sizes::Mixed => sut::mixed_value_len(id),
        }
    }

    /// Leading chunks of a throughput phase the count metrics cover:
    /// all of a churn round (it is count-bounded anyway), the first
    /// [`COUNT_CHUNKS`] elsewhere.
    pub fn count_chunks(&self) -> usize {
        if self.churn {
            CHURN_CHUNKS
        } else {
            COUNT_CHUNKS
        }
    }

    /// Chunks in this workload's stream.
    pub fn stream_chunks(&self) -> usize {
        if self.churn {
            CHURN_CHUNKS
        } else {
            STREAM_CHUNKS
        }
    }
}

/// One operation: a key id and whether it is a write.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Op(u32);

impl Op {
    fn new(key: u64, write: bool) -> Op {
        Op((key as u32) << 1 | u32::from(write))
    }

    /// The key id.
    pub fn key_id(self) -> u64 {
        u64::from(self.0 >> 1)
    }

    /// The key on the wire.
    pub fn key(self) -> Key {
        Key::from_u64(self.key_id())
    }

    /// Whether this is a write.
    pub fn is_write(self) -> bool {
        self.0 & 1 == 1
    }
}

/// A generated stream plus what the harness must know about it.
pub struct Stream {
    /// `stream_chunks() * CHUNK_OPS` operations.
    pub ops: Vec<Op>,
    /// Hottest `CACHE_ITEMS` key ids before any shift (pre-populated on
    /// the static workloads).
    pub hottest: Vec<u64>,
    /// Seconds the generation took (reported as `workload.gen_s`).
    pub gen_s: f64,
}

/// Generates `workload`'s stream from `seed`.
pub fn generate(workload: &Workload, seed: u64) -> Stream {
    let t0 = std::time::Instant::now();
    let mut sampler = sut::OpSampler::new(NUM_KEYS, THETA, workload.write_ratio, seed);
    let hottest = sampler.hottest(CACHE_ITEMS);
    let chunks = workload.stream_chunks();
    let mut ops = Vec::with_capacity(chunks * CHUNK_OPS);
    for chunk in 0..chunks {
        if workload.churn && CHURN_SHIFTS.contains(&chunk) {
            sampler.hot_in(CHURN_SHIFT_KEYS);
        }
        for _ in 0..CHUNK_OPS {
            let (key, write) = sampler.next_op();
            ops.push(Op::new(key, write));
        }
    }
    Stream {
        ops,
        hottest,
        gen_s: t0.elapsed().as_secs_f64(),
    }
}

/// FNV-1a over the stream: equal seeds give equal hashes, and the hash
/// is printed with every result so two result sets can be told to have
/// run the same operations.
pub fn stream_hash(ops: &[Op]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for op in ops {
        for b in op.0.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// The value the harness writes as version `version` (≥ 1) of key `id`:
/// key id and version in the first 16 bytes, then a pattern keyed by
/// both, so a reply can be attributed to the exact write it came from.
pub fn written_value(id: u64, version: u64, len: usize) -> Value {
    let mut bytes = vec![0u8; len];
    fill_written(id, version, &mut bytes);
    Value::new(bytes).expect("workload sizes are within the value cap")
}

fn fill_written(id: u64, version: u64, bytes: &mut [u8]) {
    let k = id.to_be_bytes();
    let v = version.to_be_bytes();
    for (i, b) in bytes.iter_mut().enumerate() {
        *b = match i {
            0..=7 => k[i],
            8..=15 => v[i - 8],
            _ => (i as u8) ^ k[i % 8] ^ v[i % 8],
        };
    }
}

/// Which version of key `id` `value` is: `Some(0)` for the loaded
/// dataset value, `Some(v)` for [`written_value`]`(id, v, len)`, `None`
/// for anything else (wrong key, wrong length, torn bytes).
pub fn version_of(id: u64, len: usize, value: &Value) -> Option<u64> {
    let bytes = value.as_bytes();
    if bytes.len() != len || len < 16 || bytes[..8] != id.to_be_bytes() {
        return None;
    }
    if *value == Value::for_item(id, len) {
        return Some(0);
    }
    let version = u64::from_be_bytes(bytes[8..16].try_into().expect("8 bytes"));
    let mut expected = vec![0u8; len];
    fill_written(id, version, &mut expected);
    (expected == bytes && version > 0).then_some(version)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        for w in &WORKLOADS {
            let a = generate(w, 7);
            let b = generate(w, 7);
            let c = generate(w, 8);
            assert_eq!(a.ops.len(), w.stream_chunks() * CHUNK_OPS);
            assert_eq!(stream_hash(&a.ops), stream_hash(&b.ops), "{}", w.name);
            assert_ne!(stream_hash(&a.ops), stream_hash(&c.ops), "{}", w.name);
        }
    }

    #[test]
    fn write_share_and_key_range_follow_the_spec() {
        let w = by_name("udp_write_mix").unwrap();
        let s = generate(w, 1);
        let writes = s.ops.iter().filter(|op| op.is_write()).count() as f64;
        let share = writes / s.ops.len() as f64;
        assert!((share - 0.2).abs() < 0.01, "write share {share}");
        assert!(s.ops.iter().all(|op| op.key_id() < NUM_KEYS));
        assert!(generate(by_name("udp_read_hot").unwrap(), 1)
            .ops
            .iter()
            .all(|op| !op.is_write()));
    }

    #[test]
    fn churn_shift_promotes_cold_keys() {
        let s = generate(by_name("rack_churn").unwrap(), 3);
        let promoted = |chunk: usize| {
            s.ops[chunk * CHUNK_OPS..(chunk + 1) * CHUNK_OPS]
                .iter()
                .filter(|op| op.key_id() >= NUM_KEYS - CHURN_SHIFT_KEYS as u64)
                .count()
        };
        // The coldest 200 keys are almost never read before the first
        // shift and carry the head of the distribution after it.
        assert!(promoted(CHURN_SHIFTS[0] - 1) < 10);
        assert!(promoted(CHURN_SHIFTS[0]) > CHUNK_OPS / 4);
    }

    #[test]
    fn written_values_name_their_key_and_version() {
        for len in [64, 512, 2048] {
            let v = written_value(77, 5, len);
            assert_eq!(version_of(77, len, &v), Some(5));
            assert_eq!(version_of(78, len, &v), None, "wrong key");
            assert_eq!(version_of(77, len + 1, &v), None, "wrong length");
            assert_eq!(version_of(77, len, &Value::for_item(77, len)), Some(0));
            let mut torn = v.as_bytes().to_vec();
            torn[len - 1] ^= 1;
            assert_eq!(version_of(77, len, &Value::new(torn).unwrap()), None);
        }
    }
}
