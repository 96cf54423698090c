//! Per-core sharded storage (§6).
//!
//! "Our server agent supports per-core sharding with Receive Side Scaling
//! or DPDK Flow Director to handle highly concurrent workloads." A
//! [`ShardedStore`] splits the key space across `shards` independently
//! locked hash tables, hashed the way an RSS NIC would spread flows.

use core::borrow::Borrow;

use netcache_proto::{Key, Value};
use parking_lot::Mutex;

use crate::arena::{Arena, Slot};

/// A stored item: the value plus its version (the SEQ of the write that
/// produced it, used by the coherence protocol). This is what reads hand
/// out; at rest a value is exactly its bytes in the shard's arena.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoredItem {
    /// The value bytes.
    pub value: Value,
    /// Version of the last applied write.
    pub version: u32,
}

/// One slot of a shard's entries table. A [`Value`] reserves a whole
/// pipeline pass inline, which is right for a packet in flight and wrong
/// for 100 k entries; a `Value` is materialized only on
/// [`ShardedStore::get`].
#[derive(Debug, Clone, Copy)]
struct Entry {
    key: Key,
    version: u32,
    slot: Slot,
    /// Value length, or [`VACANT`].
    len: u16,
}

/// Marks an empty table slot (values are at most 2 KB).
const VACANT: u16 = u16::MAX;

const EMPTY: Entry = Entry {
    key: Key::ZERO,
    version: 0,
    slot: 0,
    len: VACANT,
};

/// One shard: a linear-probing entries table kept at most 3/4 full, and
/// the arena holding the values.
#[derive(Debug)]
struct Shard {
    entries: Box<[Entry]>,
    len: usize,
    seed: u64,
    values: Arena,
}

impl Shard {
    fn new(seed: u64) -> Self {
        Shard {
            entries: Box::new([]),
            len: 0,
            seed,
            values: Arena::new(),
        }
    }

    /// The key's home slot: a seeded xxhash-style mix of the key's two
    /// halves, independent of the partitioner's and the switch's hashes
    /// (correlated hashing between layers would skew load-balance
    /// experiments), reduced by multiply-shift so the table need not be a
    /// power of two.
    fn home(&self, key: &Key) -> usize {
        let b = key.as_bytes();
        let mut h = self.seed ^ 0x51_7c_c1_b7_27_22_0a_95;
        for half in [&b[..8], &b[8..]] {
            let mut v = u64::from_le_bytes(half.try_into().expect("eight bytes"));
            v = v.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            v ^= v >> 29;
            h = (h ^ v).wrapping_mul(0xff51_afd7_ed55_8ccd);
        }
        h ^= h >> 33;
        ((u128::from(h) * self.entries.len() as u128) >> 64) as usize
    }

    /// The index of `key`, or else of the vacant slot that ends its
    /// probe run.
    fn probe(&self, key: &Key) -> usize {
        let home = self.home(key);
        (home..self.entries.len())
            .chain(0..home)
            .find(|&i| self.entries[i].len == VACANT || self.entries[i].key == *key)
            .expect("the load bound leaves a vacant slot")
    }

    fn find(&self, key: &Key) -> Option<usize> {
        if self.len == 0 {
            return None;
        }
        Some(self.probe(key)).filter(|&i| self.entries[i].len != VACANT)
    }

    /// Rebuilds the table with `capacity` slots.
    fn resize(&mut self, capacity: usize) {
        let old = core::mem::replace(&mut self.entries, vec![EMPTY; capacity].into_boxed_slice());
        for entry in old.iter().filter(|e| e.len != VACANT) {
            let i = self.probe(&entry.key);
            self.entries[i] = *entry;
        }
    }

    fn put(&mut self, key: Key, bytes: &[u8], version: u32) -> Option<u32> {
        let len = bytes.len() as u16;
        if let Some(i) = self.find(&key) {
            let entry = &mut self.entries[i];
            entry.slot = self
                .values
                .write(Some((entry.slot, usize::from(entry.len))), bytes);
            entry.len = len;
            return Some(core::mem::replace(&mut entry.version, version));
        }
        if (self.len + 1) * 4 > self.entries.len() * 3 {
            self.resize((self.entries.len() * 2).max(16));
        }
        let i = self.probe(&key);
        let slot = self.values.write(None, bytes);
        self.entries[i] = Entry {
            key,
            version,
            slot,
            len,
        };
        self.len += 1;
        None
    }

    /// Removes `key` by backward shift: each later entry of the probe
    /// run moves into the hole unless that would put it before its home,
    /// so no tombstones are left behind.
    fn delete(&mut self, key: &Key) -> Option<u32> {
        let mut hole = self.find(key)?;
        let removed = self.entries[hole];
        self.values.free(removed.slot, usize::from(removed.len));
        let capacity = self.entries.len();
        let mut i = (hole + 1) % capacity;
        while self.entries[i].len != VACANT {
            let home = self.home(&self.entries[i].key);
            if (hole + capacity - home) % capacity < (i + capacity - home) % capacity {
                self.entries[hole] = self.entries[i];
                hole = i;
            }
            i = (i + 1) % capacity;
        }
        self.entries[hole] = EMPTY;
        self.len -= 1;
        Some(removed.version)
    }
}

/// A sharded, thread-safe key-value store.
///
/// # Examples
///
/// ```
/// use netcache_store::ShardedStore;
/// use netcache_proto::{Key, Value};
///
/// let store = ShardedStore::new(4);
/// store.put(Key::from_u64(1), Value::filled(7, 16), 1);
/// assert_eq!(store.get(&Key::from_u64(1)).unwrap().version, 1);
/// ```
#[derive(Debug)]
pub struct ShardedStore {
    shards: Vec<Mutex<Shard>>,
}

fn shard_seed(i: usize) -> u64 {
    0xabcd ^ i as u64
}

impl ShardedStore {
    /// Creates a store with `shards` shards (one per core, typically).
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn new(shards: usize) -> Self {
        assert!(shards > 0, "at least one shard required");
        ShardedStore {
            shards: (0..shards)
                .map(|i| Mutex::new(Shard::new(shard_seed(i))))
                .collect(),
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard index for `key` (RSS-style hash of the key bytes).
    pub fn shard_of(&self, key: &Key) -> usize {
        let b = key.as_bytes();
        let mut h: u64 = 0x9747_b28c_8a65_4e3d;
        for &byte in b {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        // FNV's high bits are weak; finish with an avalanche so the
        // multiply-shift reduction below sees well-mixed bits.
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        ((u128::from(h) * self.shards.len() as u128) >> 64) as usize
    }

    /// Sizes the shards for a bulk load of `per_shard[i]` more items into
    /// shard `i` (by [`ShardedStore::shard_of`]): each entries table gets
    /// exactly `ceil(4n/3)` slots for its `n` items, so the load neither
    /// rehashes its way up nor overshoots.
    ///
    /// # Panics
    ///
    /// Panics if `per_shard` does not have one count per shard.
    pub fn reserve(&self, per_shard: &[usize]) {
        assert_eq!(per_shard.len(), self.shards.len(), "one count per shard");
        for (shard, &items) in self.shards.iter().zip(per_shard) {
            let mut shard = shard.lock();
            let capacity = ((shard.len + items) * 4).div_ceil(3);
            if capacity > shard.entries.len() {
                shard.resize(capacity);
            }
        }
    }

    /// Reads the item for `key`.
    pub fn get(&self, key: &Key) -> Option<StoredItem> {
        let shard = self.shards[self.shard_of(key)].lock();
        let entry = shard.entries[shard.find(key)?];
        Some(StoredItem {
            value: Value::from_slice(shard.values.bytes(entry.slot, usize::from(entry.len)))
                .expect("stored from a bounded Value"),
            version: entry.version,
        })
    }

    /// The version of the item stored for `key`, without copying its value.
    pub fn version_of(&self, key: &Key) -> Option<u32> {
        let shard = self.shards[self.shard_of(key)].lock();
        Some(shard.entries[shard.find(key)?].version)
    }

    /// Writes `value` (owned or borrowed) with `version`, returning the
    /// version it replaced. A value of the stored length's size class
    /// overwrites the item's bytes in place.
    pub fn put(&self, key: Key, value: impl Borrow<Value>, version: u32) -> Option<u32> {
        let bytes = value.borrow().as_bytes();
        self.shards[self.shard_of(&key)]
            .lock()
            .put(key, bytes, version)
    }

    /// Deletes `key`, returning the removed item's version.
    pub fn delete(&self, key: &Key) -> Option<u32> {
        self.shards[self.shard_of(key)].lock().delete(key)
    }

    /// Total item count across shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len).sum()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Value bytes carved from the shards' pages, in use or free for
    /// reuse. A freed slot is taken by the next value of its size class,
    /// so this grows only when a class has no free slot left.
    pub fn arena_bytes(&self) -> usize {
        self.shards.iter().map(|s| s.lock().values.carved).sum()
    }

    /// Removes every item from every shard and returns their memory (a
    /// chain replica wiping its state on restart, before resyncing from
    /// the chain head).
    pub fn clear(&self) {
        for (i, shard) in self.shards.iter().enumerate() {
            *shard.lock() = Shard::new(shard_seed(i));
        }
    }

    /// Visits every stored item as `(key, value bytes, version)`, shard by
    /// shard. Order is arbitrary; each shard's lock is held only while
    /// that shard is visited, so `f` must not re-enter the store.
    pub fn for_each(&self, mut f: impl FnMut(&Key, &[u8], u32)) {
        for shard in &self.shards {
            let shard = shard.lock();
            for entry in shard.entries.iter().filter(|e| e.len != VACANT) {
                let bytes = shard.values.bytes(entry.slot, usize::from(entry.len));
                f(&entry.key, bytes, entry.version);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn put_get_delete() {
        let s = ShardedStore::new(4);
        assert!(s.put(Key::from_u64(1), Value::filled(1, 16), 1).is_none());
        let item = s.get(&Key::from_u64(1)).unwrap();
        assert_eq!(item.value, Value::filled(1, 16));
        assert_eq!(item.version, 1);
        assert_eq!(s.version_of(&Key::from_u64(1)), Some(1));
        assert_eq!(s.put(Key::from_u64(1), Value::filled(2, 16), 2), Some(1));
        assert_eq!(s.delete(&Key::from_u64(1)), Some(2));
        assert!(s.get(&Key::from_u64(1)).is_none());
        assert_eq!(s.version_of(&Key::from_u64(1)), None);
    }

    #[test]
    fn overwrites_of_any_length_read_back() {
        // Same length and class (in place), a larger class, a smaller
        // class and the empty value, owned and borrowed.
        let s = ShardedStore::new(1);
        let key = Key::from_u64(7);
        for (version, len) in [64usize, 64, 128, 129, 129, 2048, 0, 1]
            .into_iter()
            .enumerate()
        {
            let value = Value::for_item(version as u64, len);
            s.put(key, &value, version as u32 + 1);
            let item = s.get(&key).unwrap();
            assert_eq!((item.value, item.version), (value, version as u32 + 1));
        }
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn clear_and_for_each() {
        let s = ShardedStore::new(4);
        for i in 0..100u64 {
            s.put(Key::from_u64(i), Value::for_item(i, 16), (i + 1) as u32);
        }
        let mut seen = Vec::new();
        s.for_each(|_, _, version| seen.push(version));
        seen.sort_unstable();
        assert_eq!(seen, (1..=100).collect::<Vec<u32>>());
        s.clear();
        assert!(s.is_empty());
        s.put(Key::from_u64(1), Value::filled(9, 8), 5);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn probe_runs_stay_short_at_full_load() {
        // A shard reserved for 4 096 keys sits at its 3/4 load bound.
        // With a well-mixed home slot the longest run stays short; a
        // degenerate one (every key homed together) would run thousands.
        let s = ShardedStore::new(1);
        s.reserve(&[4096]);
        for i in 0..4096u64 {
            s.put(Key::from_u64(i), Value::for_item(i, 8), 1);
        }
        let shard = s.shards[0].lock();
        let capacity = shard.entries.len();
        let longest = (0..capacity)
            .filter(|&i| shard.entries[i].len != VACANT)
            .map(|i| (i + capacity - shard.home(&shard.entries[i].key)) % capacity + 1)
            .max()
            .unwrap();
        assert!(
            longest <= 64,
            "longest probe run {longest} suggests bad hashing"
        );
    }

    #[test]
    fn table_entry_stays_compact() {
        // Key, version, slot and length: the value's bytes live in the
        // arena, never the packet path's inline buffer.
        assert_eq!(core::mem::size_of::<Entry>(), 28);
    }

    #[test]
    fn reserve_sizes_the_table_for_a_three_quarter_load() {
        let s = ShardedStore::new(1);
        s.reserve(&[100]);
        for i in 0..100u64 {
            s.put(Key::from_u64(i), Value::for_item(i, 16), 1);
        }
        assert_eq!(
            s.shards[0].lock().entries.len(),
            134,
            "ceil(400 / 3), no growth"
        );
    }

    #[test]
    fn shard_assignment_is_stable_and_in_range() {
        let s = ShardedStore::new(16);
        for i in 0..1000u64 {
            let k = Key::from_u64(i);
            let shard = s.shard_of(&k);
            assert!(shard < 16);
            assert_eq!(shard, s.shard_of(&k));
        }
    }

    #[test]
    fn shards_spread_keys() {
        let s = ShardedStore::new(8);
        let mut counts = [0usize; 8];
        for i in 0..8000u64 {
            counts[s.shard_of(&Key::from_u64(i))] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!(c > 500 && c < 2000, "shard {i}: {c}");
        }
    }

    #[test]
    fn concurrent_access_is_safe() {
        let s = Arc::new(ShardedStore::new(8));
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let s = Arc::clone(&s);
            handles.push(std::thread::spawn(move || {
                for i in 0..1000u64 {
                    let k = Key::from_u64(t * 1000 + i);
                    s.put(k, Value::for_item(i, 32), 1);
                    assert!(s.get(&k).is_some());
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.len(), 8000);
    }
}
