//! Per-core sharded storage (§6).
//!
//! "Our server agent supports per-core sharding with Receive Side Scaling
//! or DPDK Flow Director to handle highly concurrent workloads." A
//! [`ShardedStore`] splits the key space across `shards` independently
//! locked hash tables, hashed the way an RSS NIC would spread flows.

use core::borrow::Borrow;

use netcache_proto::{Key, Value};
use parking_lot::Mutex;

use crate::hashtable::ChainedHashTable;

/// A stored item: the value plus its version (the SEQ of the write that
/// produced it, used by the coherence protocol). This is what reads hand
/// out; at rest the store keeps a compact form (exactly the bytes, boxed).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoredItem {
    /// The value bytes.
    pub value: Value,
    /// Version of the last applied write.
    pub version: u32,
}

/// An item at rest: exactly its bytes on the heap, no inline buffer. A
/// [`Value`] reserves a whole pipeline pass inline, which is right for a
/// packet in flight and wrong for 100 k bucket entries; a `Value` is
/// materialized only on [`ShardedStore::get`].
#[derive(Debug)]
struct Stored {
    bytes: Box<[u8]>,
    version: u32,
}

impl Stored {
    fn item(&self) -> StoredItem {
        StoredItem {
            value: Value::from_slice(&self.bytes).expect("stored from a bounded Value"),
            version: self.version,
        }
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
    shards: Vec<Mutex<ChainedHashTable<Stored>>>,
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
                .map(|i| Mutex::new(ChainedHashTable::with_seed(0xabcd ^ i as u64)))
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

    /// Sizes the shards for a bulk load of `per_shard[i]` items into shard
    /// `i` (by [`ShardedStore::shard_of`]), so the load does not rehash its
    /// way up (see [`ChainedHashTable::reserve`]).
    ///
    /// # Panics
    ///
    /// Panics if `per_shard` does not have one count per shard.
    pub fn reserve(&self, per_shard: &[usize]) {
        assert_eq!(per_shard.len(), self.shards.len(), "one count per shard");
        for (shard, &items) in self.shards.iter().zip(per_shard) {
            let mut shard = shard.lock();
            let total = shard.len() + items;
            shard.reserve(total);
        }
    }

    /// Reads the item for `key`.
    pub fn get(&self, key: &Key) -> Option<StoredItem> {
        self.shards[self.shard_of(key)]
            .lock()
            .get(key)
            .map(Stored::item)
    }

    /// The version of the item stored for `key`, without copying its value.
    pub fn version_of(&self, key: &Key) -> Option<u32> {
        self.shards[self.shard_of(key)]
            .lock()
            .get(key)
            .map(|item| item.version)
    }

    /// Writes `value` (owned or borrowed) with `version`, returning the
    /// version it replaced. A value of the stored length overwrites the
    /// item's bytes in place.
    pub fn put(&self, key: Key, value: impl Borrow<Value>, version: u32) -> Option<u32> {
        let bytes = value.borrow().as_bytes();
        let mut shard = self.shards[self.shard_of(&key)].lock();
        match shard.get_mut(&key) {
            Some(item) => {
                if item.bytes.len() == bytes.len() {
                    item.bytes.copy_from_slice(bytes);
                } else {
                    item.bytes = bytes.into();
                }
                Some(core::mem::replace(&mut item.version, version))
            }
            None => {
                let bytes = bytes.into();
                shard.insert(key, Stored { bytes, version });
                None
            }
        }
    }

    /// Deletes `key`, returning the removed item's version.
    pub fn delete(&self, key: &Key) -> Option<u32> {
        self.shards[self.shard_of(key)]
            .lock()
            .remove(key)
            .map(|item| item.version)
    }

    /// Total item count across shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Removes every item from every shard (a chain replica wiping its
    /// state on restart, before resyncing from the chain head).
    pub fn clear(&self) {
        for (i, shard) in self.shards.iter().enumerate() {
            *shard.lock() = ChainedHashTable::with_seed(0xabcd ^ i as u64);
        }
    }

    /// Visits every stored item as `(key, value bytes, version)`, shard by
    /// shard. Order is arbitrary; each shard's lock is held only while
    /// that shard is visited, so `f` must not re-enter the store.
    pub fn for_each(&self, mut f: impl FnMut(&Key, &[u8], u32)) {
        for shard in &self.shards {
            for (k, v) in shard.lock().iter() {
                f(k, &v.bytes, v.version);
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
        // Same length (in place) and different length (reallocated), on
        // both sides of the inline boundary, owned and borrowed.
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
    fn bucket_entry_stays_compact() {
        // The store must not embed the packet path's inline buffer: 100 k
        // entries of it would double the rack's resident memory.
        assert!(core::mem::size_of::<(Key, Stored)>() <= 48);
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
