//! A separate-chaining hash table, the TommyDS stand-in.
//!
//! Buckets are `Vec`s of `(Key, V)` pairs; the table doubles when the load
//! factor exceeds 0.75. Hashing is a seeded mix of the key bytes so the
//! table's layout is independent of the partitioner's and the switch's hash
//! functions (correlated hashing between layers is a classic way to
//! accidentally break load-balance experiments).

use netcache_proto::Key;

/// A chained hash table from [`Key`] to `V`.
///
/// # Examples
///
/// ```
/// use netcache_store::ChainedHashTable;
/// use netcache_proto::Key;
///
/// let mut t = ChainedHashTable::new();
/// t.insert(Key::from_u64(1), "a");
/// assert_eq!(t.get(&Key::from_u64(1)), Some(&"a"));
/// assert_eq!(t.remove(&Key::from_u64(1)), Some("a"));
/// ```
#[derive(Debug, Clone)]
pub struct ChainedHashTable<V> {
    buckets: Vec<Vec<(Key, V)>>,
    len: usize,
    seed: u64,
}

const INITIAL_BUCKETS: usize = 16;
const MAX_LOAD_NUM: usize = 3;
const MAX_LOAD_DEN: usize = 4;

impl<V> ChainedHashTable<V> {
    /// Creates an empty table with a default seed.
    pub fn new() -> Self {
        Self::with_seed(0x7f4a_7c15_9e37_79b9)
    }

    /// Creates an empty table whose bucket placement derives from `seed`.
    pub fn with_seed(seed: u64) -> Self {
        ChainedHashTable {
            buckets: (0..INITIAL_BUCKETS).map(|_| Vec::new()).collect(),
            len: 0,
            seed,
        }
    }

    /// Number of stored items.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Current bucket count (for tests of growth behaviour).
    pub fn bucket_count(&self) -> usize {
        self.buckets.len()
    }

    fn hash(seed: u64, key: &Key) -> u64 {
        // xxhash-style avalanche over the two 8-byte halves of the key.
        let b = key.as_bytes();
        let mut h = seed ^ 0x51_7c_c1_b7_27_22_0a_95;
        for half in [&b[..8], &b[8..]] {
            let mut lane = [0u8; 8];
            lane.copy_from_slice(half);
            let mut v = u64::from_le_bytes(lane);
            v = v.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            v ^= v >> 29;
            h = (h ^ v).wrapping_mul(0xff51_afd7_ed55_8ccd);
        }
        h ^= h >> 33;
        h
    }

    fn bucket_of(&self, key: &Key) -> usize {
        (Self::hash(self.seed, key) % self.buckets.len() as u64) as usize
    }

    /// Grows the table, in one rehash, to the bucket count that inserting
    /// up to `len` items one by one would have reached — the same layout
    /// and memory as organic growth, without the intermediate doublings.
    /// Bulk loaders call this with the final item count up front.
    pub fn reserve(&mut self, len: usize) {
        let mut count = self.buckets.len();
        while len * MAX_LOAD_DEN > count * MAX_LOAD_NUM {
            count *= 2;
        }
        if count == self.buckets.len() {
            return;
        }
        let mut new_buckets: Vec<Vec<(Key, V)>> = (0..count).map(|_| Vec::new()).collect();
        for (key, value) in self.buckets.drain(..).flatten() {
            let idx = (Self::hash(self.seed, &key) % count as u64) as usize;
            new_buckets[idx].push((key, value));
        }
        self.buckets = new_buckets;
    }

    /// Inserts or replaces the value for `key`, returning the old value.
    pub fn insert(&mut self, key: Key, value: V) -> Option<V> {
        let idx = self.bucket_of(&key);
        for slot in &mut self.buckets[idx] {
            if slot.0 == key {
                return Some(core::mem::replace(&mut slot.1, value));
            }
        }
        self.buckets[idx].push((key, value));
        self.len += 1;
        self.reserve(self.len);
        None
    }

    /// Returns a reference to the value for `key`.
    pub fn get(&self, key: &Key) -> Option<&V> {
        self.buckets[self.bucket_of(key)]
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// Returns a mutable reference to the value for `key`.
    pub fn get_mut(&mut self, key: &Key) -> Option<&mut V> {
        let idx = self.bucket_of(key);
        self.buckets[idx]
            .iter_mut()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// Removes and returns the value for `key`.
    pub fn remove(&mut self, key: &Key) -> Option<V> {
        let idx = self.bucket_of(key);
        let pos = self.buckets[idx].iter().position(|(k, _)| k == key)?;
        self.len -= 1;
        Some(self.buckets[idx].swap_remove(pos).1)
    }

    /// Iterates all `(key, value)` pairs in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = (&Key, &V)> {
        self.buckets
            .iter()
            .flat_map(|b| b.iter().map(|(k, v)| (k, v)))
    }
}

impl<V> Default for ChainedHashTable<V> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove() {
        let mut t = ChainedHashTable::new();
        assert_eq!(t.insert(Key::from_u64(1), 10), None);
        assert_eq!(t.insert(Key::from_u64(2), 20), None);
        assert_eq!(t.get(&Key::from_u64(1)), Some(&10));
        assert_eq!(t.insert(Key::from_u64(1), 11), Some(10));
        assert_eq!(t.len(), 2);
        assert_eq!(t.remove(&Key::from_u64(1)), Some(11));
        assert_eq!(t.remove(&Key::from_u64(1)), None);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn get_mut_updates_in_place() {
        let mut t = ChainedHashTable::new();
        t.insert(Key::from_u64(7), 1);
        *t.get_mut(&Key::from_u64(7)).unwrap() += 41;
        assert_eq!(t.get(&Key::from_u64(7)), Some(&42));
        assert_eq!(t.get_mut(&Key::from_u64(8)), None);
    }

    #[test]
    fn grows_under_load_and_keeps_items() {
        let mut t = ChainedHashTable::new();
        let n = 10_000u64;
        for i in 0..n {
            t.insert(Key::from_u64(i), i * 2);
        }
        assert!(t.bucket_count() > INITIAL_BUCKETS);
        assert_eq!(t.len(), n as usize);
        for i in 0..n {
            assert_eq!(t.get(&Key::from_u64(i)), Some(&(i * 2)), "key {i}");
        }
    }

    #[test]
    fn reserve_matches_organic_growth() {
        for n in [0usize, 1, 12, 13, 100, 12_500] {
            let mut organic = ChainedHashTable::new();
            let mut reserved = ChainedHashTable::new();
            reserved.reserve(n);
            let before = reserved.bucket_count();
            for i in 0..n as u64 {
                organic.insert(Key::from_u64(i), i);
                reserved.insert(Key::from_u64(i), i);
            }
            assert_eq!(reserved.bucket_count(), before, "n={n}: no further growth");
            assert_eq!(reserved.bucket_count(), organic.bucket_count(), "n={n}");
            for i in 0..n as u64 {
                assert_eq!(reserved.get(&Key::from_u64(i)), Some(&i), "n={n} key {i}");
            }
        }
    }

    #[test]
    fn iter_visits_everything_once() {
        let mut t = ChainedHashTable::new();
        for i in 0..100u64 {
            t.insert(Key::from_u64(i), i);
        }
        let mut seen: Vec<u64> = t.iter().map(|(_, v)| *v).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn different_seeds_give_different_layouts() {
        let mut a = ChainedHashTable::with_seed(1);
        let mut b = ChainedHashTable::with_seed(2);
        for i in 0..50u64 {
            a.insert(Key::from_u64(i), ());
            b.insert(Key::from_u64(i), ());
        }
        // Same contents regardless of layout.
        for i in 0..50u64 {
            assert!(a.get(&Key::from_u64(i)).is_some());
            assert!(b.get(&Key::from_u64(i)).is_some());
        }
    }

    #[test]
    fn bucket_distribution_not_degenerate() {
        let mut t = ChainedHashTable::new();
        for i in 0..4096u64 {
            t.insert(Key::from_u64(i), ());
        }
        let max_chain = t.buckets.iter().map(Vec::len).max().unwrap();
        assert!(
            max_chain < 16,
            "longest chain {max_chain} suggests bad hashing"
        );
    }
}
