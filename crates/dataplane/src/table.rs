//! Match-action tables (§4.4.1, Fig. 5(d)).
//!
//! Two match kinds are modelled:
//!
//! - [`ExactMatchTable`] — SRAM exact match with a bounded entry count,
//!   used for the cache lookup table (64K entries on 16-byte keys);
//! - [`LpmTable`] — longest-prefix match on IPv4 addresses, used by the
//!   routing module ("We use standard L3 routing ... which forwards packets
//!   based on destination IP address", §6).

use std::collections::HashMap;

use core::hash::Hash;

/// Capacity errors for match-action tables.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TableError {
    /// The table is full; the control plane must evict first.
    Full {
        /// Configured capacity.
        capacity: usize,
    },
    /// The key being removed is not present.
    NotFound,
}

impl core::fmt::Display for TableError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            TableError::Full { capacity } => write!(f, "table full (capacity {capacity})"),
            TableError::NotFound => write!(f, "entry not found"),
        }
    }
}

impl std::error::Error for TableError {}

/// An exact-match table mapping keys to action data.
///
/// Entry insertion/removal is a *control-plane* operation (bounded rate on
/// real hardware — the controller models that); lookup is the data-plane
/// operation. Lookup takes `&self` — the match stage is read-only from the
/// packet's point of view, so concurrent pipes may search the same SRAM
/// block.
#[derive(Debug, Clone)]
pub struct ExactMatchTable<K: Eq + Hash + Clone, A: Clone> {
    capacity: usize,
    entries: HashMap<K, A>,
}

impl<K: Eq + Hash + Clone, A: Clone> ExactMatchTable<K, A> {
    /// Creates an empty table with a fixed `capacity`. It holds no host
    /// memory until entries are installed or [`reserve`](Self::reserve)
    /// is called.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "a table must have positive capacity");
        ExactMatchTable {
            capacity,
            entries: HashMap::new(),
        }
    }

    /// Reserves host memory for the whole capacity (up to 64K entries),
    /// so that, like the SRAM block it models, the table never grows while
    /// it serves.
    pub fn reserve(&mut self) {
        self.entries.reserve(self.capacity.min(1 << 16));
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of installed entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Lookup. `&self`: safe under concurrent pipes — entry mutation
    /// requires `&mut self` (control plane), which Rust's exclusivity
    /// guarantees cannot overlap with data-plane lookups.
    #[inline]
    pub fn lookup(&self, key: &K) -> Option<&A> {
        self.entries.get(key)
    }

    /// Control-plane insert. Replaces an existing entry for `key` in place;
    /// fails only when inserting a *new* key into a full table.
    pub fn insert(&mut self, key: K, action: A) -> Result<(), TableError> {
        if !self.entries.contains_key(&key) && self.entries.len() >= self.capacity {
            return Err(TableError::Full {
                capacity: self.capacity,
            });
        }
        self.entries.insert(key, action);
        Ok(())
    }

    /// Control-plane remove.
    pub fn remove(&mut self, key: &K) -> Result<A, TableError> {
        self.entries.remove(key).ok_or(TableError::NotFound)
    }
}

/// An IPv4 longest-prefix-match table.
///
/// Prefixes are stored per length (0..=32); lookup scans from the longest
/// length down, which is the semantic (not mechanical) model of a TCAM.
#[derive(Debug, Clone)]
pub struct LpmTable<A: Clone> {
    /// `maps[len]` holds prefixes of length `len`, keyed by the masked address.
    maps: Vec<HashMap<u32, A>>,
    len: usize,
}

impl<A: Clone> LpmTable<A> {
    /// Creates an empty LPM table.
    pub fn new() -> Self {
        LpmTable {
            maps: (0..=32).map(|_| HashMap::new()).collect(),
            len: 0,
        }
    }

    /// Masks `addr` to its top `len` bits.
    fn mask(addr: u32, len: u8) -> u32 {
        if len == 0 {
            0
        } else {
            addr & (u32::MAX << (32 - u32::from(len)))
        }
    }

    /// Installs a route for `prefix/len`.
    ///
    /// # Panics
    ///
    /// Panics if `len > 32`.
    pub fn insert(&mut self, prefix: u32, len: u8, action: A) {
        assert!(len <= 32, "prefix length {len} out of range");
        let masked = Self::mask(prefix, len);
        if self.maps[len as usize].insert(masked, action).is_none() {
            self.len += 1;
        }
    }

    /// Longest-prefix-match lookup.
    pub fn lookup(&self, addr: u32) -> Option<&A> {
        for len in (0..=32u8).rev() {
            let map = &self.maps[len as usize];
            if map.is_empty() {
                continue;
            }
            if let Some(action) = map.get(&Self::mask(addr, len)) {
                return Some(action);
            }
        }
        None
    }

    /// Number of installed routes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the table has no routes.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl<A: Clone> Default for LpmTable<A> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_match_basic() {
        let mut t: ExactMatchTable<u64, u32> = ExactMatchTable::new(4);
        t.insert(1, 100).unwrap();
        let t = t; // lookup is a data-plane read: `&self` suffices
        assert_eq!(t.lookup(&1), Some(&100));
        assert_eq!(t.lookup(&2), None);
    }

    #[test]
    fn exact_match_capacity_enforced() {
        let mut t: ExactMatchTable<u64, u32> = ExactMatchTable::new(2);
        t.insert(1, 1).unwrap();
        t.insert(2, 2).unwrap();
        assert!(matches!(t.insert(3, 3), Err(TableError::Full { .. })));
        // Replacing an existing key is allowed at capacity.
        t.insert(1, 10).unwrap();
        assert_eq!(t.lookup(&1), Some(&10));
    }

    #[test]
    fn exact_match_remove() {
        let mut t: ExactMatchTable<u64, u32> = ExactMatchTable::new(2);
        t.insert(1, 1).unwrap();
        assert_eq!(t.remove(&1), Ok(1));
        assert_eq!(t.remove(&1), Err(TableError::NotFound));
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn lpm_prefers_longest_prefix() {
        let mut t: LpmTable<&'static str> = LpmTable::new();
        t.insert(0x0a00_0000, 8, "ten-slash-8");
        t.insert(0x0a01_0000, 16, "ten-one-slash-16");
        t.insert(0x0a01_0200, 24, "ten-one-two-slash-24");
        assert_eq!(t.lookup(0x0a01_0203), Some(&"ten-one-two-slash-24"));
        assert_eq!(t.lookup(0x0a01_0303), Some(&"ten-one-slash-16"));
        assert_eq!(t.lookup(0x0a02_0000), Some(&"ten-slash-8"));
        assert_eq!(t.lookup(0x0b00_0000), None);
    }

    #[test]
    fn lpm_default_route() {
        let mut t: LpmTable<u16> = LpmTable::new();
        t.insert(0, 0, 99);
        assert_eq!(t.lookup(0xdead_beef), Some(&99));
    }

    #[test]
    fn lpm_host_routes() {
        let mut t: LpmTable<u16> = LpmTable::new();
        for i in 0..128u32 {
            t.insert(0x0a00_0100 + i, 32, i as u16);
        }
        assert_eq!(t.len(), 128);
        for i in 0..128u32 {
            assert_eq!(t.lookup(0x0a00_0100 + i), Some(&(i as u16)));
        }
    }

    #[test]
    fn lpm_masks_host_bits_on_insert() {
        let mut t: LpmTable<u8> = LpmTable::new();
        // Prefix with host bits set; must match as if masked.
        t.insert(0x0a01_02ff, 24, 7);
        assert_eq!(t.lookup(0x0a01_0200), Some(&7));
    }
}
