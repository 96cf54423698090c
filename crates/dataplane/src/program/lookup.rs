//! The cache lookup table (§4.4.2, Fig. 6(b); §4.4.4).
//!
//! "The lookup table produces three sets of metadata for cached keys: a
//! table bitmap and a value index as depicted in Figure 6, a key index used
//! for cache counter ... and for cache status array ..., and an egress port
//! that connects to the server hosting the key."
//!
//! The table is replicated for each upstream ingress pipe (its entries are
//! small); [`LookupTables`] models the replicas and keeps them identical,
//! as the controller does through the switch driver.

use netcache_proto::Key;

use crate::phv::PortId;
use crate::resources::Allocation;
use crate::table::{ExactMatchTable, TableError};

/// Action data produced by a cache-lookup match.
///
/// An entry spanning `passes > 1` pipeline passes occupies `passes`
/// *consecutive* bins starting at `value_index`: every bin but the last is
/// fully owned (all stages participate), and the final bin at
/// `value_index + passes - 1` uses only the stages named by `bitmap`. A
/// single-pass entry (`passes == 1`) degenerates to the paper's layout —
/// one bin, `bitmap` names the participating arrays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LookupEntry {
    /// Which value register arrays hold a unit of this key's value in the
    /// entry's *final* pass (bit *i* set ⇒ value table *i* participates).
    /// Intermediate passes of a multi-pass entry use every array.
    pub bitmap: u8,
    /// The slot index of the entry's first bin; pass *k* reads index
    /// `value_index + k`.
    pub value_index: u32,
    /// Index into the per-key counter / cache status arrays.
    pub key_index: u32,
    /// Port that connects to the storage server hosting the key; also
    /// selects the egress pipe holding the cached value.
    pub egress_port: PortId,
    /// True length in bytes of the cached value (carried as action data so
    /// the deparser can trim the zero padding of the last 16-byte unit).
    pub value_len: u16,
    /// Pipeline passes (1 initial + recirculations) needed to serve the
    /// entry; each pass beyond the first recirculates the packet.
    pub passes: u8,
}

impl LookupEntry {
    /// Number of value units this entry occupies: `passes - 1` full bins of
    /// `stages_per_pass` units each, plus the final bin's bitmap popcount.
    pub fn units(&self, stages_per_pass: usize) -> usize {
        (self.passes.max(1) as usize - 1) * stages_per_pass + self.bitmap.count_ones() as usize
    }
}

/// The replicated per-ingress-pipe cache lookup tables.
#[derive(Debug, Clone)]
pub struct LookupTables {
    replicas: Vec<ExactMatchTable<Key, LookupEntry>>,
}

impl LookupTables {
    /// Creates `pipes` identical replicas of capacity `capacity`.
    pub fn new(pipes: usize, capacity: usize) -> Self {
        assert!(pipes > 0, "at least one ingress pipe required");
        LookupTables {
            replicas: (0..pipes)
                .map(|_| {
                    let mut replica = ExactMatchTable::new(capacity);
                    replica.reserve();
                    replica
                })
                .collect(),
        }
    }

    /// Data-plane lookup on the replica of ingress pipe `pipe`. `&self`:
    /// every pipe reads its own replica concurrently, exactly as the
    /// replicated SRAM blocks do on the ASIC; replica mutation is a
    /// control-plane (`&mut self`) operation that cannot overlap. The
    /// control plane reads replica 0.
    pub fn lookup(&self, pipe: usize, key: &Key) -> Option<LookupEntry> {
        self.replicas[pipe].lookup(key).copied()
    }

    /// Control-plane insert into *all* replicas (they must stay identical).
    pub fn insert(&mut self, key: Key, entry: LookupEntry) -> Result<(), TableError> {
        // Validate against replica 0 first so a failure leaves all replicas
        // unchanged.
        if self.replicas[0].lookup(&key).is_none()
            && self.replicas[0].len() >= self.replicas[0].capacity()
        {
            return Err(TableError::Full {
                capacity: self.replicas[0].capacity(),
            });
        }
        for replica in &mut self.replicas {
            replica
                .insert(key, entry)
                .expect("replicas have identical occupancy");
        }
        Ok(())
    }

    /// Control-plane remove from all replicas.
    pub fn remove(&mut self, key: &Key) -> Result<LookupEntry, TableError> {
        let mut removed = Err(TableError::NotFound);
        for replica in &mut self.replicas {
            removed = replica.remove(key);
        }
        removed
    }

    /// Number of cached keys.
    pub fn len(&self) -> usize {
        self.replicas[0].len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.replicas[0].is_empty()
    }

    /// Capacity per replica.
    pub fn capacity(&self) -> usize {
        self.replicas[0].capacity()
    }

    /// SRAM bytes per replica: key bytes + action data per entry.
    ///
    /// Action data: bitmap (1) + value_index (4) + key_index (4) +
    /// port (2) + value_len (2) + passes (1) = 14 bytes. (The widened
    /// length field and the pass count cost 2 B per entry over the
    /// paper's layout; the 8 MB of value-stage SRAM is untouched.)
    pub fn sram_bytes_per_replica(&self) -> usize {
        self.capacity() * (netcache_proto::KEY_LEN + 14)
    }

    /// One ingress pipe's replica as a placement request.
    pub fn allocation(&self) -> Allocation {
        Allocation::new(
            "cache_lookup",
            self.sram_bytes_per_replica(),
            self.capacity(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(i: u32) -> LookupEntry {
        LookupEntry {
            bitmap: 0b0000_0111,
            value_index: i,
            key_index: i,
            egress_port: 1,
            value_len: 48,
            passes: 1,
        }
    }

    #[test]
    fn replicas_stay_identical() {
        let mut t = LookupTables::new(4, 16);
        t.insert(Key::from_u64(1), entry(0)).unwrap();
        t.insert(Key::from_u64(2), entry(1)).unwrap();
        for pipe in 0..4 {
            assert_eq!(t.lookup(pipe, &Key::from_u64(1)), Some(entry(0)));
            assert_eq!(t.lookup(pipe, &Key::from_u64(2)), Some(entry(1)));
            assert_eq!(t.lookup(pipe, &Key::from_u64(3)), None);
        }
        t.remove(&Key::from_u64(1)).unwrap();
        for pipe in 0..4 {
            assert_eq!(t.lookup(pipe, &Key::from_u64(1)), None);
        }
    }

    #[test]
    fn full_table_rejects_new_keys_atomically() {
        let mut t = LookupTables::new(2, 1);
        t.insert(Key::from_u64(1), entry(0)).unwrap();
        assert!(t.insert(Key::from_u64(2), entry(1)).is_err());
        // Replica 1 must not have been touched by the failed insert.
        assert_eq!(t.lookup(1, &Key::from_u64(2)), None);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn units_counts_full_bins_plus_final_bitmap() {
        assert_eq!(entry(0).units(8), 3);
        let e = LookupEntry {
            bitmap: 0b1111_1111,
            ..entry(0)
        };
        assert_eq!(e.units(8), 8);
        // A 300 B value: 19 units = 2 full bins + 3 units in the final bin.
        let multi = LookupEntry {
            bitmap: 0b0000_0111,
            passes: 3,
            value_len: 300,
            ..entry(0)
        };
        assert_eq!(multi.units(8), 19);
    }

    #[test]
    fn sram_accounting() {
        let t = LookupTables::new(1, 65_536);
        // 64K × 30 B per replica (16 B key + 14 B action data).
        assert_eq!(t.sram_bytes_per_replica(), 65_536 * 30);
    }
}
