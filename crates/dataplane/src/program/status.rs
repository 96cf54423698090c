//! The cache status module (§4.4.4).
//!
//! "At the egress pipe, queries that hit the cache are first processed by
//! the cache status module. It has a register array that contains a slot
//! for each cached key, indicating whether the cache is still valid. Write
//! queries invalidate the bit and read queries check if the bit is valid."
//!
//! Alongside the valid bit we keep a version register (the SEQ of the last
//! applied cache update). Versions make the reliable-update protocol of §6
//! robust to reordered or duplicated `CacheUpdate` packets: an update is
//! applied only if its version is newer than the stored one.

use std::cmp::Ordering;

use crate::register::RegisterArray;

/// Per-key cache status: a valid-bit array plus a version array.
#[derive(Debug, Clone)]
pub struct CacheStatus {
    valid: RegisterArray<bool>,
    version: RegisterArray<u32>,
}

impl CacheStatus {
    /// Creates status arrays for `slots` keys, all invalid.
    pub fn new(slots: usize) -> Self {
        CacheStatus {
            valid: RegisterArray::new("cache_status.valid", slots),
            version: RegisterArray::new("cache_status.version", slots),
        }
    }

    /// The valid-bit and version arrays, for placement.
    pub fn arrays(&self) -> (&RegisterArray<bool>, &RegisterArray<u32>) {
        (&self.valid, &self.version)
    }

    /// Data-plane: read the valid bit for a cache-hit read query.
    pub fn check_valid(&mut self, epoch: u64, key_index: u32) -> bool {
        self.valid.read(epoch, key_index as usize)
    }

    /// Data-plane: invalidate on a write query for a cached key.
    pub fn invalidate(&mut self, epoch: u64, key_index: u32) {
        self.valid.write(epoch, key_index as usize, false);
    }

    /// Data-plane: attempt to apply a cache update with version `version`,
    /// in one read-modify-write of the version register.
    ///
    /// Returns how `version` compares with the stored one. `Greater` (a
    /// strictly newer version, or a slot never written) stores it and marks
    /// the slot valid; `Equal` and `Less` (a duplicate or a stale update)
    /// leave the slot untouched. The comparison uses serial-number
    /// arithmetic so the 32-bit version can wrap.
    pub fn apply_update(&mut self, epoch: u64, key_index: u32, version: u32) -> Ordering {
        let idx = key_index as usize;
        let mut freshness = Ordering::Greater;
        self.version.update(epoch, idx, |stored| {
            if stored != 0 {
                freshness = (version.wrapping_sub(stored) as i32).cmp(&0);
            }
            if freshness.is_gt() {
                version
            } else {
                stored
            }
        });
        if freshness.is_gt() {
            self.valid.write(epoch, idx, true);
        }
        freshness
    }

    /// Data-plane: mark the slot valid again without a version change
    /// (the chain tail's commit of a write whose version is already
    /// stored).
    pub fn revalidate(&mut self, epoch: u64, key_index: u32) {
        self.valid.write(epoch, key_index as usize, true);
    }

    /// Control-plane: install a fresh key at `key_index` with `version`,
    /// marking it valid (the final step of a controller cache insertion).
    pub fn install(&mut self, key_index: u32, version: u32) {
        self.valid.poke(key_index as usize, true);
        self.version.poke(key_index as usize, version);
    }

    /// Control-plane: clear a slot when its key is evicted.
    pub fn evict(&mut self, key_index: u32) {
        self.valid.poke(key_index as usize, false);
        self.version.poke(key_index as usize, 0);
    }

    /// Control-plane: set the valid bit without touching the version
    /// (used while the controller moves values between slots).
    pub fn set_valid(&mut self, key_index: u32, valid: bool) {
        self.valid.poke(key_index as usize, valid);
    }

    /// Control-plane: read the valid bit without a data-plane access.
    pub fn peek_valid(&self, key_index: u32) -> bool {
        self.valid.peek(key_index as usize)
    }

    /// Control-plane: read the stored version.
    pub fn peek_version(&self, key_index: u32) -> u32 {
        self.version.peek(key_index as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_slots_are_invalid() {
        let mut s = CacheStatus::new(8);
        assert!(!s.check_valid(1, 0));
    }

    #[test]
    fn install_then_invalidate() {
        let mut s = CacheStatus::new(8);
        s.install(3, 1);
        assert!(s.check_valid(1, 3));
        s.invalidate(2, 3);
        assert!(!s.check_valid(3, 3));
    }

    #[test]
    fn update_versions_monotonic() {
        let mut s = CacheStatus::new(4);
        s.install(0, 5);
        s.invalidate(1, 0);
        // Stale update (version 4) must be rejected.
        assert_eq!(s.apply_update(2, 0, 4), Ordering::Less);
        assert!(!s.peek_valid(0));
        // Duplicate of current version rejected too.
        assert_eq!(s.apply_update(3, 0, 5), Ordering::Equal);
        assert!(!s.peek_valid(0));
        // Newer version applies.
        assert_eq!(s.apply_update(4, 0, 6), Ordering::Greater);
        assert!(s.peek_valid(0));
        assert_eq!(s.peek_version(0), 6);
    }

    #[test]
    fn version_wraparound_handled() {
        let mut s = CacheStatus::new(2);
        s.install(0, u32::MAX - 1);
        assert_eq!(s.apply_update(1, 0, u32::MAX), Ordering::Greater);
        // Wrapped version 1 is "newer" than u32::MAX in serial arithmetic
        // (0 is skipped by writers since it means "never written").
        assert_eq!(s.apply_update(2, 0, 1), Ordering::Greater);
        assert_eq!(s.apply_update(3, 0, u32::MAX), Ordering::Less);
        assert_eq!(s.peek_version(0), 1);
    }

    #[test]
    fn evict_resets_slot() {
        let mut s = CacheStatus::new(2);
        s.install(1, 9);
        s.evict(1);
        assert!(!s.peek_valid(1));
        assert_eq!(s.peek_version(1), 0);
        // After re-install the slot accepts version 1 again.
        assert_eq!(s.apply_update(1, 1, 1), Ordering::Greater);
    }

    #[test]
    fn sram_accounting() {
        let s = CacheStatus::new(65_536);
        // 64K bits + 64K × 4 B = 8 KiB + 256 KiB.
        let (valid, version) = s.arrays();
        assert_eq!(valid.sram_bytes(), 65_536 / 8);
        assert_eq!(version.sram_bytes(), 65_536 * 4);
    }
}
