//! Register arrays: the stateful memory of a match-action stage (§4.4.2).
//!
//! "The stateful memory is abstracted as register arrays in each stage. The
//! data in the register array can be directly retrieved and updated at its
//! stage at line rate through an index that indicates the memory location."
//!
//! A [`RegisterArray`] has a fixed slot count and a fixed slot type; the
//! per-packet access contract of real hardware — *one* read-modify-write
//! per array per packet pass — is enforced in debug mode by an access
//! epoch counter that the pipeline bumps per packet.

use crate::resources::{Allocation, AsicProfile, PlacementError};

/// A slot type storable in a register array.
///
/// Implementations cover the widths NetCache uses: 1-bit flags (Bloom
/// filter, valid bits), 16-bit counters, 32-bit versions, and 16-byte value
/// units.
pub trait Slot: Copy + Default + PartialEq + core::fmt::Debug + 'static {
    /// Width of one slot in bits (for SRAM accounting).
    const BITS: usize;
    /// How an array of these slots is held in memory.
    type Cells: Cells<Self>;
}

/// The memory behind a register array: `len` slots of `T`, all
/// `T::default()` when created.
pub trait Cells<T>: Clone + core::fmt::Debug {
    /// `len` default slots.
    fn new(len: usize) -> Self;
    /// Number of slots.
    fn len(&self) -> usize;
    /// Whether there are no slots.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// The slot at `index`.
    fn get(&self, index: usize) -> T;
    /// Overwrites the slot at `index`.
    fn set(&mut self, index: usize, value: T);
    /// Resets every slot to the default.
    fn clear(&mut self);
}

impl<T: Copy + Default + core::fmt::Debug> Cells<T> for Box<[T]> {
    fn new(len: usize) -> Self {
        vec![T::default(); len].into_boxed_slice()
    }
    fn len(&self) -> usize {
        <[T]>::len(self)
    }
    #[inline]
    fn get(&self, index: usize) -> T {
        self[index]
    }
    #[inline]
    fn set(&mut self, index: usize, value: T) {
        self[index] = value;
    }
    fn clear(&mut self) {
        self.fill(T::default());
    }
}

/// 1-bit slots packed 64 to a word, as the ASIC's SRAM holds them.
#[derive(Debug, Clone)]
pub struct Bits {
    words: Box<[u64]>,
    len: usize,
}

impl Cells<bool> for Bits {
    fn new(len: usize) -> Self {
        Bits {
            words: vec![0; len.div_ceil(64)].into_boxed_slice(),
            len,
        }
    }
    fn len(&self) -> usize {
        self.len
    }
    #[inline]
    fn get(&self, index: usize) -> bool {
        assert!(index < self.len, "bit {index} of {}", self.len);
        self.words[index / 64] >> (index % 64) & 1 == 1
    }
    #[inline]
    fn set(&mut self, index: usize, value: bool) {
        assert!(index < self.len, "bit {index} of {}", self.len);
        let mask = 1u64 << (index % 64);
        if value {
            self.words[index / 64] |= mask;
        } else {
            self.words[index / 64] &= !mask;
        }
    }
    fn clear(&mut self) {
        self.words.fill(0);
    }
}

impl Slot for bool {
    const BITS: usize = 1;
    type Cells = Bits;
}
impl Slot for u16 {
    const BITS: usize = 16;
    type Cells = Box<[u16]>;
}
impl Slot for u32 {
    const BITS: usize = 32;
    type Cells = Box<[u32]>;
}
impl Slot for [u8; 16] {
    const BITS: usize = 128;
    type Cells = Box<[[u8; 16]]>;
}

/// A fixed-size array of register slots, resident in one pipeline stage.
#[derive(Debug, Clone)]
pub struct RegisterArray<T: Slot> {
    name: &'static str,
    slots: T::Cells,
    /// Epoch of the last access per slot-less granularity: we track one
    /// epoch for the whole array (a packet touches an array at most once).
    last_access_epoch: u64,
    accesses: u64,
}

impl<T: Slot> RegisterArray<T> {
    /// Creates a zeroed array of `size` slots named `name`.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero.
    pub fn new(name: &'static str, size: usize) -> Self {
        assert!(size > 0, "register array {name} must be non-empty");
        RegisterArray {
            name,
            slots: T::Cells::new(size),
            last_access_epoch: 0,
            accesses: 0,
        }
    }

    /// Validates this array's slot width against the ASIC profile.
    pub fn check_width(&self, profile: &AsicProfile) -> Result<(), PlacementError> {
        let width_bytes = T::BITS.div_ceil(8);
        if width_bytes > profile.register_width_limit {
            return Err(PlacementError::RegisterTooWide {
                width: width_bytes,
                limit: profile.register_width_limit,
            });
        }
        Ok(())
    }

    /// The array as a placement request on `profile`: its own SRAM, once
    /// its slot width has passed [`check_width`](Self::check_width).
    pub fn allocation(&self, profile: &AsicProfile) -> Result<Allocation, PlacementError> {
        self.check_width(profile)?;
        Ok(Allocation::new(self.name, self.sram_bytes(), 0))
    }

    /// Array name (used in resource reports and assertions).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the array is empty (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// SRAM consumed in bytes, rounded up to whole bytes per array.
    pub fn sram_bytes(&self) -> usize {
        (self.slots.len() * T::BITS).div_ceil(8)
    }

    /// Total accesses since creation (for line-rate assertions in tests).
    pub fn access_count(&self) -> u64 {
        self.accesses
    }

    /// Records an access during `epoch`.
    ///
    /// # Panics
    ///
    /// In debug builds, panics if the array is accessed twice in the same
    /// packet epoch — one epoch is one *pipeline pass*, and an array can be
    /// touched at most once per pass on the ASIC. Multi-pass values are
    /// served by recirculation: the switch assigns each recirculated pass a
    /// fresh epoch, so this contract is per-pass, not per-packet.
    #[inline]
    fn touch(&mut self, epoch: u64) {
        debug_assert!(
            epoch == 0 || self.last_access_epoch != epoch,
            "register array {} accessed twice in packet epoch {epoch}",
            self.name
        );
        self.last_access_epoch = epoch;
        self.accesses += 1;
    }

    /// Reads the slot at `index` during packet `epoch`.
    #[inline]
    pub fn read(&mut self, epoch: u64, index: usize) -> T {
        self.touch(epoch);
        self.slots.get(index)
    }

    /// Writes `value` to the slot at `index` during packet `epoch`.
    #[inline]
    pub fn write(&mut self, epoch: u64, index: usize, value: T) {
        self.touch(epoch);
        self.slots.set(index, value);
    }

    /// Atomically applies `f` to the slot (the ALU read-modify-write a
    /// stage performs), returning the new value.
    #[inline]
    pub fn update(&mut self, epoch: u64, index: usize, f: impl FnOnce(T) -> T) -> T {
        self.touch(epoch);
        let new = f(self.slots.get(index));
        self.slots.set(index, new);
        new
    }

    /// Control-plane read: does not count as a data-plane access.
    pub fn peek(&self, index: usize) -> T {
        self.slots.get(index)
    }

    /// Control-plane write: does not count as a data-plane access.
    pub fn poke(&mut self, index: usize, value: T) {
        self.slots.set(index, value);
    }

    /// Control-plane bulk reset to the default value.
    pub fn clear(&mut self) {
        self.slots.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_write_round_trip() {
        let mut arr: RegisterArray<u16> = RegisterArray::new("t", 8);
        arr.write(1, 3, 42);
        assert_eq!(arr.read(2, 3), 42);
        assert_eq!(arr.read(3, 0), 0);
    }

    #[test]
    fn update_applies_alu_op() {
        let mut arr: RegisterArray<u16> = RegisterArray::new("t", 4);
        assert_eq!(arr.update(1, 2, |v| v.saturating_add(5)), 5);
        assert_eq!(arr.update(2, 2, |v| v.saturating_add(5)), 10);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "accessed twice")]
    fn double_access_in_one_epoch_panics() {
        let mut arr: RegisterArray<u16> = RegisterArray::new("t", 4);
        arr.read(7, 0);
        arr.read(7, 1);
    }

    #[test]
    fn control_plane_ops_bypass_epoch_check() {
        let mut arr: RegisterArray<u32> = RegisterArray::new("t", 4);
        arr.poke(0, 9);
        assert_eq!(arr.peek(0), 9);
        arr.poke(0, 10);
        assert_eq!(arr.peek(0), 10);
        assert_eq!(arr.access_count(), 0);
    }

    #[test]
    fn sram_accounting_by_width() {
        let bits: RegisterArray<bool> = RegisterArray::new("bits", 262_144);
        assert_eq!(bits.sram_bytes(), 32 * 1024);
        let counters: RegisterArray<u16> = RegisterArray::new("c", 65_536);
        assert_eq!(counters.sram_bytes(), 128 * 1024);
        let values: RegisterArray<[u8; 16]> = RegisterArray::new("v", 65_536);
        assert_eq!(values.sram_bytes(), 1024 * 1024);
    }

    #[test]
    fn bits_pack_and_clear() {
        let mut bits: RegisterArray<bool> = RegisterArray::new("bits", 130);
        for i in [0, 63, 64, 129] {
            bits.poke(i, true);
        }
        assert_eq!((0..130).filter(|&i| bits.peek(i)).count(), 4);
        assert!(bits.peek(64) && !bits.peek(65));
        bits.poke(64, false);
        assert!(!bits.peek(64) && bits.peek(63));
        bits.clear();
        assert!((0..130).all(|i| !bits.peek(i)));
    }

    #[test]
    #[should_panic(expected = "bit 130 of 130")]
    fn bits_past_the_end_panic() {
        let bits: RegisterArray<bool> = RegisterArray::new("bits", 130);
        bits.peek(130);
    }

    #[test]
    fn width_limit_checked() {
        let profile = AsicProfile::TOFINO;
        let values: RegisterArray<[u8; 16]> = RegisterArray::new("v", 4);
        assert!(values.check_width(&profile).is_ok());
        let narrow = AsicProfile {
            register_width_limit: 8,
            ..profile
        };
        assert!(values.check_width(&narrow).is_err());
    }

    #[test]
    fn clear_resets_all_slots() {
        let mut arr: RegisterArray<[u8; 16]> = RegisterArray::new("v", 2);
        arr.poke(0, [7u8; 16]);
        arr.clear();
        assert_eq!(arr.peek(0), [0u8; 16]);
    }
}
