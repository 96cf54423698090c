//! The variable-length on-chip value store (§4.4.2, Fig. 6(b)), extended
//! with recirculation for values wider than one pass's stage budget.
//!
//! Eight stages each hold one register array of 16-byte slots. A cached
//! key's [`LookupEntry`](crate::program::lookup::LookupEntry) carries a
//! *bitmap* naming the participating arrays, a base *index*, and a *pass*
//! count. A single-pass value is the paper's design verbatim: as the packet
//! traverses the stages, each participating array appends its 16-byte unit
//! to the VALUE field. A multi-pass value occupies `passes` consecutive
//! bins — every bin but the last fully, the last under `bitmap` — and the
//! packet recirculates through the egress pipe once per extra bin, reading
//! row `index + k` on pass `k`. Each pass carries its own register epoch:
//! the one-access-per-array-per-pass contract holds pass by pass.
//!
//! Updates walk the same stages (and the same passes) writing units
//! instead of reading them.

use netcache_proto::{Value, VALUE_UNIT};

use crate::register::RegisterArray;

/// The per-egress-pipe value stages.
#[derive(Debug, Clone)]
pub struct ValueStages {
    stages: Vec<RegisterArray<[u8; VALUE_UNIT]>>,
}

impl ValueStages {
    /// Creates `stages` arrays of `slots` 16-byte slots each.
    pub fn new(stages: usize, slots: usize) -> Self {
        assert!(stages > 0 && stages <= 8, "1..=8 value stages supported");
        ValueStages {
            stages: (0..stages)
                .map(|_| RegisterArray::new("value_stage", slots))
                .collect(),
        }
    }

    /// The value arrays in stage order, for placement.
    pub fn stages(&self) -> &[RegisterArray<[u8; VALUE_UNIT]>] {
        &self.stages
    }

    /// Bitmap with every stage participating (intermediate passes).
    fn full_mask(&self) -> u8 {
        if self.stages.len() == 8 {
            0xff
        } else {
            (1u8 << self.stages.len()) - 1
        }
    }

    /// The register cells of an in-bounds entry in pass-then-bitmap order,
    /// as `(pass, stage, row)`: pass `k` visits row `index + k` of every
    /// stage for intermediate passes and of `bitmap`'s stages for the
    /// final one. Each cell pairs with the next 16-byte chunk of the
    /// value's bytes, so reads and writes work on those bytes directly.
    fn cells(
        &self,
        bitmap: u8,
        index: u32,
        passes: u8,
    ) -> impl Iterator<Item = (u64, usize, usize)> {
        let full = self.full_mask();
        (0..passes).flat_map(move |k| {
            let mask = if k + 1 < passes { full } else { bitmap };
            (0..8usize)
                .filter(move |stage| mask >> stage & 1 != 0)
                .map(move |stage| (u64::from(k), stage, index as usize + usize::from(k)))
        })
    }

    /// Whether a `value_len`-byte value fits the `(bitmap, index, passes)`
    /// entry. A data-plane update may have shrunk the value below the
    /// slots the allocation reserves (§4.3: new values may be *smaller*);
    /// only the chunks the current length needs are emitted.
    fn holds(&self, bitmap: u8, index: u32, passes: u8, value_len: usize) -> bool {
        self.entry_in_bounds(bitmap, index, passes)
            && value_len.div_ceil(VALUE_UNIT).max(1) <= self.capacity_units(bitmap, passes)
    }

    /// Units a `(bitmap, passes)` allocation can hold: `passes - 1` full
    /// bins plus the final bin's bitmap popcount.
    pub fn capacity_units(&self, bitmap: u8, passes: u8) -> usize {
        (passes.max(1) as usize - 1) * self.stages.len() + bitmap.count_ones() as usize
    }

    /// Whether an entry shape is addressable at all: at least one pass, a
    /// non-empty bitmap within the stage count, and `passes` consecutive
    /// rows starting at `index` inside the arrays.
    pub fn entry_in_bounds(&self, bitmap: u8, index: u32, passes: u8) -> bool {
        passes >= 1
            && bitmap != 0
            && bitmap & !self.full_mask() == 0
            && (index as usize + passes as usize) <= self.stages[0].len()
    }

    /// Data-plane read: pass `k` (register epoch `base_epoch + k`) visits
    /// row `index + k`; each participating stage appends its unit
    /// (Fig. 6(b): "The data in the register arrays is appended to the
    /// value field when the packet is processed"). Passes beyond the first
    /// model recirculation — the caller charges one pipeline slot per pass.
    ///
    /// `value_len` (from the lookup action data) trims the zero padding of
    /// the final unit. Returns `None` when the entry shape is out of bounds
    /// or `value_len` is inconsistent with the allocation — which cannot
    /// happen under a correct controller and is treated as a drop.
    pub fn read_value(
        &mut self,
        base_epoch: u64,
        bitmap: u8,
        index: u32,
        passes: u8,
        value_len: u16,
    ) -> Option<Value> {
        if !self.holds(bitmap, index, passes, usize::from(value_len)) {
            return None;
        }
        let mut value = Value::filled(0, usize::from(value_len));
        let mut chunks = value.as_bytes_mut().chunks_mut(VALUE_UNIT);
        for (k, stage, row) in self.cells(bitmap, index, passes) {
            let unit = self.stages[stage].read(base_epoch + k, row);
            if let Some(chunk) = chunks.next() {
                chunk.copy_from_slice(&unit[..chunk.len()]);
            }
        }
        Some(value)
    }

    /// Data-plane write (a `CacheUpdate` packet walking the pipe, once per
    /// pass): writes the value's units into the participating arrays in
    /// pass-then-bitmap order, using register epoch `base_epoch + k` for
    /// pass `k`.
    ///
    /// Returns `false` without writing anything if the value needs more
    /// units than the allocation provides — the "new values no larger than
    /// the old ones" restriction of §4.3. A *smaller* value is allowed;
    /// surplus slots are filled with zero units and the true length comes
    /// from the `value_len` register, which the update path refreshes.
    pub fn write_value(
        &mut self,
        base_epoch: u64,
        bitmap: u8,
        index: u32,
        passes: u8,
        value: &Value,
    ) -> bool {
        if !self.holds(bitmap, index, passes, value.len()) {
            return false;
        }
        let mut chunks = value.as_bytes().chunks(VALUE_UNIT);
        for (k, stage, row) in self.cells(bitmap, index, passes) {
            self.stages[stage].write(base_epoch + k, row, padded_unit(chunks.next()));
        }
        true
    }

    /// Control-plane write used by the controller when inserting a new key
    /// (and for values larger than the data-plane update path allows).
    pub fn poke_value(&mut self, bitmap: u8, index: u32, passes: u8, value: &Value) -> bool {
        if !self.holds(bitmap, index, passes, value.len()) {
            return false;
        }
        let mut chunks = value.as_bytes().chunks(VALUE_UNIT);
        for (_, stage, row) in self.cells(bitmap, index, passes) {
            self.stages[stage].poke(row, padded_unit(chunks.next()));
        }
        true
    }

    /// Control-plane read (used in tests and by the resource report).
    pub fn peek_value(&self, bitmap: u8, index: u32, passes: u8, value_len: u16) -> Option<Value> {
        if !self.holds(bitmap, index, passes, usize::from(value_len)) {
            return None;
        }
        let mut value = Value::filled(0, usize::from(value_len));
        let chunks = value.as_bytes_mut().chunks_mut(VALUE_UNIT);
        for (chunk, (_, stage, row)) in chunks.zip(self.cells(bitmap, index, passes)) {
            chunk.copy_from_slice(&self.stages[stage].peek(row)[..chunk.len()]);
        }
        Some(value)
    }
}

/// One register unit holding `chunk`, zero-padded; a zero unit once the
/// value's bytes are exhausted.
fn padded_unit(chunk: Option<&[u8]>) -> [u8; VALUE_UNIT] {
    let mut unit = [0u8; VALUE_UNIT];
    if let Some(chunk) = chunk {
        unit[..chunk.len()].copy_from_slice(chunk);
    }
    unit
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stages() -> ValueStages {
        ValueStages::new(8, 16)
    }

    #[test]
    fn write_then_read_round_trip() {
        let mut vs = stages();
        for len in [1usize, 16, 17, 48, 128] {
            let v = Value::for_item(len as u64, len);
            let bitmap = ((1u16 << v.units()) - 1) as u8;
            assert!(vs.write_value(1, bitmap, 3, 1, &v), "len={len}");
            let back = vs.read_value(2, bitmap, 3, 1, len as u16).unwrap();
            assert_eq!(back, v, "len={len}");
        }
    }

    #[test]
    fn round_trip_all_lengths() {
        // Every length from empty to the wire maximum survives write →
        // read (data plane) and poke → peek (control plane), with the
        // final unit's zero padding trimmed.
        let mut vs = stages();
        for len in 0..=netcache_proto::MAX_VALUE_LEN {
            let v = Value::for_item(0x1234_5678_9abc_def0, len);
            let passes = v.passes() as u8;
            let tail = v.units() - (passes as usize - 1) * 8;
            let bitmap = ((1u16 << tail) - 1) as u8;
            let epoch = 1 + 64 * len as u64;
            assert!(vs.write_value(epoch, bitmap, 0, passes, &v), "len={len}");
            let back = vs.read_value(epoch + 32, bitmap, 0, passes, len as u16);
            assert_eq!(back.unwrap(), v, "len={len}");
            assert!(vs.poke_value(bitmap, 0, passes, &v), "len={len}");
            let back = vs.peek_value(bitmap, 0, passes, len as u16);
            assert_eq!(back.unwrap(), v, "len={len}");
        }
    }

    #[test]
    fn last_unit_is_zero_padded() {
        let mut vs = stages();
        assert!(vs.write_value(1, 0b0000_0011, 0, 1, &Value::filled(0xff, 20)));
        let mut expected = vec![0xff; 20];
        expected.resize(32, 0);
        let stored = vs.peek_value(0b0000_0011, 0, 1, 32).unwrap();
        assert_eq!(stored.as_bytes(), &expected[..]);
    }

    #[test]
    fn multi_pass_round_trip() {
        // 300 B = 19 units = 2 full bins + 3 units in the final bin.
        for len in [129usize, 256, 300, 2048] {
            let v = Value::for_item(len as u64, len);
            let passes = v.passes() as u8;
            let tail = v.units() - (passes as usize - 1) * 8;
            let bitmap = ((1u16 << tail) - 1) as u8;
            let mut vs = ValueStages::new(8, 256);
            assert!(vs.write_value(1, bitmap, 5, passes, &v), "len={len}");
            let back = vs.read_value(100, bitmap, 5, passes, len as u16).unwrap();
            assert_eq!(back, v, "len={len}");
        }
    }

    #[test]
    fn multi_pass_entry_must_fit_in_the_arrays() {
        let mut vs = stages(); // 16 rows
        let v = Value::filled(1, 300); // 3 passes
        assert!(!vs.write_value(1, 0b0000_0111, 14, 3, &v), "rows 14..17");
        assert!(vs.write_value(1, 0b0000_0111, 13, 3, &v), "rows 13..16");
        assert!(vs.read_value(10, 0b0000_0111, 14, 3, 300).is_none());
    }

    #[test]
    fn non_contiguous_bitmap_round_trip() {
        let mut vs = stages();
        let v = Value::for_item(9, 40); // 3 units
        let bitmap = 0b1010_0100; // stages 2, 5, 7
        assert!(vs.write_value(1, bitmap, 0, 1, &v));
        assert_eq!(vs.read_value(2, bitmap, 0, 1, 40).unwrap(), v);
    }

    #[test]
    fn oversized_value_rejected() {
        let mut vs = stages();
        let v = Value::filled(1, 64); // 4 units
        assert!(!vs.write_value(1, 0b0000_0111, 0, 1, &v)); // only 3 units available
                                                            // Nothing must have been written.
        assert_eq!(
            vs.peek_value(0b0000_0111, 0, 1, 48).unwrap(),
            Value::filled(0, 48)
        );
        // Same for the multi-pass shape: 2 passes hold 8 + 3 = 11 units.
        let big = Value::filled(2, 192); // 12 units
        assert!(!vs.write_value(2, 0b0000_0111, 0, 2, &big));
    }

    #[test]
    fn smaller_value_zeroes_surplus_units() {
        let mut vs = stages();
        let big = Value::filled(0xaa, 48); // 3 units
        let bitmap = 0b0000_0111;
        vs.write_value(1, bitmap, 5, 1, &big);
        let small = Value::filled(0xbb, 16); // 1 unit
        assert!(vs.write_value(2, bitmap, 5, 1, &small));
        // Surplus stages hold zero units now.
        assert_eq!(
            vs.peek_value(0b0000_0110, 5, 1, 32).unwrap(),
            Value::filled(0, 32)
        );
        assert_eq!(vs.read_value(3, 0b0000_0001, 5, 1, 16).unwrap(), small);
    }

    #[test]
    fn smaller_value_shrinks_across_passes() {
        // §4.3 shrink through a multi-pass allocation: a 2-pass slot
        // updated with a smaller value reads back correctly.
        let mut vs = stages();
        let bitmap = 0b0000_0011; // 2 passes × (8 + 2) = 10 units
        let big = Value::for_item(1, 160);
        assert!(vs.write_value(1, bitmap, 0, 2, &big));
        let small = Value::for_item(2, 40);
        assert!(vs.write_value(10, bitmap, 0, 2, &small));
        assert_eq!(vs.read_value(20, bitmap, 0, 2, 40).unwrap(), small);
    }

    #[test]
    fn different_indexes_are_independent() {
        let mut vs = stages();
        let a = Value::filled(1, 32);
        let b = Value::filled(2, 32);
        vs.write_value(1, 0b0011, 0, 1, &a);
        vs.write_value(2, 0b0011, 1, 1, &b);
        assert_eq!(vs.read_value(3, 0b0011, 0, 1, 32).unwrap(), a);
        assert_eq!(vs.read_value(4, 0b0011, 1, 1, 32).unwrap(), b);
    }

    #[test]
    fn same_index_different_bitmaps_share_bin() {
        // Fig. 6(b): keys C and D both use index 2 with disjoint bitmaps.
        let mut vs = stages();
        let c = Value::filled(0xcc, 16);
        let d = Value::filled(0xdd, 32);
        vs.write_value(1, 0b0000_0010, 2, 1, &c); // array 1
        vs.write_value(2, 0b0000_0101, 2, 1, &d); // arrays 0 and 2
        assert_eq!(vs.read_value(3, 0b0000_0010, 2, 1, 16).unwrap(), c);
        assert_eq!(vs.read_value(4, 0b0000_0101, 2, 1, 32).unwrap(), d);
    }

    #[test]
    fn multi_pass_tail_bin_shares_with_single_pass_items() {
        // A 2-pass item owns bin 0 fully and bits 0..1 of bin 1; a
        // single-pass item can still use the remaining bits of bin 1.
        let mut vs = stages();
        let wide = Value::for_item(7, 160); // 10 units
        assert!(vs.write_value(1, 0b0000_0011, 0, 2, &wide));
        let narrow = Value::for_item(8, 32); // 2 units in bin 1, bits 2..3
        assert!(vs.write_value(10, 0b0000_1100, 1, 1, &narrow));
        assert_eq!(vs.read_value(20, 0b0000_0011, 0, 2, 160).unwrap(), wide);
        assert_eq!(vs.read_value(30, 0b0000_1100, 1, 1, 32).unwrap(), narrow);
    }

    #[test]
    fn control_plane_poke_matches_data_plane_write() {
        let mut vs = stages();
        let v = Value::for_item(4, 100);
        let bitmap = 0b0111_1111;
        assert!(vs.poke_value(bitmap, 7, 1, &v));
        assert_eq!(vs.read_value(1, bitmap, 7, 1, 100).unwrap(), v);

        let wide = Value::for_item(5, 500); // 32 units = 4 passes
        let mut vs = ValueStages::new(8, 32);
        assert!(vs.poke_value(0xff, 0, 4, &wide));
        assert_eq!(vs.peek_value(0xff, 0, 4, 500).unwrap(), wide);
        assert_eq!(vs.read_value(1, 0xff, 0, 4, 500).unwrap(), wide);
    }

    #[test]
    fn sram_accounting_prototype_is_8mb() {
        let vs = ValueStages::new(8, 65_536);
        let total: usize = vs.stages().iter().map(RegisterArray::sram_bytes).sum();
        assert_eq!(total, 8 * 1024 * 1024);
    }
}
