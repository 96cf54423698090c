//! The per-shard value arena: size-classed slots in fixed pages.
//!
//! Memcached's slab allocator in miniature (SNIPPETS.md, Snippet 1):
//! values live in fixed [`PAGE`]-byte pages, each page carved into equal
//! slots of one size class, and a freed slot goes onto its class's free
//! list for the next value of that class. Classes step by the switch's
//! 16 B value unit, so a value wastes less than one unit. Pages are
//! allocated whole and never grown, so the heap holds the values plus at
//! most one partly carved page per class in use.

use netcache_proto::{MAX_VALUE_LEN, VALUE_UNIT};

/// Bytes per page: 32 slots of the largest class.
pub(crate) const PAGE: usize = 64 * 1024;

/// Classes `0..=MAX_VALUE_LEN / VALUE_UNIT`; class `c` holds values of
/// `16(c-1)+1 ..= 16c` bytes, class 0 the empty value (no storage).
const CLASSES: usize = MAX_VALUE_LEN / VALUE_UNIT + 1;

/// "No slot" in the carve and free-list heads. Slots start on 16 B
/// boundaries, so no real address has its low bits set.
const NONE: Slot = Slot::MAX;

/// Where a value lives: page index in the high 16 bits, byte offset
/// within the page in the low 16.
pub(crate) type Slot = u32;

fn class(len: usize) -> usize {
    len.div_ceil(VALUE_UNIT)
}

fn split(slot: Slot) -> (usize, usize) {
    ((slot >> 16) as usize, (slot & 0xffff) as usize)
}

/// One shard's value pages.
#[derive(Debug)]
pub(crate) struct Arena {
    pages: Vec<Box<[u8]>>,
    /// Per class, the next uncarved slot of its newest page.
    carve: [Slot; CLASSES],
    /// Per class, the head of the free list threaded through the first
    /// four bytes of each freed slot.
    free: [Slot; CLASSES],
    /// Bytes carved into slots so far, in use or on a free list.
    pub(crate) carved: usize,
}

impl Arena {
    pub(crate) fn new() -> Self {
        Arena {
            pages: Vec::new(),
            carve: [NONE; CLASSES],
            free: [NONE; CLASSES],
            carved: 0,
        }
    }

    /// The `len` bytes stored at `slot`.
    pub(crate) fn bytes(&self, slot: Slot, len: usize) -> &[u8] {
        if len == 0 {
            return &[];
        }
        let (page, at) = split(slot);
        &self.pages[page][at..at + len]
    }

    /// Stores `bytes`, replacing the value of `old_len` bytes at `old`
    /// if there is one: in place when the class is unchanged, otherwise
    /// in a slot of the new class, freeing the old one. Returns the slot.
    pub(crate) fn write(&mut self, old: Option<(Slot, usize)>, bytes: &[u8]) -> Slot {
        let slot = match old {
            Some((slot, old_len)) if class(old_len) == class(bytes.len()) => slot,
            _ => {
                if let Some((slot, old_len)) = old {
                    self.free(slot, old_len);
                }
                self.alloc(class(bytes.len()))
            }
        };
        if !bytes.is_empty() {
            let (page, at) = split(slot);
            self.pages[page][at..at + bytes.len()].copy_from_slice(bytes);
        }
        slot
    }

    /// Returns the slot of a value of `len` bytes to its class.
    pub(crate) fn free(&mut self, slot: Slot, len: usize) {
        let class = class(len);
        if class == 0 {
            return;
        }
        let (page, at) = split(slot);
        self.pages[page][at..at + 4].copy_from_slice(&self.free[class].to_le_bytes());
        self.free[class] = slot;
    }

    fn alloc(&mut self, class: usize) -> Slot {
        if class == 0 {
            return NONE;
        }
        let head = self.free[class];
        if head != NONE {
            let (page, at) = split(head);
            let next = &self.pages[page][at..at + 4];
            self.free[class] = Slot::from_le_bytes(next.try_into().expect("four bytes"));
            return head;
        }
        let size = class * VALUE_UNIT;
        let slot = match self.carve[class] {
            NONE => {
                assert!(self.pages.len() < 1 << 16, "4 GiB of values per shard");
                self.pages.push(vec![0u8; PAGE].into_boxed_slice());
                ((self.pages.len() - 1) << 16) as Slot
            }
            slot => slot,
        };
        let next = split(slot).1 + size;
        self.carve[class] = if next + size <= PAGE {
            slot + size as Slot
        } else {
            NONE
        };
        self.carved += size;
        slot
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classes_share_no_page_and_freed_slots_are_reused() {
        let mut a = Arena::new();
        let small = a.write(None, &[1; 64]);
        let large = a.write(None, &[2; 2048]);
        assert_ne!(split(small).0, split(large).0, "one class per page");
        assert_eq!(a.carved, 64 + 2048);
        // A class change moves the value and frees its old slot ...
        let moved = a.write(Some((small, 64)), &[3; 65]);
        assert_eq!(a.bytes(moved, 65), &[3; 65][..]);
        // ... which the next value of that class takes, carving nothing.
        let reused = a.write(None, &[4; 49]);
        assert_eq!(reused, small);
        assert_eq!(a.carved, 64 + 2048 + 80);
        assert_eq!(a.bytes(large, 2048), &[2; 2048][..]);
    }

    #[test]
    fn a_page_holds_exactly_its_slots() {
        let mut a = Arena::new();
        for _ in 0..PAGE / 2048 {
            a.write(None, &[0; 2048]);
        }
        assert_eq!(a.pages.len(), 1);
        a.write(None, &[0; 2048]);
        assert_eq!(a.pages.len(), 2);
        // Empty values take no storage.
        let empty = a.write(None, &[]);
        assert_eq!(a.bytes(empty, 0), &[] as &[u8]);
        assert_eq!(a.pages.len(), 2);
    }
}
