//! Ablation (§4.4.2 design choice): the Fig. 6(b) bitmap+index value
//! layout vs the straw-man designs the paper dismisses.
//!
//! 1. **Replicated tables** — "replicate the table for each register
//!    array": 8 exact-match lookups per packet and 8× the match entries.
//! 2. **Index list** — one lookup returning a separate index per array:
//!    1 lookup but 8×4 B of action data / metadata.
//! 3. **NetCache (bitmap+index)** — one lookup, one 8-bit bitmap, one
//!    shared index.
//!
//! This binary prints the match-entry SRAM and per-packet lookups of all
//! three, and the fragmentation benefit of non-contiguous bitmaps
//! (Algorithm 2's flexibility) over a contiguous-slots allocator.

use netcache_bench::banner;
use netcache_controller::SlotAllocator;
use netcache_proto::{Key, KEY_LEN};

const ARRAYS: usize = 8;

fn main() {
    banner(
        "Ablation (§4.4.2)",
        "bitmap+index value layout vs replicated tables and index lists",
    );
    let entry_bytes_netcache = KEY_LEN + 1 + 4 + 4 + 2 + 1; // bitmap+idx+key_idx+port+len
    let entry_bytes_indexlist = KEY_LEN + ARRAYS * 4 + 4 + 2 + 1;
    let entry_bytes_replicated = ARRAYS * (KEY_LEN + 4); // key+index per array table
    println!("── layout ablation: match-entry SRAM and lookups per cached item ──");
    println!(
        "  replicated tables : {entry_bytes_replicated:>3} B  {ARRAYS} lookups/packet  \
         (+{ARRAYS}x match entries)"
    );
    println!("  index list        : {entry_bytes_indexlist:>3} B  1 lookup/packet");
    println!("  netcache bitmap   : {entry_bytes_netcache:>3} B  1 lookup/packet");

    // Fragmentation: flexible vs contiguous allocation under churn.
    let mut flexible = SlotAllocator::new(ARRAYS, 512);
    let mut contiguous_free = vec![0u16; 512]; // occupancy mask per bin
    let mut flexible_fail = 0u32;
    let mut contiguous_fail = 0u32;
    let mut id = 0u64;
    let mut live: Vec<(u64, usize)> = Vec::new();
    let mut state = 0x9e3779b97f4a7c15u64;
    for round in 0..20_000 {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        if round % 3 == 2 && !live.is_empty() {
            let (victim, units) = live.remove((state % live.len() as u64) as usize);
            flexible.evict(&Key::from_u64(victim));
            // Contiguous model: free the first run of `units` used bits.
            for mask in contiguous_free.iter_mut() {
                let run =
                    (0..=(ARRAYS - units)).find(|&s| (s..s + units).all(|b| *mask & (1 << b) != 0));
                if let Some(s) = run {
                    for b in s..s + units {
                        *mask &= !(1 << b);
                    }
                    break;
                }
            }
        } else {
            let units = (state % ARRAYS as u64 + 1) as usize;
            if flexible.insert(Key::from_u64(id), units).is_some() {
                live.push((id, units));
            } else {
                flexible_fail += 1;
            }
            // Contiguous model: needs `units` *consecutive* free slots.
            let placed = contiguous_free.iter_mut().any(|mask| {
                let slot =
                    (0..=(ARRAYS - units)).find(|&s| (s..s + units).all(|b| *mask & (1 << b) == 0));
                match slot {
                    Some(s) => {
                        for b in s..s + units {
                            *mask |= 1 << b;
                        }
                        true
                    }
                    None => false,
                }
            });
            if !placed {
                contiguous_fail += 1;
            }
            id += 1;
        }
    }
    println!("── allocation ablation: failures over 20K churn ops (512 bins) ──");
    println!("  flexible bitmaps  : {flexible_fail:>5} failed inserts");
    println!("  contiguous slots  : {contiguous_fail:>5} failed inserts");
}
