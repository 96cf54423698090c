//! The in-memory key-value store substrate.
//!
//! The paper's evaluation uses "a simple (not optimized) in-memory
//! key-value store with TommyDS" (§6) behind the server agent. This crate
//! is the equivalent substrate, built from scratch:
//!
//! - [`ShardedStore`] — per-core sharding ("Our server agent supports
//!   per-core sharding with Receive Side Scaling", §6). Each shard owns
//!   one open-addressed entries table (key, version and a value handle
//!   per entry, sized to a 3/4 load) and a value arena of fixed 64 KiB
//!   pages carved into 16 B-granular size classes with a free list per
//!   class, after Memcached's slab pages (SNIPPETS.md, Snippet 1);
//! - [`Partitioner`] — the rack-level hash partitioning of the keyspace
//!   across storage servers ("the key-value items are hash-partitioned to
//!   the storage servers", §3).

mod arena;
pub mod partition;
pub mod shard;

pub use partition::Partitioner;
pub use shard::{ShardedStore, StoredItem};
