//! The NetCache switch program: the modules of Fig. 8 mapped onto the
//! substrate.
//!
//! - [`lookup`] — the per-ingress-pipe cache lookup table;
//! - [`chain`] — the replication-chain steering table;
//! - [`routing`] — L3 routing plus the source-routed reply path;
//! - [`status`] — the per-key cache-status (valid bit + version) array;
//! - [`stats`] — the query-statistics engine (counters, sampler, Count-Min
//!   sketch, Bloom filter, heavy-hitter reports);
//! - [`values`] — the 8 value stages and the bitmap/index value codec.

pub mod chain;
pub mod lookup;
pub mod routing;
pub mod stats;
pub mod status;
pub mod values;
