//! The contract benchmark of the NetCache reproduction.
//!
//! Five rack workloads, eight bounded end-to-end metrics measured closed
//! loop with tracing off, and per-layer timings, counts and spans taken
//! from the outside, through the product crates' public functions. See
//! `README.md` in this directory for the command, the metrics and how
//! they interact.
//!
//! Only [`sut`] imports product crates; every other module sees `Key`,
//! `Value` and plain types.

pub mod alloc;
pub mod clock;
pub mod harness;
pub mod json;
pub mod report;
pub mod stats;
pub mod sut;
pub mod trace;
pub mod workload;
