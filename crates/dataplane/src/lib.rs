//! A software model of a programmable switch data plane, and the NetCache
//! switch program that runs on it.
//!
//! # The substrate
//!
//! Modern programmable switch ASICs (Barefoot Tofino, Cavium XPliant)
//! expose a multi-pipe, multi-stage reconfigurable match-action pipeline
//! (§4.4.1, Fig. 5). This crate models the pieces NetCache programs:
//!
//! - [`register::RegisterArray`] — per-stage stateful memory with a fixed
//!   slot count and slot width, supporting read/write/add at line rate;
//! - [`table::ExactMatchTable`] and [`table::LpmTable`] — match-action
//!   tables with bounded entry counts;
//! - [`phv::Phv`] — the parsed-header-vector + metadata that stages share;
//! - [`resources`] — an ASIC resource profile (stages, SRAM per stage,
//!   match entries) with accounting, so a program either *fits* or fails to
//!   "compile", like on real hardware.
//!
//! # The program
//!
//! [`NetCacheSwitch`] wires the NetCache pipeline of Fig. 8 onto that
//! substrate: per-ingress-pipe cache lookup tables, a replication-chain
//! steering table, an L3 routing module, per-egress-pipe cache status /
//! query statistics / 8 value stages, and reply mirroring. Its
//! control-plane methods are the software analogue of the Thrift APIs the
//! P4 compiler generates (§6), and its resource report is built from the
//! tables and register arrays it allocates.

pub mod config;
pub mod phv;
pub mod program;
pub mod register;
pub mod resources;
pub mod switch;
pub mod table;

pub use config::SwitchConfig;
pub use phv::{Phv, PortId};
pub use program::chain::ChainHop;
pub use program::lookup::LookupEntry;
pub use program::stats::HotReport;
pub use switch::{NetCacheSwitch, SwitchStats};
