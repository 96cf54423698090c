//! Discrete-event simulation of a NetCache rack, and the deployed
//! multi-rack fabric.
//!
//! The paper's system experiments (§7.3, §7.4) ran on a Tofino with two
//! servers standing in for 128 via *server rotation* (static workloads) and
//! *server emulation* with scaled-down per-queue rates (dynamic
//! workloads). This crate is the equivalent apparatus:
//!
//! - [`RackSim`] — a discrete-event simulator that drives the *real*
//!   components (switch program, server agents, controller) with explicit
//!   time: Poisson clients with the loss-adaptive rate control of §7.4,
//!   rate-limited servers with bounded queues, retransmission timers and
//!   periodic controller cycles. Absolute rates are scaled down exactly as
//!   the paper's emulation scaled them; reported *shapes* (ratios,
//!   crossovers, recovery times) are the reproduction targets.
//! - [`analytic`] — the closed-form single-rack saturation rate, which
//!   seeds a simulation's starting client rate and bounds a sweep's
//!   offered load.
//! - [`multirack`] — scale-out beyond one rack: [`MultiRack`], a
//!   *deployed* two-layer fabric in the DistCache direction, a spine
//!   cache layer built from the same switch program and controller
//!   fronting N in-process leaf racks, with independent per-layer hashing
//!   and power-of-two-choices read routing. Fig. 10(f)'s three schemes
//!   are its cache sizes.

pub mod analytic;
pub mod multirack;
pub mod rack_sim;

pub use analytic::AnalyticModel;
pub use multirack::{MultiRack, MultiRackClient, MultiRackConfig, MultiRackReport};
/// The discrete-event queue, shared with the in-process rack.
pub use netcache::fabric::EventQueue;
pub use rack_sim::{
    rack_config_for, LatencyStats, RackSim, ScriptOp, SecondStats, SimClient, SimConfig, SimReport,
};
