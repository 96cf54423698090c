//! The transport-agnostic fabric layer.
//!
//! Three deployments run the same NetCache components over different
//! "networks": the in-process [`crate::Rack`] (synchronous forwarding
//! loop, virtual clock), the loopback-UDP [`crate::udp::UdpRack`]
//! (sockets and threads, wall clock), and the discrete-event
//! `netcache_sim::RackSim`. This module owns everything that is the same
//! across them, so each deployment is only a *driver* for packet movement
//! and time:
//!
//! - [`FabricCore`] — rack assembly from a [`crate::RackConfig`]: the
//!   compiled switch with routes, server agents, controller, fault model,
//!   dataset loading, and the control-plane glue (controller cycles,
//!   cache population, reorganization, reboot) over the one shared
//!   [`netcache_controller::ServerBackend`] implementation.
//! - [`Client`] — the client library: query building, the retry/backoff
//!   state machine with sequence matching and duplicate suppression,
//!   large values and application keys, generic over [`Link`].
//! - [`Link`] — what a transport implements for its clients: inject a
//!   frame, let transport time pass while collecting replies, and name
//!   the counters and latency histogram to account against.
//!   [`Synchronous`] marks links whose transmit completes the exchange;
//!   their clients also offer single-attempt requests.
//! - [`EventQueue`] — the time-ordered queue the virtual-time drivers
//!   schedule on.
//! - [`RackHandle`] — the common read-side API (stats, latency
//!   distributions, dataset and cache setup) that tests, benches and
//!   [`crate::RackReport`] program against, whichever transport runs
//!   underneath.
//!
//! # Adding a fourth transport
//!
//! 1. Embed a [`FabricCore`] (behind an `Arc` if node threads need it)
//!    and implement packet movement: deliver client frames to the switch
//!    via [`FabricCore::with_switch`] or a read-locked
//!    [`netcache_dataplane::NetCacheSwitch::process`], route switch
//!    outputs by [`crate::Addressing::attachment`], feed servers with
//!    [`netcache_server::ServerAgent::handle_packet`], and drive their
//!    retransmission timers ([`netcache_server::ServerAgent::tick`]) from
//!    your notion of time. Route the packets returned by
//!    [`FabricCore::run_controller_cycle`] and [`FabricCore::populate`]
//!    back into your network.
//! 2. Implement [`Link`] for a client's attachment (transmit + bounded
//!    wait, accounting against [`FabricCore::counters`] and
//!    [`FabricCore::op_latency_recorder`]) and hand out
//!    [`Client`]s over it, built with [`FabricCore::make_client`]. Mark
//!    the link [`Synchronous`] if a transmit completes the exchange.
//! 3. Implement [`RackHandle`] (two required methods) and everything that
//!    reports, benches, and differential tests do works unchanged.

pub mod client;
pub mod core;
pub mod error;
pub mod queue;

pub use self::client::{
    Client, ClientCounters, ClientResponse, Link, RetryOutcome, RetryPolicy, Synchronous,
};
pub use self::core::{AgentTiming, FabricCore};
pub use self::error::RackError;
pub use self::queue::EventQueue;

use std::sync::Arc;

use netcache_controller::{Controller, ControllerStats};
use netcache_dataplane::{NetCacheSwitch, SwitchStats};
use netcache_proto::Key;
use netcache_server::{ServerAgent, ServerStats};

use crate::addressing::Addressing;
use crate::config::RackConfig;
use crate::fault::NetworkModel;
use crate::hist::Histogram;

/// The deployment-agnostic rack API: everything that reads or sets up a
/// rack without moving packets. Implemented by `Rack`, `UdpRack`, and
/// `RackSim`; tests, benches and [`crate::RackReport`] program against
/// this instead of a concrete transport.
pub trait RackHandle {
    /// The shared fabric core this deployment drives.
    fn fabric(&self) -> &FabricCore;

    /// Pre-populates the switch cache with `keys` (up to the controller's
    /// capacity); the transport decides how packets released by the
    /// insertions re-enter its network. Returns the number inserted.
    ///
    /// Concrete deployments also provide an inherent `populate_cache`
    /// generic over `IntoIterator<Item = Key>`, which wins method
    /// resolution; this concrete signature exists for generic code.
    fn populate_cache(&self, keys: Vec<Key>) -> usize;

    /// The rack configuration.
    fn config(&self) -> &RackConfig {
        self.fabric().config()
    }

    /// The rack addressing plan.
    fn addressing(&self) -> &Addressing {
        self.fabric().addressing()
    }

    /// The network fault model.
    fn faults(&self) -> &NetworkModel {
        self.fabric().faults()
    }

    /// Rack-wide client retry/stale/abandoned counters.
    fn client_counters(&self) -> &ClientCounters {
        self.fabric().counters()
    }

    /// Switch data-plane counters.
    fn switch_stats(&self) -> SwitchStats {
        self.fabric().switch_stats()
    }

    /// Server agent counters.
    fn server_stats(&self, i: u32) -> ServerStats {
        self.fabric().server_stats(i)
    }

    /// Controller counters.
    fn controller_stats(&self) -> ControllerStats {
        self.fabric().controller_stats()
    }

    /// Number of keys currently in the switch cache.
    fn cached_keys(&self) -> usize {
        self.fabric().cached_keys()
    }

    /// Whether `key` is currently cached (controller's view).
    fn is_cached(&self, key: &Key) -> bool {
        self.fabric().is_cached(key)
    }

    /// Loads `num_keys` items of `value_len` bytes directly into the
    /// stores (dataset setup, bypassing the protocol).
    fn load_dataset(&self, num_keys: u64, value_len: usize) {
        self.fabric().load_dataset(num_keys, value_len)
    }

    /// Snapshot of the end-to-end per-operation client latency
    /// distribution (wall clock, ns).
    fn op_latency(&self) -> Histogram {
        self.fabric().op_latency()
    }

    /// Snapshot of the switch per-packet service-time distribution.
    fn switch_service(&self) -> Histogram {
        self.fabric().switch_service()
    }

    /// Snapshot of the server per-packet service-time distribution.
    fn server_service(&self) -> Histogram {
        self.fabric().server_service()
    }

    /// Socket-transport syscall/datagram counters (zero on deployments
    /// that move packets without sockets).
    fn transport_stats(&self) -> crate::runtime::TransportStats {
        self.fabric().transport_stats()
    }

    /// Receive batch-occupancy distribution of the socket transport
    /// (empty on non-socket deployments).
    fn batch_occupancy(&self) -> Histogram {
        self.fabric().batch_occupancy()
    }

    /// Direct access to a server agent (tests, simulator).
    fn server(&self, i: u32) -> &Arc<ServerAgent> {
        self.fabric().server(i)
    }

    /// Exclusive (write-locked) access to the switch — the serial wrapper
    /// used by tests, the single-threaded simulator, and the resource
    /// report. Excludes all concurrent forwarding.
    fn with_switch<T>(&self, f: impl FnOnce(&mut NetCacheSwitch) -> T) -> T {
        self.fabric().with_switch(f)
    }

    /// Locked access to the controller (tests, simulator).
    fn with_controller<T>(&self, f: impl FnOnce(&mut Controller) -> T) -> T {
        self.fabric().with_controller(f)
    }

    /// Runs the controller's memory reorganization over all pipes
    /// (Algorithm 2's "periodic memory reorganization"); returns keys
    /// moved.
    fn reorganize_cache(&self) -> usize {
        self.fabric().reorganize_cache()
    }

    /// Reboots the switch (cache and statistics lost, routes survive) and
    /// resets the controller's view to match — the failure-recovery story
    /// of §3.
    fn reboot_switch(&self) {
        self.fabric().reboot_switch()
    }

    /// Kills server `i`: it drops every packet until restarted. With
    /// `replication_factor > 1` the controller's next cycle splices it out
    /// of its chains and the rack keeps serving its partitions.
    fn kill_server(&self, i: u32) {
        self.fabric().kill_server(i)
    }

    /// Restarts server `i` with a wiped store; the controller's next
    /// repair pass re-syncs it from the chain heads and re-joins it as a
    /// tail.
    fn restart_server(&self, i: u32) {
        self.fabric().restart_server(i)
    }
}
