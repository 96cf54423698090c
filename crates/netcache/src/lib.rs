//! # NetCache-RS
//!
//! A from-scratch reproduction of **NetCache** (SOSP 2017): a rack-scale
//! key-value store that uses a programmable ToR switch as an on-path
//! load-balancing cache.
//!
//! This crate is the top of the stack: it wires the switch data plane
//! (`netcache-dataplane`), the storage servers (`netcache-store` +
//! `netcache-server`), the controller (`netcache-controller`) and the
//! client library (`netcache-client`) into a runnable [`Rack`].
//!
//! All three deployments — the in-process [`Rack`], the loopback-UDP
//! [`udp::UdpRack`], and `netcache-sim`'s `RackSim` — are thin transport
//! drivers over the shared [`fabric`] layer, and expose the common
//! [`RackHandle`] read-side API.
//!
//! ## Quickstart
//!
//! ```
//! use netcache::{Rack, RackConfig, RackHandle};
//! use netcache_proto::{Key, Value};
//!
//! // A small rack: 4 storage servers behind one NetCache ToR switch.
//! let mut config = RackConfig::small(4);
//! config.controller.cache_capacity = 16;
//! let rack = Rack::new(config).unwrap();
//!
//! // Load a dataset and warm the cache with the hottest keys.
//! rack.load_dataset(1000, 64);
//! rack.populate_cache((0..16).map(Key::from_u64));
//!
//! // Reads on cached keys are served by the switch.
//! let mut client = rack.client(0);
//! let resp = client.get(Key::from_u64(3)).unwrap();
//! assert!(resp.served_by_cache());
//!
//! // Writes invalidate, commit at the server, and re-validate the cache.
//! client.put(Key::from_u64(3), Value::filled(0xaa, 64)).unwrap();
//! let resp = client.get(Key::from_u64(3)).unwrap();
//! assert_eq!(resp.value().unwrap(), &Value::filled(0xaa, 64));
//! ```

pub mod addressing;
pub mod config;
pub mod fabric;
pub mod fault;
pub mod hist;
pub mod json;
pub mod metrics;
pub mod rack;
pub mod runtime;
pub mod udp;

pub use addressing::Addressing;
pub use config::RackConfig;
pub use fabric::{
    AgentTiming, Client, ClientCounters, ClientResponse, FabricCore, Link, RackError, RackHandle,
    RetryOutcome, RetryPolicy, Synchronous,
};
pub use fault::{seed_from_env, FaultConfig, FaultInjector, FaultStats, NetworkModel};
pub use hist::{Histogram, ShardedHistogram};
pub use json::Json;
pub use metrics::{RackReport, ReplicationReport};
pub use rack::{Rack, RackClient};
pub use runtime::{RuntimeKind, TransportStats};
