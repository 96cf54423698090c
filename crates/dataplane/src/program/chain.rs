//! Chain steering (the NetChain direction, DESIGN.md §13) as an ingress
//! match-action table.
//!
//! The table matches a packet's destination — a replicated partition's
//! static home IP, the address clients send to — and its action data is
//! the partition's replica chain, head first. The stage follows the cache
//! lookup (a cached read is never steered) and precedes routing:
//!
//! - a client `Put`/`Delete` enters the chain at the head;
//! - a `ChainPut`/`ChainDelete` re-emitted by a replica hops on to its
//!   successor — the sender's position is its ingress port, since every
//!   transport re-injects a server's output at that server's own port —
//!   and the tail's emission commits;
//! - an uncached `Get` is served by the tail, the only replica guaranteed
//!   to hold every acknowledged write.

use netcache_proto::Op;

use crate::config::SwitchConfig;
use crate::phv::{Phv, PortId};
use crate::resources::Allocation;
use crate::table::ExactMatchTable;

/// SRAM per hop of action data: replica IP (4 B) + port (2 B).
const HOP_BYTES: usize = 6;

/// One replica hop of a partition's replication chain: the server's IP
/// and the switch port it attaches on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChainHop {
    /// The replica server's IP.
    pub ip: u32,
    /// The switch port the replica attaches on.
    pub port: PortId,
}

/// Where the chain stage sends a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Steer {
    /// A client write enters the chain at the head on this port.
    Head(PortId),
    /// A replica's chain write hops on to its successor on this port.
    Next(PortId),
    /// The tail replica emitted the chain write: it commits.
    Commit,
    /// An uncached read goes to the tail on this port.
    Tail(PortId),
    /// A chain write for a chain that was torn down while it was in
    /// flight, or re-emitted by a replica spliced out of its chain: the
    /// client's retransmission is steered against the current chain.
    Drop,
}

/// The chain table: a home IP's replica hops, head first. It has one
/// entry per switch port (a home server attaches on a port) with room for
/// a hop per port.
#[derive(Debug, Clone)]
pub struct ChainTable {
    table: ExactMatchTable<u32, Vec<ChainHop>>,
}

impl ChainTable {
    /// An empty table sized for `config`'s ports.
    pub fn new(config: &SwitchConfig) -> Self {
        ChainTable {
            table: ExactMatchTable::new(config.ports),
        }
    }

    /// Control-plane: installs (or replaces) the chain of `home_ip`.
    ///
    /// # Panics
    ///
    /// Panics if `hops` is empty or has more hops than the switch has
    /// ports, or if the table is full.
    pub fn insert(&mut self, home_ip: u32, hops: Vec<ChainHop>) {
        assert!(!hops.is_empty(), "a chain needs at least one hop");
        assert!(
            hops.len() <= self.table.capacity(),
            "a chain has at most one hop per port"
        );
        self.table
            .insert(home_ip, hops)
            .expect("one chain per home server, and every server has a port");
    }

    /// Control-plane: removes the chain of `home_ip`, if any.
    pub fn remove(&mut self, home_ip: u32) {
        let _ = self.table.remove(&home_ip);
    }

    /// Control-plane read of `home_ip`'s chain.
    #[cfg(test)]
    pub(crate) fn hops(&self, home_ip: u32) -> Option<&[ChainHop]> {
        self.table.lookup(&home_ip).map(Vec::as_slice)
    }

    /// The table as a placement request: per entry, the 4-byte home IP, a
    /// 1-byte hop count and a hop list as long as the port count.
    pub fn allocation(&self) -> Allocation {
        let entries = self.table.capacity();
        let sram = entries * (4 + 1 + entries * HOP_BYTES);
        Allocation::new("chain_steering", sram, entries)
    }

    /// Data-plane: the chain stage for the NetCache packet in `phv`, or
    /// `None` when it is not chain traffic and routing decides. An empty
    /// table (no replicated partition) is not searched.
    #[inline]
    pub fn steer(&self, phv: &Phv) -> Option<Steer> {
        if self.table.is_empty() {
            return None;
        }
        let hops = || self.table.lookup(&phv.pkt.ipv4.dst);
        match phv.pkt.netcache.op {
            Op::Put | Op::Delete => hops().map(|h| Steer::Head(h[0].port)),
            Op::ChainPut | Op::ChainDelete => {
                let Some(h) = hops() else {
                    return Some(Steer::Drop);
                };
                let Some(pos) = h.iter().position(|hop| hop.port == phv.ingress_port) else {
                    return Some(Steer::Drop);
                };
                Some(
                    h.get(pos + 1)
                        .map_or(Steer::Commit, |next| Steer::Next(next.port)),
                )
            }
            Op::Get if phv.meta.cache.is_none() => hops().map(|h| Steer::Tail(h[h.len() - 1].port)),
            _ => None,
        }
    }
}
