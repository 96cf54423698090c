//! The routing module (§4.4.4).
//!
//! "All packets will then traverse the routing module. When handling a read
//! query for cached keys, the routing module performs the next-hop route
//! lookup by matching on the *source* address because the switch will
//! directly reply the query back to the client. The switch then saves the
//! routing information as metadata ... The routing module forwards all
//! other packets to an egress port by matching on the destination address."

use crate::phv::{Phv, PortId};
use crate::resources::Allocation;
use crate::table::LpmTable;

/// SRAM per route: prefix (4 B), prefix length (1 B), egress port (2 B).
const ROUTE_BYTES: usize = 7;

/// The L3 routing module: a standard LPM table on IPv4 addresses whose
/// action is an egress port, with room for a fixed number of routes.
#[derive(Debug, Clone)]
pub struct Router {
    routes: LpmTable<PortId>,
    capacity: usize,
}

impl Router {
    /// Creates an empty router with room for `capacity` routes.
    pub fn new(capacity: usize) -> Self {
        Router {
            routes: LpmTable::new(),
            capacity,
        }
    }

    /// Control-plane: installs (or replaces) `prefix/len → port`.
    ///
    /// # Panics
    ///
    /// Panics if `prefix/len` is new and the table already holds its
    /// capacity of routes.
    pub fn add_route(&mut self, prefix: u32, len: u8, port: PortId) {
        self.routes.insert(prefix, len, port);
        assert!(
            self.routes.len() <= self.capacity,
            "routing table full ({} routes)",
            self.capacity
        );
    }

    /// The table as a placement request.
    pub fn allocation(&self) -> Allocation {
        Allocation::new("l3_routing", self.capacity * ROUTE_BYTES, self.capacity)
    }

    /// Plain route lookup without PHV side effects, for pipeline stages
    /// that synthesize a packet mid-flight (the chain tail turning the
    /// final replica's write back into the client's reply).
    pub fn lookup(&self, ip: u32) -> Option<PortId> {
        self.routes.lookup(ip).copied()
    }

    /// Data-plane: routes the packet in `phv`, implementing the cached-read
    /// special case.
    ///
    /// - For a read query that hit the cache, the *destination* port was
    ///   already chosen by the lookup table (the pipe holding the value);
    ///   this module looks up the route back to the client (by source
    ///   address) and saves it as `reply_port` metadata for the mirror.
    /// - All other packets are forwarded by destination address.
    ///
    /// Packets with no matching route are dropped (the "default: drop" rule
    /// of Fig. 5(d)).
    pub fn route(&self, phv: &mut Phv) {
        let is_cached_read = phv.cache_hit() && phv.pkt.netcache.op == netcache_proto::Op::Get;
        if is_cached_read {
            match self.routes.lookup(phv.pkt.ipv4.src) {
                Some(&reply_port) => {
                    phv.meta.reply_port = Some(reply_port);
                    // Egress port toward the value's pipe came from lookup.
                    let entry = phv.meta.cache.expect("cache_hit checked");
                    phv.meta.egress_port = Some(entry.egress_port);
                }
                None => phv.meta.drop = true,
            }
        } else {
            match self.routes.lookup(phv.pkt.ipv4.dst) {
                Some(&port) => phv.meta.egress_port = Some(port),
                None => phv.meta.drop = true,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::lookup::LookupEntry;
    use netcache_proto::{Key, Packet};

    const CLIENT_IP: u32 = 0x0a00_0001;
    const SERVER_IP: u32 = 0x0a00_0101;
    const CLIENT_PORT: PortId = 60;
    const SERVER_PORT: PortId = 2;

    fn router() -> Router {
        let mut r = Router::new(4);
        r.add_route(CLIENT_IP, 32, CLIENT_PORT);
        r.add_route(SERVER_IP, 32, SERVER_PORT);
        r
    }

    fn get_phv() -> Phv {
        Phv::new(
            Packet::get_query(1, CLIENT_IP, SERVER_IP, Key::from_u64(1), 0),
            CLIENT_PORT,
            1,
        )
    }

    #[test]
    fn uncached_packets_route_by_destination() {
        let r = router();
        let mut phv = get_phv();
        r.route(&mut phv);
        assert_eq!(phv.meta.egress_port, Some(SERVER_PORT));
        assert_eq!(phv.meta.reply_port, None);
        assert!(!phv.meta.drop);
    }

    #[test]
    fn cached_reads_route_by_source_and_keep_lookup_port() {
        let r = router();
        let mut phv = get_phv();
        phv.meta.cache = Some(LookupEntry {
            bitmap: 1,
            value_index: 0,
            key_index: 0,
            egress_port: SERVER_PORT,
            value_len: 16,
            passes: 1,
        });
        r.route(&mut phv);
        assert_eq!(phv.meta.egress_port, Some(SERVER_PORT));
        assert_eq!(phv.meta.reply_port, Some(CLIENT_PORT));
    }

    #[test]
    fn cached_writes_still_route_by_destination() {
        let r = router();
        let mut phv = Phv::new(
            Packet::put_query(
                1,
                CLIENT_IP,
                SERVER_IP,
                Key::from_u64(1),
                0,
                netcache_proto::Value::filled(1, 16),
            ),
            CLIENT_PORT,
            1,
        );
        phv.meta.cache = Some(LookupEntry {
            bitmap: 1,
            value_index: 0,
            key_index: 0,
            egress_port: SERVER_PORT,
            value_len: 16,
            passes: 1,
        });
        r.route(&mut phv);
        assert_eq!(phv.meta.egress_port, Some(SERVER_PORT));
        assert_eq!(phv.meta.reply_port, None);
    }

    #[test]
    fn unroutable_packets_dropped() {
        let r = router();
        let mut phv = Phv::new(
            Packet::get_query(1, CLIENT_IP, 0x0b00_0001, Key::from_u64(1), 0),
            CLIENT_PORT,
            1,
        );
        r.route(&mut phv);
        assert!(phv.meta.drop);
    }

    #[test]
    #[should_panic(expected = "routing table full")]
    fn routes_beyond_capacity_rejected() {
        let mut r = router();
        r.add_route(CLIENT_IP, 32, 3); // replacing a route is free
        r.add_route(0x0a00_0002, 32, 4);
        r.add_route(0x0a00_0003, 32, 5);
        r.add_route(0x0a00_0004, 32, 6);
    }

    #[test]
    fn cached_read_with_unroutable_source_dropped() {
        let mut r = Router::new(4);
        r.add_route(SERVER_IP, 32, SERVER_PORT);
        let mut phv = get_phv();
        phv.meta.cache = Some(LookupEntry {
            bitmap: 1,
            value_index: 0,
            key_index: 0,
            egress_port: SERVER_PORT,
            value_len: 16,
            passes: 1,
        });
        r.route(&mut phv);
        assert!(phv.meta.drop);
    }
}
