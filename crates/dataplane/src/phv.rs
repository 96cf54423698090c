//! The parsed header vector (PHV) and per-packet metadata.
//!
//! "When processing a packet, the stages share the header fields and
//! metadata of the packet, and can pass information from one stage to
//! another by modifying the shared data" (§4.4.1). [`Phv`] is that shared
//! state: the parsed packet plus the intermediate metadata the NetCache
//! program produces (cache-lookup result, routing decision, reply route).

use netcache_proto::Packet;

use crate::program::lookup::LookupEntry;

/// A switch port identifier.
pub type PortId = u16;

/// Per-packet metadata carried between pipeline stages.
///
/// Field sizes on a real ASIC are constrained (the paper's design keeps a
/// single index plus one bitmap precisely to minimize this metadata,
/// §4.4.2); the model carries only what a later stage reads.
#[derive(Debug, Clone, Default)]
pub struct Metadata {
    /// Result of the cache lookup table, if the key matched.
    pub cache: Option<LookupEntry>,
    /// Egress port chosen by ingress; the traffic manager steers the
    /// packet to this port's egress pipe.
    pub egress_port: Option<PortId>,
    /// Saved route back toward the client, for replies the egress turns
    /// around (cache hits, chain commits).
    pub reply_port: Option<PortId>,
    /// Whether the packet should be dropped at deparse.
    pub drop: bool,
}

/// The parsed packet plus shared metadata, as it flows through the pipes.
#[derive(Debug, Clone)]
pub struct Phv {
    /// The parsed packet headers (mutable: stages rewrite ops, insert
    /// values, swap addresses).
    pub pkt: Packet,
    /// Port the packet arrived on.
    pub ingress_port: PortId,
    /// Shared metadata.
    pub meta: Metadata,
    /// Packet epoch used by register arrays to assert single-access.
    pub epoch: u64,
}

impl Phv {
    /// Wraps a parsed packet arriving on `ingress_port`.
    pub fn new(pkt: Packet, ingress_port: PortId, epoch: u64) -> Self {
        Phv {
            pkt,
            ingress_port,
            meta: Metadata::default(),
            epoch,
        }
    }

    /// Whether the cache lookup matched (regardless of validity).
    pub fn cache_hit(&self) -> bool {
        self.meta.cache.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netcache_proto::Key;

    #[test]
    fn metadata_defaults_are_inert() {
        let pkt = Packet::get_query(1, 1, 2, Key::from_u64(1), 0);
        let phv = Phv::new(pkt, 3, 7);
        assert!(!phv.cache_hit());
        assert!(!phv.meta.drop);
        assert_eq!(phv.meta.egress_port, None);
        assert_eq!(phv.ingress_port, 3);
        assert_eq!(phv.epoch, 7);
    }
}
