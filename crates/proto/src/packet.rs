//! The full NetCache packet: parsed headers plus helpers.
//!
//! A [`Packet`] is the unit the switch data plane, the server agent and the
//! client library exchange. It can be deparsed to raw bytes (the form that
//! crosses a real UDP socket in the cluster example) and re-parsed; the
//! in-process transports pass the parsed form around to avoid redundant
//! work, mirroring how a switch ASIC carries a parsed header vector (PHV)
//! between stages.

use crate::{
    l2l3::{IP_PROTO_TCP, IP_PROTO_UDP},
    EthernetHdr, Ipv4Hdr, Key, L4Hdr, MacAddr, NetCacheHdr, Op, ParseError, TcpHdr, UdpHdr, Value,
    ETHERTYPE_IPV4,
};

/// The reserved L4 port that identifies NetCache traffic (§4.1).
pub const NETCACHE_PORT: u16 = 50000;

/// A fully parsed NetCache packet.
///
/// # Examples
///
/// ```
/// use netcache_proto::{Packet, Key, Op};
///
/// let pkt = Packet::get_query(1, 0x0a00_0001, 0x0a00_0101, Key::from_u64(3), 7);
/// let bytes = pkt.deparse();
/// let parsed = Packet::parse(&bytes).unwrap();
/// assert_eq!(parsed.netcache.op, Op::Get);
/// assert_eq!(parsed.netcache.key, Key::from_u64(3));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet {
    /// Ethernet header.
    pub eth: EthernetHdr,
    /// IPv4 header.
    pub ipv4: Ipv4Hdr,
    /// TCP or UDP header.
    pub l4: L4Hdr,
    /// The NetCache application header.
    pub netcache: NetCacheHdr,
}

impl Packet {
    /// Builds a packet from components, fixing up length fields.
    pub fn new(eth: EthernetHdr, src_ip: u32, dst_ip: u32, l4: L4Hdr, nc: NetCacheHdr) -> Self {
        let payload_len = nc.encoded_len();
        let l4 = match l4 {
            L4Hdr::Udp(u) => L4Hdr::Udp(UdpHdr::new(u.src_port, u.dst_port, payload_len)),
            L4Hdr::Tcp(t) => L4Hdr::Tcp(t),
        };
        let ipv4 = Ipv4Hdr::new(
            src_ip,
            dst_ip,
            l4.ip_proto(),
            l4.encoded_len() + payload_len,
        );
        Packet {
            eth,
            ipv4,
            l4,
            netcache: nc,
        }
    }

    /// Builds a UDP Get query from client `client_id`.
    ///
    /// The destination MAC is the ToR switch (which routes by IP); the
    /// destination IP is the storage server owning the key's partition.
    pub fn get_query(client_id: u8, src_ip: u32, dst_ip: u32, key: Key, seq: u32) -> Self {
        Packet::new(
            EthernetHdr::ipv4(MacAddr::host(client_id), MacAddr::host(0)),
            src_ip,
            dst_ip,
            L4Hdr::Udp(UdpHdr::new(NETCACHE_PORT, NETCACHE_PORT, 0)),
            NetCacheHdr::get(key, seq),
        )
    }

    /// Builds a TCP Put query.
    pub fn put_query(
        client_id: u8,
        src_ip: u32,
        dst_ip: u32,
        key: Key,
        seq: u32,
        value: Value,
    ) -> Self {
        Packet::new(
            EthernetHdr::ipv4(MacAddr::host(client_id), MacAddr::host(0)),
            src_ip,
            dst_ip,
            L4Hdr::Tcp(TcpHdr::new(NETCACHE_PORT, NETCACHE_PORT, seq)),
            NetCacheHdr::put(key, seq, value),
        )
    }

    /// Builds a TCP Delete query.
    pub fn delete_query(client_id: u8, src_ip: u32, dst_ip: u32, key: Key, seq: u32) -> Self {
        Packet::new(
            EthernetHdr::ipv4(MacAddr::host(client_id), MacAddr::host(0)),
            src_ip,
            dst_ip,
            L4Hdr::Tcp(TcpHdr::new(NETCACHE_PORT, NETCACHE_PORT, seq)),
            NetCacheHdr::delete(key, seq),
        )
    }

    /// Builds a server→switch data-plane cache update (UDP).
    pub fn cache_update(src_ip: u32, switch_ip: u32, key: Key, version: u32, value: Value) -> Self {
        Packet::new(
            EthernetHdr::ipv4(MacAddr::host(200), MacAddr::host(0)),
            src_ip,
            switch_ip,
            L4Hdr::Udp(UdpHdr::new(NETCACHE_PORT, NETCACHE_PORT, 0)),
            NetCacheHdr::cache_update(key, version, value),
        )
    }

    /// Whether this packet is NetCache traffic (reserved L4 destination or
    /// source port). Replies keep the reserved port as the *source*, which
    /// is why both directions are checked — exactly the match a NetCache
    /// switch installs.
    pub fn is_netcache(&self) -> bool {
        self.l4.dst_port() == NETCACHE_PORT || self.l4.src_port() == NETCACHE_PORT
    }

    /// Turns this query into its reply in place: op becomes `reply_op`,
    /// value replaced by `value` (an empty value normalizes to `None`, as
    /// on the wire), and L2-L4 source/destination swapped (§4.2 "the
    /// switch updates the packet header by swapping the source and
    /// destination addresses and ports"). The switch and the server agent
    /// rewrite the packet they hold instead of moving it through
    /// [`Packet::into_reply`].
    #[inline]
    pub fn make_reply(&mut self, reply_op: Op, value: Option<Value>) {
        self.netcache.op = reply_op;
        self.netcache.value = value.filter(|v| !v.is_empty());
        self.netcache.chain_version = 0;
        self.eth.swap();
        self.ipv4.swap();
        self.l4.swap();
        self.refresh_lengths();
    }

    /// By-value form of [`Packet::make_reply`].
    pub fn into_reply(mut self, reply_op: Op, value: Option<Value>) -> Packet {
        self.make_reply(reply_op, value);
        self
    }

    /// Recomputes IP/UDP length fields after the VALUE field changed size.
    pub fn refresh_lengths(&mut self) {
        let payload_len = self.netcache.encoded_len();
        if let L4Hdr::Udp(u) = &mut self.l4 {
            u.len = (UdpHdr::LEN + payload_len) as u16;
        }
        self.ipv4.total_len = (Ipv4Hdr::LEN + self.l4.encoded_len() + payload_len) as u16;
    }

    /// Total wire size in bytes.
    pub fn wire_len(&self) -> usize {
        EthernetHdr::LEN + Ipv4Hdr::LEN + self.l4.encoded_len() + self.netcache.encoded_len()
    }

    /// Serializes the packet to wire bytes.
    pub fn deparse(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(self.wire_len());
        self.deparse_into(&mut buf);
        buf
    }

    /// Serializes the packet into `buf`, clearing it first. Reusing one
    /// buffer across packets keeps the transport hot path free of
    /// per-packet heap allocation (the buffer's capacity converges to the
    /// largest frame seen).
    pub fn deparse_into(&self, buf: &mut Vec<u8>) {
        buf.clear();
        buf.reserve(self.wire_len());
        self.eth.encode(buf);
        self.ipv4.encode(buf);
        match &self.l4 {
            L4Hdr::Udp(u) => u.encode(buf),
            L4Hdr::Tcp(t) => t.encode(buf),
        }
        self.netcache.encode(buf);
    }

    /// Parses a packet from wire bytes.
    ///
    /// Fails if the packet is not IPv4 TCP/UDP on the NetCache port; the
    /// switch forwards such packets untouched instead of parsing them, so
    /// callers treat the error as "not ours".
    pub fn parse(bytes: &[u8]) -> Result<Packet, ParseError> {
        let (eth, rest) = EthernetHdr::decode(bytes)?;
        if eth.ethertype != ETHERTYPE_IPV4 {
            return Err(ParseError::UnsupportedEtherType(eth.ethertype));
        }
        let (ipv4, rest) = Ipv4Hdr::decode(rest)?;
        let (l4, rest) = match ipv4.proto {
            IP_PROTO_UDP => {
                let (u, r) = UdpHdr::decode(rest)?;
                (L4Hdr::Udp(u), r)
            }
            IP_PROTO_TCP => {
                let (t, r) = TcpHdr::decode(rest)?;
                (L4Hdr::Tcp(t), r)
            }
            other => return Err(ParseError::UnsupportedIpProto(other)),
        };
        let (netcache, _trailer) = NetCacheHdr::decode(rest)?;
        Ok(Packet {
            eth,
            ipv4,
            l4,
            netcache,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CLIENT_IP: u32 = 0x0a00_0001;
    const SERVER_IP: u32 = 0x0a00_0101;

    #[test]
    fn get_query_parse_round_trip() {
        let pkt = Packet::get_query(3, CLIENT_IP, SERVER_IP, Key::from_u64(11), 42);
        let parsed = Packet::parse(&pkt.deparse()).unwrap();
        assert_eq!(parsed, pkt);
        assert!(parsed.is_netcache());
        assert!(matches!(parsed.l4, L4Hdr::Udp(_)));
    }

    #[test]
    fn put_query_uses_tcp() {
        let pkt = Packet::put_query(
            1,
            CLIENT_IP,
            SERVER_IP,
            Key::from_u64(5),
            9,
            Value::filled(0xaa, 64),
        );
        let parsed = Packet::parse(&pkt.deparse()).unwrap();
        assert!(matches!(parsed.l4, L4Hdr::Tcp(_)));
        assert_eq!(parsed.netcache.value.as_ref().unwrap().len(), 64);
    }

    #[test]
    fn reply_swaps_all_addresses() {
        let pkt = Packet::get_query(3, CLIENT_IP, SERVER_IP, Key::from_u64(11), 42);
        let reply = pkt
            .clone()
            .into_reply(Op::GetReplyHit, Some(Value::filled(1, 128)));
        assert_eq!(reply.ipv4.src, SERVER_IP);
        assert_eq!(reply.ipv4.dst, CLIENT_IP);
        assert_eq!(reply.eth.src, pkt.eth.dst);
        assert_eq!(reply.eth.dst, pkt.eth.src);
        assert_eq!(reply.l4.src_port(), pkt.l4.dst_port());
        // Length fields updated for the inserted VALUE.
        let bytes = reply.deparse();
        let reparsed = Packet::parse(&bytes).unwrap();
        assert_eq!(reparsed.netcache.value.unwrap().len(), 128);
        assert_eq!(
            reparsed.ipv4.total_len as usize,
            bytes.len() - EthernetHdr::LEN
        );
    }

    #[test]
    fn reply_keeps_netcache_classification() {
        let pkt = Packet::get_query(3, CLIENT_IP, SERVER_IP, Key::from_u64(11), 42);
        let reply = pkt.into_reply(Op::GetReplyHit, None);
        assert!(reply.is_netcache());
    }

    #[test]
    fn non_ipv4_rejected() {
        let pkt = Packet::get_query(3, CLIENT_IP, SERVER_IP, Key::from_u64(11), 42);
        let mut bytes = pkt.deparse();
        bytes[12] = 0x86; // EtherType → not IPv4
        bytes[13] = 0xdd;
        assert!(matches!(
            Packet::parse(&bytes),
            Err(ParseError::UnsupportedEtherType(0x86dd))
        ));
    }

    #[test]
    fn wire_len_matches_deparse() {
        for vlen in [0usize, 1, 16, 100, 128, 129, 300, 2048] {
            let pkt = Packet::put_query(
                1,
                CLIENT_IP,
                SERVER_IP,
                Key::from_u64(5),
                0,
                Value::filled(7, vlen),
            );
            assert_eq!(pkt.wire_len(), pkt.deparse().len(), "vlen={vlen}");
        }
    }

    #[test]
    fn packet_layout_stays_small() {
        assert!(core::mem::size_of::<Packet>() <= 256);
    }

    #[test]
    fn cache_update_round_trip() {
        let pkt = Packet::cache_update(
            SERVER_IP,
            0x0a00_00fe,
            Key::from_u64(8),
            3,
            Value::filled(2, 32),
        );
        let parsed = Packet::parse(&pkt.deparse()).unwrap();
        assert_eq!(parsed.netcache.op, Op::CacheUpdate);
        assert_eq!(parsed.netcache.seq, 3);
    }
}
