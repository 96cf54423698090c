//! Robustness: the parser must never panic, whatever bytes arrive — a
//! switch faces arbitrary traffic on its ports — and every rejection is a
//! *typed* [`ParseError`], so transports can distinguish "not ours" from
//! "corrupt".

use netcache_proto::{
    EthernetHdr, Ipv4Hdr, Key, L4Hdr, MacAddr, NetCacheHdr, Op, Packet, ParseError, TcpHdr, UdpHdr,
    Value, MAX_VALUE_LEN, NETCACHE_PORT,
};
use proptest::prelude::*;

/// Every opcode of the protocol, in wire order.
const ALL_OPS: [Op; 14] = [
    Op::Get,
    Op::GetReplyHit,
    Op::GetReplyMiss,
    Op::GetReplyNotFound,
    Op::Put,
    Op::PutCached,
    Op::PutReply,
    Op::ChainPut,
    Op::Delete,
    Op::DeleteCached,
    Op::DeleteReply,
    Op::ChainDelete,
    Op::CacheUpdate,
    Op::CacheUpdateAck,
];

/// Builds a well-formed packet carrying `op` over UDP or TCP.
fn packet_for(op: Op, seq: u32, key: u64, len: usize, fill: u8, udp: bool) -> Packet {
    let l4 = if udp {
        L4Hdr::Udp(UdpHdr::new(NETCACHE_PORT, NETCACHE_PORT, 0))
    } else {
        L4Hdr::Tcp(TcpHdr::new(NETCACHE_PORT, NETCACHE_PORT, seq))
    };
    let value = if len == 0 {
        None
    } else {
        Some(Value::filled(fill, len))
    };
    Packet::new(
        EthernetHdr::ipv4(MacAddr::host(1), MacAddr::host(0)),
        0x0a00_0001,
        0x0a00_0101,
        l4,
        NetCacheHdr {
            op,
            seq,
            key: Key::from_u64(key),
            value,
            chain_version: if op.is_chain() { seq ^ 0x55aa } else { 0 },
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512 })]

    /// Arbitrary bytes never panic the full-packet parser.
    #[test]
    fn packet_parse_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = Packet::parse(&bytes);
    }

    /// Arbitrary bytes never panic the NetCache header decoder.
    #[test]
    fn header_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..192)) {
        let _ = NetCacheHdr::decode(&bytes);
    }

    /// Every opcode round-trips through deparse/parse over both L4
    /// carriers, with and without a VALUE.
    #[test]
    fn every_op_round_trips(
        op_i in 0usize..14,
        seq in any::<u32>(),
        key in any::<u64>(),
        len in 0usize..=MAX_VALUE_LEN,
        fill in any::<u8>(),
        udp in any::<bool>(),
    ) {
        let pkt = packet_for(ALL_OPS[op_i], seq, key, len, fill, udp);
        let parsed = Packet::parse(&pkt.deparse()).expect("well-formed packet parses");
        prop_assert_eq!(parsed, pkt);
    }

    /// Truncating a valid packet at any point (in any layer: Ethernet,
    /// IPv4, L4, NetCache header, VALUE) yields a typed `Truncated` error —
    /// not a panic and not a bogus success.
    #[test]
    fn truncation_is_detected(cut in 0usize..128, udp in any::<bool>()) {
        let pkt = packet_for(Op::Put, 3, 7, 32, 0xee, udp);
        let bytes = pkt.deparse();
        let cut = cut.min(bytes.len().saturating_sub(1));
        match Packet::parse(&bytes[..cut]) {
            Err(ParseError::Truncated { needed, .. }) => prop_assert!(needed > 0),
            other => prop_assert!(false, "cut={} gave {:?}", cut, other),
        }
    }

    /// Flipping any single byte is either detected (parse error), or
    /// yields a *different* packet, or hit a don't-care field (checksum
    /// slack, padding) — but never panics and never corrupts key/value
    /// silently while claiming the same identity.
    #[test]
    fn bitflips_never_panic(pos in 0usize..80, bit in 0u8..8) {
        let pkt = packet_for(Op::Put, 3, 7, 16, 0xee, false);
        let mut bytes = pkt.deparse();
        let pos = pos.min(bytes.len() - 1);
        bytes[pos] ^= 1 << bit;
        let _ = Packet::parse(&bytes);
    }
}

fn hash_of(v: &Option<Value>) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    v.hash(&mut h);
    h.finish()
}

/// The VALUE field changes representation between 128 and 129 bytes
/// (inline vs spilled). That must not be observable: at every boundary
/// length a value round-trips for every opcode and carrier, compares and
/// hashes equal to one built another way, and a frame cut inside the VALUE
/// is still a typed truncation.
#[test]
fn inline_boundary_is_not_observable() {
    for len in [0usize, 1, 127, 128, 129, 130, MAX_VALUE_LEN] {
        for op in ALL_OPS {
            for udp in [true, false] {
                let pkt = packet_for(op, 9, 4, len, 0x5c, udp);
                let bytes = pkt.deparse();
                let parsed = Packet::parse(&bytes).expect("well-formed packet parses");
                assert_eq!(parsed, pkt, "{op:?} len={len}");
                let rebuilt = Value::new(vec![0x5c; len]).filter(|v| !v.is_empty());
                assert_eq!(parsed.netcache.value, rebuilt, "{op:?} len={len}");
                assert_eq!(hash_of(&parsed.netcache.value), hash_of(&rebuilt));
                let tail = if op.is_chain() { 4 } else { 0 };
                for cut in [1, 2, 127].into_iter().filter(|&cut| cut <= len) {
                    assert!(
                        matches!(
                            Packet::parse(&bytes[..bytes.len() - tail - cut]),
                            Err(ParseError::Truncated { .. })
                        ),
                        "{op:?} len={len} cut={cut}"
                    );
                }
            }
        }
    }
}

// Byte offsets inside a deparsed UDP NetCache frame.
const ETHERTYPE_OFF: usize = 12;
const IP_VERSION_IHL_OFF: usize = 14;
const OP_OFF: usize = EthernetHdr::LEN + Ipv4Hdr::LEN + UdpHdr::LEN;
const VLEN_OFF: usize = OP_OFF + 1 + 4 + 16;

#[test]
fn unsupported_ethertype_is_typed() {
    let mut bytes = packet_for(Op::Get, 1, 2, 0, 0, true).deparse();
    bytes[ETHERTYPE_OFF] = 0x86;
    bytes[ETHERTYPE_OFF + 1] = 0xdd; // IPv6
    assert_eq!(
        Packet::parse(&bytes).unwrap_err(),
        ParseError::UnsupportedEtherType(0x86dd)
    );
}

#[test]
fn bad_ip_header_len_is_typed() {
    let mut bytes = packet_for(Op::Get, 1, 2, 0, 0, true).deparse();
    bytes[IP_VERSION_IHL_OFF] = 0x46; // IHL = 6: options are not supported
    assert_eq!(
        Packet::parse(&bytes).unwrap_err(),
        ParseError::BadIpHeaderLen(0x46)
    );
}

#[test]
fn unsupported_ip_proto_is_typed() {
    // Hand-assemble an ICMP frame (proto 1) with a correct IP checksum —
    // corrupting the proto byte of a finished frame would trip the
    // checksum first.
    let eth = EthernetHdr::ipv4(MacAddr::host(1), MacAddr::host(0));
    let ipv4 = Ipv4Hdr::new(0x0a00_0001, 0x0a00_0101, 1, 8);
    let mut bytes = Vec::new();
    eth.encode(&mut bytes);
    ipv4.encode(&mut bytes);
    bytes.extend_from_slice(&[0u8; 8]);
    assert_eq!(
        Packet::parse(&bytes).unwrap_err(),
        ParseError::UnsupportedIpProto(1)
    );
}

#[test]
fn unknown_op_is_typed() {
    let mut bytes = packet_for(Op::Get, 1, 2, 0, 0, true).deparse();
    bytes[OP_OFF] = 0xff;
    assert_eq!(
        Packet::parse(&bytes).unwrap_err(),
        ParseError::UnknownOp(0xff)
    );
}

#[test]
fn oversized_vlen_is_typed() {
    let mut bytes = packet_for(Op::Get, 1, 2, 0, 0, true).deparse();
    // VLEN is two bytes big-endian; write a value beyond the wire bound.
    let vlen = ((MAX_VALUE_LEN + 72) as u16).to_be_bytes();
    bytes[VLEN_OFF] = vlen[0];
    bytes[VLEN_OFF + 1] = vlen[1];
    bytes.extend(std::iter::repeat_n(0u8, MAX_VALUE_LEN + 72));
    assert_eq!(
        Packet::parse(&bytes).unwrap_err(),
        ParseError::ValueTooLong(MAX_VALUE_LEN + 72)
    );
}

#[test]
fn corrupted_ip_checksum_is_typed() {
    let mut bytes = packet_for(Op::Get, 1, 2, 0, 0, true).deparse();
    bytes[IP_VERSION_IHL_OFF + 12] ^= 0x01; // source IP, covered by checksum
    assert!(matches!(
        Packet::parse(&bytes).unwrap_err(),
        ParseError::LengthMismatch { .. }
    ));
}
