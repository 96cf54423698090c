//! The NetCache application header: OP, SEQ, KEY, VALUE (§4.1, Fig. 2(b)).
//!
//! Wire layout (big-endian):
//!
//! ```text
//! +--------+----------+-----------+---------+------------------+
//! | OP (1) | SEQ (4)  | KEY (16)  | VLEN(2) | VALUE (0..=2048) |
//! +--------+----------+-----------+---------+------------------+
//! ```
//!
//! `VLEN` is the value length in bytes (two bytes big-endian: values are
//! truly variable-length on the wire, up to [`MAX_VALUE_LEN`] — a cached
//! value beyond one pipeline pass's 128 B is served by recirculation); Get
//! queries and Delete queries carry `VLEN = 0` and no VALUE bytes. The
//! switch *inserts* the VALUE field when serving a cache hit, exactly as
//! described in §4.2 — the reply packet is the query packet with the VALUE
//! appended and addresses swapped.
//!
//! Chain-replicated writes ([`Op::is_chain`]) carry one extra big-endian
//! field after VALUE:
//!
//! ```text
//! +-------------------+
//! | CHAIN_VERSION (4) |
//! +-------------------+
//! ```
//!
//! the head-assigned version every replica applies, so mid-chain and tail
//! nodes converge on exactly the value the head committed. Non-chain
//! opcodes never encode it, keeping the legacy wire format byte-identical.

use bytes::{Buf, BufMut};

use crate::{Key, Op, ParseError, Value, KEY_LEN, MAX_VALUE_LEN};

/// Minimum encoded size: OP + SEQ + KEY + VLEN.
pub const NETCACHE_HDR_MIN: usize = 1 + 4 + KEY_LEN + 2;

/// The NetCache application-layer header.
///
/// `seq` is a sequence number for reliable transmission of UDP Get queries,
/// and a value version number for Put/Delete queries and cache updates
/// (§4.1).
///
/// # Examples
///
/// ```
/// use netcache_proto::{NetCacheHdr, Op, Key};
///
/// let hdr = NetCacheHdr::get(Key::from_u64(9), 1);
/// let bytes = hdr.encode_to_vec();
/// let (decoded, rest) = NetCacheHdr::decode(&bytes).unwrap();
/// assert_eq!(decoded, hdr);
/// assert!(rest.is_empty());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetCacheHdr {
    /// Operation code.
    pub op: Op,
    /// Sequence / version number.
    pub seq: u32,
    /// The 16-byte key.
    pub key: Key,
    /// The value, if this packet carries one.
    pub value: Option<Value>,
    /// Head-assigned version of a chain-replicated write. Only on the wire
    /// for chain opcodes ([`Op::is_chain`]); 0 means "not yet stamped by
    /// the chain head". Always 0 for non-chain opcodes.
    pub chain_version: u32,
}

impl NetCacheHdr {
    /// Builds a Get query header.
    pub fn get(key: Key, seq: u32) -> Self {
        NetCacheHdr {
            op: Op::Get,
            seq,
            key,
            value: None,
            chain_version: 0,
        }
    }

    /// Builds a Put query header carrying `value`. An empty value is
    /// normalized to `None` — the wire format (`VLEN = 0`) cannot tell
    /// them apart, so in-memory headers never hold `Some(empty)` either
    /// and every header round-trips through encoding unchanged.
    pub fn put(key: Key, seq: u32, value: Value) -> Self {
        NetCacheHdr {
            op: Op::Put,
            seq,
            key,
            value: Self::normalize(value),
            chain_version: 0,
        }
    }

    /// Builds a Delete query header.
    pub fn delete(key: Key, seq: u32) -> Self {
        NetCacheHdr {
            op: Op::Delete,
            seq,
            key,
            value: None,
            chain_version: 0,
        }
    }

    /// Builds a server→switch data-plane cache update. An empty value is
    /// normalized to `None`, as in [`NetCacheHdr::put`].
    pub fn cache_update(key: Key, version: u32, value: Value) -> Self {
        NetCacheHdr {
            op: Op::CacheUpdate,
            seq: version,
            key,
            value: Self::normalize(value),
            chain_version: 0,
        }
    }

    /// Maps an empty value to `None` (the wire representation of both).
    pub fn normalize(value: Value) -> Option<Value> {
        if value.is_empty() {
            None
        } else {
            Some(value)
        }
    }

    /// Encoded size in bytes.
    pub fn encoded_len(&self) -> usize {
        NETCACHE_HDR_MIN
            + self.value.as_ref().map_or(0, Value::len)
            + if self.op.is_chain() { 4 } else { 0 }
    }

    /// Encodes the header into `buf`.
    pub fn encode<B: BufMut>(&self, buf: &mut B) {
        buf.put_u8(self.op.as_u8());
        buf.put_u32(self.seq);
        buf.put_slice(self.key.as_bytes());
        match &self.value {
            Some(v) => {
                debug_assert!(v.len() <= MAX_VALUE_LEN);
                buf.put_u16(v.len() as u16);
                buf.put_slice(v.as_bytes());
            }
            None => buf.put_u16(0),
        }
        if self.op.is_chain() {
            buf.put_u32(self.chain_version);
        }
    }

    /// Encodes the header into a fresh vector.
    pub fn encode_to_vec(&self) -> Vec<u8> {
        let mut v = Vec::with_capacity(self.encoded_len());
        self.encode(&mut v);
        v
    }

    /// Decodes a header from the front of `bytes`, returning the header and
    /// the remaining (unconsumed) bytes.
    ///
    /// A zero `VLEN` decodes as `value: None`: the wire format cannot
    /// distinguish an absent value from an empty one, and NetCache treats
    /// both as "no value" (Get/Delete semantics).
    pub fn decode(mut bytes: &[u8]) -> Result<(Self, &[u8]), ParseError> {
        if bytes.len() < NETCACHE_HDR_MIN {
            return Err(ParseError::Truncated {
                layer: "netcache",
                needed: NETCACHE_HDR_MIN - bytes.len(),
            });
        }
        let op = Op::from_u8(bytes.get_u8())?;
        let seq = bytes.get_u32();
        let mut key_bytes = [0u8; KEY_LEN];
        bytes.copy_to_slice(&mut key_bytes);
        let vlen = bytes.get_u16() as usize;
        if vlen > MAX_VALUE_LEN {
            return Err(ParseError::ValueTooLong(vlen));
        }
        if bytes.len() < vlen {
            return Err(ParseError::Truncated {
                layer: "netcache-value",
                needed: vlen - bytes.len(),
            });
        }
        let value = if vlen == 0 {
            None
        } else {
            Some(Value::from_slice(&bytes[..vlen]).expect("vlen bounded above"))
        };
        bytes = &bytes[vlen..];
        let chain_version = if op.is_chain() {
            if bytes.len() < 4 {
                return Err(ParseError::Truncated {
                    layer: "netcache-chain",
                    needed: 4 - bytes.len(),
                });
            }
            bytes.get_u32()
        } else {
            0
        };
        Ok((
            NetCacheHdr {
                op,
                seq,
                key: Key::from_bytes(key_bytes),
                value,
                chain_version,
            },
            bytes,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_values() -> Vec<Option<Value>> {
        vec![
            None,
            Some(Value::filled(0xab, 1)),
            Some(Value::filled(0xcd, 16)),
            Some(Value::for_item(99, 128)),
            // Multi-pass sizes: beyond one pipeline pass, beyond a u8 VLEN.
            Some(Value::for_item(7, 129)),
            Some(Value::for_item(3, 300)),
            Some(Value::for_item(1, MAX_VALUE_LEN)),
        ]
    }

    #[test]
    fn encode_decode_round_trip() {
        for value in sample_values() {
            let hdr = NetCacheHdr {
                op: if value.is_some() { Op::Put } else { Op::Get },
                seq: 0xdead_beef,
                key: Key::from_u64(77),
                value,
                chain_version: 0,
            };
            let bytes = hdr.encode_to_vec();
            assert_eq!(bytes.len(), hdr.encoded_len());
            let (decoded, rest) = NetCacheHdr::decode(&bytes).unwrap();
            assert_eq!(decoded, hdr);
            assert!(rest.is_empty());
        }
    }

    #[test]
    fn decode_leaves_trailing_bytes() {
        let hdr = NetCacheHdr::get(Key::from_u64(1), 2);
        let mut bytes = hdr.encode_to_vec();
        bytes.extend_from_slice(&[9, 9, 9]);
        let (_, rest) = NetCacheHdr::decode(&bytes).unwrap();
        assert_eq!(rest, &[9, 9, 9]);
    }

    #[test]
    fn truncated_header_rejected() {
        let hdr = NetCacheHdr::get(Key::from_u64(1), 2);
        let bytes = hdr.encode_to_vec();
        for cut in 0..bytes.len() {
            let err = NetCacheHdr::decode(&bytes[..cut]).unwrap_err();
            assert!(matches!(err, ParseError::Truncated { .. }), "cut={cut}");
        }
    }

    #[test]
    fn truncated_value_rejected() {
        let hdr = NetCacheHdr::put(Key::from_u64(1), 2, Value::filled(7, 32));
        let bytes = hdr.encode_to_vec();
        let err = NetCacheHdr::decode(&bytes[..bytes.len() - 1]).unwrap_err();
        assert!(matches!(err, ParseError::Truncated { .. }));
    }

    #[test]
    fn oversized_vlen_rejected() {
        let mut bytes = NetCacheHdr::get(Key::from_u64(1), 0).encode_to_vec();
        let vlen_index = 1 + 4 + KEY_LEN;
        let vlen = ((MAX_VALUE_LEN + 1) as u16).to_be_bytes();
        bytes[vlen_index..vlen_index + 2].copy_from_slice(&vlen);
        bytes.extend(std::iter::repeat_n(0u8, MAX_VALUE_LEN + 1));
        assert_eq!(
            NetCacheHdr::decode(&bytes).unwrap_err(),
            ParseError::ValueTooLong(MAX_VALUE_LEN + 1)
        );
    }

    #[test]
    fn constructors_normalize_empty_values() {
        // `Some(empty)` and `None` share one wire encoding (VLEN = 0), so
        // the constructors must never produce `Some(empty)` — otherwise a
        // header would not round-trip through encode/decode.
        let empty = Value::new(vec![]).unwrap();
        let put = NetCacheHdr::put(Key::from_u64(1), 3, empty.clone());
        assert_eq!(put.value, None);
        let upd = NetCacheHdr::cache_update(Key::from_u64(1), 3, empty);
        assert_eq!(upd.value, None);
        let bytes = put.encode_to_vec();
        let (decoded, _) = NetCacheHdr::decode(&bytes).unwrap();
        assert_eq!(decoded, put);
    }

    #[test]
    fn empty_value_decodes_as_none() {
        let hdr = NetCacheHdr {
            op: Op::Put,
            seq: 0,
            key: Key::from_u64(5),
            value: Some(Value::new(vec![]).unwrap()),
            chain_version: 0,
        };
        let (decoded, _) = NetCacheHdr::decode(&hdr.encode_to_vec()).unwrap();
        assert_eq!(decoded.value, None);
    }

    #[test]
    fn chain_version_round_trips() {
        for (op, value) in [
            (Op::ChainPut, Some(Value::filled(0x5a, 24))),
            (Op::ChainPut, None),
            (Op::ChainDelete, None),
        ] {
            let hdr = NetCacheHdr {
                op,
                seq: 41,
                key: Key::from_u64(9),
                value,
                chain_version: 0xfeed_0042,
            };
            let bytes = hdr.encode_to_vec();
            assert_eq!(bytes.len(), hdr.encoded_len());
            let (decoded, rest) = NetCacheHdr::decode(&bytes).unwrap();
            assert_eq!(decoded, hdr);
            assert!(rest.is_empty());
        }
    }

    #[test]
    fn chain_version_absent_for_non_chain_ops() {
        // The legacy wire format is byte-identical: a nonzero in-memory
        // chain_version on a non-chain op is simply not encoded.
        let mut hdr = NetCacheHdr::put(Key::from_u64(3), 7, Value::filled(1, 8));
        let baseline = hdr.encode_to_vec();
        hdr.chain_version = 0xffff_ffff;
        assert_eq!(hdr.encode_to_vec(), baseline);
        let (decoded, _) = NetCacheHdr::decode(&baseline).unwrap();
        assert_eq!(decoded.chain_version, 0);
    }

    #[test]
    fn truncated_chain_version_rejected() {
        let hdr = NetCacheHdr {
            op: Op::ChainPut,
            seq: 1,
            key: Key::from_u64(2),
            value: Some(Value::filled(3, 10)),
            chain_version: 77,
        };
        let bytes = hdr.encode_to_vec();
        for cut in 0..bytes.len() {
            let err = NetCacheHdr::decode(&bytes[..cut]).unwrap_err();
            assert!(matches!(err, ParseError::Truncated { .. }), "cut={cut}");
        }
    }
}
