//! The NetCache client library (§3 "Clients").
//!
//! "NetCache provides a client library that applications can use to access
//! the key-value store. The library provides an interface similar to
//! existing key-value stores such as Memcached and Redis — i.e., Get, Put,
//! and Delete. It translates API calls to NetCache query packets and also
//! generates replies for applications."
//!
//! The library is transport-agnostic: [`NetCacheClient`] builds query
//! packets (computing the home server from the hash partitioning, §4.1:
//! "based on the data partition, the client appropriately sets the Ethernet
//! and IP headers") and decodes replies into [`Response`]s. Blocking
//! convenience wrappers over concrete transports live in the `netcache`
//! crate.
//!
//! [`RateController`] implements the loss-adaptive open-loop rate control
//! the evaluation uses to estimate saturated throughput (§7.4).

pub mod appkey;
pub mod chunked;
pub mod rate;

pub use appkey::{AppRecord, AppResponse};
pub use rate::RateController;

use netcache_proto::{Key, Op, Packet, Value};
use netcache_store::Partitioner;

/// Client configuration: identity plus the rack's addressing scheme.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Client number (used in source MACs and IPs).
    pub client_id: u8,
    /// Client IP address.
    pub ip: u32,
    /// Number of storage partitions (servers) in the rack.
    pub partitions: u32,
    /// Seed of the rack's hash partitioner (must match the rack).
    pub partition_seed: u64,
    /// IP of partition 0; partition `i` has IP `server_ip_base + i`.
    pub server_ip_base: u32,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            client_id: 1,
            ip: 0x0a00_0001,
            partitions: 1,
            partition_seed: 0x7061_7274, // "part"
            server_ip_base: 0x0a00_0101,
        }
    }
}

/// A decoded reply, as surfaced to the application.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// The value, with a flag telling whether the switch cache served it
    /// (observable via the opcode; useful for experiments, invisible to
    /// normal applications).
    Value {
        /// The queried key.
        key: Key,
        /// The value.
        value: Value,
        /// Whether the switch cache served the read.
        from_cache: bool,
    },
    /// The key does not exist.
    NotFound {
        /// The queried key.
        key: Key,
    },
    /// A write was committed.
    PutAck {
        /// The written key.
        key: Key,
    },
    /// A delete was committed.
    DeleteAck {
        /// The deleted key.
        key: Key,
    },
}

impl Response {
    /// Decodes a reply packet, or `None` if the packet is not a reply the
    /// client understands.
    pub fn from_packet(pkt: &Packet) -> Option<Response> {
        let key = pkt.netcache.key;
        match pkt.netcache.op {
            Op::GetReplyHit => Some(Response::Value {
                key,
                value: pkt.netcache.value.clone()?,
                from_cache: true,
            }),
            Op::GetReplyMiss => match &pkt.netcache.value {
                Some(value) => Some(Response::Value {
                    key,
                    value: value.clone(),
                    from_cache: false,
                }),
                None => Some(Response::NotFound { key }),
            },
            Op::GetReplyNotFound => Some(Response::NotFound { key }),
            Op::PutReply => Some(Response::PutAck { key }),
            Op::DeleteReply => Some(Response::DeleteAck { key }),
            _ => None,
        }
    }

    /// The key this response refers to.
    pub fn key(&self) -> Key {
        match self {
            Response::Value { key, .. }
            | Response::NotFound { key }
            | Response::PutAck { key }
            | Response::DeleteAck { key } => *key,
        }
    }
}

/// The NetCache client: API-call → packet translation.
#[derive(Debug, Clone)]
pub struct NetCacheClient {
    config: ClientConfig,
    partitioner: Partitioner,
    next_seq: u32,
}

impl NetCacheClient {
    /// Creates a client.
    pub fn new(config: ClientConfig) -> Self {
        NetCacheClient {
            partitioner: Partitioner::new(config.partitions, config.partition_seed),
            config,
            next_seq: 1,
        }
    }

    /// Starts sequence numbering at `seq` (0 is promoted to 1 — the wire
    /// format reserves seq 0 for "untracked").
    ///
    /// Servers deduplicate retransmitted writes by `(source IP, seq)`, so
    /// two client instances that share an IP must not reuse each other's
    /// recent sequence numbers — the second instance's fresh writes would
    /// be mistaken for retransmissions of the first's. Hosts that recreate
    /// clients give each instance a disjoint epoch (cf. TCP initial
    /// sequence numbers).
    pub fn start_seq_at(&mut self, seq: u32) {
        self.next_seq = seq.max(1);
    }

    /// The partition that owns `key`.
    pub fn partition_of(&self, key: &Key) -> u32 {
        self.partitioner.partition_of(key)
    }

    /// The home server IP for `key`.
    pub fn server_ip_of(&self, key: &Key) -> u32 {
        self.config.server_ip_base + self.partition_of(key)
    }

    fn take_seq(&mut self) -> u32 {
        let seq = self.next_seq;
        // Skip 0: the switch status array reserves version 0.
        self.next_seq = self.next_seq.wrapping_add(1).max(1);
        seq
    }

    /// Builds a Get query packet for `key`.
    pub fn get(&mut self, key: Key) -> Packet {
        let dst = self.server_ip_of(&key);
        Packet::get_query(
            self.config.client_id,
            self.config.ip,
            dst,
            key,
            self.take_seq(),
        )
    }

    /// Builds a Put query packet.
    pub fn put(&mut self, key: Key, value: Value) -> Packet {
        let dst = self.server_ip_of(&key);
        Packet::put_query(
            self.config.client_id,
            self.config.ip,
            dst,
            key,
            self.take_seq(),
            value,
        )
    }

    /// Builds a Delete query packet.
    pub fn delete(&mut self, key: Key) -> Packet {
        let dst = self.server_ip_of(&key);
        Packet::delete_query(
            self.config.client_id,
            self.config.ip,
            dst,
            key,
            self.take_seq(),
        )
    }

    /// Decodes a reply (convenience re-export of [`Response::from_packet`]).
    pub fn decode(&self, pkt: &Packet) -> Option<Response> {
        Response::from_packet(pkt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn client(partitions: u32) -> NetCacheClient {
        NetCacheClient::new(ClientConfig {
            partitions,
            ..ClientConfig::default()
        })
    }

    #[test]
    fn get_targets_home_server() {
        let mut c = client(4);
        let key = Key::from_u64(17);
        let pkt = c.get(key);
        assert_eq!(pkt.netcache.op, Op::Get);
        assert_eq!(pkt.ipv4.dst, c.server_ip_of(&key));
        assert_eq!(pkt.ipv4.src, c.config.ip);
        let part = c.partition_of(&key);
        assert!(part < 4);
        assert_eq!(pkt.ipv4.dst, c.config.server_ip_base + part);
    }

    #[test]
    fn sequence_numbers_advance_and_skip_zero() {
        let mut c = client(1);
        let s1 = c.get(Key::from_u64(1)).netcache.seq;
        let s2 = c.get(Key::from_u64(1)).netcache.seq;
        assert_ne!(s1, s2);
        c.next_seq = u32::MAX;
        let s3 = c.get(Key::from_u64(1)).netcache.seq;
        let s4 = c.get(Key::from_u64(1)).netcache.seq;
        assert_eq!(s3, u32::MAX);
        assert_ne!(s4, 0, "seq 0 is reserved");
    }

    #[test]
    fn decode_hit_and_miss() {
        let mut c = client(1);
        let key = Key::from_u64(5);
        let query = c.get(key);
        let hit = query
            .clone()
            .into_reply(Op::GetReplyHit, Some(Value::filled(1, 16)));
        assert_eq!(
            c.decode(&hit),
            Some(Response::Value {
                key,
                value: Value::filled(1, 16),
                from_cache: true
            })
        );
        let miss = query
            .clone()
            .into_reply(Op::GetReplyMiss, Some(Value::filled(2, 16)));
        assert!(matches!(
            c.decode(&miss),
            Some(Response::Value {
                from_cache: false,
                ..
            })
        ));
        let nf = query.into_reply(Op::GetReplyNotFound, None);
        assert_eq!(c.decode(&nf), Some(Response::NotFound { key }));
    }

    #[test]
    fn decode_write_acks() {
        let mut c = client(1);
        let key = Key::from_u64(5);
        let put_ack = c
            .put(key, Value::filled(0, 8))
            .into_reply(Op::PutReply, None);
        assert_eq!(c.decode(&put_ack), Some(Response::PutAck { key }));
        let del_ack = c.delete(key).into_reply(Op::DeleteReply, None);
        assert_eq!(c.decode(&del_ack), Some(Response::DeleteAck { key }));
    }

    #[test]
    fn non_replies_decode_to_none() {
        let mut c = client(1);
        let query = c.get(Key::from_u64(1));
        assert_eq!(c.decode(&query), None);
    }

    #[test]
    fn writes_use_tcp_reads_use_udp() {
        let mut c = client(1);
        assert!(matches!(
            c.get(Key::from_u64(1)).l4,
            netcache_proto::L4Hdr::Udp(_)
        ));
        assert!(matches!(
            c.put(Key::from_u64(1), Value::filled(0, 8)).l4,
            netcache_proto::L4Hdr::Tcp(_)
        ));
        assert!(matches!(
            c.delete(Key::from_u64(1)).l4,
            netcache_proto::L4Hdr::Tcp(_)
        ));
    }
}
