//! Large values via chunking (§2: "For large items that do not fit in one
//! packet, one can always divide an item into smaller chunks and retrieve
//! them with multiple packets. Note that multiple packets would always be
//! necessary when a large item is accessed from a storage server.")
//!
//! Layout: a logical item with base key `K` is stored as:
//!
//! - chunk 0, under `chunk_key(K, 0)`: `[total_len: u32 BE][first bytes]`;
//! - chunk `i > 0`, under `chunk_key(K, i)`: raw continuation bytes.
//!
//! Each chunk is an independent NetCache item, so hot large items have
//! their chunks cached (and heavy-hitter detected) independently — the
//! switch needs no new mechanism.
//!
//! Multi-chunk writes are not atomic across chunks: writers store data
//! chunks before the manifest chunk so a reader never sees a manifest
//! whose continuation chunks are missing, but a concurrent reader can
//! observe a mix of old and new *contents* mid-overwrite. The paper's
//! chunking remark concerns sizes, not multi-key transactions; atomicity
//! across keys is out of scope there and here.

use netcache_proto::{Key, Value, MAX_VALUE_LEN};

/// Bytes of payload carried by chunk 0 (after the 4-byte length header).
pub const FIRST_CHUNK_PAYLOAD: usize = MAX_VALUE_LEN - 4;

/// Maximum number of chunks per logical item (bounds fan-out per read).
pub const MAX_CHUNKS: u32 = 256;

/// Maximum logical payload size.
pub const MAX_LARGE_LEN: usize = FIRST_CHUNK_PAYLOAD + (MAX_CHUNKS as usize - 1) * MAX_VALUE_LEN;

/// Derives the fixed key for chunk `index` of the logical item `base`.
///
/// Chunk 0's key *is* the base key, so small items and chunked items share
/// a namespace and a plain `get` of a chunked item finds its manifest.
pub fn chunk_key(base: Key, index: u32) -> Key {
    if index == 0 {
        return base;
    }
    let mut bytes = Vec::with_capacity(16 + 5);
    bytes.extend_from_slice(base.as_bytes());
    bytes.push(0xC4); // "chunk" domain separator
    bytes.extend_from_slice(&index.to_be_bytes());
    Key::from_app_key(&bytes)
}

/// Number of chunks a payload of `len` bytes needs.
pub fn chunk_count(len: usize) -> u32 {
    if len <= FIRST_CHUNK_PAYLOAD {
        1
    } else {
        1 + ((len - FIRST_CHUNK_PAYLOAD).div_ceil(MAX_VALUE_LEN)) as u32
    }
}

/// Splits `payload` into `(chunk_index, value)` pairs; `None` if it
/// exceeds [`MAX_LARGE_LEN`].
///
/// The pairs are returned continuation-chunks-first so a writer that
/// stores them in order never publishes a manifest before its data.
pub fn split(payload: &[u8]) -> Option<Vec<(u32, Value)>> {
    if payload.len() > MAX_LARGE_LEN {
        return None;
    }
    let n = chunk_count(payload.len());
    let mut out = Vec::with_capacity(n as usize);
    // Continuation chunks, highest index first.
    for i in (1..n).rev() {
        let start = FIRST_CHUNK_PAYLOAD + (i as usize - 1) * MAX_VALUE_LEN;
        let end = (start + MAX_VALUE_LEN).min(payload.len());
        out.push((
            i,
            Value::from_slice(&payload[start..end]).expect("chunk within bound"),
        ));
    }
    // Manifest chunk last.
    let mut first = Vec::with_capacity(4 + payload.len().min(FIRST_CHUNK_PAYLOAD));
    first.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    first.extend_from_slice(&payload[..payload.len().min(FIRST_CHUNK_PAYLOAD)]);
    out.push((
        0,
        Value::new(first).expect("4 + FIRST_CHUNK_PAYLOAD == MAX_VALUE_LEN"),
    ));
    Some(out)
}

/// Decodes chunk 0, returning the total length and its payload prefix.
pub fn decode_manifest(value: &Value) -> Option<(usize, &[u8])> {
    let bytes = value.as_bytes();
    if bytes.len() < 4 {
        return None;
    }
    let total = u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]) as usize;
    if total > MAX_LARGE_LEN || bytes.len() - 4 != total.min(FIRST_CHUNK_PAYLOAD) {
        return None;
    }
    Some((total, &bytes[4..]))
}

/// Reassembles a payload from chunk 0 plus continuation chunks (indexed
/// from 1, in order). Returns `None` on any length inconsistency.
pub fn reassemble(manifest: &Value, continuations: &[Value]) -> Option<Vec<u8>> {
    let (total, first) = decode_manifest(manifest)?;
    let expected = chunk_count(total);
    if continuations.len() as u32 != expected - 1 {
        return None;
    }
    let mut out = Vec::with_capacity(total);
    out.extend_from_slice(first);
    for (i, chunk) in continuations.iter().enumerate() {
        let remaining = total - out.len();
        let expected_len = remaining.min(MAX_VALUE_LEN);
        if chunk.len() != expected_len {
            return None;
        }
        let _ = i;
        out.extend_from_slice(chunk.as_bytes());
    }
    (out.len() == total).then_some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 31 % 251) as u8).collect()
    }

    #[test]
    fn chunk_counts() {
        assert_eq!(chunk_count(0), 1);
        assert_eq!(chunk_count(FIRST_CHUNK_PAYLOAD), 1);
        assert_eq!(chunk_count(FIRST_CHUNK_PAYLOAD + 1), 2);
        assert_eq!(chunk_count(FIRST_CHUNK_PAYLOAD + MAX_VALUE_LEN), 2);
        assert_eq!(chunk_count(FIRST_CHUNK_PAYLOAD + MAX_VALUE_LEN + 1), 3);
    }

    #[test]
    fn split_reassemble_round_trip() {
        for len in [0usize, 1, 123, 124, 125, 128, 500, 1024, 4096] {
            let p = payload(len);
            let chunks = split(&p).expect("within bound");
            assert_eq!(chunks.len() as u32, chunk_count(len));
            // Manifest is last (write ordering), index 0.
            assert_eq!(chunks.last().expect("nonempty").0, 0);
            let manifest = &chunks.last().expect("nonempty").1;
            let mut conts: Vec<(u32, Value)> = chunks[..chunks.len() - 1].to_vec();
            conts.sort_by_key(|(i, _)| *i);
            let conts: Vec<Value> = conts.into_iter().map(|(_, v)| v).collect();
            let back = reassemble(manifest, &conts).expect("reassembles");
            assert_eq!(back, p, "len {len}");
        }
    }

    #[test]
    fn oversized_rejected() {
        assert!(split(&payload(MAX_LARGE_LEN + 1)).is_none());
        assert!(split(&payload(MAX_LARGE_LEN)).is_some());
    }

    #[test]
    fn chunk_keys_are_distinct_and_stable() {
        let base = Key::from_u64(7);
        assert_eq!(chunk_key(base, 0), base);
        let mut seen = std::collections::HashSet::new();
        for i in 0..100 {
            assert!(seen.insert(chunk_key(base, i)), "collision at chunk {i}");
            assert_eq!(chunk_key(base, i), chunk_key(base, i));
        }
        // Different bases must not collide on continuation keys.
        assert_ne!(
            chunk_key(Key::from_u64(7), 1),
            chunk_key(Key::from_u64(8), 1)
        );
    }

    #[test]
    fn reassemble_rejects_inconsistencies() {
        // Past the first-chunk boundary, so continuations exist to lose.
        let p = payload(FIRST_CHUNK_PAYLOAD + 500);
        let chunks = split(&p).expect("fits");
        assert!(chunks.len() > 1, "payload must need continuations");
        let manifest = chunks.last().expect("nonempty").1.clone();
        // Missing continuation.
        assert!(reassemble(&manifest, &[]).is_none());
        // Wrong-length continuation.
        let bad = vec![Value::filled(0, 1); chunks.len() - 1];
        assert!(reassemble(&manifest, &bad).is_none());
        // Corrupt manifest.
        assert!(decode_manifest(&Value::filled(0xff, 3)).is_none());
    }
}
