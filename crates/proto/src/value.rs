//! The variable-length value type.
//!
//! Values are stored in the switch at a granularity of 16 bytes — the
//! output width of one register array stage (§4.4.2, §6). One traversal of
//! the egress pipeline touches each of the 8 value stages at most once, so
//! a single pass serves up to [`PASS_VALUE_LEN`] = 128 bytes (the paper's
//! prototype cap). Larger values are served by *recirculating* the packet
//! through the pipeline (OrbitCache direction): each extra pass reads
//! another 8 units, up to [`MAX_RECIRC_PASSES`] passes and therefore
//! [`MAX_VALUE_LEN`] bytes on the wire. The controller's bin-packing
//! allocator (Algorithm 2) works in these 16-byte units.

use core::fmt;

/// Granularity of value storage: the per-stage register-array output width.
pub const VALUE_UNIT: usize = 16;

/// Number of value stages one pipeline pass traverses.
pub const VALUE_STAGES: usize = 8;

/// Value bytes servable in a single pipeline pass (the paper's 128 B cap).
pub const PASS_VALUE_LEN: usize = VALUE_STAGES * VALUE_UNIT;

/// Upper bound on pipeline passes (1 initial + recirculations) a cached
/// entry may span. Bounds the wire format; individual switch configs may
/// budget fewer passes.
pub const MAX_RECIRC_PASSES: usize = 16;

/// Maximum value length in bytes (8 stages × 16 B × 16 passes = 2 KB).
pub const MAX_VALUE_LEN: usize = PASS_VALUE_LEN * MAX_RECIRC_PASSES;

/// A variable-length value of up to [`MAX_VALUE_LEN`] bytes.
///
/// Values are carried in the packet VALUE field and stored in switch
/// register arrays in 16-byte units. Construction enforces the length bound,
/// so every `Value` in the system is representable in the data plane.
///
/// Like the PHV it models, a value of at most one pipeline pass
/// ([`PASS_VALUE_LEN`] bytes) lives inline — building, cloning and parsing
/// it never touch the allocator. Anything longer takes the recirculation
/// path on the switch and one boxed buffer here. A given length has exactly
/// one representation and comparisons see [`Value::as_bytes`] only, so the
/// split is not observable through the API.
///
/// # Examples
///
/// ```
/// use netcache_proto::{Value, VALUE_UNIT};
///
/// let v = Value::new(b"hello".to_vec()).unwrap();
/// assert_eq!(v.len(), 5);
/// assert_eq!(v.units(), 1); // rounds up to one 16-byte unit
/// ```
#[derive(Clone)]
pub struct Value(Repr);

#[derive(Clone)]
enum Repr {
    /// `len <= PASS_VALUE_LEN`; bytes past `len` are unused.
    Inline { len: u8, buf: [u8; PASS_VALUE_LEN] },
    /// `len > PASS_VALUE_LEN`.
    Spill(Box<[u8]>),
}

impl Value {
    /// Creates a value, returning `None` if `bytes` exceeds [`MAX_VALUE_LEN`].
    pub fn new(bytes: Vec<u8>) -> Option<Self> {
        if (PASS_VALUE_LEN + 1..=MAX_VALUE_LEN).contains(&bytes.len()) {
            Some(Value(Repr::Spill(bytes.into_boxed_slice())))
        } else {
            Value::from_slice(&bytes)
        }
    }

    /// Copies `bytes` into a value, returning `None` if they exceed
    /// [`MAX_VALUE_LEN`]. Allocates only above [`PASS_VALUE_LEN`].
    #[inline]
    pub fn from_slice(bytes: &[u8]) -> Option<Self> {
        if bytes.len() > PASS_VALUE_LEN {
            return (bytes.len() <= MAX_VALUE_LEN).then(|| Value(Repr::Spill(bytes.into())));
        }
        let mut v = Value::filled(0, bytes.len());
        v.as_bytes_mut().copy_from_slice(bytes);
        Some(v)
    }

    /// Creates a value filled with `byte`, of length `len`.
    ///
    /// # Panics
    ///
    /// Panics if `len > MAX_VALUE_LEN`; intended for tests and workload
    /// generators with static sizes.
    #[inline]
    pub fn filled(byte: u8, len: usize) -> Self {
        assert!(len <= MAX_VALUE_LEN, "value length {len} exceeds maximum");
        if len <= PASS_VALUE_LEN {
            let mut buf = [0u8; PASS_VALUE_LEN];
            buf[..len].fill(byte);
            Value(Repr::Inline {
                len: len as u8,
                buf,
            })
        } else {
            Value(Repr::Spill(vec![byte; len].into_boxed_slice()))
        }
    }

    /// A deterministic value derived from a key id, for workload generators.
    ///
    /// The first 8 bytes encode `id` big-endian so integrity can be checked
    /// end-to-end; the rest is a repeating pattern.
    pub fn for_item(id: u64, len: usize) -> Self {
        let mut v = Value::filled(0, len);
        fill_item(id, v.as_bytes_mut());
        v
    }

    /// Length in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.as_bytes().len()
    }

    /// Whether the value is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of 16-byte register-array units needed to store this value,
    /// rounded up. An empty value still occupies one unit (it must exist in
    /// at least one array so reads can reassemble it).
    pub fn units(&self) -> usize {
        self.len().div_ceil(VALUE_UNIT).max(1)
    }

    /// Number of pipeline passes (1 initial traversal + recirculations)
    /// needed to serve this value from the switch: each pass reads at most
    /// [`VALUE_STAGES`] units.
    pub fn passes(&self) -> usize {
        self.units().div_ceil(VALUE_STAGES)
    }

    /// Raw bytes.
    #[inline]
    pub fn as_bytes(&self) -> &[u8] {
        match &self.0 {
            Repr::Inline { len, buf } => &buf[..usize::from(*len)],
            Repr::Spill(bytes) => bytes,
        }
    }

    /// Raw bytes, writable in place (the length is fixed): the value stages
    /// append their 16-byte units straight into the packet's VALUE field.
    #[inline]
    pub fn as_bytes_mut(&mut self) -> &mut [u8] {
        match &mut self.0 {
            Repr::Inline { len, buf } => &mut buf[..usize::from(*len)],
            Repr::Spill(bytes) => bytes,
        }
    }
}

/// The deterministic byte pattern behind [`Value::for_item`], at any
/// length: the first 8 bytes encode `id` big-endian, the rest is an
/// id-keyed repeating pattern. Unlike `for_item` this is not capped at
/// [`MAX_VALUE_LEN`] — dataset generators use it to produce logical
/// payloads that span multiple chunked items.
pub fn item_bytes(id: u64, len: usize) -> Vec<u8> {
    let mut v = vec![0u8; len];
    fill_item(id, &mut v);
    v
}

fn fill_item(id: u64, out: &mut [u8]) {
    let be = id.to_be_bytes();
    for (i, slot) in out.iter_mut().enumerate() {
        *slot = if i < 8 { be[i] } else { (i as u8) ^ be[i % 8] };
    }
}

impl Default for Value {
    /// The empty value.
    fn default() -> Self {
        Value::filled(0, 0)
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl Eq for Value {}

impl core::hash::Hash for Value {
    fn hash<H: core::hash::Hasher>(&self, state: &mut H) {
        self.as_bytes().hash(state);
    }
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let bytes = self.as_bytes();
        write!(f, "Value[{}](", bytes.len())?;
        for b in bytes.iter().take(8) {
            write!(f, "{b:02x}")?;
        }
        if bytes.len() > 8 {
            write!(f, "…")?;
        }
        write!(f, ")")
    }
}

impl TryFrom<Vec<u8>> for Value {
    type Error = crate::ParseError;

    fn try_from(bytes: Vec<u8>) -> Result<Self, Self::Error> {
        let len = bytes.len();
        Value::new(bytes).ok_or(crate::ParseError::ValueTooLong(len))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_enforces_bound() {
        assert!(Value::new(vec![0; MAX_VALUE_LEN]).is_some());
        assert!(Value::new(vec![0; MAX_VALUE_LEN + 1]).is_none());
    }

    #[test]
    fn units_round_up() {
        assert_eq!(Value::filled(1, 0).units(), 1);
        assert_eq!(Value::filled(1, 1).units(), 1);
        assert_eq!(Value::filled(1, 16).units(), 1);
        assert_eq!(Value::filled(1, 17).units(), 2);
        assert_eq!(Value::filled(1, 128).units(), 8);
        assert_eq!(Value::filled(1, 2048).units(), 128);
    }

    #[test]
    fn passes_round_up_at_the_stage_budget() {
        assert_eq!(Value::filled(1, 0).passes(), 1);
        assert_eq!(Value::filled(1, 128).passes(), 1);
        assert_eq!(Value::filled(1, 129).passes(), 2);
        assert_eq!(Value::filled(1, 256).passes(), 2);
        assert_eq!(Value::filled(1, 257).passes(), 3);
        assert_eq!(Value::filled(1, MAX_VALUE_LEN).passes(), MAX_RECIRC_PASSES);
    }

    #[test]
    fn one_representation_per_length() {
        // Every constructor lands on the same representation for a given
        // length, so values that crossed different paths compare equal
        // (and hash equal: `Hash` is over the same bytes); the inline/spill
        // split sits exactly at one pipeline pass.
        for len in [0usize, 1, 127, 128, 129, MAX_VALUE_LEN] {
            let bytes = item_bytes(9, len);
            let made = [
                Value::new(bytes.clone()).unwrap(),
                Value::from_slice(&bytes).unwrap(),
                Value::for_item(9, len),
                Value::try_from(bytes.clone()).unwrap(),
            ];
            for v in &made {
                assert_eq!(v.as_bytes(), &bytes[..], "len={len}");
                assert_eq!(v, &made[0], "len={len}");
                assert_eq!(v.clone(), *v);
                assert_eq!(
                    matches!(v.0, Repr::Inline { .. }),
                    len <= PASS_VALUE_LEN,
                    "len={len}"
                );
            }
        }
        assert!(Value::from_slice(&[0; MAX_VALUE_LEN + 1]).is_none());
        assert_ne!(Value::filled(1, 128), Value::filled(1, 127));
    }

    #[test]
    fn layout_stays_within_the_inline_budget() {
        // One pass of bytes + length + discriminant, and `Option` is free.
        assert!(core::mem::size_of::<Value>() <= 136);
        assert_eq!(
            core::mem::size_of::<Option<Value>>(),
            core::mem::size_of::<Value>()
        );
    }

    #[test]
    fn for_item_embeds_id() {
        let v = Value::for_item(42, 128);
        assert_eq!(&v.as_bytes()[..8], &42u64.to_be_bytes());
    }
}
