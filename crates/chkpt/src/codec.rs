//! Tagged binary value codec — the `cloudpickle` stand-in.
//!
//! [`CVal`] is the interchange representation: checkpoint producers (the
//! interpreter's object graph, native `Checkpointable` state) lower
//! themselves to a `CVal` tree, which encodes to a self-describing byte
//! stream. The format is versioned (one magic byte) and length-prefixed
//! throughout, so truncation and corruption are detected rather than
//! misread.
//!
//! Layout (all integers little-endian; lengths are LEB128 varints):
//!
//! ```text
//! stream  := MAGIC value
//! value   := tag payload
//! tag     := u8
//! Unit    0x00 —
//! Bool    0x01 u8
//! I64     0x02 zigzag varint     (legacy; still decoded)
//! F64     0x03 8 bytes
//! Str     0x04 len bytes(utf8)
//! Bytes   0x05 len bytes
//! List    0x06 count value*
//! Map     0x07 count (str value)*
//! I64     0x08 8 bytes           (what the encoder emits)
//! ```
//!
//! Integers encode **fixed-width** (tag `0x08`): a varint scalar early in
//! a snapshot (an RNG state, a step counter) would change length between
//! checkpoint versions and shift every later byte, destroying the
//! byte-alignment the store's XOR delta chains depend on. Length prefixes
//! stay varint — they describe structure (names, shapes, counts) that is
//! stable across versions of one checkpoint. The legacy `0x02` zigzag
//! form is still decoded, so pre-existing stores read unchanged.
//!
//! Two properties matter for the record hot path:
//!
//! - **Zero-copy leaves.** [`CVal::Bytes`] holds a refcounted
//!   [`bytes::Bytes`], and [`CVal::Lazy`] holds a [`ByteSource`] handle whose
//!   payload is produced only at encode time. Building a snapshot tree on
//!   the training thread therefore costs O(#objects), not O(bytes) — the
//!   byte-producing work runs on the background materializer. A `Lazy` leaf
//!   encodes with the same `0x05` tag as an eager `Bytes` leaf holding the
//!   same content, so the wire format is unchanged and byte-identical.
//! - **Pooled encoding.** [`encode_into`] writes into a caller-supplied
//!   [`BytesMut`] so the materializer can reuse one buffer per worker
//!   ([`EncodePool`]) instead of allocating per checkpoint. [`encode`] is the
//!   convenience wrapper producing a fresh `Vec`; both share one code path,
//!   so their output is identical by construction.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use parking_lot::Mutex;
use std::fmt;
use std::sync::Arc;

const MAGIC: u8 = 0xF1;

/// A producer of raw payload bytes, resolved at encode time.
///
/// Implementations append exactly [`ByteSource::len`] bytes in
/// [`ByteSource::write_to`]; the codec length-prefixes with `len()` before
/// calling `write_to`, so a mismatch corrupts the stream (debug-asserted).
pub trait ByteSource: Send + Sync {
    /// Exact number of bytes [`ByteSource::write_to`] will append.
    fn len(&self) -> usize;

    /// True when the payload is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends the payload to `buf` (must not clear or otherwise disturb
    /// bytes already in the buffer).
    fn write_to(&self, buf: &mut BytesMut);
}

/// A cheap, refcounted handle to deferred payload bytes (e.g. a tensor slab
/// held by the training program). Cloning is an `Arc` bump; the bytes are
/// produced only when the tree is encoded or the leaf is materialized.
#[derive(Clone)]
pub struct LazyBytes(Arc<dyn ByteSource>);

impl LazyBytes {
    /// Wraps a byte source.
    pub fn new(source: impl ByteSource + 'static) -> Self {
        LazyBytes(Arc::new(source))
    }

    /// Payload length in bytes.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.0.len() == 0
    }

    /// Produces the payload as an owned [`Bytes`].
    pub fn materialize(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(self.len());
        self.0.write_to(&mut buf);
        buf.freeze()
    }

    fn append_to(&self, buf: &mut BytesMut) {
        let before = buf.len();
        self.0.write_to(buf);
        debug_assert_eq!(
            buf.len() - before,
            self.len(),
            "ByteSource wrote a different length than it declared"
        );
    }
}

impl fmt::Debug for LazyBytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "LazyBytes({} bytes)", self.len())
    }
}

/// A checkpointable value tree.
#[derive(Debug, Clone)]
pub enum CVal {
    /// Nothing (Python `None`).
    Unit,
    /// Boolean.
    Bool(bool),
    /// 64-bit signed integer.
    I64(i64),
    /// 64-bit float.
    F64(f64),
    /// UTF-8 string.
    Str(String),
    /// Raw bytes (tensor payloads), refcounted — cloning shares the backing.
    Bytes(Bytes),
    /// Deferred bytes: a handle resolved at encode time, so building the
    /// tree never copies the payload on the caller thread. Encodes
    /// identically to [`CVal::Bytes`] with the same content; decoding always
    /// yields [`CVal::Bytes`].
    Lazy(LazyBytes),
    /// Ordered sequence.
    List(Vec<CVal>),
    /// Ordered string-keyed map (insertion order preserved — determinism
    /// matters for byte-identical re-encoding).
    Map(Vec<(String, CVal)>),
}

/// Equality is structural; `Bytes` and `Lazy` leaves compare by payload
/// content, so a deferred leaf equals an eager leaf with the same bytes.
impl PartialEq for CVal {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (CVal::Unit, CVal::Unit) => true,
            (CVal::Bool(a), CVal::Bool(b)) => a == b,
            (CVal::I64(a), CVal::I64(b)) => a == b,
            (CVal::F64(a), CVal::F64(b)) => a == b,
            (CVal::Str(a), CVal::Str(b)) => a == b,
            (CVal::List(a), CVal::List(b)) => a == b,
            (CVal::Map(a), CVal::Map(b)) => a == b,
            (a @ (CVal::Bytes(_) | CVal::Lazy(_)), b @ (CVal::Bytes(_) | CVal::Lazy(_))) => {
                // Compare payloads; avoid materializing when both are eager.
                match (a, b) {
                    (CVal::Bytes(x), CVal::Bytes(y)) => x == y,
                    _ => a.as_bytes() == b.as_bytes(),
                }
            }
            _ => false,
        }
    }
}

impl CVal {
    /// Builds a map from key/value pairs.
    pub fn map(pairs: Vec<(impl Into<String>, CVal)>) -> CVal {
        CVal::Map(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Builds an eager bytes leaf.
    pub fn bytes(data: impl Into<Bytes>) -> CVal {
        CVal::Bytes(data.into())
    }

    /// Builds a deferred bytes leaf over a [`ByteSource`].
    pub fn lazy(source: impl ByteSource + 'static) -> CVal {
        CVal::Lazy(LazyBytes::new(source))
    }

    /// Looks up a key in a map value.
    pub fn get(&self, key: &str) -> Option<&CVal> {
        match self {
            CVal::Map(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Payload of a bytes-like leaf ([`CVal::Bytes`] shares its backing,
    /// [`CVal::Lazy`] materializes); `None` for every other variant.
    pub fn as_bytes(&self) -> Option<Bytes> {
        match self {
            CVal::Bytes(b) => Some(b.clone()),
            CVal::Lazy(l) => Some(l.materialize()),
            _ => None,
        }
    }

    /// Approximate in-memory size in bytes (used by materialization
    /// batching and the adaptive controller's cost estimate).
    pub fn approx_bytes(&self) -> usize {
        match self {
            CVal::Unit | CVal::Bool(_) => 1,
            CVal::I64(_) | CVal::F64(_) => 8,
            CVal::Str(s) => s.len() + 5,
            CVal::Bytes(b) => b.len() + 5,
            CVal::Lazy(l) => l.len() + 5,
            CVal::List(items) => items.iter().map(CVal::approx_bytes).sum::<usize>() + 5,
            CVal::Map(pairs) => {
                pairs
                    .iter()
                    .map(|(k, v)| k.len() + 5 + v.approx_bytes())
                    .sum::<usize>()
                    + 5
            }
        }
    }
}

/// Decoding failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError {
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "codec error: {}", self.message)
    }
}

impl std::error::Error for CodecError {}

fn err(message: impl Into<String>) -> CodecError {
    CodecError {
        message: message.into(),
    }
}

/// Encodes a value tree to a fresh byte vector.
///
/// The materializer hot path uses [`encode_into`] with a pooled buffer
/// instead; both produce identical bytes (one shared code path).
pub fn encode(val: &CVal) -> Vec<u8> {
    let mut buf = BytesMut::with_capacity(val.approx_bytes() + 16);
    encode_into(val, &mut buf);
    buf.into_vec()
}

/// Encodes a value tree into `buf`, clearing it first. The buffer's
/// allocation is reused across calls — this is the zero-allocation encode
/// entry point for pooled buffers ([`EncodePool`]).
pub fn encode_into(val: &CVal, buf: &mut BytesMut) {
    buf.clear();
    buf.put_u8(MAGIC);
    encode_value(val, buf);
}

fn put_varint(buf: &mut BytesMut, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.put_u8(byte);
            return;
        }
        buf.put_u8(byte | 0x80);
    }
}

/// Zigzag for the legacy varint I64 form (the encoder now emits fixed
/// width; this survives for tests pinning legacy-stream decoding).
#[cfg(test)]
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

fn encode_value(val: &CVal, buf: &mut BytesMut) {
    match val {
        CVal::Unit => buf.put_u8(0x00),
        CVal::Bool(b) => {
            buf.put_u8(0x01);
            buf.put_u8(*b as u8);
        }
        CVal::I64(i) => {
            // Fixed-width (tag 0x08): a varint here would change length as
            // the value drifts between checkpoint versions and shift every
            // later byte, breaking delta-chain alignment.
            buf.put_u8(0x08);
            buf.put_slice(&i.to_le_bytes());
        }
        CVal::F64(x) => {
            buf.put_u8(0x03);
            buf.put_f64_le(*x);
        }
        CVal::Str(s) => {
            buf.put_u8(0x04);
            put_varint(buf, s.len() as u64);
            buf.put_slice(s.as_bytes());
        }
        CVal::Bytes(b) => {
            buf.put_u8(0x05);
            put_varint(buf, b.len() as u64);
            buf.put_slice(b.as_ref());
        }
        CVal::Lazy(l) => {
            // Same wire form as an eager Bytes leaf: the payload is simply
            // produced now, straight into the encode buffer.
            buf.put_u8(0x05);
            put_varint(buf, l.len() as u64);
            l.append_to(buf);
        }
        CVal::List(items) => {
            buf.put_u8(0x06);
            put_varint(buf, items.len() as u64);
            for item in items {
                encode_value(item, buf);
            }
        }
        CVal::Map(pairs) => {
            buf.put_u8(0x07);
            put_varint(buf, pairs.len() as u64);
            for (k, v) in pairs {
                put_varint(buf, k.len() as u64);
                buf.put_slice(k.as_bytes());
                encode_value(v, buf);
            }
        }
    }
}

/// Decodes bytes produced by [`encode`]. Bytes leaves are zero-copy slices
/// of one shared backing buffer.
pub fn decode(bytes: &[u8]) -> Result<CVal, CodecError> {
    let mut buf = Bytes::copy_from_slice(bytes);
    if !buf.has_remaining() {
        return Err(err("empty input"));
    }
    let magic = buf.get_u8();
    if magic != MAGIC {
        return Err(err(format!("bad magic byte {magic:#x}")));
    }
    let val = decode_one(&mut buf)?;
    if buf.has_remaining() {
        return Err(err(format!("{} trailing bytes", buf.remaining())));
    }
    Ok(val)
}

fn get_varint(buf: &mut Bytes) -> Result<u64, CodecError> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        if !buf.has_remaining() {
            return Err(err("truncated varint"));
        }
        let byte = buf.get_u8();
        if shift >= 64 {
            return Err(err("varint overflow"));
        }
        v |= ((byte & 0x7f) as u64) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

fn get_len(buf: &mut Bytes) -> Result<usize, CodecError> {
    let n = get_varint(buf)? as usize;
    if n > buf.remaining() {
        return Err(err(format!(
            "declared length {n} exceeds remaining {} bytes",
            buf.remaining()
        )));
    }
    Ok(n)
}

fn get_str(buf: &mut Bytes) -> Result<String, CodecError> {
    let n = get_len(buf)?;
    let raw = buf.copy_to_bytes(n);
    String::from_utf8(raw.to_vec()).map_err(|_| err("invalid utf-8 in string"))
}

fn decode_one(buf: &mut Bytes) -> Result<CVal, CodecError> {
    if !buf.has_remaining() {
        return Err(err("truncated value"));
    }
    match buf.get_u8() {
        0x00 => Ok(CVal::Unit),
        0x01 => {
            if !buf.has_remaining() {
                return Err(err("truncated bool"));
            }
            match buf.get_u8() {
                0 => Ok(CVal::Bool(false)),
                1 => Ok(CVal::Bool(true)),
                other => Err(err(format!("bad bool byte {other}"))),
            }
        }
        0x02 => Ok(CVal::I64(unzigzag(get_varint(buf)?))),
        0x08 => {
            if buf.remaining() < 8 {
                return Err(err("truncated i64"));
            }
            let raw = buf.copy_to_bytes(8);
            Ok(CVal::I64(i64::from_le_bytes(
                raw.as_ref().try_into().expect("8 bytes"),
            )))
        }
        0x03 => {
            if buf.remaining() < 8 {
                return Err(err("truncated f64"));
            }
            Ok(CVal::F64(buf.get_f64_le()))
        }
        0x04 => Ok(CVal::Str(get_str(buf)?)),
        0x05 => {
            let n = get_len(buf)?;
            // Shared slice of the decode buffer — no copy per leaf.
            Ok(CVal::Bytes(buf.copy_to_bytes(n)))
        }
        0x06 => {
            let n = get_varint(buf)? as usize;
            // Each element takes at least one byte.
            if n > buf.remaining() {
                return Err(err("list count exceeds remaining bytes"));
            }
            let mut items = Vec::with_capacity(n);
            for _ in 0..n {
                items.push(decode_one(buf)?);
            }
            Ok(CVal::List(items))
        }
        0x07 => {
            let n = get_varint(buf)? as usize;
            if n > buf.remaining() {
                return Err(err("map count exceeds remaining bytes"));
            }
            let mut pairs = Vec::with_capacity(n);
            for _ in 0..n {
                let k = get_str(buf)?;
                let v = decode_one(buf)?;
                pairs.push((k, v));
            }
            Ok(CVal::Map(pairs))
        }
        tag => Err(err(format!("unknown tag {tag:#x}"))),
    }
}

/// Maximum buffers an [`EncodePool`] retains; beyond this, returned buffers
/// are dropped (their allocations freed) instead of pooled.
const POOL_CAP: usize = 8;

/// A pool of reusable encode buffers.
///
/// The background materializer owns one pool shared by its workers: each
/// checkpoint encode borrows a buffer, serializes into it with
/// [`encode_into`], and returns it — so steady-state encoding allocates
/// nothing, regardless of checkpoint count.
#[derive(Default)]
pub struct EncodePool {
    bufs: Mutex<Vec<BytesMut>>,
}

impl EncodePool {
    /// An empty pool.
    pub fn new() -> Self {
        EncodePool::default()
    }

    /// Borrows a buffer for the duration of `f`, returning it to the pool
    /// afterwards (cleared, allocation kept).
    pub fn with_buffer<R>(&self, f: impl FnOnce(&mut BytesMut) -> R) -> R {
        let mut buf = self.bufs.lock().pop().unwrap_or_default();
        let out = f(&mut buf);
        buf.clear();
        let mut bufs = self.bufs.lock();
        if bufs.len() < POOL_CAP {
            bufs.push(buf);
        }
        out
    }

    /// Buffers currently idle in the pool.
    pub fn idle(&self) -> usize {
        self.bufs.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(v: CVal) {
        let bytes = encode(&v);
        let back = decode(&bytes).expect("decode");
        assert_eq!(v, back);
    }

    #[test]
    fn i64_encoding_is_length_stable() {
        // The delta-chain prerequisite: drifting integers (RNG states,
        // step counters) must not change the encoded length and shift
        // every later byte of the snapshot.
        let lens: Vec<usize> = [0i64, 1, -1, 127, 128, 1 << 20, i64::MAX, i64::MIN]
            .into_iter()
            .map(|v| encode(&CVal::I64(v)).len())
            .collect();
        assert!(
            lens.windows(2).all(|w| w[0] == w[1]),
            "i64 lengths vary: {lens:?}"
        );
    }

    #[test]
    fn legacy_varint_i64_streams_still_decode() {
        // Streams written before the fixed-width encoder (tag 0x02,
        // zigzag varint) must read back unchanged.
        for v in [0i64, 1, -1, 63, -64, 300, -300, i64::MAX, i64::MIN] {
            let mut legacy = vec![MAGIC, 0x02];
            let mut z = zigzag(v);
            loop {
                let byte = (z & 0x7f) as u8;
                z >>= 7;
                if z == 0 {
                    legacy.push(byte);
                    break;
                }
                legacy.push(byte | 0x80);
            }
            assert_eq!(decode(&legacy).unwrap(), CVal::I64(v), "value {v}");
        }
    }

    #[test]
    fn roundtrip_scalars() {
        roundtrip(CVal::Unit);
        roundtrip(CVal::Bool(true));
        roundtrip(CVal::Bool(false));
        roundtrip(CVal::I64(0));
        roundtrip(CVal::I64(-1));
        roundtrip(CVal::I64(i64::MAX));
        roundtrip(CVal::I64(i64::MIN));
        roundtrip(CVal::F64(3.25));
        roundtrip(CVal::F64(f64::NEG_INFINITY));
        roundtrip(CVal::Str("héllo\nworld".into()));
        roundtrip(CVal::Str(String::new()));
    }

    #[test]
    fn roundtrip_containers() {
        roundtrip(CVal::bytes(vec![0, 1, 2, 255]));
        roundtrip(CVal::List(vec![
            CVal::I64(1),
            CVal::Str("a".into()),
            CVal::Unit,
        ]));
        roundtrip(CVal::map(vec![
            ("weights", CVal::bytes(vec![1; 100])),
            ("step", CVal::I64(42)),
            ("nested", CVal::List(vec![CVal::Bool(false)])),
        ]));
    }

    #[test]
    fn nan_roundtrips_as_nan() {
        let bytes = encode(&CVal::F64(f64::NAN));
        match decode(&bytes).unwrap() {
            CVal::F64(x) => assert!(x.is_nan()),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn map_order_is_preserved() {
        let v = CVal::map(vec![("z", CVal::I64(1)), ("a", CVal::I64(2))]);
        match decode(&encode(&v)).unwrap() {
            CVal::Map(pairs) => {
                assert_eq!(pairs[0].0, "z");
                assert_eq!(pairs[1].0, "a");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn encoding_is_deterministic() {
        let v = CVal::map(vec![("a", CVal::List(vec![CVal::F64(1.5); 10]))]);
        assert_eq!(encode(&v), encode(&v));
    }

    #[test]
    fn truncation_always_detected() {
        let v = CVal::map(vec![
            ("k1", CVal::bytes(vec![7; 64])),
            ("k2", CVal::List(vec![CVal::I64(-5), CVal::Str("x".into())])),
        ]);
        let bytes = encode(&v);
        for cut in 0..bytes.len() {
            assert!(decode(&bytes[..cut]).is_err(), "cut at {cut} decoded");
        }
    }

    #[test]
    fn trailing_garbage_detected() {
        let mut bytes = encode(&CVal::I64(7));
        bytes.push(0x00);
        assert!(decode(&bytes).is_err());
    }

    #[test]
    fn bad_magic_detected() {
        let mut bytes = encode(&CVal::I64(7));
        bytes[0] = 0x00;
        assert!(decode(&bytes).is_err());
    }

    #[test]
    fn unknown_tag_detected() {
        let bytes = vec![MAGIC, 0x42];
        assert!(decode(&bytes).is_err());
    }

    #[test]
    fn hostile_length_rejected_without_allocation() {
        // Claim a 2^60-byte string in a tiny buffer.
        let mut bytes = vec![MAGIC, 0x04];
        // varint for a huge number
        bytes.extend_from_slice(&[0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x0f]);
        assert!(decode(&bytes).is_err());
    }

    #[test]
    fn get_on_map() {
        let v = CVal::map(vec![("a", CVal::I64(1))]);
        assert_eq!(v.get("a"), Some(&CVal::I64(1)));
        assert_eq!(v.get("b"), None);
        assert_eq!(CVal::Unit.get("a"), None);
    }

    #[test]
    fn approx_bytes_tracks_payload() {
        let small = CVal::I64(1);
        let big = CVal::bytes(vec![0; 10_000]);
        assert!(big.approx_bytes() > small.approx_bytes() * 100);
    }

    // ---- zero-copy / lazy / pooled paths ----------------------------------

    struct CountingSource {
        payload: Vec<u8>,
        writes: std::sync::atomic::AtomicU64,
    }

    impl ByteSource for CountingSource {
        fn len(&self) -> usize {
            self.payload.len()
        }
        fn write_to(&self, buf: &mut BytesMut) {
            self.writes
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            buf.put_slice(&self.payload);
        }
    }

    #[test]
    fn lazy_encodes_identically_to_eager() {
        let payload: Vec<u8> = (0..777u32).map(|i| (i % 251) as u8).collect();
        let eager = CVal::map(vec![
            ("w", CVal::bytes(payload.clone())),
            ("step", CVal::I64(3)),
        ]);
        let lazy = CVal::map(vec![
            (
                "w",
                CVal::lazy(CountingSource {
                    payload,
                    writes: Default::default(),
                }),
            ),
            ("step", CVal::I64(3)),
        ]);
        assert_eq!(encode(&eager), encode(&lazy));
        assert_eq!(eager, lazy, "content equality crosses eager/lazy variants");
        // Decoding a lazy-encoded stream yields eager leaves.
        let back = decode(&encode(&lazy)).unwrap();
        assert!(matches!(back.get("w"), Some(CVal::Bytes(_))));
    }

    #[test]
    fn lazy_source_is_not_invoked_until_encode() {
        let src = std::sync::Arc::new(CountingSource {
            payload: vec![1, 2, 3],
            writes: Default::default(),
        });
        struct Shared(std::sync::Arc<CountingSource>);
        impl ByteSource for Shared {
            fn len(&self) -> usize {
                self.0.len()
            }
            fn write_to(&self, buf: &mut BytesMut) {
                self.0.write_to(buf)
            }
        }
        let v = CVal::List(vec![CVal::lazy(Shared(src.clone())); 4]);
        assert_eq!(src.writes.load(std::sync::atomic::Ordering::Relaxed), 0);
        let _ = v.approx_bytes(); // size estimation must not materialize
        assert_eq!(src.writes.load(std::sync::atomic::Ordering::Relaxed), 0);
        let _ = encode(&v);
        assert_eq!(src.writes.load(std::sync::atomic::Ordering::Relaxed), 4);
    }

    #[test]
    fn encode_into_matches_encode_and_reuses_buffer() {
        let v = CVal::map(vec![
            ("a", CVal::bytes(vec![9; 4096])),
            ("b", CVal::Str("x".into())),
        ]);
        let fresh = encode(&v);
        let mut buf = BytesMut::new();
        encode_into(&v, &mut buf);
        assert_eq!(buf.as_ref(), fresh.as_slice());
        let cap = buf.capacity();
        // Re-encoding into the same buffer reuses its allocation.
        encode_into(&v, &mut buf);
        assert_eq!(buf.as_ref(), fresh.as_slice());
        assert_eq!(buf.capacity(), cap);
    }

    #[test]
    fn pool_recycles_buffers() {
        let pool = EncodePool::new();
        let v = CVal::bytes(vec![5; 1024]);
        pool.with_buffer(|buf| {
            encode_into(&v, buf);
            assert_eq!(buf.as_ref(), encode(&v).as_slice());
        });
        assert_eq!(pool.idle(), 1);
        let mut caps = Vec::new();
        pool.with_buffer(|buf| {
            caps.push(buf.capacity());
            encode_into(&v, buf);
        });
        assert!(caps[0] >= 1024, "pooled buffer kept its allocation");
    }

    #[test]
    fn decoded_bytes_share_one_backing() {
        // Decoding many leaves must not copy each: slices share the input.
        let v = CVal::List((0..8).map(|i| CVal::bytes(vec![i as u8; 64])).collect());
        let bytes = encode(&v);
        let back = decode(&bytes).unwrap();
        if let CVal::List(items) = back {
            for (i, item) in items.iter().enumerate() {
                assert_eq!(item.as_bytes().unwrap(), vec![i as u8; 64]);
            }
        } else {
            panic!("expected list");
        }
    }
}
