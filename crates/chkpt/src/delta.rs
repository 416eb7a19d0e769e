//! Delta-encoded checkpoint frames — the storage format behind checkpoint
//! *chains*.
//!
//! Successive training checkpoints differ only slightly: one SGD step
//! perturbs the mantissa tails of most weights and leaves optimizer
//! padding, shapes, and every structural byte of the serialized payload
//! untouched. Storing each checkpoint as a full compressed slab therefore
//! re-pays the whole payload every iteration. A delta frame instead stores
//! `payload XOR base` where `base` is the previous version of the same
//! checkpoint name:
//!
//! 1. **XOR** against the base payload — unchanged regions become zero.
//! 2. **Byte-shuffle** the XOR stream into f32 lanes (byte 0 of every
//!    4-byte word, then byte 1, …): float drift concentrates in the low
//!    mantissa bytes, so the sign/exponent lanes become long zero runs
//!    even when *every* float moved a little.
//! 3. **Zero-RLE** the shuffled stream (zero runs become varint counts),
//!    then LZ-compress the residue when that still shrinks it.
//!
//! A frame records the base's sequence number, its own chain depth, and
//! the base payload's CRC32, so the store can resolve chains (and detect
//! a re-put base that would silently change what the delta decodes
//! against — that mismatch fails loudly instead). Full keyframes every
//! K versions bound the restore chain length; see
//! [`crate::store::StoreOptions::delta_keyframe_interval`].
//!
//! Frame layout (all integers varint unless noted):
//!
//! ```text
//! frame := magic [0xF1, 0x05] | flags:u8 | base_seq | depth | raw_len
//!          | base_crc:u32 LE | body
//! flags bit 0 — body stream is byte-shuffled into f32 lanes
//! flags bit 1 — RLE stream is further LZ-compressed ([`crate::compress`])
//! body  := zero-RLE stream of the (shuffled) XOR delta:
//!          varint zero_run | varint lit_len | lit bytes | …  (alternating,
//!          starting with a zero run, until raw_len bytes are accounted)
//! ```

use crate::compress::{compress, decompress, CompressError};

/// Delta-frame magic.
const DELTA_MAGIC: [u8; 2] = [0xF1, 0x05];
/// `flags` bit: the delta stream was byte-shuffled into f32 lanes.
const FLAG_SHUFFLED: u8 = 1;
/// `flags` bit: the RLE body was further LZ-compressed.
const FLAG_LZ: u8 = 2;
/// Minimum fraction of zero bytes in the XOR stream for a delta to be
/// worth encoding (below this the payload effectively rewrote itself and
/// the plain keyframe path is cheaper *and* chain-free).
const MIN_ZERO_FRACTION: f64 = 0.35;

fn err(m: impl Into<String>) -> CompressError {
    CompressError { message: m.into() }
}

/// Parsed header of a delta frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeltaHeader {
    /// Sequence number of the base checkpoint this frame decodes against.
    pub base_seq: u64,
    /// Chain depth of this frame (base's depth + 1; keyframes are 0).
    pub depth: u32,
    /// Length of the reconstructed payload.
    pub raw_len: u64,
    /// CRC32 of the base payload at encode time — verified against the
    /// base's index entry before decoding, so a re-put base fails loudly.
    pub base_crc: u32,
}

/// True when `data` starts with the delta-frame magic.
pub fn is_delta(data: &[u8]) -> bool {
    data.len() >= 2 && data[0..2] == DELTA_MAGIC
}

/// XOR of `new` against `base`, `new.len()` bytes long: positions past the
/// end of `base` carry `new`'s bytes verbatim (XOR against implicit
/// zeros), so payloads may grow or shrink between versions. The encode
/// hot path uses the fused [`shuffled_xor_with_zeros`] instead; this
/// composed form survives as its differential-test oracle.
#[cfg(test)]
fn xor_delta(base: &[u8], new: &[u8]) -> Vec<u8> {
    let common = base.len().min(new.len());
    let mut out: Vec<u8> = base[..common]
        .iter()
        .zip(&new[..common])
        .map(|(b, n)| b ^ n)
        .collect();
    out.extend_from_slice(&new[common..]);
    out
}

/// Fused hot path of [`encode`]: produces `shuffle(new XOR base)` in one
/// pass (strided reads, sequential writes) and counts the zero bytes for
/// the worthwhileness probe along the way — equivalent to
/// `shuffle(&xor_delta(base, new))` (XOR commutes with the byte
/// permutation), at one pass and one allocation instead of three.
fn shuffled_xor_with_zeros(base: &[u8], new: &[u8]) -> (Vec<u8>, usize) {
    let n = new.len();
    let words = n / 4;
    let mut out = vec![0u8; n];
    let mut zeros = 0usize;
    let byte_at = |i: usize| -> u8 {
        if i < base.len() {
            base[i] ^ new[i]
        } else {
            new[i]
        }
    };
    // Fast interior: full 4-byte words entirely inside both buffers —
    // iterator zips over exact chunks and the four lane slices, so the
    // loop body carries no bounds checks.
    let safe_words = (base.len().min(n) / 4).min(words);
    {
        let (l0, rest) = out.split_at_mut(words);
        let (l1, rest) = rest.split_at_mut(words);
        let (l2, l3) = rest.split_at_mut(words);
        let lanes = l0
            .iter_mut()
            .zip(l1.iter_mut())
            .zip(l2.iter_mut().zip(l3.iter_mut()));
        let inputs = new.chunks_exact(4).zip(base.chunks_exact(4));
        for (((d0, d1), (d2, d3)), (nc, bc)) in lanes.zip(inputs).take(safe_words) {
            let x = u32::from_le_bytes(nc.try_into().expect("4 bytes"))
                ^ u32::from_le_bytes(bc.try_into().expect("4 bytes"));
            let [b0, b1, b2, b3] = x.to_le_bytes();
            *d0 = b0;
            *d1 = b1;
            *d2 = b2;
            *d3 = b3;
            zeros +=
                (b0 == 0) as usize + (b1 == 0) as usize + (b2 == 0) as usize + (b3 == 0) as usize;
        }
        for w in safe_words..words {
            for (lane, l) in [&mut *l0, &mut *l1, &mut *l2, &mut *l3]
                .into_iter()
                .enumerate()
            {
                let b = byte_at(w * 4 + lane);
                l[w] = b;
                zeros += (b == 0) as usize;
            }
        }
    }
    for (i, o) in out.iter_mut().enumerate().skip(words * 4) {
        let b = byte_at(i);
        *o = b;
        zeros += (b == 0) as usize;
    }
    (out, zeros)
}

/// Zero-RLE: alternating `zero_run, lit_len, lit bytes` varint tokens,
/// starting with a (possibly zero-length) zero run.
fn rle0_encode(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() / 4 + 16);
    let mut i = 0usize;
    while i < data.len() {
        let zero_start = i;
        // Skip zero runs 8 bytes at a time (the stream is mostly zeros).
        while i + 8 <= data.len()
            && u64::from_le_bytes(data[i..i + 8].try_into().expect("8 bytes")) == 0
        {
            i += 8;
        }
        while i < data.len() && data[i] == 0 {
            i += 1;
        }
        crate::compress::put_varint(&mut out, (i - zero_start) as u64);
        // Literal run: until the next *worthwhile* zero run (≥ 4 zeros —
        // shorter runs cost more in token framing than they save).
        let lit_start = i;
        while i < data.len() {
            if data[i] == 0 {
                let mut j = i;
                while j < data.len() && data[j] == 0 {
                    j += 1;
                }
                if j - i >= 4 {
                    break;
                }
                i = j;
            } else {
                i += 1;
            }
        }
        crate::compress::put_varint(&mut out, (i - lit_start) as u64);
        out.extend_from_slice(&data[lit_start..i]);
    }
    out
}

/// Delta-encodes `new` against `base`. Returns `None` when a delta is not
/// worthwhile — the XOR stream has too few zero bytes (the payload
/// effectively rewrote itself), or the finished frame fails to shrink at
/// least 25% below storing `new` raw (a chain entry must *earn* its
/// restore-time chain walk). Marginal frames (between 50% and 75% of the
/// payload — e.g. uniform drift that randomizes the mantissa lanes) are
/// returned; the store's stage path arbitrates those against the plain
/// compressed alternative. `base_seq`/`base_crc` identify the base
/// checkpoint; `depth` is the new frame's chain depth.
pub fn encode(
    base: &[u8],
    new: &[u8],
    base_seq: u64,
    base_crc: u32,
    depth: u32,
) -> Option<Vec<u8>> {
    let (shuffled, zeros) = shuffled_xor_with_zeros(base, new);
    if !new.is_empty() && (zeros as f64 / new.len() as f64) < MIN_ZERO_FRACTION {
        return None;
    }
    let rle = rle0_encode(&shuffled);
    let (body, flags) = {
        let lz = compress(&rle);
        if lz.len() < rle.len() {
            (lz, FLAG_SHUFFLED | FLAG_LZ)
        } else {
            (rle, FLAG_SHUFFLED)
        }
    };
    let mut frame = Vec::with_capacity(body.len() + 24);
    frame.extend_from_slice(&DELTA_MAGIC);
    frame.push(flags);
    crate::compress::put_varint(&mut frame, base_seq);
    crate::compress::put_varint(&mut frame, depth as u64);
    crate::compress::put_varint(&mut frame, new.len() as u64);
    frame.extend_from_slice(&base_crc.to_le_bytes());
    frame.extend_from_slice(&body);
    if frame.len() * 4 > new.len() * 3 {
        return None;
    }
    Some(frame)
}

/// True when `frame` is an unambiguous storage win over any plain
/// encoding of a payload of `raw_len` bytes (at most half the raw size) —
/// the store skips compressing the payload at all in that case.
pub fn is_clear_win(frame: &[u8], raw_len: usize) -> bool {
    frame.len() * 2 <= raw_len
}

/// Parses a delta frame's header without decoding its body.
pub fn header(frame: &[u8]) -> Result<DeltaHeader, CompressError> {
    if !is_delta(frame) {
        return Err(err("bad delta magic"));
    }
    let mut pos = 3usize; // magic + flags
    let base_seq = crate::compress::get_varint(frame, &mut pos)?;
    let depth = crate::compress::get_varint(frame, &mut pos)? as u32;
    let raw_len = crate::compress::get_varint(frame, &mut pos)?;
    let crc_bytes = frame
        .get(pos..pos + 4)
        .ok_or_else(|| err("truncated delta header"))?;
    Ok(DeltaHeader {
        base_seq,
        depth,
        raw_len,
        base_crc: u32::from_le_bytes(crc_bytes.try_into().expect("4 bytes")),
    })
}

/// Decodes a delta frame against its base payload, returning the
/// reconstructed full payload. The caller is responsible for having
/// verified that `base` is the right payload (the store checks the
/// frame's `base_crc` against the base's index entry).
///
/// One pass over the output and one over the changed bytes: the output
/// starts as a copy of the base (a zero run of the XOR stream is the
/// identity, so it only advances the position), and each literal byte is
/// XORed in at its unshuffled position. The token stream is validated
/// whole before the `raw_len`-byte output is allocated, so a corrupt frame
/// fails without allocating for its declared length.
pub fn decode(frame: &[u8], base: &[u8]) -> Result<Vec<u8>, CompressError> {
    let h = header(frame)?;
    let flags = frame[2];
    let mut pos = 3usize;
    crate::compress::get_varint(frame, &mut pos)?; // base_seq
    crate::compress::get_varint(frame, &mut pos)?; // depth
    crate::compress::get_varint(frame, &mut pos)?; // raw_len
    pos += 4; // base_crc
    let body = frame
        .get(pos..)
        .ok_or_else(|| err("truncated delta body"))?;
    // Zero-RLE legitimately expands without bound (an unchanged payload is
    // one giant zero run), so the only backstop here is a generous fixed
    // cap; the store additionally cross-checks `raw_len` against the index
    // entry's recorded size before decoding.
    let raw_len = h.raw_len as usize;
    if h.raw_len > 1 << 36 {
        return Err(err("implausible delta length"));
    }
    let decompressed;
    let rle = if flags & FLAG_LZ != 0 {
        decompressed = decompress(body)?;
        &decompressed[..]
    } else {
        body
    };
    for_each_literal_run(rle, raw_len, |_, _| {})?;
    let mut out = Vec::with_capacity(raw_len);
    out.extend_from_slice(&base[..base.len().min(raw_len)]);
    // Positions past the base carry the delta verbatim (XOR against
    // implicit zeros).
    out.resize(raw_len, 0);
    // An unshuffled stream is all "tail": every position maps to itself.
    let words = if flags & FLAG_SHUFFLED != 0 {
        raw_len / 4
    } else {
        0
    };
    for_each_literal_run(rle, raw_len, |at, lits| {
        xor_unshuffled(&mut out, words, at, lits)
    })?;
    Ok(out)
}

/// Walks the zero-RLE token stream of a `raw_len`-byte delta, calling
/// `literal(at, bytes)` for each literal run at its position `at` in the
/// (shuffled) stream; zero runs only advance the position.
fn for_each_literal_run(
    data: &[u8],
    raw_len: usize,
    mut literal: impl FnMut(usize, &[u8]),
) -> Result<(), CompressError> {
    let mut pos = 0usize;
    let mut at = 0usize;
    while at < raw_len {
        let zeros = crate::compress::get_varint(data, &mut pos)? as usize;
        if zeros > raw_len - at {
            return Err(err("zero run exceeds declared length"));
        }
        at += zeros;
        if at == raw_len && pos == data.len() {
            break;
        }
        let lits = crate::compress::get_varint(data, &mut pos)? as usize;
        if lits > raw_len - at {
            return Err(err("literal run exceeds declared length"));
        }
        let body = data
            .get(pos..pos + lits)
            .ok_or_else(|| err("truncated literal run"))?;
        pos += lits;
        literal(at, body);
        at += lits;
    }
    if at != raw_len {
        return Err(err(format!(
            "delta stream decoded {at} bytes, expected {raw_len}"
        )));
    }
    Ok(())
}

/// XORs `lits`, found at position `at` of a stream shuffled into four
/// lanes of `words` bytes each (then a verbatim tail), into `out` at the
/// positions [`shuffled_xor_with_zeros`] took them from. A run splits at
/// the lane boundaries into at most five pieces — four stride-4 ones and
/// the contiguous tail — with one division per piece, none per byte.
fn xor_unshuffled(out: &mut [u8], words: usize, mut at: usize, mut lits: &[u8]) {
    while at < words * 4 && !lits.is_empty() {
        let (lane, w) = (at / words, at % words);
        let n = (words - w).min(lits.len());
        for (o, l) in out[w * 4 + lane..].iter_mut().step_by(4).zip(&lits[..n]) {
            *o ^= l;
        }
        at += n;
        lits = &lits[n..];
    }
    for (o, l) in out[at..at + lits.len()].iter_mut().zip(lits) {
        *o ^= l;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::crc32;
    use proptest::prelude::*;

    /// Byte-shuffles `data` into f32 lanes: byte 0 of every aligned 4-byte
    /// word, then byte 1, byte 2, byte 3; a non-multiple-of-4 tail is
    /// appended verbatim — the permutation the encoder's fused pass
    /// applies.
    fn shuffle(data: &[u8]) -> Vec<u8> {
        let words = data.len() / 4;
        let mut out = Vec::with_capacity(data.len());
        for lane in 0..4 {
            for w in 0..words {
                out.push(data[w * 4 + lane]);
            }
        }
        out.extend_from_slice(&data[words * 4..]);
        out
    }

    /// Inverts [`shuffle`].
    fn unshuffle(data: &[u8]) -> Vec<u8> {
        let words = data.len() / 4;
        let mut out = vec![0u8; data.len()];
        let mut pos = 0usize;
        for lane in 0..4 {
            for w in 0..words {
                out[w * 4 + lane] = data[pos];
                pos += 1;
            }
        }
        out[words * 4..].copy_from_slice(&data[pos..]);
        out
    }

    /// Inverts [`rle0_encode`] into a whole stream; `raw_len` bounds it.
    fn rle0_decode(data: &[u8], raw_len: usize) -> Result<Vec<u8>, CompressError> {
        let mut out = Vec::with_capacity(raw_len);
        for_each_literal_run(data, raw_len, |at, lits| {
            out.resize(at, 0);
            out.extend_from_slice(lits);
        })?;
        out.resize(raw_len, 0);
        Ok(out)
    }

    /// The composed decoder the fused [`decode`] replaces — one whole pass
    /// and one allocation per stage: `xor(unshuffle(rle0_decode(..)))`.
    fn decode_composed(frame: &[u8], base: &[u8]) -> Result<Vec<u8>, CompressError> {
        let h = header(frame)?;
        let flags = frame[2];
        let body_at = frame.len() - frame_body_len(frame);
        let rle = if flags & FLAG_LZ != 0 {
            decompress(&frame[body_at..])?
        } else {
            frame[body_at..].to_vec()
        };
        let stream = rle0_decode(&rle, h.raw_len as usize)?;
        let mut out = if flags & FLAG_SHUFFLED != 0 {
            unshuffle(&stream)
        } else {
            stream
        };
        for (o, b) in out.iter_mut().zip(base) {
            *o ^= b;
        }
        Ok(out)
    }

    /// Bytes of `frame` after its header.
    fn frame_body_len(frame: &[u8]) -> usize {
        let mut pos = 3usize;
        for _ in 0..3 {
            crate::compress::get_varint(frame, &mut pos).unwrap();
        }
        frame.len() - (pos + 4)
    }

    /// A frame of `new` against `base` whether or not [`encode`] would
    /// judge it worthwhile, shuffled and LZ-compressed as asked — so the
    /// decoder is exercised on dense deltas and on every flag combination.
    fn frame_of(base: &[u8], new: &[u8], shuffled: bool, lz: bool) -> Vec<u8> {
        let delta = xor_delta(base, new);
        let stream = if shuffled { shuffle(&delta) } else { delta };
        let rle = rle0_encode(&stream);
        let body = if lz { compress(&rle) } else { rle };
        let mut frame = DELTA_MAGIC.to_vec();
        frame.push(if shuffled { FLAG_SHUFFLED } else { 0 } | if lz { FLAG_LZ } else { 0 });
        crate::compress::put_varint(&mut frame, 0);
        crate::compress::put_varint(&mut frame, 1);
        crate::compress::put_varint(&mut frame, new.len() as u64);
        frame.extend_from_slice(&crc32(base).to_le_bytes());
        frame.extend_from_slice(&body);
        frame
    }

    /// `base` with about `per_mille`/1000 of its bytes changed, resized to
    /// `len` (growth is fresh noise).
    fn edited(base: &[u8], len: usize, per_mille: u64, seed: u64) -> Vec<u8> {
        let mut x = seed | 1;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        (0..len)
            .map(|i| match base.get(i) {
                Some(&b) if next() % 1000 >= per_mille => b,
                _ => next() as u8,
            })
            .collect()
    }

    fn drifted(base: &[f32], step: usize, fraction_denom: usize) -> Vec<f32> {
        // Perturb every `fraction_denom`-th element a little, like one
        // optimizer step over a mostly-frozen model.
        base.iter()
            .enumerate()
            .map(|(i, &v)| {
                if i % fraction_denom == step % fraction_denom {
                    v + 0.001 * (step as f32 + 1.0)
                } else {
                    v
                }
            })
            .collect()
    }

    fn to_bytes(v: &[f32]) -> Vec<u8> {
        v.iter().flat_map(|f| f.to_le_bytes()).collect()
    }

    #[test]
    fn shuffle_is_a_permutation() {
        for n in [0usize, 1, 2, 3, 4, 5, 7, 8, 100, 1001] {
            let data: Vec<u8> = (0..n).map(|i| (i % 256) as u8).collect();
            assert_eq!(unshuffle(&shuffle(&data)), data, "n={n}");
        }
    }

    #[test]
    fn delta_roundtrips_drifting_tensor() {
        let base: Vec<f32> = (0..4096).map(|i| (i as f32).sin()).collect();
        let base_b = to_bytes(&base);
        let next_b = to_bytes(&drifted(&base, 1, 20));
        let frame = encode(&base_b, &next_b, 0, crc32(&base_b), 1).expect("delta worthwhile");
        assert!(is_delta(&frame));
        let h = header(&frame).unwrap();
        assert_eq!(h.base_seq, 0);
        assert_eq!(h.depth, 1);
        assert_eq!(h.raw_len, next_b.len() as u64);
        assert_eq!(decode(&frame, &base_b).unwrap(), next_b);
        // And the frame is much smaller than the payload.
        assert!(
            frame.len() * 4 < next_b.len(),
            "{} vs {}",
            frame.len(),
            next_b.len()
        );
    }

    #[test]
    fn grown_and_shrunk_payloads_roundtrip() {
        let base = vec![0xAAu8; 1000];
        let grown = vec![0xAAu8; 1500];
        let shrunk = vec![0xAAu8; 400];
        for new in [&grown, &shrunk] {
            let frame = encode(&base, new, 3, crc32(&base), 1).expect("delta");
            assert_eq!(&decode(&frame, &base).unwrap(), new);
        }
    }

    #[test]
    fn unrelated_payloads_are_rejected() {
        let mut x = 0xDEADBEEFu32;
        let mut rand = |n: usize| -> Vec<u8> {
            (0..n)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 17;
                    x ^= x << 5;
                    x as u8
                })
                .collect()
        };
        let a = rand(8192);
        let b = rand(8192);
        assert!(
            encode(&a, &b, 0, crc32(&a), 1).is_none(),
            "random-vs-random must fail the zero-density probe"
        );
    }

    #[test]
    fn identical_payloads_collapse_to_tiny_frames() {
        let payload = to_bytes(&(0..2048).map(|i| i as f32).collect::<Vec<_>>());
        let frame = encode(&payload, &payload, 7, crc32(&payload), 2).expect("delta");
        assert!(frame.len() < 64, "identical payload frame: {}", frame.len());
        assert_eq!(decode(&frame, &payload).unwrap(), payload);
    }

    #[test]
    fn every_truncation_fails_loudly() {
        let base = to_bytes(&(0..1024).map(|i| i as f32).collect::<Vec<_>>());
        let next = to_bytes(&drifted(
            &(0..1024).map(|i| i as f32).collect::<Vec<_>>(),
            1,
            10,
        ));
        let frame = encode(&base, &next, 0, crc32(&base), 1).unwrap();
        for cut in 0..frame.len() {
            if let Ok(d) = decode(&frame[..cut], &base) {
                assert_eq!(d, next, "cut {cut} silently altered data");
            }
        }
    }

    #[test]
    fn shuffled_lanes_beat_unshuffled_on_uniform_drift() {
        // Every float drifts: low mantissa bytes change, exponents don't.
        // The shuffled stream groups the unchanged lanes into zero runs.
        let base: Vec<f32> = (0..8192).map(|i| 1.0 + (i as f32) * 1e-6).collect();
        let next: Vec<f32> = base.iter().map(|v| v + 1e-5).collect();
        let (bb, nb) = (to_bytes(&base), to_bytes(&next));
        let delta = xor_delta(&bb, &nb);
        let shuffled_rle = rle0_encode(&shuffle(&delta));
        let plain_rle = rle0_encode(&delta);
        assert!(
            shuffled_rle.len() < plain_rle.len(),
            "shuffle must group zero lanes: {} vs {}",
            shuffled_rle.len(),
            plain_rle.len()
        );
    }

    #[test]
    fn fused_shuffled_xor_matches_the_composed_passes() {
        // The fused hot path must equal shuffle(xor_delta(..)) exactly,
        // including for unequal lengths and non-multiple-of-4 tails.
        let mut x = 7u32;
        let mut rand = |n: usize| -> Vec<u8> {
            (0..n)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 17;
                    x ^= x << 5;
                    x as u8
                })
                .collect()
        };
        for (bn, nn) in [
            (0, 0),
            (16, 16),
            (17, 17),
            (100, 37),
            (37, 100),
            (4096, 4099),
        ] {
            let base = rand(bn);
            let new = rand(nn);
            let (fused, zeros) = shuffled_xor_with_zeros(&base, &new);
            let composed = shuffle(&xor_delta(&base, &new));
            assert_eq!(fused, composed, "base {bn} new {nn}");
            assert_eq!(
                zeros,
                composed.iter().filter(|&&b| b == 0).count(),
                "zero count base {bn} new {nn}"
            );
        }
    }

    #[test]
    fn rle0_handles_all_zero_and_no_zero_streams() {
        let zeros = vec![0u8; 10_000];
        assert!(rle0_encode(&zeros).len() < 8);
        assert_eq!(
            rle0_decode(&rle0_encode(&zeros), zeros.len()).unwrap(),
            zeros
        );
        let ones = vec![1u8; 777];
        assert_eq!(rle0_decode(&rle0_encode(&ones), ones.len()).unwrap(), ones);
        let empty: Vec<u8> = Vec::new();
        assert_eq!(rle0_decode(&rle0_encode(&empty), 0).unwrap(), empty);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        /// Round-trip and fused-vs-composed over short, odd-length,
        /// growing and shrinking payloads, sparse and dense XOR.
        #[test]
        fn fused_decode_roundtrips_and_equals_the_composed_oracle(
            base_len in prop_oneof![0usize..8, 0usize..700],
            new_len in prop_oneof![0usize..8, 0usize..700],
            per_mille in prop_oneof![Just(0u64), Just(5), Just(100), Just(600), Just(1000)],
            seed in 1u64..u64::MAX,
            shuffled in any::<bool>(),
            lz in any::<bool>(),
        ) {
            let base = edited(&[], base_len, 1000, seed);
            let new = edited(&base, new_len, per_mille, seed ^ 0x9E37_79B9);
            if let Some(frame) = encode(&base, &new, 0, crc32(&base), 1) {
                prop_assert_eq!(&decode(&frame, &base).unwrap(), &new);
                prop_assert_eq!(decode(&frame, &base).unwrap(), decode_composed(&frame, &base).unwrap());
            }
            let frame = frame_of(&base, &new, shuffled, lz);
            let fused = decode(&frame, &base).unwrap();
            prop_assert_eq!(&fused, &new);
            prop_assert_eq!(fused, decode_composed(&frame, &base).unwrap());
        }
    }

    #[test]
    fn fused_and_composed_decoders_fail_alike_on_every_truncation() {
        // Same verdict on every prefix of a dense frame: a corrupt stream
        // fails both decoders, with the same message.
        let base = edited(&[], 999, 1000, 3);
        let new = edited(&base, 1001, 300, 5);
        for (shuffled, lz) in [(true, false), (true, true), (false, false)] {
            let frame = frame_of(&base, &new, shuffled, lz);
            for cut in 0..frame.len() {
                let fused = decode(&frame[..cut], &base);
                if cut < frame.len() - frame_body_len(&frame) {
                    assert!(fused.is_err(), "cut {cut} inside the header");
                    continue;
                }
                match (fused, decode_composed(&frame[..cut], &base)) {
                    (Ok(f), Ok(c)) => assert_eq!(f, c, "cut {cut}"),
                    (Err(f), Err(c)) => assert_eq!(f.message, c.message, "cut {cut}"),
                    (f, c) => panic!(
                        "cut {cut}: fused {:?} vs composed {:?}",
                        f.is_ok(),
                        c.is_ok()
                    ),
                }
            }
        }
    }
}
