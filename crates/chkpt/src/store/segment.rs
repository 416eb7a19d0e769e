//! The segment file format: entry framing, the sealed-segment footer
//! index, and the `seg/<NNNNNNNN>.seg` naming.
//!
//! ```text
//! segment   := magic "FLRSEG1\n" entry* [footer trailer]
//! entry     := block_len:u16 seq:u64 raw:u64 comp:u32 crc:u32 flags:u8
//!              block_id payload            (all integers little-endian)
//! footer    := count:u32 { block_len:u16 block_id seq:u64 offset:u64
//!                          raw:u64 comp:u32 crc:u32 flags:u8 }*
//! trailer   := footer_len:u64 footer_crc:u32 magic "FLRSEGF1"
//! ```
//!
//! `flags` bit 0 set means the payload is stored raw (compression did not
//! shrink it); bit 1 set means the payload is a [`crate::delta`] frame
//! (whose own header carries the base seq, chain depth, and base CRC, so
//! segments stay self-describing). `crc` is always the CRC32 of the fully
//! reconstructed *uncompressed* payload. The footer is written when a
//! segment is sealed (rolled over or the store is dropped cleanly): the
//! index can be rebuilt from footers without the MANIFEST, which remains
//! the authoritative index — an unsealed segment (crash before roll) is
//! still fully readable through it.

use super::crc32;
use std::fs;
use std::path::{Path, PathBuf};

pub(crate) const SEGMENT_MAGIC: &[u8; 8] = b"FLRSEG1\n";
const FOOTER_MAGIC: &[u8; 8] = b"FLRSEGF1";
/// Fixed part of a segment entry header (block id and payload follow).
pub(crate) const ENTRY_HEADER_BYTES: u64 = 2 + 8 + 8 + 4 + 4 + 1;
/// Trailer = footer_len (8) + footer_crc (4) + magic (8).
pub(crate) const TRAILER_BYTES: u64 = 20;
/// Payload stored uncompressed (compression did not shrink it).
pub(crate) const FLAG_RAW: u8 = 1;
/// Payload stored as a delta frame.
pub(crate) const FLAG_DELTA: u8 = 2;

/// One record of a segment footer (and of the in-memory pending footer of
/// the active segment).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct SegmentIndexEntry {
    /// Block id.
    pub block_id: String,
    /// Sequence number.
    pub seq: u64,
    /// Payload offset within the segment file.
    pub offset: u64,
    /// Uncompressed payload length.
    pub raw: u64,
    /// Stored payload length.
    pub stored: u32,
    /// CRC32 of the uncompressed payload.
    pub crc: u32,
    /// True when the payload is stored uncompressed.
    pub(crate) raw_stored: bool,
    /// True when the payload is a delta frame (the frame's own header
    /// carries the base seq, depth, and base CRC).
    pub(crate) delta_stored: bool,
}

impl SegmentIndexEntry {
    pub(crate) fn flags(&self) -> u8 {
        (if self.raw_stored { FLAG_RAW } else { 0 })
            | (if self.delta_stored { FLAG_DELTA } else { 0 })
    }
}

/// File name of segment `seg` in `seg/`.
pub(crate) fn segment_file_name(seg: u64) -> String {
    format!("{seg:08}.seg")
}

/// What one directory of segment files holds.
#[derive(Default)]
pub(crate) struct SegmentDir {
    /// `(segment id, file length)`, ascending by id.
    pub(crate) segments: Vec<(u64, u64)>,
    /// Dot-prefixed temp siblings left by an interrupted compaction or
    /// atomic write.
    pub(crate) temp_files: Vec<PathBuf>,
}

/// Lists the `<id>.seg` files (and temp siblings) of `dir` (a store's
/// `seg/`). A missing directory lists as empty: read-only opens create
/// nothing.
pub(crate) fn scan_segment_dir(dir: &Path) -> std::io::Result<SegmentDir> {
    let mut out = SegmentDir::default();
    let Ok(rd) = fs::read_dir(dir) else {
        return Ok(out);
    };
    for entry in rd {
        let entry = entry?;
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.starts_with('.') {
            out.temp_files.push(entry.path());
        } else if let Some(id) = name
            .strip_suffix(".seg")
            .and_then(|s| s.parse::<u64>().ok())
        {
            out.segments.push((id, entry.metadata()?.len()));
        }
    }
    out.segments.sort_unstable();
    Ok(out)
}

/// Appends one entry (header + block id + payload) to a segment buffer,
/// returning the payload offset within `bytes`. `rec.offset` is ignored
/// (it is the caller's to fill in from the return value).
pub(crate) fn append_entry(bytes: &mut Vec<u8>, rec: &SegmentIndexEntry, stored: &[u8]) -> u64 {
    assert!(rec.block_id.len() <= u16::MAX as usize, "block id too long");
    debug_assert_eq!(rec.stored as usize, stored.len());
    bytes.extend_from_slice(&(rec.block_id.len() as u16).to_le_bytes());
    bytes.extend_from_slice(&rec.seq.to_le_bytes());
    bytes.extend_from_slice(&rec.raw.to_le_bytes());
    bytes.extend_from_slice(&rec.stored.to_le_bytes());
    bytes.extend_from_slice(&rec.crc.to_le_bytes());
    bytes.push(rec.flags());
    bytes.extend_from_slice(rec.block_id.as_bytes());
    let offset = bytes.len() as u64;
    bytes.extend_from_slice(stored);
    offset
}

pub(crate) fn encode_footer(recs: &[SegmentIndexEntry]) -> Vec<u8> {
    let mut body = Vec::with_capacity(16 + recs.len() * 40);
    body.extend_from_slice(&(recs.len() as u32).to_le_bytes());
    for r in recs {
        body.extend_from_slice(&(r.block_id.len() as u16).to_le_bytes());
        body.extend_from_slice(r.block_id.as_bytes());
        body.extend_from_slice(&r.seq.to_le_bytes());
        body.extend_from_slice(&r.offset.to_le_bytes());
        body.extend_from_slice(&r.raw.to_le_bytes());
        body.extend_from_slice(&r.stored.to_le_bytes());
        body.extend_from_slice(&r.crc.to_le_bytes());
        body.push(r.flags());
    }
    let crc = crc32(&body);
    let len = body.len() as u64;
    body.extend_from_slice(&len.to_le_bytes());
    body.extend_from_slice(&crc.to_le_bytes());
    body.extend_from_slice(FOOTER_MAGIC);
    body
}

/// Reads a sealed segment's trailer and returns its footer length, or
/// `None` when the file has no (valid-magic) trailer.
pub(crate) fn read_trailer_footer_len(path: &Path, file_len: u64) -> std::io::Result<Option<u64>> {
    use std::io::{Read, Seek, SeekFrom};
    if file_len < TRAILER_BYTES + SEGMENT_MAGIC.len() as u64 {
        return Ok(None);
    }
    let mut f = fs::File::open(path)?;
    f.seek(SeekFrom::End(-(TRAILER_BYTES as i64)))?;
    let mut trailer = [0u8; TRAILER_BYTES as usize];
    f.read_exact(&mut trailer)?;
    if &trailer[12..] != FOOTER_MAGIC {
        return Ok(None);
    }
    Ok(Some(u64::from_le_bytes(
        trailer[..8].try_into().expect("8 bytes"),
    )))
}

#[cfg(test)]
use super::StoreError;

/// Reads the footer index of a sealed segment file. Returns `Ok(None)` for
/// an unsealed (footerless) segment; errors only on I/O or a corrupt
/// footer. The footer makes segments self-describing — the index can be
/// rebuilt from it without the MANIFEST.
#[cfg(test)]
pub(crate) fn read_segment_footer(
    path: &Path,
) -> Result<Option<Vec<SegmentIndexEntry>>, StoreError> {
    let data = fs::read(path)?;
    parse_segment_footer(&data)
}

#[cfg(test)]
fn parse_segment_footer(data: &[u8]) -> Result<Option<Vec<SegmentIndexEntry>>, StoreError> {
    let bad = |d: &str| StoreError::BadManifest(format!("segment footer: {d}"));
    if data.len() < TRAILER_BYTES as usize + SEGMENT_MAGIC.len()
        || &data[data.len() - 8..] != FOOTER_MAGIC
    {
        return Ok(None);
    }
    let t = data.len() - TRAILER_BYTES as usize;
    let footer_len = u64::from_le_bytes(data[t..t + 8].try_into().expect("8 bytes")) as usize;
    let footer_crc = u32::from_le_bytes(data[t + 8..t + 12].try_into().expect("4 bytes"));
    if footer_len > t {
        return Err(bad("declared length exceeds file"));
    }
    let body = &data[t - footer_len..t];
    if crc32(body) != footer_crc {
        return Err(bad("crc mismatch"));
    }
    let mut recs = Vec::new();
    let mut pos = 0usize;
    let take = |pos: &mut usize, n: usize| -> Result<&[u8], StoreError> {
        let s = body
            .get(*pos..*pos + n)
            .ok_or_else(|| StoreError::BadManifest("segment footer: truncated body".into()))?;
        *pos += n;
        Ok(s)
    };
    let count = u32::from_le_bytes(take(&mut pos, 4)?.try_into().expect("4 bytes"));
    for _ in 0..count {
        let block_len =
            u16::from_le_bytes(take(&mut pos, 2)?.try_into().expect("2 bytes")) as usize;
        let block_id = String::from_utf8(take(&mut pos, block_len)?.to_vec())
            .map_err(|_| bad("non-UTF-8 block id"))?;
        let seq = u64::from_le_bytes(take(&mut pos, 8)?.try_into().expect("8 bytes"));
        let offset = u64::from_le_bytes(take(&mut pos, 8)?.try_into().expect("8 bytes"));
        let raw = u64::from_le_bytes(take(&mut pos, 8)?.try_into().expect("8 bytes"));
        let stored = u32::from_le_bytes(take(&mut pos, 4)?.try_into().expect("4 bytes"));
        let crc = u32::from_le_bytes(take(&mut pos, 4)?.try_into().expect("4 bytes"));
        let flags = take(&mut pos, 1)?[0];
        recs.push(SegmentIndexEntry {
            block_id,
            seq,
            offset,
            raw,
            stored,
            crc,
            raw_stored: flags & FLAG_RAW != 0,
            delta_stored: flags & FLAG_DELTA != 0,
        });
    }
    Ok(Some(recs))
}
