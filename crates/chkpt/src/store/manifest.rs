//! The MANIFEST: one CRC'd line per checkpoint, the location grammar, and
//! the two ways the file changes — batched `O_APPEND` writes and atomic
//! whole-file rewrites.
//!
//! ```text
//! line     := <block_id> \t <seq> \t <location> \t <raw> \t <crc32> \t <line_crc32> \n
//! location := @<seg>:<off>:<len>[:r | :d<base>:<depth>]
//!           | @dup:<hash>[:d<base>:<depth>]
//! ```
//!
//! `line_crc32` covers the first five fields, so a torn append is
//! detectable. Parsing is strict: a CRC-valid line whose location is not
//! in the grammar is [`StoreError::BadManifest`] naming the line — never
//! an entry to guess at, drop, and rewrite the file without.

use super::index::IndexEntry;
use super::{crc32, StoreError};
use parking_lot::Mutex;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Where one checkpoint's stored payload lives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Location {
    /// A slice of a segment file.
    Segment {
        /// Segment id (file `seg/<id:08>.seg`).
        seg: u64,
        /// Payload byte offset within the segment file.
        offset: u64,
        /// Stored payload length.
        len: u32,
        /// Stored uncompressed (zero-copy readable).
        raw_stored: bool,
        /// `Some((base_seq, depth))` when the stored bytes are a
        /// [`crate::delta`] frame against the same block's `base_seq`
        /// version; `depth` is this entry's chain depth (keyframes are
        /// `None`). Mutually exclusive with `raw_stored`.
        delta: Option<(u64, u32)>,
    },
    /// A content-addressed reference into the shared dedup arena: the
    /// stored bytes live in a blob keyed by `hash`, shared with every
    /// other run that checkpointed identical content.
    Dup {
        /// FNV-1a 64 content address of the stored representation.
        hash: u64,
        /// Same contract as [`Location::Segment::delta`]: the blob holds a
        /// delta frame against the same block's `base_seq` version.
        delta: Option<(u64, u32)>,
    },
}

impl Location {
    /// Renders the manifest `location` field.
    pub(crate) fn render(&self) -> String {
        match self {
            Location::Segment {
                seg,
                offset,
                len,
                raw_stored,
                delta,
            } => match (raw_stored, delta) {
                (true, _) => format!("@{seg}:{offset}:{len}:r"),
                (false, Some((base, depth))) => format!("@{seg}:{offset}:{len}:d{base}:{depth}"),
                (false, None) => format!("@{seg}:{offset}:{len}"),
            },
            Location::Dup { hash, delta } => match delta {
                Some((base, depth)) => format!("@dup:{hash:016x}:d{base}:{depth}"),
                None => format!("@dup:{hash:016x}"),
            },
        }
    }

    /// Parses a manifest `location` field; `Err` carries the detail for a
    /// [`StoreError::BadManifest`].
    pub(crate) fn parse(s: &str) -> Result<Location, String> {
        // The optional trailing `:d<base>:<depth>` chain link.
        fn chain_link(tail: &[&str]) -> Option<Option<(u64, u32)>> {
            match tail {
                [] => Some(None),
                [d, depth] => Some(Some((
                    d.strip_prefix('d')?.parse().ok()?,
                    depth.parse().ok()?,
                ))),
                _ => None,
            }
        }
        let parsed = || -> Option<Location> {
            let fields: Vec<&str> = s.strip_prefix('@')?.split(':').collect();
            match fields.as_slice() {
                ["dup", hash, tail @ ..] => Some(Location::Dup {
                    hash: u64::from_str_radix(hash, 16).ok()?,
                    delta: chain_link(tail)?,
                }),
                [seg, offset, len, tail @ ..] => {
                    let raw_stored = *tail == ["r"];
                    Some(Location::Segment {
                        seg: seg.parse().ok()?,
                        offset: offset.parse().ok()?,
                        len: len.parse().ok()?,
                        raw_stored,
                        delta: if raw_stored { None } else { chain_link(tail)? },
                    })
                }
                _ => None,
            }
        };
        parsed().ok_or_else(|| {
            format!(
                "bad location {s:?} (want @<seg>:<off>:<len>[:r|:d<base>:<depth>] \
                 or @dup:<hash>[:d<base>:<depth>])"
            )
        })
    }

    /// Stored bytes this location charges to its own store. Dup bytes
    /// live in the shared arena: charging them here would double-count
    /// across every referencing run.
    pub(crate) fn charged_len(&self) -> u64 {
        match self {
            Location::Segment { len, .. } => *len as u64,
            Location::Dup { .. } => 0,
        }
    }

    /// The delta chain link of this location, if any.
    pub(crate) fn delta_link(&self) -> Option<(u64, u32)> {
        match self {
            Location::Segment { delta, .. } | Location::Dup { delta, .. } => *delta,
        }
    }
}

/// Renders the manifest line for one entry (no trailing newline), with
/// its self-CRC over the five data fields.
pub(crate) fn render_line(block: &str, seq: u64, loc: &Location, raw: u64, crc: u32) -> String {
    let payload = format!("{block}\t{seq}\t{}\t{raw}\t{crc}", loc.render());
    let line_crc = crc32(payload.as_bytes());
    format!("{payload}\t{line_crc}")
}

pub(crate) fn parse_line(
    line: &str,
    lineno: usize,
) -> Result<((String, u64), IndexEntry), StoreError> {
    let bad = |detail: &str| StoreError::BadManifest(format!("line {lineno}: {detail}"));
    let parts: Vec<&str> = line.split('\t').collect();
    if parts.len() != 6 {
        return Err(bad(&format!("expected 6 fields, got {}", parts.len())));
    }
    let (payload, line_crc_str) = line
        .rsplit_once('\t')
        .expect("6 tab-separated fields always split");
    let line_crc: u32 = line_crc_str.parse().map_err(|_| bad("bad line crc"))?;
    if crc32(payload.as_bytes()) != line_crc {
        return Err(bad("line crc mismatch (torn or corrupted)"));
    }
    let seq: u64 = parts[1].parse().map_err(|_| bad("bad seq"))?;
    let raw: u64 = parts[3].parse().map_err(|_| bad("bad size"))?;
    let crc: u32 = parts[4].parse().map_err(|_| bad("bad crc"))?;
    let loc = Location::parse(parts[2]).map_err(|detail| bad(&detail))?;
    Ok(((parts[0].to_string(), seq), IndexEntry { loc, raw, crc }))
}

/// The MANIFEST file of one store: a persistent `O_APPEND` handle for
/// batched appends, and atomic rewrites for recovery and compaction.
pub(crate) struct ManifestFile {
    path: PathBuf,
    /// Opened lazily and kept open across appends (invalidated when a
    /// rewrite renames a new inode over the file).
    appender: Mutex<Option<fs::File>>,
}

impl ManifestFile {
    pub(crate) fn new(root: &Path) -> ManifestFile {
        ManifestFile {
            path: root.join("MANIFEST"),
            appender: Mutex::new(None),
        }
    }

    pub(crate) fn path(&self) -> &Path {
        &self.path
    }

    /// Appends pre-rendered, newline-terminated manifest text in one
    /// `write_all` (`O_APPEND` keeps concurrent batches from interleaving
    /// mid-line). `sync` makes the append and the file's own directory
    /// entry durable before returning.
    pub(crate) fn append(&self, text: &str, sync: bool) -> Result<(), StoreError> {
        let mut guard = self.appender.lock();
        if guard.is_none() {
            *guard = Some(
                fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(&self.path)?,
            );
        }
        let f = guard.as_mut().expect("appender populated above");
        f.write_all(text.as_bytes())?;
        if sync {
            f.sync_data()?;
            // The MANIFEST's own directory entry must be durable too (it
            // may have just been created); errors propagate — a failed
            // barrier must not report durability it didn't achieve.
            let root = self.path.parent().expect("MANIFEST lives under the root");
            fs::File::open(root)?.sync_all()?;
        }
        Ok(())
    }

    /// Replaces the manifest with exactly `entries`, crash-safely (see
    /// [`write_atomic`]): a crash leaves either the old or the new
    /// manifest, never a truncated hybrid. Invalidates the kept-open
    /// appender (its fd would point at the renamed-over inode).
    pub(crate) fn rewrite(&self, entries: &[(String, u64, IndexEntry)]) -> Result<(), StoreError> {
        let mut appender = self.appender.lock();
        *appender = None;
        let mut text = String::new();
        for (block, seq, e) in entries {
            text.push_str(&render_line(block, *seq, &e.loc, e.raw, e.crc));
            text.push('\n');
        }
        write_atomic(&self.path, text.as_bytes())?;
        Ok(())
    }
}

/// Durably replaces `dest` with `bytes`: write to a temp sibling, fsync
/// it, rename over `dest`, fsync the parent directory. After a power
/// loss the file is either the old content or the complete new content —
/// never empty or truncated (a bare `write` + `rename` can persist the
/// rename before the data blocks).
pub fn write_atomic(dest: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let dir = dest.parent().unwrap_or_else(|| Path::new("."));
    // Unique per invocation, not just per process: concurrent writers of
    // the same destination (e.g. two handles interning one dedup blob)
    // must not share a temp sibling, or one rename steals the other's
    // half-written file.
    static WRITE_SEQ: AtomicU64 = AtomicU64::new(0);
    let tmp = dir.join(format!(
        ".{}.tmp.{}.{}",
        dest.file_name()
            .map(|n| n.to_string_lossy())
            .unwrap_or_default(),
        std::process::id(),
        WRITE_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    fs::rename(&tmp, dest)?;
    // Persist the rename itself (directory entry). Best-effort on
    // platforms where directories cannot be opened for sync.
    if let Ok(d) = fs::File::open(dir) {
        let _ = d.sync_all();
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn location_field_roundtrips() {
        for loc in [
            Location::Segment {
                seg: 3,
                offset: 4096,
                len: 128,
                raw_stored: false,
                delta: None,
            },
            Location::Segment {
                seg: 0,
                offset: 8,
                len: 1,
                raw_stored: true,
                delta: None,
            },
            Location::Segment {
                seg: 12,
                offset: 900,
                len: 77,
                raw_stored: false,
                delta: Some((41, 3)),
            },
            Location::Dup {
                hash: 0xdead_beef_cafe_f00d,
                delta: None,
            },
            Location::Dup {
                hash: 1,
                delta: Some((7, 3)),
            },
        ] {
            assert_eq!(Location::parse(&loc.render()), Ok(loc));
        }
    }

    #[test]
    fn location_render_is_the_golden_grammar() {
        let seg = |raw_stored, delta| Location::Segment {
            seg: 7,
            offset: 1234,
            len: 56,
            raw_stored,
            delta,
        };
        assert_eq!(seg(false, None).render(), "@7:1234:56");
        assert_eq!(seg(true, None).render(), "@7:1234:56:r");
        assert_eq!(seg(false, Some((41, 3))).render(), "@7:1234:56:d41:3");
        let dup = |delta| Location::Dup { hash: 0xabc, delta };
        assert_eq!(dup(None).render(), "@dup:0000000000000abc");
        assert_eq!(dup(Some((7, 2))).render(), "@dup:0000000000000abc:d7:2");
    }

    #[test]
    fn locations_outside_the_grammar_are_errors_naming_the_line() {
        for bad in [
            "sb_0.000001",
            "sb.000001",
            "",
            "@",
            "@1:2",
            "@1:2:x",
            "@a:b:c",
            "@1:2:3:z",
            "@1:2:3:x",
            "@1:2:3:d",
            "@1:2:3:dx:1",
            "@1:2:3:d4:x",
            "@1:2:3:d:4",
            "@1:2:3:d4:5:6",
            "@1:2:3:r:d4:5",
            "@dup:",
            "@dup:xyz",
            "@dup:zz",
            "@dup:0123:d:2",
            "@dup:0123:x7:2",
            "@dup:0123:d7",
        ] {
            let detail = Location::parse(bad).expect_err(bad);
            assert!(detail.contains(&format!("{bad:?}")), "{detail}");
            // A CRC-valid line carrying it fails with the line number.
            let payload = format!("sb_0\t3\t{bad}\t10\t99");
            let line = format!("{payload}\t{}", crc32(payload.as_bytes()));
            match parse_line(&line, 17) {
                Err(StoreError::BadManifest(d)) => {
                    assert!(d.starts_with("line 17: bad location"), "{d}")
                }
                other => panic!("{bad:?}: expected BadManifest, got {other:?}"),
            }
        }
    }
}
