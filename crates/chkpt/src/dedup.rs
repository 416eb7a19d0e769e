//! Registry-wide content-addressed keyframe dedup.
//!
//! Sweep-style workloads re-record near-identical models across runs and
//! generations; without dedup every run pays full storage for payloads
//! that are byte-identical to a sibling run's. A [`DedupIndex`] is a
//! shared *blob arena* (one per registry, pointed at by a `DEDUP` pointer
//! file in each store root): stores hash each candidate's **stored
//! representation** (the post-arbitration bytes — compressed keyframe,
//! raw payload, or delta frame) and, on a verified hit, write a MANIFEST
//! v4 `@dup:<hash>` reference entry instead of duplicate segment bytes.
//!
//! ## Layout
//!
//! ```text
//! <arena>/
//!   DEDUPLOG                 # refcount log: "D1\t<crc32>\t<payload>" lines
//!   blobs/<hash:016x>.blob   # one content-addressed stored payload each
//! ```
//!
//! A blob file is `FLRBLOB1 | flags u8 | raw_len u64 LE | payload_crc u32
//! LE | stored bytes` — self-describing, so reads never depend on the
//! in-memory index.
//!
//! ## Read contract
//!
//! [`DedupIndex::read_stored`] is zero-copy, like a segment read: the
//! returned `Bytes` is a slice, past the header, of a read-only mapping of
//! the blob file (heap only where mapping is refused — counted in
//! `store.mmap_fallbacks`). Blobs are written once through temp + rename
//! and never rewritten, so a mapping cannot see its file shrink; the
//! mapping is dropped with the last `Bytes` of it and nothing is pooled,
//! so resident memory does not grow with the working set, and a blob
//! unlinked by retention stays readable for whoever still holds it. The
//! content hash is checked on a blob's **first read per process** (a bit
//! in its slot; `dedup.hash_verifies` counts them) — it guards the
//! name → content binding, which cannot change under an immutable file.
//! Bit rot after that is the payload CRC's job, and the store checks that
//! on every read.
//!
//! ## Refcount contract
//!
//! Every manifest `@dup` reference corresponds to one `+` op in the
//! DEDUPLOG, *appended and synced before* the manifest line is written.
//! Retention appends a `-` op (synced) before deleting a pruned run's
//! directory, and a blob is unlinked only when its count reaches zero.
//! Crash ordering therefore only ever *over-counts* (a synced `+` whose
//! manifest line was lost leaks one reference — bytes, never
//! correctness); it can never under-count, so pruning one run can never
//! sever a surviving run's base. The log recovers like the run catalog:
//! a torn final line is dropped and rewritten away, interior corruption
//! is a loud error.
//!
//! ## Collisions
//!
//! The content address is FNV-1a 64 of the stored bytes, but a hit is
//! honored only when the candidate's full meta — stored length, stored
//! CRC32, raw length, raw-payload CRC32, and flags — matches the indexed
//! blob. A false positive needs a simultaneous FNV-64 + CRC32 + length
//! collision; on mismatch the store simply keeps its private copy (dedup
//! is an optimization, never a correctness dependency).

use std::collections::HashMap;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, Weak};

use bytes::{Buf, Bytes};

use crate::mmap::load_file;
use crate::store::{crc32, write_atomic};

/// Blob file magic.
const BLOB_MAGIC: &[u8; 8] = b"FLRBLOB1";
/// Blob header: magic (8) + flags (1) + raw_len (8) + payload_crc (4).
const BLOB_HEADER_BYTES: usize = 8 + 1 + 8 + 4;
/// Refcount log file name within the arena.
const LOG_NAME: &str = "DEDUPLOG";
/// Log record version tag.
const LOG_TAG: &str = "D1";

/// FNV-1a 64 — same constants as `flor_core::record::fnv1a64` (the
/// registry's content-address hash), restated here because `flor-core`
/// depends on this crate, not the other way around.
pub fn fnv1a64(data: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Everything needed to verify a dedup hit and to reconstruct a store
/// index entry from a reference: the identity of the *stored* bytes plus
/// the payload-level meta the manifest also carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlobMeta {
    /// Stored (post-arbitration) byte length.
    pub stored_len: u64,
    /// CRC32 of the stored bytes.
    pub stored_crc: u32,
    /// Uncompressed payload length.
    pub raw_len: u64,
    /// CRC32 of the uncompressed payload.
    pub payload_crc: u32,
    /// Segment-entry flags of the stored representation (raw/delta).
    pub flags: u8,
}

struct Slot {
    meta: BlobMeta,
    refs: i64,
    /// The blob file's bytes were hashed against its name by a read in
    /// this process (see the module docs' read contract).
    verified: bool,
}

struct Inner {
    slots: HashMap<u64, Slot>,
    appender: Option<fs::File>,
    /// Appends since the last [`DedupIndex::sync`].
    dirty: bool,
}

/// Outcome of [`DedupIndex::intern`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Interned {
    /// The bytes were already in the arena; a reference was acquired.
    Hit,
    /// First occurrence: the blob was written and a reference acquired.
    Inserted,
    /// Hash present but meta mismatched (collision) — the caller must
    /// store its own copy.
    Collision,
}

/// A shared content-addressed blob arena with a persistent refcount log.
/// One instance per arena directory per process (see [`DedupIndex::open`]);
/// stores clone the `Arc`.
pub struct DedupIndex {
    dir: PathBuf,
    inner: Mutex<Inner>,
    /// Content-hash checks performed by [`DedupIndex::read_stored`].
    hash_verifies: AtomicU64,
}

/// Process-wide instance cache: two stores attaching the same arena must
/// share one in-memory refcount map, or their views would diverge.
fn instances() -> &'static Mutex<HashMap<PathBuf, Weak<DedupIndex>>> {
    static INSTANCES: OnceLock<Mutex<HashMap<PathBuf, Weak<DedupIndex>>>> = OnceLock::new();
    INSTANCES.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Arena I/O failure.
pub type DedupError = std::io::Error;

fn corrupt(msg: String) -> DedupError {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg)
}

impl DedupIndex {
    /// Opens (or creates) the arena at `dir`, replaying the refcount log.
    /// Returns the process-shared instance for that directory if one is
    /// already live.
    pub fn open(dir: &Path) -> Result<Arc<DedupIndex>, DedupError> {
        let mut live = instances().lock().unwrap();
        // Key by absolute path so relative and absolute spellings share.
        let key = if dir.is_absolute() {
            dir.to_path_buf()
        } else {
            std::env::current_dir()?.join(dir)
        };
        if let Some(idx) = live.get(&key).and_then(Weak::upgrade) {
            return Ok(idx);
        }
        fs::create_dir_all(dir.join("blobs"))?;
        let slots = Self::replay_log(dir)?;
        let idx = Arc::new(DedupIndex {
            dir: dir.to_path_buf(),
            inner: Mutex::new(Inner {
                slots,
                appender: None,
                dirty: false,
            }),
            hash_verifies: AtomicU64::new(0),
        });
        // Sweep blobs that are unreferenced (a crash between the synced
        // final `-` op and the unlink leaves the file behind) or entirely
        // unknown to the log (a crash before the first `+` was synced).
        idx.sweep_orphans();
        live.insert(key, Arc::downgrade(&idx));
        Ok(idx)
    }

    /// Arena root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn blob_path(&self, hash: u64) -> PathBuf {
        self.dir.join("blobs").join(format!("{hash:016x}.blob"))
    }

    fn log_payload(op: char, hash: u64, meta: &BlobMeta) -> String {
        format!(
            "{op}\t{hash:016x}\t{}\t{:08x}\t{}\t{:08x}\t{}",
            meta.stored_len, meta.stored_crc, meta.raw_len, meta.payload_crc, meta.flags
        )
    }

    fn parse_payload(payload: &str) -> Option<(char, u64, BlobMeta)> {
        let parts: Vec<&str> = payload.split('\t').collect();
        let [op, hash, stored_len, stored_crc, raw_len, payload_crc, flags] = parts.as_slice()
        else {
            return None;
        };
        let op = match *op {
            "+" => '+',
            "-" => '-',
            _ => return None,
        };
        Some((
            op,
            u64::from_str_radix(hash, 16).ok()?,
            BlobMeta {
                stored_len: stored_len.parse().ok()?,
                stored_crc: u32::from_str_radix(stored_crc, 16).ok()?,
                raw_len: raw_len.parse().ok()?,
                payload_crc: u32::from_str_radix(payload_crc, 16).ok()?,
                flags: flags.parse().ok()?,
            },
        ))
    }

    /// Replays the DEDUPLOG into a refcount map. Torn-tail handling
    /// mirrors the run catalog: a final line that is unterminated or
    /// fails its CRC is dropped (and rewritten away); a bad *interior*
    /// line is corruption and errors loudly.
    fn replay_log(dir: &Path) -> Result<HashMap<u64, Slot>, DedupError> {
        let path = dir.join(LOG_NAME);
        let text = match fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(HashMap::new()),
            Err(e) => return Err(e),
        };
        let mut slots: HashMap<u64, Slot> = HashMap::new();
        let mut kept_len = 0usize;
        let mut torn = false;
        let mut lines = text.split_inclusive('\n').peekable();
        while let Some(line) = lines.next() {
            let last = lines.peek().is_none();
            let terminated = line.ends_with('\n');
            let body = line.trim_end_matches('\n');
            let parsed = Self::parse_line(body);
            match parsed {
                Some((op, hash, meta)) if terminated => {
                    kept_len += line.len();
                    let slot = slots.entry(hash).or_insert(Slot {
                        meta,
                        refs: 0,
                        verified: false,
                    });
                    match op {
                        '+' => {
                            // First `+` fixes the meta; later ops must agree
                            // (they describe the same immutable blob).
                            if slot.refs == 0 {
                                slot.meta = meta;
                            }
                            slot.refs += 1;
                        }
                        _ => slot.refs -= 1,
                    }
                }
                _ if last => {
                    // Torn tail (unterminated, short, or CRC-failed final
                    // line): drop it.
                    torn = true;
                }
                _ => {
                    return Err(corrupt(format!(
                        "dedup log {}: corrupt interior line {:?}",
                        path.display(),
                        &body[..body.len().min(80)]
                    )));
                }
            }
        }
        if torn {
            write_atomic(&path, &text.as_bytes()[..kept_len])?;
        }
        slots.retain(|_, s| s.refs > 0);
        Ok(slots)
    }

    fn parse_line(body: &str) -> Option<(char, u64, BlobMeta)> {
        let rest = body.strip_prefix(LOG_TAG)?.strip_prefix('\t')?;
        let (crc_hex, payload) = rest.split_once('\t')?;
        let crc = u32::from_str_radix(crc_hex, 16).ok()?;
        if crc32(payload.as_bytes()) != crc {
            return None;
        }
        Self::parse_payload(payload)
    }

    /// Unlinks blob files whose hash has no positive refcount.
    fn sweep_orphans(&self) {
        let inner = self.inner.lock().unwrap();
        let Ok(rd) = fs::read_dir(self.dir.join("blobs")) else {
            return;
        };
        for entry in rd.flatten() {
            let name = entry.file_name();
            let name = name.to_string_lossy();
            let Some(hex) = name.strip_suffix(".blob") else {
                continue;
            };
            let Ok(hash) = u64::from_str_radix(hex, 16) else {
                continue;
            };
            if !inner.slots.contains_key(&hash) {
                let _ = fs::remove_file(entry.path());
            }
        }
    }

    fn append(&self, inner: &mut Inner, line: String) -> Result<(), DedupError> {
        if inner.appender.is_none() {
            inner.appender = Some(
                fs::OpenOptions::new()
                    .append(true)
                    .create(true)
                    .open(self.dir.join(LOG_NAME))?,
            );
        }
        inner
            .appender
            .as_mut()
            .unwrap()
            .write_all(line.as_bytes())?;
        inner.dirty = true;
        Ok(())
    }

    fn render_line(op: char, hash: u64, meta: &BlobMeta) -> String {
        let payload = Self::log_payload(op, hash, meta);
        format!("{LOG_TAG}\t{:08x}\t{payload}\n", crc32(payload.as_bytes()))
    }

    /// Content address of a stored representation.
    pub fn hash_of(stored: &[u8]) -> u64 {
        fnv1a64(stored)
    }

    /// Interns `stored` under `hash`: acquires a reference on a verified
    /// hit, writes the blob and acquires on a miss, reports a collision
    /// (caller keeps its own copy) on meta mismatch. The `+` op is
    /// appended to the log but **not yet synced** — callers must
    /// [`DedupIndex::sync`] before persisting any reference to it.
    pub fn intern(&self, hash: u64, meta: BlobMeta, stored: &[u8]) -> Result<Interned, DedupError> {
        let mut inner = self.inner.lock().unwrap();
        match inner.slots.get(&hash) {
            Some(slot) if slot.meta == meta => {
                self.append(&mut inner, Self::render_line('+', hash, &meta))?;
                inner.slots.get_mut(&hash).unwrap().refs += 1;
                flor_obs::counter!("dedup.hits").add(1);
                Ok(Interned::Hit)
            }
            Some(_) => {
                flor_obs::counter!("dedup.collisions").add(1);
                Ok(Interned::Collision)
            }
            None => {
                let mut blob = Vec::with_capacity(BLOB_HEADER_BYTES + stored.len());
                blob.extend_from_slice(BLOB_MAGIC);
                blob.push(meta.flags);
                blob.extend_from_slice(&meta.raw_len.to_le_bytes());
                blob.extend_from_slice(&meta.payload_crc.to_le_bytes());
                blob.extend_from_slice(stored);
                write_atomic(&self.blob_path(hash), &blob)?;
                self.append(&mut inner, Self::render_line('+', hash, &meta))?;
                inner.slots.insert(
                    hash,
                    Slot {
                        meta,
                        refs: 1,
                        verified: false,
                    },
                );
                flor_obs::counter!("dedup.inserts").add(1);
                Ok(Interned::Inserted)
            }
        }
    }

    /// Syncs pending log appends to disk. Must complete before any
    /// manifest line referencing a freshly interned blob is written — the
    /// over-count-only crash guarantee depends on this ordering.
    pub fn sync(&self) -> Result<(), DedupError> {
        let mut inner = self.inner.lock().unwrap();
        if inner.dirty {
            if let Some(f) = inner.appender.as_mut() {
                f.sync_data()?;
            }
            inner.dirty = false;
        }
        Ok(())
    }

    /// Releases one reference to `hash` (a pruned run's manifest entry).
    /// The `-` op is synced before the blob is unlinked at refcount zero,
    /// so a crash leaves an orphan blob (swept at next open), never a
    /// dangling reference. Unknown hashes are ignored (the reference may
    /// have over-counted away already).
    pub fn release(&self, hash: u64) -> Result<(), DedupError> {
        let mut inner = self.inner.lock().unwrap();
        let Some(slot) = inner.slots.get(&hash) else {
            return Ok(());
        };
        let line = Self::render_line('-', hash, &slot.meta);
        self.append(&mut inner, line)?;
        if let Some(f) = inner.appender.as_mut() {
            f.sync_data()?;
        }
        inner.dirty = false;
        let slot = inner.slots.get_mut(&hash).unwrap();
        slot.refs -= 1;
        if slot.refs <= 0 {
            inner.slots.remove(&hash);
            let _ = fs::remove_file(self.blob_path(hash));
        }
        Ok(())
    }

    /// A blob's stored bytes (zero-copy, see the module docs' read
    /// contract) plus the flags, raw length and payload CRC from its
    /// header. The header is read from the file, never the in-memory
    /// index: reads must work even for references whose `+` op
    /// over-counted away — those simply re-check the hash every time.
    /// Missing or corrupt blobs are loud errors.
    pub fn read_stored(&self, hash: u64) -> Result<(Bytes, u8, u64, u32), DedupError> {
        let path = self.blob_path(hash);
        let mut blob = load_file(&path).map_err(|e| {
            std::io::Error::new(
                e.kind(),
                format!(
                    "dedup blob {hash:016x} unreadable at {}: {e}",
                    path.display()
                ),
            )
        })?;
        let head = blob.as_ref();
        if head.len() < BLOB_HEADER_BYTES || &head[..8] != BLOB_MAGIC {
            return Err(corrupt(format!("dedup blob {hash:016x}: bad header")));
        }
        let flags = head[8];
        let raw_len = u64::from_le_bytes(head[9..17].try_into().unwrap());
        let payload_crc = u32::from_le_bytes(head[17..21].try_into().unwrap());
        blob.advance(BLOB_HEADER_BYTES);
        let verified = {
            let inner = self.inner.lock().unwrap();
            inner.slots.get(&hash).is_some_and(|s| s.verified)
        };
        if !verified {
            self.hash_verifies.fetch_add(1, Ordering::Relaxed);
            flor_obs::counter!("dedup.hash_verifies").inc();
            if fnv1a64(blob.as_ref()) != hash {
                return Err(corrupt(format!(
                    "dedup blob {hash:016x}: stored bytes hash mismatch"
                )));
            }
            if let Some(slot) = self.inner.lock().unwrap().slots.get_mut(&hash) {
                slot.verified = true;
            }
        }
        Ok((blob, flags, raw_len, payload_crc))
    }

    /// Content-hash checks [`DedupIndex::read_stored`] has performed: one
    /// per live blob per process, however often the blob is read.
    pub fn hash_verifies(&self) -> u64 {
        self.hash_verifies.load(Ordering::Relaxed)
    }

    /// Current reference count of `hash` (0 when absent) — test and
    /// retention introspection.
    pub fn refs(&self, hash: u64) -> i64 {
        self.inner
            .lock()
            .unwrap()
            .slots
            .get(&hash)
            .map(|s| s.refs)
            .unwrap_or(0)
    }

    /// Stored byte length of the live blob `hash` (`None` when absent).
    pub fn stored_len(&self, hash: u64) -> Option<u64> {
        let inner = self.inner.lock().unwrap();
        inner.slots.get(&hash).map(|s| s.meta.stored_len)
    }

    /// Number of live (positively referenced) blobs.
    pub fn entries(&self) -> u64 {
        self.inner.lock().unwrap().slots.len() as u64
    }

    /// Total bytes in the blob arena directory.
    pub fn blob_bytes(&self) -> u64 {
        fs::read_dir(self.dir.join("blobs"))
            .map(|rd| {
                rd.flatten()
                    .filter_map(|e| e.metadata().ok())
                    .map(|m| m.len())
                    .sum()
            })
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmparena(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "flor-dedup-test-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn meta_of(stored: &[u8], raw: &[u8]) -> BlobMeta {
        BlobMeta {
            stored_len: stored.len() as u64,
            stored_crc: crc32(stored),
            raw_len: raw.len() as u64,
            payload_crc: crc32(raw),
            flags: 0,
        }
    }

    #[test]
    fn intern_hit_release_lifecycle() {
        let dir = tmparena("lifecycle");
        let idx = DedupIndex::open(&dir).unwrap();
        let stored = vec![42u8; 4096];
        let h = DedupIndex::hash_of(&stored);
        let m = meta_of(&stored, &stored);
        assert_eq!(idx.intern(h, m, &stored).unwrap(), Interned::Inserted);
        assert_eq!(idx.intern(h, m, &stored).unwrap(), Interned::Hit);
        idx.sync().unwrap();
        assert_eq!(idx.refs(h), 2);
        let (bytes, flags, raw_len, _) = idx.read_stored(h).unwrap();
        assert_eq!(bytes, stored);
        assert_eq!(flags, 0);
        assert_eq!(raw_len, 4096);
        idx.release(h).unwrap();
        assert_eq!(idx.refs(h), 1);
        assert!(idx.blob_path(h).exists());
        idx.release(h).unwrap();
        assert_eq!(idx.refs(h), 0);
        assert!(!idx.blob_path(h).exists(), "refcount zero unlinks the blob");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn meta_mismatch_is_a_collision_not_a_hit() {
        let dir = tmparena("collision");
        let idx = DedupIndex::open(&dir).unwrap();
        let stored = b"stored bytes".to_vec();
        let h = DedupIndex::hash_of(&stored);
        let m = meta_of(&stored, b"payload one");
        assert_eq!(idx.intern(h, m, &stored).unwrap(), Interned::Inserted);
        let other = BlobMeta {
            raw_len: m.raw_len + 1,
            ..m
        };
        assert_eq!(idx.intern(h, other, &stored).unwrap(), Interned::Collision);
        assert_eq!(idx.refs(h), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn refcounts_survive_reopen() {
        let dir = tmparena("reopen");
        let stored = vec![7u8; 2048];
        let h = DedupIndex::hash_of(&stored);
        let m = meta_of(&stored, &stored);
        {
            let idx = DedupIndex::open(&dir).unwrap();
            idx.intern(h, m, &stored).unwrap();
            idx.intern(h, m, &stored).unwrap();
            idx.intern(h, m, &stored).unwrap();
            idx.sync().unwrap();
            idx.release(h).unwrap();
        }
        // Drop the process-shared instance so open() replays from disk.
        instances().lock().unwrap().clear();
        let idx = DedupIndex::open(&dir).unwrap();
        assert_eq!(idx.refs(h), 2);
        assert_eq!(idx.read_stored(h).unwrap().0, stored);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_sweeps_unreferenced_blobs() {
        let dir = tmparena("orphan");
        fs::create_dir_all(dir.join("blobs")).unwrap();
        // A blob with no log entry: crash before the first `+` synced.
        fs::write(dir.join("blobs/deadbeefdeadbeef.blob"), b"junk").unwrap();
        let idx = DedupIndex::open(&dir).unwrap();
        assert!(!dir.join("blobs/deadbeefdeadbeef.blob").exists());
        assert_eq!(idx.entries(), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_log_tail_is_dropped_interior_corruption_is_loud() {
        let dir = tmparena("torn");
        let stored = vec![9u8; 128];
        let h = DedupIndex::hash_of(&stored);
        let m = meta_of(&stored, &stored);
        {
            let idx = DedupIndex::open(&dir).unwrap();
            idx.intern(h, m, &stored).unwrap();
            idx.intern(h, m, &stored).unwrap();
            idx.sync().unwrap();
        }
        instances().lock().unwrap().clear();
        let log = dir.join(LOG_NAME);
        let text = fs::read_to_string(&log).unwrap();
        // Truncate mid-final-line: recovered. The dropped final `+` was
        // synced before its manifest line, so that reference was lost
        // with it — refs drops to 1, never below a surviving reference.
        fs::write(&log, &text.as_bytes()[..text.len() - 3]).unwrap();
        let idx = DedupIndex::open(&dir).unwrap();
        assert_eq!(idx.refs(h), 1);
        assert_eq!(idx.read_stored(h).unwrap().0, stored);
        drop(idx);
        instances().lock().unwrap().clear();
        // Corrupt an interior byte of the (rewritten) first line: loud.
        let mut bytes = fs::read(&log).unwrap();
        bytes[8] ^= 0xFF;
        fs::write(&log, &bytes).unwrap();
        // Append a second valid line so the corrupt one is interior.
        let mut f = fs::OpenOptions::new().append(true).open(&log).unwrap();
        f.write_all(DedupIndex::render_line('+', h, &m).as_bytes())
            .unwrap();
        drop(f);
        assert!(DedupIndex::open(&dir).is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn same_dir_opens_share_one_instance() {
        let dir = tmparena("shared");
        let a = DedupIndex::open(&dir).unwrap();
        let b = DedupIndex::open(&dir).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        let _ = fs::remove_dir_all(&dir);
    }
}
