//! The on-disk checkpoint store — a segmented storage engine with one
//! write layout, one encoder, and one read path.
//!
//! One store per recorded run. Layout under the root directory:
//!
//! ```text
//! root/
//!   MANIFEST              one CRC'd line per checkpoint (the authoritative
//!                         index): block, seq, location, sizes, checksums
//!   seg/<NNNNNNNN>.seg    append-only segment files packing many checkpoint
//!                         payloads, each self-described by a footer index
//!   artifacts/<name>      named artifacts (recorded source, record logs)
//!   DEDUP                 optional pointer file naming the shared dedup
//!                         arena
//! ```
//!
//! A checkpoint's bytes live in one of two tiers: a slice of a mapped
//! local segment, or a blob in the dedup arena.
//!
//! A checkpoint's location is `@<seg>:<off>:<len>[:r|:d<base>:<depth>]` —
//! a payload slice inside a segment (`:r` = stored uncompressed,
//! `:d<base>:<depth>` = a delta frame against the same block's seq
//! `<base>`) — or `@dup:<hash>[:d<base>:<depth>]`, a reference into the
//! shared content-addressed arena. Nothing else parses: a manifest line
//! with any other location is [`StoreError::BadManifest`], because
//! guessing at a corrupt line would turn corruption into silent
//! re-execution — the one thing this store must never do.
//!
//! The engine is split along its seams, each module documenting its own
//! contract:
//!
//! | module | owns |
//! |---|---|
//! | `options` | [`StoreOptions`], [`Durability`] |
//! | `manifest` | the line format, the location grammar, append + atomic rewrite |
//! | `recovery` | open-time load, missing-data detection, [`RecoveryReport`] |
//! | `index` | the sharded in-memory `(block, seq)` index |
//! | `segment` | segment entry/footer/trailer bytes, `<id>.seg` naming |
//! | `pool` | the mmap-backed segment buffer pool and its heap fallback |
//! | `read` | zero-copy [`CheckpointStore::get_bytes`], delta-chain resolution, [`ReadCursor`] |
//! | `write` | [`WriteBatch`] group commit, the delta-encode policy |
//! | `compact` | compaction / GC, [`CompactionReport`] |
//! | `tier` | dedup-arena attachment, the `DEDUP` pointer file ([`write_dedup_pointer`]), reference accounting |
//! | `stats` | [`StoreStats`] |
//!
//! Every read is CRC-verified, so corruption surfaces as
//! [`StoreError::Corrupt`] instead of silent replay anomalies.

mod compact;
mod crc;
mod index;
mod manifest;
mod options;
mod pool;
mod read;
mod recovery;
mod segment;
mod stats;
#[cfg(test)]
mod testutil;
mod tier;
mod write;

pub use compact::CompactionReport;
pub use crc::crc32;
pub use manifest::write_atomic;
pub use options::{
    Durability, StoreOptions, DEFAULT_DELTA_KEYFRAME_INTERVAL, DEFAULT_DELTA_MIN_BYTES,
    DEFAULT_SEGMENT_TARGET_BYTES,
};
pub use read::ReadCursor;
pub use recovery::{MissingEntry, RecoveryReport};
pub use segment::{read_segment_footer, SegmentIndexEntry};
pub use stats::{StoreStats, CHAIN_DEPTH_BUCKETS};
pub use tier::write_dedup_pointer;
pub use write::WriteBatch;

use crate::dedup::DedupIndex;
use parking_lot::{Mutex, RwLock};
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

/// Store failure.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// No checkpoint for the requested block/seq.
    Missing {
        /// Requested block id.
        block_id: String,
        /// Requested sequence number.
        seq: u64,
    },
    /// Entry exists but its payload fails CRC, bounds, or decompression.
    Corrupt {
        /// Affected block id.
        block_id: String,
        /// Affected sequence number.
        seq: u64,
        /// Detail.
        detail: String,
    },
    /// Malformed manifest.
    BadManifest(String),
    /// Write attempted on a store opened read-only.
    ReadOnly,
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store io error: {e}"),
            StoreError::Missing { block_id, seq } => {
                write!(f, "no checkpoint for block {block_id:?} seq {seq}")
            }
            StoreError::Corrupt {
                block_id,
                seq,
                detail,
            } => {
                write!(f, "corrupt checkpoint {block_id:?}.{seq}: {detail}")
            }
            StoreError::BadManifest(d) => write!(f, "bad manifest: {d}"),
            StoreError::ReadOnly => write!(f, "store opened read-only"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// Metadata of one stored checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CkptMeta {
    /// SkipBlock id.
    pub block_id: String,
    /// Execution sequence number of this block (0-based).
    pub seq: u64,
    /// Stored (compressed, delta-framed, or raw when incompressible)
    /// payload size.
    pub stored_bytes: u64,
    /// Uncompressed payload size.
    pub raw_bytes: u64,
    /// Delta-chain depth this checkpoint landed at (0 = full keyframe).
    pub chain_depth: u32,
}

/// An on-disk checkpoint store (thread-safe; background materializer workers
/// share it, and `flor-registry` pools one open handle per run — all clones
/// of a pooled `Arc<CheckpointStore>` share the same manifest appender,
/// active segment, and segment buffer pool).
pub struct CheckpointStore {
    root: PathBuf,
    opts: StoreOptions,
    index: index::Index,
    manifest: manifest::ManifestFile,
    /// The active segment of this writer session; also the lock that
    /// serializes writers against compaction.
    writer: Mutex<Option<write::ActiveSegment>>,
    next_seg: AtomicU64,
    pool: pool::SegmentPool,
    /// Shared content-addressed keyframe arena, when a `DEDUP` pointer
    /// file (written by the registry at claim time) names one.
    dedup: RwLock<Option<Arc<DedupIndex>>>,
    /// Stages that resolved to an existing dedup blob instead of new bytes.
    dedup_hits: AtomicU64,
    delta_write: write::DeltaWriteState,
    reads: read::ReadCounters,
    gc: compact::CompactionCounters,
    recovery: RecoveryReport,
}

impl CheckpointStore {
    /// Creates (or opens) a store rooted at `root` with default options
    /// ([`Durability::Buffered`]).
    pub fn open(root: impl Into<PathBuf>) -> Result<Self, StoreError> {
        Self::open_opts(root, StoreOptions::default())
    }

    /// Creates (or opens) a store with an explicit durability policy.
    pub fn open_with(root: impl Into<PathBuf>, durability: Durability) -> Result<Self, StoreError> {
        Self::open_opts(
            root,
            StoreOptions {
                durability,
                ..StoreOptions::default()
            },
        )
    }

    /// Opens a store for inspection only: nothing on disk is created,
    /// repaired, or deleted, and every write API fails with
    /// [`StoreError::ReadOnly`]. Safe to run against a store another
    /// process is actively recording into.
    pub fn open_read_only(root: impl Into<PathBuf>) -> Result<Self, StoreError> {
        Self::open_opts(
            root,
            StoreOptions {
                read_only: true,
                ..StoreOptions::default()
            },
        )
    }

    /// Creates (or opens) a store with explicit [`StoreOptions`].
    pub fn open_opts(root: impl Into<PathBuf>, opts: StoreOptions) -> Result<Self, StoreError> {
        let root = root.into();
        if opts.read_only {
            // Inspection of a path that holds no store must error, not
            // report a clean empty store — "entries: 0, recovery: clean"
            // for a typo'd path would read as data loss.
            if !root.join("MANIFEST").exists() && !root.join("seg").is_dir() {
                return Err(StoreError::Io(std::io::Error::new(
                    std::io::ErrorKind::NotFound,
                    format!("no checkpoint store at {}", root.display()),
                )));
            }
        } else {
            fs::create_dir_all(root.join("seg"))?;
            fs::create_dir_all(root.join("artifacts"))?;
        }
        let mut store = CheckpointStore {
            index: index::Index::new(),
            manifest: manifest::ManifestFile::new(&root),
            root,
            opts,
            writer: Mutex::new(None),
            next_seg: AtomicU64::new(0),
            pool: pool::SegmentPool::default(),
            dedup: RwLock::new(None),
            dedup_hits: AtomicU64::new(0),
            delta_write: write::DeltaWriteState::default(),
            reads: read::ReadCounters::default(),
            gc: compact::CompactionCounters::default(),
            recovery: RecoveryReport::default(),
        };
        // The arena attaches before the manifest loads: dedup entries need
        // it to restore at all. A named-but-unopenable arena is a loud
        // failure — silently dropping it would turn every dup entry into
        // read-time corruption.
        if let Some(dir) = tier::read_dedup_pointer(&store.root) {
            *store.dedup.get_mut() = Some(DedupIndex::open(&dir)?);
        }
        store.recovery = store.load_manifest()?;
        Ok(store)
    }

    /// Store root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The durability policy this store was opened with.
    pub fn durability(&self) -> Durability {
        self.opts.durability
    }

    /// What open-time recovery found (missing data, orphans, repairs).
    pub fn recovery_report(&self) -> &RecoveryReport {
        &self.recovery
    }

    fn seg_dir(&self) -> PathBuf {
        self.root.join("seg")
    }

    fn segment_path(&self, seg: u64) -> PathBuf {
        self.seg_dir().join(segment::segment_file_name(seg))
    }

    /// Errors when this handle was opened read-only.
    fn ensure_writable(&self) -> Result<(), StoreError> {
        if self.opts.read_only {
            return Err(StoreError::ReadOnly);
        }
        Ok(())
    }

    // ---- index accessors ---------------------------------------------------

    /// True if a checkpoint exists for `(block_id, seq)`.
    pub fn contains(&self, block_id: &str, seq: u64) -> bool {
        self.index.contains(block_id, seq)
    }

    /// Number of checkpoints stored for a block.
    pub fn count(&self, block_id: &str) -> u64 {
        self.index.count(block_id)
    }

    /// Highest stored sequence number for a block, if any.
    pub fn latest_seq(&self, block_id: &str) -> Option<u64> {
        self.index.latest_seq(block_id)
    }

    /// All `(block_id, seq)` pairs, sorted.
    pub fn entries(&self) -> Vec<(String, u64)> {
        let mut all: Vec<(String, u64)> = Vec::new();
        self.index
            .for_each(|block, seq, _| all.push((block.to_string(), seq)));
        all.sort();
        all
    }

    /// Total stored payload bytes across all checkpoints. O(1): a running
    /// counter maintained on put.
    pub fn total_stored_bytes(&self) -> u64 {
        self.index.stored_bytes()
    }

    /// Total uncompressed bytes across all checkpoints. O(1), same scheme.
    pub fn total_raw_bytes(&self) -> u64 {
        self.index.raw_bytes()
    }

    // ---- named artifacts ---------------------------------------------------

    /// Writes a named artifact (recorded source, record logs).
    pub fn put_artifact(&self, name: &str, bytes: &[u8]) -> Result<(), StoreError> {
        self.ensure_writable()?;
        assert!(
            !name.contains(['/', '\\']),
            "artifact name {name:?} must be flat"
        );
        fs::write(self.root.join("artifacts").join(name), bytes)?;
        Ok(())
    }

    /// Reads a named artifact.
    pub fn get_artifact(&self, name: &str) -> Result<Vec<u8>, StoreError> {
        Ok(fs::read(self.root.join("artifacts").join(name))?)
    }

    /// True if the named artifact exists.
    pub fn has_artifact(&self, name: &str) -> bool {
        self.root.join("artifacts").join(name).exists()
    }
}

impl Drop for CheckpointStore {
    fn drop(&mut self) {
        // Best-effort seal so cleanly closed stores leave self-describing
        // segments; an unsealed segment is still fully usable.
        let _ = self.seal_active_segment();
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::tmpdir;
    use super::*;

    #[test]
    fn a_fresh_store_root_holds_only_seg_and_artifacts() {
        let dir = tmpdir("fresh-layout");
        let store = CheckpointStore::open(&dir).unwrap();
        store.put("sb_0", 0, b"x").unwrap();
        drop(store);
        let mut names: Vec<String> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        assert_eq!(names, ["MANIFEST", "artifacts", "seg"]);
    }

    #[test]
    fn artifacts_roundtrip() {
        let store = CheckpointStore::open(tmpdir("artifacts")).unwrap();
        store.put_artifact("source.flr", b"import flor\n").unwrap();
        assert!(store.has_artifact("source.flr"));
        assert_eq!(store.get_artifact("source.flr").unwrap(), b"import flor\n");
        assert!(!store.has_artifact("nope"));
    }
}
