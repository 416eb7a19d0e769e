//! The second tier: the shared content-addressed dedup arena.
//!
//! A store has two places a checkpoint's bytes can live — a payload slice
//! in one of its own mapped `seg/` segments, or a blob in the arena that
//! runs of one registry share (an `@dup` manifest location). The arena is
//! named by a `DEDUP` pointer file in the store root, so reopens — and
//! read-only inspections — resolve `@dup` references transparently.

use super::manifest::Location;
use super::{CheckpointStore, StoreError};
use crate::dedup::DedupIndex;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Pointer file (store root) naming the shared dedup arena directory.
const DEDUP_POINTER_FILE: &str = "DEDUP";

/// Reads the `DEDUP` pointer file: the trimmed contents name the arena
/// directory, resolved against the store root when relative.
pub(crate) fn read_dedup_pointer(root: &Path) -> Option<PathBuf> {
    let text = fs::read_to_string(root.join(DEDUP_POINTER_FILE)).ok()?;
    let trimmed = text.trim();
    if trimmed.is_empty() {
        return None;
    }
    let p = PathBuf::from(trimmed);
    Some(if p.is_absolute() { p } else { root.join(p) })
}

impl CheckpointStore {
    /// Attaches a shared content-addressed dedup arena: subsequent
    /// commits intern keyframe-sized stored payloads there and write
    /// `@dup` reference entries on hits. Persisted via a `DEDUP` pointer
    /// file so reopens (and read-only inspections) resolve references.
    pub fn attach_dedup(&self, dir: impl Into<PathBuf>) -> Result<(), StoreError> {
        self.ensure_writable()?;
        let dir = dir.into();
        let idx = DedupIndex::open(&dir)?;
        fs::write(
            self.root.join(DEDUP_POINTER_FILE),
            format!("{}\n", dir.display()),
        )?;
        *self.dedup.write() = Some(idx);
        Ok(())
    }

    /// The attached dedup arena, if any.
    pub fn dedup_index(&self) -> Option<Arc<DedupIndex>> {
        self.dedup.read().clone()
    }

    /// Content addresses of every live `@dup` reference in this store's
    /// index (with multiplicity). Retention releases each against the
    /// arena before deleting the store directory, so pruning this run can
    /// never sever a surviving run's reference.
    pub fn dedup_references(&self) -> Vec<u64> {
        let mut hashes = Vec::new();
        self.index.for_each(|_, _, e| {
            if let Location::Dup { hash, .. } = &e.loc {
                hashes.push(*hash);
            }
        });
        hashes
    }

    /// Stored bytes of the distinct arena blobs those references point at
    /// — the part of the run's footprint that
    /// [`CheckpointStore::total_stored_bytes`] leaves to the arena.
    pub fn dedup_referenced_bytes(&self) -> u64 {
        let Some(arena) = self.dedup.read().clone() else {
            return 0;
        };
        let distinct: std::collections::HashSet<u64> =
            self.dedup_references().into_iter().collect();
        distinct.iter().filter_map(|h| arena.stored_len(*h)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{incompressible, tmpdir};
    use super::*;

    #[test]
    fn dedup_across_stores_is_byte_identical_and_single_blob() {
        let arena_dir = tmpdir("dedup-arena");
        let dir_a = tmpdir("dedup-a");
        let dir_b = tmpdir("dedup-b");
        let payload = incompressible(8192, 11);

        let a = CheckpointStore::open(&dir_a).unwrap();
        a.attach_dedup(&arena_dir).unwrap();
        a.put("sb_0", 0, &payload).unwrap();
        let sa = a.stats();
        assert_eq!(sa.dedup_entries, 1, "{sa:?}");
        assert_eq!(sa.dedup_hits, 0);

        // A second run records the identical checkpoint: no new blob, a
        // `@dup` reference only.
        let b = CheckpointStore::open(&dir_b).unwrap();
        b.attach_dedup(&arena_dir).unwrap();
        b.put("sb_0", 0, &payload).unwrap();
        let sb = b.stats();
        assert_eq!(sb.dedup_entries, 1, "{sb:?}");
        assert_eq!(sb.dedup_hits, 1);
        assert_eq!(a.dedup_index().unwrap().entries(), 1);

        assert_eq!(a.get("sb_0", 0).unwrap(), payload);
        assert_eq!(b.get("sb_0", 0).unwrap(), payload);
        // The incompressible payload is stored raw, so the `@dup` read is
        // a zero-copy slice of the blob's mapping — and counted as one.
        let zero_copy_before = b.stats().zero_copy_reads;
        let mapped = b.get_bytes("sb_0", 0).unwrap();
        assert_eq!(mapped.as_ref(), &payload[..]);
        let sb = b.stats();
        assert_eq!(sb.zero_copy_reads, zero_copy_before + 1, "{sb:?}");
        assert_eq!(mapped.backing_is_file(), sb.mmap_fallbacks == 0, "{sb:?}");

        // Reopen from disk: the DEDUP pointer file re-attaches the arena
        // and the `@dup` manifest line resolves.
        drop(b);
        let b2 = CheckpointStore::open(&dir_b).unwrap();
        assert_eq!(b2.get("sb_0", 0).unwrap(), payload);
        assert_eq!(b2.dedup_references(), a.dedup_references());

        // Refcounted retention: releasing one run's reference must not
        // sever the other's.
        let arena = a.dedup_index().unwrap();
        let hash = a.dedup_references()[0];
        assert_eq!(arena.refs(hash), 2);
        for h in b2.dedup_references() {
            arena.release(h).unwrap();
        }
        assert_eq!(arena.refs(hash), 1);
        assert_eq!(a.get("sb_0", 0).unwrap(), payload);
    }
}
