//! Tier attachments: the shared dedup arena and the cold-tier spool.
//!
//! Both are named by pointer files in the store root (`DEDUP`, `SPOOL`),
//! so reopens — and read-only inspections — resolve `@dup` references and
//! demoted segments transparently. Sealed segments ship to the spool in
//! the background (see the write path), demotion drops local copies once
//! a verified cold copy exists, and the buffer pool faults demoted
//! segments back on read.

use super::manifest::Location;
use super::segment::{read_trailer_footer_len, scan_segment_dir};
use super::{CheckpointStore, StoreError};
use crate::dedup::DedupIndex;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Pointer file (store root) naming the shared dedup arena directory.
pub(crate) const DEDUP_POINTER_FILE: &str = "DEDUP";
/// Pointer file (store root) naming the cold-tier spool directory.
pub(crate) const SPOOL_POINTER_FILE: &str = "SPOOL";

/// Tiered-storage counters (all monotonic; surfaced via `StoreStats`).
#[derive(Default)]
pub(crate) struct TierCounters {
    /// Segment reads served by faulting bytes back from the spool tier.
    pub(crate) cold_reads: AtomicU64,
    /// Sealed segments whose local copy was dropped after a verified
    /// durable spool copy existed.
    pub(crate) demotions: AtomicU64,
    /// Stages that resolved to an existing dedup blob instead of new bytes.
    pub(crate) dedup_hits: AtomicU64,
}

/// Reads a tier pointer file (`DEDUP` / `SPOOL`): the trimmed contents
/// name a directory, resolved against the store root when relative.
pub(crate) fn read_pointer_file(root: &Path, name: &str) -> Option<PathBuf> {
    let text = fs::read_to_string(root.join(name)).ok()?;
    let trimmed = text.trim();
    if trimmed.is_empty() {
        return None;
    }
    let p = PathBuf::from(trimmed);
    Some(if p.is_absolute() { p } else { root.join(p) })
}

impl CheckpointStore {
    /// Attaches a cold-tier spool directory: freshly sealed segments ship
    /// there in the background, [`CheckpointStore::demote_cold_segments`]
    /// may drop local copies, and reads fault demoted segments back
    /// through the buffer pool. Persisted via a `SPOOL` pointer file so
    /// reopens resolve demoted segments transparently.
    pub fn attach_spool(&self, dir: impl Into<PathBuf>) -> Result<(), StoreError> {
        self.ensure_writable()?;
        let dir = dir.into();
        fs::create_dir_all(dir.join("segments"))?;
        fs::write(
            self.root.join(SPOOL_POINTER_FILE),
            format!("{}\n", dir.display()),
        )?;
        *self.spool_dir.write() = Some(dir);
        Ok(())
    }

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

    /// Demotes sealed local segments to the spool tier until local
    /// segment bytes fit `hot_budget_bytes`, oldest segment first. Each
    /// victim's spool copy is made durable (shipped now if the background
    /// ship hasn't landed) and length-verified *before* the local file is
    /// deleted, so a crash at any point leaves every segment readable
    /// from at least one tier. Returns the demoted segment ids.
    pub fn demote_cold_segments(&self, hot_budget_bytes: u64) -> Result<Vec<u64>, StoreError> {
        self.ensure_writable()?;
        let Some(spool) = self.spool_dir.read().clone() else {
            return Ok(Vec::new());
        };
        let mut span = flor_obs::span(flor_obs::Category::Tier, "demote_cold_segments");
        // Writers park while segments move between tiers (same total
        // order as compaction).
        let w = self.writer.lock();
        let active_id = w.as_ref().map(|a| a.id);
        let local = scan_segment_dir(&self.seg_dir())?.segments;
        let mut resident: u64 = local.iter().map(|(_, len)| len).sum();
        let mut demoted = Vec::new();
        for (id, len) in local {
            if resident <= hot_budget_bytes {
                break;
            }
            if Some(id) == active_id {
                continue;
            }
            let path = self.segment_path(id);
            // Only sealed (footer-bearing) segments demote: an unsealed
            // one may belong to a crashed writer session and compaction
            // owns its fate.
            let Ok(Some(_)) = read_trailer_footer_len(&path, len) else {
                continue;
            };
            // A no-op when the background ship already landed a full-length
            // cold copy; otherwise (re-)ships it durably first.
            crate::spool::ship_segment_file(&spool, id, &path)?;
            fs::remove_file(&path)?;
            resident -= len;
            self.tier.demotions.fetch_add(1, Ordering::Relaxed);
            flor_obs::counter!("store.tier_demotions").inc();
            demoted.push(id);
        }
        drop(w);
        span.set_args(demoted.len() as u64, resident);
        Ok(demoted)
    }

    /// Segment ids resident in the spool tier (shipped copies, demoted or
    /// not). Operator/introspection surface.
    pub fn cold_segment_ids(&self) -> Vec<u64> {
        let Some(spool) = self.spool_dir.read().clone() else {
            return Vec::new();
        };
        let cold = scan_segment_dir(&spool.join("segments")).unwrap_or_default();
        cold.segments.into_iter().map(|(id, _)| id).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{incompressible, tmpdir};
    use super::super::StoreOptions;
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

    #[test]
    fn demoted_segments_fault_back_from_spool() {
        let dir = tmpdir("tier-demote");
        let spool = tmpdir("tier-demote-spool");
        let opts = StoreOptions {
            segment_target_bytes: 1, // seal after every commit
            delta_keyframe_interval: 0,
            ..StoreOptions::default()
        };
        let store = CheckpointStore::open_opts(&dir, opts).unwrap();
        store.attach_spool(&spool).unwrap();
        let payload = |seq: u64| incompressible(4096, seq as u32 + 21);
        for seq in 0..4u64 {
            store.put("sb_0", seq, &payload(seq)).unwrap();
        }
        // Demote everything sealed; every payload must still read, served
        // by fault-back from the cold tier.
        let demoted = store.demote_cold_segments(0).unwrap();
        assert!(demoted.len() >= 3, "{demoted:?}");
        for id in &demoted {
            assert!(!dir.join("seg").join(format!("{id:08}.seg")).exists());
            assert!(spool.join("segments").join(format!("{id:08}.seg")).exists());
        }
        for seq in 0..4u64 {
            assert_eq!(store.get("sb_0", seq).unwrap(), payload(seq));
        }
        let s = store.stats();
        assert!(s.tier_demotions >= 3, "{s:?}");
        assert!(s.tier_cold_reads >= 1, "{s:?}");
        assert!(s.tier_cold_segments >= 3, "{s:?}");

        // Reopen: cold segments are resolvable (not "missing"), and reads
        // still fault back.
        drop(store);
        let store = CheckpointStore::open(&dir).unwrap();
        assert!(store.recovery_report().missing_entries.is_empty());
        for seq in 0..4u64 {
            assert_eq!(store.get("sb_0", seq).unwrap(), payload(seq));
        }
    }

    #[test]
    fn demotion_never_leaves_a_segment_unreadable() {
        // Simulate the crash window: a cold copy exists but the local file
        // was not yet deleted (ship landed, crash before remove). Demote
        // again — must verify, not re-ship, and still delete exactly once.
        let dir = tmpdir("tier-crashwin");
        let spool = tmpdir("tier-crashwin-spool");
        let opts = StoreOptions {
            segment_target_bytes: 1,
            delta_keyframe_interval: 0,
            ..StoreOptions::default()
        };
        let store = CheckpointStore::open_opts(&dir, opts).unwrap();
        store.attach_spool(&spool).unwrap();
        store.put("sb_0", 0, &incompressible(4096, 5)).unwrap();
        store.put("sb_0", 1, &incompressible(4096, 6)).unwrap();
        // Corrupt (truncate) a pre-existing cold copy: demotion must
        // detect the length mismatch and re-ship before deleting local.
        let cold0 = spool.join("segments").join("00000000.seg");
        // Wait for any background ship of segment 0, then truncate it.
        for _ in 0..200 {
            if cold0.exists() {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        if cold0.exists() {
            let data = fs::read(&cold0).unwrap();
            fs::write(&cold0, &data[..data.len() / 2]).unwrap();
        }
        let demoted = store.demote_cold_segments(0).unwrap();
        assert!(demoted.contains(&0), "{demoted:?}");
        assert_eq!(store.get("sb_0", 0).unwrap(), incompressible(4096, 5));
    }
}
