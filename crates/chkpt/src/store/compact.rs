//! Compaction / GC.
//!
//! Superseded re-puts and dropped entries leave dead bytes in old
//! segments. [`CheckpointStore::compact`] rewrites every *live* payload
//! into fresh, sealed segments (written to temp siblings, fsynced, renamed
//! in), swaps the MANIFEST atomically, and only then deletes the old
//! segments — so a crash at any byte leaves either the pre-compaction or
//! the post-compaction view, never a store with a live checkpoint
//! missing. Delta-bearing blocks are re-encoded payload-by-payload,
//! folding chains into fresh keyframes when the current policy no longer
//! supports them ([`CompactionReport::chains_folded`]).

use super::index::IndexEntry;
use super::manifest::{write_atomic, Location};
use super::segment::{
    append_entry, encode_footer, scan_segment_dir, SegmentIndexEntry, SEGMENT_MAGIC,
};
use super::write::{arbitrate_stored, DeltaBase};
use super::{CheckpointStore, ReadCursor, StoreError};
use crate::delta;
use std::collections::{BTreeMap, HashSet};
use std::fs;
use std::sync::atomic::{AtomicU64, Ordering};

/// What one [`CheckpointStore::compact`] pass did.
#[derive(Debug, Clone, Default)]
pub struct CompactionReport {
    /// Live entries rewritten into new segments.
    pub rewritten_entries: u64,
    /// Old segment files deleted.
    pub segments_removed: u64,
    /// Net disk bytes freed (old bytes − new segment bytes).
    pub reclaimed_bytes: u64,
    /// Delta entries folded into fresh keyframes (their chain depth
    /// dropped to 0 — e.g. the store was reopened with a smaller
    /// keyframe interval, or the chain no longer earns its keep).
    pub chains_folded: u64,
    /// Entries of delta-bearing blocks re-encoded payload-by-payload
    /// (plain blocks move their stored bytes verbatim instead).
    pub reencoded_entries: u64,
    /// Ids of the segments the live data now lives in.
    pub new_segments: Vec<u64>,
}

#[derive(Default)]
pub(crate) struct CompactionCounters {
    pub(crate) runs: AtomicU64,
    pub(crate) reclaimed: AtomicU64,
}

/// One new segment being assembled in memory.
struct NewSeg {
    id: u64,
    bytes: Vec<u8>,
    footer: Vec<SegmentIndexEntry>,
}

/// Rolling writer over new sealed segments: each fills to the target
/// size, then lands via temp sibling + fsync + rename. An interrupted
/// pass leaves only temp junk or unreferenced segments, both invisible
/// to the index and reclaimed by the next compaction.
struct SegmentRewriter<'a> {
    store: &'a CheckpointStore,
    cur: Option<NewSeg>,
    /// `(block, seq, new location)` of every rewritten entry.
    new_locs: Vec<(String, u64, Location)>,
    new_segments: Vec<u64>,
    bytes_written: u64,
}

impl SegmentRewriter<'_> {
    /// Rewrites `entry` as `stored` bytes (a verbatim move, or a fresh
    /// re-encode) carrying chain link `delta`.
    fn rewrite(
        &mut self,
        block: &str,
        seq: u64,
        entry: &IndexEntry,
        stored: &[u8],
        raw_stored: bool,
        delta: Option<(u64, u32)>,
    ) -> Result<(), StoreError> {
        let store = self.store;
        let ns = self.cur.get_or_insert_with(|| {
            let mut bytes =
                Vec::with_capacity((store.opts.segment_target_bytes as usize).min(1 << 20));
            bytes.extend_from_slice(SEGMENT_MAGIC);
            NewSeg {
                id: store.next_seg.fetch_add(1, Ordering::Relaxed),
                bytes,
                footer: Vec::new(),
            }
        });
        let mut rec = SegmentIndexEntry {
            block_id: block.to_string(),
            seq,
            offset: 0,
            raw: entry.raw,
            stored: stored.len() as u32,
            crc: entry.crc,
            raw_stored,
            delta_stored: delta.is_some(),
        };
        rec.offset = append_entry(&mut ns.bytes, &rec, stored);
        let loc = Location::Segment {
            seg: ns.id,
            offset: rec.offset,
            len: rec.stored,
            raw_stored,
            delta,
        };
        self.new_locs.push((block.to_string(), seq, loc));
        ns.footer.push(rec);
        if ns.bytes.len() as u64 >= store.opts.segment_target_bytes {
            self.flush()?;
        }
        Ok(())
    }

    /// Lands the segment under assembly: footer appended, then durably
    /// renamed into place (the rename is persisted before any manifest
    /// can reference the segment).
    fn flush(&mut self) -> Result<(), StoreError> {
        let Some(mut full) = self.cur.take() else {
            return Ok(());
        };
        full.bytes.extend_from_slice(&encode_footer(&full.footer));
        write_atomic(&self.store.segment_path(full.id), &full.bytes)?;
        self.bytes_written += full.bytes.len() as u64;
        self.new_segments.push(full.id);
        Ok(())
    }
}

impl CheckpointStore {
    /// Rewrites all live checkpoints into fresh, sealed segments and
    /// deletes the old segments. Crash-safe: new segments are written to
    /// temp siblings, fsynced, and renamed in; the MANIFEST swap is
    /// atomic; old data is deleted only after the new manifest is in
    /// place. A crash at any point leaves either the pre-compaction or
    /// the post-compaction view (the orphaned half is reported at the
    /// next open and reclaimed by the next compaction pass). Refuses
    /// (with [`StoreError::Corrupt`]) to destroy data it cannot re-read.
    ///
    /// Writers block for the duration (the active segment is consumed);
    /// readers keep going throughout. Those guarantees are *in-process*:
    /// compaction requires exclusive cross-process ownership of the store
    /// directory — it rewrites the MANIFEST and deletes segments, either
    /// of which would sever another process's kept-open handles. Don't
    /// compact a store a different process is actively recording into
    /// (registry-managed runs never share a store directory across
    /// concurrent recorders, so `Registry::compact_run` is safe there).
    pub fn compact(&self) -> Result<CompactionReport, StoreError> {
        self.ensure_writable()?;
        let mut span = flor_obs::span(flor_obs::Category::Compact, "compact");
        let t0 = flor_obs::clock::now_ns();
        let mut w = self.writer.lock();
        // The active segment's live entries get rewritten like everyone
        // else's; stop appending to it.
        *w = None;

        let live = self.index.sorted();
        // Everything currently in seg/ is an "old" segment (new ids are
        // allocated past next_seg, so the two sets cannot collide) —
        // including orphans a crashed compaction left behind, which open
        // only *reports*. Stale temp siblings are reclaimed here too:
        // compaction holds the writer lock, so unlike open it cannot be
        // racing this store's own writers.
        let old = scan_segment_dir(&self.seg_dir()).unwrap_or_default();
        for tmp in &old.temp_files {
            let _ = fs::remove_file(tmp);
        }
        let mut report = CompactionReport::default();
        if live.is_empty() && old.segments.is_empty() {
            return Ok(report);
        }
        let old_bytes: u64 = old.segments.iter().map(|(_, len)| len).sum();

        // Blocks holding any delta entry are re-encoded payload-by-payload
        // (chains resolved, then folded or re-chained under the current
        // keyframe policy); every other block's entries move their stored
        // bytes verbatim, grouped by source segment so each old segment is
        // faulted once and read through before the next (the buffer pool's
        // byte budget, not the store size, bounds what stays resident).
        // `@dup` entries of plain blocks are left alone:
        // their bytes live in the shared arena, not in any local segment,
        // and touching the reference would disturb the arena refcount.
        let delta_blocks: HashSet<&str> = live
            .iter()
            .filter(|(_, _, e)| e.loc.delta_link().is_some())
            .map(|(block, _, _)| block.as_str())
            .collect();
        let mut by_seg: BTreeMap<u64, Vec<(&str, u64, &IndexEntry)>> = BTreeMap::new();
        let mut reencode: BTreeMap<&str, Vec<(u64, &IndexEntry)>> = BTreeMap::new();
        for (block, seq, e) in &live {
            if delta_blocks.contains(block.as_str()) {
                reencode.entry(block).or_default().push((*seq, e));
            } else if let Location::Segment { seg, .. } = &e.loc {
                by_seg.entry(*seg).or_default().push((block, *seq, e));
            }
        }

        let mut rewriter = SegmentRewriter {
            store: self,
            cur: None,
            new_locs: Vec::with_capacity(live.len()),
            new_segments: Vec::new(),
            bytes_written: 0,
        };

        // Verbatim moves — no decompression, through the same buffer pool
        // as the read path.
        for &(block, seq, e) in by_seg.values().flatten() {
            let (stored, raw_stored) = self.stored_payload(block, seq, e)?;
            rewriter.rewrite(block, seq, e, stored.as_ref(), raw_stored, None)?;
            report.rewritten_entries += 1;
        }

        // Delta-bearing blocks: resolve every payload through the normal
        // chain-aware read path (the old segments are still in place),
        // then re-encode under the current keyframe policy. Long or
        // orphan-prone chains fold into fresh keyframes here; healthy
        // chains re-chain against their rewritten neighbors. An entry
        // whose payload cannot be reconstructed (bit-rot, a re-put base)
        // is moved *verbatim* — stored bytes and chain link unchanged, so
        // it keeps failing loudly at read time — instead of aborting the
        // whole pass: one corrupt checkpoint must not permanently disable
        // GC for the entire store.
        let k = self.opts.delta_keyframe_interval;
        let min_bytes = self.opts.delta_min_bytes;
        let chainable = |payload: &bytes::Bytes| k > 0 && payload.len() as u64 >= min_bytes;
        let mut cursor = ReadCursor::default();
        for (block, entries) in reencode {
            let mut prev: Option<DeltaBase> = None;
            for (seq, entry) in entries {
                let old_link = entry.loc.delta_link();
                let payload = self.read_payload(&mut cursor, block, seq, entry);
                if let Location::Dup { .. } = entry.loc {
                    // Arena-resident: kept verbatim, but its payload still
                    // serves as the chain base for the block's later
                    // re-encoded entries.
                    if let Some(payload) = payload.ok().filter(chainable) {
                        prev = Some(DeltaBase {
                            seq,
                            depth: old_link.map_or(0, |(_, d)| d),
                            crc: entry.crc,
                            payload,
                        });
                    }
                    continue;
                }
                report.rewritten_entries += 1;
                let Ok(payload) = payload else {
                    let (stored, raw_stored) = self.stored_payload(block, seq, entry)?;
                    rewriter.rewrite(block, seq, entry, stored.as_ref(), raw_stored, old_link)?;
                    // `prev` stays: the next entry can still chain
                    // against the last successfully decoded payload.
                    continue;
                };
                let encoded = prev
                    .as_ref()
                    .filter(|p| chainable(&payload) && p.seq < seq && p.depth + 1 < k)
                    .and_then(|p| {
                        let frame = delta::encode(
                            p.payload.as_ref(),
                            payload.as_ref(),
                            p.seq,
                            p.crc,
                            p.depth + 1,
                        )?;
                        Some((frame, p.seq, p.depth + 1))
                    });
                let (stored, raw_stored, new_link) = arbitrate_stored(encoded, payload.as_ref());
                if old_link.is_some() && new_link.is_none() {
                    report.chains_folded += 1;
                }
                report.reencoded_entries += 1;
                rewriter.rewrite(block, seq, entry, &stored, raw_stored, new_link)?;
                if chainable(&payload) {
                    prev = Some(DeltaBase {
                        seq,
                        depth: new_link.map_or(0, |(_, d)| d),
                        crc: entry.crc,
                        payload,
                    });
                }
            }
        }
        rewriter.flush()?;
        report.new_segments = rewriter.new_segments;

        // Swap the index over to the new locations, then the manifest
        // (atomically). Readers between these two steps see the new
        // segments; readers before see the old ones — both complete views.
        for (block, seq, loc) in rewriter.new_locs {
            self.index.relocate(&block, seq, loc);
        }
        self.manifest.rewrite(&self.index.sorted())?;

        // GC: the old segments are now unreferenced by the durable
        // manifest.
        for (id, _) in &old.segments {
            if fs::remove_file(self.segment_path(*id)).is_ok() {
                report.segments_removed += 1;
            }
        }
        // Segment buffers are stale, and chain shapes changed: the delta
        // write cache must not serve stale depths.
        self.pool.clear();
        self.delta_write.clear();

        report.reclaimed_bytes = old_bytes.saturating_sub(rewriter.bytes_written);
        self.gc.runs.fetch_add(1, Ordering::Relaxed);
        self.gc
            .reclaimed
            .fetch_add(report.reclaimed_bytes, Ordering::Relaxed);
        drop(w);
        span.set_args(report.rewritten_entries, report.reclaimed_bytes);
        flor_obs::histogram!("store.compact_ns").observe(flor_obs::clock::since_ns(t0));
        flor_obs::counter!("store.compactions").inc();
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{drifting_payload, incompressible, tmpdir};
    use super::super::StoreOptions;
    use super::*;

    #[test]
    fn compaction_reclaims_superseded_re_puts() {
        let dir = tmpdir("compact-reclaim");
        let store = CheckpointStore::open(&dir).unwrap();
        // 20 re-puts of the same key: 19 dead payloads in the segments.
        for round in 0..20u32 {
            store
                .put("sb_0", 0, &incompressible(8192, round + 1))
                .unwrap();
        }
        store.put("sb_1", 0, &incompressible(8192, 777)).unwrap();
        let before = store.stats();
        assert!(before.dead_segment_bytes > 100_000, "{before:?}");
        let report = store.compact().unwrap();
        assert_eq!(report.rewritten_entries, 2);
        assert!(report.segments_removed >= 1);
        assert!(report.reclaimed_bytes > 100_000, "{report:?}");
        let after = store.stats();
        assert_eq!(after.dead_segment_bytes, 0, "{after:?}");
        assert!(after.segment_disk_bytes < before.segment_disk_bytes / 5);
        assert_eq!(after.compactions, 1);
        assert_eq!(
            store.get_bytes("sb_0", 0).unwrap().as_ref(),
            &incompressible(8192, 20)[..]
        );
        assert_eq!(
            store.get_bytes("sb_1", 0).unwrap().as_ref(),
            &incompressible(8192, 777)[..]
        );
        // Post-compaction store reopens clean and keeps accepting writes.
        drop(store);
        let store = CheckpointStore::open(&dir).unwrap();
        assert!(
            store.recovery_report().is_clean(),
            "{:?}",
            store.recovery_report()
        );
        store.put("sb_2", 0, b"after compaction").unwrap();
        assert_eq!(store.get("sb_2", 0).unwrap(), b"after compaction");
    }

    #[test]
    fn background_compaction_runs_concurrently_with_reads() {
        let store = std::sync::Arc::new(CheckpointStore::open(tmpdir("bg-compact")).unwrap());
        for seq in 0..8u64 {
            for round in 0..4u32 {
                store
                    .put("sb_0", seq, &incompressible(4096, seq as u32 * 31 + round))
                    .unwrap();
            }
        }
        let reader = {
            let store = store.clone();
            std::thread::spawn(move || {
                for _ in 0..50 {
                    for seq in 0..8u64 {
                        let b = store.get_bytes("sb_0", seq).unwrap();
                        assert_eq!(b.as_ref(), &incompressible(4096, seq as u32 * 31 + 3)[..]);
                    }
                }
            })
        };
        let compactor = {
            let store = store.clone();
            std::thread::spawn(move || store.compact())
        };
        let report = compactor.join().unwrap().unwrap();
        assert_eq!(report.rewritten_entries, 8);
        reader.join().unwrap();
    }

    #[test]
    fn compaction_survives_a_corrupt_chain_member() {
        // One bit-rotted delta frame must not permanently disable GC:
        // compaction moves the broken entry verbatim (still failing
        // loudly at read time) and completes for everything else.
        let dir = tmpdir("delta-compact-corrupt");
        {
            let store = CheckpointStore::open(&dir).unwrap();
            for seq in 0..6u64 {
                store
                    .put("sb_0", seq, &drifting_payload(seq, 2048))
                    .unwrap();
            }
            // Corrupt the middle of seq 3's stored frame on disk.
            let e = store.index.lookup("sb_0", 3).unwrap();
            let Location::Segment {
                seg, offset, len, ..
            } = e.loc
            else {
                panic!("expected a segment entry");
            };
            assert!(e.loc.delta_link().is_some(), "fixture must corrupt a delta");
            let path = store.segment_path(seg);
            let mut bytes = fs::read(&path).unwrap();
            bytes[(offset + len as u64 / 2) as usize] ^= 0xFF;
            fs::write(&path, &bytes).unwrap();
        }
        // Fresh handle (no warm caches).
        let store = CheckpointStore::open(&dir).unwrap();
        let report = store.compact().expect("compaction must complete");
        assert_eq!(report.rewritten_entries, 6, "{report:?}");
        // Seq 3 (and any chain member that decoded through it) stays
        // loud; everything up-chain of the corruption reads fine.
        for seq in 0..3u64 {
            assert_eq!(
                store.get("sb_0", seq).unwrap(),
                drifting_payload(seq, 2048),
                "seq {seq}"
            );
        }
        assert!(store.get("sb_0", 3).is_err(), "corruption must stay loud");
        // And GC keeps working on later passes.
        store.put("sb_1", 0, &drifting_payload(0, 2048)).unwrap();
        store
            .compact()
            .expect("subsequent compactions keep working");
    }

    #[test]
    fn compaction_preserves_chains_and_reads() {
        let dir = tmpdir("delta-compact");
        let store = CheckpointStore::open(&dir).unwrap();
        for seq in 0..10u64 {
            store
                .put("sb_0", seq, &drifting_payload(seq, 2048))
                .unwrap();
        }
        // Some dead bytes via a re-put of the newest version (no children).
        store.put("sb_0", 9, &drifting_payload(9, 2048)).unwrap();
        let report = store.compact().unwrap();
        assert_eq!(report.reencoded_entries, 10);
        assert!(store.stats().delta_entries >= 7, "{:?}", store.stats());
        for seq in 0..10u64 {
            assert_eq!(store.get("sb_0", seq).unwrap(), drifting_payload(seq, 2048));
        }
        // Reopen after compaction: still clean, still readable.
        drop(store);
        let store = CheckpointStore::open(&dir).unwrap();
        assert!(store.recovery_report().is_clean());
        assert_eq!(store.get("sb_0", 9).unwrap(), drifting_payload(9, 2048));
    }

    #[test]
    fn compaction_folds_chains_under_a_smaller_interval() {
        let dir = tmpdir("delta-fold");
        {
            let store = CheckpointStore::open(&dir).unwrap();
            for seq in 0..8u64 {
                store
                    .put("sb_0", seq, &drifting_payload(seq, 2048))
                    .unwrap();
            }
            assert!(store.stats().delta_entries >= 6);
        }
        // Reopen with delta disabled: compaction folds every chain into
        // fresh keyframes.
        let store = CheckpointStore::open_opts(
            &dir,
            StoreOptions {
                delta_keyframe_interval: 0,
                ..StoreOptions::default()
            },
        )
        .unwrap();
        let report = store.compact().unwrap();
        assert!(report.chains_folded >= 6, "{report:?}");
        let s = store.stats();
        assert_eq!(s.delta_entries, 0, "{s:?}");
        for seq in 0..8u64 {
            assert_eq!(store.get("sb_0", seq).unwrap(), drifting_payload(seq, 2048));
        }
    }
}
