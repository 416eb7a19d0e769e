//! Open-time recovery: load the MANIFEST, check every live entry's data
//! is reachable, drop what is not, and say so.
//!
//! Opening reads the MANIFEST once and lists `seg/` once — never one
//! `stat` per checkpoint. Entries whose segment is gone from `seg/` are
//! dropped from the index (delta entries
//! whose chain base went with them cascade out too), surfaced in the
//! [`RecoveryReport`], and the MANIFEST is rewritten so byte totals stay
//! truthful. Unreferenced ("orphaned") segments — the visible residue of
//! a crash between a compaction's rename and its manifest swap — are
//! reported and left invisible to the index; open itself never deletes
//! files, so a read-only open cannot destroy a segment another process
//! is mid-commit into. A segment that is present but too short for an
//! entry it should contain stays indexed and fails loudly at read time:
//! truncation is corruption, not a skipped checkpoint.

use super::index::IndexEntry;
use super::manifest::{parse_line, Location};
use super::segment::scan_segment_dir;
use super::{CheckpointStore, StoreError};
use std::collections::{HashMap, HashSet};
use std::fs;
use std::sync::atomic::Ordering;

/// One checkpoint whose data could not be found at open.
#[derive(Debug, Clone)]
pub struct MissingEntry {
    /// Block id.
    pub block_id: String,
    /// Sequence number.
    pub seq: u64,
    /// The manifest location that had no backing data.
    pub location: String,
}

/// What open-time recovery found and did.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Manifest entries dropped because their data is gone (the whole
    /// segment, or the chain base of a delta entry).
    pub missing_entries: Vec<MissingEntry>,
    /// Segment ids no manifest line references (the residue of a crashed
    /// compaction, or of a batch whose manifest append never became
    /// durable). Invisible to the index; their disk space is reclaimed by
    /// the next [`CheckpointStore::compact`] — open never deletes files,
    /// so a read-only open of a store another process is writing cannot
    /// destroy an in-flight segment.
    pub orphaned_segments: Vec<u64>,
    /// Stale temp files in `seg/` (reclaimed by the next compaction).
    pub stale_temp_files: u64,
    /// A torn (unterminated, CRC-failing) final manifest line was dropped.
    pub dropped_torn_tail: bool,
    /// The manifest was rewritten to match the recovered index.
    pub repaired_manifest: bool,
    /// A repair was needed but skipped because the store is open
    /// read-only (the next writable open performs it).
    pub repair_pending: bool,
}

impl RecoveryReport {
    /// True when open found nothing to recover or repair.
    pub fn is_clean(&self) -> bool {
        self.missing_entries.is_empty()
            && self.orphaned_segments.is_empty()
            && self.stale_temp_files == 0
            && !self.dropped_torn_tail
            && !self.repaired_manifest
            && !self.repair_pending
    }
}

impl CheckpointStore {
    /// Builds the index from the MANIFEST.
    pub(crate) fn load_manifest(&self) -> Result<RecoveryReport, StoreError> {
        let mut report = RecoveryReport::default();

        // Temp siblings are reported only — another process may own them
        // right now; the next compaction (which holds the writer lock)
        // reclaims them.
        let local = scan_segment_dir(&self.seg_dir())?;
        report.stale_temp_files = local.temp_files.len() as u64;
        let local_segs: HashSet<u64> = local.segments.iter().map(|(id, _)| *id).collect();

        let path = self.manifest.path();
        let mut parsed: Vec<((String, u64), IndexEntry)> = Vec::new();
        let mut tail_unterminated = false;
        if path.exists() {
            let text = fs::read_to_string(path)?;
            let lines: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
            // A record phase killed mid-append leaves a final line without
            // its terminating newline; only such a tail may be dropped as
            // torn. Any malformed *complete* line is real corruption and
            // stays fatal.
            tail_unterminated = !text.is_empty() && !text.ends_with('\n');
            for (i, line) in lines.iter().enumerate() {
                match parse_line(line, i + 1) {
                    Ok(pair) => parsed.push(pair),
                    Err(e) => {
                        if i + 1 == lines.len() && tail_unterminated {
                            // Drop the torn tail: its checkpoint data is at
                            // worst dead bytes; the run is not poisoned.
                            report.dropped_torn_tail = true;
                        } else {
                            return Err(e);
                        }
                    }
                }
            }
        }

        // Segments referenced by any manifest line (live *or* superseded —
        // superseded payloads stay until compaction rewrites them away).
        let referenced_segs: HashSet<u64> = parsed
            .iter()
            .filter_map(|(_, e)| match &e.loc {
                Location::Segment { seg, .. } => Some(*seg),
                Location::Dup { .. } => None,
            })
            .collect();

        // A fresh writer session must never reuse a segment id that lives
        // only in the manifest (local copy lost) — colliding ids would
        // splice two runs' payloads together.
        self.next_seg.store(
            local_segs
                .iter()
                .chain(&referenced_segs)
                .max()
                .map_or(0, |m| m + 1),
            Ordering::Relaxed,
        );

        // Later manifest lines supersede earlier ones (re-puts): reduce to
        // the last-writer-wins entry per key *before* validating data
        // presence, so a vanished superseded payload is not misreported as
        // a missing live checkpoint.
        let mut winners: Vec<((String, u64), IndexEntry)> = Vec::with_capacity(parsed.len());
        {
            let mut at: HashMap<(String, u64), usize> = HashMap::with_capacity(parsed.len());
            for pair in parsed {
                match at.get(&pair.0) {
                    Some(&i) => winners[i] = pair,
                    None => {
                        at.insert(pair.0.clone(), winners.len());
                        winners.push(pair);
                    }
                }
            }
        }

        // Validate data presence. In-bounds checks happen at read time (a
        // too-short segment is corruption and must fail loudly), and blob
        // presence is the dedup arena's contract (blobs are refcounted and
        // synced before the manifest line that references them), so a
        // missing blob also fails loudly at read time — neither is a
        // droppable entry here.
        let mut dead: Vec<bool> = winners
            .iter()
            .map(|(_, entry)| match &entry.loc {
                Location::Segment { seg, .. } => !local_segs.contains(seg),
                Location::Dup { .. } => false,
            })
            .collect();

        // Cascade-drop delta entries whose chain base is gone (the base's
        // segment vanished, or the base itself was a dropped delta): a
        // delta frame without its base can never restore, so keeping it
        // indexed would turn a recoverable gap into a read-time error.
        // Mark-based fixpoint over borrowed keys — one map build, no
        // String clones, and delta-free stores skip it entirely (cold
        // open stays O(n) with a small constant). Chains are short
        // (≤ keyframe interval), so the fixpoint converges in a handful
        // of rounds.
        if winners.iter().any(|(_, e)| e.loc.delta_link().is_some()) {
            let mut index_by_block: HashMap<&str, HashMap<u64, usize>> = HashMap::new();
            for (i, ((block, seq), _)) in winners.iter().enumerate() {
                index_by_block
                    .entry(block.as_str())
                    .or_default()
                    .insert(*seq, i);
            }
            loop {
                let mut changed = false;
                for (i, ((block, _), entry)) in winners.iter().enumerate() {
                    if dead[i] {
                        continue;
                    }
                    if let Some((base_seq, _)) = entry.loc.delta_link() {
                        let base_alive = index_by_block
                            .get(block.as_str())
                            .and_then(|seqs| seqs.get(&base_seq))
                            .is_some_and(|&j| !dead[j]);
                        if !base_alive {
                            dead[i] = true;
                            changed = true;
                        }
                    }
                }
                if !changed {
                    break;
                }
            }
        }

        // Build the index from the survivors; report the dropped.
        for (i, ((block, seq), entry)) in winners.into_iter().enumerate() {
            if dead[i] {
                report.missing_entries.push(MissingEntry {
                    block_id: block,
                    seq,
                    location: entry.loc.render(),
                });
            } else {
                self.index.insert(block, seq, entry);
            }
        }

        // Orphaned segments: on disk, referenced by nothing. Report only —
        // a concurrent writer process may be mid-commit into exactly such
        // a segment, so deletion belongs to compaction, not to open.
        report.orphaned_segments = local
            .segments
            .iter()
            .map(|(id, _)| *id)
            .filter(|id| !referenced_segs.contains(id))
            .collect();

        // Repair whenever entries were dropped or the tail lacks its
        // newline — even if the final line parsed (the crash can cut
        // exactly at the newline). Leaving an unterminated tail would make
        // the next O_APPEND write merge two lines into one, turning
        // recoverable damage into fatal corruption.
        if report.dropped_torn_tail || tail_unterminated || !report.missing_entries.is_empty() {
            if self.opts.read_only {
                // Never touch the MANIFEST from an inspection open: the
                // writer process that owns this store keeps an O_APPEND
                // handle to the current inode, and a rename here would
                // silently sever it. The in-memory view is still the
                // recovered one; the next writable open repairs the file.
                report.repair_pending = true;
            } else {
                self.manifest.rewrite(&self.index.sorted())?;
                report.repaired_manifest = true;
            }
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{drifting_payload, incompressible, tmpdir};
    use super::super::StoreOptions;
    use super::*;

    #[test]
    fn reopen_restores_index() {
        let dir = tmpdir("reopen");
        {
            let store = CheckpointStore::open(&dir).unwrap();
            store.put("sb_0", 0, b"alpha").unwrap();
            store.put("sb_1", 7, b"beta").unwrap();
        }
        let store = CheckpointStore::open(&dir).unwrap();
        assert!(
            store.recovery_report().is_clean(),
            "{:?}",
            store.recovery_report()
        );
        assert_eq!(store.get("sb_0", 0).unwrap(), b"alpha");
        assert_eq!(store.get("sb_1", 7).unwrap(), b"beta");
        assert!(store.contains("sb_1", 7));
        assert!(!store.contains("sb_1", 8));
    }

    #[test]
    fn torn_manifest_tail_is_recovered_and_repaired() {
        // A record phase killed mid-append leaves a truncated final line;
        // reopening must recover the intact prefix, not poison the run.
        let dir = tmpdir("torn-tail");
        {
            let store = CheckpointStore::open(&dir).unwrap();
            store.put("sb_0", 0, b"alpha").unwrap();
            store.put("sb_0", 1, b"beta").unwrap();
        }
        let manifest = dir.join("MANIFEST");
        let text = fs::read_to_string(&manifest).unwrap();
        fs::write(&manifest, &text[..text.len() - 7]).unwrap();

        let store = CheckpointStore::open(&dir).unwrap();
        assert_eq!(store.get("sb_0", 0).unwrap(), b"alpha");
        assert!(!store.contains("sb_0", 1), "torn entry dropped");
        assert!(store.recovery_report().dropped_torn_tail);
        assert!(store.recovery_report().repaired_manifest);
        // The manifest was rewritten clean (temp+rename): reopening again
        // parses every line.
        let repaired = fs::read_to_string(&manifest).unwrap();
        assert!(repaired.lines().all(|l| l.split('\t').count() == 6));
        let store = CheckpointStore::open(&dir).unwrap();
        assert_eq!(store.count("sb_0"), 1);
    }

    #[test]
    fn tail_cut_exactly_at_newline_is_repaired_before_next_append() {
        // The crash can cut exactly at the trailing newline: the final line
        // parses, but without repair the next append would merge two lines.
        let dir = tmpdir("newline-cut");
        {
            let store = CheckpointStore::open(&dir).unwrap();
            store.put("sb_0", 0, b"alpha").unwrap();
        }
        let manifest = dir.join("MANIFEST");
        let text = fs::read_to_string(&manifest).unwrap();
        assert!(text.ends_with('\n'));
        fs::write(&manifest, &text[..text.len() - 1]).unwrap();
        {
            let store = CheckpointStore::open(&dir).unwrap();
            assert_eq!(store.count("sb_0"), 1, "parseable tail entry kept");
            store.put("sb_0", 1, b"beta").unwrap();
        }
        let store = CheckpointStore::open(&dir).unwrap();
        assert_eq!(store.count("sb_0"), 2);
        assert_eq!(store.get("sb_0", 0).unwrap(), b"alpha");
        assert_eq!(store.get("sb_0", 1).unwrap(), b"beta");
    }

    #[test]
    fn interior_manifest_corruption_is_fatal() {
        let dir = tmpdir("torn-interior");
        {
            let store = CheckpointStore::open(&dir).unwrap();
            store.put("sb_0", 0, b"alpha").unwrap();
            store.put("sb_0", 1, b"beta").unwrap();
        }
        let manifest = dir.join("MANIFEST");
        let text = fs::read_to_string(&manifest).unwrap();
        let mut lines: Vec<&str> = text.lines().collect();
        lines[0] = "garbage line";
        fs::write(&manifest, lines.join("\n")).unwrap();
        assert!(matches!(
            CheckpointStore::open(&dir),
            Err(StoreError::BadManifest(_))
        ));
    }

    #[test]
    fn malformed_or_legacy_location_is_fatal_and_leaves_the_manifest_untouched() {
        // A CRC-valid line whose location is outside the grammar is
        // corruption (or a foreign writer), not an entry to report
        // "missing", drop, and rewrite the MANIFEST without.
        let dir = tmpdir("bad-location");
        {
            let store = CheckpointStore::open(&dir).unwrap();
            store.put("sb_0", 0, b"alpha").unwrap();
        }
        let manifest = dir.join("MANIFEST");
        let good = fs::read_to_string(&manifest).unwrap();
        for bad in ["@dup:zz", "@1:2", "@1:2:3:x", "@1:2:3:d:4", "sb_0.000001"] {
            let payload = format!("sb_0\t1\t{bad}\t5\t99");
            let text = format!(
                "{good}{payload}\t{}\n",
                super::super::crc32(payload.as_bytes())
            );
            fs::write(&manifest, &text).unwrap();
            for read_only in [true, false] {
                let opts = StoreOptions {
                    read_only,
                    ..StoreOptions::default()
                };
                match CheckpointStore::open_opts(&dir, opts) {
                    Err(StoreError::BadManifest(d)) => {
                        assert!(d.starts_with("line 2: bad location"), "{bad}: {d}");
                        assert!(d.contains(bad), "{bad}: {d}");
                    }
                    other => panic!("{bad}: expected BadManifest, got {:?}", other.err()),
                }
                assert_eq!(fs::read_to_string(&manifest).unwrap(), text, "{bad}");
            }
        }
    }

    #[test]
    fn recovery_after_simulated_crash_roundtrips_new_writes() {
        let dir = tmpdir("torn-rewrite");
        {
            let store = CheckpointStore::open(&dir).unwrap();
            store.put("sb_0", 0, b"alpha").unwrap();
        }
        let manifest = dir.join("MANIFEST");
        let text = fs::read_to_string(&manifest).unwrap();
        // Torn mid-line append of a second entry.
        fs::write(&manifest, format!("{text}sb_0\t1\t@0:99")).unwrap();
        let store = CheckpointStore::open(&dir).unwrap();
        // The recovered store accepts new writes and reloads them (the
        // repair invalidated the appender; the next put reopens it).
        store.put("sb_0", 1, b"beta-again").unwrap();
        drop(store);
        let store = CheckpointStore::open(&dir).unwrap();
        assert_eq!(store.get("sb_0", 1).unwrap(), b"beta-again");
        assert_eq!(store.count("sb_0"), 2);
    }

    #[test]
    fn missing_segment_is_reported_and_manifest_repaired() {
        let dir = tmpdir("missing-seg");
        let opts = StoreOptions {
            segment_target_bytes: 2048,
            ..StoreOptions::default()
        };
        {
            let store = CheckpointStore::open_opts(&dir, opts).unwrap();
            for seq in 0..6u64 {
                store
                    .put("sb_0", seq, &incompressible(1024, seq as u32 + 9))
                    .unwrap();
            }
            assert!(store.stats().segments >= 2);
        }
        fs::remove_file(dir.join("seg").join("00000000.seg")).unwrap();
        let store = CheckpointStore::open_opts(&dir, opts).unwrap();
        let report = store.recovery_report().clone();
        assert!(!report.missing_entries.is_empty(), "{report:?}");
        assert!(report.repaired_manifest);
        // Survivors read back; the dropped ones answer Missing (so replay
        // falls back to re-execution, the legitimate gap-filling path).
        let survivors = store.entries();
        assert!(!survivors.is_empty());
        for (block, seq) in &survivors {
            store.get_bytes(block, *seq).unwrap();
        }
        for m in &report.missing_entries {
            assert!(!store.contains(&m.block_id, m.seq));
        }
        // Totals reflect only what is actually there — not undercounted to
        // zero, not overcounted with ghosts.
        let sum: u64 = survivors
            .iter()
            .map(|(b, s)| store.get_bytes(b, *s).unwrap().len() as u64)
            .sum();
        assert_eq!(store.total_raw_bytes(), sum);
        // Repaired manifest reopens clean.
        let store = CheckpointStore::open_opts(&dir, opts).unwrap();
        assert!(
            store.recovery_report().is_clean(),
            "{:?}",
            store.recovery_report()
        );
    }

    #[test]
    fn orphaned_segment_is_reported_at_open_and_reclaimed_by_compaction() {
        let dir = tmpdir("orphan-seg");
        {
            let store = CheckpointStore::open(&dir).unwrap();
            store.put("sb_0", 0, b"live data").unwrap();
        }
        // Fabricate the residue of a crashed compaction: a segment file no
        // manifest line references, plus a stale temp.
        fs::write(dir.join("seg").join("00000099.seg"), b"FLRSEG1\njunk").unwrap();
        fs::write(dir.join("seg").join(".compact-00000007.seg.tmp.1"), b"junk").unwrap();
        let store = CheckpointStore::open(&dir).unwrap();
        let report = store.recovery_report();
        assert_eq!(report.orphaned_segments, vec![99]);
        assert_eq!(report.stale_temp_files, 1);
        // Open never deletes files (a concurrent writer process could own
        // them); the orphans are merely invisible to the index.
        assert!(dir.join("seg").join("00000099.seg").exists());
        assert_eq!(store.get("sb_0", 0).unwrap(), b"live data");
        // New segment ids never collide with the orphan's id range: the
        // next id is allocated past it.
        store.put("sb_1", 0, b"fresh").unwrap();
        assert!(dir.join("seg").join("00000100.seg").exists());
        // Compaction (which holds the writer lock) reclaims both.
        store.compact().unwrap();
        assert!(!dir.join("seg").join("00000099.seg").exists());
        assert!(!dir.join("seg").join(".compact-00000007.seg.tmp.1").exists());
        assert_eq!(store.get("sb_0", 0).unwrap(), b"live data");
        assert_eq!(store.get("sb_1", 0).unwrap(), b"fresh");
    }

    #[test]
    fn read_only_open_inspects_without_repairing_or_writing() {
        let dir = tmpdir("read-only");
        {
            let store = CheckpointStore::open(&dir).unwrap();
            store.put("sb_0", 0, b"alpha").unwrap();
            store.put("sb_0", 1, b"beta").unwrap();
        }
        // Tear the manifest tail (simulating another process mid-append).
        let manifest = dir.join("MANIFEST");
        let torn = {
            let text = fs::read_to_string(&manifest).unwrap();
            let torn = text[..text.len() - 7].to_string();
            fs::write(&manifest, &torn).unwrap();
            torn
        };
        {
            let store = CheckpointStore::open_read_only(&dir).unwrap();
            // In-memory view recovered, on-disk MANIFEST untouched — a
            // writer's kept-open appender would survive this open.
            assert_eq!(store.get("sb_0", 0).unwrap(), b"alpha");
            assert!(!store.contains("sb_0", 1));
            let r = store.recovery_report();
            assert!(
                r.dropped_torn_tail && r.repair_pending && !r.repaired_manifest,
                "{r:?}"
            );
            assert_eq!(
                fs::read_to_string(&manifest).unwrap(),
                torn,
                "no repair on disk"
            );
            // Every write surface refuses.
            assert!(matches!(
                store.put("sb_1", 0, b"x"),
                Err(StoreError::ReadOnly)
            ));
            assert!(matches!(store.compact(), Err(StoreError::ReadOnly)));
            assert!(matches!(
                store.put_artifact("a", b"x"),
                Err(StoreError::ReadOnly)
            ));
            assert!(store.seal_active_segment().is_ok(), "drop-path no-op");
        }
        // A writable open performs the repair the read-only one deferred.
        let store = CheckpointStore::open(&dir).unwrap();
        assert!(store.recovery_report().repaired_manifest);
        assert_eq!(store.count("sb_0"), 1);
    }

    #[test]
    fn superseded_line_with_missing_data_is_not_reported_missing() {
        // A re-put whose *old* payload vanished must not poison recovery:
        // only the winning (latest) line's data matters.
        let dir = tmpdir("superseded-missing");
        let opts = StoreOptions {
            segment_target_bytes: 1, // roll after every batch
            ..StoreOptions::default()
        };
        {
            let store = CheckpointStore::open_opts(&dir, opts).unwrap();
            store.put("sb_0", 0, &incompressible(512, 1)).unwrap(); // → segment 0
            store.put("sb_0", 0, &incompressible(512, 2)).unwrap(); // → segment 1
        }
        // The superseded payload's segment disappears.
        fs::remove_file(dir.join("seg").join("00000000.seg")).unwrap();
        let store = CheckpointStore::open(&dir).unwrap();
        let r = store.recovery_report();
        assert!(
            r.missing_entries.is_empty(),
            "live checkpoint misreported: {r:?}"
        );
        assert_eq!(
            store.get_bytes("sb_0", 0).unwrap().as_ref(),
            &incompressible(512, 2)[..]
        );
    }

    #[test]
    fn missing_chain_base_cascades_at_open() {
        let dir = tmpdir("delta-cascade");
        let opts = StoreOptions {
            segment_target_bytes: 1, // roll after every commit
            ..StoreOptions::default()
        };
        {
            let store = CheckpointStore::open_opts(&dir, opts).unwrap();
            for seq in 0..4u64 {
                store
                    .put("sb_0", seq, &drifting_payload(seq, 2048))
                    .unwrap();
            }
            assert!(store.stats().delta_entries >= 3);
        }
        // The keyframe's segment vanishes: every chained descendant is
        // unrestorable and must cascade out of the index, loudly.
        fs::remove_file(dir.join("seg").join("00000000.seg")).unwrap();
        let store = CheckpointStore::open_opts(&dir, opts).unwrap();
        let r = store.recovery_report().clone();
        assert_eq!(r.missing_entries.len(), 4, "{r:?}");
        assert!(r.repaired_manifest);
        assert_eq!(store.entries().len(), 0);
        // The repaired store reopens without missing entries; the dropped
        // chains' segments linger only as reported orphans (reclaimed by
        // the next compaction, as usual).
        drop(store);
        let store = CheckpointStore::open_opts(&dir, opts).unwrap();
        let r = store.recovery_report().clone();
        assert!(r.missing_entries.is_empty(), "{r:?}");
        assert!(!r.repaired_manifest, "{r:?}");
        assert!(!r.orphaned_segments.is_empty(), "{r:?}");
        store.compact().unwrap();
        drop(store);
        let store = CheckpointStore::open_opts(&dir, opts).unwrap();
        assert!(store.recovery_report().is_clean());
    }
}
