//! Failure injection: Flor must fail loudly, never silently diverge.
//!
//! The paper's safety story (§5.2.2) is that lean checkpointing is
//! *deliberately unsafe* (it may misdetect side-effects) and the deferred
//! correctness checks catch the fallout. These tests inject every failure
//! class we can construct and assert it surfaces as an error or an anomaly.

use flor_bench::scripts;
use flor_core::record::{record, RecordOptions};
use flor_core::replay::{deferred_check, replay, ReplayOptions};
use flor_core::{LogEntry, Section};
use std::fs;
use std::path::PathBuf;

fn store_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "flor-inject-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Deterministic xorshift bytes, distinct per seed.
fn incompressible(seed: u32, n: usize) -> Vec<u8> {
    let mut x = seed.wrapping_mul(2654435761).max(1);
    (0..n)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            x as u8
        })
        .collect()
}

fn exact_opts(root: &PathBuf) -> RecordOptions {
    let mut o = RecordOptions::new(root);
    o.adaptive = false;
    o
}

#[test]
fn bitflip_in_checkpoint_is_caught_by_crc() {
    let root = store_dir("bitflip");
    record(scripts::CV_TRAIN, &exact_opts(&root)).unwrap();
    // Corrupt the middle half of every checkpoint segment: several
    // checkpoints' payload bytes are guaranteed to be hit.
    for entry in fs::read_dir(root.join("seg")).unwrap() {
        let path = entry.unwrap().path();
        let mut bytes = fs::read(&path).unwrap();
        let n = bytes.len();
        for b in &mut bytes[n / 4..3 * n / 4] {
            *b ^= 0x01;
        }
        fs::write(&path, &bytes).unwrap();
    }
    let result = replay(scripts::CV_TRAIN, &root, &ReplayOptions::default());
    assert!(
        result.is_err(),
        "corrupt checkpoints must not restore silently"
    );
}

#[test]
fn truncated_checkpoint_is_caught() {
    let root = store_dir("truncate");
    record(scripts::CV_TRAIN, &exact_opts(&root)).unwrap();
    // A truncated segment is corruption, not a skipped checkpoint: the
    // entries past the cut must fail their bounds check loudly.
    for entry in fs::read_dir(root.join("seg")).unwrap() {
        let path = entry.unwrap().path();
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() / 3]).unwrap();
    }
    let result = replay(scripts::CV_TRAIN, &root, &ReplayOptions::default());
    assert!(result.is_err());
}

#[test]
fn deleted_checkpoint_falls_back_to_reexecution() {
    // A *missing* checkpoint (as opposed to a corrupt one) is legitimate —
    // adaptive checkpointing skips some — so replay must re-execute and
    // still match the fingerprint.
    let root = store_dir("deleted");
    let rec = record(scripts::CV_TRAIN, &exact_opts(&root)).unwrap();
    // Remove epoch 3's entry from the manifest (its payload bytes stay in
    // the segment as dead space — exactly what compaction reclaims).
    let manifest = root.join("MANIFEST");
    let text = fs::read_to_string(&manifest).unwrap();
    let kept: Vec<&str> = text
        .lines()
        .filter(|l| !l.starts_with("sb_0\t3\t"))
        .collect();
    fs::write(&manifest, kept.join("\n") + "\n").unwrap();

    let rep = replay(scripts::CV_TRAIN, &root, &ReplayOptions::default()).unwrap();
    assert!(rep.anomalies.is_empty(), "{:?}", rep.anomalies);
    assert_eq!(rep.log, rec.log);
    assert_eq!(rep.stats.executed, 1, "the gap re-executes");
    assert_eq!(rep.stats.restored, scripts::MINI_EPOCHS - 1);
}

#[test]
fn missing_record_artifacts_error_cleanly() {
    let root = store_dir("no-artifacts");
    fs::create_dir_all(&root).unwrap();
    let result = replay(scripts::CV_TRAIN, &root, &ReplayOptions::default());
    assert!(result.is_err(), "replay without a recorded run must error");
}

#[test]
fn garbled_manifest_errors_cleanly() {
    let root = store_dir("garbled");
    record(scripts::CV_TRAIN, &exact_opts(&root)).unwrap();
    fs::write(root.join("MANIFEST"), "not\ta\tvalid\tmanifest\n").unwrap();
    let result = replay(scripts::CV_TRAIN, &root, &ReplayOptions::default());
    assert!(result.is_err());
}

#[test]
fn batch_cut_mid_group_commit_recovers_to_a_prefix_of_whole_checkpoints() {
    // Simulate a crash landing inside a group commit's single batched
    // manifest append: every cut point must recover to a prefix of whole,
    // readable checkpoints — never a torn entry, never a poisoned store.
    use flor_chkpt::{CheckpointStore, Durability};
    let base = store_dir("group-commit-cut");
    fs::create_dir_all(&base).unwrap();

    // Build a reference store with one committed batch of 6 checkpoints.
    let reference = base.join("ref");
    let store = CheckpointStore::open_with(&reference, Durability::GroupCommit).unwrap();
    let payload = |seq: u64| {
        format!("group-commit payload {seq}")
            .repeat(20)
            .into_bytes()
    };
    let mut batch = store.batch();
    for seq in 0..6u64 {
        batch.stage("sb_0", seq, &payload(seq));
    }
    batch.commit().unwrap();
    drop(store);
    let manifest = fs::read(reference.join("MANIFEST")).unwrap();

    // Replay the crash at a spread of cut offsets inside the batched append
    // (a group commit writes all lines in one write_all, so a torn write is
    // exactly a prefix of this text).
    for cut in (1..manifest.len()).step_by(manifest.len() / 17 + 1) {
        let victim = base.join(format!("cut-{cut}"));
        let _ = fs::remove_dir_all(&victim);
        fs::create_dir_all(victim.join("artifacts")).unwrap();
        // Segment data persists (written and fsynced before the manifest).
        copy_dir(&reference.join("seg"), &victim.join("seg"));
        fs::write(victim.join("MANIFEST"), &manifest[..cut]).unwrap();

        let recovered = CheckpointStore::open(&victim)
            .unwrap_or_else(|e| panic!("cut at {cut} failed to recover: {e}"));
        let entries = recovered.entries();
        // Whole-prefix property: entries are exactly 0..k for some k, and
        // every surviving checkpoint reads back verbatim.
        for (i, (block, seq)) in entries.iter().enumerate() {
            assert_eq!(block, "sb_0");
            assert_eq!(
                *seq, i as u64,
                "cut at {cut}: recovered set is not a prefix"
            );
            assert_eq!(
                recovered.get(block, *seq).unwrap(),
                payload(*seq),
                "cut at {cut}: checkpoint {seq} corrupted"
            );
        }
        // The repaired store accepts new group commits cleanly.
        let mut batch = recovered.batch();
        batch.stage("sb_1", 0, b"post-recovery write");
        batch.commit().unwrap();
        assert_eq!(recovered.get("sb_1", 0).unwrap(), b"post-recovery write");
    }
}

fn copy_dir(src: &PathBuf, dst: &PathBuf) {
    fs::create_dir_all(dst).unwrap();
    for entry in fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        fs::copy(entry.path(), dst.join(entry.file_name())).unwrap();
    }
}

#[test]
fn rule5_evasion_is_caught_by_deferred_check() {
    // A changeset that deliberately misses a side effect: we simulate the
    // paper's "unsafe analysis" risk by recording a run, then tampering
    // with the record log so replay's fingerprint cannot match. The
    // deferred check must flag it.
    let root = store_dir("evasion");
    record(scripts::CV_TRAIN, &exact_opts(&root)).unwrap();
    // Tamper: perturb one recorded loss value.
    let log_path = root.join("artifacts").join("record_log.txt");
    let text = fs::read_to_string(&log_path).unwrap();
    let tampered = text.replacen("loss\t", "loss\t9", 1);
    assert_ne!(tampered, text);
    fs::write(&log_path, tampered).unwrap();

    let rep = replay(scripts::CV_TRAIN, &root, &ReplayOptions::default()).unwrap();
    assert!(
        !rep.anomalies.is_empty(),
        "deferred check must flag the divergent fingerprint"
    );
    assert!(rep.anomalies[0].contains("loss"), "{:?}", rep.anomalies);
}

#[test]
fn deferred_check_tolerates_skips_and_probes_only() {
    let rec = vec![
        LogEntry {
            key: "loss".into(),
            value: "1.0".into(),
            section: Section::Iter(0),
        },
        LogEntry {
            key: "inner".into(),
            value: "x".into(),
            section: Section::Iter(0),
        },
    ];
    // Replay skipped "inner" (memoized) and added a probe — fine.
    let ok = vec![
        LogEntry {
            key: "loss".into(),
            value: "1.0".into(),
            section: Section::Iter(0),
        },
        LogEntry {
            key: "probe".into(),
            value: "p".into(),
            section: Section::Iter(0),
        },
    ];
    assert!(deferred_check(&rec, &ok).is_empty());
    // Value drift is an anomaly.
    let bad = vec![LogEntry {
        key: "loss".into(),
        value: "2.0".into(),
        section: Section::Iter(0),
    }];
    assert_eq!(deferred_check(&rec, &bad).len(), 1);
}

#[test]
fn record_into_reused_store_accumulates_but_replays_latest_source() {
    // Re-recording into the same root overwrites the source artifact; the
    // old checkpoints for unchanged block ids/seqs remain readable. This
    // documents (rather than forbids) store reuse.
    let root = store_dir("reuse");
    record(scripts::CV_TRAIN, &exact_opts(&root)).unwrap();
    let second = record(scripts::CV_TRAIN, &exact_opts(&root));
    // Writing the same (block, seq) twice is an error in the store layer —
    // surfaced through the background materializer's error channel, which
    // the record report exposes as I/O failures, or it succeeds by
    // overwriting files. Either way the following replay must be coherent.
    let _ = second;
    let rep = replay(scripts::CV_TRAIN, &root, &ReplayOptions::default()).unwrap();
    assert!(rep.anomalies.is_empty(), "{:?}", rep.anomalies);
}

#[test]
fn compaction_crash_at_every_byte_offset_loses_no_live_checkpoint() {
    // The compaction rewrite's crash states, exhaustively:
    //
    //   A. killed while writing the new segment's temp sibling — one state
    //      per byte offset of the new segment file,
    //   B. killed after the rename, before the manifest swap,
    //   C. killed after the manifest swap, before the old segments are
    //      deleted,
    //   D. killed after the deletes (i.e. completed).
    //
    // Every state must recover at open to either the pre-compaction or the
    // post-compaction view — same live logical content either way — with
    // zero live checkpoints lost and the store accepting new writes.
    // (This mirrors the mid-group-commit cut test above: there the torn
    // artifact is the appended manifest text; here it is the rewritten
    // segment.)
    use flor_chkpt::CheckpointStore;
    let base = store_dir("compact-cut");
    fs::create_dir_all(&base).unwrap();

    // Live content: two blocks, a few seqs, with superseded re-puts so
    // compaction has real garbage to drop. Payloads are deterministic
    // incompressible xorshift bytes, seeded per (block, seq, round).
    let payload = |block: &str, seq: u64, round: u32| -> Vec<u8> {
        let tag = *block.as_bytes().last().expect("non-empty block id") as u32;
        incompressible((seq as u32 + 1) * 1009 + round * 97 + tag, 1500)
    };
    let live_keys: Vec<(&str, u64)> = vec![("sb_a", 0), ("sb_a", 1), ("sb_a", 2), ("sb_b", 0)];

    // Build the pre-compaction reference.
    let before = base.join("before");
    {
        let store = CheckpointStore::open(&before).unwrap();
        for round in 0..3u32 {
            for (block, seq) in &live_keys {
                store
                    .put(block, *seq, &payload(block, *seq, round))
                    .unwrap();
            }
        }
    }

    // Run a real compaction on a scratch copy to capture its artifacts:
    // the new segment's bytes/name and the rewritten manifest.
    let scratch = base.join("scratch");
    copy_store(&before, &scratch);
    let (new_seg_name, new_seg_bytes, new_manifest) = {
        let store = CheckpointStore::open(&scratch).unwrap();
        let report = store.compact().unwrap();
        assert_eq!(report.rewritten_entries, live_keys.len() as u64);
        assert!(report.reclaimed_bytes > 0, "{report:?}");
        assert_eq!(report.new_segments.len(), 1, "fixture fits one segment");
        let name = format!("{:08}.seg", report.new_segments[0]);
        let bytes = fs::read(scratch.join("seg").join(&name)).unwrap();
        let manifest = fs::read(scratch.join("MANIFEST")).unwrap();
        (name, bytes, manifest)
    };

    let verify = |victim: &std::path::Path, label: &str| {
        let store = CheckpointStore::open(victim)
            .unwrap_or_else(|e| panic!("{label}: failed to recover: {e}"));
        assert_eq!(
            store.entries().len(),
            live_keys.len(),
            "{label}: live checkpoint set changed"
        );
        for (block, seq) in &live_keys {
            assert_eq!(
                store
                    .get(block, *seq)
                    .unwrap_or_else(|e| panic!("{label}: live checkpoint {block}.{seq} lost: {e}")),
                payload(block, *seq, 2),
                "{label}: {block}.{seq} must hold the latest re-put"
            );
        }
        // The recovered store accepts and persists new writes.
        store.put("post", 0, b"post-recovery write").unwrap();
        assert_eq!(store.get("post", 0).unwrap(), b"post-recovery write");
    };

    // A: cut at every byte offset of the new segment's temp sibling.
    let tmp_name = format!(".compact-{new_seg_name}.tmp.99999");
    for cut in 0..=new_seg_bytes.len() {
        let victim = base.join("cut-a");
        let _ = fs::remove_dir_all(&victim);
        copy_store(&before, &victim);
        fs::write(victim.join("seg").join(&tmp_name), &new_seg_bytes[..cut]).unwrap();
        verify(&victim, &format!("A(cut={cut})"));
    }

    // B: new segment renamed in, manifest not yet swapped (the new segment
    // is unreferenced — open must report it and fall back to the
    // pre-view; the next compaction reclaims the disk space).
    {
        let victim = base.join("cut-b");
        let _ = fs::remove_dir_all(&victim);
        copy_store(&before, &victim);
        fs::write(victim.join("seg").join(&new_seg_name), &new_seg_bytes).unwrap();
        verify(&victim, "B");
        {
            let store = CheckpointStore::open(&victim).unwrap();
            assert!(
                !store.recovery_report().orphaned_segments.is_empty(),
                "B: orphaned new segment must be reported"
            );
            store.compact().unwrap();
        }
        assert!(
            !victim.join("seg").join(&new_seg_name).exists(),
            "B: compaction must GC the orphaned segment"
        );
        let store = CheckpointStore::open(&victim).unwrap();
        for (block, seq) in &live_keys {
            assert_eq!(store.get(block, *seq).unwrap(), payload(block, *seq, 2));
        }
    }

    // C: manifest swapped, old segments still on disk (they are the
    // orphans now — recovery must land on the post-view).
    {
        let victim = base.join("cut-c");
        let _ = fs::remove_dir_all(&victim);
        copy_store(&before, &victim);
        fs::write(victim.join("seg").join(&new_seg_name), &new_seg_bytes).unwrap();
        fs::write(victim.join("MANIFEST"), &new_manifest).unwrap();
        verify(&victim, "C");
    }

    // D: completed compaction (old segments deleted).
    {
        let victim = base.join("cut-d");
        let _ = fs::remove_dir_all(&victim);
        fs::create_dir_all(victim.join("seg")).unwrap();
        fs::create_dir_all(victim.join("artifacts")).unwrap();
        fs::write(victim.join("seg").join(&new_seg_name), &new_seg_bytes).unwrap();
        fs::write(victim.join("MANIFEST"), &new_manifest).unwrap();
        verify(&victim, "D");
    }
}

/// Copies a store directory (MANIFEST + seg/) for crash-state fixtures.
fn copy_store(src: &std::path::Path, dst: &std::path::Path) {
    fs::create_dir_all(dst.join("seg")).unwrap();
    fs::create_dir_all(dst.join("artifacts")).unwrap();
    fs::copy(src.join("MANIFEST"), dst.join("MANIFEST")).unwrap();
    for entry in fs::read_dir(src.join("seg")).unwrap() {
        let entry = entry.unwrap();
        fs::copy(entry.path(), dst.join("seg").join(entry.file_name())).unwrap();
    }
}

/// Drifting f32 payload generator for the delta-chain crash fixtures:
/// version `v` nudges a sliding ~5% of the elements of a fixed base slab.
fn drifting_payload(v: u64, floats: usize) -> Vec<u8> {
    let mut vals: Vec<f32> = (0..floats).map(|i| (i as f32 * 0.61).cos()).collect();
    for step in 1..=v {
        for (i, val) in vals.iter_mut().enumerate() {
            if (i as u64).wrapping_mul(37).wrapping_add(step) % 20 == 0 {
                *val += 0.002 * step as f32;
            }
        }
    }
    vals.iter().flat_map(|f| f.to_le_bytes()).collect()
}

#[test]
fn delta_chain_segment_truncated_at_every_offset_never_lies() {
    // Build a chained store (keyframe + delta frames in one segment),
    // then truncate the segment at *every* byte offset. Every read of
    // every version must either return the exact original bytes or fail
    // loudly — a mid-frame cut through a delta frame or a chunked frame
    // must never decode into silently different state.
    use flor_chkpt::CheckpointStore;
    let base = store_dir("delta-trunc");
    fs::create_dir_all(&base).unwrap();
    let reference = base.join("ref");
    let versions = 4u64;
    let floats = 512; // 2 KiB payloads keep the offset sweep fast
    {
        let store = CheckpointStore::open(&reference).unwrap();
        for v in 0..versions {
            store.put("sb_0", v, &drifting_payload(v, floats)).unwrap();
        }
        assert!(
            store.stats().delta_entries >= versions - 1,
            "fixture must chain: {:?}",
            store.stats()
        );
    }
    let seg = reference.join("seg").join("00000000.seg");
    let seg_bytes = fs::read(&seg).unwrap();

    let victim = base.join("victim");
    for cut in 0..seg_bytes.len() {
        let _ = fs::remove_dir_all(&victim);
        copy_store(&reference, &victim);
        fs::write(victim.join("seg").join("00000000.seg"), &seg_bytes[..cut]).unwrap();
        // Open must not panic; reads must be right or loud.
        let store = match CheckpointStore::open(&victim) {
            Ok(s) => s,
            Err(_) => continue,
        };
        for v in 0..versions {
            if let Ok(bytes) = store.get("sb_0", v) {
                assert_eq!(
                    bytes,
                    drifting_payload(v, floats),
                    "cut {cut}: version {v} silently altered"
                );
            }
        }
    }
}

#[test]
fn delta_chain_segment_corrupted_at_every_stride_never_lies() {
    // Arbitrary-cut corruption: flip one byte at a stride of offsets
    // across the chained segment. The payload CRCs (checked at every
    // chain level) must turn every content hit into an error, never into
    // silently different restored state.
    use flor_chkpt::{CheckpointStore, StoreOptions};
    let base = store_dir("delta-flip");
    fs::create_dir_all(&base).unwrap();
    let reference = base.join("ref");
    let versions = 4u64;
    let floats = 512;
    {
        let store = CheckpointStore::open(&reference).unwrap();
        for v in 0..versions {
            store.put("sb_0", v, &drifting_payload(v, floats)).unwrap();
        }
        assert!(store.stats().delta_entries >= versions - 1);
    }
    let seg = reference.join("seg").join("00000000.seg");
    let seg_bytes = fs::read(&seg).unwrap();

    let victim = base.join("victim");
    let mut detected = 0u64;
    for at in (0..seg_bytes.len()).step_by(3) {
        let _ = fs::remove_dir_all(&victim);
        copy_store(&reference, &victim);
        let mut corrupted = seg_bytes.clone();
        corrupted[at] ^= 0xA5;
        fs::write(victim.join("seg").join("00000000.seg"), &corrupted).unwrap();
        let store = match CheckpointStore::open(&victim) {
            Ok(s) => s,
            Err(_) => continue,
        };
        for v in 0..versions {
            match store.get("sb_0", v) {
                Ok(bytes) => assert_eq!(
                    bytes,
                    drifting_payload(v, floats),
                    "flip at {at}: version {v} silently altered"
                ),
                Err(_) => detected += 1,
            }
        }
    }
    assert!(
        detected > 0,
        "at least some corruption must land in payload bytes and be detected"
    );
    // The same sweep with delta disabled exercises the chunked/plain
    // frames alone (regression guard for the non-delta pipeline).
    let plain_ref = base.join("plain-ref");
    {
        let store = CheckpointStore::open_opts(
            &plain_ref,
            StoreOptions {
                delta_keyframe_interval: 0,
                ..StoreOptions::default()
            },
        )
        .unwrap();
        for v in 0..versions {
            store.put("sb_0", v, &drifting_payload(v, floats)).unwrap();
        }
    }
    let seg = plain_ref.join("seg").join("00000000.seg");
    let seg_bytes = fs::read(&seg).unwrap();
    for at in (0..seg_bytes.len()).step_by(7) {
        let _ = fs::remove_dir_all(&victim);
        copy_store(&plain_ref, &victim);
        let mut corrupted = seg_bytes.clone();
        corrupted[at] ^= 0xA5;
        fs::write(victim.join("seg").join("00000000.seg"), &corrupted).unwrap();
        if let Ok(store) = CheckpointStore::open(&victim) {
            for v in 0..versions {
                if let Ok(bytes) = store.get("sb_0", v) {
                    assert_eq!(bytes, drifting_payload(v, floats), "plain flip at {at}");
                }
            }
        }
    }
}

#[test]
fn chunked_keyframe_truncation_is_loud_through_the_store() {
    // A payload large enough for the parallel chunked frame (and
    // compressible enough that raw storage doesn't win): cutting its
    // segment mid-frame must surface as corruption on read, with every
    // chunk boundary covered by the stride.
    use flor_chkpt::{compress, CheckpointStore, StoreOptions};
    let base = store_dir("chunked-trunc");
    fs::create_dir_all(&base).unwrap();
    let reference = base.join("ref");
    // 1.25 MiB, structured so it compresses (zero runs between counters).
    let payload: Vec<u8> = (0..1_310_720u32)
        .flat_map(|i| {
            if i % 3 == 0 {
                i.to_le_bytes()
            } else {
                [0u8; 4]
            }
        })
        .collect();
    {
        let store = CheckpointStore::open_opts(
            &reference,
            StoreOptions {
                delta_keyframe_interval: 0,
                ..StoreOptions::default()
            },
        )
        .unwrap();
        store.put("sb_0", 0, &payload).unwrap();
        let stored = store.get_stored("sb_0", 0).unwrap();
        assert!(
            compress::is_chunked(&stored),
            "fixture must exercise the chunked frame"
        );
    }
    let seg = reference.join("seg").join("00000000.seg");
    let seg_bytes = fs::read(&seg).unwrap();
    let victim = base.join("victim");
    let mut failures = 0u64;
    for cut in (64..seg_bytes.len()).step_by(seg_bytes.len() / 97 + 1) {
        let _ = fs::remove_dir_all(&victim);
        copy_store(&reference, &victim);
        fs::write(victim.join("seg").join("00000000.seg"), &seg_bytes[..cut]).unwrap();
        if let Ok(store) = CheckpointStore::open(&victim) {
            match store.get("sb_0", 0) {
                Ok(bytes) => assert_eq!(bytes, payload, "cut {cut} silently altered data"),
                Err(_) => failures += 1,
            }
        }
    }
    assert!(failures > 0, "truncation inside the frame must be detected");
}
