//! Crash injection for the tiered, deduplicated storage engine.
//!
//! Two crash surfaces of the dedup tier, each swept exhaustively:
//!
//! - **MANIFEST over `@dup` lines**: a v4 manifest truncated at every byte
//!   offset must reopen into a store whose surviving entries all read back
//!   byte-identical (the torn tail is dropped, never misparsed into a
//!   different location).
//! - **DEDUPLOG**: the arena's refcount log truncated at every offset must
//!   replay into an arena that serves every still-known blob exactly, and
//!   fails loudly (never silently differently) for blobs the lost suffix
//!   forgot. The commit ordering (arena sync *before* manifest append)
//!   means a real crash can only over-count references — blobs leak toward
//!   retention, never toward data loss.
//!
//! Plus the blob read contract: a damaged or missing blob is loud per-entry
//! corruption on the next read, and a blob retention unlinks stays readable
//! for whoever still holds its bytes.

use flor_chkpt::{CheckpointStore, DedupIndex, StoreOptions};
use std::fs;
use std::path::{Path, PathBuf};

fn base_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "flor-tier-inject-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// Incompressible payload, distinct per (seed); large enough to clear the
/// dedup size floor even after arbitration.
fn payload(seed: u32) -> Vec<u8> {
    let mut x = seed | 1;
    (0..4096)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            x as u8
        })
        .collect()
}

fn copy_dir(src: &Path, dst: &Path) {
    fs::create_dir_all(dst).unwrap();
    for entry in fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        let to = dst.join(entry.file_name());
        if entry.file_type().unwrap().is_dir() {
            copy_dir(&entry.path(), &to);
        } else {
            fs::copy(entry.path(), &to).unwrap();
        }
    }
}

/// Builds the reference fixture: two stores sharing one arena, the second
/// consisting purely of `@dup` reference entries (every payload re-records
/// the first store's bytes).
fn dedup_fixture(base: &Path) -> (PathBuf, PathBuf, PathBuf, usize) {
    let arena = base.join("arena");
    let first = base.join("first");
    let second = base.join("second");
    let versions = 4usize;
    let a = CheckpointStore::open_opts(
        &first,
        StoreOptions {
            delta_keyframe_interval: 0,
            ..StoreOptions::default()
        },
    )
    .unwrap();
    a.attach_dedup(&arena).unwrap();
    for v in 0..versions {
        a.put("sb_0", v as u64, &payload(v as u32 + 7)).unwrap();
    }
    let b = CheckpointStore::open_opts(
        &second,
        StoreOptions {
            delta_keyframe_interval: 0,
            ..StoreOptions::default()
        },
    )
    .unwrap();
    b.attach_dedup(&arena).unwrap();
    for v in 0..versions {
        b.put("sb_0", v as u64, &payload(v as u32 + 7)).unwrap();
    }
    let sb = b.stats();
    assert_eq!(sb.dedup_entries as usize, versions, "{sb:?}");
    assert_eq!(sb.dedup_hits as usize, versions, "{sb:?}");
    (arena, first, second, versions)
}

#[test]
fn manifest_truncated_at_every_offset_over_dup_lines_never_lies() {
    let base = base_dir("manifest");
    let (_arena, _first, second, versions) = dedup_fixture(&base);
    let manifest = fs::read(second.join("MANIFEST")).unwrap();
    assert!(
        String::from_utf8_lossy(&manifest).contains("@dup:"),
        "fixture must exercise v4 lines"
    );

    let victim = base.join("victim");
    for cut in 0..=manifest.len() {
        let _ = fs::remove_dir_all(&victim);
        copy_dir(&second, &victim);
        fs::write(victim.join("MANIFEST"), &manifest[..cut]).unwrap();
        // Open never panics; complete surviving lines read back exactly.
        let store = match CheckpointStore::open(&victim) {
            Ok(s) => s,
            Err(_) => continue,
        };
        for v in 0..versions {
            if let Ok(bytes) = store.get_bytes("sb_0", v as u64) {
                assert_eq!(
                    bytes,
                    payload(v as u32 + 7),
                    "cut {cut}: version {v} silently altered"
                );
            }
        }
        // A complete-prefix cut (line boundary) keeps exactly the prefix.
        if cut == manifest.len() {
            assert_eq!(store.entries().len(), versions);
        }
    }
}

#[test]
fn dedup_log_truncated_at_every_offset_is_exact_or_loud() {
    let base = base_dir("deduplog");
    let (arena, _first, second, versions) = dedup_fixture(&base);
    let log = fs::read(arena.join("DEDUPLOG")).unwrap();
    assert!(!log.is_empty());

    for cut in 0..=log.len() {
        // Fresh directories per cut: `DedupIndex::open` shares live
        // instances per absolute path, and the point here is the *disk
        // replay* of a torn log.
        let victim_arena = base.join(format!("varena-{cut}"));
        let victim = base.join(format!("victim-{cut}"));
        copy_dir(&arena, &victim_arena);
        fs::write(victim_arena.join("DEDUPLOG"), &log[..cut]).unwrap();
        copy_dir(&second, &victim);
        fs::write(
            victim.join("DEDUP"),
            format!("{}\n", victim_arena.display()),
        )
        .unwrap();
        // Open may fail loudly (arena refuses interior corruption); it
        // must never misread.
        let store = match CheckpointStore::open(&victim) {
            Ok(s) => s,
            Err(_) => continue,
        };
        for v in 0..versions {
            if let Ok(bytes) = store.get_bytes("sb_0", v as u64) {
                assert_eq!(
                    bytes,
                    payload(v as u32 + 7),
                    "cut {cut}: version {v} silently altered"
                );
            }
        }
        let _ = fs::remove_dir_all(&victim_arena);
        let _ = fs::remove_dir_all(&victim);
    }

    // The refcount invariant behind crash-safe retention: a torn *tail*
    // (the only state a real crash can produce after the pre-manifest
    // sync) replays to refcounts ≥ the true reference count, so releasing
    // one store's references can never free a blob another store needs.
    let fresh = base.join("tail-arena");
    copy_dir(&arena, &fresh);
    let tail_cut = log.len() - 1; // torn final record
    fs::write(fresh.join("DEDUPLOG"), &log[..tail_cut]).unwrap();
    let replayed = DedupIndex::open(&fresh).unwrap();
    let original = DedupIndex::open(&arena).unwrap();
    assert!(replayed.entries() >= original.entries().saturating_sub(1));
}

/// A victim copy of the fixture's all-`@dup` store over its own copy of
/// the arena (`DedupIndex::open` shares live instances per path, so each
/// damage case gets fresh directories — and with them a fresh handle).
fn dup_victim(base: &Path, tag: &str) -> (PathBuf, PathBuf) {
    let (arena, _first, second, _) = dedup_fixture(&base.join(format!("fixture-{tag}")));
    let victim_arena = base.join(format!("arena-{tag}"));
    let victim = base.join(format!("victim-{tag}"));
    copy_dir(&arena, &victim_arena);
    copy_dir(&second, &victim);
    fs::write(
        victim.join("DEDUP"),
        format!("{}\n", victim_arena.display()),
    )
    .unwrap();
    (victim, victim_arena)
}

fn blob_of(store: &CheckpointStore, arena: &Path, seq: u64) -> PathBuf {
    // The fixture's store holds one `@dup` entry per version; find the
    // one whose bytes `seq` restores by reading each blob's payload.
    let want = store.get_bytes("sb_0", seq).unwrap();
    fs::read_dir(arena.join("blobs"))
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| fs::read(p).unwrap().ends_with(want.as_ref()))
        .expect("blob holding the version")
}

#[test]
fn damaged_or_missing_blobs_are_loud_corruption_on_the_next_read() {
    use flor_chkpt::StoreError;
    let base = base_dir("blob-damage");
    type Damage = fn(&Path);
    let cases: [(&str, Damage); 4] = [
        ("flip", |blob| {
            let mut bytes = fs::read(blob).unwrap();
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0x40;
            fs::write(blob, bytes).unwrap();
        }),
        ("truncate", |blob| {
            let bytes = fs::read(blob).unwrap();
            fs::write(blob, &bytes[..bytes.len() / 2]).unwrap();
        }),
        ("empty", |blob| fs::write(blob, b"").unwrap()),
        ("missing", |blob| fs::remove_file(blob).unwrap()),
    ];
    for (tag, damage) in cases {
        let (victim, victim_arena) = dup_victim(&base, tag);
        let blob = {
            let intact = CheckpointStore::open(&victim).unwrap();
            blob_of(&intact, &victim_arena, 2)
            // Handle (and its mappings) dropped before the file changes.
        };
        damage(&blob);
        let store = CheckpointStore::open(&victim).unwrap();
        match store.get_bytes("sb_0", 2) {
            Err(StoreError::Corrupt { block_id, seq, .. }) => {
                assert_eq!((block_id.as_str(), seq), ("sb_0", 2), "{tag}");
            }
            other => panic!("{tag}: expected loud corruption, got {other:?}"),
        }
        // Still loud on a repeat (a failed check is not remembered as a
        // pass), and an undamaged blob reads exactly.
        assert!(store.get_bytes("sb_0", 2).is_err(), "{tag}");
        assert_eq!(store.get_bytes("sb_0", 0).unwrap(), payload(7), "{tag}");
    }
}

#[test]
fn bit_rot_after_the_one_hash_check_is_still_caught_by_the_payload_crc() {
    use flor_chkpt::StoreError;
    let base = base_dir("blob-rot");
    let (victim, victim_arena) = dup_victim(&base, "rot");
    let store = CheckpointStore::open(&victim).unwrap();
    let blob = blob_of(&store, &victim_arena, 0);
    assert_eq!(store.get_bytes("sb_0", 0).unwrap(), payload(7));
    let verifies = store.stats().dedup_hash_verifies;
    assert!(verifies >= 1);
    // Same process, same handle, no mapping of the blob alive: the hash
    // will not be checked again, the CRC must carry the read.
    let mut bytes = fs::read(&blob).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x01;
    fs::write(&blob, bytes).unwrap();
    match store.get_bytes("sb_0", 0) {
        Err(StoreError::Corrupt { detail, .. }) => assert!(detail.contains("crc"), "{detail}"),
        other => panic!("expected a CRC failure, got {other:?}"),
    }
    assert_eq!(store.stats().dedup_hash_verifies, verifies);
}

#[test]
fn a_blob_unlinked_by_retention_stays_readable_while_its_bytes_are_held() {
    let base = base_dir("blob-unlink");
    let arena_dir = base.join("arena");
    let store = CheckpointStore::open_opts(
        base.join("run"),
        StoreOptions {
            delta_keyframe_interval: 0,
            ..StoreOptions::default()
        },
    )
    .unwrap();
    store.attach_dedup(&arena_dir).unwrap();
    store.put("sb_0", 0, &payload(99)).unwrap();
    let held = store.get_bytes("sb_0", 0).unwrap();
    // Retention: the run's only reference goes, the blob file with it.
    let arena = store.dedup_index().unwrap();
    for h in store.dedup_references() {
        arena.release(h).unwrap();
    }
    assert_eq!(
        fs::read_dir(arena_dir.join("blobs")).unwrap().count(),
        0,
        "refcount zero unlinks the blob"
    );
    assert_eq!(
        held.as_ref(),
        &payload(99)[..],
        "held bytes outlive the unlink"
    );
    // A new read of the pruned entry is loud, not stale.
    assert!(store.get_bytes("sb_0", 0).is_err());
}
