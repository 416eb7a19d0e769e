//! Emits `BENCH_store_tier.json`: the tiered-storage table — cold sparse
//! restores through mmap'd segment buffers, the registry-wide keyframe
//! dedup's bytes-on-disk win, and what a warm restore of an arena-backed
//! (`@dup`) checkpoint costs beside a segment-resident one.
//!
//! Three fixtures:
//!
//! - `restore`: a store whose segments each hold several incompressible
//!   checkpoints; a cold restore touches one checkpoint per segment (the
//!   hindsight-query access pattern — sparse versions, never the whole
//!   run), and the mapping faults in only the pages the slice covers.
//!   The regression this guards is the mmap backend silently degrading
//!   to heap reads: on Linux every segment touched must be one map and
//!   zero fallbacks. Restores are verified byte-identical against the
//!   source payloads.
//! - `dedup`: the same training run recorded `runs` times — the epochs-of-
//!   identical-hyperparameter sweep the registry dedups across — once into
//!   plain stores and once into stores sharing one content-addressed
//!   arena. `dedup_bytes_ratio` (held ≥3×) compares total bytes on disk;
//!   the arena-backed stores' restores are verified byte-identical too.
//! - `warm_restore`: the same few 256 KiB checkpoints in a plain and in an
//!   arena-backed store, read warm. `dup_restore_ratio` (dup / segment
//!   median ns per `get_bytes`, held ≤ 1.25 by CI) is the price of a blob
//!   being its own unpooled mapping — a map and an unmap per read — over a
//!   slice of an already-mapped segment; both sides pay the same payload
//!   CRC. The payload size is the same in quick mode: the mapping cost is
//!   fixed per read, so the ratio is only comparable at one size.
//!
//! ```text
//! cargo run --release -p flor-bench --bin bench_store_tier [-- OUT.json]
//! ```
//!
//! Quick mode (`FLOR_BENCH_QUICK=1`, used by `tools/bench.sh` in CI)
//! shrinks both fixtures; the gated metric is a ratio of same-fixture
//! byte totals, so it stays comparable across scales.

use flor_chkpt::{CheckpointStore, StoreOptions};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Incompressible payload, distinct per seed — compression arbitration
/// stores these raw, so segment bytes ≈ payload bytes and the mmap path
/// serves them zero-copy.
fn payload(bytes: usize, seed: u64) -> Vec<u8> {
    let mut x = seed | 1;
    (0..bytes)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x as u8
        })
        .collect()
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "flor-bench-store-tier-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Total file bytes under a directory tree (bytes-on-disk as the dedup
/// table reports them; sparse files don't occur in this layout).
fn disk_bytes(dir: &Path) -> u64 {
    let mut total = 0;
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    for entry in entries.flatten() {
        let meta = entry.metadata().expect("stat");
        if meta.is_dir() {
            total += disk_bytes(&entry.path());
        } else {
            total += meta.len();
        }
    }
    total
}

/// Median ns of one warm `get_bytes` over `versions` checkpoints: one
/// untimed pass first (segments mapped, blob hashes verified), then `reps`
/// timed passes.
fn warm_restore_ns(store: &CheckpointStore, versions: u64, reps: usize) -> u64 {
    let pass = |samples: &mut Vec<u64>| {
        for v in 0..versions {
            let t0 = Instant::now();
            let got = store.get_bytes("sb_0", v).expect("warm get_bytes");
            samples.push(t0.elapsed().as_nanos() as u64);
            std::hint::black_box(got);
        }
    };
    pass(&mut Vec::new());
    let mut samples = Vec::new();
    for _ in 0..reps {
        pass(&mut samples);
    }
    samples.sort_unstable();
    samples[samples.len() / 2]
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_store_tier.json".to_string());
    let quick = std::env::var("FLOR_BENCH_QUICK")
        .map(|v| v != "0")
        .unwrap_or(false);
    // Same per-segment shape in both modes (stride checkpoints per
    // segment) — quick only trims counts, keeping the gated ratios
    // comparable.
    let (ckpt_bytes, versions, stride, reps, runs, dedup_versions) = if quick {
        (64 << 10, 32u64, 8u64, 5usize, 4usize, 8u64)
    } else {
        (256 << 10, 64, 8, 5, 4, 24)
    };

    // ---- restore: sparse cold reads through mmap'd segments -----------
    let restore_dir = tmp_dir("restore");
    let opts = StoreOptions {
        delta_keyframe_interval: 0,
        segment_target_bytes: stride * ckpt_bytes as u64,
        ..StoreOptions::default()
    };
    eprintln!("recording {versions} x {ckpt_bytes}B checkpoints ({stride}/segment)…");
    let expect: Vec<Vec<u8>> = (0..versions)
        .map(|v| payload(ckpt_bytes, v * 2 + 11))
        .collect();
    {
        let store = CheckpointStore::open_opts(&restore_dir, opts).expect("open restore fixture");
        for (v, p) in expect.iter().enumerate() {
            store.put("sb_0", v as u64, p).expect("put");
        }
    }
    // One checkpoint per segment, newest-first: every read grazes a
    // different segment.
    let sparse: Vec<u64> = (0..versions).rev().step_by(stride as usize).collect();
    eprintln!(
        "cold-restoring {} sparse versions × {reps} rep(s)…",
        sparse.len()
    );
    // Best-of-reps: the minimum is the least-interfered run on a shared host.
    let mut mmap_wall = u64::MAX;
    let (mut mmap_faults, mut mmap_fallbacks) = (0, 0);
    for _ in 0..reps {
        let t0 = Instant::now();
        let store = CheckpointStore::open_opts(&restore_dir, opts).expect("cold reopen");
        for &v in &sparse {
            let got = store.get("sb_0", v).expect("sparse get");
            assert_eq!(got, expect[v as usize], "version {v} diverged");
        }
        mmap_wall = mmap_wall.min(t0.elapsed().as_nanos() as u64);
        let s = store.stats();
        (mmap_faults, mmap_fallbacks) = (s.mmap_faults, s.mmap_fallbacks);
    }
    eprintln!(
        "restore: {:.2}ms ({mmap_faults} segment map(s), {mmap_fallbacks} heap fallback(s))",
        mmap_wall as f64 / 1e6,
    );
    assert_eq!(
        mmap_faults + mmap_fallbacks,
        sparse.len() as u64,
        "each touched segment is loaded exactly once"
    );
    if cfg!(target_os = "linux") {
        assert_eq!(
            mmap_fallbacks, 0,
            "the mmap backend must actually map on Linux (fallback engaged?)"
        );
    }

    // ---- dedup: identical-record sweep, plain vs arena-backed ----------
    eprintln!("recording the same {dedup_versions}-version run {runs}× per engine…");
    let dedup_payloads: Vec<Vec<u8>> = (0..dedup_versions)
        .map(|v| payload(ckpt_bytes, v * 2 + 1001))
        .collect();
    let plain_root = tmp_dir("plain");
    let dedup_root = tmp_dir("dedup");
    let arena = dedup_root.join("arena");
    let sweep_opts = StoreOptions {
        delta_keyframe_interval: 0,
        ..StoreOptions::default()
    };
    let mut dedup_hits = 0u64;
    for run in 0..runs {
        let plain = CheckpointStore::open_opts(plain_root.join(format!("run-{run}")), sweep_opts)
            .expect("open plain run");
        let deduped = CheckpointStore::open_opts(dedup_root.join(format!("run-{run}")), sweep_opts)
            .expect("open deduped run");
        deduped.attach_dedup(&arena).expect("attach arena");
        for (v, p) in dedup_payloads.iter().enumerate() {
            plain.put("sb_0", v as u64, p).expect("plain put");
            deduped.put("sb_0", v as u64, p).expect("deduped put");
        }
        for (v, p) in dedup_payloads.iter().enumerate() {
            assert_eq!(
                &deduped.get("sb_0", v as u64).expect("deduped get"),
                p,
                "run {run}: deduped restore diverged at version {v}"
            );
        }
        dedup_hits = deduped.stats().dedup_hits;
    }
    // ---- warm restore: @dup blob vs segment slice, same payloads ---------
    let (warm_bytes, warm_versions) = (256usize << 10, 8u64);
    let warm_root = tmp_dir("warm");
    let in_segment = CheckpointStore::open_opts(warm_root.join("plain"), sweep_opts)
        .expect("open warm plain store");
    let in_arena = CheckpointStore::open_opts(warm_root.join("deduped"), sweep_opts)
        .expect("open warm deduped store");
    in_arena
        .attach_dedup(warm_root.join("arena"))
        .expect("attach warm arena");
    for v in 0..warm_versions {
        let p = payload(warm_bytes, v * 2 + 5001);
        in_segment.put("sb_0", v, &p).expect("plain put");
        in_arena.put("sb_0", v, &p).expect("deduped put");
    }
    let segment_restore_ns = warm_restore_ns(&in_segment, warm_versions, reps * 8);
    let dup_restore_ns = warm_restore_ns(&in_arena, warm_versions, reps * 8);
    let s = in_arena.stats();
    assert_eq!(
        (s.dedup_entries, s.dedup_hash_verifies),
        (warm_versions, warm_versions),
        "every warm-fixture entry is a blob, hashed once however often it is read: {s:?}"
    );
    let dup_restore_ratio = dup_restore_ns as f64 / segment_restore_ns.max(1) as f64;
    eprintln!(
        "warm restore of {warm_bytes}B: segment {segment_restore_ns}ns vs @dup {dup_restore_ns}ns \
         per get_bytes — {dup_restore_ratio:.2}x"
    );
    let plain_bytes = disk_bytes(&plain_root);
    let deduped_bytes = disk_bytes(&dedup_root);
    let dedup_bytes_ratio = plain_bytes as f64 / deduped_bytes.max(1) as f64;
    eprintln!(
        "dedup: plain {:.1}MiB vs arena-backed {:.1}MiB across {runs} runs — \
         {dedup_bytes_ratio:.2}x ({dedup_hits} hits in the last run)",
        plain_bytes as f64 / (1 << 20) as f64,
        deduped_bytes as f64 / (1 << 20) as f64,
    );
    assert_eq!(
        dedup_hits, dedup_versions,
        "every checkpoint of a re-record must hit the arena"
    );
    assert!(
        dedup_bytes_ratio >= 3.0,
        "a {runs}-run identical sweep must dedup ≥3× on disk: got {dedup_bytes_ratio:.2}x"
    );

    let mut body = String::new();
    let _ = writeln!(body, "{{");
    let _ = writeln!(body, "  \"bench\": \"store_tier\",");
    let _ = writeln!(
        body,
        "  \"description\": \"tiered storage engine: cold sparse restore (one checkpoint per \
         segment, newest-first) through mmap'd segment buffers, and bytes-on-disk for an \
         identical-record sweep into plain stores vs stores sharing one content-addressed \
         keyframe arena — both verified byte-identical before timing/measuring — plus the warm \
         per-read cost of an arena-backed checkpoint beside a segment-resident one of the same \
         size\","
    );
    let _ = writeln!(body, "  \"quick\": {quick},");
    let _ = writeln!(
        body,
        "  \"fixture\": {{\"ckpt_bytes\": {ckpt_bytes}, \"versions\": {versions}, \
         \"ckpts_per_segment\": {stride}, \"reps\": {reps}, \"sweep_runs\": {runs}, \
         \"sweep_versions\": {dedup_versions}}},"
    );
    let _ = writeln!(
        body,
        "  \"mmap\": {{\"best_wall_ns\": {mmap_wall}, \"segment_maps\": {mmap_faults}, \
         \"heap_fallbacks\": {mmap_fallbacks}}},"
    );
    let _ = writeln!(
        body,
        "  \"dedup\": {{\"plain_bytes\": {plain_bytes}, \"deduped_bytes\": {deduped_bytes}, \
         \"arena_hits_per_rerecord\": {dedup_hits}}},"
    );
    let _ = writeln!(
        body,
        "  \"warm_restore\": {{\"ckpt_bytes\": {warm_bytes}, \
         \"segment_restore_ns\": {segment_restore_ns}, \"dup_restore_ns\": {dup_restore_ns}}},"
    );
    let _ = writeln!(body, "  \"dup_restore_ratio\": {dup_restore_ratio:.2},");
    let _ = writeln!(body, "  \"dedup_bytes_ratio\": {dedup_bytes_ratio:.2}");
    let _ = writeln!(body, "}}");

    std::fs::write(&out_path, &body).expect("write BENCH_store_tier.json");
    eprintln!("wrote {out_path}");
    let _ = std::fs::remove_dir_all(&restore_dir);
    let _ = std::fs::remove_dir_all(&plain_root);
    let _ = std::fs::remove_dir_all(&dedup_root);
    let _ = std::fs::remove_dir_all(&warm_root);
}
