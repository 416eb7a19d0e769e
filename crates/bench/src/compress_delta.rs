//! Checkpoint-compression measurement for the record hot path.
//!
//! Runs a drifting-tensor workload — a large f32 slab of which a few
//! percent of elements move per training iteration, the regime where
//! "successive training checkpoints differ only slightly" — through the
//! store's write pipeline: XOR delta chains with keyframes every K
//! versions, hash-chain LZ, and parallel chunked compression for large
//! keyframes.
//!
//! Measured: bytes on disk, per-checkpoint submit latency (median) and
//! end-to-end submit throughput, and the sequential restore median through
//! `get_bytes` on a fresh handle. The `bench_compress_json` binary emits
//! the committed `BENCH_compress.json`; `flor-sim`'s `cost::delta_cost`
//! constants come from it.

use flor_chkpt::{CheckpointStore, StoreStats};
use std::path::PathBuf;
use std::time::Instant;

/// f32 elements that drift per version, as a fraction denominator
/// (20 → 5% of the slab per step).
pub const DRIFT_DENOM: usize = 20;

/// Deterministic base slab: pseudo-random floats in ±1 (incompressible,
/// like trained weights).
pub fn base_slab(floats: usize) -> Vec<f32> {
    let mut x = 0x5DEECE66Du64 | 1;
    (0..floats)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            ((x >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0) as f32
        })
        .collect()
}

/// Applies version `v`'s drift in place: a sliding ~5% subset of elements
/// gets a small additive update (one optimizer step over a mostly-frozen
/// model — embedding rows, adapter weights, head layers).
pub fn drift(slab: &mut [f32], v: u64) {
    for (i, val) in slab.iter_mut().enumerate() {
        if (i as u64)
            .wrapping_mul(2654435761)
            .wrapping_add(v)
            .is_multiple_of(DRIFT_DENOM as u64)
        {
            *val += 1e-3 * ((v % 7) as f32 + 1.0);
        }
    }
}

/// The byte payload of one version.
pub fn payload_bytes(slab: &[f32]) -> Vec<u8> {
    slab.iter().flat_map(|f| f.to_le_bytes()).collect()
}

/// One run's measurements.
#[derive(Debug, Clone, Copy)]
pub struct RunResult {
    /// Bytes on disk across all versions (stored payload bytes).
    pub stored_bytes: u64,
    /// Uncompressed bytes submitted.
    pub raw_bytes: u64,
    /// Median per-checkpoint submit (stage + commit) latency, ns.
    pub submit_median_ns: u64,
    /// End-to-end submit throughput, raw MB/s.
    pub submit_mb_per_s: f64,
    /// Median sequential restore (`get_bytes`) latency on a fresh handle, ns.
    pub restore_median_ns: u64,
    /// Store stats snapshot after the restore pass.
    pub stats: StoreStats,
}

fn tmp(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("flor-bench-compress-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Writes `versions` drifting checkpoints of `floats` f32 elements through
/// a default-options store, then restores them all.
pub fn run_workload(tag: &str, versions: u64, floats: usize) -> RunResult {
    let root = tmp(tag);
    // Materialize every version's payload up front: the measured quantity
    // is the store submit path, not the workload generator.
    let mut slab = base_slab(floats);
    let payloads: Vec<Vec<u8>> = (0..versions)
        .map(|v| {
            if v > 0 {
                drift(&mut slab, v);
            }
            payload_bytes(&slab)
        })
        .collect();
    let raw_bytes: u64 = payloads.iter().map(|p| p.len() as u64).sum();
    let mut submit_ns: Vec<u64> = Vec::with_capacity(versions as usize);
    {
        let store = CheckpointStore::open(&root).expect("open bench store");
        for (v, payload) in payloads.iter().enumerate() {
            let t0 = Instant::now();
            store.put("sb_0", v as u64, payload).expect("bench put");
            submit_ns.push(t0.elapsed().as_nanos() as u64);
        }
    }
    let submit_wall = submit_ns.iter().sum::<u64>() as f64 / 1e9;

    // Restore pass on a fresh handle (cold index, cold caches).
    let store = CheckpointStore::open(&root).expect("reopen bench store");
    let mut restore_ns: Vec<u64> = Vec::with_capacity(versions as usize);
    let mut checksum = 0u64;
    for v in 0..versions {
        let t0 = Instant::now();
        let b = store.get_bytes("sb_0", v).expect("bench restore");
        restore_ns.push(t0.elapsed().as_nanos() as u64);
        checksum ^= b.len() as u64;
    }
    assert!(checksum != u64::MAX, "keep the restores observable");
    let stats = store.stats();
    let stored_bytes = store.total_stored_bytes();
    drop(store);
    let _ = std::fs::remove_dir_all(&root);

    submit_ns.sort_unstable();
    restore_ns.sort_unstable();
    RunResult {
        stored_bytes,
        raw_bytes,
        submit_median_ns: submit_ns[submit_ns.len() / 2],
        submit_mb_per_s: raw_bytes as f64 / 1e6 / submit_wall.max(1e-9),
        restore_median_ns: restore_ns[restore_ns.len() / 2],
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drifting_workload_stores_a_fraction_of_its_raw_bytes() {
        // Small instance of the committed benchmark: the slabs are
        // incompressible (a keyframe stores ~raw bytes), so the delta
        // pipeline must store several times fewer bytes than raw.
        let versions = 12u64;
        let floats = 64 * 1024; // 256 KiB payloads
        let run = run_workload("t-delta", versions, floats);
        assert_eq!(run.raw_bytes, versions * floats as u64 * 4);
        assert!(
            run.stored_bytes * 3 <= run.raw_bytes,
            "expected ≥3× byte reduction: {} vs {}",
            run.stored_bytes,
            run.raw_bytes
        );
        assert!(run.stats.delta_entries >= versions - 2, "{:?}", run.stats);
        // Every version restored bit-identically (checked by the store's
        // CRCs on every read inside run_workload).
        assert!(run.restore_median_ns > 0);
    }

    #[test]
    fn drift_moves_a_small_sliding_fraction() {
        let base = base_slab(10_000);
        let mut v1 = base.clone();
        drift(&mut v1, 1);
        let changed = base.iter().zip(&v1).filter(|(a, b)| a != b).count();
        let frac = changed as f64 / base.len() as f64;
        assert!(
            (0.02..0.10).contains(&frac),
            "drift should move ~5% of elements, moved {frac:.3}"
        );
    }
}
