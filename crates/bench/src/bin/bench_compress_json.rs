//! Emits `BENCH_compress.json`: the checkpoint-compression table for the
//! delta-chain + parallel-compression pipeline — bytes on disk, record
//! submit throughput, and the restore median on a drifting-tensor
//! workload. This is the committed benchmark trajectory for checkpoint
//! bytes; `tools/ci.sh`'s bench-regression step holds future PRs to it,
//! and `flor-sim`'s `cost::delta_cost` constants come from it.
//!
//! ```text
//! cargo run --release -p flor-bench --bin bench_compress_json [-- OUT.json]
//! ```
//!
//! Quick mode (`FLOR_BENCH_QUICK=1`, used by `tools/bench.sh` in CI)
//! shrinks the fixture so the smoke run finishes in seconds.

use flor_bench::compress_delta::{run_workload, DRIFT_DENOM};
use std::fmt::Write as _;

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_compress.json".to_string());
    let quick = std::env::var("FLOR_BENCH_QUICK")
        .map(|v| v != "0")
        .unwrap_or(false);
    // Both fixtures keep the same keyframe fraction (1 in 8), so the
    // delta-frame ratio stays comparable between the CI quick run and the
    // committed full-scale baseline.
    let (versions, floats) = if quick {
        (16u64, 256 * 1024) // 1 MiB payloads
    } else {
        (32u64, 1024 * 1024) // 4 MiB payloads
    };
    let payload_mb = (floats * 4) as f64 / 1e6;

    eprintln!(
        "drifting-tensor workload: {versions} versions × {payload_mb:.1} MB, \
         ~{:.0}% of elements move per version",
        100.0 / DRIFT_DENOM as f64
    );
    // Warmup (allocator, CPU ramp) on a small instance.
    run_workload("warm-delta", 4, 64 * 1024);
    let delta = run_workload("delta", versions, floats);

    let delta_frame_ratio = {
        // Mean stored/raw over delta entries alone: keyframes store ~raw.
        let kf_bytes = delta.stats.keyframe_entries * (floats as u64 * 4);
        let delta_bytes = delta.stored_bytes.saturating_sub(kf_bytes);
        let delta_raw = delta.stats.delta_entries * (floats as u64 * 4);
        delta_bytes as f64 / delta_raw.max(1) as f64
    };

    let mut body = String::new();
    let _ = writeln!(body, "{{");
    let _ = writeln!(body, "  \"bench\": \"compress_delta\",");
    let _ = writeln!(
        body,
        "  \"description\": \"checkpoint bytes + record submit throughput on a drifting-tensor \
         workload; delta = XOR delta chains (keyframe every 8) + hash-chain LZ + parallel \
         chunked keyframe compression\","
    );
    let _ = writeln!(body, "  \"quick\": {quick},");
    let _ = writeln!(
        body,
        "  \"fixture\": {{\"versions\": {versions}, \"payload_bytes\": {}, \
         \"drift_fraction\": {:.3}}},",
        floats * 4,
        1.0 / DRIFT_DENOM as f64
    );
    let _ = writeln!(
        body,
        "  \"delta\": {{\"stored_bytes\": {}, \"raw_bytes\": {}, \"submit_median_ns\": {}, \
         \"submit_mb_per_s\": {:.1}, \"restore_median_ns\": {}}},",
        delta.stored_bytes,
        delta.raw_bytes,
        delta.submit_median_ns,
        delta.submit_mb_per_s,
        delta.restore_median_ns
    );
    let _ = writeln!(
        body,
        "  \"delta_entries\": {}, \"keyframes\": {}, \"delta_frame_ratio\": {:.4}",
        delta.stats.delta_entries, delta.stats.keyframe_entries, delta_frame_ratio
    );
    let _ = writeln!(body, "}}");

    std::fs::write(&out_path, &body).expect("write BENCH_compress.json");
    eprintln!(
        "bytes {} raw → {} stored; submit {:.0} MB/s; restore median {} ns",
        delta.raw_bytes, delta.stored_bytes, delta.submit_mb_per_s, delta.restore_median_ns
    );
    eprintln!("wrote {out_path}");
    assert!(
        delta.stored_bytes * 3 <= delta.raw_bytes,
        "acceptance: stored bytes must stay ≤ 1/3 of raw on the drifting workload \
         (got {} of {})",
        delta.stored_bytes,
        delta.raw_bytes
    );
}
