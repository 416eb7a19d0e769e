//! Criterion bench: live record overhead (Figure 11's live counterpart) —
//! vanilla execution vs recorded execution of the cv_train mini workload —
//! plus the record hot path itself: caller-thread submit latency on the
//! fork-batched materializer, zero-copy vs the pre-refactor eager-copy
//! construction.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use flor_bench::record_submit::{StateFixture, SubmitMode};
use flor_bench::scripts;
use flor_chkpt::{CheckpointStore, Materializer};
use flor_core::record::{record, run_vanilla, RecordOptions};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

fn bench_record(c: &mut Criterion) {
    static RUN: AtomicU64 = AtomicU64::new(0);
    let mut group = c.benchmark_group("record_vs_vanilla");
    group.sample_size(10);
    group.bench_function("vanilla", |b| {
        b.iter(|| run_vanilla(scripts::CV_TRAIN).unwrap())
    });
    group.bench_function("record", |b| {
        b.iter(|| {
            let run = RUN.fetch_add(1, Ordering::Relaxed);
            let dir = std::env::temp_dir()
                .join(format!("flor-bench-record-{}-{run}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let out = record(scripts::CV_TRAIN, &RecordOptions::new(dir.clone())).unwrap();
            let _ = std::fs::remove_dir_all(&dir);
            out
        })
    });
    group.finish();
}

/// Caller-thread cost of one checkpoint submission (snapshot build +
/// submit) — the quantity the zero-copy pipeline drives toward O(1).
fn bench_submit(c: &mut Criterion) {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let fixture = StateFixture::new(8, 64 * 1024); // 8 × 256 KiB ≈ 2 MiB/ckpt
    let mut group = c.benchmark_group("record_submit");
    group.throughput(Throughput::Bytes(fixture.raw_bytes() as u64));
    for mode in [SubmitMode::ZeroCopy, SubmitMode::EagerCopy] {
        let dir = std::env::temp_dir().join(format!(
            "flor-bench-submit-crit-{}-{}",
            mode.label(),
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Arc::new(CheckpointStore::open(dir.clone()).unwrap());
        let mat = Materializer::new(store, 2);
        group.bench_with_input(
            BenchmarkId::new("ForkBatched", mode.label()),
            &mode,
            |b, &mode| {
                b.iter(|| {
                    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
                    mat.submit("bench", seq, fixture.build_payload(mode));
                });
            },
        );
        mat.flush().expect("checkpoint writes");
        // Each fixture store grows to multiple GiB; leaking it fills
        // /tmp after a handful of CI runs.
        drop(mat);
        let _ = std::fs::remove_dir_all(&dir);
    }
    group.finish();
}

criterion_group!(benches, bench_record, bench_submit);
criterion_main!(benches);
