//! Criterion bench: Figure 5's strategies — main-thread cost of submitting
//! a checkpoint under each background-materialization strategy.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use flor_chkpt::{CheckpointStore, Materializer, Payload, SerializeSnapshot, Strategy};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

struct HeavySnapshot(Vec<u8>);

impl SerializeSnapshot for HeavySnapshot {
    fn serialize(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.0.len());
        let mut acc = 0u8;
        for &b in &self.0 {
            acc = acc.wrapping_mul(31).wrapping_add(b);
            out.push(b ^ acc);
        }
        out
    }
    fn approx_bytes(&self) -> usize {
        self.0.len()
    }
}

fn bench_materialization(c: &mut Criterion) {
    let payload: Vec<u8> = (0..1 << 20).map(|i| (i % 251) as u8).collect();
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let mut group = c.benchmark_group("materialization_submit");
    group.throughput(Throughput::Bytes(payload.len() as u64));
    for strategy in [
        Strategy::Baseline,
        Strategy::IpcQueue,
        Strategy::Plasma,
        Strategy::ForkBatched,
    ] {
        let dir = std::env::temp_dir().join(format!(
            "flor-bench-mat-{strategy:?}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Arc::new(CheckpointStore::open(dir).unwrap());
        let mat = Materializer::new(store, strategy, 2);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{strategy:?}")),
            &strategy,
            |b, _| {
                b.iter(|| {
                    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
                    mat.submit(
                        "bench",
                        seq,
                        Payload::Deferred(Arc::new(HeavySnapshot(payload.clone()))),
                    );
                });
            },
        );
        mat.flush().expect("checkpoint writes");
    }
    group.finish();
}

criterion_group!(benches, bench_materialization);
criterion_main!(benches);
