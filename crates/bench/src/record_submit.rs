//! Caller-thread submit-latency measurement for the record hot path.
//!
//! Measures what the training thread pays per checkpoint on Flor's
//! fork-batched [`Materializer`], for two snapshot-construction modes:
//!
//! - [`SubmitMode::ZeroCopy`] — the current pipeline: tensor leaves are
//!   lazy slab handles (`CVal::lazy`), so building the snapshot tree is
//!   O(#objects) and serialization runs in the background.
//! - [`SubmitMode::EagerCopy`] — the pre-group-commit pipeline, kept as a
//!   measurable baseline: every tensor is copied into an eager
//!   `CVal::Bytes` leaf on the caller thread (`Tensor::to_bytes`), exactly
//!   what `snapshot()` did before the zero-copy refactor.
//!
//! Both modes submit through the same [`Materializer`], so the measured
//! difference is purely the caller-side construction cost the refactor
//! removed. Used by the `bench_record` criterion bench and the
//! `bench_record_json` binary that emits `BENCH_record.json`.

use flor_chkpt::{ByteSource, BytesMut, CVal, CheckpointStore, Materializer, SerializeSnapshot};
use flor_core::skipblock::CValSnapshot;
use flor_tensor::{Pcg64, Tensor};
use std::sync::Arc;
use std::time::Instant;

/// How the snapshot tree is built on the caller thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitMode {
    /// Lazy slab handles — O(#objects) on the caller.
    ZeroCopy,
    /// Eager `to_bytes` copies — O(bytes) on the caller (pre-PR baseline).
    EagerCopy,
}

impl SubmitMode {
    /// Stable label used in reports.
    pub fn label(&self) -> &'static str {
        match self {
            SubmitMode::ZeroCopy => "zero_copy",
            SubmitMode::EagerCopy => "eager_copy_prepr",
        }
    }
}

/// A zero-copy tensor payload leaf (mirrors the one `flor-core` uses to
/// lower `Value::Tensor`).
struct TensorSrc(Tensor);

impl ByteSource for TensorSrc {
    fn len(&self) -> usize {
        self.0.payload_len()
    }
    fn write_to(&self, buf: &mut BytesMut) {
        self.0.write_payload(buf);
    }
}

/// The model-state stand-in: `tensors` weight matrices of
/// `floats_per_tensor` elements each (think layer weights + optimizer
/// moments of the cv_train workload, scaled up).
pub struct StateFixture {
    tensors: Vec<Tensor>,
}

impl StateFixture {
    /// Deterministic pseudo-random state of the given shape.
    pub fn new(tensors: usize, floats_per_tensor: usize) -> Self {
        let mut rng = Pcg64::seeded(7);
        StateFixture {
            tensors: (0..tensors)
                .map(|_| {
                    Tensor::new(
                        [floats_per_tensor],
                        (0..floats_per_tensor)
                            .map(|_| rng.uniform(-1.0, 1.0))
                            .collect(),
                    )
                })
                .collect(),
        }
    }

    /// Total uncompressed payload bytes per checkpoint.
    pub fn raw_bytes(&self) -> usize {
        self.tensors.iter().map(Tensor::payload_len).sum()
    }

    /// Number of tensors.
    pub fn object_count(&self) -> usize {
        self.tensors.len()
    }

    /// Builds one snapshot payload in the given mode — this is the
    /// caller-side work being measured, identical in shape to what
    /// `exec_record` does per SkipBlock.
    pub fn build_payload(&self, mode: SubmitMode) -> Arc<dyn SerializeSnapshot> {
        let pairs: Vec<(String, CVal)> = self
            .tensors
            .iter()
            .enumerate()
            .map(|(i, t)| {
                let leaf = match mode {
                    SubmitMode::ZeroCopy => CVal::lazy(TensorSrc(t.clone())),
                    SubmitMode::EagerCopy => CVal::bytes(t.to_bytes()),
                };
                (format!("param.{i}"), leaf)
            })
            .collect();
        let objects = pairs.len();
        Arc::new(CValSnapshot::new(CVal::Map(pairs), objects))
    }
}

/// One measured configuration.
#[derive(Debug, Clone)]
pub struct SubmitMeasurement {
    /// Snapshot construction mode.
    pub mode: SubmitMode,
    /// Checkpoints submitted.
    pub jobs: u64,
    /// Mean caller-thread ns per checkpoint (snapshot build + submit).
    pub mean_submit_ns: u64,
    /// Median caller-thread ns per checkpoint.
    pub median_submit_ns: u64,
    /// Total caller-thread blocked time reported by the materializer
    /// (submit-internal only, Figure 5's metric).
    pub blocked_ns_total: u64,
    /// Background group commits (batched manifest appends) issued.
    pub group_commits: u64,
}

/// Submits `jobs` checkpoints of `fixture` built in `mode`,
/// timing the caller-side cost of each (build + submit). The store lives
/// under a throwaway temp directory.
pub fn measure_submit(
    fixture: &StateFixture,
    mode: SubmitMode,
    jobs: u64,
    tag: &str,
) -> SubmitMeasurement {
    let dir = std::env::temp_dir().join(format!(
        "flor-bench-submit-{tag}-{}-{}",
        mode.label(),
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let store = Arc::new(CheckpointStore::open(&dir).unwrap());
    let mat = Materializer::new(store, 2);
    // Untimed warmup: first-touch page faults, worker spawn, allocator and
    // page-cache warm-up all land here instead of in the first sample.
    for seq in 0..3u64 {
        mat.submit("warmup", seq, fixture.build_payload(mode));
    }
    mat.flush().expect("checkpoint writes");
    // Everything counted so far is warmup; subtract it from every reported
    // counter so the committed numbers describe only the timed jobs.
    let warmup = mat.stats();
    let mut per_job_ns: Vec<u64> = Vec::with_capacity(jobs as usize);
    for seq in 0..jobs {
        let t0 = Instant::now();
        let payload = fixture.build_payload(mode);
        mat.submit("sb_0", seq, payload);
        per_job_ns.push(t0.elapsed().as_nanos() as u64);
    }
    mat.flush().expect("checkpoint writes");
    let stats = mat.stats();
    drop(mat);
    let _ = std::fs::remove_dir_all(&dir);
    per_job_ns.sort_unstable();
    let mean = per_job_ns.iter().sum::<u64>() / per_job_ns.len().max(1) as u64;
    let median = per_job_ns[per_job_ns.len() / 2];
    SubmitMeasurement {
        mode,
        jobs,
        mean_submit_ns: mean,
        median_submit_ns: median,
        blocked_ns_total: stats.main_thread_ns - warmup.main_thread_ns,
        group_commits: stats.group_commits - warmup.group_commits,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_modes_persist_identical_checkpoints() {
        let fixture = StateFixture::new(4, 1000);
        for mode in [SubmitMode::ZeroCopy, SubmitMode::EagerCopy] {
            let dir = std::env::temp_dir().join(format!(
                "flor-bench-submit-test-{}-{}",
                mode.label(),
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let store = Arc::new(CheckpointStore::open(&dir).unwrap());
            let mat = Materializer::new(store.clone(), 2);
            mat.submit("sb_0", 0, fixture.build_payload(mode));
            mat.flush().expect("checkpoint writes");
            let payload = store.get("sb_0", 0).unwrap();
            // Encoded payload is mode-independent (zero-copy is lossless).
            let tree = flor_chkpt::decode(&payload).unwrap();
            assert_eq!(
                tree.get("param.0").unwrap().as_bytes().unwrap().to_vec(),
                fixture.tensors[0].to_bytes()
            );
        }
    }

    #[test]
    fn measure_submit_reports_sane_numbers() {
        let fixture = StateFixture::new(2, 500);
        let m = measure_submit(&fixture, SubmitMode::ZeroCopy, 10, "sane");
        assert_eq!(m.jobs, 10);
        assert!(m.mean_submit_ns > 0);
        assert!(m.median_submit_ns <= m.mean_submit_ns * 10);
    }

    /// What zero-copy means, checked without a clock: a `ZeroCopy`
    /// payload's leaves hold the fixture's tensor slabs, so the training
    /// side's next write to one copies it first (copy-on-write) and the
    /// payload keeps the bytes it was built from; an `EagerCopy` payload
    /// holds fresh buffers, so the write lands in place. (The timing ratio
    /// is `bench_record_json`'s to print; on a shared host it is noise.)
    #[test]
    fn zero_copy_leaves_share_the_fixture_slabs() {
        for mode in [SubmitMode::ZeroCopy, SubmitMode::EagerCopy] {
            let mut fixture = StateFixture::new(2, 64);
            let before = fixture.tensors[1].to_bytes();
            let snapshot = fixture.build_payload(mode);
            // The payload now holds the only other handle to this slab, if any.
            let mut tensor = fixture.tensors.pop().unwrap();
            let slab = tensor.data().as_ptr();
            tensor.data_mut()[0] += 1.0;
            let copied = tensor.data().as_ptr() != slab;
            assert_eq!(copied, mode == SubmitMode::ZeroCopy, "{mode:?}");
            let tree = flor_chkpt::decode(&snapshot.serialize()).unwrap();
            let leaf = tree.get("param.1").unwrap().as_bytes().unwrap();
            assert_eq!(leaf.to_vec(), before, "{mode:?} payload keeps its bytes");
        }
    }
}
