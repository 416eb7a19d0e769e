//! Background materialization — the paper's §5.1 and Figure 5.
//!
//! "State materialization is expensive because it requires serializing
//! complex Python objects into byte arrays, and then writing those arrays to
//! disk. Of the two, serialization is typically much more expensive than
//! I/O […] we'd like to take materialization (both serialization and I/O)
//! off the main thread — which is dedicated to model training — and do it in
//! the background."
//!
//! Four strategies reproduce Figure 5's design space. What differs is *what
//! work happens on the caller (training) thread* during [`Materializer::submit`]:
//!
//! | Strategy | On caller thread | In background |
//! |---|---|---|
//! | [`Strategy::Baseline`]    | serialize + compress + write | — (cloudpickle) |
//! | [`Strategy::IpcQueue`]    | serialize                    | compress + write (multiprocessing queue) |
//! | [`Strategy::Plasma`]      | O(1) handle transfer          | serialize + compress + write, per job |
//! | [`Strategy::ForkBatched`] | O(1) handle transfer, batched | serialize + compress + write, per batch (the paper's `fork()`) |
//!
//! The paper batches "5000 objects" per fork; we batch [`BATCH_OBJECTS`]
//! snapshot objects per background dispatch. The measured quantity in
//! Figure 5 — main-thread blocked time — is tracked per submit and exposed
//! via [`Materializer::stats`].
//!
//! Worker economics: each background serialization borrows a buffer from a
//! shared [`EncodePool`] (steady-state encoding allocates nothing), and each
//! `ForkBatched` batch lands through one [`CheckpointStore`] group commit —
//! a single batched manifest append instead of one open/append/close per
//! checkpoint. Per-batch flush counts are surfaced in
//! [`MaterializerStats::group_commits`] / [`MaterializerStats::group_commit_jobs`].

use crate::codec::EncodePool;
use crate::store::CheckpointStore;
use bytes::{BufMut, BytesMut};
use crossbeam::channel::{unbounded, Sender};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Objects per background dispatch for [`Strategy::ForkBatched`]
/// (the paper's fork batching, scaled to the miniature workloads).
pub const BATCH_OBJECTS: usize = 8;

/// A deferred-serialization snapshot: cheap to create on the training
/// thread, serialized by a background worker. This is the moral equivalent
/// of the copy-on-write pages a `fork()`ed child reads.
pub trait SerializeSnapshot: Send + Sync {
    /// Serializes the snapshot to checkpoint payload bytes.
    fn serialize(&self) -> Vec<u8>;

    /// Serializes into a reusable buffer (cleared first). The background
    /// workers call this with pooled buffers; override it to avoid the
    /// intermediate `Vec` of the default implementation.
    fn serialize_into(&self, buf: &mut BytesMut) {
        buf.clear();
        buf.put_slice(&self.serialize());
    }

    /// Approximate payload size (for batching heuristics and stats).
    fn approx_bytes(&self) -> usize;

    /// Number of logical objects inside this snapshot (the unit the paper
    /// batches by).
    fn object_count(&self) -> usize {
        1
    }
}

/// A ready-made snapshot over already-encoded bytes.
pub struct BytesSnapshot(pub Vec<u8>);

impl SerializeSnapshot for BytesSnapshot {
    fn serialize(&self) -> Vec<u8> {
        self.0.clone()
    }
    fn serialize_into(&self, buf: &mut BytesMut) {
        buf.clear();
        buf.put_slice(&self.0);
    }
    fn approx_bytes(&self) -> usize {
        self.0.len()
    }
}

/// What a submit carries.
pub enum Payload {
    /// Serialization already happened on the caller.
    Bytes(Vec<u8>),
    /// Serialization deferred to the background (COW-style handle).
    Deferred(Arc<dyn SerializeSnapshot>),
}

impl Payload {
    fn approx_bytes(&self) -> usize {
        match self {
            Payload::Bytes(b) => b.len(),
            Payload::Deferred(s) => s.approx_bytes(),
        }
    }
}

/// The Figure 5 strategies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Serialize and write synchronously on the training thread
    /// (cloudpickle baseline).
    Baseline,
    /// Serialize on the training thread, write in the background
    /// (Python `multiprocessing` queue).
    IpcQueue,
    /// Hand the object handle to the background immediately, one job at a
    /// time (Apache Plasma-style shared-memory transfer).
    Plasma,
    /// Hand object handles to the background in batches — the paper's
    /// `fork()` mechanism and Flor's default.
    ForkBatched,
}

/// Counters exposed by [`Materializer::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MaterializerStats {
    /// Nanoseconds the *training thread* spent inside `submit` (plus the
    /// caller-side part of `flush`) — Figure 5's y-axis.
    pub main_thread_ns: u64,
    /// Checkpoints submitted.
    pub jobs: u64,
    /// Uncompressed bytes across all submitted checkpoints.
    pub raw_bytes: u64,
    /// Background dispatches (batches for ForkBatched, jobs otherwise).
    pub dispatches: u64,
    /// Store group commits issued by background workers (one per
    /// ForkBatched batch: one batched manifest append each).
    pub group_commits: u64,
    /// Checkpoints that landed through those group commits.
    pub group_commit_jobs: u64,
    /// Checkpoints stored as delta frames against the block's previous
    /// version (meaningful after [`Materializer::flush`]).
    pub delta_checkpoints: u64,
    /// Checkpoints stored as full keyframes.
    pub keyframe_checkpoints: u64,
    /// Bytes actually written to the store across all checkpoints
    /// (compressed / delta-framed / raw) — compare against `raw_bytes`
    /// for the pipeline's effective compression ratio.
    pub stored_bytes: u64,
}

struct Job {
    block_id: String,
    seq: u64,
    payload: Payload,
}

enum WorkerMsg {
    One(Job),
    Batch(Vec<Job>),
    Shutdown,
}

/// Shared counters updated by background workers.
#[derive(Default)]
struct WorkerStats {
    group_commits: AtomicU64,
    group_commit_jobs: AtomicU64,
    delta_checkpoints: AtomicU64,
    keyframe_checkpoints: AtomicU64,
    stored_bytes: AtomicU64,
}

impl WorkerStats {
    /// Folds one commit's metas into the landing counters.
    fn observe_metas(&self, metas: &[crate::store::CkptMeta]) {
        for m in metas {
            if m.chain_depth > 0 {
                self.delta_checkpoints.fetch_add(1, Ordering::Relaxed);
            } else {
                self.keyframe_checkpoints.fetch_add(1, Ordering::Relaxed);
            }
            self.stored_bytes
                .fetch_add(m.stored_bytes, Ordering::Relaxed);
        }
    }
}

/// Asynchronous checkpoint writer with a pluggable strategy.
pub struct Materializer {
    store: Arc<CheckpointStore>,
    strategy: Strategy,
    tx: Option<Sender<WorkerMsg>>,
    workers: Vec<JoinHandle<()>>,
    pending: Mutex<Vec<Job>>,
    pending_objects: Mutex<usize>,
    in_flight: Arc<AtomicU64>,
    main_thread_ns: AtomicU64,
    jobs: AtomicU64,
    raw_bytes: AtomicU64,
    dispatches: AtomicU64,
    worker_stats: Arc<WorkerStats>,
    /// Pool for the Baseline strategy's caller-side encodes (workers hold
    /// their own clone of the same pool).
    pool: Arc<EncodePool>,
    errors: Arc<Mutex<Vec<String>>>,
}

impl Materializer {
    /// Creates a materializer over a shared store.
    ///
    /// `workers` background threads are spawned for the asynchronous
    /// strategies (ignored by `Baseline`). The paper observes "we have never
    /// seen more than two live children at any point", so 2 is the default
    /// used throughout flor-rs.
    pub fn new(store: Arc<CheckpointStore>, strategy: Strategy, workers: usize) -> Self {
        let (tx, rx) = unbounded::<WorkerMsg>();
        let errors: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
        let in_flight: Arc<AtomicU64> = Arc::new(AtomicU64::new(0));
        let worker_stats: Arc<WorkerStats> = Arc::new(WorkerStats::default());
        let pool: Arc<EncodePool> = Arc::new(EncodePool::new());
        let mut handles = Vec::new();
        if strategy != Strategy::Baseline {
            for i in 0..workers.max(1) {
                let rx = rx.clone();
                let store = store.clone();
                let errors = errors.clone();
                let in_flight = in_flight.clone();
                let worker_stats = worker_stats.clone();
                let pool = pool.clone();
                handles.push(std::thread::spawn(move || {
                    flor_obs::set_lane(
                        flor_obs::trace::LANE_MATERIALIZER_BASE + i as u32,
                        &format!("materializer-{i}"),
                    );
                    loop {
                        match rx.recv() {
                            Ok(WorkerMsg::One(job)) => {
                                write_jobs(&store, vec![job], &pool, &errors, &worker_stats);
                                in_flight.fetch_sub(1, Ordering::AcqRel);
                            }
                            Ok(WorkerMsg::Batch(jobs)) => {
                                let n = jobs.len() as u64;
                                let mut span =
                                    flor_obs::span(flor_obs::Category::Commit, "group_commit");
                                span.set_args(n, 0);
                                write_jobs(&store, jobs, &pool, &errors, &worker_stats);
                                drop(span);
                                worker_stats.group_commits.fetch_add(1, Ordering::Relaxed);
                                worker_stats
                                    .group_commit_jobs
                                    .fetch_add(n, Ordering::Relaxed);
                                in_flight.fetch_sub(1, Ordering::AcqRel);
                            }
                            Ok(WorkerMsg::Shutdown) | Err(_) => return,
                        }
                    }
                }));
            }
        }
        Materializer {
            store,
            strategy,
            tx: Some(tx),
            workers: handles,
            pending: Mutex::new(Vec::new()),
            pending_objects: Mutex::new(0),
            in_flight,
            main_thread_ns: AtomicU64::new(0),
            jobs: AtomicU64::new(0),
            raw_bytes: AtomicU64::new(0),
            dispatches: AtomicU64::new(0),
            worker_stats,
            pool,
            errors,
        }
    }

    /// Submits one checkpoint. The caller-visible cost of this call is the
    /// quantity Figure 5 measures.
    pub fn submit(&self, block_id: &str, seq: u64, payload: Payload) {
        let approx = payload.approx_bytes() as u64;
        let mut span = flor_obs::span(flor_obs::Category::Record, "submit");
        span.set_args(seq, approx);
        let t0 = flor_obs::clock::now_ns();
        self.jobs.fetch_add(1, Ordering::Relaxed);
        self.raw_bytes.fetch_add(approx, Ordering::Relaxed);
        match self.strategy {
            Strategy::Baseline => {
                // Everything on the training thread.
                let result = match payload {
                    Payload::Bytes(b) => self.store.put(block_id, seq, &b),
                    Payload::Deferred(s) => self.pool.with_buffer(|buf| {
                        s.serialize_into(buf);
                        self.store.put(block_id, seq, buf.as_ref())
                    }),
                };
                match result {
                    Ok(meta) => self.worker_stats.observe_metas(std::slice::from_ref(&meta)),
                    Err(e) => self
                        .errors
                        .lock()
                        .push(format!("checkpoint write of {block_id}.{seq} failed: {e}")),
                }
                self.dispatches.fetch_add(1, Ordering::Relaxed);
            }
            Strategy::IpcQueue => {
                // Serialize on the training thread (the multiprocessing
                // pickling step), ship bytes to the writer.
                let bytes = match payload {
                    Payload::Bytes(b) => b,
                    Payload::Deferred(s) => s.serialize(),
                };
                self.send(WorkerMsg::One(Job {
                    block_id: block_id.to_string(),
                    seq,
                    payload: Payload::Bytes(bytes),
                }));
                self.dispatches.fetch_add(1, Ordering::Relaxed);
            }
            Strategy::Plasma => {
                self.send(WorkerMsg::One(Job {
                    block_id: block_id.to_string(),
                    seq,
                    payload,
                }));
                self.dispatches.fetch_add(1, Ordering::Relaxed);
            }
            Strategy::ForkBatched => {
                let objects = match &payload {
                    Payload::Deferred(s) => s.object_count(),
                    Payload::Bytes(_) => 1,
                };
                let mut pending = self.pending.lock();
                pending.push(Job {
                    block_id: block_id.to_string(),
                    seq,
                    payload,
                });
                let mut count = self.pending_objects.lock();
                *count += objects;
                if *count >= BATCH_OBJECTS {
                    let batch = std::mem::take(&mut *pending);
                    *count = 0;
                    drop(count);
                    drop(pending);
                    self.send(WorkerMsg::Batch(batch));
                    self.dispatches.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        let main_ns = flor_obs::clock::since_ns(t0);
        flor_obs::histogram!("record.submit_ns").observe(main_ns);
        self.main_thread_ns.fetch_add(main_ns, Ordering::Relaxed);
    }

    fn send(&self, msg: WorkerMsg) {
        if let Some(tx) = &self.tx {
            if matches!(msg, WorkerMsg::One(_) | WorkerMsg::Batch(_)) {
                self.in_flight.fetch_add(1, Ordering::AcqRel);
            }
            // Receiver lives as long as the workers; failure means shutdown.
            if tx.send(msg).is_err() {
                self.in_flight.fetch_sub(1, Ordering::AcqRel);
            }
        }
    }

    /// Flushes pending batches and blocks until all background work is
    /// durable. Call at end of run (record exit). Fails with the first
    /// checkpoint write that failed since the last flush (naming how many
    /// others failed with it): a run whose checkpoints did not all land
    /// must not report success.
    ///
    /// Only the dispatch itself is charged to `main_thread_ns`: Figure 5's
    /// metric is "how long the main thread takes to finish executing,
    /// ignoring any child processes and letting them run in the
    /// background" — the durability barrier happens after the training
    /// program's work is done.
    pub fn flush(&self) -> Result<(), String> {
        let t0 = flor_obs::clock::now_ns();
        let batch = {
            let mut pending = self.pending.lock();
            *self.pending_objects.lock() = 0;
            std::mem::take(&mut *pending)
        };
        if !batch.is_empty() {
            self.send(WorkerMsg::Batch(batch));
            self.dispatches.fetch_add(1, Ordering::Relaxed);
        }
        self.main_thread_ns
            .fetch_add(flor_obs::clock::since_ns(t0), Ordering::Relaxed);
        // Durability barrier: wait for the in-flight message count to reach
        // zero (not charged to the Figure 5 metric).
        if self.strategy != Strategy::Baseline {
            while self.in_flight.load(Ordering::Acquire) > 0 {
                std::thread::sleep(std::time::Duration::from_micros(100));
            }
        }
        let errors = std::mem::take(&mut *self.errors.lock());
        match errors.split_first() {
            None => Ok(()),
            Some((first, [])) => Err(first.clone()),
            Some((first, rest)) => Err(format!(
                "{first} (and {} more failed checkpoint write(s))",
                rest.len()
            )),
        }
    }

    /// Counters so far. `main_thread_ns` is meaningful after [`flush`].
    ///
    /// [`flush`]: Materializer::flush
    pub fn stats(&self) -> MaterializerStats {
        MaterializerStats {
            main_thread_ns: self.main_thread_ns.load(Ordering::Relaxed),
            jobs: self.jobs.load(Ordering::Relaxed),
            raw_bytes: self.raw_bytes.load(Ordering::Relaxed),
            dispatches: self.dispatches.load(Ordering::Relaxed),
            group_commits: self.worker_stats.group_commits.load(Ordering::Relaxed),
            group_commit_jobs: self.worker_stats.group_commit_jobs.load(Ordering::Relaxed),
            delta_checkpoints: self.worker_stats.delta_checkpoints.load(Ordering::Relaxed),
            keyframe_checkpoints: self
                .worker_stats
                .keyframe_checkpoints
                .load(Ordering::Relaxed),
            stored_bytes: self.worker_stats.stored_bytes.load(Ordering::Relaxed),
        }
    }
}

impl Drop for Materializer {
    fn drop(&mut self) {
        // Callers that care about write failures flush explicitly first.
        let _ = self.flush();
        for _ in 0..self.workers.len() {
            self.send(WorkerMsg::Shutdown);
        }
        self.tx = None;
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

/// Serializes `jobs` through a pooled buffer and lands them in one store
/// group commit (single batched manifest append; see `store` module docs
/// for the durability contract).
fn write_jobs(
    store: &CheckpointStore,
    jobs: Vec<Job>,
    pool: &EncodePool,
    errors: &Mutex<Vec<String>>,
    stats: &WorkerStats,
) {
    let first = jobs
        .first()
        .map(|j| format!("{}.{}", j.block_id, j.seq))
        .unwrap_or_default();
    let n = jobs.len();
    let mut batch = store.batch();
    pool.with_buffer(|buf| {
        for job in jobs {
            match job.payload {
                Payload::Bytes(b) => batch.stage(&job.block_id, job.seq, &b),
                Payload::Deferred(s) => {
                    s.serialize_into(buf);
                    batch.stage(&job.block_id, job.seq, buf.as_ref());
                }
            }
        }
    });
    match batch.commit() {
        Ok(metas) => stats.observe_metas(&metas),
        Err(e) => errors.lock().push(format!(
            "background checkpoint write of {first} ({n} in its batch) failed: {e}"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpstore(tag: &str) -> Arc<CheckpointStore> {
        let dir = std::env::temp_dir().join(format!(
            "flor-mat-test-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        Arc::new(CheckpointStore::open(dir).unwrap())
    }

    /// A snapshot whose serialization is deliberately slow, to make the
    /// main-thread-time ordering observable.
    struct SlowSnapshot {
        bytes: Vec<u8>,
        delay_us: u64,
    }

    impl SerializeSnapshot for SlowSnapshot {
        fn serialize(&self) -> Vec<u8> {
            std::thread::sleep(std::time::Duration::from_micros(self.delay_us));
            self.bytes.clone()
        }
        fn approx_bytes(&self) -> usize {
            self.bytes.len()
        }
    }

    fn run_strategy(strategy: Strategy, tag: &str) -> (MaterializerStats, Arc<CheckpointStore>) {
        let store = tmpstore(tag);
        let mat = Materializer::new(store.clone(), strategy, 2);
        for seq in 0..12 {
            mat.submit(
                "sb_0",
                seq,
                Payload::Deferred(Arc::new(SlowSnapshot {
                    bytes: vec![seq as u8; 2000],
                    delay_us: 300,
                })),
            );
        }
        mat.flush().unwrap();
        (mat.stats(), store)
    }

    #[test]
    fn all_strategies_persist_everything() {
        for (strategy, tag) in [
            (Strategy::Baseline, "base"),
            (Strategy::IpcQueue, "ipc"),
            (Strategy::Plasma, "plasma"),
            (Strategy::ForkBatched, "fork"),
        ] {
            let (stats, store) = run_strategy(strategy, tag);
            assert_eq!(stats.jobs, 12, "{strategy:?}");
            assert_eq!(store.count("sb_0"), 12, "{strategy:?}");
            for seq in 0..12 {
                assert_eq!(
                    store.get("sb_0", seq).unwrap(),
                    vec![seq as u8; 2000],
                    "{strategy:?} seq {seq}"
                );
            }
        }
    }

    #[test]
    fn baseline_pays_serialization_on_main_thread() {
        // Baseline must serialize 12 × 300µs on the caller; ForkBatched's
        // caller does O(1) handle pushes. Use generous margins (CI noise).
        let (base, _) = run_strategy(Strategy::Baseline, "cmp-base");
        let (fork, _) = run_strategy(Strategy::ForkBatched, "cmp-fork");
        assert!(
            base.main_thread_ns > 12 * 300 * 1000,
            "baseline main-thread {}ns",
            base.main_thread_ns
        );
        assert!(
            fork.main_thread_ns < base.main_thread_ns,
            "fork {} !< baseline {}",
            fork.main_thread_ns,
            base.main_thread_ns
        );
    }

    #[test]
    fn ipc_queue_also_pays_serialization() {
        let (ipc, _) = run_strategy(Strategy::IpcQueue, "cmp-ipc");
        assert!(
            ipc.main_thread_ns > 12 * 300 * 1000,
            "ipc serializes on caller: {}ns",
            ipc.main_thread_ns
        );
    }

    #[test]
    fn fork_batches_dispatches() {
        let (fork, _) = run_strategy(Strategy::ForkBatched, "batch");
        // 12 jobs at 1 object each, batch size 8 → 1 full batch + flush
        // ships the remaining 4 as 1 batch.
        assert!(
            fork.dispatches <= 3,
            "expected few batched dispatches, got {}",
            fork.dispatches
        );
        // Every batch landed as one store group commit.
        assert_eq!(fork.group_commits, fork.dispatches);
        assert_eq!(fork.group_commit_jobs, 12);
        let (plasma, _) = run_strategy(Strategy::Plasma, "nobatch");
        assert_eq!(plasma.dispatches, 12);
        assert_eq!(
            plasma.group_commits, 0,
            "per-job path is not a group commit"
        );
    }

    #[test]
    fn flush_is_a_barrier() {
        let store = tmpstore("barrier");
        let mat = Materializer::new(store.clone(), Strategy::ForkBatched, 2);
        mat.submit(
            "sb_0",
            0,
            Payload::Deferred(Arc::new(SlowSnapshot {
                bytes: vec![1; 100],
                delay_us: 5_000,
            })),
        );
        mat.flush().unwrap();
        // After flush the checkpoint must be durable.
        assert!(store.contains("sb_0", 0));
    }

    #[test]
    fn drop_flushes_outstanding_work() {
        let store = tmpstore("drop");
        {
            let mat = Materializer::new(store.clone(), Strategy::ForkBatched, 1);
            mat.submit("sb_0", 0, Payload::Bytes(vec![9; 50]));
            // No explicit flush.
        }
        assert!(store.contains("sb_0", 0));
    }

    #[test]
    fn stats_track_bytes() {
        let (stats, _) = run_strategy(Strategy::Plasma, "stats");
        assert_eq!(stats.raw_bytes, 12 * 2000);
    }

    #[test]
    fn drifting_snapshots_land_as_delta_chains() {
        let store = tmpstore("delta-mat");
        let mat = Materializer::new(store.clone(), Strategy::ForkBatched, 2);
        // Drifting f32 payloads: structurally identical, slightly moved.
        let payload = |v: u64| -> Vec<u8> {
            (0..1024u32)
                .flat_map(|i| {
                    let f =
                        (i as f32 * 0.11).cos() + if i % 13 == 0 { v as f32 * 0.01 } else { 0.0 };
                    f.to_le_bytes()
                })
                .collect()
        };
        for seq in 0..12u64 {
            mat.submit("sb_0", seq, Payload::Bytes(payload(seq)));
        }
        mat.flush().unwrap();
        let stats = mat.stats();
        assert_eq!(stats.delta_checkpoints + stats.keyframe_checkpoints, 12);
        assert!(stats.delta_checkpoints >= 6, "{stats:?}");
        assert!(
            stats.stored_bytes * 3 < stats.raw_bytes,
            "delta pipeline must shrink drifting payloads ≥3×: {stats:?}"
        );
        for seq in 0..12u64 {
            assert_eq!(store.get("sb_0", seq).unwrap(), payload(seq));
        }
    }

    #[test]
    fn pooled_serialize_into_is_used_and_correct() {
        // A snapshot that only implements serialize(); the default
        // serialize_into must still land identical bytes via the pool.
        let store = tmpstore("pooled");
        let mat = Materializer::new(store.clone(), Strategy::ForkBatched, 1);
        for seq in 0..BATCH_OBJECTS as u64 + 3 {
            mat.submit(
                "sb_0",
                seq,
                Payload::Deferred(Arc::new(BytesSnapshot(vec![seq as u8; 4096]))),
            );
        }
        mat.flush().unwrap();
        for seq in 0..BATCH_OBJECTS as u64 + 3 {
            assert_eq!(store.get("sb_0", seq).unwrap(), vec![seq as u8; 4096]);
        }
    }
}
