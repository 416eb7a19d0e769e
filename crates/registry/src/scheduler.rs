//! The replay job scheduler: a bounded worker pool dispatching queued
//! hindsight queries.
//!
//! Replay is CPU-bound (each query re-executes probed SkipBlocks through
//! `core::parallel`'s worker plans), so a serving deployment must bound
//! how many replays run at once no matter how many users queue queries.
//! Jobs carry a priority (higher first, FIFO within a priority), can be
//! cancelled while queued, and expose a status API for polling; `wait`
//! blocks until a job reaches a terminal state.

use crate::error::RegistryError;
use crate::service::{QueryEvent, QueryOutcome, Registry};
use flor_core::logstream::LogEntry;
use flor_core::CancelToken;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// Identifier of a submitted job.
pub type JobId = u64;

/// A queued hindsight query.
#[derive(Debug, Clone, Default)]
pub struct QueryJob {
    /// Target run id.
    pub run_id: String,
    /// Probed source to replay.
    pub probed_source: String,
    /// Replay workers for this job's worker plan.
    pub workers: usize,
    /// Scheduling priority: higher runs first.
    pub priority: i32,
    /// Submitting tenant ("" for anonymous/local callers). Tags the
    /// per-tenant `tenant.<name>.*` metrics and scopes admission-control
    /// quotas in the serving layer.
    pub tenant: String,
}

/// Where a job is in its lifecycle.
#[derive(Debug, Clone)]
pub enum JobState {
    /// Waiting in the priority queue.
    Queued,
    /// Executing on a pool worker.
    Running,
    /// Finished successfully.
    Completed(QueryOutcome),
    /// Finished with an error (message — `RegistryError` is not `Clone`).
    Failed(String),
    /// Cancelled before a worker picked it up.
    Cancelled,
}

impl JobState {
    /// True for `Completed` / `Failed` / `Cancelled`.
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            JobState::Completed(_) | JobState::Failed(_) | JobState::Cancelled
        )
    }
}

/// Live progress of a running (or finished) job, fed by the streaming
/// replay runtime — poll it with [`ReplayScheduler::progress`] while
/// [`ReplayScheduler::status`] still says `Running`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JobProgress {
    /// Main-loop iterations completed across the job's replay workers.
    pub iterations_done: u64,
    /// Total main-loop iterations (0 until the replay learns it).
    pub iterations_total: u64,
    /// Micro-ranges stolen between the job's replay workers.
    pub steals: u64,
    /// Record-order log entries streamed out so far.
    pub entries_streamed: u64,
    /// Time until the job's replay emitted its first record-order entry,
    /// ns from job start (0 until the first chunk lands).
    pub stream_first_entry_ns: u64,
    /// Wall time the job has been executing, ns: live (updated on every
    /// streamed event) while running, final on completion.
    pub wall_ns: u64,
    /// Statements the backward slicer elided from the job's replay
    /// (final on completion; 0 while running or unsliced).
    pub statements_elided: u64,
    /// Live fraction of the sliced program in permille (0 = unsliced).
    pub slice_permille: u32,
    /// 1 when the job was answered from the cross-query slice cache.
    pub slice_cache_hits: u64,
}

impl JobProgress {
    /// Every counter as a `(name, value)` list — the single source both
    /// the prose status line and any JSON surface render from, so a field
    /// added here cannot silently drift between the two.
    pub fn fields(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("iterations_done", self.iterations_done),
            ("iterations_total", self.iterations_total),
            ("steals", self.steals),
            ("entries_streamed", self.entries_streamed),
            ("stream_first_entry_ns", self.stream_first_entry_ns),
            ("wall_ns", self.wall_ns),
            ("statements_elided", self.statements_elided),
            ("slice_permille", u64::from(self.slice_permille)),
            ("slice_cache_hits", self.slice_cache_hits),
        ]
    }
}

/// What [`ReplayScheduler::cancel_job`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelResult {
    /// The job was still queued; it is now terminal `Cancelled`.
    Cancelled,
    /// The job was running; its cancellation token fired and the replay
    /// workers stop at their next iteration boundary. The terminal
    /// `Cancelled` state lands asynchronously (watch via `wait`/sink).
    CancelRequested,
    /// Unknown id or already terminal.
    NotCancellable,
}

/// One event pushed into a job's [`JobSink`].
#[derive(Debug, Clone)]
pub enum JobEvent {
    /// A record-order chunk of streamed log entries.
    Entries(Vec<LogEntry>),
    /// Updated progress counters (coalesced: a sink holds at most one
    /// pending progress event at its tail).
    Progress(JobProgress),
    /// A deferred-check anomaly.
    Anomaly(String),
    /// The job reached this terminal state. Always the sink's last event.
    Done(JobState),
}

/// Bounded, job-scoped event queue decoupling replay workers from slow
/// network readers: the scheduler's worker pushes (never blocking — full
/// sinks drop entry chunks, the connection catches up from the completed
/// outcome's log), and the serving event loop drains at its own pace.
/// `wake` fires after every push so an epoll loop can sleep between
/// events.
///
/// Drops are *sticky*: once one entry chunk is dropped, every later one
/// is dropped too (until the terminal event). The delivered entries are
/// therefore always a contiguous prefix of the job's final log — the
/// invariant the connection's completion catch-up relies on to resume at
/// its emitted-entry count without gaps, duplicates, or reordering.
pub struct JobSink {
    inner: Mutex<SinkInner>,
    want_entries: bool,
    cap: usize,
    wake: Box<dyn Fn() + Send + Sync>,
}

struct SinkInner {
    queue: VecDeque<JobEvent>,
    dropped_entries: u64,
    /// An entry chunk was dropped: reject all later ones (see the
    /// stickiness note on [`JobSink`]).
    dropping: bool,
    done: bool,
}

impl JobSink {
    /// A sink holding at most `cap` queued events. `want_entries: false`
    /// skips log chunks entirely (status-only watchers); the terminal
    /// event always fits regardless of `cap`.
    pub fn new(want_entries: bool, cap: usize, wake: impl Fn() + Send + Sync + 'static) -> JobSink {
        JobSink {
            inner: Mutex::new(SinkInner {
                queue: VecDeque::new(),
                dropped_entries: 0,
                dropping: false,
                done: false,
            }),
            want_entries,
            cap: cap.max(1),
            wake: Box::new(wake),
        }
    }

    pub(crate) fn push(&self, ev: JobEvent) {
        let mut inner = self.inner.lock().unwrap();
        match ev {
            JobEvent::Done(_) => {
                inner.done = true;
                inner.queue.push_back(ev);
            }
            JobEvent::Entries(chunk) => {
                if !self.want_entries || inner.dropping || inner.queue.len() >= self.cap {
                    // Sticky drop: delivering a later chunk after a gap
                    // would corrupt the stream (the reader resumes from
                    // its emitted-entry count at completion).
                    inner.dropping = true;
                    inner.dropped_entries += chunk.len() as u64;
                    if self.want_entries {
                        flor_obs::metrics::counter("scheduler.sink_dropped_entries")
                            .add(chunk.len() as u64);
                    }
                } else {
                    inner.queue.push_back(JobEvent::Entries(chunk));
                }
            }
            JobEvent::Progress(p) => {
                // Coalesce: a reader that can't keep up sees the latest
                // counters, not a backlog of stale ones.
                if matches!(inner.queue.back(), Some(JobEvent::Progress(_))) {
                    inner.queue.pop_back();
                }
                inner.queue.push_back(JobEvent::Progress(p));
            }
            JobEvent::Anomaly(_) => inner.queue.push_back(ev),
        }
        drop(inner);
        (self.wake)();
    }

    /// Takes every queued event (FIFO).
    pub fn drain(&self) -> Vec<JobEvent> {
        // Take the buffer along with the events: a finished job's sink
        // lives on in its session's view, and must not pin an empty queue.
        Vec::from(std::mem::take(&mut self.inner.lock().unwrap().queue))
    }

    /// True once the terminal event has been pushed (it may still be
    /// waiting in the queue for a drain).
    pub fn is_done(&self) -> bool {
        self.inner.lock().unwrap().done
    }

    /// Entries dropped because the sink was full, a drop already made the
    /// tail sticky, or entries were not wanted; the completed outcome's
    /// log makes readers whole (they extend their contiguous prefix).
    pub fn dropped_entries(&self) -> u64 {
        self.inner.lock().unwrap().dropped_entries
    }
}

impl std::fmt::Debug for JobSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock().unwrap();
        f.debug_struct("JobSink")
            .field("queued", &inner.queue.len())
            .field("done", &inner.done)
            .field("dropped_entries", &inner.dropped_entries)
            .finish()
    }
}

/// Entry in the priority queue. Ordering: priority desc, then submission
/// order asc (BinaryHeap is a max-heap, so `seq` is compared reversed).
struct QueuedJob {
    priority: i32,
    seq: u64,
    id: JobId,
    job: QueryJob,
}

impl PartialEq for QueuedJob {
    fn eq(&self, other: &Self) -> bool {
        self.priority == other.priority && self.seq == other.seq
    }
}
impl Eq for QueuedJob {}
impl PartialOrd for QueuedJob {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for QueuedJob {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.priority
            .cmp(&other.priority)
            .then(other.seq.cmp(&self.seq))
    }
}

struct SchedState {
    queue: BinaryHeap<QueuedJob>,
    jobs: HashMap<JobId, JobState>,
    /// Streaming progress per job (kept after completion for inspection).
    progress: HashMap<JobId, JobProgress>,
    next_id: JobId,
    next_seq: u64,
    /// Jobs submitted but not yet terminal (queued or running).
    outstanding: usize,
    /// Jobs waiting in the queue (excludes running; stale heap entries
    /// for already-cancelled jobs are not counted).
    queued: usize,
    /// Cancellation tokens of running jobs.
    cancels: HashMap<JobId, CancelToken>,
    /// Event sinks of jobs submitted with one.
    sinks: HashMap<JobId, Arc<JobSink>>,
}

struct Shared {
    registry: Arc<Registry>,
    state: Mutex<SchedState>,
    /// Signaled on queue pushes and shutdown.
    work_ready: Condvar,
    /// Signaled whenever a job reaches a terminal state.
    job_done: Condvar,
    shutdown: AtomicBool,
    /// Maximum queued (not yet running) jobs; 0 = unbounded.
    queue_limit: usize,
}

/// Bounded worker pool executing [`QueryJob`]s against a shared
/// [`Registry`].
pub struct ReplayScheduler {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl ReplayScheduler {
    /// Starts a pool of `pool_workers` threads (at least 1) serving
    /// queries from `registry`, with an unbounded queue.
    pub fn new(registry: Arc<Registry>, pool_workers: usize) -> Self {
        Self::with_queue_limit(registry, pool_workers, 0)
    }

    /// [`ReplayScheduler::new`] with a bound on queued (not yet running)
    /// jobs: submissions past `queue_limit` fail fast with a scheduler
    /// error instead of growing the backlog (0 = unbounded).
    pub fn with_queue_limit(
        registry: Arc<Registry>,
        pool_workers: usize,
        queue_limit: usize,
    ) -> Self {
        let shared = Arc::new(Shared {
            registry,
            state: Mutex::new(SchedState {
                queue: BinaryHeap::new(),
                jobs: HashMap::new(),
                progress: HashMap::new(),
                next_id: 1,
                next_seq: 0,
                outstanding: 0,
                queued: 0,
                cancels: HashMap::new(),
                sinks: HashMap::new(),
            }),
            work_ready: Condvar::new(),
            job_done: Condvar::new(),
            shutdown: AtomicBool::new(false),
            queue_limit,
        });
        let workers = (0..pool_workers.max(1))
            .map(|i| {
                let shared = shared.clone();
                std::thread::spawn(move || worker_loop(&shared, i))
            })
            .collect();
        ReplayScheduler { shared, workers }
    }

    /// Number of pool workers (the replay concurrency bound).
    pub fn pool_size(&self) -> usize {
        self.workers.len()
    }

    /// Enqueues a job; returns its id immediately.
    pub fn submit(&self, job: QueryJob) -> Result<JobId, RegistryError> {
        self.submit_inner(job, None)
    }

    /// Enqueues a job with an event sink: the executing worker pushes
    /// streamed log chunks, progress, anomalies, and finally the terminal
    /// state into `sink` — the push side of the serving layer's
    /// backpressured live streaming.
    pub fn submit_with_sink(
        &self,
        job: QueryJob,
        sink: Arc<JobSink>,
    ) -> Result<JobId, RegistryError> {
        self.submit_inner(job, Some(sink))
    }

    fn submit_inner(
        &self,
        job: QueryJob,
        sink: Option<Arc<JobSink>>,
    ) -> Result<JobId, RegistryError> {
        if self.shared.shutdown.load(Ordering::Acquire) {
            return Err(RegistryError::Scheduler("scheduler is shut down".into()));
        }
        let mut state = self.shared.state.lock().unwrap();
        if self.shared.queue_limit > 0 && state.queued >= self.shared.queue_limit {
            return Err(RegistryError::Scheduler(format!(
                "queue full ({} queued jobs)",
                state.queued
            )));
        }
        let id = state.next_id;
        state.next_id += 1;
        let seq = state.next_seq;
        state.next_seq += 1;
        state.jobs.insert(id, JobState::Queued);
        state.outstanding += 1;
        state.queued += 1;
        if let Some(sink) = sink {
            state.sinks.insert(id, sink);
        }
        state.queue.push(QueuedJob {
            priority: job.priority,
            seq,
            id,
            job,
        });
        drop(state);
        self.shared.work_ready.notify_one();
        Ok(id)
    }

    /// Current state of a job (`None` for unknown ids).
    pub fn status(&self, id: JobId) -> Option<JobState> {
        self.shared.state.lock().unwrap().jobs.get(&id).cloned()
    }

    /// Streaming progress of a job (`None` before its replay started).
    /// Running jobs update continuously as workers complete micro-ranges;
    /// finished jobs retain their final counters.
    pub fn progress(&self, id: JobId) -> Option<JobProgress> {
        self.shared.state.lock().unwrap().progress.get(&id).copied()
    }

    /// Cancels a job if it is still queued. Returns `true` on success;
    /// running or finished jobs are not interrupted (use
    /// [`ReplayScheduler::cancel_job`] for cooperative mid-flight
    /// cancellation).
    pub fn cancel(&self, id: JobId) -> bool {
        let mut state = self.shared.state.lock().unwrap();
        match state.jobs.get(&id) {
            Some(JobState::Queued) => {
                Self::cancel_queued_locked(&mut state, id);
                drop(state);
                self.shared.job_done.notify_all();
                true
            }
            _ => false,
        }
    }

    /// Cancels a job wherever it is in its lifecycle: queued jobs become
    /// terminal `Cancelled` immediately; running jobs get their
    /// cancellation token fired, and the replay's workers bail out at the
    /// next iteration boundary (the replay errors with `Cancelled`, the
    /// result is never cached, and the job slot frees).
    pub fn cancel_job(&self, id: JobId) -> CancelResult {
        let mut state = self.shared.state.lock().unwrap();
        match state.jobs.get(&id) {
            Some(JobState::Queued) => {
                Self::cancel_queued_locked(&mut state, id);
                drop(state);
                self.shared.job_done.notify_all();
                CancelResult::Cancelled
            }
            Some(JobState::Running) => {
                if let Some(token) = state.cancels.get(&id) {
                    token.cancel();
                }
                // `outstanding` is untouched: the worker observes the
                // token, finishes with `Cancelled`, and decrements.
                CancelResult::CancelRequested
            }
            _ => CancelResult::NotCancellable,
        }
    }

    /// Marks a queued job Cancelled under the state lock: terminal state,
    /// slot bookkeeping, and the sink's Done event (the heap entry stays;
    /// workers skip ids no longer Queued).
    fn cancel_queued_locked(state: &mut SchedState, id: JobId) {
        state.jobs.insert(id, JobState::Cancelled);
        state.outstanding -= 1;
        state.queued = state.queued.saturating_sub(1);
        if let Some(sink) = state.sinks.remove(&id) {
            sink.push(JobEvent::Done(JobState::Cancelled));
        }
    }

    /// Blocks until `id` reaches a terminal state and returns it.
    pub fn wait(&self, id: JobId) -> Result<JobState, RegistryError> {
        let mut state = self.shared.state.lock().unwrap();
        loop {
            match state.jobs.get(&id) {
                None => {
                    return Err(RegistryError::Scheduler(format!("unknown job {id}")));
                }
                Some(s) if s.is_terminal() => return Ok(s.clone()),
                Some(_) => {
                    state = self.shared.job_done.wait(state).unwrap();
                }
            }
        }
    }

    /// Blocks until every submitted job is terminal.
    pub fn drain(&self) {
        let mut state = self.shared.state.lock().unwrap();
        while state.outstanding > 0 {
            state = self.shared.job_done.wait(state).unwrap();
        }
    }

    /// Jobs submitted and not yet terminal.
    pub fn outstanding(&self) -> usize {
        self.shared.state.lock().unwrap().outstanding
    }

    /// Jobs waiting in the queue (not yet picked up by a worker) — the
    /// depth admission control sheds on.
    pub fn queued_depth(&self) -> usize {
        self.shared.state.lock().unwrap().queued
    }
}

impl Drop for ReplayScheduler {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.work_ready.notify_all();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        // Anything still queued is now cancelled.
        let mut state = self.shared.state.lock().unwrap();
        let ids: Vec<JobId> = state
            .jobs
            .iter()
            .filter(|(_, s)| matches!(s, JobState::Queued))
            .map(|(id, _)| *id)
            .collect();
        for id in ids {
            Self::cancel_queued_locked(&mut state, id);
        }
        drop(state);
        self.shared.job_done.notify_all();
    }
}

fn worker_loop(shared: &Shared, worker: usize) {
    flor_obs::set_lane(
        flor_obs::trace::LANE_SCHEDULER_BASE + worker as u32,
        &format!("scheduler-{worker}"),
    );
    loop {
        let (id, job, cancel, sink) = {
            let mut state = shared.state.lock().unwrap();
            loop {
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                // Pop past entries cancelled while queued.
                match state.queue.pop() {
                    Some(q) => {
                        if matches!(state.jobs.get(&q.id), Some(JobState::Queued)) {
                            state.jobs.insert(q.id, JobState::Running);
                            state.queued = state.queued.saturating_sub(1);
                            let cancel = CancelToken::new();
                            state.cancels.insert(q.id, cancel.clone());
                            let sink = state.sinks.get(&q.id).cloned();
                            break (q.id, q.job, cancel, sink);
                        }
                        // else: stale entry for a cancelled job — drop it.
                    }
                    None => {
                        state = shared.work_ready.wait(state).unwrap();
                    }
                }
            }
        };
        // Stream the query so pollers see live progress (iterations done,
        // steals, entries emitted, elapsed wall time) while the replay
        // workers run.
        let mut span = flor_obs::span(flor_obs::Category::Job, "job");
        span.set_args(id, job.workers as u64);
        let t0 = flor_obs::clock::now_ns();
        let mut on_event = |ev: QueryEvent| {
            let mut state = shared.state.lock().unwrap();
            let p = state.progress.entry(id).or_default();
            p.wall_ns = flor_obs::clock::since_ns(t0);
            let forwarded = match ev {
                QueryEvent::Entries(chunk) => {
                    if p.entries_streamed == 0 && !chunk.is_empty() {
                        p.stream_first_entry_ns = p.wall_ns;
                    }
                    p.entries_streamed += chunk.len() as u64;
                    JobEvent::Entries(chunk)
                }
                QueryEvent::Progress {
                    iterations_done,
                    iterations_total,
                    steals,
                } => {
                    p.iterations_done = iterations_done;
                    p.iterations_total = iterations_total;
                    p.steals = steals;
                    JobEvent::Progress(*p)
                }
                QueryEvent::Anomaly(a) => JobEvent::Anomaly(a),
            };
            drop(state);
            if let Some(sink) = &sink {
                sink.push(forwarded);
            }
        };
        let outcome = shared.registry.query_streaming_cancellable(
            &job.run_id,
            &job.probed_source,
            job.workers,
            Some(cancel),
            &mut on_event,
        );
        let wall_ns = flor_obs::clock::since_ns(t0);
        drop(span);
        flor_obs::histogram!("scheduler.job_ns").observe(wall_ns);
        if !job.tenant.is_empty() {
            flor_obs::metrics::histogram_named(&format!("tenant.{}.job_ns", job.tenant))
                .observe(wall_ns);
        }
        let terminal = match &outcome {
            Ok(result) => {
                let mut state = shared.state.lock().unwrap();
                let p = state.progress.entry(id).or_default();
                // The replay's own first-entry clock (measured from replay
                // start, after queueing) supersedes the observer's estimate.
                if result.stream_first_entry_ns > 0 {
                    p.stream_first_entry_ns = result.stream_first_entry_ns;
                }
                p.statements_elided = result.statements_elided;
                p.slice_permille = result.slice_permille;
                p.slice_cache_hits = result.slice_cache_hits;
                drop(state);
                JobState::Completed(result.clone())
            }
            Err(RegistryError::Engine(flor_core::FlorError::Cancelled)) => JobState::Cancelled,
            Err(e) => JobState::Failed(e.to_string()),
        };
        let mut state = shared.state.lock().unwrap();
        state.progress.entry(id).or_default().wall_ns = wall_ns;
        state.jobs.insert(id, terminal.clone());
        state.outstanding -= 1;
        state.cancels.remove(&id);
        let sink = state.sinks.remove(&id);
        drop(state);
        if let Some(sink) = sink {
            sink.push(JobEvent::Done(terminal));
        }
        shared.job_done.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flor_core::logstream::Section;

    fn entry(i: u64) -> LogEntry {
        LogEntry {
            key: "loss".into(),
            value: i.to_string(),
            section: Section::Iter(i),
        }
    }

    /// Once the bounded sink drops a chunk, every later chunk must drop
    /// too — otherwise the reader's completion catch-up (which resumes at
    /// its emitted-entry count) would deliver gaps and duplicates.
    #[test]
    fn sink_drops_are_sticky_so_delivered_entries_stay_a_contiguous_prefix() {
        let sink = JobSink::new(true, 2, || {});
        sink.push(JobEvent::Entries(vec![entry(0)]));
        sink.push(JobEvent::Entries(vec![entry(1)]));
        // Queue full (cap 2): dropped.
        sink.push(JobEvent::Entries(vec![entry(2), entry(3)]));
        assert_eq!(sink.dropped_entries(), 2);

        // The reader drains, freeing queue space…
        let delivered: Vec<LogEntry> = sink
            .drain()
            .into_iter()
            .flat_map(|ev| match ev {
                JobEvent::Entries(c) => c,
                other => panic!("unexpected event {other:?}"),
            })
            .collect();
        assert_eq!(delivered, vec![entry(0), entry(1)]);

        // …but a post-drop chunk still drops: queueing entry 4 after the
        // lost 2..=3 would corrupt the stream.
        sink.push(JobEvent::Entries(vec![entry(4)]));
        assert_eq!(sink.dropped_entries(), 3);
        assert!(sink.drain().is_empty());

        // The terminal event always lands.
        sink.push(JobEvent::Done(JobState::Cancelled));
        assert!(sink.is_done());
    }
}
