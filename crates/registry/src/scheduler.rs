//! The replay job scheduler: a bounded worker pool dispatching queued
//! hindsight queries.
//!
//! Replay is CPU-bound (each query re-executes probed SkipBlocks on the
//! range executor's replay workers), so a serving deployment must bound
//! how many replays run at once no matter how many users queue queries.
//! Jobs carry a priority (higher first, FIFO within a priority) and can
//! be cancelled queued or running.
//!
//! The scheduler owns a job only while it is live (queued or running):
//! `status`, `progress` and `cancel_job` answer for live jobs alone. The
//! terminal state leaves exactly once, moved into the job's [`JobSink`]
//! as its `Done` event, and the scheduler forgets the job in the same
//! step — the submitter owns the answer from then on. `wait` blocks
//! until a job is no longer live.

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
    /// Replay workers the job's replay runs on.
    pub workers: usize,
    /// Scheduling priority: higher runs first.
    pub priority: i32,
    /// Submitting tenant ("" for anonymous/local callers). Tags the
    /// per-tenant `tenant.<name>.*` metrics and scopes admission-control
    /// quotas in the serving layer.
    pub tenant: String,
}

/// Where a job is in its lifecycle. [`ReplayScheduler::status`] reports
/// the live states; a terminal one is delivered once, as the job sink's
/// [`JobEvent::Done`].
#[derive(Debug)]
pub enum JobState {
    /// Waiting in the priority queue.
    Queued,
    /// Executing on a pool worker.
    Running,
    /// Finished successfully.
    Completed(QueryOutcome),
    /// Finished with an error (its message).
    Failed(String),
    /// Cancelled while queued, or stopped mid-replay by its token.
    Cancelled,
}

/// Live progress of a running job, fed by the streaming replay runtime —
/// poll it with [`ReplayScheduler::progress`] while the job is live, or
/// read it from the job sink's `Progress` events.
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
    /// Wall time the job has been executing, ns (updated on every
    /// streamed event).
    pub wall_ns: u64,
}

impl JobProgress {
    /// Every counter as a `(name, value)` list — what a `+progress` line
    /// prints.
    pub fn fields(&self) -> [(&'static str, u64); 6] {
        [
            ("iterations_done", self.iterations_done),
            ("iterations_total", self.iterations_total),
            ("steals", self.steals),
            ("entries_streamed", self.entries_streamed),
            ("stream_first_entry_ns", self.stream_first_entry_ns),
            ("wall_ns", self.wall_ns),
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
    /// Not live: an unknown id, or a job that already finished.
    NotCancellable,
}

/// One event pushed into a job's [`JobSink`].
#[derive(Debug)]
pub enum JobEvent {
    /// A record-order chunk of streamed log entries.
    Entries(Vec<LogEntry>),
    /// Updated progress counters (coalesced: a sink holds at most one
    /// pending progress event at its tail).
    Progress(JobProgress),
    /// A deferred-check anomaly.
    Anomaly(String),
    /// The job reached this terminal state, moved out of the scheduler
    /// (which forgets the job as it pushes this). Always the sink's last
    /// event.
    Done(JobState),
}

/// Bounded, job-scoped event queue decoupling replay workers from slow
/// network readers: the scheduler's worker pushes (never blocking — full
/// sinks drop entry chunks, the connection catches up from the completed
/// outcome's log), and the connection drains at its own pace. `wake`
/// fires after every push so the connection's writer can sleep between
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
    /// An entry chunk was dropped: reject all later ones (see the
    /// stickiness note on [`JobSink`]).
    dropping: bool,
}

impl JobSink {
    /// A sink holding at most `cap` queued events. `want_entries: false`
    /// skips log chunks entirely (status-only watchers); the terminal
    /// event always fits regardless of `cap`.
    pub fn new(want_entries: bool, cap: usize, wake: impl Fn() + Send + Sync + 'static) -> JobSink {
        JobSink {
            inner: Mutex::new(SinkInner {
                queue: VecDeque::new(),
                dropping: false,
            }),
            want_entries,
            cap: cap.max(1),
            wake: Box::new(wake),
        }
    }

    pub(crate) fn push(&self, ev: JobEvent) {
        let mut inner = self.inner.lock().unwrap();
        match ev {
            JobEvent::Entries(chunk) => {
                if !self.want_entries || inner.dropping || inner.queue.len() >= self.cap {
                    // Sticky drop: delivering a later chunk after a gap
                    // would corrupt the stream (the reader resumes from
                    // its emitted-entry count at completion).
                    inner.dropping = true;
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
            JobEvent::Anomaly(_) | JobEvent::Done(_) => inner.queue.push_back(ev),
        }
        drop(inner);
        (self.wake)();
    }

    /// Takes every queued event (FIFO).
    pub fn drain(&self) -> Vec<JobEvent> {
        self.inner.lock().unwrap().queue.drain(..).collect()
    }
}

/// Entry in the priority queue. Ordering: priority desc, then submission
/// order asc — ids are issued in submission order (BinaryHeap is a
/// max-heap, so `id` is compared reversed).
struct QueuedJob {
    priority: i32,
    id: JobId,
    job: QueryJob,
}

impl PartialEq for QueuedJob {
    fn eq(&self, other: &Self) -> bool {
        self.priority == other.priority && self.id == other.id
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
            .then(other.id.cmp(&self.id))
    }
}

/// Everything the scheduler knows about one live job. The entry leaves
/// [`SchedState::live`] in the step that pushes the job's `Done`.
struct LiveJob {
    /// Picked up by a worker (else still queued).
    running: bool,
    cancel: CancelToken,
    sink: Arc<JobSink>,
    progress: JobProgress,
}

struct SchedState {
    queue: BinaryHeap<QueuedJob>,
    /// Queued and running jobs — the only jobs the scheduler remembers.
    live: HashMap<JobId, LiveJob>,
    next_id: JobId,
}

impl SchedState {
    /// Jobs waiting in the queue (not yet picked up by a worker).
    fn queued(&self) -> usize {
        self.live.values().filter(|job| !job.running).count()
    }

    /// Ends a live job: forgets it and moves its terminal state into its
    /// sink, under the state lock, so a caller `wait`ing on the job finds
    /// `Done` in the sink. A queued job's heap entry stays behind; workers
    /// skip ids that are no longer live.
    fn finish(&mut self, id: JobId, terminal: JobState) {
        if let Some(job) = self.live.remove(&id) {
            job.sink.push(JobEvent::Done(terminal));
        }
    }
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
    pub(crate) fn with_queue_limit(
        registry: Arc<Registry>,
        pool_workers: usize,
        queue_limit: usize,
    ) -> Self {
        let shared = Arc::new(Shared {
            registry,
            state: Mutex::new(SchedState {
                queue: BinaryHeap::new(),
                live: HashMap::new(),
                next_id: 1,
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

    /// Enqueues a job and returns its id immediately. The executing
    /// worker pushes streamed log chunks, progress, anomalies, and finally
    /// the terminal state into `sink` — the one place the job's answer is
    /// delivered.
    pub fn submit(&self, job: QueryJob, sink: Arc<JobSink>) -> Result<JobId, RegistryError> {
        if self.shared.shutdown.load(Ordering::Acquire) {
            return Err(RegistryError::Scheduler("scheduler is shut down".into()));
        }
        let mut state = self.shared.state.lock().unwrap();
        let queued = state.queued();
        if self.shared.queue_limit > 0 && queued >= self.shared.queue_limit {
            return Err(RegistryError::Scheduler(format!(
                "queue full ({queued} queued jobs)"
            )));
        }
        let id = state.next_id;
        state.next_id += 1;
        state.live.insert(
            id,
            LiveJob {
                running: false,
                cancel: CancelToken::new(),
                sink,
                progress: JobProgress::default(),
            },
        );
        state.queue.push(QueuedJob {
            priority: job.priority,
            id,
            job,
        });
        drop(state);
        self.shared.work_ready.notify_one();
        Ok(id)
    }

    /// `Queued` or `Running` for a live job; `None` once it finished (its
    /// terminal state is in its sink) or for an unknown id.
    pub fn status(&self, id: JobId) -> Option<JobState> {
        let state = self.shared.state.lock().unwrap();
        let job = state.live.get(&id)?;
        Some(if job.running {
            JobState::Running
        } else {
            JobState::Queued
        })
    }

    /// Streaming progress of a live job, updated continuously as its
    /// replay workers complete micro-ranges.
    pub fn progress(&self, id: JobId) -> Option<JobProgress> {
        let state = self.shared.state.lock().unwrap();
        state.live.get(&id).map(|job| job.progress)
    }

    /// Cancels a live job: a queued one becomes terminal `Cancelled`
    /// immediately; a running one gets its cancellation token fired, and
    /// the replay's workers bail out at the next iteration boundary (the
    /// replay errors with `Cancelled`, the result is never cached, and the
    /// job slot frees).
    pub fn cancel_job(&self, id: JobId) -> CancelResult {
        let mut state = self.shared.state.lock().unwrap();
        match state.live.get(&id) {
            None => CancelResult::NotCancellable,
            Some(job) if job.running => {
                // The worker observes the token and finishes the job.
                job.cancel.cancel();
                CancelResult::CancelRequested
            }
            Some(_) => {
                state.finish(id, JobState::Cancelled);
                drop(state);
                self.shared.job_done.notify_all();
                CancelResult::Cancelled
            }
        }
    }

    /// Blocks until `id` is no longer live; its terminal state is then
    /// the last event in its sink.
    pub fn wait(&self, id: JobId) {
        let mut state = self.shared.state.lock().unwrap();
        while state.live.contains_key(&id) {
            state = self.shared.job_done.wait(state).unwrap();
        }
    }

    /// Blocks until every submitted job is terminal.
    pub fn drain(&self) {
        let mut state = self.shared.state.lock().unwrap();
        while !state.live.is_empty() {
            state = self.shared.job_done.wait(state).unwrap();
        }
    }

    /// Jobs waiting in the queue (not yet picked up by a worker) — the
    /// depth admission control sheds on.
    pub(crate) fn queued_depth(&self) -> usize {
        self.shared.state.lock().unwrap().queued()
    }
}

impl Drop for ReplayScheduler {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.work_ready.notify_all();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        // The workers finished their running jobs: what is still live is
        // queued, and now cancelled.
        for (_, job) in self.shared.state.lock().unwrap().live.drain() {
            job.sink.push(JobEvent::Done(JobState::Cancelled));
        }
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
                match state.queue.pop() {
                    Some(q) => {
                        // Heap entries of jobs cancelled while queued are
                        // stale: their ids are no longer live.
                        if let Some(live) = state.live.get_mut(&q.id) {
                            live.running = true;
                            break (q.id, q.job, live.cancel.clone(), live.sink.clone());
                        }
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
            let p = &mut state
                .live
                .get_mut(&id)
                .expect("a running job is live")
                .progress;
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
            sink.push(forwarded);
        };
        let outcome = shared.registry.query_impl(
            &job.run_id,
            &job.probed_source,
            job.workers,
            Some(&mut on_event as &mut dyn FnMut(QueryEvent)),
            Some(cancel),
        );
        let wall_ns = flor_obs::clock::since_ns(t0);
        drop(span);
        flor_obs::histogram!("scheduler.job_ns").observe(wall_ns);
        if !job.tenant.is_empty() {
            flor_obs::metrics::histogram_named(&format!("tenant.{}.job_ns", job.tenant))
                .observe(wall_ns);
        }
        let terminal = match outcome {
            Ok(result) => JobState::Completed(result),
            Err(RegistryError::Engine(flor_core::FlorError::Cancelled)) => JobState::Cancelled,
            Err(e) => JobState::Failed(e.to_string()),
        };
        shared.state.lock().unwrap().finish(id, terminal);
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
        assert!(sink.drain().is_empty());

        // The terminal event always lands.
        sink.push(JobEvent::Done(JobState::Cancelled));
        assert!(matches!(
            sink.drain()[..],
            [JobEvent::Done(JobState::Cancelled)]
        ));
    }

    /// A finished job's answer leaves the scheduler with its `Done`: after
    /// many jobs, nothing of them is left behind.
    #[test]
    fn finished_jobs_leave_no_scheduler_state() {
        let dir = std::env::temp_dir().join(format!(
            "flor-sched-test-forget-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let registry = Arc::new(Registry::open(&dir).unwrap());
        registry
            .record_run("r", "import flor\nx = 1\nlog(\"x\", x)\n", |o| {
                o.adaptive = false
            })
            .unwrap();
        let sched = ReplayScheduler::new(registry, 2);
        let sinks: Vec<(JobId, Arc<JobSink>)> = (0..200)
            .map(|i| {
                let sink = Arc::new(JobSink::new(false, 4, || {}));
                let job = QueryJob {
                    // Every fourth job fails: an unknown run.
                    run_id: if i % 4 == 3 { "nope" } else { "r" }.into(),
                    probed_source: "import flor\nx = 1\nlog(\"x\", x)\nlog(\"y\", x)\n".into(),
                    workers: 1,
                    ..QueryJob::default()
                };
                (sched.submit(job, sink.clone()).unwrap(), sink)
            })
            .collect();
        sched.drain();
        {
            let state = sched.shared.state.lock().unwrap();
            assert_eq!((state.live.len(), state.queue.len()), (0, 0));
        }
        for (id, sink) in sinks {
            assert!(sched.status(id).is_none() && sched.progress(id).is_none());
            assert_eq!(sched.cancel_job(id), CancelResult::NotCancellable);
            let done = sink.drain().pop();
            match (id % 4, done) {
                (0, Some(JobEvent::Done(JobState::Failed(e)))) => {
                    assert!(e.contains("nope"), "{e}")
                }
                (_, Some(JobEvent::Done(JobState::Completed(o)))) => assert_eq!(o.log.len(), 2),
                (_, other) => panic!("job {id}: {other:?}"),
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
