//! One client's protocol session, independent of transport.
//!
//! The line protocol `flor serve` has always spoken on stdin/stdout is
//! handled here so the stdin adapter (`flor_cli::serve_io`) and the
//! socket server ([`crate::server`]) share one implementation and cannot
//! drift byte-wise. A session owns its submitted jobs, its tenant
//! identity, its admission permits, and the bounded per-job [`JobSink`]s
//! that decouple replay workers from this client's read pace. A job's
//! sink and log live only until its `+done` line is written; after that
//! the session keeps the few fields its report line and `status` print.
//!
//! Verbs (one command per line, space-separated):
//!
//! - `runs` — list cataloged runs
//! - `query <run> <probed.flr> [priority]` — enqueue a replay job;
//!   results are reported by `drain`/`quit`
//! - `stream <run> <probed.flr> [priority]` — enqueue and stream results
//!   live as `+entry` / `+progress` / `+anomaly` / `+done <id> …` lines
//! - `watch <id>` — stream `+progress` / `+done` for an existing job
//! - `status <id>` — a job of this session, or any connection's queued
//!   or running job (another connection's finished job is `unknown`)
//! - `cancel <id>` — queued jobs cancel immediately; running jobs stop
//!   cooperatively mid-replay
//! - `tenant <name>` — tag subsequent submissions for quotas + metrics
//! - `metrics [tenant]` — process-wide or per-tenant snapshot, one JSON
//!   line
//! - `drain` — block (stdin mode) or report-as-they-finish (socket mode)
//! - `quit` / EOF — drain, report, `# served N job(s)`, close
//!
//! # Trust model
//!
//! The protocol has no authentication and `query`/`stream` name probed
//! sources by *server-side filesystem path* — any peer that can connect
//! can submit work and learn whether a path it names is readable. The
//! service is built for analysts on the machine that holds the registry:
//! bind Unix sockets or loopback TCP (the defaults) and front anything
//! wider with an authenticating proxy. As a guard against a mistyped (or
//! hostile) path making the server read a huge file, probed sources
//! larger than [`MAX_PROBED_SOURCE_BYTES`] are refused without reading.

use crate::admission::AdmissionController;
use crate::error::RegistryError;
use crate::scheduler::{
    CancelResult, JobEvent, JobId, JobSink, JobState, QueryJob, ReplayScheduler,
};
use crate::service::Registry;
use flor_core::logstream::LogEntry;
use std::collections::HashMap;
use std::sync::Arc;

/// Largest probed-source file `query`/`stream` will read. Probed training
/// scripts are kilobytes; the cap exists so a path pointing at a huge
/// file (datasets live next to registries) cannot balloon server memory.
/// The read happens inline while the command is dispatched, holding the
/// connection's session, so this bound is also the bound on how long one
/// command can delay that connection's own replies and stream (other
/// connections dispatch on their own threads).
pub const MAX_PROBED_SOURCE_BYTES: u64 = 1 << 20;

/// What the transport should do after a session call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionControl {
    /// Keep the connection open.
    Continue,
    /// The session is complete: flush pending output, then close.
    Quit,
}

struct JobView {
    /// Emit `+entry` lines (the `stream` verb).
    emit_entries: bool,
    /// Emit `+progress`/`+anomaly`/`+done` lines (`stream` or `watch`).
    emit_events: bool,
    /// `+entry` lines written so far — where the catch-up resumes.
    entries_written: usize,
    stage: Stage,
}

enum Stage {
    /// Queued or running: events arrive through the job's sink.
    Live(Arc<JobSink>),
    /// `Done` arrived: the log entries the bounded sink dropped are
    /// written (at most `entry_cap` a poll) before the `+done` line.
    CatchingUp(JobResult, std::vec::IntoIter<LogEntry>),
    /// `+done` is written (or not wanted): all that is left of the job.
    Finished(JobResult),
}

/// A finished job as its result lines and `status` describe it: the
/// terminal state without its log.
enum JobResult {
    /// `run "<run>" <key> (fresh|cached), N entries, M anomalies`, and N.
    Completed(String, usize),
    Failed(String),
    Cancelled,
}

impl JobResult {
    /// Splits a terminal state into its summary and its log.
    fn split(state: JobState) -> (JobResult, Vec<LogEntry>) {
        match state {
            JobState::Completed(o) => {
                let how = if o.cached { "cached" } else { "fresh" };
                let (entries, anomalies) = (o.log.len(), o.anomalies.len());
                let text = format!(
                    "run {:?} {} ({how}), {entries} entries, {anomalies} anomalies",
                    o.run_id, o.key
                );
                (JobResult::Completed(text, entries), o.log)
            }
            JobState::Failed(e) => (JobResult::Failed(e), Vec::new()),
            JobState::Cancelled => (JobResult::Cancelled, Vec::new()),
            JobState::Queued | JobState::Running => unreachable!("Done carries a terminal state"),
        }
    }

    /// The job's result line: `+done N …` on its event stream (`event`),
    /// `job N …` in the in-order `drain`/`quit` report.
    fn line(&self, id: JobId, event: bool) -> String {
        let (head, done) = if event {
            ("+done", "")
        } else {
            ("job", " done:")
        };
        match self {
            JobResult::Completed(text, _) => format!("{head} {id}{done} {text}"),
            JobResult::Failed(e) => format!("{head} {id} FAILED: {e}"),
            JobResult::Cancelled => format!("{head} {id} cancelled"),
        }
    }

    /// The `status <id>` answer for the finished job.
    fn status_line(&self, id: JobId) -> String {
        match self {
            JobResult::Completed(_, entries) => format!("job {id}: completed ({entries} entries)"),
            JobResult::Failed(e) => format!("job {id}: Failed({e:?})"),
            JobResult::Cancelled => format!("job {id}: Cancelled"),
        }
    }
}

/// One client's protocol state machine (see the module docs).
pub struct ServeSession {
    registry: Arc<Registry>,
    scheduler: Arc<ReplayScheduler>,
    admission: Arc<AdmissionController>,
    wake: Arc<dyn Fn() + Send + Sync>,
    /// Stdin mode: `drain`/`quit` block on the scheduler and `stream`
    /// delivers after completion. Socket mode reports asynchronously via
    /// [`ServeSession::poll_events`].
    blocking: bool,
    /// Bound on each job sink's queued events (backpressure bucket).
    entry_cap: usize,
    tenant: String,
    submitted: Vec<JobId>,
    /// Every job in `submitted[..settled]` has been pumped to its end:
    /// polls start after them, so a long-lived connection's poll cost
    /// follows its jobs in flight, not every job it ever submitted.
    settled: usize,
    views: HashMap<JobId, JobView>,
    /// Jobs holding an admission slot, by submitting tenant.
    permits: HashMap<JobId, String>,
    reported: usize,
    /// `drain` was issued: report completions as they land (socket mode).
    draining: bool,
    quitting: bool,
    finished: bool,
}

impl ServeSession {
    /// Creates a session. `wake` fires whenever one of this session's job
    /// sinks receives an event — the socket server passes its writer
    /// thread's wake-up, the stdin adapter a no-op.
    pub fn new(
        registry: Arc<Registry>,
        scheduler: Arc<ReplayScheduler>,
        admission: Arc<AdmissionController>,
        blocking: bool,
        entry_cap: usize,
        wake: impl Fn() + Send + Sync + 'static,
    ) -> ServeSession {
        ServeSession {
            registry,
            scheduler,
            admission,
            wake: Arc::new(wake),
            blocking,
            entry_cap: entry_cap.max(1),
            tenant: String::new(),
            submitted: Vec::new(),
            settled: 0,
            views: HashMap::new(),
            permits: HashMap::new(),
            reported: 0,
            draining: false,
            quitting: false,
            finished: false,
        }
    }

    /// Handles one protocol line, appending output lines to `out`.
    pub fn handle_line(
        &mut self,
        line: &str,
        out: &mut Vec<String>,
    ) -> Result<SessionControl, RegistryError> {
        let _span = flor_obs::span(flor_obs::Category::Serve, "dispatch");
        let parts: Vec<&str> = line.split_whitespace().collect();
        match parts.as_slice() {
            [] => {}
            ["quit"] | ["exit"] => return self.finish(out),
            ["runs"] => {
                for r in self.registry.runs() {
                    out.push(format!(
                        "run {:?} gen {} iters {} ckpts {}",
                        r.run_id, r.generation, r.iterations, r.checkpoints
                    ));
                }
            }
            // Malformed commands report and keep serving: a typo from one
            // user must not kill a server with other users' jobs queued.
            ["query", run_id, path, rest @ ..] => {
                self.submit(run_id, path, rest, false, out)?;
            }
            ["stream", run_id, path, rest @ ..] => {
                self.submit(run_id, path, rest, true, out)?;
            }
            ["watch", id] => match id.parse::<JobId>() {
                Err(_) => out.push(format!("bad job id {id:?}")),
                Ok(id) => match self.views.get_mut(&id) {
                    None => out.push(format!("job {id}: unknown")),
                    Some(view) => {
                        view.emit_events = true;
                        out.push(format!("watching job {id}"));
                        if self.blocking {
                            self.scheduler.wait(id);
                            self.pump_job_to_end(id, out);
                        }
                    }
                },
            },
            ["tenant", name] => match crate::admission::register_tenant(name) {
                Ok(()) => {
                    self.tenant = name.to_string();
                    out.push(format!("tenant set: {name:?}"));
                }
                Err(refusal) => out.push(refusal),
            },
            ["metrics"] => {
                // One JSON line: counters and latency histograms for every
                // instrumented subsystem, via the shared serializer.
                out.push(self.registry.metrics_snapshot().to_json());
            }
            ["metrics", tenant] => {
                out.push(self.registry.tenant_metrics_snapshot(tenant).to_json());
            }
            ["status", id] => match id.parse::<JobId>() {
                Err(_) => out.push(format!("bad job id {id:?}")),
                Ok(id) => self.status(id, out),
            },
            ["cancel", id] => match id.parse::<JobId>() {
                Err(_) => out.push(format!("bad job id {id:?}")),
                Ok(id) => {
                    let verdict = match self.scheduler.cancel_job(id) {
                        CancelResult::Cancelled => "cancelled",
                        CancelResult::CancelRequested => "cancel requested",
                        CancelResult::NotCancellable => "not cancellable",
                    };
                    if !self.tenant.is_empty() {
                        flor_obs::metrics::counter_named(&format!(
                            "tenant.{}.cancels",
                            self.tenant
                        ))
                        .inc();
                    }
                    out.push(format!("job {id}: {verdict}"));
                }
            },
            ["drain"] => {
                self.draining = true;
                if self.blocking {
                    self.scheduler.drain();
                }
                // Blocking: every job is terminal, so this reports all of
                // them. Socket mode: reports what has finished so far and
                // the rest as completions land (poll_events).
                return self.poll_events(out);
            }
            other => out.push(format!("unknown command {:?}", other.join(" "))),
        }
        Ok(SessionControl::Continue)
    }

    /// Parses and submits a `query`/`stream` line.
    fn submit(
        &mut self,
        run_id: &str,
        path: &str,
        rest: &[&str],
        streaming: bool,
        out: &mut Vec<String>,
    ) -> Result<(), RegistryError> {
        let verb = if streaming { "stream" } else { "query" };
        let priority: i32 = match rest {
            [] => 0,
            [p] => match p.parse() {
                Ok(p) => p,
                Err(_) => {
                    out.push(format!("bad priority {p:?}"));
                    return Ok(());
                }
            },
            _ => {
                out.push(format!("{verb} takes at most 3 arguments"));
                return Ok(());
            }
        };
        match std::fs::metadata(path) {
            Ok(m) if m.len() > MAX_PROBED_SOURCE_BYTES => {
                out.push(format!(
                    "cannot read {path}: {} bytes exceeds the {} byte probed-source limit",
                    m.len(),
                    MAX_PROBED_SOURCE_BYTES
                ));
                return Ok(());
            }
            _ => {} // missing/unreadable paths error uniformly below
        }
        let probed_source = match std::fs::read_to_string(path) {
            Ok(s) => s,
            Err(e) => {
                out.push(format!("cannot read {path}: {e}"));
                return Ok(());
            }
        };
        if let Err(reason) = self.admission.try_admit(&self.tenant, &self.scheduler) {
            out.push(reason);
            return Ok(());
        }
        if !self.tenant.is_empty() {
            flor_obs::metrics::counter_named(&format!("tenant.{}.queries", self.tenant)).inc();
        }
        let wake = self.wake.clone();
        let sink = Arc::new(JobSink::new(streaming, self.entry_cap, move || wake()));
        let job = QueryJob {
            run_id: run_id.to_string(),
            probed_source,
            workers: 1,
            priority,
            tenant: self.tenant.clone(),
        };
        let id = match self.scheduler.submit(job, sink.clone()) {
            Ok(id) => id,
            Err(e) => {
                // A full queue sheds this submission; the session lives on.
                self.admission.release(&self.tenant);
                out.push(format!("submit failed: {e}"));
                return Ok(());
            }
        };
        self.submitted.push(id);
        self.views.insert(
            id,
            JobView {
                emit_entries: streaming,
                emit_events: streaming,
                entries_written: 0,
                stage: Stage::Live(sink),
            },
        );
        self.permits.insert(id, self.tenant.clone());
        out.push(format!(
            "queued job {id}: run {run_id:?} priority {priority}"
        ));
        if streaming && self.blocking {
            // Stdin mode has no writer thread: deliver the stream after the
            // job completes (record order is preserved either way).
            self.scheduler.wait(id);
            self.pump_job_to_end(id, out);
        }
        Ok(())
    }

    /// `status <id>`: a live job's state from the scheduler, else this
    /// session's finished job from its view (taking a `Done` still
    /// waiting in the sink first).
    fn status(&mut self, id: JobId, out: &mut Vec<String>) {
        match self.scheduler.status(id) {
            Some(JobState::Running) => {
                let p = self.scheduler.progress(id).unwrap_or_default();
                return out.push(format!(
                    "job {id}: running ({}/{} iterations, {} steal(s), \
                     {} entries streamed, {:.1}ms elapsed)",
                    p.iterations_done,
                    p.iterations_total,
                    p.steals,
                    p.entries_streamed,
                    p.wall_ns as f64 / 1e6
                ));
            }
            Some(_) => return out.push(format!("job {id}: Queued")),
            None => {}
        }
        self.pump_job(id, out);
        out.push(match self.views.get(&id).map(|v| &v.stage) {
            Some(Stage::CatchingUp(result, _) | Stage::Finished(result)) => result.status_line(id),
            _ => format!("job {id}: unknown"),
        });
    }

    /// Blocking-mode delivery: the job is terminal, so repeated pumps
    /// (each capped at `entry_cap` catch-up entries) run to the `+done`
    /// line without a writer thread to re-poll.
    fn pump_job_to_end(&mut self, id: JobId, out: &mut Vec<String>) {
        while self.result(id).is_none() {
            self.pump_job(id, out);
        }
    }

    /// Drains every job sink and the in-order completion report; returns
    /// `Quit` once a requested quit has nothing left to deliver. Socket
    /// transports call this whenever the session's `wake` fired; the stdin
    /// adapter reaches it via `drain`/`quit`.
    pub fn poll_events(&mut self, out: &mut Vec<String>) -> Result<SessionControl, RegistryError> {
        for i in self.settled..self.submitted.len() {
            let id = self.submitted[i];
            self.pump_job(id, out);
        }
        while self
            .submitted
            .get(self.settled)
            .is_some_and(|id| self.result(*id).is_some())
        {
            self.settled += 1;
        }
        // In-order completion report (the `drain` / `quit` contract).
        if self.quitting || self.draining || self.blocking {
            while let Some(&id) = self.submitted.get(self.reported) {
                let Some(result) = self.result(id) else {
                    break;
                };
                out.push(result.line(id, false));
                self.reported += 1;
            }
        }
        if self.quitting && self.reported == self.submitted.len() {
            if !self.finished {
                self.finished = true;
                out.push(format!("# served {} job(s)", self.submitted.len()));
            }
            return Ok(SessionControl::Quit);
        }
        Ok(SessionControl::Continue)
    }

    /// The result of a job pumped to its end (`+done` written or not
    /// wanted).
    fn result(&self, id: JobId) -> Option<&JobResult> {
        match &self.views.get(&id)?.stage {
            Stage::Finished(result) => Some(result),
            _ => None,
        }
    }

    /// `quit`, or EOF on the input.
    pub fn finish(&mut self, out: &mut Vec<String>) -> Result<SessionControl, RegistryError> {
        self.quitting = true;
        if self.blocking {
            self.scheduler.drain();
        }
        self.poll_events(out)
    }

    /// The connection died. Cancels this session's non-terminal jobs
    /// (queued ones immediately, running ones cooperatively) and returns
    /// every admission slot it still holds — a vanished client must not
    /// pin quota or burn replay workers.
    pub fn abort(&mut self) {
        // Jobs no longer live answer `NotCancellable`.
        for &id in &self.submitted[self.settled..] {
            self.scheduler.cancel_job(id);
        }
        for (_, tenant) in self.permits.drain() {
            self.admission.release(&tenant);
        }
    }

    /// Drains one job's sink into protocol lines per its view flags; at
    /// its `Done`, drops the sink, writes the catch-up entries and the
    /// `+done` line, and keeps only the job's [`JobResult`].
    fn pump_job(&mut self, id: JobId, out: &mut Vec<String>) {
        let Some(view) = self.views.get_mut(&id) else {
            return;
        };
        if let Stage::Live(sink) = &view.stage {
            for ev in sink.drain() {
                match ev {
                    JobEvent::Entries(chunk) => {
                        if view.emit_entries {
                            for e in &chunk {
                                out.push(format!("+entry {id} {e}"));
                            }
                            view.entries_written += chunk.len();
                        }
                    }
                    JobEvent::Progress(p) => {
                        if view.emit_events {
                            let kv: Vec<String> =
                                p.fields().iter().map(|(k, v)| format!("{k}={v}")).collect();
                            out.push(format!("+progress {id} {}", kv.join(" ")));
                        }
                    }
                    JobEvent::Anomaly(a) => {
                        if view.emit_events {
                            out.push(format!("+anomaly {id} {a}"));
                        }
                    }
                    JobEvent::Done(state) => {
                        // `Done` is the sink's last event: the sink goes
                        // with it, and so does the admission slot.
                        let (result, mut log) = JobResult::split(state);
                        let dropped = if view.emit_entries {
                            log.drain(..view.entries_written.min(log.len()));
                            log
                        } else {
                            Vec::new()
                        };
                        view.stage = Stage::CatchingUp(result, dropped.into_iter());
                        if let Some(tenant) = self.permits.remove(&id) {
                            self.admission.release(&tenant);
                        }
                    }
                }
            }
        }
        // Catch up the entries the bounded sink dropped (at most
        // `entry_cap` per poll, so one slow stream can't flood the write
        // buffer), then the `+done` line.
        if let Stage::CatchingUp(result, dropped) = &mut view.stage {
            for e in dropped.by_ref().take(self.entry_cap) {
                out.push(format!("+entry {id} {e}"));
            }
            if dropped.len() > 0 {
                // More catch-up next poll; re-fire `wake` so the
                // transport comes back for it.
                (self.wake)();
                return;
            }
            if view.emit_events {
                out.push(result.line(id, true));
            }
            let result = std::mem::replace(result, JobResult::Cancelled);
            view.stage = Stage::Finished(result);
        }
    }
}

/// First-entry helper shared by transports: the banner line `flor serve`
/// prints on startup (and the socket server on accept).
pub fn banner(registry_root: &std::path::Path, pool_size: usize) -> String {
    format!(
        "# serving registry {} with {} replay workers",
        registry_root.display(),
        pool_size
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admission::AdmissionPolicy;

    const SRC: &str = "\
import flor
data = synth_data(n=16, dim=4, classes=2, seed=1)
loader = dataloader(data, batch_size=8, seed=1)
net = mlp(input=4, hidden=4, classes=2, depth=1, seed=1)
optimizer = sgd(net, lr=0.1)
criterion = cross_entropy()
for epoch in flor.partition(range(3)):
    for batch in loader.epoch():
        optimizer.zero_grad()
        preds = net.forward(batch)
        loss = criterion.forward(preds, batch)
        grad = criterion.backward()
        net.backward(grad)
        optimizer.step()
    log(\"wn\", net.weight_norm())
";

    /// A socket-mode session on a fresh registry in a per-test directory.
    fn session(tag: &str) -> (std::path::PathBuf, Arc<Registry>, ServeSession) {
        let dir = std::env::temp_dir().join(format!(
            "flor-session-test-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let registry = Arc::new(Registry::open(dir.join("registry")).unwrap());
        let scheduler = Arc::new(ReplayScheduler::new(registry.clone(), 1));
        let admission = Arc::new(AdmissionController::new(AdmissionPolicy::unlimited()));
        let session = ServeSession::new(registry.clone(), scheduler, admission, false, 64, || {});
        (dir, registry, session)
    }

    /// A long-lived connection must not pay for its history on every
    /// poll: jobs pumped to their `+done` leave the polled window.
    #[test]
    fn polls_skip_jobs_already_pumped_to_their_end() {
        let (dir, registry, mut session) = session("settled");
        let scheduler = session.scheduler.clone();
        registry
            .record_run("r", SRC, |o| o.adaptive = false)
            .unwrap();
        let probed = dir.join("probed.flr");
        std::fs::write(&probed, SRC.replace("\"wn\"", "\"wn2\"")).unwrap();
        let mut out = Vec::new();
        let line = format!("stream r {}", probed.display());
        for round in 1..=3usize {
            session.handle_line(&line, &mut out).unwrap();
            scheduler.drain();
            session.poll_events(&mut out).unwrap();
            assert_eq!(session.settled, round, "{out:?}");
            assert_eq!(
                out.iter().filter(|l| l.starts_with("+done ")).count(),
                round,
                "{out:?}"
            );
        }
        // Nothing is re-pumped or re-reported once settled.
        let lines = out.len();
        session.poll_events(&mut out).unwrap();
        assert_eq!(out.len(), lines);

        // A `+progress` line carries exactly the live counters.
        let progress = out.iter().find(|l| l.starts_with("+progress 1 ")).unwrap();
        let keys: Vec<&str> = progress
            .split(' ')
            .skip(2)
            .map(|kv| kv.split('=').next().unwrap())
            .collect();
        assert_eq!(
            keys.join(" "),
            "iterations_done iterations_total steals entries_streamed stream_first_entry_ns wall_ns"
        );

        // Hundreds of answers later, the session holds a summary per job
        // and no sink, outcome or log entry.
        for _ in 0..500 {
            session.handle_line(&line, &mut out).unwrap();
        }
        scheduler.drain();
        session.handle_line("drain", &mut out).unwrap();
        assert_eq!(session.reported, 503);
        assert!(session
            .views
            .values()
            .all(|v| matches!(v.stage, Stage::Finished(_))));
        assert!(session.permits.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The exact bytes of every result line: `+done`, the in-order
    /// report, `status`, and the closing `# served` count.
    #[test]
    fn result_lines_are_byte_stable() {
        let (dir, _, mut session) = session("golden");
        let completed = |cached: bool, anomalies: usize| {
            JobState::Completed(crate::service::QueryOutcome {
                run_id: "r".into(),
                key: "00ff".into(),
                cached,
                log: (0..2)
                    .map(|i| LogEntry {
                        key: "loss".into(),
                        value: i.to_string(),
                        section: flor_core::logstream::Section::Iter(i),
                    })
                    .collect(),
                anomalies: vec!["a".into(); anomalies],
                ..Default::default()
            })
        };
        let states = [
            completed(false, 1),
            completed(true, 0),
            JobState::Failed("unknown run \"nope\"".into()),
            JobState::Cancelled,
        ];
        for (id, state) in (1..).zip(states) {
            let sink = Arc::new(JobSink::new(false, 4, || {}));
            sink.push(JobEvent::Done(state));
            session.submitted.push(id);
            session.views.insert(
                id,
                JobView {
                    emit_entries: false,
                    emit_events: true,
                    entries_written: 0,
                    stage: Stage::Live(sink),
                },
            );
        }
        let mut out = Vec::new();
        for line in ["status 1", "status 2", "status 3", "status 4", "quit"] {
            session.handle_line(line, &mut out).unwrap();
        }
        assert_eq!(
            out,
            [
                "+done 1 run \"r\" 00ff (fresh), 2 entries, 1 anomalies",
                "job 1: completed (2 entries)",
                "+done 2 run \"r\" 00ff (cached), 2 entries, 0 anomalies",
                "job 2: completed (2 entries)",
                "+done 3 FAILED: unknown run \"nope\"",
                "job 3: Failed(\"unknown run \\\"nope\\\"\")",
                "+done 4 cancelled",
                "job 4: Cancelled",
                "job 1 done: run \"r\" 00ff (fresh), 2 entries, 1 anomalies",
                "job 2 done: run \"r\" 00ff (cached), 2 entries, 0 anomalies",
                "job 3 FAILED: unknown run \"nope\"",
                "job 4 cancelled",
                "# served 4 job(s)",
            ]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
