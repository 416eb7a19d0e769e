//! One client's protocol session, independent of transport.
//!
//! The line protocol `flor serve` has always spoken on stdin/stdout is
//! handled here so the stdin adapter (`flor_cli::serve_io`) and the epoll
//! socket server ([`crate::server`]) share one implementation and cannot
//! drift byte-wise. A session owns its submitted jobs, its tenant
//! identity, its admission permits, and — for streamed queries — the
//! bounded per-job [`JobSink`]s that decouple replay workers from this
//! client's read pace.
//!
//! Verbs (one command per line, space-separated):
//!
//! - `runs` — list cataloged runs
//! - `query <run> <probed.flr> [priority]` — enqueue a replay job;
//!   results are reported by `drain`/`quit`
//! - `stream <run> <probed.flr> [priority]` — enqueue and stream results
//!   live as `+entry` / `+progress` / `+anomaly` / `+done <id> …` lines
//! - `watch <id>` — stream `+progress` / `+done` for an existing job
//! - `status <id>` / `cancel <id>` — poll or cancel (queued jobs cancel
//!   immediately; running jobs stop cooperatively mid-replay)
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
//! hostile) path tying up the single dispatch thread, probed sources
//! larger than [`MAX_PROBED_SOURCE_BYTES`] are refused without reading.

use crate::admission::AdmissionController;
use crate::error::RegistryError;
use crate::scheduler::{
    CancelResult, JobEvent, JobId, JobSink, JobState, QueryJob, ReplayScheduler,
};
use crate::service::{QueryOutcome, Registry};
use std::collections::HashMap;
use std::sync::Arc;

/// Largest probed-source file `query`/`stream` will read. Probed training
/// scripts are kilobytes; the cap exists so a path pointing at a huge
/// file (datasets live next to registries) cannot stall the dispatch
/// thread or balloon server memory. Reads happen inline on the event
/// loop, so this bound is also the bound on dispatch latency.
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
    sink: Arc<JobSink>,
    /// Emit `+entry` lines (the `stream` verb).
    emit_entries: bool,
    /// Emit `+progress`/`+anomaly`/`+done` lines (`stream` or `watch`).
    emit_events: bool,
    /// `+entry` lines written so far (catch-up index into the final log).
    entries_written: usize,
    /// Terminal state received from the sink, not yet fully rendered.
    pending_done: Option<JobState>,
    /// Terminal event fully rendered; nothing more will be emitted.
    finished: bool,
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
    /// sinks receives an event — a socket server passes its poller waker,
    /// the stdin adapter a no-op.
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

    /// The scheduler this session submits to.
    pub fn scheduler(&self) -> &Arc<ReplayScheduler> {
        &self.scheduler
    }

    /// Jobs this session submitted.
    pub fn submitted_jobs(&self) -> &[JobId] {
        &self.submitted
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
            ["quit"] | ["exit"] => {
                self.quitting = true;
                if self.blocking {
                    self.scheduler.drain();
                }
                return self.poll_events(out);
            }
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
                            self.scheduler.wait(id)?;
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
                Ok(id) => match self.scheduler.status(id) {
                    None => out.push(format!("job {id}: unknown")),
                    Some(JobState::Completed(o)) => {
                        out.push(format!("job {id}: completed ({} entries)", o.log.len()))
                    }
                    Some(JobState::Running) => {
                        let p = self.scheduler.progress(id).unwrap_or_default();
                        // Prose over the same `(name, value)` list
                        // `JobProgress::fields` exposes — a counter
                        // renamed or dropped there panics here instead
                        // of silently drifting between surfaces.
                        let fields = p.fields();
                        let f = |name: &str| -> u64 {
                            fields
                                .iter()
                                .find(|(n, _)| *n == name)
                                .map(|(_, v)| *v)
                                .unwrap_or_else(|| panic!("JobProgress::fields lost {name:?}"))
                        };
                        out.push(format!(
                            "job {id}: running ({}/{} iterations, {} steal(s), \
                             {} entries streamed, {} stmt(s) elided, {:.1}ms elapsed)",
                            f("iterations_done"),
                            f("iterations_total"),
                            f("steals"),
                            f("entries_streamed"),
                            f("statements_elided"),
                            f("wall_ns") as f64 / 1e6
                        ))
                    }
                    Some(s) => out.push(format!("job {id}: {s:?}")),
                },
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
        let id = match self.scheduler.submit_with_sink(job, sink.clone()) {
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
                sink,
                emit_entries: streaming,
                emit_events: streaming,
                entries_written: 0,
                pending_done: None,
                finished: false,
            },
        );
        self.permits.insert(id, self.tenant.clone());
        out.push(format!(
            "queued job {id}: run {run_id:?} priority {priority}"
        ));
        if streaming && self.blocking {
            // Stdin mode has no event loop: deliver the stream after the
            // job completes (record order is preserved either way).
            self.scheduler.wait(id)?;
            self.pump_job_to_end(id, out);
        }
        Ok(())
    }

    /// Blocking-mode delivery: the job is terminal, so repeated pumps
    /// (each capped at `entry_cap` catch-up entries) run to the `+done`
    /// line without an event loop to re-poll.
    fn pump_job_to_end(&mut self, id: JobId, out: &mut Vec<String>) {
        while self.views.get(&id).is_some_and(|v| !v.finished) {
            self.pump_job(id, out);
        }
    }

    /// Drains every job sink and the in-order completion report; returns
    /// `Quit` once a requested quit has nothing left to deliver. Socket
    /// transports call this whenever the session's waker fired (and on
    /// ticks); the stdin adapter reaches it via `drain`/`quit`.
    pub fn poll_events(&mut self, out: &mut Vec<String>) -> Result<SessionControl, RegistryError> {
        for i in self.settled..self.submitted.len() {
            let id = self.submitted[i];
            self.pump_job(id, out);
        }
        while self
            .submitted
            .get(self.settled)
            .is_some_and(|id| self.views.get(id).is_none_or(|v| v.finished))
        {
            self.settled += 1;
        }
        // In-order completion report (the `drain` / `quit` contract).
        if self.quitting || self.draining || self.blocking {
            while self.reported < self.submitted.len() {
                let id = self.submitted[self.reported];
                match self.scheduler.status(id) {
                    Some(JobState::Completed(o)) => out.push(format!(
                        "job {id} done: run {:?} {} ({}), {} entries, {} anomalies",
                        o.run_id,
                        o.key,
                        if o.cached { "cached" } else { "fresh" },
                        o.log.len(),
                        o.anomalies.len()
                    )),
                    Some(JobState::Failed(e)) => out.push(format!("job {id} FAILED: {e}")),
                    Some(JobState::Cancelled) => out.push(format!("job {id} cancelled")),
                    Some(JobState::Queued | JobState::Running) => break,
                    None => break,
                }
                self.note_terminal(id);
                self.reported += 1;
            }
        }
        if self.quitting
            && self.reported == self.submitted.len()
            && self.submitted.iter().all(|id| {
                self.views
                    .get(id)
                    .map(|v| v.finished || !v.emit_events)
                    .unwrap_or(true)
            })
        {
            if !self.finished {
                self.finished = true;
                out.push(format!("# served {} job(s)", self.submitted.len()));
            }
            return Ok(SessionControl::Quit);
        }
        Ok(SessionControl::Continue)
    }

    /// EOF on the input: same contract as `quit`.
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
        for &id in &self.submitted {
            match self.scheduler.status(id) {
                Some(s) if s.is_terminal() => {}
                Some(_) => {
                    self.scheduler.cancel_job(id);
                }
                None => {}
            }
        }
        let permits: Vec<(JobId, String)> = self.permits.drain().collect();
        for (_, tenant) in permits {
            self.admission.release(&tenant);
        }
    }

    /// Releases the admission slot of a now-terminal job (idempotent).
    fn note_terminal(&mut self, id: JobId) {
        if let Some(tenant) = self.permits.remove(&id) {
            self.admission.release(&tenant);
        }
    }

    /// Drains one job's sink into protocol lines per its view flags.
    fn pump_job(&mut self, id: JobId, out: &mut Vec<String>) {
        let cap = self.entry_cap;
        let Some(view) = self.views.get_mut(&id) else {
            return;
        };
        if view.finished {
            return;
        }
        for ev in view.sink.drain() {
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
                    view.pending_done = Some(state);
                }
            }
        }
        // Render a terminal state: catch up entries the bounded sink
        // dropped (at most `entry_cap` per poll, so one slow stream can't
        // flood the write buffer), then the `+done` line.
        if let Some(state) = view.pending_done.take() {
            let mut still_pending = false;
            if view.emit_entries {
                if let JobState::Completed(o) = &state {
                    let end = o.log.len().min(view.entries_written + cap);
                    for e in &o.log[view.entries_written.min(o.log.len())..end] {
                        out.push(format!("+entry {id} {e}"));
                    }
                    view.entries_written = end;
                    still_pending = end < o.log.len();
                }
            }
            if still_pending {
                view.pending_done = Some(state);
                // More catch-up next poll; re-fire the waker so the
                // transport comes back without waiting for a tick.
                (self.wake)();
            } else {
                if view.emit_events {
                    out.push(match &state {
                        JobState::Completed(o) => format!(
                            "+done {id} run {:?} {} ({}), {} entries, {} anomalies",
                            o.run_id,
                            o.key,
                            if o.cached { "cached" } else { "fresh" },
                            o.log.len(),
                            o.anomalies.len()
                        ),
                        JobState::Failed(e) => format!("+done {id} FAILED: {e}"),
                        JobState::Cancelled => format!("+done {id} cancelled"),
                        JobState::Queued | JobState::Running => {
                            unreachable!("Done carries a terminal state")
                        }
                    });
                }
                view.finished = true;
                self.note_terminal(id);
            }
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

/// Convenience used by tests and `QueryOutcome` consumers: the drain
/// report line for a completed job (the exact bytes `drain` emits).
pub fn done_line(id: JobId, o: &QueryOutcome) -> String {
    format!(
        "job {id} done: run {:?} {} ({}), {} entries, {} anomalies",
        o.run_id,
        o.key,
        if o.cached { "cached" } else { "fresh" },
        o.log.len(),
        o.anomalies.len()
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

    /// A long-lived connection must not pay for its history on every
    /// poll: jobs pumped to their `+done` leave the polled window.
    #[test]
    fn polls_skip_jobs_already_pumped_to_their_end() {
        let dir = std::env::temp_dir().join(format!(
            "flor-session-test-settled-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let registry = Arc::new(Registry::open(dir.join("registry")).unwrap());
        registry
            .record_run("r", SRC, |o| o.adaptive = false)
            .unwrap();
        let probed = dir.join("probed.flr");
        std::fs::write(&probed, SRC.replace("\"wn\"", "\"wn2\"")).unwrap();
        let scheduler = Arc::new(ReplayScheduler::new(registry.clone(), 1));
        let admission = Arc::new(AdmissionController::new(AdmissionPolicy::unlimited()));
        let mut session =
            ServeSession::new(registry, scheduler.clone(), admission, false, 64, || {});
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
    }
}
