//! Socket server for the serve protocol: one acceptor thread per
//! listener, and a reader and a writer thread per connection.
//!
//! Transport is `std::net` / `std::os::unix::net` ([`crate::conn`]).
//! Each accepted connection gets its own [`ServeSession`] behind one
//! mutex, shared by its two threads:
//!
//! - the reader thread reads lines and dispatches them, and writes each
//!   command's reply itself when the socket takes it without blocking;
//!   otherwise the reply queues for the writer thread (see
//!   `Connection::send`);
//! - the writer thread sleeps until a job sink wakes it, then drains the
//!   session's events onto the socket.
//!
//! Replay workers publish into bounded per-job
//! [`crate::scheduler::JobSink`]s, so a slow reader stalls only its own
//! stream: while the writer thread is blocked in a write, it generates no
//! new output, and the sinks drop what does not fit (entry drops are
//! sticky, so what was delivered stays a contiguous log prefix and the
//! rest catches up from the log of the `Done` event at completion). A
//! write that moves no byte for `write_stall_timeout_ms` drops the
//! connection and cancels its jobs, so workers never wait.
//!
//! Admission control ([`crate::admission`]) runs at submit time inside
//! the session; the scheduler's bounded queue backstops it.

use crate::admission::{AdmissionController, AdmissionPolicy};
use crate::conn::{Conn, Endpoint, Listener};
use crate::error::RegistryError;
use crate::scheduler::ReplayScheduler;
use crate::service::Registry;
use crate::session::{banner, ServeSession, SessionControl};
use std::io::{self, Read, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

/// Longest accepted protocol line; longer input is a protocol error and
/// closes the connection (a defense against unframed garbage, not a real
/// limit — commands are tens of bytes).
const MAX_LINE: usize = 64 * 1024;

/// Tuning for [`Server::start`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Endpoints to listen on (TCP port 0 picks a free port; resolved
    /// addresses are on the [`ServerHandle`]).
    pub endpoints: Vec<Endpoint>,
    /// Replay worker threads behind the scheduler.
    pub pool_workers: usize,
    /// Scheduler queue bound (0 = unbounded) — the backstop behind
    /// admission control.
    pub queue_limit: usize,
    /// Admission policy applied to every submission.
    pub admission: AdmissionPolicy,
    /// Per-job sink bound: queued event chunks beyond this are dropped
    /// and caught up from the finished job's log at completion.
    pub entry_queue_cap: usize,
    /// Drop a connection whose peer accepts no bytes for this long while
    /// output is pending (0 = never).
    pub write_stall_timeout_ms: u64,
    /// Kernel send-buffer size per connection, bytes (0 = OS default).
    /// Small values make a lagging reader block its writer thread (and
    /// start its stall timer) promptly instead of hiding behind kernel
    /// buffering.
    pub sndbuf: u32,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            endpoints: vec![Endpoint::Tcp(std::net::Ipv4Addr::LOCALHOST, 0)],
            pool_workers: 2,
            queue_limit: 0,
            admission: AdmissionPolicy::unlimited(),
            entry_queue_cap: 1024,
            write_stall_timeout_ms: 30_000,
            sndbuf: 0,
        }
    }
}

/// The running server. Construct with [`Server::start`].
pub struct Server;

/// Handle to a running server: resolved endpoints + shutdown.
pub struct ServerHandle {
    endpoints: Vec<Endpoint>,
    shared: Arc<Shared>,
    /// One per endpoint, in the same order.
    acceptors: Vec<JoinHandle<()>>,
}

/// What the acceptors and connections of one server share.
struct Shared {
    registry: Arc<Registry>,
    scheduler: Arc<ReplayScheduler>,
    admission: Arc<AdmissionController>,
    config: ServerConfig,
    shutdown: AtomicBool,
    /// Connections and their threads (each the writer, with the reader in
    /// its scope); finished ones are joined at the next accept.
    conns: Mutex<Vec<(Arc<Connection>, JoinHandle<()>)>>,
}

impl Server {
    /// Binds every endpoint, spawns the scheduler pool and one acceptor
    /// thread per endpoint, and returns immediately. Fails up front if a
    /// bind is refused.
    pub fn start(
        registry: Arc<Registry>,
        config: ServerConfig,
    ) -> Result<ServerHandle, RegistryError> {
        let mut listeners = Vec::new();
        let mut endpoints = Vec::new();
        for ep in &config.endpoints {
            let (listener, bound) = Listener::bind(ep)?;
            listeners.push(listener);
            endpoints.push(bound);
        }
        let scheduler = Arc::new(ReplayScheduler::with_queue_limit(
            registry.clone(),
            config.pool_workers,
            config.queue_limit,
        ));
        let shared = Arc::new(Shared {
            registry,
            scheduler,
            admission: Arc::new(AdmissionController::new(config.admission)),
            config,
            shutdown: AtomicBool::new(false),
            conns: Mutex::new(Vec::new()),
        });
        let mut handle = ServerHandle {
            endpoints,
            shared,
            acceptors: Vec::new(),
        };
        for listener in listeners {
            let shared = handle.shared.clone();
            let acceptor = std::thread::Builder::new()
                .name("flor-serve-accept".into())
                .spawn(move || shared.accept_loop(&listener))?;
            handle.acceptors.push(acceptor);
        }
        Ok(handle)
    }
}

impl ServerHandle {
    /// The bound endpoints, with TCP port 0 resolved to the real port.
    pub fn local_endpoints(&self) -> &[Endpoint] {
        &self.endpoints
    }

    /// The scheduler behind the server (status/metrics surfaces).
    pub fn scheduler(&self) -> &Arc<ReplayScheduler> {
        &self.shared.scheduler
    }

    /// Stops accepting, aborts live connections (cancelling their jobs),
    /// and joins every thread the server started. Idempotent.
    pub fn shutdown(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        for (ep, acceptor) in self.endpoints.iter().zip(self.acceptors.drain(..)) {
            // The acceptor is blocked in `accept`: a connection wakes it
            // to see the flag. Without one it would never return.
            if Conn::connect(ep).is_ok() {
                let _ = acceptor.join();
            }
        }
        let conns = std::mem::take(&mut *lock(&self.shared.conns));
        for (conn, _) in &conns {
            conn.end(&mut conn.state(), true);
        }
        for (_, t) in conns {
            let _ = t.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Locks a mutex whose holder may have panicked. Every lock in this
/// module guards state that ending the connection leaves usable, and a
/// shutdown (run from `Drop`) must not panic.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Shared {
    fn accept_loop(self: &Arc<Shared>, listener: &Listener) {
        loop {
            let accepted = listener.accept();
            if self.shutdown.load(Ordering::Acquire) {
                return;
            }
            let _span = flor_obs::span(flor_obs::Category::Serve, "accept");
            let started = accepted.and_then(|conn| {
                flor_obs::counter!("serve.accepted").inc();
                self.spawn_conn(conn)
            });
            if let Err(e) = started {
                flor_obs::counter!("serve.accept_errors").inc();
                // A peer that gave up before `accept` costs nothing;
                // anything else (out of descriptors, of threads) lasts
                // until something frees, so retrying at once would spin
                // a core.
                if !matches!(
                    e.kind(),
                    io::ErrorKind::ConnectionAborted | io::ErrorKind::Interrupted
                ) {
                    std::thread::sleep(Duration::from_millis(10));
                }
            }
        }
    }

    /// Starts a session on `conn` and its reader and writer threads.
    fn spawn_conn(self: &Arc<Shared>, conn: Conn) -> io::Result<()> {
        if self.config.sndbuf > 0 {
            let _ = conn.set_send_buffer(self.config.sndbuf);
        }
        if self.config.write_stall_timeout_ms > 0 {
            conn.set_write_timeout(Some(Duration::from_millis(
                self.config.write_stall_timeout_ms,
            )))?;
        }
        // A fresh socket takes the banner without blocking; a peer already
        // gone is simply dropped.
        let mut banner = banner(self.registry.root(), self.scheduler.pool_size());
        banner.push('\n');
        if (&conn).write_all(banner.as_bytes()).is_err() {
            return Ok(());
        }
        let reader = conn.try_clone()?;
        let signal = Arc::new(Signal::default());
        let wake = signal.clone();
        let session = ServeSession::new(
            self.registry.clone(),
            self.scheduler.clone(),
            self.admission.clone(),
            false,
            self.config.entry_queue_cap,
            move || wake.raise(),
        );
        let c = Arc::new(Connection {
            conn,
            signal,
            state: Mutex::new(State {
                session,
                backlog: Vec::new(),
                writing: false,
                closing: false,
                over: false,
            }),
        });
        let thread = {
            let c = c.clone();
            std::thread::Builder::new()
                .name("flor-serve-write".into())
                .spawn(move || {
                    std::thread::scope(|s| {
                        let read = std::thread::Builder::new()
                            .name("flor-serve-read".into())
                            .spawn_scoped(s, || c.read_loop(&reader));
                        if read.is_err() {
                            c.end(&mut c.state(), true);
                        }
                        c.write_loop();
                    })
                })?
        };
        let mut conns = lock(&self.conns);
        for (_, t) in conns.extract_if(.., |(_, t)| t.is_finished()) {
            let _ = t.join();
        }
        conns.push((c, thread));
        Ok(())
    }
}

/// The writer thread's wake-up: a flag plus a condvar, so a wake raised
/// while the writer is busy is seen when it next waits.
#[derive(Default)]
struct Signal {
    raised: Mutex<bool>,
    cv: Condvar,
}

impl Signal {
    fn raise(&self) {
        // Already raised: the writer has yet to see it, and will.
        if !std::mem::replace(&mut *lock(&self.raised), true) {
            self.cv.notify_one();
        }
    }

    /// Blocks until raised, and lowers the flag.
    fn wait(&self) {
        let mut raised = lock(&self.raised);
        while !*raised {
            raised = self.cv.wait(raised).unwrap_or_else(PoisonError::into_inner);
        }
        *raised = false;
    }
}

/// One client connection, shared by its reader and writer threads.
struct Connection {
    /// The writer's handle; the reader thread reads through a clone.
    conn: Conn,
    signal: Arc<Signal>,
    state: Mutex<State>,
}

struct State {
    session: ServeSession,
    /// Output not yet on the socket, in protocol order.
    backlog: Vec<u8>,
    /// The writer thread is writing outside the lock; `backlog` goes out
    /// after what it writes.
    writing: bool,
    /// The session has delivered everything it will: flush, then close.
    closing: bool,
    /// The connection has ended: both threads return.
    over: bool,
}

impl State {
    /// Appends `lines` to the backlog, and marks the session closing when
    /// `ctl` says it is complete or failed.
    fn queue(&mut self, ctl: Result<SessionControl, RegistryError>, lines: &mut Vec<String>) {
        match ctl {
            Ok(SessionControl::Continue) => {}
            Ok(SessionControl::Quit) => self.closing = true,
            Err(e) => {
                lines.push(format!("error: {e}"));
                self.closing = true;
            }
        }
        for l in lines.drain(..) {
            self.backlog.extend_from_slice(l.as_bytes());
            self.backlog.push(b'\n');
        }
    }
}

impl Connection {
    fn state(&self) -> MutexGuard<'_, State> {
        lock(&self.state)
    }

    /// Ends the connection once: cancels the session's live jobs and
    /// returns its admission slots, shuts the socket (which unblocks both
    /// threads) and wakes the writer. `aborted` (peer gone, stalled,
    /// server shutdown) is counted.
    fn end(&self, st: &mut State, aborted: bool) {
        if st.over {
            return;
        }
        st.over = true;
        st.session.abort();
        if aborted {
            flor_obs::counter!("serve.aborted_conns").inc();
        }
        let _ = self.conn.shutdown_both();
        self.signal.raise();
    }

    /// Reads chunks, dispatches each complete line, and sends the replies.
    /// Returns at EOF, on a read error, or once the session is closing.
    fn read_loop(&self, mut rd: &Conn) {
        let mut buf = [0u8; 16 * 1024];
        let mut line_buf = Vec::new();
        let mut out = Vec::new();
        loop {
            let read = rd.read(&mut buf);
            let _span = flor_obs::span(flor_obs::Category::Serve, "read");
            let mut st = self.state();
            if st.over {
                return;
            }
            let n = match read {
                Ok(n) => n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return self.end(&mut st, true),
            };
            line_buf.extend_from_slice(&buf[..n]);
            let mut start = 0;
            while let Some(nl) = line_buf[start..].iter().position(|&b| b == b'\n') {
                let line = String::from_utf8_lossy(&line_buf[start..start + nl]).into_owned();
                start += nl + 1;
                let ctl = st
                    .session
                    .handle_line(line.trim_end_matches('\r'), &mut out);
                st.queue(ctl, &mut out);
                if st.closing {
                    break;
                }
            }
            line_buf.drain(..start);
            if !st.closing && line_buf.len() > MAX_LINE {
                out.push("error: line too long".into());
                st.queue(Ok(SessionControl::Quit), &mut out);
            }
            if n == 0 && !st.closing {
                // A torn trailing fragment without its newline is dropped:
                // it was never a complete command. EOF itself means "quit".
                let ctl = st.session.finish(&mut out);
                st.queue(ctl, &mut out);
            }
            self.send(&mut st);
            if n == 0 || st.closing {
                return;
            }
        }
    }

    /// Writes the backlog now if the writer thread is not writing and the
    /// socket takes it without blocking; whatever is left waits for the
    /// writer thread. The reader thread must not block here: a peer that
    /// stops reading would also stop its commands from being dispatched.
    /// Nonblocking mode is switched on only for this write; it is safe
    /// because the lock is held and `writing` is false, so no other
    /// thread is using the socket.
    fn send(&self, st: &mut State) {
        if !st.writing && !st.backlog.is_empty() {
            let _span = flor_obs::span(flor_obs::Category::Serve, "write");
            let sent = self.conn.set_nonblocking(true).and_then(|()| {
                let sent = write_some(&self.conn, &st.backlog);
                self.conn.set_nonblocking(false)?;
                sent
            });
            match sent {
                Ok(n) => drop(st.backlog.drain(..n)),
                Err(_) => return self.end(st, true),
            }
        }
        if !st.backlog.is_empty() || st.closing {
            self.signal.raise();
        }
    }

    /// Each time the signal is raised: drains the session's events into
    /// the backlog and writes it, until nothing new is produced. Writes
    /// block outside the lock, so the reader thread keeps dispatching
    /// while a slow peer holds this thread.
    fn write_loop(&self) {
        let mut out = Vec::new();
        loop {
            self.signal.wait();
            let mut st = self.state();
            loop {
                if st.over {
                    return;
                }
                let ctl = st.session.poll_events(&mut out);
                st.queue(ctl, &mut out);
                if st.backlog.is_empty() {
                    break;
                }
                let bytes = std::mem::take(&mut st.backlog);
                st.writing = true;
                drop(st);
                let written = {
                    let _span = flor_obs::span(flor_obs::Category::Serve, "write");
                    (&self.conn).write_all(&bytes)
                };
                st = self.state();
                st.writing = false;
                if let Err(e) = written {
                    // A write timeout surfaces as `WouldBlock`.
                    if !st.over && e.kind() == io::ErrorKind::WouldBlock {
                        flor_obs::counter!("serve.stalled_drops").inc();
                    }
                    return self.end(&mut st, true);
                }
            }
            if st.closing {
                return self.end(&mut st, false);
            }
        }
    }
}

/// Writes what a nonblocking socket takes now; returns the bytes written.
fn write_some(mut conn: &Conn, bytes: &[u8]) -> io::Result<usize> {
    let mut n = 0;
    while n < bytes.len() {
        match conn.write(&bytes[n..]) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(k) => n += k,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(n)
}
