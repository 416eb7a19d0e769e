//! Epoll socket server for the serve protocol: many clients, one
//! event-loop thread, zero blocking on any client's pace.
//!
//! Transport is the vendored raw-syscall layer in `flor-net` (nonblocking
//! sockets + epoll + eventfd — no tokio, no libc). Each accepted
//! connection gets its own [`ServeSession`]; replay workers publish into
//! bounded per-job [`crate::scheduler::JobSink`]s and wake the loop
//! through an eventfd, so a slow reader stalls only its own stream:
//!
//! - its write buffer fills to the high-water mark → the loop stops
//!   draining its sinks (events coalesce/overflow in the bounded sink;
//!   entry drops are sticky, so what was delivered stays a contiguous
//!   log prefix and the rest catches up from the log of the `Done`
//!   event at completion);
//! - if the peer accepts no bytes for `write_stall_timeout_ms`, the
//!   connection is dropped and its jobs cancelled — workers never wait.
//!
//! Admission control ([`crate::admission`]) runs at submit time inside
//! the session; the scheduler's bounded queue backstops it.

use crate::admission::{AdmissionController, AdmissionPolicy};
use crate::error::RegistryError;
use crate::scheduler::ReplayScheduler;
use crate::service::Registry;
use crate::session::{banner, ServeSession, SessionControl};
use flor_net::{Conn, Endpoint, Listener, PollEvent, Poller, Waker};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

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
    /// Per-connection write-buffer high-water mark, bytes: above it the
    /// loop stops generating output for that connection until the peer
    /// drains it.
    pub wrbuf_high_water: usize,
    /// Drop a connection whose peer accepts no bytes for this long while
    /// output is pending (0 = never).
    pub write_stall_timeout_ms: u64,
    /// Kernel send-buffer size per connection, bytes (0 = OS default).
    /// Small values make a lagging reader visible to userspace (and its
    /// stall timer) promptly instead of hiding behind kernel buffering.
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
            wrbuf_high_water: 256 * 1024,
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
    shutdown: Arc<AtomicBool>,
    waker: Waker,
    thread: Option<JoinHandle<()>>,
    scheduler: Arc<ReplayScheduler>,
}

impl Server {
    /// Binds every endpoint, spawns the scheduler pool and the event-loop
    /// thread, and returns immediately. Fails up front (not in the loop)
    /// if the platform lacks the vendored syscalls or a bind is refused.
    pub fn start(
        registry: Arc<Registry>,
        config: ServerConfig,
    ) -> Result<ServerHandle, RegistryError> {
        let mut listeners = Vec::new();
        let mut endpoints = Vec::new();
        for ep in &config.endpoints {
            let l = Listener::bind(ep)?;
            endpoints.push(l.local_endpoint().clone());
            listeners.push(l);
        }
        let poller = Poller::new()?;
        let waker = Waker::new()?;
        let scheduler = Arc::new(ReplayScheduler::with_queue_limit(
            registry.clone(),
            config.pool_workers,
            config.queue_limit,
        ));
        let admission = Arc::new(AdmissionController::new(config.admission));
        let shutdown = Arc::new(AtomicBool::new(false));
        let loop_state = EventLoop {
            registry,
            scheduler: scheduler.clone(),
            admission,
            config: config.clone(),
            poller,
            waker: waker.clone(),
            listeners,
            shutdown: shutdown.clone(),
            conns: HashMap::new(),
            next_token: FIRST_CONN_TOKEN,
        };
        let thread = std::thread::Builder::new()
            .name("flor-serve".into())
            .spawn(move || loop_state.run())
            .map_err(RegistryError::Io)?;
        Ok(ServerHandle {
            endpoints,
            shutdown,
            waker,
            thread: Some(thread),
            scheduler,
        })
    }
}

impl ServerHandle {
    /// The bound endpoints, with TCP port 0 resolved to the real port.
    pub fn local_endpoints(&self) -> &[Endpoint] {
        &self.endpoints
    }

    /// The scheduler behind the server (status/metrics surfaces).
    pub fn scheduler(&self) -> &Arc<ReplayScheduler> {
        &self.scheduler
    }

    /// Stops accepting, aborts live connections (cancelling their jobs),
    /// and joins the event-loop thread. Idempotent.
    pub fn shutdown(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        self.waker.wake();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

const WAKER_TOKEN: u64 = 0;
const FIRST_CONN_TOKEN: u64 = 1 << 16;

struct ConnState {
    conn: Conn,
    session: ServeSession,
    rdbuf: Vec<u8>,
    wrbuf: Vec<u8>,
    /// Bytes of `wrbuf` already written to the socket.
    wr_pos: usize,
    /// Current epoll write-interest, to avoid redundant EPOLL_CTL_MOD.
    want_write: bool,
    /// Current epoll read-interest: dropped after EOF so a half-closed
    /// socket (level-triggered readable + RDHUP forever) stops waking the
    /// loop while the session's jobs finish streaming.
    want_read: bool,
    /// The session decided to quit: flush, then close.
    closing: bool,
    /// Peer saw progress (wrote bytes, or buffer empty) at this clock.
    last_progress_ns: u64,
    /// Read side reached EOF (client finished sending commands).
    read_eof: bool,
}

impl ConnState {
    fn pending(&self) -> usize {
        self.wrbuf.len() - self.wr_pos
    }

    fn push_lines(&mut self, lines: &mut Vec<String>) {
        for l in lines.drain(..) {
            self.wrbuf.extend_from_slice(l.as_bytes());
            self.wrbuf.push(b'\n');
        }
    }
}

struct EventLoop {
    registry: Arc<Registry>,
    scheduler: Arc<ReplayScheduler>,
    admission: Arc<AdmissionController>,
    config: ServerConfig,
    poller: Poller,
    waker: Waker,
    listeners: Vec<Listener>,
    shutdown: Arc<AtomicBool>,
    conns: HashMap<u64, ConnState>,
    next_token: u64,
}

impl EventLoop {
    fn run(mut self) {
        if self.setup().is_err() {
            return;
        }
        let mut events: Vec<PollEvent> = Vec::new();
        // 50ms tick: drives stall timeouts and catches any missed wake.
        while !self.shutdown.load(Ordering::Acquire) {
            if self.poller.wait(&mut events, 50).is_err() {
                break;
            }
            let mut dead: Vec<u64> = Vec::new();
            for ev in &events {
                match ev.token {
                    WAKER_TOKEN => self.waker.drain(),
                    t if (t as usize) <= self.listeners.len() && t >= 1 => {
                        self.accept_all(t as usize - 1);
                    }
                    t => {
                        let Some(cs) = self.conns.get_mut(&t) else {
                            continue;
                        };
                        if ev.hangup && !ev.readable {
                            dead.push(t);
                            continue;
                        }
                        // Past EOF there is nothing left to read (and the
                        // fd stays level-triggered readable forever).
                        if (ev.readable || ev.hangup) && !cs.read_eof && !Self::read_conn(cs) {
                            dead.push(t);
                            continue;
                        }
                        if ev.writable && !Self::flush_conn(cs) {
                            dead.push(t);
                        }
                    }
                }
            }
            for t in dead {
                self.drop_conn(t, true);
            }
            self.service_sessions();
        }
        // Shutdown: cancel every live session's jobs and return permits.
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        for t in tokens {
            self.drop_conn(t, true);
        }
    }

    fn setup(&mut self) -> std::io::Result<()> {
        self.poller.add(self.waker.raw_fd(), WAKER_TOKEN, false)?;
        for (i, l) in self.listeners.iter().enumerate() {
            self.poller.add(l.raw_fd(), (i + 1) as u64, false)?;
        }
        Ok(())
    }

    fn accept_all(&mut self, listener: usize) {
        loop {
            let _span = flor_obs::span(flor_obs::Category::Serve, "accept");
            match self.listeners[listener].accept() {
                Ok(Some(conn)) => {
                    if self.config.sndbuf > 0 {
                        let _ = conn.set_send_buffer(self.config.sndbuf);
                    }
                    let token = self.next_token;
                    self.next_token += 1;
                    let wake = self.waker.clone();
                    let session = ServeSession::new(
                        self.registry.clone(),
                        self.scheduler.clone(),
                        self.admission.clone(),
                        false,
                        self.config.entry_queue_cap,
                        move || wake.wake(),
                    );
                    let mut cs = ConnState {
                        conn,
                        session,
                        rdbuf: Vec::new(),
                        wrbuf: Vec::new(),
                        wr_pos: 0,
                        want_write: false,
                        want_read: true,
                        closing: false,
                        last_progress_ns: flor_obs::clock::now_ns(),
                        read_eof: false,
                    };
                    cs.wrbuf.extend_from_slice(
                        banner(self.registry.root(), self.scheduler.pool_size()).as_bytes(),
                    );
                    cs.wrbuf.push(b'\n');
                    flor_obs::counter!("serve.accepted").inc();
                    if self.poller.add(cs.conn.raw_fd(), token, false).is_ok() {
                        self.conns.insert(token, cs);
                    }
                }
                Ok(None) => break,
                Err(_) => break,
            }
        }
    }

    /// Reads all available bytes and dispatches complete lines. Returns
    /// false if the connection must be dropped (error / oversized line).
    fn read_conn(cs: &mut ConnState) -> bool {
        let _span = flor_obs::span(flor_obs::Category::Serve, "read");
        let mut buf = [0u8; 16 * 1024];
        loop {
            match cs.conn.try_read(&mut buf) {
                Ok(Some(0)) => {
                    cs.read_eof = true;
                    break;
                }
                Ok(Some(n)) => cs.rdbuf.extend_from_slice(&buf[..n]),
                Ok(None) => break,
                Err(_) => return false,
            }
        }
        let mut out = Vec::new();
        let mut start = 0usize;
        while let Some(nl) = cs.rdbuf[start..].iter().position(|&b| b == b'\n') {
            let line = String::from_utf8_lossy(&cs.rdbuf[start..start + nl]).into_owned();
            start += nl + 1;
            match cs
                .session
                .handle_line(line.trim_end_matches('\r'), &mut out)
            {
                Ok(SessionControl::Continue) => {}
                Ok(SessionControl::Quit) => {
                    cs.closing = true;
                    break;
                }
                Err(e) => {
                    out.push(format!("error: {e}"));
                    cs.closing = true;
                    break;
                }
            }
        }
        cs.rdbuf.drain(..start);
        if cs.rdbuf.len() > MAX_LINE {
            out.push("error: line too long".into());
            cs.closing = true;
            cs.rdbuf.clear();
        }
        if cs.read_eof && !cs.closing {
            // A torn trailing fragment without its newline is dropped: it
            // was never a complete command. EOF itself means "quit".
            cs.rdbuf.clear();
            match cs.session.finish(&mut out) {
                Ok(SessionControl::Quit) => cs.closing = true,
                Ok(SessionControl::Continue) => {}
                Err(e) => {
                    out.push(format!("error: {e}"));
                    cs.closing = true;
                }
            }
        }
        cs.push_lines(&mut out);
        true
    }

    /// Writes as much buffered output as the socket accepts. Returns
    /// false if the connection must be dropped.
    fn flush_conn(cs: &mut ConnState) -> bool {
        let _span = flor_obs::span(flor_obs::Category::Serve, "write");
        while cs.wr_pos < cs.wrbuf.len() {
            match cs.conn.try_write(&cs.wrbuf[cs.wr_pos..]) {
                Ok(Some(0)) => return false,
                Ok(Some(n)) => {
                    cs.wr_pos += n;
                    cs.last_progress_ns = flor_obs::clock::now_ns();
                }
                Ok(None) => break,
                Err(_) => return false,
            }
        }
        if cs.wr_pos == cs.wrbuf.len() {
            cs.wrbuf.clear();
            cs.wr_pos = 0;
            cs.last_progress_ns = flor_obs::clock::now_ns();
        } else if cs.wr_pos > MAX_LINE {
            cs.wrbuf.drain(..cs.wr_pos);
            cs.wr_pos = 0;
        }
        true
    }

    /// Post-event pass over every connection: drain job sinks into write
    /// buffers (respecting the high-water mark), flush, update epoll
    /// write interest, enforce the stall timeout, close finished peers.
    fn service_sessions(&mut self) {
        let now = flor_obs::clock::now_ns();
        let stall_ns = self.config.write_stall_timeout_ms * 1_000_000;
        let high_water = self.config.wrbuf_high_water;
        let mut dead: Vec<(u64, bool)> = Vec::new();
        let mut out = Vec::new();
        for (&token, cs) in self.conns.iter_mut() {
            // Backpressure: generate no new output while the peer lags.
            if cs.pending() < high_water {
                out.clear();
                match cs.session.poll_events(&mut out) {
                    // Quit means the session has delivered everything it
                    // ever will (a `quit`/EOF was seen and all reports
                    // are out): flush and close regardless of how the
                    // quit was requested.
                    Ok(SessionControl::Quit) => cs.closing = true,
                    Ok(SessionControl::Continue) => {}
                    Err(e) => {
                        out.push(format!("error: {e}"));
                        cs.closing = true;
                    }
                }
                cs.push_lines(&mut out);
            }
            if !Self::flush_conn(cs) {
                dead.push((token, true));
                continue;
            }
            if cs.pending() == 0 && cs.closing {
                // Clean close: everything delivered.
                dead.push((token, false));
                continue;
            }
            if stall_ns > 0
                && cs.pending() > 0
                && now.saturating_sub(cs.last_progress_ns) > stall_ns
            {
                flor_obs::counter!("serve.stalled_drops").inc();
                dead.push((token, true));
                continue;
            }
            let want_write = cs.pending() > 0;
            // A half-closed socket stays EPOLLIN|EPOLLRDHUP-ready forever
            // under level triggering; keep watching only for writability
            // (EPOLLHUP/EPOLLERR still report) or the loop busy-spins
            // until the session's jobs complete.
            let want_read = !cs.read_eof;
            if want_write != cs.want_write || want_read != cs.want_read {
                if self
                    .poller
                    .set_interest(cs.conn.raw_fd(), token, want_read, want_write)
                    .is_err()
                {
                    dead.push((token, true));
                    continue;
                }
                cs.want_write = want_write;
                cs.want_read = want_read;
            }
        }
        for (t, aborted) in dead {
            self.drop_conn(t, aborted);
        }
    }

    fn drop_conn(&mut self, token: u64, aborted: bool) {
        if let Some(mut cs) = self.conns.remove(&token) {
            if aborted {
                // Client vanished mid-stream: cancel its jobs, return its
                // admission slots, count it.
                cs.session.abort();
                flor_obs::counter!("serve.aborted_conns").inc();
            }
            let _ = self.poller.remove(cs.conn.raw_fd());
        }
    }
}
