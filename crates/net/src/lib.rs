//! Vendored raw-syscall networking for the flor query service.
//!
//! Provides exactly what the epoll event loop in `registry::server` needs —
//! nonblocking TCP/Unix listeners and connections, an epoll poller with
//! u64 tokens, and an eventfd waker for cross-thread wakeups — with zero
//! external dependencies: every syscall goes through `flor-sys`, the
//! workspace's one raw-syscall layer (no libc, no tokio).
//!
//! On platforms without the raw-syscall backend (anything that is not
//! Linux x86_64/aarch64) every constructor returns
//! [`std::io::ErrorKind::Unsupported`], and callers fall back to the
//! stdin serve mode. Check [`supported`] first.

#![warn(missing_docs)]

use std::fmt;
use std::io;
use std::net::Ipv4Addr;
use std::path::PathBuf;
use std::sync::Arc;

mod sys;

pub use sys::supported;

fn unsupported() -> io::Error {
    io::Error::new(
        io::ErrorKind::Unsupported,
        "flor-net: raw-syscall networking requires linux x86_64/aarch64",
    )
}

// ---- addresses ----------------------------------------------------------

/// A server or client address: TCP (IPv4) or a Unix-domain socket path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// IPv4 TCP endpoint. Port 0 asks the kernel for an ephemeral port;
    /// the bound [`Listener`] reports the resolved one.
    Tcp(Ipv4Addr, u16),
    /// Unix-domain stream socket at this filesystem path.
    Unix(PathBuf),
}

impl Endpoint {
    /// Parses `unix:<path>`, `tcp:<ip>:<port>`, or bare `<ip>:<port>`
    /// (`localhost` is accepted for `127.0.0.1`).
    pub fn parse(s: &str) -> io::Result<Endpoint> {
        if let Some(path) = s.strip_prefix("unix:") {
            if path.is_empty() {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    "empty unix socket path",
                ));
            }
            return Ok(Endpoint::Unix(PathBuf::from(path)));
        }
        let s = s.strip_prefix("tcp:").unwrap_or(s);
        let (host, port) = s.rsplit_once(':').ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("bad endpoint {s:?}: expected ip:port or unix:path"),
            )
        })?;
        let ip: Ipv4Addr = if host == "localhost" {
            Ipv4Addr::LOCALHOST
        } else {
            host.parse().map_err(|_| {
                io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("bad IPv4 address {host:?}"),
                )
            })?
        };
        let port: u16 = port.parse().map_err(|_| {
            io::Error::new(io::ErrorKind::InvalidInput, format!("bad port {port:?}"))
        })?;
        Ok(Endpoint::Tcp(ip, port))
    }
}

impl fmt::Display for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Endpoint::Tcp(ip, port) => write!(f, "tcp:{ip}:{port}"),
            Endpoint::Unix(path) => write!(f, "unix:{}", path.display()),
        }
    }
}

/// Encodes a `sockaddr_in` (16 bytes, network byte order for port/addr).
fn sockaddr_in(ip: Ipv4Addr, port: u16) -> Vec<u8> {
    let mut sa = vec![0u8; 16];
    sa[0..2].copy_from_slice(&(sys::AF_INET as u16).to_ne_bytes());
    sa[2..4].copy_from_slice(&port.to_be_bytes());
    sa[4..8].copy_from_slice(&ip.octets());
    sa
}

/// Encodes a `sockaddr_un` for a pathname socket (family + NUL-terminated
/// path). Errors when the path exceeds the kernel's 107-byte limit.
#[cfg(unix)]
fn sockaddr_un(path: &std::path::Path) -> io::Result<Vec<u8>> {
    use std::os::unix::ffi::OsStrExt;
    let bytes = path.as_os_str().as_bytes();
    if bytes.is_empty() || bytes.len() > 107 || bytes.contains(&0) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("bad unix socket path {:?} (1..=107 bytes, no NUL)", path),
        ));
    }
    let mut sa = vec![0u8; 2 + bytes.len() + 1];
    sa[0..2].copy_from_slice(&(sys::AF_UNIX as u16).to_ne_bytes());
    sa[2..2 + bytes.len()].copy_from_slice(bytes);
    Ok(sa)
}

#[cfg(not(unix))]
fn sockaddr_un(_path: &std::path::Path) -> io::Result<Vec<u8>> {
    Err(unsupported())
}

/// NUL-terminated byte path for `unlinkat`.
#[cfg(unix)]
fn c_path(path: &std::path::Path) -> Vec<u8> {
    use std::os::unix::ffi::OsStrExt;
    let mut p = path.as_os_str().as_bytes().to_vec();
    p.push(0);
    p
}

#[cfg(not(unix))]
fn c_path(_path: &std::path::Path) -> Vec<u8> {
    vec![0]
}

// ---- fd ownership -------------------------------------------------------

/// Owned file descriptor, closed on drop.
#[derive(Debug)]
pub struct Fd(i32);

impl Fd {
    /// The raw descriptor number (still owned by this `Fd`).
    pub fn raw(&self) -> i32 {
        self.0
    }
}

impl Drop for Fd {
    fn drop(&mut self) {
        // Best-effort: nothing useful to do with a close error at drop.
        let _ = sys::check(sys::close(self.0));
    }
}

/// Disables Nagle on a TCP socket. A line protocol answers small
/// requests with small writes; leaving Nagle on serializes every
/// round-trip behind the peer's delayed-ACK timer (~40ms of idle per
/// exchange).
fn set_nodelay(fd: i32) -> io::Result<()> {
    sys::check(sys::setsockopt(
        fd,
        sys::IPPROTO_TCP,
        sys::TCP_NODELAY,
        &1u32,
    ))
    .map(|_| ())
}

fn retry_eintr(mut call: impl FnMut() -> isize) -> io::Result<usize> {
    loop {
        match sys::check(call()) {
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            other => return other,
        }
    }
}

// ---- connections --------------------------------------------------------

/// A nonblocking, connected stream socket owned by the event loop.
#[derive(Debug)]
pub struct Conn {
    fd: Fd,
}

impl Conn {
    /// The raw descriptor, for poller registration.
    pub fn raw_fd(&self) -> i32 {
        self.fd.raw()
    }

    /// Nonblocking read: `Ok(Some(0))` is EOF, `Ok(None)` means no data
    /// available right now (EAGAIN).
    pub fn try_read(&self, buf: &mut [u8]) -> io::Result<Option<usize>> {
        match retry_eintr(|| sys::read(self.fd.raw(), buf)) {
            Ok(n) => Ok(Some(n)),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Nonblocking write: `Ok(None)` means the socket buffer is full
    /// (EAGAIN). Sends with `MSG_NOSIGNAL`, so a vanished peer surfaces
    /// as `EPIPE`/`ECONNRESET`, never a signal.
    pub fn try_write(&self, buf: &[u8]) -> io::Result<Option<usize>> {
        match retry_eintr(|| sys::sendto_nosignal(self.fd.raw(), buf)) {
            Ok(n) => Ok(Some(n)),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Shrinks the kernel send buffer (`SO_SNDBUF`). Makes a slow peer
    /// hit `EAGAIN` after `bytes` instead of after the default megabytes
    /// of kernel buffering — the knob that lets userspace backpressure
    /// (and its tests) observe a lagging reader promptly. The kernel
    /// clamps to its own floor and doubles the value for bookkeeping.
    pub fn set_send_buffer(&self, bytes: u32) -> io::Result<()> {
        sys::check(sys::setsockopt(
            self.fd.raw(),
            sys::SOL_SOCKET,
            sys::SO_SNDBUF,
            &bytes,
        ))
        .map(|_| ())
    }
}

/// A blocking client-side connection; implements [`io::Read`] and
/// [`io::Write`] so it composes with `BufReader`/`BufWriter`.
#[derive(Debug)]
pub struct ClientConn {
    fd: Fd,
}

impl ClientConn {
    /// Connects (blocking) to a server endpoint.
    pub fn connect(endpoint: &Endpoint) -> io::Result<ClientConn> {
        if !supported() {
            return Err(unsupported());
        }
        let (domain, sa) = match endpoint {
            Endpoint::Tcp(ip, port) => (sys::AF_INET, sockaddr_in(*ip, *port)),
            Endpoint::Unix(path) => (sys::AF_UNIX, sockaddr_un(path)?),
        };
        let fd =
            Fd(sys::check(sys::socket(domain, sys::SOCK_STREAM | sys::SOCK_CLOEXEC, 0))? as i32);
        sys::check(sys::connect(fd.raw(), &sa))?;
        if matches!(endpoint, Endpoint::Tcp(..)) {
            set_nodelay(fd.raw())?;
        }
        Ok(ClientConn { fd })
    }

    /// Half-closes the write side, signalling EOF to the server while
    /// keeping the read side open for remaining streamed lines.
    pub fn shutdown_write(&self) -> io::Result<()> {
        sys::check(sys::shutdown(self.fd.raw(), sys::SHUT_WR)).map(|_| ())
    }
}

impl io::Read for ClientConn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        retry_eintr(|| sys::read(self.fd.raw(), buf))
    }
}

impl io::Write for ClientConn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        retry_eintr(|| sys::sendto_nosignal(self.fd.raw(), buf))
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl io::Read for &ClientConn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        retry_eintr(|| sys::read(self.fd.raw(), buf))
    }
}

impl io::Write for &ClientConn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        retry_eintr(|| sys::sendto_nosignal(self.fd.raw(), buf))
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

// ---- listener -----------------------------------------------------------

/// A nonblocking listening socket (TCP or Unix). Unix sockets unlink
/// their path on drop.
#[derive(Debug)]
pub struct Listener {
    fd: Fd,
    local: Endpoint,
}

impl Listener {
    /// Binds and listens. TCP listeners set `SO_REUSEADDR`; Unix
    /// listeners unlink a stale socket file first. Bind to port 0 and
    /// read [`Listener::local_endpoint`] for the kernel-chosen port.
    pub fn bind(endpoint: &Endpoint) -> io::Result<Listener> {
        if !supported() {
            return Err(unsupported());
        }
        let (domain, sa) = match endpoint {
            Endpoint::Tcp(ip, port) => (sys::AF_INET, sockaddr_in(*ip, *port)),
            Endpoint::Unix(path) => {
                // A previous server instance may have left the socket
                // file behind; bind() would fail with EADDRINUSE.
                let _ = sys::check(sys::unlinkat(&c_path(path)));
                (sys::AF_UNIX, sockaddr_un(path)?)
            }
        };
        let fd = Fd(sys::check(sys::socket(
            domain,
            sys::SOCK_STREAM | sys::SOCK_NONBLOCK | sys::SOCK_CLOEXEC,
            0,
        ))? as i32);
        if domain == sys::AF_INET {
            sys::check(sys::setsockopt(
                fd.raw(),
                sys::SOL_SOCKET,
                sys::SO_REUSEADDR,
                &1u32,
            ))?;
        }
        sys::check(sys::bind(fd.raw(), &sa))?;
        sys::check(sys::listen(fd.raw(), 128))?;
        let local = match endpoint {
            Endpoint::Unix(path) => Endpoint::Unix(path.clone()),
            Endpoint::Tcp(ip, _) => {
                let mut buf = [0u8; 16];
                let mut len = buf.len() as u32;
                sys::check(sys::getsockname(fd.raw(), &mut buf, &mut len))?;
                let port = u16::from_be_bytes([buf[2], buf[3]]);
                Endpoint::Tcp(*ip, port)
            }
        };
        Ok(Listener { fd, local })
    }

    /// The bound address, with any ephemeral TCP port resolved.
    pub fn local_endpoint(&self) -> &Endpoint {
        &self.local
    }

    /// The raw descriptor, for poller registration.
    pub fn raw_fd(&self) -> i32 {
        self.fd.raw()
    }

    /// Accepts one pending connection (already nonblocking + cloexec);
    /// `Ok(None)` when the accept queue is empty.
    pub fn accept(&self) -> io::Result<Option<Conn>> {
        match retry_eintr(|| sys::accept4(self.fd.raw(), sys::SOCK_NONBLOCK | sys::SOCK_CLOEXEC)) {
            Ok(fd) => {
                let conn = Conn { fd: Fd(fd as i32) };
                if matches!(self.local, Endpoint::Tcp(..)) {
                    set_nodelay(conn.raw_fd())?;
                }
                Ok(Some(conn))
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(None),
            Err(e) => Err(e),
        }
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        if let Endpoint::Unix(path) = &self.local {
            let _ = sys::check(sys::unlinkat(&c_path(path)));
        }
    }
}

// ---- poller -------------------------------------------------------------

/// One readiness record from [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub struct PollEvent {
    /// The token the descriptor was registered with.
    pub token: u64,
    /// Data (or a pending accept) is readable.
    pub readable: bool,
    /// The socket buffer drained below capacity; writes may proceed.
    pub writable: bool,
    /// Peer hung up or the descriptor errored; the connection is dead.
    pub hangup: bool,
}

/// Level-triggered epoll instance. Registrations start out watching for
/// input and peer hangup; write interest is toggled on only while a
/// connection has buffered output, and read interest is toggled off once
/// the peer half-closes (the standard level-triggered discipline — a
/// permanently-writable socket or a permanently-readable EOF would
/// otherwise busy-loop the poller).
#[derive(Debug)]
pub struct Poller {
    epfd: Fd,
}

impl Poller {
    /// Creates an epoll instance.
    pub fn new() -> io::Result<Poller> {
        if !supported() {
            return Err(unsupported());
        }
        let epfd = sys::check(sys::epoll_create1(sys::EFD_CLOEXEC))? as i32;
        Ok(Poller { epfd: Fd(epfd) })
    }

    fn interest(want_read: bool, want_write: bool) -> u32 {
        let mut ev = 0;
        if want_read {
            ev |= sys::EPOLLIN | sys::EPOLLRDHUP;
        }
        if want_write {
            ev |= sys::EPOLLOUT;
        }
        ev
    }

    /// Registers `fd` under `token`, watching for input and peer hangup
    /// (plus writability when `want_write`).
    pub fn add(&self, fd: i32, token: u64, want_write: bool) -> io::Result<()> {
        let ev = sys::EpollEvent {
            events: Self::interest(true, want_write),
            data: token,
        };
        sys::check(sys::epoll_ctl(
            self.epfd.raw(),
            sys::EPOLL_CTL_ADD,
            fd,
            Some(&ev),
        ))
        .map(|_| ())
    }

    /// Toggles write interest for an already-registered descriptor
    /// (read/hangup interest stays on).
    pub fn set_write_interest(&self, fd: i32, token: u64, want_write: bool) -> io::Result<()> {
        self.set_interest(fd, token, true, want_write)
    }

    /// Replaces both interests for an already-registered descriptor.
    /// Dropping read interest also drops `EPOLLRDHUP`: under level
    /// triggering a half-closed peer keeps both conditions asserted
    /// forever, so a connection that has seen EOF must stop watching them
    /// or every `wait` returns immediately. `EPOLLHUP`/`EPOLLERR` are
    /// still reported (the kernel always delivers those), so a fully
    /// closed or errored peer is not missed.
    pub fn set_interest(
        &self,
        fd: i32,
        token: u64,
        want_read: bool,
        want_write: bool,
    ) -> io::Result<()> {
        let ev = sys::EpollEvent {
            events: Self::interest(want_read, want_write),
            data: token,
        };
        sys::check(sys::epoll_ctl(
            self.epfd.raw(),
            sys::EPOLL_CTL_MOD,
            fd,
            Some(&ev),
        ))
        .map(|_| ())
    }

    /// Deregisters a descriptor (call before closing it).
    pub fn remove(&self, fd: i32) -> io::Result<()> {
        sys::check(sys::epoll_ctl(
            self.epfd.raw(),
            sys::EPOLL_CTL_DEL,
            fd,
            None,
        ))
        .map(|_| ())
    }

    /// Blocks up to `timeout_ms` (`-1` = forever) and appends ready
    /// events to `out` (cleared first). A signal interruption returns
    /// normally with zero events.
    pub fn wait(&self, out: &mut Vec<PollEvent>, timeout_ms: i32) -> io::Result<()> {
        out.clear();
        let mut events = [sys::EpollEvent::default(); 64];
        let n = match sys::check(sys::epoll_pwait(self.epfd.raw(), &mut events, timeout_ms)) {
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => 0,
            Err(e) => return Err(e),
        };
        for ev in events.iter().take(n) {
            // Copy out of the (packed on x86_64) struct before use.
            let bits = ev.events;
            let token = ev.data;
            out.push(PollEvent {
                token,
                readable: bits & sys::EPOLLIN != 0,
                writable: bits & sys::EPOLLOUT != 0,
                hangup: bits & (sys::EPOLLHUP | sys::EPOLLERR | sys::EPOLLRDHUP) != 0,
            });
        }
        Ok(())
    }
}

// ---- waker --------------------------------------------------------------

/// Cross-thread wakeup for a [`Poller`], backed by a nonblocking eventfd.
/// Clone freely; all clones share one descriptor. Register
/// [`Waker::raw_fd`] with the poller and call [`Waker::drain`] when its
/// token fires.
#[derive(Debug, Clone)]
pub struct Waker {
    fd: Arc<Fd>,
}

impl Waker {
    /// Creates the eventfd.
    pub fn new() -> io::Result<Waker> {
        if !supported() {
            return Err(unsupported());
        }
        let fd = sys::check(sys::eventfd2(0, sys::EFD_NONBLOCK | sys::EFD_CLOEXEC))? as i32;
        Ok(Waker {
            fd: Arc::new(Fd(fd)),
        })
    }

    /// The descriptor to register with the poller (read interest only).
    pub fn raw_fd(&self) -> i32 {
        self.fd.raw()
    }

    /// Makes the poller's next (or current) wait return. Safe from any
    /// thread; coalesces with pending wakes.
    pub fn wake(&self) {
        // An eventfd with a pending count is still writable; EAGAIN can
        // only mean the counter is near u64::MAX, which still wakes.
        let _ = retry_eintr(|| sys::write(self.fd.raw(), &1u64.to_ne_bytes()));
    }

    /// Clears pending wakes so level-triggered polling stops reporting
    /// the eventfd readable.
    pub fn drain(&self) {
        let mut buf = [0u8; 8];
        let _ = retry_eintr(|| sys::read(self.fd.raw(), &mut buf));
    }
}

// ---- tests --------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};

    #[test]
    fn endpoint_parse_and_display() {
        assert_eq!(
            Endpoint::parse("127.0.0.1:7070").unwrap(),
            Endpoint::Tcp(Ipv4Addr::LOCALHOST, 7070)
        );
        assert_eq!(
            Endpoint::parse("tcp:localhost:0").unwrap(),
            Endpoint::Tcp(Ipv4Addr::LOCALHOST, 0)
        );
        assert_eq!(
            Endpoint::parse("unix:/tmp/flor.sock").unwrap(),
            Endpoint::Unix(PathBuf::from("/tmp/flor.sock"))
        );
        assert_eq!(
            Endpoint::parse("tcp:10.0.0.2:443").unwrap().to_string(),
            "tcp:10.0.0.2:443"
        );
        assert!(Endpoint::parse("nonsense").is_err());
        assert!(Endpoint::parse("nota.nip:80").is_err());
        assert!(Endpoint::parse("127.0.0.1:notaport").is_err());
        assert!(Endpoint::parse("unix:").is_err());
    }

    #[test]
    fn unsupported_is_reported_cleanly() {
        if supported() {
            return;
        }
        for err in [
            Poller::new().unwrap_err(),
            Waker::new().unwrap_err(),
            Listener::bind(&Endpoint::Tcp(Ipv4Addr::LOCALHOST, 0)).unwrap_err(),
        ] {
            assert_eq!(err.kind(), io::ErrorKind::Unsupported);
        }
    }

    /// Poller-driven echo server for one client; exercises accept, read,
    /// write-interest toggling, and hangup detection end to end.
    fn echo_roundtrip(endpoint: &Endpoint) {
        let listener = Listener::bind(endpoint).unwrap();
        let server_ep = listener.local_endpoint().clone();
        let client = std::thread::spawn(move || {
            let mut conn = ClientConn::connect(&server_ep).unwrap();
            conn.write_all(b"hello flor\n").unwrap();
            conn.shutdown_write().unwrap();
            let mut reply = String::new();
            conn.read_to_string(&mut reply).unwrap();
            reply
        });

        let poller = Poller::new().unwrap();
        poller.add(listener.raw_fd(), 1, false).unwrap();
        let mut events = Vec::new();
        let mut conn: Option<Conn> = None;
        let mut pending: Vec<u8> = Vec::new();
        let mut seen_eof = false;
        // Deadline measured in poll iterations, not wall time (200×50ms).
        for _ in 0..200 {
            poller.wait(&mut events, 50).unwrap();
            for ev in events.clone() {
                if ev.token == 1 {
                    if let Some(c) = listener.accept().unwrap() {
                        poller.add(c.raw_fd(), 2, false).unwrap();
                        conn = Some(c);
                    }
                } else if ev.token == 2 {
                    let c = conn.as_ref().unwrap();
                    if ev.readable || ev.hangup {
                        let mut buf = [0u8; 4096];
                        while let Some(n) = c.try_read(&mut buf).unwrap() {
                            if n == 0 {
                                seen_eof = true;
                                break;
                            }
                            pending.extend_from_slice(&buf[..n]);
                            poller.set_write_interest(c.raw_fd(), 2, true).unwrap();
                        }
                    }
                    if !pending.is_empty() {
                        if let Some(n) = c.try_write(&pending).unwrap() {
                            pending.drain(..n);
                        }
                        if pending.is_empty() {
                            poller.set_write_interest(c.raw_fd(), 2, false).unwrap();
                        }
                    }
                }
            }
            if seen_eof && pending.is_empty() {
                break;
            }
        }
        assert!(seen_eof, "server never saw client EOF");
        // Drop the connection to send EOF back to the client.
        if let Some(c) = conn.take() {
            poller.remove(c.raw_fd()).unwrap();
        }
        assert_eq!(client.join().unwrap(), "hello flor\n");
    }

    #[test]
    fn tcp_echo() {
        if !supported() {
            return;
        }
        echo_roundtrip(&Endpoint::Tcp(Ipv4Addr::LOCALHOST, 0));
    }

    /// A half-closed peer keeps `EPOLLIN|EPOLLRDHUP` asserted forever
    /// under level triggering; dropping read interest via `set_interest`
    /// must silence it so an event loop can idle while it finishes
    /// streaming to the still-open write side.
    #[test]
    fn set_interest_silences_a_half_closed_peer() {
        if !supported() {
            return;
        }
        let listener = Listener::bind(&Endpoint::Tcp(Ipv4Addr::LOCALHOST, 0)).unwrap();
        let client = ClientConn::connect(listener.local_endpoint()).unwrap();
        let poller = Poller::new().unwrap();
        poller.add(listener.raw_fd(), 1, false).unwrap();
        let mut events = Vec::new();
        let mut conn = None;
        for _ in 0..200 {
            poller.wait(&mut events, 50).unwrap();
            if let Some(c) = listener.accept().unwrap() {
                conn = Some(c);
                break;
            }
        }
        let conn = conn.expect("client never accepted");
        poller.add(conn.raw_fd(), 2, false).unwrap();
        client.shutdown_write().unwrap();

        // The EOF becomes visible as a read-ready event…
        let mut saw_eof = false;
        for _ in 0..200 {
            poller.wait(&mut events, 50).unwrap();
            if events.iter().any(|e| e.token == 2) {
                let mut buf = [0u8; 16];
                assert_eq!(conn.try_read(&mut buf).unwrap(), Some(0));
                saw_eof = true;
                break;
            }
        }
        assert!(saw_eof, "poller never reported the half-close");
        // …and stays asserted: a zero-timeout wait still reports the fd.
        poller.wait(&mut events, 0).unwrap();
        assert!(events.iter().any(|e| e.token == 2), "{events:?}");

        // Dropping read interest silences it (EPOLLHUP/ERR would still
        // report a full close).
        poller.set_interest(conn.raw_fd(), 2, false, false).unwrap();
        poller.wait(&mut events, 100).unwrap();
        assert!(events.iter().all(|e| e.token != 2), "{events:?}");
        drop(client);
    }

    #[test]
    fn unix_echo_and_stale_socket_cleanup() {
        if !supported() {
            return;
        }
        let path = std::env::temp_dir().join(format!("flor-net-test-{}.sock", std::process::id()));
        let ep = Endpoint::Unix(path.clone());
        echo_roundtrip(&ep);
        // Re-bind over the leftover socket file to prove stale cleanup.
        echo_roundtrip(&ep);
        drop(ep);
        assert!(!path.exists(), "listener drop should unlink {path:?}");
    }

    #[test]
    fn waker_crosses_threads() {
        if !supported() {
            return;
        }
        let poller = Poller::new().unwrap();
        let waker = Waker::new().unwrap();
        poller.add(waker.raw_fd(), 0, false).unwrap();
        let w2 = waker.clone();
        let t = std::thread::spawn(move || w2.wake());
        let mut events = Vec::new();
        poller.wait(&mut events, 5000).unwrap();
        t.join().unwrap();
        assert!(events.iter().any(|e| e.token == 0 && e.readable));
        waker.drain();
        // Drained: an immediate poll reports nothing.
        poller.wait(&mut events, 0).unwrap();
        assert!(events.is_empty());
    }
}
