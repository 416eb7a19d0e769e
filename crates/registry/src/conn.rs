//! Addresses and stream sockets of the query service, on `std::net` and
//! `std::os::unix::net`.
//!
//! [`Endpoint`] names where a server listens and a client connects;
//! [`Conn`] is one connected stream, TCP or Unix-domain, used by the
//! server ([`crate::server`]), `flor connect`, the serve benchmark and
//! the tests alike. Unix-domain endpoints need a unix host; elsewhere
//! binding or connecting to one reports [`io::ErrorKind::Unsupported`].

use std::fmt;
use std::io::{self, Read, Write};
use std::net::{Ipv4Addr, Shutdown, TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::time::Duration;

/// A server or client address: TCP (IPv4) or a Unix-domain socket path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// IPv4 TCP endpoint. Port 0 asks the kernel for an ephemeral port;
    /// a started server reports the resolved one.
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

#[cfg(not(unix))]
fn no_unix_sockets(path: &std::path::Path) -> io::Error {
    io::Error::new(
        io::ErrorKind::Unsupported,
        format!("unix socket {} needs a unix host", path.display()),
    )
}

/// A connected, blocking stream socket. Reads and writes go through
/// `&Conn`, so one connection can be shared by a reading and a writing
/// thread.
#[derive(Debug)]
pub enum Conn {
    /// A TCP stream, with Nagle disabled.
    Tcp(TcpStream),
    /// A Unix-domain stream.
    #[cfg(unix)]
    Unix(UnixStream),
}

/// Runs `$body` with `$s` bound to the stream inside `$conn`.
macro_rules! each_stream {
    ($conn:expr, $s:ident => $body:expr) => {
        match $conn {
            Conn::Tcp($s) => $body,
            #[cfg(unix)]
            Conn::Unix($s) => $body,
        }
    };
}

impl Conn {
    /// Connects (blocking) to a server endpoint.
    pub fn connect(endpoint: &Endpoint) -> io::Result<Conn> {
        match endpoint {
            Endpoint::Tcp(ip, port) => Conn::tcp(TcpStream::connect((*ip, *port))?),
            #[cfg(unix)]
            Endpoint::Unix(path) => Ok(Conn::Unix(UnixStream::connect(path)?)),
            #[cfg(not(unix))]
            Endpoint::Unix(path) => Err(no_unix_sockets(path)),
        }
    }

    /// Disables Nagle: a line protocol answers small requests with small
    /// writes, and Nagle would hold each answer behind the peer's
    /// delayed-ACK timer (~40ms of idle per exchange).
    fn tcp(stream: TcpStream) -> io::Result<Conn> {
        stream.set_nodelay(true)?;
        Ok(Conn::Tcp(stream))
    }

    /// Half-closes the write side, signalling EOF to the peer while
    /// keeping the read side open for what it still sends.
    pub fn shutdown_write(&self) -> io::Result<()> {
        each_stream!(self, s => s.shutdown(Shutdown::Write))
    }

    /// Shuts both directions: a thread blocked reading or writing this
    /// socket returns, and the peer sees EOF.
    pub(crate) fn shutdown_both(&self) -> io::Result<()> {
        each_stream!(self, s => s.shutdown(Shutdown::Both))
    }

    /// A second handle to the same socket (for a second thread).
    pub(crate) fn try_clone(&self) -> io::Result<Conn> {
        Ok(match self {
            Conn::Tcp(s) => Conn::Tcp(s.try_clone()?),
            #[cfg(unix)]
            Conn::Unix(s) => Conn::Unix(s.try_clone()?),
        })
    }

    /// Switches the socket, every handle of it included, between
    /// blocking and nonblocking I/O.
    pub(crate) fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()> {
        each_stream!(self, s => s.set_nonblocking(nonblocking))
    }

    /// A blocking write that moves no byte for `timeout` fails with
    /// `WouldBlock` (`None`: wait forever).
    pub(crate) fn set_write_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        each_stream!(self, s => s.set_write_timeout(timeout))
    }

    /// Shrinks the kernel send buffer (`SO_SNDBUF`), so a peer that stops
    /// reading jams its writer after `bytes` instead of after megabytes
    /// of kernel buffering. The kernel clamps to its own floor and
    /// doubles the value for bookkeeping. `std` has no setter for it, so
    /// this is the service's one raw socket call, through `flor-sys`.
    pub(crate) fn set_send_buffer(&self, bytes: u32) -> io::Result<()> {
        #[cfg(all(
            target_os = "linux",
            any(target_arch = "x86_64", target_arch = "aarch64")
        ))]
        {
            use std::os::fd::AsRawFd;
            const SOL_SOCKET: usize = 1;
            const SO_SNDBUF: usize = 7;
            let fd = each_stream!(self, s => s.as_raw_fd());
            // SAFETY: `fd` is a socket `self` keeps open for the whole
            // call, and `bytes` outlives it; the kernel copies 4 bytes.
            let ret = unsafe {
                flor_sys::syscall6(
                    flor_sys::nr::SETSOCKOPT,
                    fd as usize,
                    SOL_SOCKET,
                    SO_SNDBUF,
                    &bytes as *const u32 as usize,
                    4,
                    0,
                )
            };
            flor_sys::check(ret).map(drop)
        }
        #[cfg(not(all(
            target_os = "linux",
            any(target_arch = "x86_64", target_arch = "aarch64")
        )))]
        {
            let _ = bytes;
            Err(io::ErrorKind::Unsupported.into())
        }
    }
}

impl Read for &Conn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        each_stream!(*self, s => (&*s).read(buf))
    }
}

impl Write for &Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        each_stream!(*self, s => (&*s).write(buf))
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// A listening socket. A Unix-domain listener replaces a stale socket
/// file at bind and unlinks its path on drop.
pub(crate) enum Listener {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(UnixListener, PathBuf),
}

impl Listener {
    /// Binds and listens; returns the listener with its bound endpoint
    /// (TCP port 0 resolved to the kernel's choice).
    pub(crate) fn bind(endpoint: &Endpoint) -> io::Result<(Listener, Endpoint)> {
        match endpoint {
            Endpoint::Tcp(ip, port) => {
                let l = TcpListener::bind((*ip, *port))?;
                let port = l.local_addr()?.port();
                Ok((Listener::Tcp(l), Endpoint::Tcp(*ip, port)))
            }
            #[cfg(unix)]
            Endpoint::Unix(path) => {
                // A previous server may have left its socket file behind,
                // and bind would fail with `AddrInUse`.
                let _ = std::fs::remove_file(path);
                let l = UnixListener::bind(path)?;
                Ok((Listener::Unix(l, path.clone()), endpoint.clone()))
            }
            #[cfg(not(unix))]
            Endpoint::Unix(path) => Err(no_unix_sockets(path)),
        }
    }

    /// Blocks until a peer connects.
    pub(crate) fn accept(&self) -> io::Result<Conn> {
        match self {
            Listener::Tcp(l) => Conn::tcp(l.accept()?.0),
            #[cfg(unix)]
            Listener::Unix(l, _) => Ok(Conn::Unix(l.accept()?.0)),
        }
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        #[cfg(unix)]
        if let Listener::Unix(_, path) = self {
            let _ = std::fs::remove_file(path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
