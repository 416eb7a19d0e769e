//! Socket, epoll and eventfd wrappers for the event loop.
//!
//! Each wrapper issues its call through `flor-sys`, the workspace's one
//! raw-syscall layer, and returns a negated errno in `[-4095, -1]` on
//! failure. On platforms without that layer each wrapper reports
//! `Unsupported`, and the higher-level server falls back to the stdin
//! serve mode.

pub(crate) use flor_sys::check;
pub use flor_sys::supported;

// ---- constants (Linux ABI, identical on x86_64 and aarch64) -------------

pub(crate) const AF_UNIX: usize = 1;
pub(crate) const AF_INET: usize = 2;
pub(crate) const SOCK_STREAM: usize = 1;
pub(crate) const SOCK_NONBLOCK: usize = 0o4000;
pub(crate) const SOCK_CLOEXEC: usize = 0o2000000;
pub(crate) const SOL_SOCKET: usize = 1;
pub(crate) const SO_REUSEADDR: usize = 2;
pub(crate) const SO_SNDBUF: usize = 7;
pub(crate) const IPPROTO_TCP: usize = 6;
pub(crate) const TCP_NODELAY: usize = 1;
pub(crate) const MSG_NOSIGNAL: usize = 0x4000;
pub(crate) const SHUT_WR: usize = 1;

pub(crate) const EPOLL_CTL_ADD: usize = 1;
pub(crate) const EPOLL_CTL_DEL: usize = 2;
pub(crate) const EPOLL_CTL_MOD: usize = 3;
pub(crate) const EPOLLIN: u32 = 0x001;
pub(crate) const EPOLLOUT: u32 = 0x004;
pub(crate) const EPOLLERR: u32 = 0x008;
pub(crate) const EPOLLHUP: u32 = 0x010;
pub(crate) const EPOLLRDHUP: u32 = 0x2000;

pub(crate) const EFD_NONBLOCK: usize = 0o4000;
pub(crate) const EFD_CLOEXEC: usize = 0o2000000;
pub(crate) const AT_FDCWD: isize = -100;

/// One epoll readiness record. The kernel packs this struct on x86_64
/// (12 bytes) and uses natural alignment elsewhere (16 bytes) — the cfg
/// mirrors the kernel's `EPOLL_PACKED` attribute exactly.
#[cfg(target_arch = "x86_64")]
#[repr(C, packed)]
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct EpollEvent {
    pub events: u32,
    pub data: u64,
}

/// See the x86_64 variant: unpacked layout on every other architecture.
#[cfg(not(target_arch = "x86_64"))]
#[repr(C)]
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct EpollEvent {
    pub events: u32,
    pub data: u64,
}

// ---- wrappers (Linux) ---------------------------------------------------
//
// Each wrapper is a thin, safe-shaped veneer: pointers come from slices or
// stack buffers owned by the caller for the duration of the call, so the
// only unsafety is the syscall instruction itself.

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod calls {
    use super::EpollEvent;
    use flor_sys::{nr, syscall6};

    pub(crate) fn socket(domain: usize, ty: usize, protocol: usize) -> isize {
        // SAFETY: no pointer arguments.
        unsafe { syscall6(nr::SOCKET, domain, ty, protocol, 0, 0, 0) }
    }

    pub(crate) fn bind(fd: i32, addr: &[u8]) -> isize {
        // SAFETY: `addr` outlives the call; the kernel copies it.
        unsafe {
            syscall6(
                nr::BIND,
                fd as usize,
                addr.as_ptr() as usize,
                addr.len(),
                0,
                0,
                0,
            )
        }
    }

    pub(crate) fn listen(fd: i32, backlog: usize) -> isize {
        // SAFETY: no pointer arguments.
        unsafe { syscall6(nr::LISTEN, fd as usize, backlog, 0, 0, 0, 0) }
    }

    pub(crate) fn accept4(fd: i32, flags: usize) -> isize {
        // SAFETY: NULL addr/addrlen — peer address not requested.
        unsafe { syscall6(nr::ACCEPT4, fd as usize, 0, 0, flags, 0, 0) }
    }

    pub(crate) fn connect(fd: i32, addr: &[u8]) -> isize {
        // SAFETY: `addr` outlives the call; the kernel copies it.
        unsafe {
            syscall6(
                nr::CONNECT,
                fd as usize,
                addr.as_ptr() as usize,
                addr.len(),
                0,
                0,
                0,
            )
        }
    }

    pub(crate) fn getsockname(fd: i32, addr: &mut [u8], len: &mut u32) -> isize {
        // SAFETY: `addr`/`len` are caller-owned for the call's duration.
        unsafe {
            syscall6(
                nr::GETSOCKNAME,
                fd as usize,
                addr.as_mut_ptr() as usize,
                len as *mut u32 as usize,
                0,
                0,
                0,
            )
        }
    }

    pub(crate) fn setsockopt(fd: i32, level: usize, opt: usize, val: &u32) -> isize {
        // SAFETY: `val` outlives the call; the kernel copies 4 bytes.
        unsafe {
            syscall6(
                nr::SETSOCKOPT,
                fd as usize,
                level,
                opt,
                val as *const u32 as usize,
                4,
                0,
            )
        }
    }

    pub(crate) fn read(fd: i32, buf: &mut [u8]) -> isize {
        // SAFETY: `buf` is valid writable memory of `buf.len()` bytes.
        unsafe {
            syscall6(
                nr::READ,
                fd as usize,
                buf.as_mut_ptr() as usize,
                buf.len(),
                0,
                0,
                0,
            )
        }
    }

    pub(crate) fn write(fd: i32, buf: &[u8]) -> isize {
        // SAFETY: `buf` is valid readable memory of `buf.len()` bytes.
        unsafe {
            syscall6(
                nr::WRITE,
                fd as usize,
                buf.as_ptr() as usize,
                buf.len(),
                0,
                0,
                0,
            )
        }
    }

    pub(crate) fn sendto_nosignal(fd: i32, buf: &[u8]) -> isize {
        // SAFETY: `buf` is valid readable memory; NULL destination (the
        // socket is connected). MSG_NOSIGNAL turns peer-gone SIGPIPE into
        // an EPIPE return the caller handles.
        unsafe {
            syscall6(
                nr::SENDTO,
                fd as usize,
                buf.as_ptr() as usize,
                buf.len(),
                super::MSG_NOSIGNAL,
                0,
                0,
            )
        }
    }

    pub(crate) fn shutdown(fd: i32, how: usize) -> isize {
        // SAFETY: no pointer arguments.
        unsafe { syscall6(nr::SHUTDOWN, fd as usize, how, 0, 0, 0, 0) }
    }

    pub(crate) fn close(fd: i32) -> isize {
        // SAFETY: the caller owns `fd` and never reuses it after this.
        unsafe { syscall6(nr::CLOSE, fd as usize, 0, 0, 0, 0, 0) }
    }

    pub(crate) fn epoll_create1(flags: usize) -> isize {
        // SAFETY: no pointer arguments.
        unsafe { syscall6(nr::EPOLL_CREATE1, flags, 0, 0, 0, 0, 0) }
    }

    pub(crate) fn epoll_ctl(epfd: i32, op: usize, fd: i32, ev: Option<&EpollEvent>) -> isize {
        let ptr = ev.map(|e| e as *const EpollEvent as usize).unwrap_or(0);
        // SAFETY: `ev` (when present) outlives the call.
        unsafe { syscall6(nr::EPOLL_CTL, epfd as usize, op, fd as usize, ptr, 0, 0) }
    }

    pub(crate) fn epoll_pwait(epfd: i32, events: &mut [EpollEvent], timeout_ms: i32) -> isize {
        // SAFETY: `events` is caller-owned writable memory; NULL sigmask
        // (epoll_pwait with a null mask behaves exactly like epoll_wait —
        // aarch64 has no plain epoll_wait syscall).
        unsafe {
            syscall6(
                nr::EPOLL_PWAIT,
                epfd as usize,
                events.as_mut_ptr() as usize,
                events.len(),
                timeout_ms as isize as usize,
                0,
                0,
            )
        }
    }

    pub(crate) fn eventfd2(initval: usize, flags: usize) -> isize {
        // SAFETY: no pointer arguments.
        unsafe { syscall6(nr::EVENTFD2, initval, flags, 0, 0, 0, 0) }
    }

    pub(crate) fn unlinkat(path: &[u8]) -> isize {
        debug_assert_eq!(path.last(), Some(&0), "path must be NUL-terminated");
        // SAFETY: `path` is a NUL-terminated byte string owned by the
        // caller for the call's duration; AT_FDCWD resolves it like unlink.
        unsafe {
            syscall6(
                nr::UNLINKAT,
                super::AT_FDCWD as usize,
                path.as_ptr() as usize,
                0,
                0,
                0,
                0,
            )
        }
    }
}

// ---- wrappers (everywhere else): always `Unsupported` -------------------

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
mod calls {
    use super::EpollEvent;

    /// `-ENOSYS`: flows through [`super::check`] as an error, which the
    /// high-level constructors rewrite into `ErrorKind::Unsupported`.
    const UNSUPPORTED: isize = -38;

    pub(crate) fn socket(_: usize, _: usize, _: usize) -> isize {
        UNSUPPORTED
    }
    pub(crate) fn bind(_: i32, _: &[u8]) -> isize {
        UNSUPPORTED
    }
    pub(crate) fn listen(_: i32, _: usize) -> isize {
        UNSUPPORTED
    }
    pub(crate) fn accept4(_: i32, _: usize) -> isize {
        UNSUPPORTED
    }
    pub(crate) fn connect(_: i32, _: &[u8]) -> isize {
        UNSUPPORTED
    }
    pub(crate) fn getsockname(_: i32, _: &mut [u8], _: &mut u32) -> isize {
        UNSUPPORTED
    }
    pub(crate) fn setsockopt(_: i32, _: usize, _: usize, _: &u32) -> isize {
        UNSUPPORTED
    }
    pub(crate) fn read(_: i32, _: &mut [u8]) -> isize {
        UNSUPPORTED
    }
    pub(crate) fn write(_: i32, _: &[u8]) -> isize {
        UNSUPPORTED
    }
    pub(crate) fn sendto_nosignal(_: i32, _: &[u8]) -> isize {
        UNSUPPORTED
    }
    pub(crate) fn shutdown(_: i32, _: usize) -> isize {
        UNSUPPORTED
    }
    pub(crate) fn close(_: i32) -> isize {
        UNSUPPORTED
    }
    pub(crate) fn epoll_create1(_: usize) -> isize {
        UNSUPPORTED
    }
    pub(crate) fn epoll_ctl(_: i32, _: usize, _: i32, _: Option<&EpollEvent>) -> isize {
        UNSUPPORTED
    }
    pub(crate) fn epoll_pwait(_: i32, _: &mut [EpollEvent], _: i32) -> isize {
        UNSUPPORTED
    }
    pub(crate) fn eventfd2(_: usize, _: usize) -> isize {
        UNSUPPORTED
    }
    pub(crate) fn unlinkat(_: &[u8]) -> isize {
        UNSUPPORTED
    }
}

pub(crate) use calls::*;
