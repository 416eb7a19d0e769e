//! Raw Linux syscalls — the one place in the workspace that issues them.
//!
//! The workspace vendors every dependency (no libc), so the socket, epoll
//! and eventfd calls of `flor-net` and the `mmap`/`munmap` of
//! `flor-chkpt`'s segment mapping all go through [`syscall6`]: the
//! syscall instruction emitted directly on Linux x86_64/aarch64, with a
//! per-architecture table of syscall numbers in [`nr`]. Every call
//! returns the raw kernel result, a negated errno in `[-4095, -1]` on
//! failure; [`check`] turns it into an `io::Result`. Elsewhere neither
//! [`syscall6`] nor [`nr`] exists, [`supported`] is false, and callers
//! take their own fallback (the stdin serve mode, heap-read segments).

use std::io;

/// True when this build has a raw-syscall backend.
pub fn supported() -> bool {
    cfg!(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ))
}

/// Converts a raw syscall return into `io::Result<usize>` (negated-errno
/// convention).
pub fn check(ret: isize) -> io::Result<usize> {
    if (-4095..0).contains(&ret) {
        Err(io::Error::from_raw_os_error(-ret as i32))
    } else {
        Ok(ret as usize)
    }
}

/// Per-architecture syscall numbers (asm-generic table on aarch64).
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
pub mod nr {
    pub const READ: usize = 0;
    pub const WRITE: usize = 1;
    pub const CLOSE: usize = 3;
    pub const MMAP: usize = 9;
    pub const MUNMAP: usize = 11;
    pub const SOCKET: usize = 41;
    pub const CONNECT: usize = 42;
    pub const SENDTO: usize = 44;
    pub const SHUTDOWN: usize = 48;
    pub const BIND: usize = 49;
    pub const LISTEN: usize = 50;
    pub const GETSOCKNAME: usize = 51;
    pub const SETSOCKOPT: usize = 54;
    pub const UNLINKAT: usize = 263;
    pub const EPOLL_PWAIT: usize = 281;
    pub const EPOLL_CTL: usize = 233;
    pub const ACCEPT4: usize = 288;
    pub const EVENTFD2: usize = 290;
    pub const EPOLL_CREATE1: usize = 291;
}

/// Per-architecture syscall numbers (asm-generic table on aarch64).
#[cfg(all(target_os = "linux", target_arch = "aarch64"))]
pub mod nr {
    pub const READ: usize = 63;
    pub const WRITE: usize = 64;
    pub const CLOSE: usize = 57;
    pub const MMAP: usize = 222;
    pub const MUNMAP: usize = 215;
    pub const SOCKET: usize = 198;
    pub const CONNECT: usize = 203;
    pub const SENDTO: usize = 206;
    pub const SHUTDOWN: usize = 210;
    pub const BIND: usize = 200;
    pub const LISTEN: usize = 201;
    pub const GETSOCKNAME: usize = 204;
    pub const SETSOCKOPT: usize = 208;
    pub const UNLINKAT: usize = 35;
    pub const EPOLL_PWAIT: usize = 22;
    pub const EPOLL_CTL: usize = 21;
    pub const ACCEPT4: usize = 242;
    pub const EVENTFD2: usize = 19;
    pub const EPOLL_CREATE1: usize = 20;
}

/// Issues a 6-argument syscall; unused arguments pass 0. Returns the
/// raw kernel return (negated errno in `[-4095, -1]` on failure).
///
/// # Safety
/// The caller must uphold the specific syscall's contract for every
/// pointer/length argument.
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
pub unsafe fn syscall6(
    n: usize,
    a: usize,
    b: usize,
    c: usize,
    d: usize,
    e: usize,
    f: usize,
) -> isize {
    let ret: isize;
    #[cfg(target_arch = "x86_64")]
    std::arch::asm!(
        "syscall",
        inlateout("rax") n as isize => ret,
        in("rdi") a,
        in("rsi") b,
        in("rdx") c,
        in("r10") d,
        in("r8") e,
        in("r9") f,
        lateout("rcx") _,
        lateout("r11") _,
        options(nostack)
    );
    #[cfg(target_arch = "aarch64")]
    std::arch::asm!(
        "svc #0",
        inlateout("x0") a => ret,
        in("x1") b,
        in("x2") c,
        in("x3") d,
        in("x4") e,
        in("x5") f,
        in("x8") n,
        options(nostack)
    );
    ret
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_splits_the_negated_errno_range() {
        assert_eq!(check(0).unwrap(), 0);
        assert_eq!(check(4096).unwrap(), 4096);
        assert_eq!(check(-2).unwrap_err().raw_os_error(), Some(2));
        assert_eq!(check(-4095).unwrap_err().raw_os_error(), Some(4095));
        // Below the errno range is a (huge) successful return, e.g. an
        // mmap address with the top bit set.
        assert!(check(-4096).is_ok());
    }

    #[cfg(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ))]
    #[test]
    fn a_bad_descriptor_is_ebadf() {
        // SAFETY: closing an fd that cannot be open touches no memory.
        let ret = unsafe { syscall6(nr::CLOSE, i32::MAX as usize, 0, 0, 0, 0, 0) };
        assert_eq!(check(ret).unwrap_err().raw_os_error(), Some(9)); // EBADF
    }
}
