//! Raw Linux syscalls — the one place in the workspace that issues them.
//!
//! The workspace vendors every dependency (no libc), so the few calls
//! `std` has no wrapper for go through [`syscall6`]: the syscall
//! instruction emitted directly on Linux x86_64/aarch64, with a
//! per-architecture table of syscall numbers in [`nr`]. They are the
//! `mmap`/`munmap` of `flor-chkpt`'s segment mapping and the
//! `setsockopt(SO_SNDBUF)` of the query service's sockets; everything
//! else, sockets included, is `std`. Every call returns the raw kernel
//! result, a negated errno in `[-4095, -1]` on failure; [`check`] turns it
//! into an `io::Result`. Elsewhere neither [`syscall6`] nor [`nr`] exists,
//! and callers take their own fallback (heap-read segments, the kernel's
//! default send buffer).

use std::io;

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
    pub const CLOSE: usize = 3;
    pub const MMAP: usize = 9;
    pub const MUNMAP: usize = 11;
    pub const SETSOCKOPT: usize = 54;
}

/// Per-architecture syscall numbers (asm-generic table on aarch64).
#[cfg(all(target_os = "linux", target_arch = "aarch64"))]
pub mod nr {
    pub const CLOSE: usize = 57;
    pub const MMAP: usize = 222;
    pub const MUNMAP: usize = 215;
    pub const SETSOCKOPT: usize = 208;
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
