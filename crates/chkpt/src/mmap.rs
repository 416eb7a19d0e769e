//! Read-only memory mapping of sealed segment files and dedup blobs,
//! libc-free.
//!
//! Cold restores used to `fs::read` the whole file into heap just to hand
//! out one entry's slice. A [`MmapRegion`] maps the file instead: the
//! kernel faults in only the pages a slice actually touches, the memory
//! stays reclaimable page cache rather than pinned heap, and the existing
//! zero-copy `Bytes` machinery slices straight out of the mapping
//! ([`load_file`] is the one entry point both tiers read through). The
//! workspace vendors every dependency, so the `mmap`/`munmap` syscalls go
//! through `flor-sys`'s raw-syscall layer on Linux (x86_64/aarch64);
//! everywhere else [`MmapRegion::map`] reports unsupported and the store
//! falls back to reading the file into heap.
//!
//! Safety contract with the store: segments are *immutable once sealed*
//! and compaction replaces them by rename + unlink, never by truncate-in-
//! place, so a live mapping can never observe shrinking backing storage
//! (unlink keeps the inode alive until the last mapping drops). The
//! active (still-growing) segment is only ever mapped at the length the
//! manifest already covers. Dedup blobs obey the same rule: written once
//! through temp + rename, unlinked at refcount zero, never rewritten.

use bytes::Bytes;
use std::fs::{self, File};
use std::io;
use std::path::Path;

/// One immutable file → shared read-only buffer: a mapping dropped with
/// the last `Bytes` of it, or — where mapping is unsupported or the kernel
/// refuses it — the file read into heap. The slower path is chosen by
/// what [`MmapRegion::map`] returns, counted (`store.mmap_fallbacks`) and
/// traced with the refusal's error kind, never taken silently; callers
/// tell the two apart by [`Bytes::backing_is_file`]. `NotFound` from the
/// open propagates untouched.
pub(crate) fn load_file(path: &Path) -> io::Result<Bytes> {
    let file = File::open(path)?;
    let len = file.metadata()?.len() as usize;
    match MmapRegion::map(&file, len) {
        Ok(region) => Ok(Bytes::from_file_backed_owner(region)),
        Err(refusal) => {
            flor_obs::counter!("store.mmap_fallbacks").inc();
            let name = match refusal.kind() {
                io::ErrorKind::Unsupported => "mmap_fallback:unsupported",
                io::ErrorKind::OutOfMemory => "mmap_fallback:out_of_memory",
                io::ErrorKind::PermissionDenied => "mmap_fallback:permission_denied",
                _ => "mmap_fallback:other",
            };
            let errno = refusal.raw_os_error().unwrap_or(0) as u64;
            flor_obs::instant(flor_obs::Category::Tier, name, errno, len as u64);
            Ok(Bytes::from_vec(fs::read(path)?))
        }
    }
}

/// A read-only, whole-file memory mapping. `AsRef<[u8]>`-compatible so it
/// can back a zero-copy `Bytes` via `Bytes::from_file_backed_owner`.
pub(crate) struct MmapRegion {
    /// Mapping base (page-aligned, kernel-chosen). `0` iff `len == 0`.
    ptr: usize,
    len: usize,
}

// The mapping is PROT_READ and never aliased mutably; the raw pointer is
// only a region handle, so shipping it across threads is sound.
unsafe impl Send for MmapRegion {}
unsafe impl Sync for MmapRegion {}

impl MmapRegion {
    /// Maps the first `len` bytes of `file` read-only. `Err` means the
    /// caller should fall back to reading the file into heap (platform
    /// without raw-syscall support, or the kernel refused the mapping) —
    /// the store treats this as a soft miss, never a corruption signal.
    #[cfg(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ))]
    pub(crate) fn map(file: &File, len: usize) -> io::Result<MmapRegion> {
        use std::os::fd::AsRawFd;
        const PROT_READ: usize = 0x1;
        const MAP_PRIVATE: usize = 0x2;
        if len == 0 {
            return Ok(MmapRegion { ptr: 0, len: 0 });
        }
        // SAFETY: `mmap(NULL, len, PROT_READ, MAP_PRIVATE, fd, 0)` with
        // `file` open for reading and `len > 0`; errors come back as
        // negated errno values.
        let ret = unsafe {
            flor_sys::syscall6(
                flor_sys::nr::MMAP,
                0,
                len,
                PROT_READ,
                MAP_PRIVATE,
                file.as_raw_fd() as usize,
                0,
            )
        };
        let ptr = flor_sys::check(ret)?;
        Ok(MmapRegion { ptr, len })
    }

    /// Unsupported platform: always reports `Unsupported` so the store
    /// takes the heap-read fallback.
    #[cfg(not(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    )))]
    pub(crate) fn map(_file: &File, _len: usize) -> io::Result<MmapRegion> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "mmap: no raw-syscall backend for this platform",
        ))
    }
}

impl AsRef<[u8]> for MmapRegion {
    fn as_ref(&self) -> &[u8] {
        if self.len == 0 {
            return &[];
        }
        // SAFETY: `(ptr, len)` is a live PROT_READ mapping owned by this
        // region (unmapped only in Drop), and sealed segments never shrink
        // under a mapping (see module docs), so the slice stays valid and
        // never faults.
        unsafe { std::slice::from_raw_parts(self.ptr as *const u8, self.len) }
    }
}

impl Drop for MmapRegion {
    fn drop(&mut self) {
        if self.len != 0 {
            // SAFETY: exactly the mapping produced in `map`; after this the
            // region is gone and no `as_ref` slice can be outstanding (they
            // borrow `self`).
            let _ =
                unsafe { flor_sys::syscall6(flor_sys::nr::MUNMAP, self.ptr, self.len, 0, 0, 0, 0) };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    fn tmpfile(tag: &str, contents: &[u8]) -> std::path::PathBuf {
        let p = std::env::temp_dir().join(format!(
            "flor-mmap-test-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let mut f = File::create(&p).unwrap();
        f.write_all(contents).unwrap();
        p
    }

    #[test]
    fn maps_file_contents_and_unmaps_on_drop() {
        let data: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
        let path = tmpfile("roundtrip", &data);
        let f = File::open(&path).unwrap();
        match MmapRegion::map(&f, data.len()) {
            Ok(region) => {
                assert_eq!(region.as_ref(), &data[..]);
                // Partial-length mapping sees a prefix.
                let head = MmapRegion::map(&f, 1024).unwrap();
                assert_eq!(head.as_ref(), &data[..1024]);
                drop(region);
                drop(head);
            }
            Err(e) => assert_eq!(e.kind(), io::ErrorKind::Unsupported),
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn zero_len_maps_to_empty_slice() {
        let path = tmpfile("empty", b"");
        let f = File::open(&path).unwrap();
        if let Ok(region) = MmapRegion::map(&f, 0) {
            assert!(region.as_ref().is_empty());
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn mapping_survives_unlink() {
        // Compaction deletes replaced segments while readers may still
        // hold mappings; the inode must outlive the unlink.
        let data = vec![7u8; 4096 * 3];
        let path = tmpfile("unlink", &data);
        let f = File::open(&path).unwrap();
        if let Ok(region) = MmapRegion::map(&f, data.len()) {
            std::fs::remove_file(&path).unwrap();
            drop(f);
            assert_eq!(region.as_ref(), &data[..]);
        } else {
            let _ = std::fs::remove_file(&path);
        }
    }
}
