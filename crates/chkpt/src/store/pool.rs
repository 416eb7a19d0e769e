//! The segment buffer pool: one shared, refcounted whole-segment buffer
//! per resident segment, byte-budgeted with LRU eviction.
//!
//! Buffers are file mappings ([`load_file`]): the kernel faults in only
//! the pages a read touches and the memory stays reclaimable page cache.
//! Where mapping is unsupported or the kernel refuses it, the segment is
//! read into heap instead and counted (`mmap_fallbacks`), so the slower
//! path is never taken silently.

use super::{CheckpointStore, StoreError};
use crate::mmap::load_file;
use bytes::{Buf, Bytes};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// Byte budget for cached whole-segment read buffers, per store handle
/// (a count cap would scale with `segment_target_bytes` and let one
/// handle pin arbitrarily much memory). Mmap buffers are charged at their
/// mapped length too — the budget bounds address-space use, not just heap.
const SEGMENT_CACHE_BUDGET_BYTES: u64 = 256 << 20;

/// One resident segment buffer plus its LRU stamp (bumped on every hit,
/// compared under the cache's write lock when the budget forces eviction).
struct SegBuffer {
    bytes: Bytes,
    last_use: AtomicU64,
}

#[derive(Default)]
pub(crate) struct SegmentPool {
    /// seg id → whole-segment shared buffer (the zero-copy backing).
    cache: RwLock<HashMap<u64, SegBuffer>>,
    /// Total bytes resident in `cache` (updated under its write lock).
    resident_bytes: AtomicU64,
    /// LRU clock: bumped per lookup, so eviction demotes the least-
    /// recently-touched buffer instead of an arbitrary victim.
    tick: AtomicU64,
    pub(crate) hits: AtomicU64,
    pub(crate) misses: AtomicU64,
    /// Segment buffers established via mmap.
    pub(crate) mmap_faults: AtomicU64,
    /// Segments and dedup blobs read into heap because mapping was
    /// unavailable.
    pub(crate) mmap_fallbacks: AtomicU64,
}

impl SegmentPool {
    fn next_tick(&self) -> u64 {
        self.tick.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// The resident buffer of `seg`, if it covers at least `min_len` bytes
    /// (a cached buffer may predate appends to the active segment).
    fn get(&self, seg: u64, min_len: u64) -> Option<Bytes> {
        let cache = self.cache.read();
        let b = cache
            .get(&seg)
            .filter(|b| b.bytes.len() as u64 >= min_len)?;
        b.last_use.store(self.next_tick(), Ordering::Relaxed);
        Some(b.bytes.clone())
    }

    /// Makes `bytes` the resident buffer of `seg`, demoting least-
    /// recently-used residents until the byte budget fits — never the
    /// whole cache, which would periodically cold-start every concurrent
    /// reader. (Evicted buffers stay alive for readers still holding
    /// slices of them; the budget bounds what the *cache* pins.)
    fn admit(&self, seg: u64, bytes: Bytes) {
        let incoming = bytes.len() as u64;
        let mut cache = self.cache.write();
        while self.resident_bytes.load(Ordering::Relaxed) + incoming > SEGMENT_CACHE_BUDGET_BYTES {
            let Some(victim) = cache
                .iter()
                .min_by_key(|(_, buf)| buf.last_use.load(Ordering::Relaxed))
                .map(|(id, _)| *id)
            else {
                break;
            };
            if let Some(evicted) = cache.remove(&victim) {
                self.resident_bytes
                    .fetch_sub(evicted.bytes.len() as u64, Ordering::Relaxed);
            }
        }
        let stamped = SegBuffer {
            bytes,
            last_use: AtomicU64::new(self.next_tick()),
        };
        if let Some(old) = cache.insert(seg, stamped) {
            self.resident_bytes
                .fetch_sub(old.bytes.len() as u64, Ordering::Relaxed);
        }
        self.resident_bytes.fetch_add(incoming, Ordering::Relaxed);
    }

    /// Drops every resident buffer (compaction replaced the segments).
    pub(crate) fn clear(&self) {
        let mut cache = self.cache.write();
        cache.clear();
        self.resident_bytes.store(0, Ordering::Relaxed);
    }

    /// One segment file → shared buffer, counted as a map or a fallback.
    /// `NotFound` from the open propagates untouched — the relocation
    /// retry depends on it.
    fn load(&self, path: &Path) -> std::io::Result<Bytes> {
        let bytes = load_file(path)?;
        if bytes.backing_is_file() {
            self.mmap_faults.fetch_add(1, Ordering::Relaxed);
            flor_obs::counter!("store.mmap_faults").inc();
        } else {
            self.mmap_fallbacks.fetch_add(1, Ordering::Relaxed);
        }
        Ok(bytes)
    }
}

impl CheckpointStore {
    /// Returns the shared whole-segment buffer, establishing it at most
    /// once per cache residency. `min_len` forces a re-fault when a cached
    /// buffer predates appends to the active segment.
    pub(crate) fn segment_bytes(&self, seg: u64, min_len: u64) -> Result<Bytes, StoreError> {
        if let Some(b) = self.pool.get(seg, min_len) {
            self.pool.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(b);
        }
        self.pool.misses.fetch_add(1, Ordering::Relaxed);
        let b = self.pool.load(&self.segment_path(seg))?;
        self.pool.admit(seg, b.clone());
        Ok(b)
    }

    /// Zero-copy slice of one segment-resident entry's stored bytes, with
    /// the shared bounds/truncation check (every reader of segment bytes
    /// goes through here, so the truncation contract lives in one place).
    pub(crate) fn stored_slice(
        &self,
        block_id: &str,
        seq: u64,
        seg: u64,
        offset: u64,
        len: u32,
    ) -> Result<Bytes, StoreError> {
        let need = offset + len as u64;
        let mut view = self.segment_bytes(seg, need)?;
        if (view.len() as u64) < need {
            return Err(StoreError::Corrupt {
                block_id: block_id.to_string(),
                seq,
                detail: format!(
                    "segment {seg} truncated: need {need} bytes, have {}",
                    view.len()
                ),
            });
        }
        view.advance(offset as usize);
        Ok(view.copy_to_bytes(len as usize))
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{incompressible, tmpdir};
    use super::*;

    #[test]
    fn zero_copy_reads_share_the_segment_buffer() {
        let store = CheckpointStore::open(tmpdir("zerocopy")).unwrap();
        let payload = incompressible(4096, 0xBEEF);
        store.put("sb_0", 0, &payload).unwrap();
        let a = store.get_bytes("sb_0", 0).unwrap();
        let b = store.get_bytes("sb_0", 0).unwrap();
        assert_eq!(a.as_ref(), &payload[..]);
        // Both reads slice the one cached segment buffer: same backing
        // memory, no payload copy.
        assert_eq!(a.as_ref().as_ptr(), b.as_ref().as_ptr());
        let s = store.stats();
        assert!(s.zero_copy_reads >= 2, "{s:?}");
        assert!(s.segment_cache_hits >= 1, "{s:?}");
    }

    #[test]
    fn every_segment_load_is_counted_as_a_map_or_a_fallback() {
        let store = CheckpointStore::open(tmpdir("mmap-count")).unwrap();
        store.put("sb_0", 0, &incompressible(4096, 7)).unwrap();
        let got = store.get_bytes("sb_0", 0).unwrap();
        let s = store.stats();
        assert_eq!(s.mmap_faults + s.mmap_fallbacks, s.segment_cache_misses);
        // The backing kind matches the counter that moved: the fallback
        // is selected by what the mapping call returned, nothing else.
        assert_eq!(got.backing_is_file(), s.mmap_faults == 1, "{s:?}");
        if cfg!(all(
            target_os = "linux",
            any(target_arch = "x86_64", target_arch = "aarch64")
        )) {
            assert_eq!(s.mmap_fallbacks, 0, "{s:?}");
        }
    }
}
