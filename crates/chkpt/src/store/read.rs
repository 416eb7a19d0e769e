//! The read path: zero-copy `get_bytes`, CRC verification on every read,
//! and iterative delta-chain resolution behind a per-block restore cache.
//!
//! [`CheckpointStore::get_bytes`] resolves `(block, seq)` through the
//! sharded index to the entry's stored bytes — a [`Bytes`] slice of the
//! segment's shared pooled mapping, or of a mapping of its `@dup` blob
//! that lives exactly as long as the slice (blobs are not pooled). The
//! contract is the same for both tiers: raw-stored payloads are returned
//! without any copy at all (counted in `zero_copy_reads`), compressed
//! payloads pay exactly the decompression, and the payload CRC is checked
//! on **every** read (a blob's content hash only on its first read per
//! process — see [`crate::dedup`]). Delta entries walk toward their
//! keyframe, stopping at the restore cache (sequential replay restores pay
//! O(1) links each, not O(depth)); every level is CRC-verified, and each
//! frame's recorded base CRC is checked against the live base entry so a
//! re-put base fails loudly instead of decoding garbage.

use super::index::IndexEntry;
use super::manifest::Location;
use super::segment::FLAG_RAW;
use super::write::DeltaBase;
use super::{crc32, CheckpointStore, StoreError};
use crate::compress::decompress_any;
use crate::delta;
use bytes::Bytes;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Byte budget for the per-block last-reconstructed-payload cache that
/// makes sequential chain restores O(1) links each.
const RESTORE_CACHE_BUDGET_BYTES: u64 = 256 << 20;

#[derive(Default)]
pub(crate) struct ReadCounters {
    pub(crate) reads: AtomicU64,
    pub(crate) zero_copy: AtomicU64,
    pub(crate) delta_reads: AtomicU64,
    pub(crate) chain_links: AtomicU64,
    pub(crate) restore_cache_hits: AtomicU64,
}

/// block → (seq, payload crc, reconstructed payload): the most recent
/// chain resolution per block, so a sequential replay restores each delta
/// with one link instead of re-walking to the keyframe.
#[derive(Default)]
pub(crate) struct RestoreCache {
    map: Mutex<HashMap<String, (u64, u32, Bytes)>>,
    /// Payload bytes resident in `map` (updated under its lock).
    bytes: AtomicU64,
}

impl RestoreCache {
    fn get(&self, block_id: &str, seq: u64, crc: u32) -> Option<Bytes> {
        let map = self.map.lock();
        let (cseq, ccrc, bytes) = map.get(block_id)?;
        (*cseq == seq && *ccrc == crc).then(|| bytes.clone())
    }

    /// Parks the most recent reconstruction for a block (bounded by
    /// [`RESTORE_CACHE_BUDGET_BYTES`]; one entry per block).
    fn put(&self, block_id: &str, seq: u64, crc: u32, payload: Bytes) {
        let incoming = payload.len() as u64;
        let mut map = self.map.lock();
        while self.bytes.load(Ordering::Relaxed) + incoming > RESTORE_CACHE_BUDGET_BYTES {
            let Some(victim) = map.keys().next().cloned() else {
                break;
            };
            self.forget(&mut map, &victim);
        }
        self.forget(&mut map, block_id);
        map.insert(block_id.to_string(), (seq, crc, payload));
        self.bytes.fetch_add(incoming, Ordering::Relaxed);
    }

    fn forget(&self, map: &mut HashMap<String, (u64, u32, Bytes)>, block_id: &str) {
        if let Some((_, _, old)) = map.remove(block_id) {
            self.bytes.fetch_sub(old.len() as u64, Ordering::Relaxed);
        }
    }

    /// Drops the block's reconstruction if it is of `seq`: a re-put over
    /// it would otherwise leave stale bytes serving later chain walks.
    pub(crate) fn invalidate(&self, block_id: &str, seq: u64) {
        let mut map = self.map.lock();
        if map.get(block_id).is_some_and(|(cseq, _, _)| *cseq == seq) {
            self.forget(&mut map, block_id);
        }
    }

    pub(crate) fn clear(&self) {
        let mut map = self.map.lock();
        map.clear();
        self.bytes.store(0, Ordering::Relaxed);
    }
}

impl CheckpointStore {
    /// Reads, verifies, and returns the checkpoint payload for
    /// `(block_id, seq)` as a refcounted [`Bytes`].
    ///
    /// The zero-copy contract: for raw-stored entries the returned buffer
    /// **is** a slice of the file mapping the bytes live in — the shared
    /// per-segment buffer (all readers of one segment share one backing),
    /// or the `@dup` blob's own mapping — and no payload bytes are copied.
    /// Compressed entries pay exactly one decompression into a fresh
    /// buffer. Either way the payload CRC is verified on every read.
    pub fn get_bytes(&self, block_id: &str, seq: u64) -> Result<Bytes, StoreError> {
        // Disabled tracing costs one atomic load here — this is the ~1µs
        // restore read the replay bench gates.
        let mut span = flor_obs::span(flor_obs::Category::RestoreChain, "store_read");
        span.set_args(seq, 0);
        self.reads.reads.fetch_add(1, Ordering::Relaxed);
        self.read_with_relocation_retry(block_id, seq, |entry| {
            self.read_payload(block_id, seq, entry)
        })
    }

    /// Reads and verifies the checkpoint payload for `(block_id, seq)`.
    /// Compatibility wrapper over [`CheckpointStore::get_bytes`] (pays one
    /// copy into an owned `Vec`; hot paths should use `get_bytes`).
    pub fn get(&self, block_id: &str, seq: u64) -> Result<Vec<u8>, StoreError> {
        Ok(self.get_bytes(block_id, seq)?.to_vec())
    }

    /// Runs `read` against the entry's current location, re-resolving and
    /// retrying when the data file vanished underneath it — the benign
    /// race where a concurrent [`CheckpointStore::compact`] repointed the
    /// index and deleted the old segment between this reader's lookup and
    /// its segment load. A `NotFound` at an *unchanged* location is a real
    /// error and propagates; each retry requires a fresh location, so the
    /// loop only spins while compactions actually land.
    fn read_with_relocation_retry<T>(
        &self,
        block_id: &str,
        seq: u64,
        read: impl Fn(&IndexEntry) -> Result<T, StoreError>,
    ) -> Result<T, StoreError> {
        let missing = || StoreError::Missing {
            block_id: block_id.to_string(),
            seq,
        };
        let mut entry = self.index.lookup(block_id, seq).ok_or_else(missing)?;
        loop {
            match read(&entry) {
                Err(StoreError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => {
                    let fresh = self.index.lookup(block_id, seq).ok_or_else(missing)?;
                    if fresh.loc == entry.loc {
                        return Err(StoreError::Io(e));
                    }
                    entry = fresh;
                }
                other => return other,
            }
        }
    }

    /// Reads and verifies one entry's payload at its recorded location,
    /// resolving delta chains.
    pub(crate) fn read_payload(
        &self,
        block_id: &str,
        seq: u64,
        entry: &IndexEntry,
    ) -> Result<Bytes, StoreError> {
        if entry.loc.delta_link().is_some() {
            self.reads.delta_reads.fetch_add(1, Ordering::Relaxed);
            return self.resolve_delta(block_id, seq, entry);
        }
        self.read_keyframe_payload(block_id, seq, entry)
    }

    /// One entry's stored bytes as they sit in their tier — a zero-copy
    /// slice of a segment or of a dedup blob — and whether they are the
    /// raw payload (no decompression needed).
    pub(crate) fn stored_payload(
        &self,
        block_id: &str,
        seq: u64,
        entry: &IndexEntry,
    ) -> Result<(Bytes, bool), StoreError> {
        match &entry.loc {
            Location::Segment {
                seg,
                offset,
                len,
                raw_stored,
                ..
            } => Ok((
                self.stored_slice(block_id, seq, *seg, *offset, *len)?,
                *raw_stored,
            )),
            Location::Dup { hash, .. } => {
                let (stored, flags) = self.dedup_read(block_id, seq, *hash)?;
                Ok((stored, flags & FLAG_RAW != 0))
            }
        }
    }

    /// Reads and verifies a *non-delta* entry's payload.
    fn read_keyframe_payload(
        &self,
        block_id: &str,
        seq: u64,
        entry: &IndexEntry,
    ) -> Result<Bytes, StoreError> {
        let corrupt = |detail: String| StoreError::Corrupt {
            block_id: block_id.to_string(),
            seq,
            detail,
        };
        let (stored, raw_stored) = self.stored_payload(block_id, seq, entry)?;
        let payload = if raw_stored {
            stored
        } else {
            Bytes::from_vec(decompress_any(stored.as_ref()).map_err(|e| corrupt(e.message))?)
        };
        if payload.len() as u64 != entry.raw || crc32(payload.as_ref()) != entry.crc {
            return Err(corrupt("crc or length mismatch".into()));
        }
        if raw_stored {
            self.reads.zero_copy.fetch_add(1, Ordering::Relaxed);
        }
        Ok(payload)
    }

    /// Reads a dup entry's stored bytes (and blob flags) from the shared
    /// dedup arena. A missing arena or blob is loud per-entry corruption:
    /// the arena refcounts blobs and syncs them before the manifest line
    /// that references them, so absence here means real damage — never
    /// something to skip silently.
    fn dedup_read(&self, block_id: &str, seq: u64, hash: u64) -> Result<(Bytes, u8), StoreError> {
        let corrupt = |detail: String| StoreError::Corrupt {
            block_id: block_id.to_string(),
            seq,
            detail,
        };
        let idx =
            self.dedup.read().clone().ok_or_else(|| {
                corrupt(format!("dup entry {hash:016x} but no dedup arena attached"))
            })?;
        let (stored, flags, _raw_len, _payload_crc) = idx
            .read_stored(hash)
            .map_err(|e| corrupt(format!("dedup blob {hash:016x}: {e}")))?;
        if !stored.backing_is_file() {
            self.pool.mmap_fallbacks.fetch_add(1, Ordering::Relaxed);
        }
        Ok((stored, flags))
    }

    /// Resolves a delta entry: walks the chain toward its keyframe,
    /// stopping early at a per-block restore-cache hit, then applies the
    /// collected frames newest-last. Every reconstructed level is verified
    /// against its index entry's length and CRC, and every frame's
    /// recorded base CRC is checked against the base entry — a base that
    /// was re-put with different content fails loudly as corruption
    /// instead of silently decoding garbage.
    fn resolve_delta(
        &self,
        block_id: &str,
        seq: u64,
        entry: &IndexEntry,
    ) -> Result<Bytes, StoreError> {
        let corrupt = |s: u64, detail: String| StoreError::Corrupt {
            block_id: block_id.to_string(),
            seq: s,
            detail,
        };
        let cache_hit = |seq: u64, crc: u32| {
            let hit = self.restore_cache.get(block_id, seq, crc)?;
            self.reads
                .restore_cache_hits
                .fetch_add(1, Ordering::Relaxed);
            Some(hit)
        };
        let mut span = flor_obs::span(flor_obs::Category::RestoreChain, "chain_resolve");
        let t0 = flor_obs::clock::now_ns();
        // The requested seq itself may be the cached reconstruction —
        // repeated reads of one delta entry must not re-walk its chain.
        if let Some(hit) = cache_hit(seq, entry.crc) {
            return Ok(hit);
        }
        // Walk down: collect (seq, entry, frame) from the target toward
        // the keyframe.
        let mut frames: Vec<(u64, IndexEntry, Bytes)> = Vec::new();
        let mut cur_seq = seq;
        let mut cur = entry.clone();
        let base: Bytes = loop {
            let Some((base_seq, _depth)) = cur.loc.delta_link() else {
                // Keyframe reached: decode it plainly.
                break self.read_keyframe_payload(block_id, cur_seq, &cur)?;
            };
            let (frame, _) = self.stored_payload(block_id, cur_seq, &cur)?;
            let h = delta::header(frame.as_ref())
                .map_err(|e| corrupt(cur_seq, format!("delta frame: {}", e.message)))?;
            if h.base_seq != base_seq || h.raw_len != cur.raw {
                return Err(corrupt(
                    cur_seq,
                    "delta frame header disagrees with manifest".into(),
                ));
            }
            if frames.len() >= 1024 {
                return Err(corrupt(cur_seq, "delta chain implausibly deep".into()));
            }
            let base_entry = self
                .index
                .lookup(block_id, base_seq)
                .ok_or_else(|| corrupt(cur_seq, format!("delta base seq {base_seq} is missing")))?;
            if h.base_crc != base_entry.crc {
                return Err(corrupt(
                    cur_seq,
                    format!("delta base seq {base_seq} changed since encode (re-put?)"),
                ));
            }
            frames.push((cur_seq, cur, frame));
            // Restore-cache hit on the base ends the walk.
            if let Some(hit) = cache_hit(base_seq, base_entry.crc) {
                break hit;
            }
            cur_seq = base_seq;
            cur = base_entry;
        };
        // Apply frames keyframe-first.
        let mut payload = base;
        for (fseq, fentry, frame) in frames.iter().rev() {
            let decoded = delta::decode(frame.as_ref(), payload.as_ref())
                .map_err(|e| corrupt(*fseq, format!("delta decode: {}", e.message)))?;
            if decoded.len() as u64 != fentry.raw || crc32(&decoded) != fentry.crc {
                return Err(corrupt(*fseq, "crc or length mismatch".into()));
            }
            self.reads.chain_links.fetch_add(1, Ordering::Relaxed);
            payload = Bytes::from_vec(decoded);
        }
        self.restore_cache
            .put(block_id, seq, entry.crc, payload.clone());
        span.set_args(frames.len() as u64, payload.len() as u64);
        flor_obs::histogram!("store.chain_resolve_ns").observe(flor_obs::clock::since_ns(t0));
        Ok(payload)
    }

    /// The delta chain link of a stored checkpoint: `Some((base_seq,
    /// depth))` for delta entries, `None` for keyframes (or when the
    /// checkpoint does not exist). Operator surfaces and the prefetcher
    /// use this to reason about chains without reading payloads.
    pub fn chain_info(&self, block_id: &str, seq: u64) -> Option<(u64, u32)> {
        self.index.lookup(block_id, seq)?.loc.delta_link()
    }

    /// The newest committed version of `block_id` strictly below
    /// `before_seq`, as a delta base: racing materializer batches commit
    /// out of order, so when the write cache has no usable base the stage
    /// path chains against whatever *is* durable (frames record their
    /// base seq explicitly, so a gap chain — seq 4 on seq 1 — is just as
    /// valid as a dense one).
    pub(crate) fn delta_base_from_index(
        &self,
        block_id: &str,
        before_seq: u64,
    ) -> Option<DeltaBase> {
        let (seq, entry) = self.index.newest_before(block_id, before_seq)?;
        let payload = self.get_bytes(block_id, seq).ok()?;
        Some(DeltaBase {
            seq,
            depth: entry.loc.delta_link().map_or(0, |(_, d)| d),
            crc: entry.crc,
            payload,
        })
    }

    /// O(1) snapshot of the delta read counters: `(delta_reads,
    /// chain_links_resolved, restore_cache_hits)`. Replay wraps its run in
    /// two snapshots to attribute chain work to one replay on a pooled
    /// handle without paying a full [`CheckpointStore::stats`] walk.
    pub fn delta_read_counters(&self) -> (u64, u64, u64) {
        (
            self.reads.delta_reads.load(Ordering::Relaxed),
            self.reads.chain_links.load(Ordering::Relaxed),
            self.reads.restore_cache_hits.load(Ordering::Relaxed),
        )
    }

    /// The stored (possibly compressed; for delta entries, the raw delta
    /// frame) representation of a checkpoint as it sits on disk.
    pub fn get_stored(&self, block_id: &str, seq: u64) -> Result<Vec<u8>, StoreError> {
        self.read_with_relocation_retry(block_id, seq, |entry| {
            Ok(self.stored_payload(block_id, seq, entry)?.0.to_vec())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{drifting_payload, incompressible, tmpdir};
    use super::*;
    use std::fs;

    #[test]
    fn put_get_roundtrip() {
        let store = CheckpointStore::open(tmpdir("roundtrip")).unwrap();
        let payload = b"checkpoint payload with zeros \0\0\0\0\0\0".repeat(10);
        let meta = store.put("sb_0", 0, &payload).unwrap();
        assert_eq!(meta.raw_bytes, payload.len() as u64);
        assert_eq!(store.get("sb_0", 0).unwrap(), payload);
        assert_eq!(store.get_bytes("sb_0", 0).unwrap().as_ref(), &payload[..]);
    }

    #[test]
    fn missing_checkpoint_errors() {
        let store = CheckpointStore::open(tmpdir("missing")).unwrap();
        assert!(matches!(
            store.get("sb_0", 0),
            Err(StoreError::Missing { .. })
        ));
        assert!(matches!(
            store.get_bytes("sb_0", 0),
            Err(StoreError::Missing { .. })
        ));
    }

    #[test]
    fn compressible_payloads_roundtrip_through_segments() {
        let dir = tmpdir("compressible");
        {
            let store = CheckpointStore::open(&dir).unwrap();
            store.put("sb_0", 0, &vec![0u8; 100_000]).unwrap();
        }
        let store = CheckpointStore::open(&dir).unwrap();
        assert_eq!(store.get("sb_0", 0).unwrap(), vec![0u8; 100_000]);
        // Compressed on disk: the segment file is tiny.
        let s = store.stats();
        assert!(s.segment_disk_bytes < 10_000, "{s:?}");
    }

    #[test]
    fn corruption_is_detected() {
        let dir = tmpdir("corrupt");
        let store = CheckpointStore::open(&dir).unwrap();
        // Structured payload: a flipped byte must change the decompressed
        // content (an all-constant payload can survive offset corruption).
        let payload: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        let meta = store.put("sb_0", 0, &payload).unwrap();
        // Flip a byte inside the stored payload (the entry's tail bytes).
        let file = dir.join("seg").join("00000000.seg");
        let mut bytes = fs::read(&file).unwrap();
        let n = bytes.len();
        let target = n - (meta.stored_bytes as usize) / 2;
        bytes[target] ^= 0xff;
        fs::write(&file, &bytes).unwrap();
        assert!(matches!(
            store.get("sb_0", 0),
            Err(StoreError::Corrupt { .. }) | Err(StoreError::Io(_))
        ));
    }

    #[test]
    fn truncated_segment_is_detected() {
        let dir = tmpdir("trunc");
        let store = CheckpointStore::open(&dir).unwrap();
        store.put("sb_0", 0, &vec![3u8; 5000]).unwrap();
        let file = dir.join("seg").join("00000000.seg");
        let bytes = fs::read(&file).unwrap();
        fs::write(&file, &bytes[..bytes.len() / 2]).unwrap();
        assert!(matches!(
            store.get("sb_0", 0),
            Err(StoreError::Corrupt { .. })
        ));
        // Truncation stays loud across a reopen, too: the entry is kept
        // (the segment exists), and the read fails its bounds check.
        drop(store);
        let store = CheckpointStore::open(&dir).unwrap();
        assert!(store.contains("sb_0", 0));
        assert!(matches!(
            store.get("sb_0", 0),
            Err(StoreError::Corrupt { .. })
        ));
    }

    #[test]
    fn get_stored_returns_the_on_disk_representation() {
        let store = CheckpointStore::open(tmpdir("get-stored")).unwrap();
        // Compressible payload: stored form is the compressed bytes.
        let payload = vec![7u8; 50_000];
        let meta = store.put("sb_0", 0, &payload).unwrap();
        let stored = store.get_stored("sb_0", 0).unwrap();
        assert_eq!(stored.len() as u64, meta.stored_bytes);
        assert_eq!(decompress_any(&stored).unwrap(), payload);
        // Incompressible payload: stored form is the payload itself.
        let raw = incompressible(2048, 5);
        store.put("sb_0", 1, &raw).unwrap();
        assert_eq!(store.get_stored("sb_0", 1).unwrap(), raw);
    }

    #[test]
    fn delta_stored_form_and_standalone_export() {
        let store = CheckpointStore::open(tmpdir("delta-export")).unwrap();
        store.put("sb_0", 0, &drifting_payload(0, 2048)).unwrap();
        store.put("sb_0", 1, &drifting_payload(1, 2048)).unwrap();
        // On-disk form of the chained entry is a delta frame…
        let stored = store.get_stored("sb_0", 1).unwrap();
        assert!(delta::is_delta(&stored));
        // …which reads resolve through its chain to the full payload.
        assert_eq!(store.get("sb_0", 1).unwrap(), drifting_payload(1, 2048));
        // The keyframe's stored form is standalone: no delta, and it
        // decompresses to the payload without the store.
        let key_stored = store.get_stored("sb_0", 0).unwrap();
        assert!(!delta::is_delta(&key_stored));
        assert_eq!(
            decompress_any(&key_stored).unwrap_or(key_stored),
            drifting_payload(0, 2048)
        );
    }

    #[test]
    fn delta_chains_shrink_storage_and_roundtrip_across_reopen() {
        let dir = tmpdir("delta-roundtrip");
        {
            let store = CheckpointStore::open(&dir).unwrap();
            for seq in 0..12u64 {
                store
                    .put("sb_0", seq, &drifting_payload(seq, 4096))
                    .unwrap();
            }
            let s = store.stats();
            assert!(s.delta_entries >= 8, "{s:?}");
            assert!(
                s.keyframe_entries >= 2,
                "K=8 forces a second keyframe: {s:?}"
            );
            assert!(
                s.stored_bytes * 3 < s.raw_bytes,
                "delta must shrink the drifting workload ≥3×: {s:?}"
            );
            for seq in 0..12u64 {
                assert_eq!(store.get("sb_0", seq).unwrap(), drifting_payload(seq, 4096));
            }
        }
        // Reopen: chains reload from the manifest and resolve identically.
        let store = CheckpointStore::open(&dir).unwrap();
        assert!(store.recovery_report().is_clean());
        for seq in (0..12u64).rev() {
            assert_eq!(store.get("sb_0", seq).unwrap(), drifting_payload(seq, 4096));
        }
    }

    #[test]
    fn sequential_chain_restores_hit_the_restore_cache() {
        let store = CheckpointStore::open(tmpdir("delta-cache")).unwrap();
        for seq in 0..8u64 {
            store
                .put("sb_0", seq, &drifting_payload(seq, 2048))
                .unwrap();
        }
        for seq in 0..8u64 {
            store.get_bytes("sb_0", seq).unwrap();
        }
        let s = store.stats();
        assert!(s.delta_reads >= 7, "{s:?}");
        assert!(s.restore_cache_hits >= 5, "{s:?}");
        // Each sequential delta restore resolves O(1) links, not O(depth).
        assert!(
            s.chain_links_resolved <= s.delta_reads + 4,
            "sequential restores must not re-walk whole chains: {s:?}"
        );
    }

    #[test]
    fn repeated_reads_of_one_delta_entry_hit_the_restore_cache() {
        let store = CheckpointStore::open(tmpdir("delta-repeat")).unwrap();
        for seq in 0..6u64 {
            store
                .put("sb_0", seq, &drifting_payload(seq, 2048))
                .unwrap();
        }
        store.get_bytes("sb_0", 5).unwrap();
        let links_after_first = store.stats().chain_links_resolved;
        store.get_bytes("sb_0", 5).unwrap();
        let s = store.stats();
        assert_eq!(
            s.chain_links_resolved, links_after_first,
            "second read of the same entry must not re-walk the chain: {s:?}"
        );
        assert!(s.restore_cache_hits >= 1, "{s:?}");
    }

    #[test]
    fn re_put_over_a_delta_base_fails_loudly_not_silently() {
        let store = CheckpointStore::open(tmpdir("delta-reput")).unwrap();
        store.put("sb_0", 0, &drifting_payload(0, 2048)).unwrap();
        store.put("sb_0", 1, &drifting_payload(1, 2048)).unwrap();
        assert!(store.chain_info("sb_0", 1).is_some());
        // Re-put the base with different content: the chained child's
        // recorded base CRC no longer matches.
        store.put("sb_0", 0, &drifting_payload(7, 2048)).unwrap();
        match store.get_bytes("sb_0", 1) {
            Err(StoreError::Corrupt { detail, .. }) => {
                assert!(detail.contains("re-put"), "{detail}");
            }
            other => panic!("expected loud corruption, got {other:?}"),
        }
        // The re-put base itself reads fine.
        assert_eq!(store.get("sb_0", 0).unwrap(), drifting_payload(7, 2048));
    }
}
