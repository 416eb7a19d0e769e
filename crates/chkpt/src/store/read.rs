//! The read path: zero-copy `get_bytes`, CRC verification on every read,
//! and iterative delta-chain resolution through a per-reader chain cache.
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
//! keyframe; every level is CRC-verified, and each frame's recorded base
//! CRC is checked against the live base entry so a re-put base fails
//! loudly instead of decoding garbage.
//!
//! A [`ReadCursor`] is one reader's chain cache: the last payload it
//! decoded or decompressed per block (a zero-copy slice is not kept). A walk stops at the cursor's payload when its
//! `(seq, crc, length)` matches the live index entry, so a reader that
//! restores a chain in order decodes one link per delta entry. The store
//! itself holds no resolved payloads — concurrent readers cannot evict
//! each other's bases, and a reader's cache is freed with the reader.
//! `get_bytes` reads through a fresh cursor.

use super::index::IndexEntry;
use super::manifest::Location;
use super::segment::FLAG_RAW;
use super::write::DeltaBase;
use super::{crc32, CheckpointStore, StoreError};
use crate::compress::decompress_any;
use crate::delta;
use bytes::Bytes;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

#[derive(Default)]
pub(crate) struct ReadCounters {
    pub(crate) reads: AtomicU64,
    pub(crate) zero_copy: AtomicU64,
    pub(crate) delta_reads: AtomicU64,
    pub(crate) chain_links: AtomicU64,
    pub(crate) restore_cache_hits: AtomicU64,
}

/// One reader's chain cache: the last payload it decoded or decompressed
/// per block, keyed by the entry's `(seq, crc)`. Owned by one reader (a replay
/// worker, a compaction pass) for the life of its schedule and dropped
/// with it; see the module docs.
#[derive(Default)]
pub struct ReadCursor {
    last: HashMap<String, (u64, u32, Bytes)>,
}

impl ReadCursor {
    /// Reads, verifies and returns the payload for `(block_id, seq)`, as
    /// [`CheckpointStore::get_bytes`] does, resolving a delta chain only
    /// as far down as this cursor's last payload of the block.
    pub fn get_bytes(
        &mut self,
        store: &CheckpointStore,
        block_id: &str,
        seq: u64,
    ) -> Result<Bytes, StoreError> {
        // Disabled tracing costs one atomic load here.
        let mut span = flor_obs::span(flor_obs::Category::RestoreChain, "store_read");
        span.set_args(seq, 0);
        store.reads.reads.fetch_add(1, Ordering::Relaxed);
        store.read_with_relocation_retry(block_id, seq, |entry| {
            store.read_payload(self, block_id, seq, entry)
        })
    }

    /// This cursor's payload of `block_id`, if it is the one `entry`
    /// describes.
    fn hit(&self, block_id: &str, seq: u64, entry: &IndexEntry) -> Option<Bytes> {
        let (cseq, ccrc, payload) = self.last.get(block_id)?;
        (*cseq == seq && *ccrc == entry.crc && payload.len() as u64 == entry.raw)
            .then(|| payload.clone())
    }

    fn keep(&mut self, block_id: &str, seq: u64, crc: u32, payload: Bytes) {
        match self.last.get_mut(block_id) {
            Some(slot) => *slot = (seq, crc, payload),
            None => {
                self.last.insert(block_id.to_string(), (seq, crc, payload));
            }
        }
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
    /// buffer. Either way the payload CRC is verified on every read. Each
    /// call resolves a delta chain from its keyframe; a reader restoring a
    /// schedule reads through one [`ReadCursor`] instead.
    pub fn get_bytes(&self, block_id: &str, seq: u64) -> Result<Bytes, StoreError> {
        ReadCursor::default().get_bytes(self, block_id, seq)
    }

    /// [`CheckpointStore::get_bytes`] copied into an owned `Vec`, for this
    /// crate's tests to compare against.
    #[cfg(test)]
    pub(crate) fn get(&self, block_id: &str, seq: u64) -> Result<Vec<u8>, StoreError> {
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
        mut read: impl FnMut(&IndexEntry) -> Result<T, StoreError>,
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
    /// resolving delta chains through `cursor`, and keeps a decoded or
    /// decompressed payload there.
    pub(crate) fn read_payload(
        &self,
        cursor: &mut ReadCursor,
        block_id: &str,
        seq: u64,
        entry: &IndexEntry,
    ) -> Result<Bytes, StoreError> {
        let payload = if entry.loc.delta_link().is_some() {
            self.reads.delta_reads.fetch_add(1, Ordering::Relaxed);
            self.resolve_delta(cursor, block_id, seq, entry)?
        } else {
            self.read_keyframe_payload(block_id, seq, entry)?
        };
        // Keep what took work to produce. A slice of a file mapping costs
        // only its CRC to read again, and keeping it would hold its pages
        // resident until the reader ends.
        if !payload.backing_is_file() {
            cursor.keep(block_id, seq, entry.crc, payload.clone());
        }
        Ok(payload)
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
    /// stopping early at the cursor's payload of the block, then applies
    /// the collected frames newest-last. Every reconstructed level is verified
    /// against its index entry's length and CRC, and every frame's
    /// recorded base CRC is checked against the base entry — a base that
    /// was re-put with different content fails loudly as corruption
    /// instead of silently decoding garbage.
    fn resolve_delta(
        &self,
        cursor: &ReadCursor,
        block_id: &str,
        seq: u64,
        entry: &IndexEntry,
    ) -> Result<Bytes, StoreError> {
        let corrupt = |s: u64, detail: String| StoreError::Corrupt {
            block_id: block_id.to_string(),
            seq: s,
            detail,
        };
        let cache_hit = |seq: u64, entry: &IndexEntry| {
            let hit = cursor.hit(block_id, seq, entry)?;
            self.reads
                .restore_cache_hits
                .fetch_add(1, Ordering::Relaxed);
            Some(hit)
        };
        let mut span = flor_obs::span(flor_obs::Category::RestoreChain, "chain_resolve");
        let t0 = flor_obs::clock::now_ns();
        // The requested seq itself may be the cursor's payload — repeated
        // reads of one delta entry must not re-walk its chain.
        if let Some(hit) = cache_hit(seq, entry) {
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
            // The cursor holding the base ends the walk.
            if let Some(hit) = cache_hit(base_seq, &base_entry) {
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
        span.set_args(frames.len() as u64, payload.len() as u64);
        flor_obs::histogram!("store.chain_resolve_ns").observe(flor_obs::clock::since_ns(t0));
        Ok(payload)
    }

    /// The newest committed version of `block_id` strictly below
    /// `before_seq`, as a delta base: racing materializer batches commit
    /// out of order, so when the write cache has no usable base the stage
    /// path chains against whatever *is* durable (frames record their
    /// base seq explicitly, so a gap chain — seq 4 on seq 1 — is just as
    /// valid as a dense one). A version at `max_depth` or deeper cannot
    /// take a child, so it is not read.
    pub(crate) fn delta_base_from_index(
        &self,
        block_id: &str,
        before_seq: u64,
        max_depth: u32,
    ) -> Option<DeltaBase> {
        let (seq, entry) = self.index.newest_before(block_id, before_seq)?;
        let depth = entry.loc.delta_link().map_or(0, |(_, d)| d);
        if depth >= max_depth {
            return None;
        }
        let payload = self.get_bytes(block_id, seq).ok()?;
        Some(DeltaBase {
            seq,
            depth,
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
        let mut reader = ReadCursor::default();
        for seq in 0..8u64 {
            reader.get_bytes(&store, "sb_0", seq).unwrap();
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
        let mut reader = ReadCursor::default();
        reader.get_bytes(&store, "sb_0", 5).unwrap();
        let links_after_first = store.stats().chain_links_resolved;
        reader.get_bytes(&store, "sb_0", 5).unwrap();
        let s = store.stats();
        assert_eq!(
            s.chain_links_resolved, links_after_first,
            "second read of the same entry must not re-walk the chain: {s:?}"
        );
        assert!(s.restore_cache_hits >= 1, "{s:?}");
        // The store itself keeps nothing: a cursor-less read walks again.
        store.get_bytes("sb_0", 5).unwrap();
        assert_eq!(
            store.stats().chain_links_resolved,
            links_after_first * 2,
            "get_bytes must resolve with no shared state"
        );
    }

    #[test]
    fn interleaved_readers_decode_one_link_per_delta_entry_each() {
        // Two readers restore one chained block in order, interleaved and
        // half a chain apart — two workers, or two queries on one pooled
        // handle. A store-wide cache of one payload per block made each
        // evict the other's base and re-walk to the keyframe; with a cache
        // per reader, each decodes exactly one link per delta entry.
        let store = CheckpointStore::open(tmpdir("delta-interleave")).unwrap();
        let n = 24u64;
        for seq in 0..n {
            store
                .put("sb_0", seq, &drifting_payload(seq, 2048))
                .unwrap();
        }
        let deltas = store.stats().delta_entries;
        assert!(deltas >= n - 4, "{:?}", store.stats());
        let before = store.stats();
        let (mut a, mut b) = (ReadCursor::default(), ReadCursor::default());
        for seq in 0..n + 3 {
            if seq < n {
                let got = a.get_bytes(&store, "sb_0", seq).unwrap();
                assert_eq!(got.as_ref(), &drifting_payload(seq, 2048)[..]);
            }
            if let Some(lag) = seq.checked_sub(3) {
                let got = b.get_bytes(&store, "sb_0", lag).unwrap();
                assert_eq!(got.as_ref(), &drifting_payload(lag, 2048)[..]);
            }
        }
        let s = store.stats();
        assert_eq!(s.delta_reads - before.delta_reads, 2 * deltas, "{s:?}");
        assert_eq!(
            s.chain_links_resolved - before.chain_links_resolved,
            2 * deltas,
            "one link per delta entry per reader: {s:?}"
        );
    }

    #[test]
    fn re_put_over_a_delta_base_fails_loudly_not_silently() {
        let store = CheckpointStore::open(tmpdir("delta-reput")).unwrap();
        store.put("sb_0", 0, &drifting_payload(0, 2048)).unwrap();
        store.put("sb_0", 1, &drifting_payload(1, 2048)).unwrap();
        assert!(store
            .index
            .lookup("sb_0", 1)
            .unwrap()
            .loc
            .delta_link()
            .is_some());
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
