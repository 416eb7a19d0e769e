//! The write path: staged, group-committed [`WriteBatch`]es appending to
//! the active segment, and the delta-encode policy that picks each
//! payload's stored representation.
//!
//! # Group commit and the durability contract
//!
//! All writes go through [`WriteBatch`]: payloads are *staged* (delta-
//! encoded or compressed, and CRC-stamped, no I/O), then *committed*
//! together. A commit appends every staged payload to the active segment
//! in **one `write_all`**, then appends all manifest lines in one
//! `write_all` to the kept-open `O_APPEND` handle. Under
//! [`Durability::GroupCommit`] the segment is fsynced *before* the
//! manifest append, then the `seg/` directory, the manifest, and the
//! store root once per batch — the classic group-commit amortization.
//! The ordering (data before manifest) means a manifest line is only ever
//! durable after the payload it describes, so a crash anywhere in a
//! commit leaves a *prefix of whole checkpoints*: complete manifest lines
//! point at complete payload slices, the single torn tail line (if the
//! cut landed inside the batched append) is detected by its line CRC and
//! dropped on recovery, and a torn segment tail past the last durable
//! manifest line is unreferenced dead space that the next compaction
//! reclaims. Reopened stores never append to an existing segment — each
//! writer session starts a fresh one — so a torn tail can never corrupt
//! later offsets.
//!
//! Under [`Durability::Buffered`] (the default) no fsync is issued on the
//! put path: the same ordering is *issued*, but the OS may persist pages
//! out of order, so a crash can durably keep a manifest line whose payload
//! bytes were lost with the segment tail. Such an entry fails loudly as
//! [`StoreError::Corrupt`] at read time and is deliberately *not* dropped
//! at open: a present-but-short segment is indistinguishable from real
//! truncation corruption, and converting corruption into silent
//! re-execution is the one thing this store must never do. Record under
//! [`Durability::GroupCommit`] when checkpoints must survive power loss.
//!
//! # Delta chains
//!
//! Successive versions of one block differ only slightly (one optimizer
//! step), so [`WriteBatch::stage`] stores a version as a [`crate::delta`]
//! frame against the block's previous payload whenever that beats storing
//! it compressed or raw. The store keeps a per-block last-payload cache
//! ([`Bytes`], refcounted) feeding the encode side, and full keyframes
//! every [`StoreOptions::delta_keyframe_interval`](super::StoreOptions)
//! versions bound every restore to a short chain walk.

use super::index::IndexEntry;
use super::manifest::{render_line, Location};
use super::segment::{
    append_entry, encode_footer, SegmentIndexEntry, ENTRY_HEADER_BYTES, SEGMENT_MAGIC,
};
use super::{crc32, CheckpointStore, CkptMeta, Durability, StoreError};
use crate::compress::compress_auto;
use crate::dedup::{BlobMeta, DedupIndex, Interned};
use crate::delta;
use bytes::Bytes;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::fs;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};

/// Byte budget for the per-block last-committed-payload write cache (the
/// delta base source). An evicted block's next stage falls back to
/// reading the newest committed version from the index — chains survive,
/// the handle just stops pinning raw payloads it may never need again.
const DELTA_WRITE_BUDGET_BYTES: u64 = 256 << 20;
/// After this many consecutive failed delta-encode attempts for a block,
/// the stage path stops probing (and stops copying payloads into the base
/// cache) for it — a from-scratch training run that rewrites every
/// checkpoint must not pay an XOR pass plus a payload memcpy per submit
/// for deltas that never materialize.
const DELTA_REJECT_THRESHOLD: u32 = 4;
/// A back-off'd block re-probes once per this many sequence numbers, so a
/// regime change (training → fine-tuning) resumes chaining.
const DELTA_RETRY_PERIOD: u64 = 8;
/// Keyframes below this stored size skip content-addressed dedup: the
/// blob-file overhead plus the index entry would exceed the savings, and
/// tiny payloads are exactly the ones delta/compression already handle.
const DEDUP_MIN_BYTES: usize = 1024;

/// The last committed payload of one block — the base the next version of
/// that block delta-encodes against.
#[derive(Clone)]
pub(crate) struct DeltaBase {
    pub(crate) seq: u64,
    pub(crate) depth: u32,
    pub(crate) crc: u32,
    pub(crate) payload: Bytes,
}

/// Write-side delta state shared by every batch of one store handle.
#[derive(Default)]
pub(crate) struct DeltaWriteState {
    /// block → last committed payload (the delta base for the block's
    /// next version).
    bases: Mutex<HashMap<String, DeltaBase>>,
    /// Payload bytes resident in `bases` (updated under its lock).
    bytes: AtomicU64,
    /// block → consecutive failed delta-encode attempts (back-off state;
    /// see [`DELTA_REJECT_THRESHOLD`]).
    rejects: Mutex<HashMap<String, u32>>,
}

impl DeltaWriteState {
    /// Forgets every base and back-off streak (compaction changed chain
    /// shapes: content-wise the bases would still be right, but their
    /// depth bookkeeping governs future chain growth).
    pub(crate) fn clear(&self) {
        let mut bases = self.bases.lock();
        bases.clear();
        self.bytes.store(0, Ordering::Relaxed);
        self.rejects.lock().clear();
    }

    /// Promotes a committed batch's last payloads into the base cache
    /// (monotonic per block: concurrent batches may commit out of seq
    /// order, and the base must only ever move forward). Byte-budgeted
    /// like the read-side caches — an evicted block's next stage falls
    /// back to the committed index, so a long-lived handle never pins
    /// unbounded raw payloads.
    fn promote(&self, pending: HashMap<String, DeltaBase>) {
        if pending.is_empty() {
            return;
        }
        let mut bases = self.bases.lock();
        for (block, base) in pending {
            if bases.get(&block).is_some_and(|b| b.seq > base.seq) {
                continue;
            }
            self.bytes
                .fetch_add(base.payload.len() as u64, Ordering::Relaxed);
            if let Some(old) = bases.insert(block, base) {
                self.bytes
                    .fetch_sub(old.payload.len() as u64, Ordering::Relaxed);
            }
        }
        while self.bytes.load(Ordering::Relaxed) > DELTA_WRITE_BUDGET_BYTES && bases.len() > 1 {
            let victim = bases.keys().next().expect("non-empty cache").clone();
            if let Some(evicted) = bases.remove(&victim) {
                self.bytes
                    .fetch_sub(evicted.payload.len() as u64, Ordering::Relaxed);
            }
        }
    }
}

/// Picks the stored representation for one payload: a delta frame when it
/// clearly wins (≤ 50% of raw — compression skipped entirely), otherwise
/// whichever of {marginal frame, compressed bytes, raw payload} is
/// smallest. Shared by [`WriteBatch::stage`] and the compaction re-encode
/// walk so both sides apply exactly one policy. Returns
/// `(stored, raw_stored, delta_link)`.
pub(crate) fn arbitrate_stored(
    encoded: Option<(Vec<u8>, u64, u32)>,
    payload: &[u8],
) -> (Vec<u8>, bool, Option<(u64, u32)>) {
    match encoded {
        Some((frame, base_seq, depth)) if delta::is_clear_win(&frame, payload.len()) => {
            (frame, false, Some((base_seq, depth)))
        }
        other => {
            let compressed = compress_auto(payload);
            match other {
                Some((frame, base_seq, depth)) if frame.len() < compressed.len() => {
                    (frame, false, Some((base_seq, depth)))
                }
                _ if compressed.len() >= payload.len() => (payload.to_vec(), true, None),
                _ => (compressed, false, None),
            }
        }
    }
}

/// The active (append-target) segment of a writer session.
pub(crate) struct ActiveSegment {
    pub(crate) id: u64,
    file: fs::File,
    len: u64,
    footer: Vec<SegmentIndexEntry>,
}

impl CheckpointStore {
    /// Starts an empty write batch against this store.
    pub fn batch(&self) -> WriteBatch<'_> {
        WriteBatch {
            store: self,
            staged: Vec::new(),
            pending_bases: HashMap::new(),
        }
    }

    /// Writes a single checkpoint payload for `(block_id, seq)` — a batch
    /// of one; see [`WriteBatch`] for the durability contract.
    pub fn put(&self, block_id: &str, seq: u64, payload: &[u8]) -> Result<CkptMeta, StoreError> {
        let mut batch = self.batch();
        batch.stage(block_id, seq, payload);
        let mut metas = batch.commit()?;
        Ok(metas.pop().expect("batch of one yields one meta"))
    }

    /// Seals the active segment (writes its footer index), if any. Called
    /// automatically on drop and before rolling to a new segment; safe to
    /// call at any quiescent point (e.g. end of record).
    pub(crate) fn seal_active_segment(&self) -> Result<(), StoreError> {
        if self.opts.read_only {
            return Ok(()); // nothing to seal; called unconditionally by Drop
        }
        let mut w = self.writer.lock();
        self.seal_locked(&mut w)
    }

    fn seal_locked(&self, w: &mut Option<ActiveSegment>) -> Result<(), StoreError> {
        let Some(active) = w.take() else {
            return Ok(());
        };
        let mut file = active.file;
        file.write_all(&encode_footer(&active.footer))?;
        if self.opts.durability == Durability::GroupCommit {
            file.sync_data()?;
        }
        Ok(())
    }
}

/// One staged (compressed, CRC-stamped, not yet written) checkpoint.
struct Staged {
    /// Header fields of the entry-to-be (`offset` is filled at commit).
    rec: SegmentIndexEntry,
    /// Stored representation: a delta frame, compressed bytes, or the raw
    /// payload when compression did not shrink it.
    stored: Vec<u8>,
    /// `Some((base_seq, depth))` when `stored` is a delta frame.
    delta: Option<(u64, u32)>,
    /// `Some((hash, meta))` when the stored bytes are a dedup candidate
    /// (an arena is attached and they clear the size floor). Commit
    /// interns it; on a verified hit the manifest gets a `@dup` reference
    /// entry instead of duplicate segment bytes.
    dup: Option<(u64, BlobMeta)>,
}

/// A group of checkpoints committed together.
///
/// [`WriteBatch::stage`] does the CPU work (compress + CRC) with no I/O;
/// [`WriteBatch::commit`] performs the batched I/O. See the module docs for
/// the exact ordering and crash-recovery guarantees. Dropping an uncommitted
/// batch discards it without side effects.
pub struct WriteBatch<'a> {
    store: &'a CheckpointStore,
    staged: Vec<Staged>,
    /// Per-block last payload staged *in this batch* — the delta base for
    /// the block's next stage before anything commits. Promoted into the
    /// store's write cache only when the batch commits.
    pending_bases: HashMap<String, DeltaBase>,
}

impl WriteBatch<'_> {
    /// Stages a checkpoint payload for `(block_id, seq)`. Compression,
    /// delta encoding, and CRC stamping happen now; nothing touches disk
    /// until [`WriteBatch::commit`]. Payloads that compression does not
    /// shrink are stored raw, which is what makes their reads zero-copy;
    /// payloads that differ only slightly from the block's previous
    /// version are stored as [`crate::delta`] frames (chain depth bounded
    /// by [`StoreOptions::delta_keyframe_interval`](super::StoreOptions)).
    /// Within one batch, earlier stages serve as delta bases for later
    /// stages of the same block — correct across a crash because commit
    /// appends them in stage order, so any durable manifest prefix
    /// contains a delta's base before the delta itself.
    pub fn stage(&mut self, block_id: &str, seq: u64, payload: &[u8]) {
        assert!(
            !block_id.contains(['\t', '\n', '/']),
            "block id {block_id:?} contains reserved characters"
        );
        let store = self.store;
        let crc = crc32(payload);
        let k = store.opts.delta_keyframe_interval;
        let delta_eligible = k > 0 && payload.len() as u64 >= store.opts.delta_min_bytes;

        // Back-off: a block whose payloads keep rewriting themselves (a
        // from-scratch training regime) stops paying the probe and the
        // base-cache memcpy after a few consecutive rejections, re-probing
        // periodically so a regime change resumes chaining.
        let probe = delta_eligible
            && (seq.is_multiple_of(DELTA_RETRY_PERIOD)
                || store
                    .delta_write
                    .rejects
                    .lock()
                    .get(block_id)
                    .is_none_or(|&r| r < DELTA_REJECT_THRESHOLD));

        let mut encoded: Option<(Vec<u8>, u64, u32)> = None;
        let mut base_found = false;
        if probe {
            // Strictly forward chains only: a re-put or out-of-order seq
            // takes the keyframe path (and a same-seq re-put is detected
            // at read time via the frame's base CRC). Base priority: this
            // batch's own stages, then the store-wide write cache, then —
            // when racing batches left both behind — the newest committed
            // version from the index.
            let base = self
                .pending_bases
                .get(block_id)
                .cloned()
                .or_else(|| store.delta_write.bases.lock().get(block_id).cloned())
                .filter(|b| b.seq < seq && b.depth + 1 < k)
                .or_else(|| store.delta_base_from_index(block_id, seq, k - 1));
            if let Some(b) = base {
                base_found = true;
                if let Some(frame) =
                    delta::encode(b.payload.as_ref(), payload, b.seq, b.crc, b.depth + 1)
                {
                    encoded = Some((frame, b.seq, b.depth + 1));
                }
            }
        }
        if base_found {
            let mut rejects = store.delta_write.rejects.lock();
            if encoded.is_some() {
                rejects.remove(block_id);
            } else {
                *rejects.entry(block_id.to_string()).or_insert(0) += 1;
            }
        }
        let (stored, raw_stored, delta) = arbitrate_stored(encoded, payload);
        let rec = SegmentIndexEntry {
            block_id: block_id.to_string(),
            seq,
            offset: 0,
            raw: payload.len() as u64,
            stored: stored.len() as u32,
            crc,
            raw_stored,
            delta_stored: delta.is_some(),
        };
        // Keying the *stored representation* (not the raw payload) lets an
        // identically re-recorded run dedup its delta frames too, not just
        // its keyframes — the same input stream arbitrates to the same
        // bytes.
        let dup = if stored.len() >= DEDUP_MIN_BYTES && store.dedup.read().is_some() {
            let meta = BlobMeta {
                stored_len: stored.len() as u64,
                // A raw-stored payload is its own stored form: its CRC is
                // already in hand.
                stored_crc: if raw_stored { crc } else { crc32(&stored) },
                raw_len: rec.raw,
                payload_crc: crc,
                flags: rec.flags(),
            };
            Some((DedupIndex::hash_of(&stored), meta))
        } else {
            None
        };
        if probe || delta.is_some() {
            self.pending_bases.insert(
                block_id.to_string(),
                DeltaBase {
                    seq,
                    depth: delta.map_or(0, |(_, d)| d),
                    crc,
                    payload: Bytes::copy_from_slice(payload),
                },
            );
        }
        self.staged.push(Staged {
            rec,
            stored,
            delta,
            dup,
        });
    }

    /// Checkpoints staged so far.
    pub fn len(&self) -> usize {
        self.staged.len()
    }

    /// True when nothing is staged.
    pub fn is_empty(&self) -> bool {
        self.staged.is_empty()
    }

    /// Commits the batch: payload data first (one buffered `write_all`
    /// appends every staged payload to the active segment), then one
    /// batched manifest append — write-ahead of the manifest entries means
    /// a crash leaves at worst dead bytes, never a manifest entry without
    /// data. Under [`Durability::GroupCommit`] this is where the
    /// once-per-batch fsyncs happen.
    ///
    /// The writer lock is held for the *whole* commit — segment append,
    /// manifest append, and index insert — so a concurrent [`compact`]
    /// (which takes the same lock) can never snapshot the index between a
    /// batch's data landing and its entries becoming visible, and then
    /// delete the segment the batch just wrote to.
    ///
    /// [`compact`]: CheckpointStore::compact
    pub fn commit(self) -> Result<Vec<CkptMeta>, StoreError> {
        self.store.ensure_writable()?;
        if self.staged.is_empty() {
            return Ok(Vec::new());
        }
        let mut span = flor_obs::span(flor_obs::Category::Commit, "commit");
        span.set_args(self.staged.len() as u64, 0);
        let t0 = flor_obs::clock::now_ns();
        let metas = self.commit_locked()?;
        flor_obs::histogram!("store.commit_ns").observe(flor_obs::clock::since_ns(t0));
        flor_obs::counter!("store.commits").inc();
        flor_obs::counter!("store.commit_entries").add(metas.len() as u64);
        Ok(metas)
    }

    fn commit_locked(self) -> Result<Vec<CkptMeta>, StoreError> {
        let store = self.store;
        let sync = store.opts.durability == Durability::GroupCommit;

        // Where each staged checkpoint landed — the payload bytes are
        // dropped as soon as they're copied into the batch buffer, so a
        // commit holds one copy of the batch, not two.
        let mut placed: Vec<(SegmentIndexEntry, Location)> = Vec::with_capacity(self.staged.len());
        let mut w = store.writer.lock();
        if w.is_none() {
            let id = store.next_seg.fetch_add(1, Ordering::Relaxed);
            let mut file = fs::OpenOptions::new()
                .create_new(true)
                .append(true)
                .open(store.segment_path(id))?;
            file.write_all(SEGMENT_MAGIC)?;
            *w = Some(ActiveSegment {
                id,
                file,
                len: SEGMENT_MAGIC.len() as u64,
                footer: Vec::new(),
            });
        }
        let active = w.as_mut().expect("active segment ensured above");
        let mut buf: Vec<u8> = Vec::with_capacity(
            self.staged
                .iter()
                .map(|s| s.stored.len() + s.rec.block_id.len() + ENTRY_HEADER_BYTES as usize)
                .sum(),
        );
        let mut recs: Vec<SegmentIndexEntry> = Vec::with_capacity(self.staged.len());
        let dedup = store.dedup.read().clone();
        let mut interned_any = false;
        for mut s in self.staged {
            // Dedup candidates first: on a verified hit (or a fresh
            // insert) the checkpoint becomes a `@dup` reference — no
            // segment bytes at all. A collision or arena I/O failure just
            // falls through to the private segment write (dedup is an
            // optimization, never a correctness dependency).
            if let (Some((hash, meta)), Some(idx)) = (&s.dup, dedup.as_ref()) {
                match idx.intern(*hash, *meta, &s.stored) {
                    Ok(outcome @ (Interned::Hit | Interned::Inserted)) => {
                        if outcome == Interned::Hit {
                            store.dedup_hits.fetch_add(1, Ordering::Relaxed);
                        }
                        interned_any = true;
                        let loc = Location::Dup {
                            hash: *hash,
                            delta: s.delta,
                        };
                        placed.push((s.rec, loc));
                        continue;
                    }
                    Ok(Interned::Collision) | Err(_) => {}
                }
            }
            // append_entry returns the payload offset within `buf`;
            // rebase it onto the segment file (the batch lands at the
            // current end of the active segment).
            s.rec.offset = active.len + append_entry(&mut buf, &s.rec, &s.stored);
            let loc = Location::Segment {
                seg: active.id,
                offset: s.rec.offset,
                len: s.rec.stored,
                raw_stored: s.rec.raw_stored,
                delta: s.delta,
            };
            recs.push(s.rec.clone());
            placed.push((s.rec, loc));
            // `s.stored` drops here — the payload now lives only in `buf`.
        }
        let write_result = active.file.write_all(&buf).and_then(|()| {
            if sync {
                active.file.sync_data()
            } else {
                Ok(())
            }
        });
        if let Err(e) = write_result {
            // A failed/partial O_APPEND write leaves the file's true end
            // unknown: `active.len` would be stale and every later offset
            // in this segment wrong. Abandon the segment — its manifested
            // prefix stays readable, the partial bytes are dead space, and
            // the next batch starts a fresh segment.
            *w = None;
            return Err(e.into());
        }
        // Only a fully-written batch advances the offsets and the pending
        // footer (a failed batch must not leave phantom footer entries).
        active.len += buf.len() as u64;
        active.footer.extend(recs);
        if active.len >= store.opts.segment_target_bytes {
            store.seal_locked(&mut w)?;
        }
        if sync {
            // One directory barrier covers the (possibly new) segment file;
            // errors propagate — commit must not claim durability it
            // didn't get.
            fs::File::open(store.seg_dir())?.sync_all()?;
        }

        // Single write_all for the whole batch: a crash mid-append tears at
        // most one line, and O_APPEND keeps concurrent batches line-atomic.
        let mut lines = String::new();
        for (rec, loc) in &placed {
            lines.push_str(&render_line(&rec.block_id, rec.seq, loc, rec.raw, rec.crc));
            lines.push('\n');
        }
        // Arena refcount ops must be durable before any manifest line that
        // references them — a crash may then over-count (leak a blob),
        // never leave a reference without its count.
        if interned_any {
            if let Some(idx) = dedup.as_ref() {
                idx.sync()?;
            }
        }
        store.manifest.append(&lines, sync)?;

        let mut metas = Vec::with_capacity(placed.len());
        for (rec, loc) in placed {
            metas.push(CkptMeta {
                block_id: rec.block_id.clone(),
                seq: rec.seq,
                stored_bytes: loc.charged_len(),
                raw_bytes: rec.raw,
                chain_depth: loc.delta_link().map_or(0, |(_, d)| d),
            });
            let entry = IndexEntry {
                loc,
                raw: rec.raw,
                crc: rec.crc,
            };
            store.index.insert(rec.block_id, rec.seq, entry);
        }
        store.delta_write.promote(self.pending_bases);
        Ok(metas)
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{drifting_payload, incompressible, tmpdir};
    use super::super::StoreOptions;
    use super::*;

    #[test]
    fn multiple_seqs_per_block() {
        let store = CheckpointStore::open(tmpdir("seqs")).unwrap();
        for seq in 0..5 {
            store
                .put("sb_0", seq, format!("payload{seq}").as_bytes())
                .unwrap();
        }
        assert_eq!(store.count("sb_0"), 5);
        assert_eq!(store.entries().last(), Some(&("sb_0".to_string(), 4)));
        assert_eq!(store.get("sb_0", 3).unwrap(), b"payload3");
    }

    #[test]
    fn byte_accounting() {
        let store = CheckpointStore::open(tmpdir("bytes")).unwrap();
        store.put("sb_0", 0, &vec![0u8; 100_000]).unwrap();
        assert_eq!(store.total_raw_bytes(), 100_000);
        // All zeros compress massively.
        assert!(store.total_stored_bytes() < 5_000);
        assert!(store.total_stored_bytes() > 0);
    }

    #[test]
    fn byte_accounting_survives_reopen_and_overwrite() {
        let dir = tmpdir("bytes-reopen");
        let (raw_before, stored_before) = {
            let store = CheckpointStore::open(&dir).unwrap();
            store.put("sb_0", 0, &vec![1u8; 10_000]).unwrap();
            store.put("sb_0", 1, &vec![2u8; 20_000]).unwrap();
            (store.total_raw_bytes(), store.total_stored_bytes())
        };
        assert_eq!(raw_before, 30_000);
        // Reopen recomputes the same totals from the manifest alone — no
        // per-checkpoint stat.
        let store = CheckpointStore::open(&dir).unwrap();
        assert_eq!(store.total_raw_bytes(), raw_before);
        assert_eq!(store.total_stored_bytes(), stored_before);
        // Overwriting a seq replaces its contribution instead of adding.
        store.put("sb_0", 1, &vec![3u8; 5_000]).unwrap();
        assert_eq!(store.total_raw_bytes(), 15_000);
    }

    #[test]
    fn batch_commit_is_atomic_in_the_index_and_readable() {
        let store = CheckpointStore::open(tmpdir("batch")).unwrap();
        let mut batch = store.batch();
        for seq in 0..10u64 {
            batch.stage("sb_0", seq, format!("payload-{seq}").as_bytes());
        }
        assert_eq!(batch.len(), 10);
        assert!(!store.contains("sb_0", 0), "stage does no I/O");
        let metas = batch.commit().unwrap();
        assert_eq!(metas.len(), 10);
        for seq in 0..10u64 {
            assert_eq!(
                store.get("sb_0", seq).unwrap(),
                format!("payload-{seq}").as_bytes()
            );
        }
        // Entire batch landed as one manifest append of whole lines.
        let manifest = fs::read_to_string(store.root().join("MANIFEST")).unwrap();
        assert_eq!(manifest.lines().count(), 10);
        assert!(manifest.ends_with('\n'));
        // And as one segment file.
        assert_eq!(store.stats().segments, 1);
    }

    #[test]
    fn dropped_batch_has_no_effect() {
        let store = CheckpointStore::open(tmpdir("batch-drop")).unwrap();
        let mut batch = store.batch();
        batch.stage("sb_0", 0, b"never committed");
        drop(batch);
        assert!(!store.contains("sb_0", 0));
        assert_eq!(store.total_raw_bytes(), 0);
    }

    #[test]
    fn overwrite_keeps_old_payload_readable_until_commit() {
        // A re-put appends the new payload and only then repoints the
        // index: the old payload stays readable right up until commit
        // returns, and no temp files survive.
        let dir = tmpdir("overwrite");
        let store = CheckpointStore::open(&dir).unwrap();
        store.put("sb_0", 0, &vec![1u8; 4000]).unwrap();
        let mut batch = store.batch();
        batch.stage("sb_0", 0, &vec![2u8; 4000]);
        // Staged but uncommitted: old content untouched.
        assert_eq!(store.get("sb_0", 0).unwrap(), vec![1u8; 4000]);
        batch.commit().unwrap();
        assert_eq!(store.get("sb_0", 0).unwrap(), vec![2u8; 4000]);
        let leftovers: Vec<_> = fs::read_dir(dir.join("seg"))
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|n| n.starts_with('.'))
            .collect();
        assert!(
            leftovers.is_empty(),
            "temp files left behind: {leftovers:?}"
        );
    }

    #[test]
    fn group_commit_durability_roundtrips() {
        let store = CheckpointStore::open_with(tmpdir("gc"), Durability::GroupCommit).unwrap();
        assert_eq!(store.durability(), Durability::GroupCommit);
        let mut batch = store.batch();
        for seq in 0..4u64 {
            batch.stage("sb_0", seq, &vec![seq as u8; 2000]);
        }
        batch.commit().unwrap();
        for seq in 0..4u64 {
            assert_eq!(store.get("sb_0", seq).unwrap(), vec![seq as u8; 2000]);
        }
    }

    #[test]
    fn concurrent_puts() {
        let store = std::sync::Arc::new(CheckpointStore::open(tmpdir("concurrent")).unwrap());
        let mut handles = Vec::new();
        for t in 0..4 {
            let store = store.clone();
            handles.push(std::thread::spawn(move || {
                for seq in 0..10 {
                    store
                        .put(&format!("sb_{t}"), seq, format!("{t}:{seq}").as_bytes())
                        .unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(store.entries().len(), 40);
        assert_eq!(store.get("sb_2", 9).unwrap(), b"2:9");
    }

    #[test]
    fn concurrent_batches_share_the_appender() {
        let dir = tmpdir("conc-batch");
        let store = std::sync::Arc::new(CheckpointStore::open(&dir).unwrap());
        let mut handles = Vec::new();
        for t in 0..4 {
            let store = store.clone();
            handles.push(std::thread::spawn(move || {
                let mut batch = store.batch();
                for seq in 0..8 {
                    batch.stage(&format!("sb_{t}"), seq, &vec![t as u8; 512]);
                }
                batch.commit().unwrap();
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        drop(store);
        // Every appended line is whole (no interleaving) and reloads clean.
        let store = CheckpointStore::open(&dir).unwrap();
        assert_eq!(store.entries().len(), 32);
        for t in 0..4u8 {
            assert_eq!(store.get(&format!("sb_{t}"), 7).unwrap(), vec![t; 512]);
        }
    }

    #[test]
    fn segments_roll_at_target_and_sealed_footers_index_them() {
        let dir = tmpdir("roll");
        // Delta off: the `seed | 1` fixture makes adjacent payloads
        // identical, which delta would collapse — this test is about
        // rolling, so keep every entry full-size.
        let opts = StoreOptions {
            segment_target_bytes: 4096,
            delta_keyframe_interval: 0,
            ..StoreOptions::default()
        };
        {
            let store = CheckpointStore::open_opts(&dir, opts).unwrap();
            for seq in 0..12u64 {
                store
                    .put("sb_0", seq, &incompressible(1024, seq as u32 + 1))
                    .unwrap();
            }
            let s = store.stats();
            assert!(s.segments >= 3, "expected several rolled segments: {s:?}");
        }
        // Dropping sealed the last active segment: every segment now has a
        // valid footer that indexes exactly its entries.
        let store = CheckpointStore::open_opts(&dir, opts).unwrap();
        let s = store.stats();
        assert_eq!(s.sealed_segments, s.segments, "{s:?}");
        let mut footer_keys = Vec::new();
        for entry in fs::read_dir(dir.join("seg")).unwrap() {
            let recs = super::super::segment::read_segment_footer(&entry.unwrap().path())
                .unwrap()
                .unwrap();
            for r in recs {
                footer_keys.push((r.block_id, r.seq));
            }
        }
        footer_keys.sort();
        assert_eq!(footer_keys, store.entries());
        for seq in 0..12u64 {
            assert_eq!(
                store.get_bytes("sb_0", seq).unwrap().as_ref(),
                &incompressible(1024, seq as u32 + 1)[..]
            );
        }
    }

    #[test]
    fn keyframe_interval_bounds_chain_depth() {
        let store = CheckpointStore::open_opts(
            tmpdir("delta-depth"),
            StoreOptions {
                delta_keyframe_interval: 4,
                ..StoreOptions::default()
            },
        )
        .unwrap();
        for seq in 0..12u64 {
            let meta = store
                .put("sb_0", seq, &drifting_payload(seq, 2048))
                .unwrap();
            assert_eq!(meta.chain_depth as u64, seq % 4, "seq {seq}");
        }
        let s = store.stats();
        assert_eq!(s.keyframe_entries, 3);
        assert_eq!(s.delta_entries, 9);
        assert_eq!(&s.chain_depth_hist[..4], &[3, 3, 3, 3]);
        for seq in 0..12u64 {
            assert_eq!(
                store.index.lookup("sb_0", seq).unwrap().loc.delta_link(),
                if seq % 4 == 0 {
                    None
                } else {
                    Some((seq - 1, (seq % 4) as u32))
                }
            );
        }
    }

    #[test]
    fn never_chaining_blocks_back_off_and_regime_changes_resume() {
        // A block whose versions rewrite themselves entirely must stop
        // paying the probe + base-cache copy after a few rejections…
        let store = CheckpointStore::open(tmpdir("delta-backoff")).unwrap();
        for seq in 1..6u64 {
            // Avoid retry seqs (multiples of DELTA_RETRY_PERIOD).
            store
                .put("sb_0", seq, &incompressible(4096, seq as u32 * 7 + 1))
                .unwrap();
        }
        assert!(
            *store.delta_write.rejects.lock().get("sb_0").unwrap() >= DELTA_REJECT_THRESHOLD,
            "rejections must accumulate"
        );
        // Back-off active: non-retry stages stop caching payloads.
        let cached_before = store.delta_write.bytes.load(Ordering::Relaxed);
        store.put("sb_0", 6, &incompressible(4096, 999)).unwrap();
        assert_eq!(
            store.delta_write.bytes.load(Ordering::Relaxed),
            cached_before,
            "backed-off stages must not copy payloads into the base cache"
        );
        assert_eq!(store.stats().delta_entries, 0);
        // …and resume chaining when the content regime changes: a retry
        // seq caches the first new-regime payload, the retry after that
        // chains against it and resets the streak, and dense chains
        // resume from there.
        let drift_base = drifting_payload(0, 1024);
        for seq in 8..24u64 {
            let mut p = drift_base.clone();
            p[seq as usize] ^= 1; // tiny per-version difference
            store.put("sb_0", seq, &p).unwrap();
        }
        let s = store.stats();
        assert!(
            s.delta_entries >= 6,
            "regime change must resume chaining: {s:?}"
        );
        for seq in 8..24u64 {
            let mut p = drift_base.clone();
            p[seq as usize] ^= 1;
            assert_eq!(store.get("sb_0", seq).unwrap(), p);
        }
    }

    #[test]
    fn delta_disabled_stores_keep_every_version_a_keyframe() {
        let store = CheckpointStore::open_opts(
            tmpdir("delta-off"),
            StoreOptions {
                delta_keyframe_interval: 0,
                ..StoreOptions::default()
            },
        )
        .unwrap();
        for seq in 0..6u64 {
            store
                .put("sb_0", seq, &drifting_payload(seq, 2048))
                .unwrap();
        }
        let s = store.stats();
        assert_eq!(s.delta_entries, 0);
        assert_eq!(s.keyframe_entries, 6);
        for seq in 0..6u64 {
            assert_eq!(store.get("sb_0", seq).unwrap(), drifting_payload(seq, 2048));
        }
    }

    #[test]
    fn tiny_payloads_never_chain() {
        let store = CheckpointStore::open(tmpdir("delta-tiny")).unwrap();
        for seq in 0..6u64 {
            store
                .put("sb_0", seq, format!("tiny-{}", seq % 2).as_bytes())
                .unwrap();
        }
        assert_eq!(store.stats().delta_entries, 0);
    }

    #[test]
    fn batch_internal_chains_commit_in_stage_order() {
        // Later stages in one batch delta against earlier stages of the
        // same batch; a crash-recovered prefix always contains a delta's
        // base before the delta (manifest lines land in stage order).
        let dir = tmpdir("delta-batch");
        let store = CheckpointStore::open(&dir).unwrap();
        let mut batch = store.batch();
        for seq in 0..6u64 {
            batch.stage("sb_0", seq, &drifting_payload(seq, 2048));
        }
        batch.commit().unwrap();
        assert!(store.stats().delta_entries >= 5, "{:?}", store.stats());
        for seq in 0..6u64 {
            assert_eq!(store.get("sb_0", seq).unwrap(), drifting_payload(seq, 2048));
        }
        // Every manifest prefix (cut at line granularity) reopens into a
        // store whose surviving chain entries all read back.
        let manifest_text = fs::read_to_string(dir.join("MANIFEST")).unwrap();
        let lines: Vec<&str> = manifest_text.lines().collect();
        for keep in 0..=lines.len() {
            let prefix_dir = tmpdir(&format!("delta-batch-prefix-{keep}"));
            fs::create_dir_all(&prefix_dir).unwrap();
            // Clone the segments, truncate the manifest to `keep` lines.
            let mut text = String::new();
            for l in &lines[..keep] {
                text.push_str(l);
                text.push('\n');
            }
            fs::write(prefix_dir.join("MANIFEST"), text).unwrap();
            fs::create_dir_all(prefix_dir.join("seg")).unwrap();
            for entry in fs::read_dir(dir.join("seg")).unwrap() {
                let entry = entry.unwrap();
                fs::copy(entry.path(), prefix_dir.join("seg").join(entry.file_name())).unwrap();
            }
            let prefix_store = CheckpointStore::open(&prefix_dir).unwrap();
            assert_eq!(prefix_store.entries().len(), keep, "prefix {keep}");
            for seq in 0..keep as u64 {
                assert_eq!(
                    prefix_store.get("sb_0", seq).unwrap(),
                    drifting_payload(seq, 2048),
                    "prefix {keep} seq {seq}"
                );
            }
        }
    }

    #[test]
    fn small_payloads_skip_dedup() {
        let dir = tmpdir("dedup-small");
        let store = CheckpointStore::open(&dir).unwrap();
        store.attach_dedup(tmpdir("dedup-small-arena")).unwrap();
        store
            .put("sb_0", 0, &incompressible(DEDUP_MIN_BYTES / 4, 3))
            .unwrap();
        let s = store.stats();
        assert_eq!(s.dedup_entries, 0, "{s:?}");
        assert_eq!(s.segment_entries, 1);
    }
}
