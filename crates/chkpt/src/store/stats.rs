//! Store introspection: the counters behind `flor store stats [--json]`
//! and the registry surface.

use super::manifest::Location;
use super::segment::{
    read_trailer_footer_len, scan_segment_dir, ENTRY_HEADER_BYTES, SEGMENT_MAGIC, TRAILER_BYTES,
};
use super::CheckpointStore;
use std::sync::atomic::Ordering;

/// Depth buckets in [`StoreStats::chain_depth_hist`] (deeper chains land
/// in the last bucket).
pub(crate) const CHAIN_DEPTH_BUCKETS: usize = 16;

/// Aggregate counters for `flor store stats` and the registry surface.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Live checkpoints in the index.
    pub entries: u64,
    /// Live checkpoints stored in this store's segments.
    pub segment_entries: u64,
    /// Segment files on disk.
    pub segments: u64,
    /// Segments with a valid footer trailer (sealed).
    pub sealed_segments: u64,
    /// Total bytes of all segment files.
    pub segment_disk_bytes: u64,
    /// Stored payload bytes of live segment entries.
    pub(crate) live_segment_bytes: u64,
    /// Estimated reclaimable segment bytes (superseded payloads and torn
    /// tails; segment/entry framing is accounted as live).
    pub dead_segment_bytes: u64,
    /// Total uncompressed bytes across live checkpoints.
    pub raw_bytes: u64,
    /// Total stored payload bytes across live checkpoints.
    pub stored_bytes: u64,
    /// `get`/`get_bytes` calls served.
    pub reads: u64,
    /// Reads satisfied by a zero-copy slice of a file mapping (raw-stored
    /// entries, in a segment or a dedup blob).
    pub zero_copy_reads: u64,
    /// Segment buffer cache hits.
    pub segment_cache_hits: u64,
    /// Segment buffer cache misses (one segment load each).
    pub segment_cache_misses: u64,
    /// Compactions completed on this handle.
    pub compactions: u64,
    /// Disk bytes reclaimed by those compactions.
    pub compaction_reclaimed_bytes: u64,
    /// Live checkpoints stored as delta frames.
    pub delta_entries: u64,
    /// Live checkpoints stored as full keyframes (chain depth 0).
    pub keyframe_entries: u64,
    /// Live entries per chain depth (bucket 0 = keyframes; depths past
    /// the last bucket clamp into it).
    pub chain_depth_hist: [u64; CHAIN_DEPTH_BUCKETS],
    /// Reads that resolved a delta entry.
    pub delta_reads: u64,
    /// Chain links decoded across all delta reads (frames applied).
    pub chain_links_resolved: u64,
    /// Chain-base resolutions served by the reading cursor's last payload
    /// of the block ([`super::ReadCursor`]) instead of a recursive decode.
    pub restore_cache_hits: u64,
    /// Live checkpoints stored as `@dup` references into the shared arena.
    pub dedup_entries: u64,
    /// Stored bytes of the distinct arena blobs those references point at
    /// (shared with every other store referencing the same blobs, which is
    /// why `stored_bytes` leaves them out).
    pub dedup_referenced_bytes: u64,
    /// Stages that resolved to an already-present dedup blob.
    pub dedup_hits: u64,
    /// Content-hash checks of dedup blobs by reads through the attached
    /// arena in this process: one per blob, however often it is read.
    pub dedup_hash_verifies: u64,
    /// Segment buffers established via mmap.
    pub mmap_faults: u64,
    /// Segments and dedup blobs read into heap because mapping was
    /// unsupported or refused (0 wherever the mmap backend works).
    pub mmap_fallbacks: u64,
}

impl StoreStats {
    /// Compression ratio: raw bytes over stored bytes (> 1 means the
    /// store shrank the data; 1.0 when nothing is stored).
    pub fn compression_ratio(&self) -> f64 {
        if self.stored_bytes == 0 {
            1.0
        } else {
            self.raw_bytes as f64 / self.stored_bytes as f64
        }
    }

    /// Every scalar counter as `(name, value)`, in presentation order.
    /// Both [`StoreStats::to_json`] and the CLI's pretty printer iterate
    /// this list, so the two surfaces cannot drift.
    pub fn fields(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("entries", self.entries),
            ("segment_entries", self.segment_entries),
            ("segments", self.segments),
            ("sealed_segments", self.sealed_segments),
            ("segment_disk_bytes", self.segment_disk_bytes),
            ("live_segment_bytes", self.live_segment_bytes),
            ("dead_segment_bytes", self.dead_segment_bytes),
            ("raw_bytes", self.raw_bytes),
            ("stored_bytes", self.stored_bytes),
            ("reads", self.reads),
            ("zero_copy_reads", self.zero_copy_reads),
            ("segment_cache_hits", self.segment_cache_hits),
            ("segment_cache_misses", self.segment_cache_misses),
            ("compactions", self.compactions),
            (
                "compaction_reclaimed_bytes",
                self.compaction_reclaimed_bytes,
            ),
            ("delta_entries", self.delta_entries),
            ("keyframe_entries", self.keyframe_entries),
            ("delta_reads", self.delta_reads),
            ("chain_links_resolved", self.chain_links_resolved),
            ("restore_cache_hits", self.restore_cache_hits),
            ("dedup_entries", self.dedup_entries),
            ("dedup_referenced_bytes", self.dedup_referenced_bytes),
            ("dedup_hits", self.dedup_hits),
            ("dedup_hash_verifies", self.dedup_hash_verifies),
            ("mmap_faults", self.mmap_faults),
            ("mmap_fallbacks", self.mmap_fallbacks),
        ]
    }

    /// Serializes through the shared [`flor_obs::json::JsonWriter`] — the
    /// payload of `flor store stats --json`.
    pub fn to_json(&self) -> String {
        let mut w = flor_obs::json::JsonWriter::new();
        w.begin_obj();
        for (name, v) in self.fields() {
            w.field_u64(name, v);
        }
        w.field_f64("compression_ratio", self.compression_ratio());
        w.key("chain_depth_hist");
        w.begin_arr();
        for b in &self.chain_depth_hist {
            w.u64_val(*b);
        }
        w.end_arr();
        w.end_obj();
        w.finish()
    }
}

impl CheckpointStore {
    /// Aggregate storage-engine counters (segments, dead bytes, read/cache
    /// counters, compactions). Walks the index and stats segment files —
    /// cheap (segments are few), but not O(1); intended for `flor store
    /// stats` and operator surfaces, not hot paths.
    pub fn stats(&self) -> StoreStats {
        let mut s = StoreStats {
            raw_bytes: self.total_raw_bytes(),
            stored_bytes: self.total_stored_bytes(),
            reads: self.reads.reads.load(Ordering::Relaxed),
            zero_copy_reads: self.reads.zero_copy.load(Ordering::Relaxed),
            segment_cache_hits: self.pool.hits.load(Ordering::Relaxed),
            segment_cache_misses: self.pool.misses.load(Ordering::Relaxed),
            compactions: self.gc.runs.load(Ordering::Relaxed),
            compaction_reclaimed_bytes: self.gc.reclaimed.load(Ordering::Relaxed),
            delta_reads: self.reads.delta_reads.load(Ordering::Relaxed),
            chain_links_resolved: self.reads.chain_links.load(Ordering::Relaxed),
            restore_cache_hits: self.reads.restore_cache_hits.load(Ordering::Relaxed),
            dedup_referenced_bytes: self.dedup_referenced_bytes(),
            dedup_hits: self.dedup_hits.load(Ordering::Relaxed),
            dedup_hash_verifies: self
                .dedup
                .read()
                .as_ref()
                .map_or(0, |arena| arena.hash_verifies()),
            mmap_faults: self.pool.mmap_faults.load(Ordering::Relaxed),
            mmap_fallbacks: self.pool.mmap_fallbacks.load(Ordering::Relaxed),
            ..StoreStats::default()
        };
        // Live framing overhead counts as live when estimating dead bytes.
        let mut live_overhead = 0u64;
        self.index.for_each(|block, _, e| {
            s.entries += 1;
            match &e.loc {
                Location::Segment { .. } => {
                    s.segment_entries += 1;
                    s.live_segment_bytes += e.loc.charged_len();
                    live_overhead += ENTRY_HEADER_BYTES + block.len() as u64;
                }
                Location::Dup { .. } => s.dedup_entries += 1,
            }
            match e.loc.delta_link() {
                Some((_, depth)) => {
                    s.delta_entries += 1;
                    s.chain_depth_hist[(depth as usize).min(CHAIN_DEPTH_BUCKETS - 1)] += 1;
                }
                None => {
                    s.keyframe_entries += 1;
                    s.chain_depth_hist[0] += 1;
                }
            }
        });
        let local = scan_segment_dir(&self.seg_dir()).unwrap_or_default();
        for (id, len) in local.segments {
            s.segments += 1;
            s.segment_disk_bytes += len;
            live_overhead += SEGMENT_MAGIC.len() as u64;
            // Sealed? Check the trailer magic and charge the footer as
            // live framing.
            if let Ok(Some(footer_len)) = read_trailer_footer_len(&self.segment_path(id), len) {
                s.sealed_segments += 1;
                live_overhead += footer_len + TRAILER_BYTES;
            }
        }
        s.dead_segment_bytes = s
            .segment_disk_bytes
            .saturating_sub(s.live_segment_bytes + live_overhead);
        s
    }
}
