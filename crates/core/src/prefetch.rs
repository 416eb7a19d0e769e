//! Per-worker checkpoint prefetching for the replay hot path.
//!
//! A replay worker's restore schedule is fully known the moment its
//! [`WorkerPlan`](crate::parallel::WorkerPlan) is fixed: every main-loop
//! block restores once per initialization iteration, and once per work
//! iteration unless the block is probed. The [`Prefetcher`] walks that
//! schedule on a background thread, pulling each checkpoint through the
//! store's zero-copy [`get_bytes`](flor_chkpt::CheckpointStore::get_bytes)
//! path — so segment I/O (and decompression) overlaps with the
//! interpreter's own execution instead of serializing behind it, the
//! worker-thread analogue of the record phase's background materializer.
//!
//! Delta-chained checkpoints make the prefetcher pull *bases* ahead for
//! free: `get_bytes` resolves a chain entry by walking to its keyframe
//! (or to the store's per-block restore cache), so the background thread
//! absorbs the whole chain walk and leaves the restore cache warm — the
//! worker's later restores of deeper links in the same chain then pay a
//! single delta decode each, whether they hit the parked buffer or fall
//! through to a direct read.
//!
//! The restore path consumes buffers with [`Prefetcher::take`]; a miss
//! (not fetched yet, or the fetch failed) simply falls through to a direct
//! store read, which re-surfaces any error with full context. Fetched
//! buffers are refcounted [`Bytes`] slices of shared segment buffers, and
//! outstanding (fetched, not yet consumed) memory is capped so a worker
//! far behind its prefetcher can't balloon memory. The cap charges each
//! distinct *heap* backing allocation once at its full size
//! ([`Bytes::backing_len`]) — a tiny zero-copy slice pins its entire
//! segment buffer, so charging slice lengths would undercount retained
//! memory by orders of magnitude on fragmented stores. File-backed
//! (mmap'd) backings are the exception: their pages are clean page cache
//! the kernel can drop, so each slice charges only its own length
//! ([`Bytes::backing_is_file`]).

use flor_chkpt::{Bytes, CheckpointStore};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Cap on retained backing bytes of fetched-but-unconsumed payloads per
/// worker (each distinct backing allocation charged once, at full size).
pub const PREFETCH_BUDGET_BYTES: u64 = 64 << 20;

struct Shared {
    /// block → seq → fetched payload.
    ready: Mutex<HashMap<String, HashMap<u64, Bytes>>>,
    /// backing id → (outstanding slices of it, backing length). Charged
    /// into `outstanding` when the first slice arrives, released when the
    /// last is consumed.
    charged: Mutex<HashMap<usize, (usize, u64)>>,
    /// Keys the consumer already restored via a direct read before the
    /// fetch happened — skipped by the fetch thread so dead buffers can't
    /// eat the budget.
    skip: Mutex<HashMap<String, std::collections::HashSet<u64>>>,
    /// Backing bytes currently retained (backpressure signal).
    outstanding: AtomicU64,
    /// Cooperative cancellation (set on drop or early replay exit).
    stop: AtomicBool,
    /// Checkpoints fetched by the background thread.
    fetched: AtomicU64,
}

impl Shared {
    /// Parks a fetched payload for the consumer, charging its backing to
    /// the budget.
    fn park(&self, block: String, seq: u64, bytes: Bytes) {
        {
            let mut charged = self.charged.lock();
            let slot = charged.entry(bytes.backing_id()).or_insert((0, 0));
            // File-backed (mmap'd segment) slices charge their own
            // length: the backing pages are clean page cache the kernel
            // can reclaim, not anonymous heap pinned by the slice. Heap
            // backings still charge the full allocation once — a tiny
            // slice pins the whole buffer.
            let add = if bytes.backing_is_file() {
                bytes.len() as u64
            } else if slot.0 == 0 {
                bytes.backing_len() as u64
            } else {
                0
            };
            slot.0 += 1;
            slot.1 += add;
            if add > 0 {
                self.outstanding.fetch_add(add, Ordering::AcqRel);
            }
        }
        self.fetched.fetch_add(1, Ordering::Relaxed);
        self.ready
            .lock()
            .entry(block)
            .or_default()
            .insert(seq, bytes);
    }
}

/// Background checkpoint reader for one replay worker.
pub struct Prefetcher {
    shared: Arc<Shared>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Prefetcher {
    /// Spawns a prefetch thread that reads `keys` (the worker's restore
    /// schedule, in restore order) through `store.get_bytes`. Keys without
    /// a checkpoint and read errors are skipped — the consumer's fallback
    /// read owns error reporting.
    pub fn spawn(store: Arc<CheckpointStore>, keys: Vec<(String, u64)>) -> Prefetcher {
        let shared = Arc::new(Shared {
            ready: Mutex::new(HashMap::new()),
            charged: Mutex::new(HashMap::new()),
            skip: Mutex::new(HashMap::new()),
            outstanding: AtomicU64::new(0),
            stop: AtomicBool::new(false),
            fetched: AtomicU64::new(0),
        });
        let worker = shared.clone();
        let handle = std::thread::spawn(move || {
            for (block, seq) in keys {
                if worker.stop.load(Ordering::Acquire) {
                    return;
                }
                // Backpressure: stay within the byte budget, yielding the
                // same way the materializer's flush barrier does.
                while worker.outstanding.load(Ordering::Acquire) > PREFETCH_BUDGET_BYTES {
                    if worker.stop.load(Ordering::Acquire) {
                        return;
                    }
                    std::thread::sleep(std::time::Duration::from_micros(50));
                }
                let skipped = |w: &Shared| {
                    w.skip
                        .lock()
                        .get(&block)
                        .is_some_and(|seqs| seqs.contains(&seq))
                };
                if skipped(&worker) || !store.contains(&block, seq) {
                    continue;
                }
                if let Ok(bytes) = store.get_bytes(&block, seq) {
                    // Check-and-park atomically under the skip lock: the
                    // consumer may have restored this key directly while we
                    // were reading, and `mark_consumed` re-takes after its
                    // skip insert — together that closes every interleaving
                    // where a buffer nobody will take stays parked (and
                    // pinned against the budget).
                    let skip_guard = worker.skip.lock();
                    if skip_guard
                        .get(&block)
                        .is_some_and(|seqs| seqs.contains(&seq))
                    {
                        continue;
                    }
                    worker.park(block, seq, bytes);
                    drop(skip_guard);
                }
            }
        });
        Prefetcher {
            shared,
            handle: Some(handle),
        }
    }

    /// Removes and returns the prefetched payload for `(block, seq)`, if
    /// the background thread already fetched it.
    pub fn take(&self, block: &str, seq: u64) -> Option<Bytes> {
        let bytes = {
            let mut ready = self.shared.ready.lock();
            ready.get_mut(block)?.remove(&seq)?
        };
        let mut charged = self.shared.charged.lock();
        if let Some(slot) = charged.get_mut(&bytes.backing_id()) {
            slot.0 -= 1;
            let sub = if bytes.backing_is_file() {
                (bytes.len() as u64).min(slot.1)
            } else if slot.0 == 0 {
                slot.1
            } else {
                0
            };
            slot.1 -= sub;
            if slot.0 == 0 {
                // Any residue (e.g. rounding of per-slice file charges)
                // releases with the last slice.
                self.shared
                    .outstanding
                    .fetch_sub(sub + slot.1, Ordering::AcqRel);
                charged.remove(&bytes.backing_id());
            } else if sub > 0 {
                self.shared.outstanding.fetch_sub(sub, Ordering::AcqRel);
            }
        }
        Some(bytes)
    }

    /// Tells the prefetcher that `(block, seq)` was restored via a direct
    /// read (the interpreter ran ahead of the fetch thread): a parked
    /// buffer for it is released immediately, and a not-yet-started fetch
    /// is skipped — otherwise a consistently-ahead worker would fill the
    /// whole budget with buffers nobody will ever take, stalling the
    /// prefetcher for the rest of the replay.
    pub fn mark_consumed(&self, block: &str, seq: u64) {
        if self.take(block, seq).is_some() {
            return;
        }
        self.shared
            .skip
            .lock()
            .entry(block.to_string())
            .or_default()
            .insert(seq);
        // The fetch thread parks under the skip lock, so any park not
        // visible to the first take happened before the insert above —
        // this second take releases it. After the insert, no new park for
        // this key can happen.
        let _ = self.take(block, seq);
    }

    /// Checkpoints the background thread has fetched so far.
    pub fn fetched(&self) -> u64 {
        self.shared.fetched.load(Ordering::Relaxed)
    }

    /// Backing bytes currently retained by unconsumed prefetches.
    pub fn outstanding_backing_bytes(&self) -> u64 {
        self.shared.outstanding.load(Ordering::Acquire)
    }

    /// Blocks until the prefetch schedule is fully drained (test hook).
    pub fn join(&mut self) {
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Prefetcher {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::Release);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpstore(tag: &str) -> Arc<CheckpointStore> {
        let dir = std::env::temp_dir().join(format!(
            "flor-prefetch-test-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        Arc::new(CheckpointStore::open(dir).unwrap())
    }

    #[test]
    fn prefetches_scheduled_keys_and_serves_takes() {
        let store = tmpstore("basic");
        for seq in 0..6u64 {
            store
                .put("sb_0", seq, format!("payload-{seq}").as_bytes())
                .unwrap();
        }
        let keys: Vec<_> = (0..6u64).map(|s| ("sb_0".to_string(), s)).collect();
        let mut p = Prefetcher::spawn(store, keys);
        p.join();
        assert_eq!(p.fetched(), 6);
        for seq in 0..6u64 {
            let b = p.take("sb_0", seq).expect("prefetched");
            assert_eq!(b.as_ref(), format!("payload-{seq}").as_bytes());
        }
        // Consumed: a second take misses.
        assert!(p.take("sb_0", 0).is_none());
    }

    #[test]
    fn missing_and_unknown_keys_are_skipped() {
        let store = tmpstore("missing");
        store.put("sb_0", 0, b"only this").unwrap();
        let keys = vec![
            ("sb_0".to_string(), 0),
            ("sb_0".to_string(), 9),
            ("sb_other".to_string(), 0),
        ];
        let mut p = Prefetcher::spawn(store, keys);
        p.join();
        assert_eq!(p.fetched(), 1);
        assert!(p.take("sb_0", 0).is_some());
        assert!(p.take("sb_0", 9).is_none());
    }

    #[test]
    fn mark_consumed_skips_future_fetches_and_releases_parked_ones() {
        let store = tmpstore("consumed");
        for seq in 0..2u64 {
            store
                .put("sb_0", seq, format!("p{seq}").as_bytes())
                .unwrap();
        }
        let mut p = Prefetcher::spawn(
            store,
            vec![("sb_0".to_string(), 0), ("sb_0".to_string(), 1)],
        );
        // Consumer ran ahead on seq 0. Whether this lands before or after
        // the fetch, the end state is the same: nothing parked for it.
        p.mark_consumed("sb_0", 0);
        p.join();
        assert!(p.take("sb_0", 0).is_none(), "consumed key is not parked");
        // Seq 1 was fetched normally; the ran-ahead release path empties
        // the budget even without a take.
        p.mark_consumed("sb_0", 1);
        assert!(p.take("sb_0", 1).is_none());
        assert_eq!(p.outstanding_backing_bytes(), 0);
    }

    #[test]
    fn budget_charges_shared_backings_once_and_releases_on_last_take() {
        // Heap-backed slices (what the store hands out where mmap is
        // unavailable) pin their whole backing buffer, so the backing is
        // charged once at full size. Driven with hand-built views of one
        // heap allocation — the ledger only sees `Bytes`.
        use flor_chkpt::Buf;
        let mut p = Prefetcher::spawn(tmpstore("backing"), Vec::new());
        p.join();
        let backing = Bytes::from_vec(vec![7u8; 4 * 2048 + 64]);
        for seq in 0..4u64 {
            let mut view = backing.clone();
            view.advance(seq as usize * 2048);
            p.shared
                .park("sb_0".to_string(), seq, view.copy_to_bytes(2048));
        }
        let outstanding = p.outstanding_backing_bytes();
        // One shared backing, charged once — not 4 × slice length, and
        // crucially not 4 × backing length.
        assert_eq!(outstanding, backing.backing_len() as u64);
        for seq in 0..3u64 {
            p.take("sb_0", seq).unwrap();
            assert_eq!(
                p.outstanding_backing_bytes(),
                outstanding,
                "backing stays charged while any slice of it is unconsumed"
            );
        }
        p.take("sb_0", 3).unwrap();
        assert_eq!(
            p.outstanding_backing_bytes(),
            0,
            "last take releases the backing"
        );
    }

    #[test]
    fn file_backed_slices_charge_their_own_length() {
        // Default (mmap) reads: slices of a mapped segment charge slice
        // length, release incrementally, and never pin the whole mapping's
        // size against the budget.
        let store = tmpstore("backing-mmap");
        let payload = |seq: u64| -> Vec<u8> {
            let mut x = 0x9E37_79B9u32 ^ ((seq as u32 + 1) << 8);
            (0..2048)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 17;
                    x ^= x << 5;
                    x as u8
                })
                .collect()
        };
        for seq in 0..4u64 {
            store.put("sb_0", seq, &payload(seq)).unwrap();
        }
        let keys: Vec<_> = (0..4u64).map(|s| ("sb_0".to_string(), s)).collect();
        let mut p = Prefetcher::spawn(store.clone(), keys);
        p.join();
        let first = p.take("sb_0", 0).unwrap();
        if !first.backing_is_file() {
            return; // mmap unavailable on this platform: heap fallback
        }
        let before = p.outstanding_backing_bytes();
        p.take("sb_0", 1).unwrap();
        let after = p.outstanding_backing_bytes();
        assert!(after < before, "per-slice release: {before} -> {after}");
        p.take("sb_0", 2).unwrap();
        p.take("sb_0", 3).unwrap();
        assert_eq!(p.outstanding_backing_bytes(), 0);
    }

    #[test]
    fn delta_chains_prefetch_fully_resolved() {
        // A worker partition often starts mid-chain (weak init lands on an
        // anchor, work iterations walk forward). The prefetcher must hand
        // back fully reconstructed payloads, having done the chain walk —
        // keyframe read plus delta decodes — on the background thread.
        let store = tmpstore("delta-chain");
        let payload = |v: u64| -> Vec<u8> {
            (0..1024u32)
                .flat_map(|i| {
                    let f =
                        (i as f32 * 0.07).sin() + if i % 11 == 0 { v as f32 * 0.01 } else { 0.0 };
                    f.to_le_bytes()
                })
                .collect()
        };
        for seq in 0..8u64 {
            store.put("sb_0", seq, &payload(seq)).unwrap();
        }
        assert!(store.stats().delta_entries >= 6, "{:?}", store.stats());
        // Schedule starts mid-chain: seq 3's chain walks back to the
        // keyframe; 4..8 each resolve one link off the warm restore cache.
        let keys: Vec<_> = (3..8u64).map(|s| ("sb_0".to_string(), s)).collect();
        let mut p = Prefetcher::spawn(store.clone(), keys);
        p.join();
        assert_eq!(p.fetched(), 5);
        for seq in 3..8u64 {
            let b = p.take("sb_0", seq).expect("prefetched");
            assert_eq!(b.as_ref(), &payload(seq)[..], "seq {seq}");
        }
        let s = store.stats();
        assert!(s.delta_reads >= 5, "{s:?}");
        assert!(
            s.restore_cache_hits >= 4,
            "sequential prefetch must ride the restore cache: {s:?}"
        );
    }

    #[test]
    fn drop_cancels_the_background_thread() {
        let store = tmpstore("cancel");
        store.put("sb_0", 0, &vec![1u8; 1024]).unwrap();
        let keys: Vec<_> = (0..10_000u64).map(|_| ("sb_0".to_string(), 0)).collect();
        let p = Prefetcher::spawn(store, keys);
        drop(p); // must not hang
    }
}
