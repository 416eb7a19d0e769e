//! Per-worker checkpoint prefetching for the replay hot path.
//!
//! A replay worker's restore schedule is known the moment it claims a
//! range: every main-loop block restores once per initialization
//! iteration, and once per work iteration unless the block is probed. The
//! worker hands that schedule to its [`Prefetcher`] ([`Prefetcher::extend`],
//! range by range — so nothing is fetched for a range another worker
//! steals), and a background thread pulls each checkpoint through the
//! store's zero-copy [`get_bytes`](flor_chkpt::CheckpointStore::get_bytes)
//! path, so file I/O, CRC, decompression and chain decode overlap with the
//! interpreter's own execution instead of serializing behind it — the
//! worker-thread analogue of the record phase's background materializer.
//!
//! ## Each key is fetched once
//!
//! A scheduled key belongs to the fetch thread from `extend` until it is
//! parked: [`Prefetcher::take`] hands back a parked buffer, **waits** for
//! a key that is still pending or in flight (`prefetch.inflight_waits`
//! counts those), and returns `None` — the caller reads the store itself —
//! only for keys that were never scheduled, whose fetch failed (the direct
//! read re-surfaces the error with full context), or once the fetch
//! thread is gone. So store reads per replay equal restores. The fetch
//! thread reads through its own [`ReadCursor`] for the life of the
//! replay, in restore order, so every delta entry whose base it restored
//! before finds that base in its cursor and decodes exactly one link:
//! chain links decoded equal delta entries restored, however many other
//! workers or queries read the same store at once — no reader holds
//! another's bases. The cursor is freed when the fetch thread ends.
//!
//! Fetched buffers are refcounted [`Bytes`] slices of file mappings, and
//! outstanding (fetched, not yet consumed) memory is capped so a worker
//! far behind its prefetcher can't balloon memory; a consumer blocked in
//! `take` overrides the cap, since parking its key is what unblocks it.
//! The cap charges each distinct *heap* backing allocation once at its
//! full size ([`Bytes::backing_len`]) — a tiny zero-copy slice pins its
//! entire buffer, so charging slice lengths would undercount retained
//! memory by orders of magnitude on fragmented stores. File-backed
//! (mmap'd) backings are the exception: their pages are clean page cache
//! the kernel can drop, so each slice charges only its own length
//! ([`Bytes::backing_is_file`]).

use flor_chkpt::{Bytes, CheckpointStore, ReadCursor};
use parking_lot::{Mutex, MutexGuard};
use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Condvar, PoisonError};

/// Cap on retained backing bytes of fetched-but-unconsumed payloads per
/// worker (each distinct backing allocation charged once, at full size).
pub const PREFETCH_BUDGET_BYTES: u64 = 64 << 20;

#[derive(Default)]
struct State {
    /// Scheduled keys the fetch thread has not started, in restore order.
    pending: VecDeque<(String, u64)>,
    /// The key the fetch thread is reading right now.
    inflight: Option<(String, u64)>,
    /// block → seq → fetched payload.
    ready: HashMap<String, HashMap<u64, Bytes>>,
    /// backing id → (outstanding slices of it, bytes charged for it).
    /// Charged into `outstanding` when the first slice arrives, released
    /// when the last is consumed.
    charged: HashMap<usize, (usize, u64)>,
    /// Backing bytes currently retained (backpressure signal).
    outstanding: u64,
    /// The consumer is blocked in `take`: fetch regardless of the budget.
    demand: bool,
    /// No (further) fetches will happen: cancelled, dropped, or the fetch
    /// thread died. Releases every waiter.
    stop: bool,
    /// Checkpoints fetched by the background thread.
    fetched: u64,
}

impl State {
    fn scheduled(&self, block: &str, seq: u64) -> bool {
        let is = |(b, s): &(String, u64)| *s == seq && b == block;
        self.inflight.as_ref().is_some_and(is) || self.pending.iter().any(is)
    }

    /// Parks a fetched payload for the consumer, charging its backing to
    /// the budget.
    fn park(&mut self, block: String, seq: u64, bytes: Bytes) {
        let slot = self.charged.entry(bytes.backing_id()).or_insert((0, 0));
        // File-backed (mmap'd) slices charge their own length: the backing
        // pages are clean page cache the kernel can reclaim, not anonymous
        // heap pinned by the slice. Heap backings still charge the full
        // allocation once — a tiny slice pins the whole buffer.
        let add = if bytes.backing_is_file() {
            bytes.len() as u64
        } else if slot.0 == 0 {
            bytes.backing_len() as u64
        } else {
            0
        };
        slot.0 += 1;
        slot.1 += add;
        self.outstanding += add;
        self.fetched += 1;
        self.ready.entry(block).or_default().insert(seq, bytes);
    }

    /// Removes a parked payload, releasing its share of the budget.
    fn unpark(&mut self, block: &str, seq: u64) -> Option<Bytes> {
        let bytes = self.ready.get_mut(block)?.remove(&seq)?;
        if let Some(slot) = self.charged.get_mut(&bytes.backing_id()) {
            slot.0 -= 1;
            // The last slice of a backing takes whatever is still charged
            // for it (a heap backing's one full-size charge).
            let sub = if slot.0 == 0 {
                slot.1
            } else if bytes.backing_is_file() {
                (bytes.len() as u64).min(slot.1)
            } else {
                0
            };
            slot.1 -= sub;
            self.outstanding -= sub;
            if slot.0 == 0 {
                self.charged.remove(&bytes.backing_id());
            }
        }
        Some(bytes)
    }
}

struct Shared {
    state: Mutex<State>,
    /// Signalled on every state change either side may be waiting for.
    changed: Condvar,
}

impl Shared {
    fn wait<'a>(&self, guard: MutexGuard<'a, State>) -> MutexGuard<'a, State> {
        // Non-poisoning, like the lock itself: every update under it
        // leaves the state valid.
        self.changed
            .wait(guard)
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// The fetch thread: reads scheduled keys in order, one at a time.
    fn run(&self, fetch: impl Fn(&str, u64) -> Option<Bytes>) {
        // However this thread ends — cancelled, or unwinding out of
        // `fetch` — nothing more will be fetched: release every waiter.
        struct Gone<'a>(&'a Shared);
        impl Drop for Gone<'_> {
            fn drop(&mut self) {
                self.0.state.lock().stop = true;
                self.0.changed.notify_all();
            }
        }
        // Landing a fetch — park the payload (none on failure or unwind)
        // and clear `inflight` — is one step under the lock, so a waiter
        // never sees its key neither in flight nor parked.
        struct Landing<'a> {
            shared: &'a Shared,
            bytes: Option<Bytes>,
        }
        impl Drop for Landing<'_> {
            fn drop(&mut self) {
                let mut st = self.shared.state.lock();
                if let (Some((block, seq)), Some(bytes)) = (st.inflight.take(), self.bytes.take()) {
                    st.park(block, seq, bytes);
                }
                drop(st);
                self.shared.changed.notify_all();
            }
        }
        let _gone = Gone(self);
        loop {
            let mut st = self.state.lock();
            let (block, seq) = loop {
                if st.stop {
                    return;
                }
                if st.demand || st.outstanding <= PREFETCH_BUDGET_BYTES {
                    if let Some(key) = st.pending.pop_front() {
                        break key;
                    }
                }
                st = self.wait(st);
            };
            st.inflight = Some((block.clone(), seq));
            drop(st);
            let mut landing = Landing {
                shared: self,
                bytes: None,
            };
            landing.bytes = fetch(&block, seq);
        }
    }
}

/// Background checkpoint reader for one replay worker.
pub struct Prefetcher {
    shared: Arc<Shared>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Prefetcher {
    /// Spawns a prefetch thread that reads `keys` (the start of the
    /// worker's restore schedule, in restore order; see
    /// [`Prefetcher::extend`]) through one [`ReadCursor`] it owns. Keys
    /// without a checkpoint and read errors park nothing — the consumer's
    /// own read owns error reporting.
    pub fn spawn(store: Arc<CheckpointStore>, keys: Vec<(String, u64)>) -> Prefetcher {
        let cursor = RefCell::new(ReadCursor::default());
        Self::spawn_with(
            move |block, seq| {
                store
                    .contains(block, seq)
                    .then(|| cursor.borrow_mut().get_bytes(&store, block, seq).ok())
                    .flatten()
            },
            keys,
        )
    }

    /// [`Prefetcher::spawn`] over any fetch function (tests substitute
    /// ones that block or fail on cue).
    fn spawn_with(
        fetch: impl Fn(&str, u64) -> Option<Bytes> + Send + 'static,
        keys: Vec<(String, u64)>,
    ) -> Prefetcher {
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                pending: keys.into(),
                ..State::default()
            }),
            changed: Condvar::new(),
        });
        let worker = shared.clone();
        let handle = std::thread::spawn(move || worker.run(fetch));
        Prefetcher {
            shared,
            handle: Some(handle),
        }
    }

    /// Appends `keys` to the schedule, in restore order. The consumer must
    /// take every key it schedules (or drop the prefetcher): a scheduled
    /// key is read by the fetch thread and by nobody else.
    pub fn extend(&self, keys: Vec<(String, u64)>) {
        self.shared.state.lock().pending.extend(keys);
        self.shared.changed.notify_all();
    }

    /// Removes and returns the payload for `(block, seq)`, waiting for it
    /// while the key is scheduled but not yet parked. `None` means the
    /// fetch thread does not have and will not get this key — read the
    /// store directly.
    pub fn take(&self, block: &str, seq: u64) -> Option<Bytes> {
        let mut st = self.shared.state.lock();
        let mut waited = false;
        let taken = loop {
            if let Some(bytes) = st.unpark(block, seq) {
                break Some(bytes);
            }
            if st.stop || !st.scheduled(block, seq) {
                break None;
            }
            if !waited {
                waited = true;
                flor_obs::counter!("prefetch.inflight_waits").inc();
            }
            st.demand = true;
            self.shared.changed.notify_all();
            st = self.shared.wait(st);
        };
        st.demand = false;
        drop(st);
        // Budget released: the fetch thread may be waiting on it.
        self.shared.changed.notify_all();
        taken
    }

    /// Stops fetching and releases a consumer blocked in
    /// [`Prefetcher::take`] (its key, if still in flight, lands unclaimed).
    fn cancel(&self) {
        self.shared.state.lock().stop = true;
        self.shared.changed.notify_all();
    }

    /// Checkpoints the background thread has fetched so far.
    pub fn fetched(&self) -> u64 {
        self.shared.state.lock().fetched
    }

    /// Backing bytes currently retained by unconsumed prefetches.
    pub fn outstanding_backing_bytes(&self) -> u64 {
        self.shared.state.lock().outstanding
    }

    /// Blocks until everything scheduled so far is parked or has failed
    /// (test hook; never returns while the budget stalls the thread).
    pub fn drain(&self) {
        let mut st = self.shared.state.lock();
        while !st.stop && (st.inflight.is_some() || !st.pending.is_empty()) {
            st = self.shared.wait(st);
        }
    }
}

impl Drop for Prefetcher {
    fn drop(&mut self) {
        self.cancel();
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    fn tmpstore(tag: &str) -> Arc<CheckpointStore> {
        let dir = std::env::temp_dir().join(format!(
            "flor-prefetch-test-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        Arc::new(CheckpointStore::open(dir).unwrap())
    }

    fn keys(block: &str, seqs: std::ops::Range<u64>) -> Vec<(String, u64)> {
        seqs.map(|s| (block.to_string(), s)).collect()
    }

    /// A prefetcher whose fetch of each key announces itself on `started`
    /// and then holds the key in flight until `verdicts` says how it ends
    /// (`Some(len)`: lands a payload of that length; `None`: fails; a
    /// dropped sender: panics).
    fn gated(
        keys: Vec<(String, u64)>,
    ) -> (Prefetcher, mpsc::Receiver<u64>, mpsc::Sender<Option<usize>>) {
        let (started_tx, started) = mpsc::channel();
        let (verdicts, verdict_rx) = mpsc::channel::<Option<usize>>();
        let verdict_rx = std::sync::Mutex::new(verdict_rx);
        let p = Prefetcher::spawn_with(
            move |_, seq| {
                started_tx.send(seq).unwrap();
                let verdict = verdict_rx.lock().unwrap().recv().expect("gate dropped");
                verdict.map(|len| Bytes::from_vec(vec![seq as u8; len]))
            },
            keys,
        );
        (p, started, verdicts)
    }

    /// Spins (yielding, no sleeps) until the consumer is parked in `take`.
    fn until_consumer_waits(p: &Prefetcher) {
        while !p.shared.state.lock().demand {
            std::thread::yield_now();
        }
    }

    #[test]
    fn prefetches_scheduled_keys_and_serves_takes() {
        let store = tmpstore("basic");
        for seq in 0..6u64 {
            store
                .put("sb_0", seq, format!("payload-{seq}").as_bytes())
                .unwrap();
        }
        let reads_before = store.stats().reads;
        let p = Prefetcher::spawn(store.clone(), keys("sb_0", 0..4));
        // The schedule grows range by range.
        p.extend(keys("sb_0", 4..6));
        p.drain();
        assert_eq!(p.fetched(), 6);
        for seq in 0..6u64 {
            let b = p.take("sb_0", seq).expect("prefetched");
            assert_eq!(b.as_ref(), format!("payload-{seq}").as_bytes());
        }
        // Consumed: a second take misses (and does not wait).
        assert!(p.take("sb_0", 0).is_none());
        assert_eq!(store.stats().reads - reads_before, 6, "one read per key");
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
        let p = Prefetcher::spawn(store, keys);
        p.drain();
        assert_eq!(p.fetched(), 1);
        assert!(p.take("sb_0", 0).is_some());
        assert!(p.take("sb_0", 9).is_none());
    }

    #[test]
    fn take_waits_for_a_key_in_flight_or_still_pending() {
        let (p, started, verdicts) = gated(keys("sb_0", 0..2));
        assert_eq!(started.recv().unwrap(), 0, "seq 0 is in flight");
        std::thread::scope(|s| {
            // Seq 1 is still pending behind it: the consumer must wait for
            // the fetch thread to get there, not read it itself.
            let consumer = s.spawn(|| p.take("sb_0", 1));
            until_consumer_waits(&p);
            verdicts.send(Some(3)).unwrap();
            assert_eq!(started.recv().unwrap(), 1);
            verdicts.send(Some(5)).unwrap();
            let got = consumer.join().unwrap().expect("waited for the fetch");
            assert_eq!(got.as_ref(), &[1u8; 5][..]);
        });
        assert_eq!(p.take("sb_0", 0).unwrap().len(), 3);
        assert_eq!(p.fetched(), 2);
    }

    #[test]
    fn a_failed_fetch_releases_its_waiter_to_a_direct_read() {
        let (p, started, verdicts) = gated(keys("sb_0", 0..1));
        started.recv().unwrap();
        std::thread::scope(|s| {
            let consumer = s.spawn(|| p.take("sb_0", 0));
            until_consumer_waits(&p);
            verdicts.send(None).unwrap();
            assert!(consumer.join().unwrap().is_none());
        });
        assert_eq!(p.fetched(), 0);
    }

    #[test]
    fn cancel_releases_a_waiter_while_its_key_is_still_in_flight() {
        let (p, started, verdicts) = gated(keys("sb_0", 0..1));
        started.recv().unwrap();
        std::thread::scope(|s| {
            let consumer = s.spawn(|| p.take("sb_0", 0));
            until_consumer_waits(&p);
            p.cancel();
            assert!(consumer.join().unwrap().is_none());
        });
        // The fetch is still blocked; let it land so drop can join.
        verdicts.send(Some(1)).unwrap();
    }

    #[test]
    fn a_fetch_thread_that_dies_releases_its_waiter() {
        let (p, started, verdicts) = gated(keys("sb_0", 0..2));
        started.recv().unwrap();
        std::thread::scope(|s| {
            let consumer = s.spawn(|| p.take("sb_0", 1));
            until_consumer_waits(&p);
            drop(verdicts); // the gated fetch panics
            assert!(consumer.join().unwrap().is_none());
        });
        assert!(p.take("sb_0", 0).is_none(), "nothing landed");
    }

    #[test]
    fn a_waiting_consumer_overrides_the_budget() {
        // Something parked and never taken (a block its iteration skipped)
        // may hold the budget; the key the consumer is blocked on must be
        // fetched anyway, or the two would wait on each other forever.
        let store = tmpstore("demand");
        store.put("sb_0", 0, b"wanted").unwrap();
        let p = Prefetcher::spawn(store, Vec::new());
        let hog = Bytes::from_vec(vec![0u8; PREFETCH_BUDGET_BYTES as usize + 1]);
        p.shared.state.lock().park("sb_stale".to_string(), 0, hog);
        p.extend(keys("sb_0", 0..1));
        assert_eq!(p.take("sb_0", 0).unwrap().as_ref(), b"wanted");
    }

    #[test]
    fn budget_charges_shared_backings_once_and_releases_on_last_take() {
        // Heap-backed slices (what the store hands out where mmap is
        // unavailable) pin their whole backing buffer, so the backing is
        // charged once at full size. Driven with hand-built views of one
        // heap allocation — the ledger only sees `Bytes`.
        use flor_chkpt::Buf;
        let p = Prefetcher::spawn(tmpstore("backing"), Vec::new());
        let backing = Bytes::from_vec(vec![7u8; 4 * 2048 + 64]);
        for seq in 0..4u64 {
            let mut view = backing.clone();
            view.advance(seq as usize * 2048);
            p.shared
                .state
                .lock()
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
        let p = Prefetcher::spawn(store.clone(), keys("sb_0", 0..4));
        p.drain();
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
    fn delta_chains_prefetch_fully_resolved_one_link_per_entry() {
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
        // keyframe; 4..8 each resolve one link off the fetch thread's
        // cursor, because one thread reads them in order.
        let before = store.stats();
        let p = Prefetcher::spawn(store.clone(), keys("sb_0", 3..8));
        p.drain();
        assert_eq!(p.fetched(), 5);
        for seq in 3..8u64 {
            let b = p.take("sb_0", seq).expect("prefetched");
            assert_eq!(b.as_ref(), &payload(seq)[..], "seq {seq}");
        }
        let s = store.stats();
        assert_eq!(s.delta_reads - before.delta_reads, 5, "{s:?}");
        assert_eq!(s.restore_cache_hits - before.restore_cache_hits, 4, "{s:?}");
        assert_eq!(
            s.chain_links_resolved - before.chain_links_resolved,
            3 + 4,
            "seq 3 walks its three links, every later entry exactly one: {s:?}"
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
