//! The in-memory `(block, seq)` index: 16 read-write-locked shards with
//! borrowed-key lookups — no allocation and no global lock on the read
//! hot path — plus O(1) running byte totals.

use super::manifest::Location;
use parking_lot::RwLock;
use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};

/// Index shards; reads lock exactly one, with no allocation.
const SHARDS: usize = 16;

/// Index entry for one stored checkpoint.
#[derive(Debug, Clone)]
pub(crate) struct IndexEntry {
    pub(crate) loc: Location,
    /// Uncompressed payload length.
    pub(crate) raw: u64,
    /// CRC32 of the uncompressed payload.
    pub(crate) crc: u32,
}

/// block → seq → entry; one per shard.
type BlockMap = HashMap<String, BTreeMap<u64, IndexEntry>>;

pub(crate) struct Index {
    shards: Vec<RwLock<BlockMap>>,
    /// Running totals, maintained on insert so the accessors are O(1).
    stored_total: AtomicU64,
    raw_total: AtomicU64,
}

impl Index {
    pub(crate) fn new() -> Index {
        Index {
            shards: (0..SHARDS).map(|_| RwLock::new(BlockMap::new())).collect(),
            stored_total: AtomicU64::new(0),
            raw_total: AtomicU64::new(0),
        }
    }

    fn shard(&self, block: &str) -> &RwLock<BlockMap> {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        block.hash(&mut h);
        &self.shards[(h.finish() as usize) % SHARDS]
    }

    /// Inserts an entry, maintaining the byte totals (a replaced entry's
    /// contribution is subtracted).
    pub(crate) fn insert(&self, block: String, seq: u64, entry: IndexEntry) {
        self.raw_total.fetch_add(entry.raw, Ordering::Relaxed);
        self.stored_total
            .fetch_add(entry.loc.charged_len(), Ordering::Relaxed);
        let shard = self.shard(&block);
        let old = shard.write().entry(block).or_default().insert(seq, entry);
        if let Some(old) = old {
            self.raw_total.fetch_sub(old.raw, Ordering::Relaxed);
            self.stored_total
                .fetch_sub(old.loc.charged_len(), Ordering::Relaxed);
        }
    }

    /// Runs `f` on the block's seq map under the shard's read lock
    /// (borrowed-key lookup: no allocation while the lock is held).
    fn with_block<T>(
        &self,
        block: &str,
        f: impl FnOnce(&BTreeMap<u64, IndexEntry>) -> T,
    ) -> Option<T> {
        self.shard(block).read().get(block).map(f)
    }

    pub(crate) fn lookup(&self, block: &str, seq: u64) -> Option<IndexEntry> {
        self.with_block(block, |m| m.get(&seq).cloned())?
    }

    pub(crate) fn contains(&self, block: &str, seq: u64) -> bool {
        self.with_block(block, |m| m.contains_key(&seq)) == Some(true)
    }

    pub(crate) fn count(&self, block: &str) -> u64 {
        self.with_block(block, |m| m.len() as u64).unwrap_or(0)
    }

    pub(crate) fn latest_seq(&self, block: &str) -> Option<u64> {
        self.with_block(block, |m| m.keys().next_back().copied())?
    }

    /// The newest entry of `block` strictly below `before_seq`.
    pub(crate) fn newest_before(&self, block: &str, before_seq: u64) -> Option<(u64, IndexEntry)> {
        self.with_block(block, |m| {
            m.range(..before_seq)
                .next_back()
                .map(|(seq, e)| (*seq, e.clone()))
        })?
    }

    /// Repoints one entry at a rewritten location (compaction), keeping
    /// the stored-byte total truthful when re-encoding changed its size.
    pub(crate) fn relocate(&self, block: &str, seq: u64, loc: Location) {
        let mut shard = self.shard(block).write();
        if let Some(e) = shard.get_mut(block).and_then(|seqs| seqs.get_mut(&seq)) {
            self.stored_total
                .fetch_add(loc.charged_len(), Ordering::Relaxed);
            self.stored_total
                .fetch_sub(e.loc.charged_len(), Ordering::Relaxed);
            e.loc = loc;
        }
    }

    /// Visits every live entry (shard by shard, unordered).
    pub(crate) fn for_each(&self, mut f: impl FnMut(&str, u64, &IndexEntry)) {
        for shard in &self.shards {
            for (block, seqs) in shard.read().iter() {
                for (seq, e) in seqs {
                    f(block, *seq, e);
                }
            }
        }
    }

    /// All live entries, sorted by (block, seq), with their index data.
    pub(crate) fn sorted(&self) -> Vec<(String, u64, IndexEntry)> {
        let mut all = Vec::new();
        self.for_each(|block, seq, e| all.push((block.to_string(), seq, e.clone())));
        all.sort_by(|a, b| (a.0.as_str(), a.1).cmp(&(b.0.as_str(), b.1)));
        all
    }

    pub(crate) fn stored_bytes(&self) -> u64 {
        self.stored_total.load(Ordering::Relaxed)
    }

    pub(crate) fn raw_bytes(&self) -> u64 {
        self.raw_total.load(Ordering::Relaxed)
    }
}
