//! Content-addressed caching of hindsight query results.
//!
//! A query is identified by the run it targets (id + generation + recorded
//! source version) and the probed source submitted — the cache key is a
//! 64-bit FNV-1a over that tuple, so repeated queries from many users hit
//! a single materialized file and are served without replaying anything.
//!
//! Each cache file carries its own CRC and entry count; a corrupt or torn
//! file reads as a **miss** (and is removed), never as a wrong answer.
//! That is also why a put does not fsync: the write is temp + rename, so
//! readers never see a partial entry, and what a crash can leave behind —
//! an empty or short file — is a miss the next query simply recomputes.

use flor_chkpt::store::crc32;
use flor_core::logstream::{LogEntry, LogStream};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// A materialized, cacheable query result.
#[derive(Debug, Clone, PartialEq)]
pub struct CachedResult {
    /// Probes the source diff detected.
    pub probes: u64,
    /// The materialized hindsight log stream, record-ordered.
    pub log: Vec<LogEntry>,
}

/// Content address of a query: `(run_id, generation, source_version,
/// probed_source)` → 16-hex-digit key. Fields are joined with a 0x1F
/// separator before hashing so `("ab","c")` and `("a","bc")` differ.
pub fn query_key(
    run_id: &str,
    generation: u64,
    source_version: &str,
    probed_source: &str,
) -> String {
    let mut buf = Vec::with_capacity(probed_source.len() + 64);
    for part in [
        run_id,
        &generation.to_string(),
        source_version,
        probed_source,
    ] {
        buf.extend_from_slice(part.as_bytes());
        buf.push(0x1f);
    }
    format!("{:016x}", flor_core::record::fnv1a64(&buf))
}

/// Content address of a *slice class* of queries: `(run_id, generation,
/// source_version, slice fingerprint)` → `"s"` + 16 hex digits. The
/// fingerprint ([`flor_core::replay::slice_fingerprint`]) hashes the
/// canonical print of the probed source's sliced instrumented program, so
/// textually different probes that slice to the same live cone share one
/// entry — the cross-query memo behind incremental replay. The `"s"`
/// prefix keeps these keys disjoint from the 16-hex raw-text keys of
/// [`query_key`] inside one cache directory.
pub fn slice_key(run_id: &str, generation: u64, source_version: &str, fingerprint: u64) -> String {
    let mut buf = Vec::with_capacity(64);
    for part in [
        run_id,
        &generation.to_string(),
        source_version,
        &format!("{fingerprint:016x}"),
    ] {
        buf.extend_from_slice(part.as_bytes());
        buf.push(0x1f);
    }
    format!("s{:016x}", flor_core::record::fnv1a64(&buf))
}

/// On-disk query-result cache rooted at one directory.
pub struct QueryCache {
    root: PathBuf,
}

impl QueryCache {
    /// Opens (creating if needed) a cache under `root`.
    pub fn open(root: impl Into<PathBuf>) -> io::Result<Self> {
        let root = root.into();
        fs::create_dir_all(&root)?;
        Ok(QueryCache { root })
    }

    fn file(&self, key: &str) -> PathBuf {
        self.root.join(key)
    }

    /// Looks up a key. Corrupt entries are dropped and read as a miss.
    pub fn get(&self, key: &str) -> Option<CachedResult> {
        let path = self.file(key);
        let text = fs::read_to_string(&path).ok()?;
        match Self::parse(&text) {
            Some(result) => Some(result),
            None => {
                // Self-heal: a bad entry must not keep serving misses
                // through repeated parse attempts.
                let _ = fs::remove_file(&path);
                None
            }
        }
    }

    /// Stores a result under `key`: write-to-temp + rename, so readers
    /// never observe a partial entry — and no fsync, which would put two
    /// disk flushes on every fresh query's critical path to protect a file
    /// that is regenerable and validates itself on read.
    pub fn put(&self, key: &str, result: &CachedResult) -> io::Result<()> {
        let body = {
            let mut s = String::new();
            for e in &result.log {
                s.push_str(&e.to_string());
                s.push('\n');
            }
            s
        };
        let text = format!(
            "FLORQC v1\nprobes\t{}\nentries\t{}\ncrc\t{}\n---\n{body}",
            result.probes,
            result.log.len(),
            crc32(body.as_bytes()),
        );
        // Unique per call: two queries filling one key must not share a
        // temp file.
        static PUT_SEQ: AtomicU64 = AtomicU64::new(0);
        let tmp = self.root.join(format!(
            ".{key}.tmp.{}.{}",
            std::process::id(),
            PUT_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        fs::write(&tmp, text).and_then(|()| fs::rename(&tmp, self.file(key)))
    }

    fn parse(text: &str) -> Option<CachedResult> {
        let (header, body) = text.split_once("---\n")?;
        let mut lines = header.lines();
        if lines.next()? != "FLORQC v1" {
            return None;
        }
        let mut probes = None;
        let mut entries = None;
        let mut crc = None;
        for line in lines {
            let (k, v) = line.split_once('\t')?;
            match k {
                "probes" => probes = v.parse::<u64>().ok(),
                "entries" => entries = v.parse::<usize>().ok(),
                "crc" => crc = v.parse::<u32>().ok(),
                _ => {}
            }
        }
        if crc32(body.as_bytes()) != crc? {
            return None;
        }
        let log = LogStream::parse_text(body);
        if log.len() != entries? {
            return None;
        }
        Some(CachedResult {
            probes: probes?,
            log,
        })
    }

    /// Number of cached entries on disk.
    pub fn len(&self) -> usize {
        fs::read_dir(&self.root)
            .map(|d| d.filter_map(|e| e.ok()).count())
            .unwrap_or(0)
    }

    /// True when the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Cache directory.
    pub fn root(&self) -> &Path {
        &self.root
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flor_core::logstream::Section;

    fn tmpcache(tag: &str) -> QueryCache {
        let dir = std::env::temp_dir().join(format!(
            "flor-qcache-test-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        QueryCache::open(dir).unwrap()
    }

    fn sample() -> CachedResult {
        CachedResult {
            probes: 2,
            log: vec![
                LogEntry {
                    key: "loss".into(),
                    value: "0.5".into(),
                    section: Section::Iter(0),
                },
                LogEntry {
                    key: "g".into(),
                    value: "1.25".into(),
                    section: Section::Iter(0),
                },
                LogEntry {
                    key: "acc".into(),
                    value: "0.9".into(),
                    section: Section::Post,
                },
            ],
        }
    }

    #[test]
    fn put_get_roundtrip() {
        let cache = tmpcache("roundtrip");
        let key = query_key("alice", 0, "feedbeef", "probed src");
        assert!(cache.get(&key).is_none());
        cache.put(&key, &sample()).unwrap();
        assert_eq!(cache.get(&key).unwrap(), sample());
    }

    #[test]
    fn keys_separate_runs_generations_and_sources() {
        let base = query_key("alice", 0, "v1", "src");
        assert_ne!(base, query_key("bob", 0, "v1", "src"));
        assert_ne!(base, query_key("alice", 1, "v1", "src"));
        assert_ne!(base, query_key("alice", 0, "v2", "src"));
        assert_ne!(base, query_key("alice", 0, "v1", "src2"));
        // Field boundaries matter: ("ab","c") != ("a","bc").
        assert_ne!(query_key("ab", 0, "c", "d"), query_key("a", 0, "bc", "d"));
    }

    #[test]
    fn slice_keys_are_disjoint_from_raw_keys() {
        let s = slice_key("alice", 0, "v1", 0xDEAD_BEEF);
        assert!(s.starts_with('s') && s.len() == 17, "{s}");
        assert_ne!(s, slice_key("alice", 0, "v1", 0xDEAD_BEE0));
        assert_ne!(s, slice_key("alice", 1, "v1", 0xDEAD_BEEF));
        assert_ne!(s, slice_key("bob", 0, "v1", 0xDEAD_BEEF));
        // Raw keys are exactly 16 hex chars — the "s" prefix cannot collide.
        assert_eq!(query_key("alice", 0, "v1", "src").len(), 16);
    }

    #[test]
    fn corrupt_entry_reads_as_miss_and_self_heals() {
        let cache = tmpcache("corrupt");
        let key = query_key("alice", 0, "v", "s");
        cache.put(&key, &sample()).unwrap();
        let path = cache.root().join(&key);
        let text = fs::read_to_string(&path).unwrap();
        fs::write(&path, text.replace("0.5", "9.9")).unwrap();
        assert!(cache.get(&key).is_none(), "tampered entry must miss");
        assert!(!path.exists(), "tampered entry removed");
    }

    #[test]
    fn truncated_or_empty_entry_is_a_miss_not_an_error() {
        // What a crash after an unsynced put can leave: any prefix of the
        // entry, down to a zero-length file. Each reads as a miss, is
        // removed, and the key is fillable again.
        let cache = tmpcache("trunc");
        let key = query_key("alice", 0, "v", "s");
        cache.put(&key, &sample()).unwrap();
        let path = cache.root().join(&key);
        let text = fs::read_to_string(&path).unwrap();
        for keep in [0, 1, text.len() / 2, text.len() - 1] {
            fs::write(&path, &text[..keep]).unwrap();
            assert!(cache.get(&key).is_none(), "prefix of {keep} bytes");
            assert!(!path.exists(), "torn entry ({keep} bytes) removed");
            cache.put(&key, &sample()).unwrap();
            assert_eq!(cache.get(&key).unwrap(), sample());
        }
        assert_eq!(cache.len(), 1, "puts leave no temp files behind");
    }

    #[test]
    fn empty_log_roundtrips() {
        let cache = tmpcache("empty");
        let result = CachedResult {
            probes: 0,
            log: Vec::new(),
        };
        cache.put("k", &result).unwrap();
        assert_eq!(cache.get("k").unwrap(), result);
    }
}
