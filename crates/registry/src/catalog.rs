//! The run catalog: a persistent, versioned index over many recorded runs.
//!
//! Storage is a single append-only `CATALOG` file at the registry root, in
//! the style of `flor_chkpt::store`'s MANIFEST: one record per line, each
//! line independently CRC-protected so corruption is detected at open
//! time instead of surfacing as wrong query answers later.
//!
//! ```text
//! R1<TAB><crc32 of payload><TAB><payload>
//! payload = run_id  generation  source_version  store_root  iterations
//!           checkpoints  raw_bytes  stored_bytes  record_overhead
//!           scaling_c          (tab-separated)
//! ```
//!
//! Re-registering a run id appends a new **generation** rather than
//! rewriting history — the catalog is a log, and `latest` resolves the
//! current view. A torn final line (a crash mid-append) fails its CRC and
//! is dropped on load; a bad CRC anywhere *before* the final line is real
//! corruption and refuses to load.

use crate::error::RegistryError;
use flor_chkpt::store::crc32;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

/// One cataloged run generation.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    /// User-facing run identifier.
    pub run_id: String,
    /// 0-based registration generation for this run id.
    pub generation: u64,
    /// Fingerprint of the recorded source (`flor_core::record::source_version`).
    pub source_version: String,
    /// Root directory of the run's checkpoint store.
    pub store_root: PathBuf,
    /// Main-loop iterations observed at record time.
    pub iterations: u64,
    /// Checkpoints materialized.
    pub checkpoints: u64,
    /// Uncompressed checkpoint bytes.
    pub raw_bytes: u64,
    /// Compressed bytes on disk.
    pub stored_bytes: u64,
    /// Adaptive-controller stat: cumulative record overhead.
    pub record_overhead: f64,
    /// Adaptive-controller stat: final restore/materialize scaling factor.
    pub scaling_c: f64,
}

impl RunRecord {
    /// String and numeric fields in presentation order — the single source
    /// both [`RunRecord::to_json`] and the CLI's pretty `runs show` iterate,
    /// so the two surfaces cannot drift.
    #[allow(clippy::type_complexity)]
    pub fn fields(&self) -> (Vec<(&'static str, String)>, Vec<(&'static str, f64)>) {
        (
            vec![
                ("run_id", self.run_id.clone()),
                ("source_version", self.source_version.clone()),
                ("store_root", self.store_root.display().to_string()),
            ],
            vec![
                ("generation", self.generation as f64),
                ("iterations", self.iterations as f64),
                ("checkpoints", self.checkpoints as f64),
                ("raw_bytes", self.raw_bytes as f64),
                ("stored_bytes", self.stored_bytes as f64),
                ("record_overhead", self.record_overhead),
                ("scaling_c", self.scaling_c),
            ],
        )
    }

    /// Serializes through the shared [`flor_obs::json::JsonWriter`] — the
    /// payload of `flor runs show --json`.
    pub fn to_json(&self) -> String {
        let mut w = flor_obs::json::JsonWriter::new();
        w.begin_obj();
        let (strings, nums) = self.fields();
        for (name, v) in &strings {
            w.field_str(name, v);
        }
        for (name, v) in &nums {
            w.field_f64(name, *v);
        }
        w.end_obj();
        w.finish()
    }

    fn to_payload(&self) -> String {
        format!(
            "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
            self.run_id,
            self.generation,
            self.source_version,
            self.store_root.display(),
            self.iterations,
            self.checkpoints,
            self.raw_bytes,
            self.stored_bytes,
            self.record_overhead,
            self.scaling_c,
        )
    }

    fn from_payload(payload: &str, line: usize) -> Result<Self, RegistryError> {
        let bad = |d: &str| RegistryError::Corrupt {
            line,
            detail: d.to_string(),
        };
        let parts: Vec<&str> = payload.split('\t').collect();
        if parts.len() != 10 {
            return Err(bad(&format!("expected 10 fields, got {}", parts.len())));
        }
        Ok(RunRecord {
            run_id: parts[0].to_string(),
            generation: parts[1].parse().map_err(|_| bad("bad generation"))?,
            source_version: parts[2].to_string(),
            store_root: PathBuf::from(parts[3]),
            iterations: parts[4].parse().map_err(|_| bad("bad iterations"))?,
            checkpoints: parts[5].parse().map_err(|_| bad("bad checkpoints"))?,
            raw_bytes: parts[6].parse().map_err(|_| bad("bad raw_bytes"))?,
            stored_bytes: parts[7].parse().map_err(|_| bad("bad stored_bytes"))?,
            record_overhead: parts[8].parse().map_err(|_| bad("bad record_overhead"))?,
            scaling_c: parts[9].parse().map_err(|_| bad("bad scaling_c"))?,
        })
    }
}

struct CatalogState {
    /// run_id → generations, in registration order.
    runs: BTreeMap<String, Vec<RunRecord>>,
    /// Total lines appended (for line numbers in later errors).
    lines: usize,
}

/// The persistent run catalog.
pub struct RunCatalog {
    path: PathBuf,
    state: Mutex<CatalogState>,
}

impl RunCatalog {
    /// Opens (or creates) the catalog file at `path`.
    pub fn open(path: impl Into<PathBuf>) -> Result<Self, RegistryError> {
        let path = path.into();
        let mut runs: BTreeMap<String, Vec<RunRecord>> = BTreeMap::new();
        let mut lines = 0usize;
        let mut recovered_torn_tail = false;
        let mut tail_unterminated = false;
        if path.exists() {
            let text = fs::read_to_string(&path)?;
            let raw: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
            // A crash mid-append leaves a final line without its newline;
            // only such a tail is recoverable. A malformed complete line is
            // corruption.
            tail_unterminated = !text.is_empty() && !text.ends_with('\n');
            for (i, line) in raw.iter().enumerate() {
                let lineno = i + 1;
                let is_last = i + 1 == raw.len();
                match Self::parse_line(line, lineno) {
                    Ok(rec) => {
                        lines += 1;
                        runs.entry(rec.run_id.clone()).or_default().push(rec);
                    }
                    Err(e) => {
                        if is_last && tail_unterminated {
                            recovered_torn_tail = true;
                        } else {
                            return Err(e);
                        }
                    }
                }
            }
        }
        let catalog = RunCatalog {
            path,
            state: Mutex::new(CatalogState { runs, lines }),
        };
        // Repair whenever the tail lacks its newline — even if the final
        // line parsed (a crash can cut exactly at the newline). A later
        // append would otherwise concatenate onto the unterminated line and
        // turn recoverable damage into fatal interior corruption.
        if recovered_torn_tail || tail_unterminated {
            catalog.rewrite()?;
        }
        Ok(catalog)
    }

    /// Rewrites the catalog from memory, crash-safely (temp + rename).
    fn rewrite(&self) -> Result<(), RegistryError> {
        let mut text = String::new();
        {
            let state = self.state.lock();
            for gens in state.runs.values() {
                for rec in gens {
                    let payload = rec.to_payload();
                    text.push_str(&format!("R1\t{}\t{payload}\n", crc32(payload.as_bytes())));
                }
            }
        }
        flor_chkpt::store::write_atomic(&self.path, text.as_bytes())?;
        Ok(())
    }

    fn parse_line(line: &str, lineno: usize) -> Result<RunRecord, RegistryError> {
        let bad = |d: String| RegistryError::Corrupt {
            line: lineno,
            detail: d,
        };
        let rest = line
            .strip_prefix("R1\t")
            .ok_or_else(|| bad(format!("unknown record tag in {line:?}")))?;
        let (crc_str, payload) = rest
            .split_once('\t')
            .ok_or_else(|| bad("missing crc field".into()))?;
        let want: u32 = crc_str
            .parse()
            .map_err(|_| bad(format!("bad crc field {crc_str:?}")))?;
        let got = crc32(payload.as_bytes());
        if want != got {
            return Err(bad(format!("crc mismatch: stored {want}, computed {got}")));
        }
        RunRecord::from_payload(payload, lineno)
    }

    /// Appends a new generation for `record.run_id` and returns the record
    /// with its assigned generation. Fields containing reserved characters
    /// (tab, newline) are rejected.
    pub(crate) fn register(&self, mut record: RunRecord) -> Result<RunRecord, RegistryError> {
        for (what, s) in [
            ("run id", record.run_id.as_str()),
            ("source version", record.source_version.as_str()),
        ] {
            if s.is_empty() || s.contains(['\t', '\n']) {
                return Err(RegistryError::BadRegistration(format!(
                    "{what} {s:?} is empty or contains reserved characters"
                )));
            }
        }
        if record.store_root.to_string_lossy().contains(['\t', '\n']) {
            return Err(RegistryError::BadRegistration(
                "store root contains reserved characters".into(),
            ));
        }
        let mut state = self.state.lock();
        record.generation = state
            .runs
            .get(&record.run_id)
            .map(|gens| gens.len() as u64)
            .unwrap_or(0);
        let payload = record.to_payload();
        let line = format!("R1\t{}\t{payload}\n", crc32(payload.as_bytes()));
        let mut f = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.path)?;
        // One write_all of the whole line: O_APPEND keeps concurrent
        // registrations from interleaving; a crash mid-write leaves a torn
        // tail that the next open detects by CRC and drops.
        f.write_all(line.as_bytes())?;
        state.lines += 1;
        state
            .runs
            .entry(record.run_id.clone())
            .or_default()
            .push(record.clone());
        Ok(record)
    }

    /// Latest generation of `run_id`.
    pub fn latest(&self, run_id: &str) -> Option<RunRecord> {
        self.state
            .lock()
            .runs
            .get(run_id)
            .and_then(|g| g.last().cloned())
    }

    /// All generations of `run_id`, oldest first.
    pub fn history(&self, run_id: &str) -> Vec<RunRecord> {
        self.state
            .lock()
            .runs
            .get(run_id)
            .cloned()
            .unwrap_or_default()
    }

    /// Latest generation of every run, sorted by run id.
    pub fn runs(&self) -> Vec<RunRecord> {
        self.state
            .lock()
            .runs
            .values()
            .filter_map(|g| g.last().cloned())
            .collect()
    }

    /// Number of distinct run ids.
    pub fn len(&self) -> usize {
        self.state.lock().runs.len()
    }

    /// True when no runs are cataloged.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Catalog file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Generations of `run_id` whose checkpoint stores a retention policy
    /// allows reclaiming, oldest first. The catalog itself is an
    /// append-only log and keeps every generation's *metadata*; retention
    /// governs which generations' *store directories* may be deleted
    /// (dropped generations are then rewritten out of disk by the
    /// registry's GC, the catalog's analogue of the store engine's
    /// compaction).
    pub(crate) fn prunable(&self, run_id: &str, policy: &RetentionPolicy) -> Vec<RunRecord> {
        let history = self.history(run_id);
        let keep = policy.keep_latest.max(1);
        if history.len() <= keep {
            return Vec::new();
        }
        history[..history.len() - keep].to_vec()
    }
}

/// Which generations of a run keep their checkpoint stores on disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetentionPolicy {
    /// Keep the newest `keep_latest` generations (at least 1 — the live
    /// generation is never prunable).
    pub keep_latest: usize,
}

impl Default for RetentionPolicy {
    /// Keep everything but the live generation's predecessors beyond one
    /// spare (the previous generation stays replayable for comparisons).
    fn default() -> Self {
        RetentionPolicy { keep_latest: 2 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpfile(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "flor-catalog-test-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir.join("CATALOG")
    }

    fn rec(id: &str, iters: u64) -> RunRecord {
        RunRecord {
            run_id: id.into(),
            generation: 0,
            source_version: "abcd0123abcd0123".into(),
            store_root: PathBuf::from(format!("/tmp/stores/{id}")),
            iterations: iters,
            checkpoints: iters,
            raw_bytes: 1000 * iters,
            stored_bytes: 100 * iters,
            record_overhead: 0.031,
            scaling_c: 1.7,
        }
    }

    #[test]
    fn prunable_generations_respect_the_retention_policy() {
        let cat = RunCatalog::open(tmpfile("prunable")).unwrap();
        for _ in 0..4 {
            cat.register(rec("alice", 6)).unwrap();
        }
        let policy = RetentionPolicy { keep_latest: 2 };
        let prunable = cat.prunable("alice", &policy);
        assert_eq!(
            prunable.iter().map(|r| r.generation).collect::<Vec<_>>(),
            vec![0, 1],
            "oldest first, newest two kept"
        );
        // The live generation is never prunable, even at keep_latest=0.
        let all_but_live = cat.prunable("alice", &RetentionPolicy { keep_latest: 0 });
        assert_eq!(all_but_live.len(), 3);
        // Unknown runs and short histories prune nothing.
        assert!(cat.prunable("nobody", &policy).is_empty());
        let cat2 = RunCatalog::open(tmpfile("prunable-short")).unwrap();
        cat2.register(rec("bob", 1)).unwrap();
        assert!(cat2.prunable("bob", &policy).is_empty());
    }

    #[test]
    fn register_then_reload_survives_restart() {
        let path = tmpfile("reload");
        {
            let cat = RunCatalog::open(&path).unwrap();
            cat.register(rec("alice", 6)).unwrap();
            cat.register(rec("bob", 12)).unwrap();
        }
        let cat = RunCatalog::open(&path).unwrap();
        assert_eq!(cat.len(), 2);
        let alice = cat.latest("alice").unwrap();
        assert_eq!(alice.iterations, 6);
        assert_eq!(alice.store_root, PathBuf::from("/tmp/stores/alice"));
        assert!((alice.record_overhead - 0.031).abs() < 1e-12);
    }

    #[test]
    fn reregistration_appends_generations() {
        let cat = RunCatalog::open(tmpfile("gens")).unwrap();
        let g0 = cat.register(rec("alice", 6)).unwrap();
        let g1 = cat.register(rec("alice", 9)).unwrap();
        assert_eq!(g0.generation, 0);
        assert_eq!(g1.generation, 1);
        assert_eq!(cat.latest("alice").unwrap().iterations, 9);
        assert_eq!(cat.history("alice").len(), 2);
        assert_eq!(cat.runs().len(), 1, "runs() reports one entry per id");
    }

    #[test]
    fn torn_final_line_is_dropped_not_fatal() {
        let path = tmpfile("torn");
        {
            let cat = RunCatalog::open(&path).unwrap();
            cat.register(rec("alice", 6)).unwrap();
            cat.register(rec("bob", 12)).unwrap();
        }
        // Simulate a crash mid-append: truncate the last line.
        let text = fs::read_to_string(&path).unwrap();
        fs::write(&path, &text[..text.len() - 10]).unwrap();
        let cat = RunCatalog::open(&path).unwrap();
        assert_eq!(
            fs::read_to_string(&path).unwrap(),
            text.lines().next().unwrap().to_owned() + "\n",
            "recovery rewrote the file without the torn line"
        );
        assert_eq!(cat.len(), 1, "torn bob record dropped");
        assert!(cat.latest("alice").is_some());
    }

    #[test]
    fn registration_after_torn_tail_recovery_stays_clean() {
        // The recovery rewrite must remove the torn fragment; otherwise the
        // next append concatenates onto it and the file becomes fatally
        // corrupt at its NEXT open.
        let path = tmpfile("torn-then-append");
        {
            let cat = RunCatalog::open(&path).unwrap();
            cat.register(rec("alice", 6)).unwrap();
            cat.register(rec("bob", 12)).unwrap();
        }
        let text = fs::read_to_string(&path).unwrap();
        fs::write(&path, &text[..text.len() - 9]).unwrap();
        {
            let cat = RunCatalog::open(&path).unwrap();
            assert_eq!(fs::read_to_string(&path).unwrap().lines().count(), 1);
            cat.register(rec("carol", 3)).unwrap();
        }
        let repaired = fs::read_to_string(&path).unwrap();
        let cat = RunCatalog::open(&path).unwrap();
        assert_eq!(
            fs::read_to_string(&path).unwrap(),
            repaired,
            "file was repaired: reopening rewrites nothing"
        );
        assert_eq!(cat.len(), 2);
        assert!(cat.latest("alice").is_some());
        assert!(cat.latest("carol").is_some());
    }

    #[test]
    fn tail_cut_exactly_at_newline_is_repaired_before_next_append() {
        let path = tmpfile("newline-cut");
        {
            let cat = RunCatalog::open(&path).unwrap();
            cat.register(rec("alice", 6)).unwrap();
        }
        let text = fs::read_to_string(&path).unwrap();
        assert!(text.ends_with('\n'));
        fs::write(&path, &text[..text.len() - 1]).unwrap();
        {
            let cat = RunCatalog::open(&path).unwrap();
            assert_eq!(cat.len(), 1, "parseable tail record kept");
            cat.register(rec("bob", 2)).unwrap();
        }
        let cat = RunCatalog::open(&path).unwrap();
        assert_eq!(cat.len(), 2);
        assert!(cat.latest("alice").is_some());
        assert!(cat.latest("bob").is_some());
    }

    #[test]
    fn interior_corruption_is_fatal() {
        let path = tmpfile("corrupt");
        {
            let cat = RunCatalog::open(&path).unwrap();
            cat.register(rec("alice", 6)).unwrap();
            cat.register(rec("bob", 12)).unwrap();
        }
        // Flip a byte inside the FIRST line's payload.
        let mut bytes = fs::read(&path).unwrap();
        let idx = 20;
        bytes[idx] = if bytes[idx] == b'0' { b'1' } else { b'0' };
        fs::write(&path, &bytes).unwrap();
        match RunCatalog::open(&path) {
            Err(RegistryError::Corrupt { line: 1, .. }) => {}
            other => panic!(
                "expected Corrupt at line 1, got {other:?}",
                other = other.err()
            ),
        }
    }

    #[test]
    fn reserved_characters_rejected() {
        let cat = RunCatalog::open(tmpfile("reserved")).unwrap();
        let mut bad = rec("with\ttab", 1);
        assert!(matches!(
            cat.register(bad.clone()),
            Err(RegistryError::BadRegistration(_))
        ));
        bad.run_id = String::new();
        assert!(matches!(
            cat.register(bad),
            Err(RegistryError::BadRegistration(_))
        ));
    }

    #[test]
    fn concurrent_registrations_all_land() {
        let cat = std::sync::Arc::new(RunCatalog::open(tmpfile("concurrent")).unwrap());
        let mut handles = Vec::new();
        for t in 0..4 {
            let cat = cat.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..8 {
                    cat.register(rec(&format!("run-{t}-{i}"), i)).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(cat.len(), 32);
        // And the file itself reloads cleanly.
        let written = fs::read_to_string(cat.path()).unwrap();
        let reloaded = RunCatalog::open(cat.path()).unwrap();
        assert_eq!(reloaded.len(), 32);
        assert_eq!(
            fs::read_to_string(cat.path()).unwrap(),
            written,
            "no torn tail"
        );
    }
}
