//! The registry service: catalog + store-handle pool + query cache.
//!
//! One [`Registry`] serves many users over many recorded runs. It owns:
//!
//! - the [`RunCatalog`](crate::catalog::RunCatalog) (persistent run index),
//! - a pool of open [`CheckpointStore`] handles, one per run, so repeated
//!   queries skip re-scanning store manifests — and every user of a pooled
//!   handle shares that store's persistent MANIFEST appender and O(1)
//!   byte-total counters (one open fd per run, however many sessions
//!   record or replay against it),
//! - the content-addressed [`QueryCache`](crate::cache::QueryCache) — the
//!   second identical query is served from disk without touching the
//!   replay engine.
//!
//! Layout under the registry root:
//!
//! ```text
//! root/
//!   CATALOG          append-only, CRC-protected run index
//!   cache/<key>      materialized query results (content-addressed)
//!   stores/<run_id>  default checkpoint-store location for managed runs
//! ```

use crate::cache::{query_key, CachedResult, QueryCache};
use crate::catalog::{RunCatalog, RunRecord};
use crate::error::RegistryError;
use flor_chkpt::CheckpointStore;
use flor_core::logstream::LogEntry;
use flor_core::record::{
    log_iterations, record, source_version, RecordOptions, RecordReport, RUN_META_ARTIFACT,
};
use flor_core::replay::{replay_plan, ReplayOptions, ReplayPlan};
use flor_core::stream::StreamEvent;
use flor_core::InitMode;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Answer to one hindsight query.
#[derive(Debug, Default)]
pub struct QueryOutcome {
    /// The queried run.
    pub run_id: String,
    /// Content address of the query (cache key).
    pub key: String,
    /// True when served from the result cache (no replay executed).
    pub cached: bool,
    /// The materialized hindsight log, record-ordered.
    pub log: Vec<LogEntry>,
    /// Probes the source diff detected.
    pub probes: u64,
    /// Deferred-check anomalies (fresh replays only; cached results were
    /// anomaly-free by construction).
    pub anomalies: Vec<String>,
    /// SkipBlocks restored from checkpoints (0 for cache hits).
    pub restored: u64,
    /// SkipBlocks re-executed (0 for cache hits).
    pub executed: u64,
    /// Time spent replaying, ns (0 for cache hits).
    pub wall_ns: u64,
    /// Micro-ranges stolen between replay workers (0 for cache hits).
    pub steals: u64,
    /// Time until the streaming merge emitted the first record-order log
    /// entry, ns from replay start (0 for cache hits — the whole result
    /// was available at once).
    pub stream_first_entry_ns: u64,
    /// Statements the backward slicer elided from re-executed bodies
    /// (0 for cache hits and refused slices).
    pub statements_elided: u64,
    /// Why the slicer refused to elide anything, if it did (fresh replays
    /// only).
    pub slice_refusal: Option<String>,
    /// Live fraction of the instrumented program after slicing, in
    /// permille (0 when no slice was applied — a full replay).
    pub slice_permille: u32,
    /// 1 when this answer was served from the cross-query slice cache
    /// (a textually different probe had already materialized the same
    /// live cone), 0 otherwise.
    pub slice_cache_hits: u64,
}

/// One streaming-query event, delivered while the replay is still running.
#[derive(Debug, Clone)]
pub enum QueryEvent {
    /// A record-order chunk of the hindsight log (never re-delivered; the
    /// concatenation of all chunks is the final `QueryOutcome::log`).
    Entries(Vec<LogEntry>),
    /// Progress counters after a worker completed a micro-range.
    Progress {
        /// Iterations completed across all workers.
        iterations_done: u64,
        /// Total main-loop iterations (0 until known).
        iterations_total: u64,
        /// Micro-ranges stolen so far.
        steals: u64,
    },
    /// An anomaly found by the incremental deferred check.
    Anomaly(String),
}

/// A multi-run registry rooted at one directory.
pub struct Registry {
    root: PathBuf,
    catalog: RunCatalog,
    cache: QueryCache,
    /// run_id → open store handle (reused across queries and workers).
    stores: Mutex<HashMap<String, Arc<CheckpointStore>>>,
    /// Single-flight gates: one lock per in-flight query key, so N users
    /// posing the same query trigger one replay and N−1 cache hits.
    inflight: Mutex<HashMap<String, Arc<Mutex<()>>>>,
    /// Compiled-module cache shared by every query this registry serves,
    /// keyed by the probed source's version — repeat queries over one
    /// source version (even against different runs) skip the compile pass.
    module_cache: Arc<flor_core::ModuleCache>,
}

impl Registry {
    /// Opens (or creates) a registry at `root`.
    pub fn open(root: impl Into<PathBuf>) -> Result<Self, RegistryError> {
        let root = root.into();
        std::fs::create_dir_all(&root)?;
        let catalog = RunCatalog::open(root.join("CATALOG"))?;
        let cache = QueryCache::open(root.join("cache"))?;
        Ok(Registry {
            root,
            catalog,
            cache,
            stores: Mutex::new(HashMap::new()),
            inflight: Mutex::new(HashMap::new()),
            module_cache: Arc::new(flor_core::ModuleCache::new()),
        })
    }

    /// Registry root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The run catalog.
    pub fn catalog(&self) -> &RunCatalog {
        &self.catalog
    }

    /// The query-result cache.
    pub fn cache(&self) -> &QueryCache {
        &self.cache
    }

    /// Default store location for generation `generation` of a run recorded
    /// through this registry. Generations get disjoint directories: the
    /// catalog is append-only, and overlaying a new run onto an old store
    /// would corrupt both (and invalidate pooled handles).
    pub fn store_root_for(&self, run_id: &str, generation: u64) -> PathBuf {
        self.root
            .join("stores")
            .join(run_id)
            .join(format!("g{generation}"))
    }

    // ---- registration -----------------------------------------------------

    /// Records `src` into this registry's store area under `run_id`, then
    /// catalogs the finished run. The per-run store root is
    /// [`Registry::store_root_for`]; other [`RecordOptions`] fields can be
    /// customized via `configure`.
    pub fn record_run(
        &self,
        run_id: &str,
        src: &str,
        configure: impl FnOnce(&mut RecordOptions),
    ) -> Result<(RecordReport, RunRecord), RegistryError> {
        let store_root = self.claim_store_dir(run_id)?;
        let mut opts = RecordOptions::new(&store_root);
        configure(&mut opts);
        opts.store_root = store_root.clone();
        let report = record(src, &opts)?;
        let rec = self.register_report(run_id, src, &store_root, &report)?;
        Ok((report, rec))
    }

    /// Claims a fresh store directory for the run's next generation.
    /// `create_dir` is exclusive, so concurrent recorders (threads *or*
    /// processes) racing on the same run id get disjoint directories —
    /// never interleaved writes into one store. The directory suffix may
    /// run ahead of the cataloged generation number after failed records;
    /// the catalog's `store_root` field is authoritative.
    fn claim_store_dir(&self, run_id: &str) -> Result<PathBuf, RegistryError> {
        let base = self.root.join("stores").join(run_id);
        std::fs::create_dir_all(&base)?;
        let mut gen = self.catalog.history(run_id).len() as u64;
        loop {
            let candidate = base.join(format!("g{gen}"));
            match std::fs::create_dir(&candidate) {
                Ok(()) => {
                    // Every registry-managed store shares one
                    // content-addressed keyframe arena: re-records of the
                    // same script dedup their unchanged checkpoints across
                    // generations (and across runs). The pointer file is
                    // read at store open, so `record` needs no plumbing.
                    std::fs::write(
                        candidate.join("DEDUP"),
                        format!("{}\n", self.dedup_arena_dir().display()),
                    )?;
                    return Ok(candidate);
                }
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => gen += 1,
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// The registry-wide content-addressed dedup arena directory. Always
    /// absolute: the `DEDUP` pointer files written from it are resolved
    /// against each *store's* root at open, so a relative registry root
    /// (`--registry ./reg`) would otherwise fracture the shared arena
    /// into one private copy per generation directory.
    pub fn dedup_arena_dir(&self) -> PathBuf {
        let dir = self.root.join("dedup");
        if dir.is_absolute() {
            return dir;
        }
        match std::env::current_dir() {
            Ok(cwd) => cwd.join(dir),
            Err(_) => dir,
        }
    }

    /// Catalogs a run from a [`RecordReport`] produced elsewhere (the store
    /// root must be the one the report was recorded into).
    pub fn register_report(
        &self,
        run_id: &str,
        src: &str,
        store_root: &Path,
        report: &RecordReport,
    ) -> Result<RunRecord, RegistryError> {
        self.catalog.register(RunRecord {
            run_id: run_id.to_string(),
            generation: 0, // assigned by the catalog
            source_version: source_version(src),
            store_root: store_root.to_path_buf(),
            iterations: log_iterations(&report.log),
            checkpoints: report.checkpoints,
            raw_bytes: report.raw_bytes,
            stored_bytes: report.stored_bytes,
            record_overhead: report.record_overhead,
            scaling_c: report.scaling_c,
        })
    }

    /// Catalogs an existing store directory (a run recorded without a
    /// registry) by reading the `run_meta.txt` artifact `core::record`
    /// leaves behind.
    pub fn adopt(&self, run_id: &str, store_root: &Path) -> Result<RunRecord, RegistryError> {
        let store = self.store_handle_at(run_id, store_root)?;
        let meta = String::from_utf8(store.get_artifact(RUN_META_ARTIFACT)?).map_err(|_| {
            RegistryError::BadRegistration("run_meta.txt is not valid UTF-8".into())
        })?;
        let mut fields: HashMap<&str, &str> = HashMap::new();
        for line in meta.lines() {
            if let Some((k, v)) = line.split_once('\t') {
                fields.insert(k, v);
            }
        }
        let get = |k: &str| -> Result<&str, RegistryError> {
            fields
                .get(k)
                .copied()
                .ok_or_else(|| RegistryError::BadRegistration(format!("run_meta missing {k:?}")))
        };
        let num = |k: &str| -> Result<u64, RegistryError> {
            get(k)?
                .parse()
                .map_err(|_| RegistryError::BadRegistration(format!("run_meta bad {k:?}")))
        };
        let fnum = |k: &str| -> Result<f64, RegistryError> {
            get(k)?
                .parse()
                .map_err(|_| RegistryError::BadRegistration(format!("run_meta bad {k:?}")))
        };
        self.catalog.register(RunRecord {
            run_id: run_id.to_string(),
            generation: 0, // assigned by the catalog
            source_version: get("source_version")?.to_string(),
            store_root: store_root.to_path_buf(),
            iterations: num("iterations")?,
            checkpoints: num("checkpoints")?,
            raw_bytes: num("raw_bytes")?,
            stored_bytes: num("stored_bytes")?,
            record_overhead: fnum("record_overhead")?,
            scaling_c: fnum("scaling_c")?,
        })
    }

    // ---- catalog views ----------------------------------------------------

    /// Latest generation of every cataloged run.
    pub fn runs(&self) -> Vec<RunRecord> {
        self.catalog.runs()
    }

    /// Latest generation of `run_id`, or [`RegistryError::UnknownRun`].
    pub fn run(&self, run_id: &str) -> Result<RunRecord, RegistryError> {
        self.catalog
            .latest(run_id)
            .ok_or_else(|| RegistryError::UnknownRun(run_id.to_string()))
    }

    /// The run's original (de-instrumented) recorded source — the text a
    /// user probes to pose a hindsight query.
    pub fn run_source(&self, run_id: &str) -> Result<String, RegistryError> {
        let rec = self.run(run_id)?;
        Ok(flor_core::versions::recorded_source(&rec.store_root)?)
    }

    // ---- queries ----------------------------------------------------------

    /// Serves a hindsight query: replay `probed_source` against `run_id`'s
    /// store with `workers` replay workers. Identical repeat queries are
    /// served from the content-addressed cache without replaying.
    pub fn query(
        &self,
        run_id: &str,
        probed_source: &str,
        workers: usize,
    ) -> Result<QueryOutcome, RegistryError> {
        self.query_impl(run_id, probed_source, workers, None, None)
    }

    /// [`Registry::query`] with a streaming observer: `on_event` receives
    /// record-order log chunks, progress counters, and anomalies while the
    /// replay is still executing — leading iterations stream out before
    /// the last replay worker finishes. Cache hits deliver the whole log
    /// as one chunk; the assembled result is cached exactly like `query`'s.
    pub fn query_streaming(
        &self,
        run_id: &str,
        probed_source: &str,
        workers: usize,
        on_event: &mut dyn FnMut(QueryEvent),
    ) -> Result<QueryOutcome, RegistryError> {
        self.query_impl(run_id, probed_source, workers, Some(on_event), None)
    }

    /// Shared body of [`Registry::query`] / [`Registry::query_streaming`]
    /// and the scheduler's jobs. `observer: None` skips event construction
    /// entirely — a cache hit on the non-streaming path must not clone its
    /// log just to drop it. Once `cancel` fires, the replay's workers stop
    /// at their next iteration boundary and the query fails with
    /// `FlorError::Cancelled`; cancelled replays are never cached.
    pub(crate) fn query_impl(
        &self,
        run_id: &str,
        probed_source: &str,
        workers: usize,
        mut observer: Option<&mut dyn FnMut(QueryEvent)>,
        cancel: Option<flor_core::CancelToken>,
    ) -> Result<QueryOutcome, RegistryError> {
        flor_obs::counter!("registry.queries").inc();
        let rec = self.run(run_id)?;
        let key = query_key(run_id, rec.generation, &rec.source_version, probed_source);
        if let Some(hit) = self.cache.get(&key) {
            return Ok(self.cached_outcome(run_id, &key, hit, false, &mut observer));
        }
        // Single-flight: identical concurrent queries wait for the first
        // one's replay and then read its cached result.
        let gate = self.inflight.lock().entry(key.clone()).or_default().clone();
        let result = {
            let _in_flight = gate.lock();
            if let Some(hit) = self.cache.get(&key) {
                Ok(self.cached_outcome(run_id, &key, hit, false, &mut observer))
            } else {
                self.replay_query(run_id, &rec, probed_source, workers, &key, observer, cancel)
            }
        };
        // Drop the gate's map entry so a long-lived service doesn't grow
        // one entry per distinct query forever. Waiters already holding
        // the Arc proceed unaffected; late arrivals hit the cache.
        self.inflight.lock().remove(&key);
        result
    }

    /// Materializes a cache hit into a [`QueryOutcome`], delivering the
    /// streaming events a fresh replay would have (one chunk, full
    /// progress). `slice_hit` marks answers served by slice-fingerprint
    /// rather than by raw query text.
    fn cached_outcome(
        &self,
        run_id: &str,
        key: &str,
        hit: CachedResult,
        slice_hit: bool,
        observer: &mut Option<&mut dyn FnMut(QueryEvent)>,
    ) -> QueryOutcome {
        flor_obs::counter!("registry.cache_hits").inc();
        if slice_hit {
            flor_obs::counter!("cache.slice_hits").inc();
        }
        if let Some(on_event) = observer {
            let total = log_iterations(&hit.log);
            on_event(QueryEvent::Entries(hit.log.clone()));
            on_event(QueryEvent::Progress {
                iterations_done: total,
                iterations_total: total,
                steals: 0,
            });
        }
        QueryOutcome {
            run_id: run_id.to_string(),
            key: key.to_string(),
            cached: true,
            log: hit.log,
            probes: hit.probes,
            anomalies: Vec::new(),
            restored: 0,
            executed: 0,
            wall_ns: 0,
            steals: 0,
            stream_first_entry_ns: 0,
            statements_elided: 0,
            slice_refusal: None,
            slice_permille: 0,
            slice_cache_hits: u64::from(slice_hit),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn replay_query(
        &self,
        run_id: &str,
        rec: &RunRecord,
        probed_source: &str,
        workers: usize,
        key: &str,
        mut observer: Option<&mut dyn FnMut(QueryEvent)>,
        cancel: Option<flor_core::CancelToken>,
    ) -> Result<QueryOutcome, RegistryError> {
        let store = self.store_handle_at(run_id, &rec.store_root)?;
        // The front end runs once: the plan names the query's slice class
        // for the memo lookup, and the same plan is what executes on a
        // miss.
        let plan = Arc::new(ReplayPlan::prepare(&store, probed_source)?);
        // Cross-query slice memo: a textually different probe that parses,
        // instruments, and slices to the same live cone has already
        // materialized this exact log — serve it for the cost of a
        // parse+slice, and backfill the raw-text key so the next identical
        // query short-circuits before reaching this point. (An impure diff
        // has no fingerprint: poisoned replays are never memoized.)
        let slice_key = plan.fingerprint().map(|fp| {
            crate::cache::slice_key(&rec.run_id, rec.generation, &rec.source_version, fp)
        });
        if let Some(sk) = &slice_key {
            if let Some(hit) = self.cache.get(sk) {
                self.cache.put(key, &hit)?;
                return Ok(self.cached_outcome(run_id, key, hit, true, &mut observer));
            }
        }
        // The run's cost profile sizes micro-ranges, stragglers get
        // robbed, and results stream out in record order.
        let opts = ReplayOptions {
            workers: workers.max(1),
            init_mode: InitMode::Strong,
            module_cache: Some(self.module_cache.clone()),
            cancel,
        };
        let report = replay_plan(plan, store, &opts, |ev| {
            let Some(on_event) = observer.as_deref_mut() else {
                return;
            };
            match ev {
                StreamEvent::Entries(chunk) => on_event(QueryEvent::Entries(chunk.to_vec())),
                StreamEvent::Anomaly(a) => on_event(QueryEvent::Anomaly(a.to_string())),
                StreamEvent::Progress {
                    iterations_done,
                    iterations_total,
                    steals,
                } => on_event(QueryEvent::Progress {
                    iterations_done,
                    iterations_total,
                    steals,
                }),
            }
        })?;
        let outcome = QueryOutcome {
            run_id: run_id.to_string(),
            key: key.to_string(),
            cached: false,
            probes: report.probes.len() as u64,
            anomalies: report.anomalies,
            restored: report.stats.restored,
            executed: report.stats.executed,
            wall_ns: report.wall_ns,
            steals: report.stats.steals,
            stream_first_entry_ns: report.stats.stream_first_entry_ns,
            statements_elided: report.stats.statements_elided,
            slice_refusal: report.slice_refusal,
            slice_permille: report.stats.slice_permille,
            slice_cache_hits: 0,
            log: report.log,
        };
        // Only clean materializations are worth addressing by content:
        // anomalous replays should re-run (and re-warn) every time. The
        // result lands under both the raw-text key and (when the slicer
        // produced a fingerprint) the slice-class key, so later textual
        // variants of the same live cone replay nothing.
        if outcome.anomalies.is_empty() {
            let mut span = flor_obs::span(flor_obs::Category::Commit, "cache_commit");
            span.set_args(outcome.log.len() as u64, 0);
            let result = CachedResult {
                probes: outcome.probes,
                log: outcome.log.clone(),
            };
            self.cache.put(key, &result)?;
            if let Some(sk) = &slice_key {
                self.cache.put(sk, &result)?;
            }
        }
        Ok(outcome)
    }

    /// Returns the pooled store handle for a run, opening it on first use.
    fn store_handle_at(
        &self,
        run_id: &str,
        store_root: &Path,
    ) -> Result<Arc<CheckpointStore>, RegistryError> {
        let mut stores = self.stores.lock();
        if let Some(handle) = stores.get(run_id) {
            // A re-registration may have moved the run's store; only reuse
            // handles that still point at the cataloged root.
            if handle.root() == store_root {
                return Ok(handle.clone());
            }
        }
        let handle = Arc::new(CheckpointStore::open(store_root)?);
        stores.insert(run_id.to_string(), handle.clone());
        Ok(handle)
    }

    /// Number of pooled open store handles.
    pub fn open_store_handles(&self) -> usize {
        self.stores.lock().len()
    }

    /// Point-in-time snapshot of every process-wide observability metric
    /// (query/cache counters, store commit/restore/compact latencies,
    /// record submit latencies, …) — the payload behind `flor serve`'s
    /// `metrics` verb.
    pub fn metrics_snapshot(&self) -> flor_obs::MetricSnapshot {
        flor_obs::metrics::snapshot()
    }

    /// Per-tenant slice of the metrics registry: only the
    /// `tenant.<name>.*` counters and histograms the serving layer tags —
    /// the payload behind `flor serve`'s `metrics <tenant>` verb.
    pub fn tenant_metrics_snapshot(&self, tenant: &str) -> flor_obs::MetricSnapshot {
        flor_obs::metrics::snapshot_prefixed(&format!("tenant.{tenant}."))
    }

    // ---- storage-engine surface -------------------------------------------

    /// Storage-engine counters for a run's (latest-generation) checkpoint
    /// store: segments, live/dead bytes, zero-copy read and cache
    /// counters, compactions.
    pub fn store_stats(&self, run_id: &str) -> Result<flor_chkpt::StoreStats, RegistryError> {
        let rec = self.run(run_id)?;
        Ok(self.store_handle_at(run_id, &rec.store_root)?.stats())
    }

    /// What open-time recovery found on the run's store (missing data,
    /// orphaned segments, manifest repairs).
    pub fn store_recovery(
        &self,
        run_id: &str,
    ) -> Result<flor_chkpt::RecoveryReport, RegistryError> {
        let rec = self.run(run_id)?;
        Ok(self
            .store_handle_at(run_id, &rec.store_root)?
            .recovery_report()
            .clone())
    }

    /// Compacts a run's checkpoint store: superseded re-puts and dead
    /// segment bytes are rewritten out. Queries through the pooled handle
    /// keep working throughout (readers never block on compaction).
    pub fn compact_run(&self, run_id: &str) -> Result<flor_chkpt::CompactionReport, RegistryError> {
        let rec = self.run(run_id)?;
        let store = self.store_handle_at(run_id, &rec.store_root)?;
        Ok(store.compact()?)
    }

    /// Applies a [`RetentionPolicy`](crate::catalog::RetentionPolicy):
    /// deletes the checkpoint stores of prunable (superseded) generations
    /// and drops any pooled handle that pointed at them. Returns the
    /// pruned generations. The catalog keeps their metadata — history
    /// stays queryable; only the replay data is reclaimed.
    pub fn apply_retention(
        &self,
        run_id: &str,
        policy: &crate::catalog::RetentionPolicy,
    ) -> Result<Vec<RunRecord>, RegistryError> {
        // Resolve the run first so an unknown id errors instead of
        // silently pruning nothing.
        let live = self.run(run_id)?;
        let prunable = self.catalog.prunable(run_id, policy);
        let mut pruned = Vec::new();
        for rec in prunable {
            if rec.store_root == live.store_root || !rec.store_root.exists() {
                continue;
            }
            // Invalidate a pooled handle before deleting the data under it.
            {
                let mut stores = self.stores.lock();
                if stores
                    .get(run_id)
                    .is_some_and(|h| h.root() == rec.store_root)
                {
                    stores.remove(run_id);
                }
            }
            // Release this generation's arena references before the store
            // directory goes away: pruning one run must never sever a
            // surviving run's `@dup` entries, and the refcount is what
            // guarantees that. Failing open is tolerated (the refs leak
            // toward over-retention, never toward data loss); failing a
            // release is not — deleting the store after a half-applied
            // release would make a retry impossible.
            if let Ok(store) = flor_chkpt::CheckpointStore::open_read_only(&rec.store_root) {
                if let Some(arena) = store.dedup_index() {
                    for hash in store.dedup_references() {
                        arena.release(hash).map_err(flor_chkpt::StoreError::from)?;
                    }
                }
            }
            std::fs::remove_dir_all(&rec.store_root)?;
            pruned.push(rec);
        }
        Ok(pruned)
    }
}
