//! The replay phase (paper §3.2) and deferred correctness checks (§5.2.2).
//!
//! "Model developers probe training execution data by adding logging
//! statements into the code. At analysis time, following the insertion of
//! hindsight logging statements, Flor recovers selected execution data via
//! fast re-execution […] combining partial and parallel replay."
//!
//! [`replay`] is the whole phase:
//!
//! 1. load the instrumented source saved at record time,
//! 2. instrument the *new* source identically and structurally diff the two
//!    — added log statements become probes, attributed to their enclosing
//!    SkipBlock; anything else poisons checkpoint reuse,
//! 3. run `G` parallel workers against a shared [`ReplayRuntime`]: each
//!    pulls cost-sized micro-ranges off the work-stealing queue (seeded
//!    contiguously to preserve strong/weak initialization semantics and
//!    checkpoint-restore locality; `--steal` lets drained workers take load
//!    off stragglers),
//! 4. stream completed ranges into the incremental merger, which emits the
//!    record-order prefix as soon as it is contiguous — no barrier join,
//! 5. run the deferred correctness check incrementally on that prefix: the
//!    replayed fingerprint must match the record log everywhere both
//!    produced output.

use crate::error::FlorError;
use crate::interp::{Interp, Mode, Phase, ReplayCtx, ReplayStats};
use crate::logstream::{LogEntry, LogStream, Section};
use crate::parallel::{plan, plan_anchored, InitMode, MicroRange, RangeQueue, WorkerPlan};
use crate::profile::{CostProfile, COST_PROFILE_ARTIFACT};
use crate::stream::{RangeSink, StreamEvent, StreamMsg, StreamingMerger};
use flor_analysis::instrument::instrument;
use flor_chkpt::CheckpointStore;
use flor_lang::ast::{Expr, Program, Stmt};
use flor_lang::{diff_programs, parse, ProbeSite};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::PathBuf;
use std::sync::Arc;

/// Knobs for a replay run.
#[derive(Debug, Clone)]
pub struct ReplayOptions {
    /// Number of parallel workers (the paper's NGPUS).
    pub workers: usize,
    /// Worker initialization strategy (default Strong, as in the paper).
    pub init_mode: InitMode,
    /// Work-stealing over cost-sized micro-ranges. Off, each worker owns a
    /// static contiguous partition (the paper's §5.4 plan — the slowest
    /// worker gates completion). On, partitions are split into micro-ranges
    /// sized by the run's recorded cost profile, and drained workers steal
    /// off stragglers.
    pub steal: bool,
    /// Execute on the bytecode VM (default). Off, the tree-walking
    /// interpreter runs instead — the fallback and differential oracle;
    /// both executors produce byte-identical logs and final state.
    pub vm: bool,
    /// Compiled-module cache shared across replay jobs, keyed by
    /// `source_version`. None compiles fresh per job (still once, shared
    /// by all workers of the job).
    pub module_cache: Option<Arc<crate::vm::ModuleCache>>,
    /// Dependency-aware slicing (default on): statements outside the
    /// backward slice of the log statements are elided from execution —
    /// both executors run the same pruned program. Off (or when the
    /// slicer refuses: aliasing it can't track, rule-5 calls, impure
    /// hindsight diffs), the full program runs.
    pub slice: bool,
    /// Cooperative cancellation. When set, workers poll the token at
    /// range-pull and per-iteration boundaries and the replay fails fast
    /// with [`FlorError::Cancelled`] instead of running to completion.
    pub cancel: Option<crate::parallel::CancelToken>,
}

impl Default for ReplayOptions {
    fn default() -> Self {
        ReplayOptions {
            workers: 1,
            init_mode: InitMode::Strong,
            steal: false,
            vm: true,
            module_cache: None,
            slice: true,
            cancel: None,
        }
    }
}

impl ReplayOptions {
    /// Replay with `workers` parallel workers, strong initialization.
    pub fn with_workers(workers: usize) -> Self {
        ReplayOptions {
            workers,
            ..Default::default()
        }
    }

    /// Replay with `workers` work-stealing workers.
    pub fn with_stealing(workers: usize) -> Self {
        ReplayOptions {
            workers,
            steal: true,
            ..Default::default()
        }
    }
}

/// Shared state of one replay run's worker pool: the work-stealing range
/// queue plus everything needed to seed it (done lazily by the first worker
/// to reach the main loop, since only workers know the iteration count).
pub struct ReplayRuntime {
    /// The micro-range queue workers pull from.
    pub queue: RangeQueue,
    /// The run's recorded per-iteration cost profile, if present.
    pub profile: Option<CostProfile>,
    /// Worker count.
    pub workers: usize,
    /// Whether stealing is enabled (mirrors [`RangeQueue`]'s flag; kept for
    /// seeding decisions).
    pub steal: bool,
    /// Live statement fraction of the slice being executed, in permille
    /// (1000 = unsliced). Prices executed iterations in cost seeding:
    /// the recorded profile measured the full body, but elision shrinks
    /// the work roughly proportionally.
    pub live_permille: u32,
    /// Cancellation token for this replay, if the caller wants one.
    pub cancel: Option<crate::parallel::CancelToken>,
}

impl ReplayRuntime {
    /// Runtime for `workers` workers.
    pub fn new(workers: usize, steal: bool, profile: Option<CostProfile>) -> Self {
        ReplayRuntime {
            queue: RangeQueue::new(workers, steal),
            profile,
            workers,
            steal,
            live_permille: 1000,
            cancel: None,
        }
    }

    /// True once this replay's cancellation token (if any) has fired.
    pub fn cancelled(&self) -> bool {
        self.cancel.as_ref().is_some_and(|c| c.is_cancelled())
    }

    /// Computes the seed deques for an `n`-iteration main loop — called
    /// exactly once per replay, by whichever worker reaches the loop first
    /// (every worker would compute the same result).
    ///
    /// Static mode reproduces the legacy planner's contiguous segments
    /// verbatim (one range per worker). Stealing mode splits iterations
    /// into cost-sized micro-ranges — the cost of an iteration taken from
    /// the record-time profile when one exists, uniform otherwise — and
    /// seeds them contiguously, balanced by cost. Returns the deques plus
    /// the cost vector they were balanced by (the queue weighs victims
    /// with it).
    pub fn seed_ranges(&self, ctx: &ReplayCtx, n: u64) -> (Vec<Vec<MicroRange>>, Vec<u64>) {
        if !self.steal {
            let plans = match ctx.init_mode {
                InitMode::Strong => plan(n, self.workers, InitMode::Strong),
                InitMode::Weak => plan_anchored(n, &ctx.anchors(n), self.workers),
            };
            let mut deques: Vec<Vec<MicroRange>> = vec![Vec::new(); self.workers];
            for p in plans {
                deques[p.pid].push(MicroRange {
                    start: p.work_start,
                    end: p.work_end,
                });
            }
            return (deques, Vec::new());
        }
        // Will replay *execute* iterations (probed / poisoned / unmemoized)
        // or restore them? Determines which cost column of the profile
        // applies.
        let executes = ctx.force_execute_all
            || ctx.main_blocks.is_empty()
            || ctx
                .main_blocks
                .iter()
                .any(|b| ctx.probed_blocks.contains(b));
        let mut costs: Vec<u64> = self
            .profile
            .as_ref()
            .map(|p| p.replay_costs(n, executes))
            .unwrap_or_default();
        if executes && self.live_permille < 1000 {
            // Executed iterations run the slice, not the full recorded
            // body — price them accordingly so stealing stays balanced.
            for c in &mut costs {
                *c = crate::profile::sliced_cost(*c, self.live_permille);
            }
        }
        let anchors = match ctx.init_mode {
            InitMode::Strong => None,
            InitMode::Weak => Some(ctx.anchors(n)),
        };
        let deques = crate::parallel::seed_cost_ranges(n, self.workers, &costs, anchors.as_ref());
        (deques, costs)
    }
}

/// What a replay run produced.
pub struct ReplayReport {
    /// The merged hindsight log (record-order).
    pub log: Vec<LogEntry>,
    /// Probes detected by the source diff.
    pub probes: Vec<ProbeSite>,
    /// Non-hindsight source changes (forces full re-execution).
    pub other_changes: Vec<String>,
    /// Deferred-check anomalies: divergences between record and replay
    /// fingerprints.
    pub anomalies: Vec<String>,
    /// Aggregated SkipBlock restore/execute counters.
    pub stats: ReplayStats,
    /// Wall-clock time of the replay, ns.
    pub wall_ns: u64,
    /// Each worker's executed partition (None for workers with no share).
    pub worker_plans: Vec<Option<WorkerPlan>>,
}

impl ReplayReport {
    /// Probe outputs only: entries whose key never appears in the record
    /// log (the typical "what did I ask for in hindsight" view).
    pub fn hindsight_entries<'a>(&'a self, record_log: &[LogEntry]) -> Vec<&'a LogEntry> {
        let record_keys: HashSet<&str> = record_log.iter().map(|e| e.key.as_str()).collect();
        self.log
            .iter()
            .filter(|e| !record_keys.contains(e.key.as_str()))
            .collect()
    }
}

/// SkipBlock ids nested inside the main (partition-wrapped) loop.
pub(crate) fn main_loop_blocks(prog: &Program) -> Vec<String> {
    fn collect(body: &[Stmt], out: &mut Vec<String>) {
        for stmt in body {
            match stmt {
                Stmt::SkipBlock { id, body } => {
                    out.push(id.clone());
                    collect(body, out);
                }
                Stmt::For { body, .. } => collect(body, out),
                Stmt::If { then, orelse, .. } => {
                    collect(then, out);
                    collect(orelse, out);
                }
                _ => {}
            }
        }
    }
    let mut out = Vec::new();
    for stmt in &prog.body {
        if let Stmt::For { iter, body, .. } = stmt {
            let is_partitioned = matches!(
                iter,
                Expr::Call { func, .. }
                    if matches!(
                        func.as_ref(),
                        Expr::Attr { obj, name }
                            if name == "partition" && obj.as_name() == Some("flor")
                    )
            );
            if is_partitioned {
                collect(body, &mut out);
            }
        }
    }
    out
}

/// Replays a (possibly probed) training script against a recorded store.
pub fn replay(
    new_src: &str,
    store_root: impl Into<PathBuf>,
    opts: &ReplayOptions,
) -> Result<ReplayReport, FlorError> {
    let store = Arc::new(CheckpointStore::open(store_root.into())?);
    replay_with_store(new_src, store, opts)
}

/// [`replay`] over an already-open store handle. Long-lived services (the
/// registry's query scheduler) keep one handle per run and replay through
/// it repeatedly, skipping the manifest re-scan that `open` performs.
pub fn replay_with_store(
    new_src: &str,
    store: Arc<CheckpointStore>,
    opts: &ReplayOptions,
) -> Result<ReplayReport, FlorError> {
    replay_streaming(new_src, store, opts, |_| {})
}

/// [`replay_with_store`] with a streaming observer: `on_event` receives
/// record-order log-entry chunks as soon as the leading contiguous prefix
/// of iterations completes (long before the last worker finishes), plus
/// progress counters and incrementally-detected anomalies. The returned
/// report is identical to the non-streaming call — the final log is the
/// concatenation of the streamed chunks.
pub fn replay_streaming(
    new_src: &str,
    store: Arc<CheckpointStore>,
    opts: &ReplayOptions,
    on_event: impl FnMut(StreamEvent<'_>),
) -> Result<ReplayReport, FlorError> {
    let recorded_src = String::from_utf8(store.get_artifact("source.flr")?)
        .map_err(|_| crate::error::rt("recorded source is not valid UTF-8"))?;
    let recorded_prog = parse(&recorded_src)?;

    // Instrument the new source exactly as record did, then diff.
    let new_prog = parse(new_src)?;
    let inst = instrument(&new_prog);
    let diff = diff_programs(&recorded_prog, &inst.program);
    let probed_blocks: HashSet<String> = diff
        .probes
        .iter()
        .filter_map(|p| p.skipblock_id.clone())
        .collect();
    let force_execute_all = !diff.is_pure_hindsight();
    let main_blocks = main_loop_blocks(&inst.program);
    // Loop-carried state outside every skipblock changeset (e.g.
    // `carry = carry + boost` in the outer body) is repaired by no
    // checkpoint restore: a backward steal's rewound prefix would roll
    // it forward from the worker's already-advanced value and diverge
    // from the record. Detect it statically and keep steals
    // forward-only when present.
    let outer_carried = flor_analysis::outer_carried_state(&inst.program, &inst.blocks).is_some();
    // Poisoned reuse re-executes every iteration: weak init's anchor jump
    // is a checkpoint restore, which poisoning disables, so the only sound
    // worker initialization is strong rolling re-execution from 0.
    let init_mode = if force_execute_all {
        InitMode::Strong
    } else {
        opts.init_mode
    };

    // The record log (for the incremental deferred check) and the cost
    // profile (for micro-range sizing and the slicer's checkpoint-cut
    // precondition) are loaded before workers start.
    let record_log = LogStream::parse_text(
        &String::from_utf8(store.get_artifact("record_log.txt")?)
            .map_err(|_| crate::error::rt("record log is not valid UTF-8"))?,
    );
    let profile = store
        .get_artifact(COST_PROFILE_ARTIFACT)
        .ok()
        .and_then(|bytes| String::from_utf8(bytes).ok())
        .and_then(|text| CostProfile::parse_text(&text));

    // Dependency-aware slicing: compute the backward slice of the log
    // statements and elide everything outside it. Skipped when the
    // caller opted out or the diff isn't pure hindsight (a poisoned
    // replay re-executes everything, including non-cone statements
    // whose effects checkpoints would otherwise supersede); inert when
    // the slicer refuses (fallback) or finds nothing dead.
    let slice_plan = if opts.slice && !force_execute_all {
        let mut span = flor_obs::span(flor_obs::Category::Slice, "slice");
        let ts = flor_obs::clock::now_ns();
        let plan = flor_analysis::slice_program(
            &inst.program,
            &probed_blocks,
            &inst.blocks,
            checkpoint_cuts_provable(profile.as_ref(), &main_blocks, &store),
        );
        flor_obs::counter!("slice.compile_ns").add(flor_obs::clock::since_ns(ts));
        span.set_args(u64::from(plan.elided_stmts), u64::from(plan.region_stmts));
        Some(plan)
    } else {
        None
    };
    let (exec_prog, slice_suffix, statements_elided, live_permille) = match &slice_plan {
        Some(plan) if plan.is_active() => {
            let pruned = flor_lang::prune_program(&inst.program, &plan.dead);
            let hash = crate::record::fnv1a64(flor_lang::print_program(&pruned).as_bytes());
            (
                pruned,
                Some(format!("+s{hash:016x}")),
                u64::from(plan.elided_stmts),
                plan.live_permille(),
            )
        }
        _ => (inst.program.clone(), None, 0, 1000),
    };

    // Lower the instrumented program to bytecode once per replay job —
    // every worker executes the same shared module. When the caller
    // provides a module cache (the registry does), the compiled module is
    // reused across jobs keyed by the probed source's version (plus the
    // slice's content hash when one applies), so repeat hindsight queries
    // over one source version skip the pass entirely.
    let module = if opts.vm {
        let mut key = crate::record::source_version(new_src);
        if let Some(sfx) = &slice_suffix {
            key.push_str(sfx);
        }
        let dead = slice_plan
            .as_ref()
            .filter(|p| p.is_active())
            .map(|p| p.dead.clone())
            .unwrap_or_default();
        Some(match &opts.module_cache {
            Some(cache) => cache.get_or_compile_sliced(&key, &inst.program, &dead)?,
            None => crate::vm::compile_program_sliced(&inst.program, &dead)?,
        })
    } else {
        None
    };

    // Run the workers. Interpreter values are Rc-based (single-threaded by
    // design, like CPython); each worker owns a fresh interpreter inside
    // its thread — workers share nothing but the store and the range
    // queue, the coordination-free model of §5.4 plus one lock-guarded
    // steal point.
    let t0 = flor_obs::clock::now_ns();
    let delta_counters_before = store.delta_read_counters();
    let workers = opts.workers.max(1);
    let mut runtime = ReplayRuntime::new(workers, opts.steal, profile);
    runtime.live_permille = live_permille;
    runtime.cancel = opts.cancel.clone();
    let runtime = Arc::new(runtime);
    let (tx, rx) = std::sync::mpsc::channel::<StreamMsg>();
    let mut handles = Vec::with_capacity(workers);
    for pid in 0..workers {
        let prog = exec_prog.clone();
        let module = module.clone();
        let store = store.clone();
        let probed_blocks = probed_blocks.clone();
        let main_blocks = main_blocks.clone();
        let runtime = runtime.clone();
        let sink = RangeSink::new(tx.clone());
        handles.push(std::thread::spawn(
            move || -> Result<(ReplayStats, Option<WorkerPlan>), FlorError> {
                let ctx = ReplayCtx {
                    store,
                    pid,
                    workers,
                    init_mode,
                    probed_blocks,
                    force_execute_all,
                    outer_carried,
                    main_blocks,
                    phase: Phase::Work,
                    main_iter: None,
                    standalone_seq: HashMap::new(),
                    blocks_this_iter: HashSet::new(),
                    stats: ReplayStats::default(),
                    plan_used: None,
                    sample: None,
                    prefetcher: None,
                    runtime: Some(runtime),
                    sink: Some(sink.clone()),
                };
                let mut interp = Interp::new(Mode::Replay(Box::new(ctx)));
                match &module {
                    Some(m) => interp.run_vm(m)?,
                    None => interp.run(&prog)?,
                }
                let Mode::Replay(ctx) = interp.mode else {
                    unreachable!()
                };
                // Whatever the main loop didn't drain: preamble entries of
                // a loop-less program, and the postamble (suppressed — and
                // therefore empty — unless this worker owns the final
                // state).
                let leftover = interp.log.into_entries();
                let (pre, post): (Vec<LogEntry>, Vec<LogEntry>) = leftover
                    .into_iter()
                    .partition(|e| e.section == Section::Pre);
                sink.send(StreamMsg::Pre { pid, entries: pre });
                sink.send(StreamMsg::Post { entries: post });
                Ok((ctx.stats, ctx.plan_used))
            },
        ));
    }
    drop(tx);

    // Drive the incremental merger on this thread until every worker's
    // sink is gone; entries stream to the observer as prefixes complete.
    flor_obs::set_lane(flor_obs::trace::LANE_DRIVER, "driver");
    let mut merger = StreamingMerger::new(&record_log, t0, on_event);
    merger.run(&rx);

    let mut stats = ReplayStats::default();
    let mut worker_plans = Vec::with_capacity(workers);
    for h in handles {
        let (s, plan) = h
            .join()
            .map_err(|_| crate::error::rt("replay worker panicked"))??;
        stats.restored += s.restored;
        stats.executed += s.executed;
        stats.restore_ns += s.restore_ns;
        stats.prefetch_hits += s.prefetch_hits;
        stats.ranges_executed += s.ranges_executed;
        worker_plans.push(plan);
    }
    let (merged, mut anomalies, first_entry_ns) = merger.finish();
    stats.steals = runtime.queue.steals();
    stats.stream_first_entry_ns = first_entry_ns;
    stats.statements_elided = statements_elided;
    // 0 is the "no slice applied" sentinel (`slice_fraction` reads it as
    // 1.0); the runtime's cost math keeps the literal 1000 instead so a
    // full-cost iteration never collapses to the 1 ns floor.
    stats.slice_permille = if statements_elided > 0 {
        live_permille
    } else {
        0
    };
    // Attribute this replay's chain-resolution work (pooled store handles
    // carry counts from earlier replays; the diff is ours).
    let delta_counters_after = store.delta_read_counters();
    stats.delta_restores = delta_counters_after
        .0
        .saturating_sub(delta_counters_before.0);
    stats.chain_links = delta_counters_after
        .1
        .saturating_sub(delta_counters_before.1);
    let wall_ns = flor_obs::clock::since_ns(t0);

    if force_execute_all {
        anomalies.insert(
            0,
            format!(
                "source changed beyond hindsight logging ({} change(s)); \
                 checkpoints were not reused",
                diff.other_changes.len()
            ),
        );
    }

    Ok(ReplayReport {
        log: merged,
        probes: diff.probes,
        other_changes: diff.other_changes,
        anomalies,
        stats,
        wall_ns,
        worker_plans,
    })
}

/// The slicer's checkpoint-cut precondition, verified against the live
/// store: the recorded profile must claim every iteration fully
/// checkpointed *and* the store must still hold every main-loop block's
/// checkpoint at every profiled iteration. The profile only records what
/// record intended — a checkpoint lost since (manual pruning, GC of a
/// corrupt entry) silently re-executes its block at replay time, and a
/// cut computed under the restore assumption would have elided
/// statements that re-execution needs.
fn checkpoint_cuts_provable(
    profile: Option<&CostProfile>,
    main_blocks: &[String],
    store: &CheckpointStore,
) -> bool {
    profile.is_some_and(|p| {
        p.dense_checkpoints()
            && main_blocks
                .iter()
                .all(|b| (0..p.len() as u64).all(|g| store.contains(b, g)))
    })
}

/// Content fingerprint of the *semantic* replay a probed source induces
/// over a recorded source: the FNV hash of the canonical print of the
/// sliced (falling back to the full) instrumented program. Textually
/// different queries that parse, instrument, and slice to the same live
/// cone share a fingerprint — the registry keys its cross-query slice
/// cache with it, so a re-query pays parse+slice (microseconds) instead
/// of a replay. The checkpoint-cut precondition is re-derived against
/// `store` so the fingerprint names the plan replay itself would use.
/// Returns `None` when a source fails to parse or the diff is not pure
/// hindsight (poisoned replays are never memoized).
pub fn slice_fingerprint(
    recorded_src: &str,
    new_src: &str,
    store: &CheckpointStore,
    slice: bool,
) -> Option<u64> {
    let recorded_prog = parse(recorded_src).ok()?;
    let new_prog = parse(new_src).ok()?;
    let inst = instrument(&new_prog);
    let diff = diff_programs(&recorded_prog, &inst.program);
    if !diff.is_pure_hindsight() {
        return None;
    }
    let probed: HashSet<String> = diff
        .probes
        .iter()
        .filter_map(|p| p.skipblock_id.clone())
        .collect();
    let canonical = if slice {
        let profile = store
            .get_artifact(COST_PROFILE_ARTIFACT)
            .ok()
            .and_then(|bytes| String::from_utf8(bytes).ok())
            .and_then(|text| CostProfile::parse_text(&text));
        let dense =
            checkpoint_cuts_provable(profile.as_ref(), &main_loop_blocks(&inst.program), store);
        let plan = flor_analysis::slice_program(&inst.program, &probed, &inst.blocks, dense);
        if plan.is_active() {
            flor_lang::print_program(&flor_lang::prune_program(&inst.program, &plan.dead))
        } else {
            flor_lang::print_program(&inst.program)
        }
    } else {
        flor_lang::print_program(&inst.program)
    };
    Some(crate::record::fnv1a64(canonical.as_bytes()))
}

/// The deferred correctness check (paper §5.2.2): "at the end of replay, we
/// run diff, and warn the user if the replay logs differ from the record
/// logs in any way other than the statements added for hindsight logging."
///
/// Comparison semantics: for every `(key, section)` pair that produced
/// output in **both** runs, the value sequences must match exactly. Pairs
/// only in the record log were skipped by memoization (fine); pairs only in
/// the replay log are hindsight probes (fine). Probes should therefore use
/// fresh keys — reusing a recorded key inside a re-executed section is
/// reported as an anomaly.
pub fn deferred_check(record: &[LogEntry], replay: &[LogEntry]) -> Vec<String> {
    type KeySec = (String, Section);
    fn group(entries: &[LogEntry]) -> BTreeMap<KeySec, Vec<&str>> {
        let mut map: BTreeMap<KeySec, Vec<&str>> = BTreeMap::new();
        for e in entries {
            map.entry((e.key.clone(), e.section))
                .or_default()
                .push(e.value.as_str());
        }
        map
    }
    let rec = group(record);
    let rep = group(replay);
    let mut anomalies = Vec::new();
    for ((key, section), rec_vals) in &rec {
        if let Some(rep_vals) = rep.get(&(key.clone(), *section)) {
            if rec_vals != rep_vals {
                anomalies.push(format!(
                    "fingerprint divergence at key {key:?} {section:?}: \
                     record {rec_vals:?} vs replay {rep_vals:?}"
                ));
            }
        }
    }
    anomalies
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{record, tests::opts_exact};

    fn tmproot(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "flor-replay-test-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    const TRAIN_SRC: &str = crate::record::tests::TRAIN_SRC;

    /// TRAIN_SRC with an outer-loop probe (outside the skipblock).
    fn outer_probed() -> String {
        let probed = TRAIN_SRC.replace(
            "    log(\"loss\", avg.mean())\n",
            "    log(\"loss\", avg.mean())\n    log(\"hindsight_wnorm\", net.weight_norm())\n",
        );
        assert_ne!(probed, TRAIN_SRC, "probe marker must match");
        probed
    }

    /// TRAIN_SRC with an inner-loop probe (inside the skipblock).
    fn inner_probed() -> String {
        let probed = TRAIN_SRC.replace(
            "        optimizer.step()\n",
            "        optimizer.step()\n        log(\"hindsight_gnorm\", net.grad_norm())\n",
        );
        assert_ne!(probed, TRAIN_SRC, "probe marker must match");
        probed
    }

    #[test]
    fn unchanged_replay_matches_record_exactly() {
        let root = tmproot("unchanged");
        let rec = record(TRAIN_SRC, &opts_exact(&root)).unwrap();
        let rep = replay(TRAIN_SRC, &root, &ReplayOptions::default()).unwrap();
        assert!(rep.anomalies.is_empty(), "{:?}", rep.anomalies);
        assert!(rep.probes.is_empty());
        assert_eq!(rep.log, rec.log);
        // All 6 epochs restored, none executed: pure physical recovery.
        assert_eq!(rep.stats.restored, 6);
        assert_eq!(rep.stats.executed, 0);
        // Every main-loop restore is on the worker's prefetch schedule,
        // so every one is served by the prefetcher — no race decides it.
        assert_eq!(rep.stats.prefetch_hits, rep.stats.restored);
    }

    /// A fine-tuning-regime script (the paper's RTE/CoLA-miniature): a
    /// frozen backbone with 20k ballast weights dominates checkpoint
    /// size, while SGD only moves the small trainable head. Successive
    /// Loop End Checkpoints are therefore near-identical — the workload
    /// delta chains exist for. (TRAIN_SRC trains every weight from
    /// scratch at lr=0.1; its checkpoints rewrite most payload bytes per
    /// epoch, and the store correctly keeps those as keyframes.)
    const FINETUNE_SRC: &str = "\
import flor
data = synth_data(n=60, dim=8, classes=3, spread=0.25, seed=7)
loader = dataloader(data, batch_size=20, seed=7)
net = finetune(input=8, hidden=32, classes=3, ballast=20000, seed=7)
optimizer = sgd(net, lr=0.01)
criterion = cross_entropy()
avg = meter()
for epoch in range(6):
    avg.reset()
    for batch in loader.epoch():
        waste = busy(2)
        optimizer.zero_grad()
        preds = net.forward(batch)
        loss = criterion.forward(preds, batch)
        grad = criterion.backward()
        net.backward(grad)
        optimizer.step()
        avg.update(loss)
    log(\"loss\", avg.mean())
acc = evaluate(net, data)
log(\"accuracy\", acc)
";

    #[test]
    fn delta_chained_record_replays_bit_identically() {
        // Fine-tuning epochs drift checkpoints slightly, so record lands
        // most of them as delta frames; replay must restore through the
        // chains bit-for-bit and attribute the chain work in its stats.
        let root = tmproot("delta-chain");
        let rec = record(FINETUNE_SRC, &opts_exact(&root)).unwrap();
        let store = CheckpointStore::open_read_only(&root).unwrap();
        let s = store.stats();
        drop(store);
        assert!(
            s.delta_entries >= 3,
            "fine-tuning checkpoints should chain: {s:?}"
        );
        // Every weight still moves each epoch (the mantissa lanes stay
        // random), so the win here is real but bounded — unlike the
        // sparse-drift fixtures that reach multiples.
        assert!(s.stored_bytes * 10 < s.raw_bytes * 9, "{s:?}");
        let rep = replay(FINETUNE_SRC, &root, &ReplayOptions::default()).unwrap();
        assert!(rep.anomalies.is_empty(), "{:?}", rep.anomalies);
        assert_eq!(rep.log, rec.log);
        assert_eq!(rep.stats.restored, 6);
        assert!(
            rep.stats.delta_restores >= 3,
            "chain restores must be attributed: {:?}",
            rep.stats
        );
        assert!(rep.stats.chain_links >= rep.stats.delta_restores);
    }

    #[test]
    fn outer_probe_skips_all_inner_loops() {
        let root = tmproot("outer");
        let rec = record(TRAIN_SRC, &opts_exact(&root)).unwrap();
        let rep = replay(&outer_probed(), &root, &ReplayOptions::default()).unwrap();
        assert!(rep.anomalies.is_empty(), "{:?}", rep.anomalies);
        assert_eq!(rep.probes.len(), 1);
        assert_eq!(rep.probes[0].skipblock_id, None, "outer probe");
        // Partial replay: every training loop restored.
        assert_eq!(rep.stats.restored, 6);
        assert_eq!(rep.stats.executed, 0);
        // The probe produced one value per epoch.
        let hindsight = rep.hindsight_entries(&rec.log);
        assert_eq!(hindsight.len(), 6);
        assert!(hindsight.iter().all(|e| e.key == "hindsight_wnorm"));
    }

    #[test]
    fn inner_probe_reexecutes_training_loops() {
        let root = tmproot("inner");
        let rec = record(TRAIN_SRC, &opts_exact(&root)).unwrap();
        let rep = replay(&inner_probed(), &root, &ReplayOptions::default()).unwrap();
        assert!(rep.anomalies.is_empty(), "{:?}", rep.anomalies);
        assert_eq!(rep.probes.len(), 1);
        assert_eq!(rep.probes[0].skipblock_id.as_deref(), Some("sb_0"));
        // Probed blocks re-execute.
        assert_eq!(rep.stats.executed, 6);
        assert_eq!(rep.stats.restored, 0);
        // 3 batches per epoch × 6 epochs of grad-norm probes.
        let hindsight = rep.hindsight_entries(&rec.log);
        assert_eq!(hindsight.len(), 18);
    }

    #[test]
    fn inner_probe_replay_reproduces_recorded_fingerprint() {
        // Re-executed loops must produce bit-identical losses.
        let root = tmproot("fingerprint");
        let rec = record(TRAIN_SRC, &opts_exact(&root)).unwrap();
        let rep = replay(&inner_probed(), &root, &ReplayOptions::default()).unwrap();
        let rec_losses: Vec<_> = rec.log.iter().filter(|e| e.key == "loss").collect();
        let rep_losses: Vec<_> = rep.log.iter().filter(|e| e.key == "loss").collect();
        assert_eq!(rec_losses, rep_losses);
    }

    #[test]
    fn stealing_replay_merges_to_identical_log() {
        // The cost-aware work-stealing executor must produce the exact
        // sequential log for every worker count and both probe positions.
        let root = tmproot("steal");
        record(TRAIN_SRC, &opts_exact(&root)).unwrap();
        for probed in [inner_probed(), outer_probed()] {
            let seq = replay(&probed, &root, &ReplayOptions::default()).unwrap();
            for workers in [2usize, 3, 4, 8] {
                let par = replay(&probed, &root, &ReplayOptions::with_stealing(workers)).unwrap();
                assert!(
                    par.anomalies.is_empty(),
                    "{workers} workers: {:?}",
                    par.anomalies
                );
                assert_eq!(par.log, seq.log, "{workers}-worker stealing merge");
                assert!(par.stats.ranges_executed >= 1);
            }
        }
    }

    #[test]
    fn stealing_weak_init_matches_strong() {
        let root = tmproot("steal-weak");
        record(TRAIN_SRC, &opts_exact(&root)).unwrap();
        let strong = replay(&inner_probed(), &root, &ReplayOptions::with_stealing(3)).unwrap();
        let weak = replay(
            &inner_probed(),
            &root,
            &ReplayOptions {
                workers: 3,
                init_mode: InitMode::Weak,
                steal: true,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(weak.anomalies.is_empty(), "{:?}", weak.anomalies);
        assert_eq!(weak.log, strong.log);
    }

    #[test]
    fn stealing_poisoned_reuse_matches_static() {
        // Non-hindsight edits poison checkpoint reuse; the stealing
        // executor must full-re-execute to the same log the static one
        // does, and still surface the poisoning anomaly.
        let root = tmproot("steal-poison");
        record(TRAIN_SRC, &opts_exact(&root)).unwrap();
        let edited = TRAIN_SRC.replace("lr=0.1", "lr=0.05");
        let stat = replay(&edited, &root, &ReplayOptions::with_workers(3)).unwrap();
        let steal = replay(&edited, &root, &ReplayOptions::with_stealing(3)).unwrap();
        assert_eq!(steal.log, stat.log);
        assert!(!steal.anomalies.is_empty(), "poisoning must be surfaced");
        assert!(
            steal.anomalies[0].contains("source changed"),
            "{:?}",
            steal.anomalies
        );
        assert_eq!(steal.stats.restored, 0);
        // Weak init anchors on checkpoint restores, which poisoning
        // disables — replay must fall back to strong rolling
        // re-execution and still match, static or stealing.
        for steal_on in [false, true] {
            let weak = replay(
                &edited,
                &root,
                &ReplayOptions {
                    workers: 3,
                    init_mode: InitMode::Weak,
                    steal: steal_on,
                    ..Default::default()
                },
            )
            .unwrap();
            assert_eq!(weak.log, stat.log, "weak+poisoned steal={steal_on}");
            assert_eq!(weak.stats.restored, 0);
        }
    }

    #[test]
    fn record_persists_cost_profile_artifact() {
        let root = tmproot("profile-artifact");
        record(TRAIN_SRC, &opts_exact(&root)).unwrap();
        let store = CheckpointStore::open(&root).unwrap();
        let text = String::from_utf8(
            store
                .get_artifact(crate::profile::COST_PROFILE_ARTIFACT)
                .unwrap(),
        )
        .unwrap();
        let profile = crate::profile::CostProfile::parse_text(&text).unwrap();
        assert_eq!(profile.len(), 6, "one entry per epoch");
        for it in &profile.iters {
            assert!(it.compute_ns > 0);
            assert!(
                it.fully_checkpointed(),
                "adaptivity off → every epoch checkpointed"
            );
        }
    }

    #[test]
    fn streaming_replay_delivers_entries_and_progress() {
        let root = tmproot("streaming");
        record(TRAIN_SRC, &opts_exact(&root)).unwrap();
        let store = Arc::new(CheckpointStore::open(&root).unwrap());
        let mut streamed: Vec<LogEntry> = Vec::new();
        let mut progress_seen = 0u64;
        let mut last_total = 0u64;
        let report = replay_streaming(
            &inner_probed(),
            store,
            &ReplayOptions::with_stealing(3),
            |ev| match ev {
                crate::stream::StreamEvent::Entries(chunk) => {
                    streamed.extend(chunk.iter().cloned())
                }
                crate::stream::StreamEvent::Progress {
                    iterations_done,
                    iterations_total,
                    ..
                } => {
                    progress_seen += 1;
                    assert!(iterations_done <= iterations_total.max(iterations_done));
                    last_total = iterations_total;
                }
                crate::stream::StreamEvent::Anomaly(a) => panic!("unexpected anomaly: {a}"),
            },
        )
        .unwrap();
        assert_eq!(
            streamed, report.log,
            "streamed chunks concatenate to the final log"
        );
        assert!(progress_seen >= 1, "at least one progress event per range");
        assert_eq!(last_total, 6);
        assert!(report.stats.stream_first_entry_ns > 0);
        assert!(
            report.stats.stream_first_entry_ns <= report.wall_ns,
            "first entry must not be after the replay finished"
        );
    }

    #[test]
    fn parallel_replay_merges_to_identical_log() {
        let root = tmproot("parallel");
        record(TRAIN_SRC, &opts_exact(&root)).unwrap();
        let seq = replay(&inner_probed(), &root, &ReplayOptions::default()).unwrap();
        for workers in [2usize, 3, 4] {
            let par = replay(
                &inner_probed(),
                &root,
                &ReplayOptions::with_workers(workers),
            )
            .unwrap();
            assert!(
                par.anomalies.is_empty(),
                "{workers} workers: {:?}",
                par.anomalies
            );
            assert_eq!(
                par.log, seq.log,
                "{workers}-worker merge must equal sequential replay"
            );
        }
    }

    #[test]
    fn parallel_plans_partition_the_epochs() {
        let root = tmproot("plans");
        record(TRAIN_SRC, &opts_exact(&root)).unwrap();
        let rep = replay(&inner_probed(), &root, &ReplayOptions::with_workers(3)).unwrap();
        let mut covered: Vec<u64> = rep
            .worker_plans
            .iter()
            .flatten()
            .flat_map(|p| p.work_iters())
            .collect();
        covered.sort_unstable();
        assert_eq!(covered, (0..6).collect::<Vec<_>>());
    }

    #[test]
    fn weak_init_matches_strong_init() {
        let root = tmproot("weak");
        record(TRAIN_SRC, &opts_exact(&root)).unwrap();
        let strong = replay(&inner_probed(), &root, &ReplayOptions::with_workers(3)).unwrap();
        let weak = replay(
            &inner_probed(),
            &root,
            &ReplayOptions {
                workers: 3,
                init_mode: InitMode::Weak,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(weak.anomalies.is_empty(), "{:?}", weak.anomalies);
        assert_eq!(weak.log, strong.log);
    }

    #[test]
    fn non_hindsight_change_forces_full_reexecution() {
        let root = tmproot("poison");
        record(TRAIN_SRC, &opts_exact(&root)).unwrap();
        let edited = TRAIN_SRC.replace("lr=0.1", "lr=0.05");
        let rep = replay(&edited, &root, &ReplayOptions::default()).unwrap();
        assert!(!rep.other_changes.is_empty());
        assert!(!rep.anomalies.is_empty(), "change must be surfaced");
        // No checkpoint reuse…
        assert_eq!(rep.stats.restored, 0);
        assert_eq!(rep.stats.executed, 6);
    }

    #[test]
    fn corrupted_checkpoint_surfaces_as_error_or_anomaly() {
        let root = tmproot("corrupt");
        record(TRAIN_SRC, &opts_exact(&root)).unwrap();
        // Corrupt the middle half of every checkpoint segment on disk:
        // several epochs' payloads are guaranteed to be hit.
        for entry in std::fs::read_dir(root.join("seg")).unwrap() {
            let path = entry.unwrap().path();
            let mut bytes = std::fs::read(&path).unwrap();
            let n = bytes.len();
            for b in &mut bytes[n / 4..3 * n / 4] {
                *b ^= 0xff;
            }
            std::fs::write(&path, &bytes).unwrap();
        }
        // Restoring it must error loudly (CRC), not silently diverge.
        let result = replay(TRAIN_SRC, &root, &ReplayOptions::default());
        assert!(result.is_err(), "corrupt checkpoint must not restore");
    }

    #[test]
    fn deferred_check_semantics() {
        use Section::*;
        let rec = vec![
            LogEntry {
                key: "loss".into(),
                value: "0.5".into(),
                section: Iter(0),
            },
            LogEntry {
                key: "loss".into(),
                value: "0.4".into(),
                section: Iter(1),
            },
            LogEntry {
                key: "skipped".into(),
                value: "x".into(),
                section: Iter(0),
            },
        ];
        // Replay skipped "skipped", re-produced loss@0, added a probe.
        let rep_ok = vec![
            LogEntry {
                key: "loss".into(),
                value: "0.5".into(),
                section: Iter(0),
            },
            LogEntry {
                key: "loss".into(),
                value: "0.4".into(),
                section: Iter(1),
            },
            LogEntry {
                key: "probe".into(),
                value: "p".into(),
                section: Iter(0),
            },
        ];
        assert!(deferred_check(&rec, &rep_ok).is_empty());
        // Divergent value → anomaly.
        let rep_bad = vec![LogEntry {
            key: "loss".into(),
            value: "0.9".into(),
            section: Iter(0),
        }];
        let anomalies = deferred_check(&rec, &rep_bad);
        assert_eq!(anomalies.len(), 1);
        assert!(anomalies[0].contains("loss"));
    }
}
