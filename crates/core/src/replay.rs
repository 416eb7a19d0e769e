//! The replay phase (paper §3.2) and deferred correctness checks (§5.2.2).
//!
//! "Model developers probe training execution data by adding logging
//! statements into the code. At analysis time, following the insertion of
//! hindsight logging statements, Flor recovers selected execution data via
//! fast re-execution […] combining partial and parallel replay."
//!
//! There is one replay path and one oracle:
//!
//! 1. [`ReplayPlan::build`] is the whole front end, run once per query:
//!    instrument the *new* source exactly as record did and structurally
//!    diff it against the recorded one — added log statements become
//!    probes, attributed to their enclosing SkipBlock; anything else
//!    poisons checkpoint reuse — then slice the program down to the
//!    dependency cone of its log statements, and decide whether the
//!    postamble (the code after the main loop) runs at all: it is
//!    *memoized* — not compiled, its recorded log emitted instead — when
//!    no probe can change what it prints ([`Postamble`]). Every later
//!    decision (which blocks restore, whether a worker may rewind or jump
//!    to an anchor, where a range's initialization starts, how ranges are
//!    priced) is a method on the plan.
//! 2. [`replay_plan`] compiles the sliced program to bytecode and runs `G`
//!    workers against a shared [`ReplayRuntime`]: each pulls cost-sized
//!    micro-ranges off the work-stealing queue (seeded contiguously to
//!    preserve strong/weak initialization semantics and checkpoint-restore
//!    locality; drained workers take load off stragglers). Sampling
//!    replay ([`crate::sample`]) runs the same executor over a queue
//!    seeded with one range per sampled iteration.
//! 3. Completed ranges stream into the incremental merger, which emits the
//!    record-order prefix as soon as it is contiguous — no barrier join —
//!    and runs the deferred correctness check on that prefix: the replayed
//!    fingerprint must match the record log everywhere both produced
//!    output. A memoized postamble's recorded entries follow the last
//!    iteration's.
//!
//! [`replay_reference`] is the oracle the tests compare that path against:
//! one worker tree-walking the *unsliced* instrumented program, preamble
//! and postamble included.

use crate::error::FlorError;
use crate::interp::{Interp, Mode, ReplayCtx, ReplayStats};
use crate::logstream::{LogEntry, LogStream, Section};
use crate::parallel::{seed_cost_ranges, InitMode, MicroRange, RangeQueue};
use crate::profile::{sliced_cost, CostProfile, COST_PROFILE_ARTIFACT};
use crate::record::{fnv1a64, source_version};
use crate::stream::{RangeSink, StreamEvent, StreamMsg, StreamingMerger};
use crate::vm::ModuleCache;
use flor_analysis::instrument::instrument;
use flor_analysis::{probe_mutating_call, SlicePlan};
use flor_chkpt::CheckpointStore;
use flor_lang::ast::{Expr, Program, Stmt};
use flor_lang::compile::{path_step, Module};
use flor_lang::{diff_programs, parse, print_program, prune_program, DiffReport, ProbeSite};
use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::path::PathBuf;
use std::sync::Arc;

/// Knobs for a replay run.
#[derive(Debug, Clone)]
pub struct ReplayOptions {
    /// Number of parallel workers (the paper's NGPUS).
    pub workers: usize,
    /// Worker initialization strategy (default Strong, as in the paper).
    pub init_mode: InitMode,
    /// Compiled-module cache shared across replay jobs, keyed by
    /// the plan's module key (source version, slice hash, memoized
    /// postamble). None compiles fresh per job (still
    /// once, shared by all workers of the job).
    pub module_cache: Option<Arc<crate::vm::ModuleCache>>,
    /// Cooperative cancellation. When set, workers poll the token at
    /// range-pull and per-iteration boundaries and the replay fails fast
    /// with [`FlorError::Cancelled`] instead of running to completion.
    pub cancel: Option<crate::parallel::CancelToken>,
}

impl Default for ReplayOptions {
    fn default() -> Self {
        ReplayOptions::with_workers(1)
    }
}

impl ReplayOptions {
    /// Replay with `workers` parallel workers, strong initialization.
    pub fn with_workers(workers: usize) -> Self {
        ReplayOptions {
            workers,
            init_mode: InitMode::Strong,
            module_cache: None,
            cancel: None,
        }
    }

    /// Alias of [`ReplayOptions::with_workers`]; exists only because
    /// `benchmark/src/layers.rs` calls it, to be dropped by a later
    /// benchmark-only PR.
    #[doc(hidden)]
    pub fn with_stealing(workers: usize) -> Self {
        Self::with_workers(workers)
    }
}

/// Whether replay runs the postamble — the top-level code after the main
/// loop — or emits what it printed at record time.
///
/// `record_log.txt` is written only after a run completes, so its `Post`
/// section is the postamble's whole output. The paper's memoization
/// argument (a block whose side effects are known need not run again)
/// then applies one level above SkipBlocks: the postamble is
/// [`Postamble::Memoized`] when
///
/// - (a) the diff is pure hindsight,
/// - (b) the program has exactly one `flor.partition` loop, at top level,
/// - (c) the new postamble is structurally the recorded one (no probe
///   lands there), and
/// - (d) every probe is read-only ([`probe_mutating_call`]),
///
/// because then it reads what it read at record time and prints what it
/// printed then. Otherwise it runs, and the plan says why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Postamble {
    /// Not compiled and not run: the merger emits the record log's `Post`
    /// entries once the last iteration's are out.
    Memoized,
    /// Run, for the reason given.
    Executed(String),
}

impl Default for Postamble {
    fn default() -> Self {
        Postamble::Executed("no plan was built".into())
    }
}

/// Every front-end decision of one hindsight query, made once by
/// [`ReplayPlan::build`] and shared (behind an `Arc`) by the registry's
/// cache lookup, the driver and every worker.
#[derive(Debug, Default)]
pub struct ReplayPlan {
    /// The source diff: probes, and the non-hindsight changes that poison
    /// checkpoint reuse.
    pub(crate) diff: DiffReport,
    /// SkipBlocks probed by hindsight log statements.
    pub(crate) probed_blocks: HashSet<String>,
    /// SkipBlock ids nested inside the main (partition-wrapped) loop.
    pub(crate) main_blocks: Vec<String>,
    /// The main loop carries state across iterations outside every
    /// skipblock changeset (`analysis::outer_carried_state`).
    pub(crate) outer_carried: bool,
    /// What the slicer decided, including why it refused if it did.
    pub(crate) slice: SlicePlan,
    /// Whether the postamble runs; see [`ReplayPlan::postamble`].
    pub(crate) postamble: Postamble,
    /// The instrumented new program: what the VM compiles (minus
    /// `slice.dead` and a memoized postamble) and the reference
    /// tree-walks in full.
    pub(crate) program: Program,
    /// The run's recorded per-iteration costs, if it has any.
    pub(crate) profile: Option<CostProfile>,
    /// See [`ReplayPlan::fingerprint`].
    pub(crate) fingerprint: Option<u64>,
    /// Key of this query's compiled module in a [`ModuleCache`]: the
    /// source version, plus `+s<fingerprint>` when the slice elides
    /// statements and `+p` when the postamble is memoized.
    pub(crate) module_key: String,
}

impl ReplayPlan {
    /// Fetches the recorded source and cost profile of `store`'s run and
    /// builds the plan for `new_src` against them.
    pub fn prepare(store: &CheckpointStore, new_src: &str) -> Result<ReplayPlan, FlorError> {
        let recorded_src = String::from_utf8(store.get_artifact("source.flr")?)
            .map_err(|_| crate::error::rt("recorded source is not valid UTF-8"))?;
        let profile = store
            .get_artifact(COST_PROFILE_ARTIFACT)
            .ok()
            .and_then(|bytes| String::from_utf8(bytes).ok())
            .and_then(|text| CostProfile::parse_text(&text));
        ReplayPlan::build(&recorded_src, new_src, profile, |b, g| store.contains(b, g))
    }

    /// The front end, pure: no store, no filesystem. `has_checkpoint`
    /// answers whether block `id` still has its checkpoint at iteration
    /// `g` — the profile only records what record intended, and a
    /// checkpoint lost since (manual pruning, GC of a corrupt entry)
    /// re-executes its block, which a cut computed under the restore
    /// assumption would have starved of statements.
    pub fn build(
        recorded_src: &str,
        new_src: &str,
        profile: Option<CostProfile>,
        has_checkpoint: impl Fn(&str, u64) -> bool,
    ) -> Result<ReplayPlan, FlorError> {
        flor_obs::counter!("replay.plans").inc();
        let recorded_prog = parse(recorded_src)?;
        let inst = instrument(&parse(new_src)?);
        let diff = diff_programs(&recorded_prog, &inst.program);
        let probed_blocks: HashSet<String> = diff
            .probes
            .iter()
            .filter_map(|p| p.skipblock_id.clone())
            .collect();
        let main_blocks = main_loop_blocks(&inst.program);
        let cuts_provable = profile.as_ref().is_some_and(|p| {
            p.dense_checkpoints()
                && main_blocks
                    .iter()
                    .all(|b| (0..p.len() as u64).all(|g| has_checkpoint(b, g)))
        });
        // An impure diff re-executes everything, including non-cone
        // statements whose effects checkpoints would otherwise supersede:
        // nothing may be elided, and the result is never memoized.
        let slice = if diff.is_pure_hindsight() {
            let mut span = flor_obs::span(flor_obs::Category::Slice, "slice");
            let ts = flor_obs::clock::now_ns();
            let slice = flor_analysis::slice_program(
                &inst.program,
                &probed_blocks,
                &inst.blocks,
                cuts_provable,
            );
            flor_obs::counter!("slice.compile_ns").add(flor_obs::clock::since_ns(ts));
            span.set_args(u64::from(slice.elided_stmts), u64::from(slice.region_stmts));
            slice
        } else {
            SlicePlan {
                fallback: Some("source changed beyond hindsight logging".into()),
                ..SlicePlan::default()
            }
        };
        if slice.fallback.is_some() {
            flor_obs::counter!("slice.refusals").inc();
            let region = u64::from(slice.region_stmts);
            flor_obs::instant(flor_obs::Category::Slice, "slice_refused", region, 0);
        }
        let postamble = postamble_rule(&recorded_prog, &inst.program, &diff);
        // The slice class: textually different probes that parse,
        // instrument and slice to the same live cone print the same
        // canonical program. A sliced module is cached under the source
        // version plus that hash, so full and differently-sliced modules
        // of one source coexist.
        let mut module_key = source_version(new_src);
        let mut fingerprint = None;
        if diff.is_pure_hindsight() {
            let canonical = if slice.is_active() {
                print_program(&prune_program(&inst.program, &slice.dead))
            } else {
                print_program(&inst.program)
            };
            let hash = fnv1a64(canonical.as_bytes());
            if slice.is_active() {
                module_key.push_str(&format!("+s{hash:016x}"));
            }
            fingerprint = Some(hash);
        }
        // A module without its postamble must never be served to a replay
        // that runs it — the same text against another run, say, where
        // the diff is impure — so the key names the elision.
        if postamble == Postamble::Memoized {
            module_key.push_str("+p");
        }
        Ok(ReplayPlan {
            outer_carried: flor_analysis::outer_carried_state(&inst.program, &inst.blocks)
                .is_some(),
            diff,
            probed_blocks,
            main_blocks,
            slice,
            postamble,
            program: inst.program,
            profile,
            fingerprint,
            module_key,
        })
    }

    /// The slicer's plan; `fallback` says why it refused, if it did.
    pub fn slice(&self) -> &SlicePlan {
        &self.slice
    }

    /// Content fingerprint of the *semantic* replay this query induces:
    /// the FNV hash of the canonical print of the sliced (falling back to
    /// the full) instrumented program — the registry's slice-class cache
    /// key. `None` when the diff is not pure hindsight (poisoned replays
    /// are never memoized).
    pub fn fingerprint(&self) -> Option<u64> {
        self.fingerprint
    }

    /// Whether production replay runs the postamble, and why if it does.
    /// The reference ignores this and always runs it.
    pub fn postamble(&self) -> &Postamble {
        &self.postamble
    }

    /// Lowers what production replay executes to bytecode — the program
    /// minus the slice's dead statements and, when memoized, minus the
    /// postamble — through `cache` under the plan's module key when given.
    pub fn compile(&self, cache: Option<&ModuleCache>) -> Result<Arc<Module>, FlorError> {
        let mut dead = Cow::Borrowed(&self.slice.dead);
        if self.postamble == Postamble::Memoized {
            let body = &self.program.body;
            if let Some(main) = body.iter().position(is_partition_loop) {
                let post = (main + 1..body.len()).map(|i| vec![path_step(0, i)]);
                dead.to_mut().extend(post);
            }
        }
        match cache {
            Some(cache) => cache.get_or_compile_sliced(&self.module_key, &self.program, &dead),
            None => crate::vm::compile_program_sliced(&self.program, &dead),
        }
    }

    /// Non-hindsight source changes were detected: no checkpoint may be
    /// reused, every block executes.
    pub(crate) fn force_execute_all(&self) -> bool {
        !self.diff.is_pure_hindsight()
    }

    /// Whether checkpoint restores alone rebuild the main loop's state.
    /// Poisoned reuse re-executes instead of restoring, and loop-carried
    /// state outside every skipblock changeset is repaired by no restore;
    /// either way, skipping iterations on the strength of restores (an
    /// anchor jump, a rewind) starts from the wrong state.
    fn restores_rebuild_state(&self) -> bool {
        !self.force_execute_all() && !self.outer_carried
    }

    /// The initialization mode workers actually use: weak init's anchor
    /// jump is sound only where restores rebuild the loop state; elsewhere
    /// the only sound initialization is strong rolling re-execution.
    pub fn init_mode(&self, requested: InitMode) -> InitMode {
        if self.restores_rebuild_state() {
            requested
        } else {
            InitMode::Strong
        }
    }

    /// Whether a worker may take a range *behind* its current state:
    /// rewinding rebuilds earlier state by restores from iteration 0.
    pub(crate) fn rewind_ok(&self) -> bool {
        self.restores_rebuild_state()
    }

    /// The iteration a range's initialization segment starts from, for a
    /// worker whose program state sits at `state_at` (exclusive bound of
    /// the iterations applied) and a range starting at `start`. Strong
    /// init rolls forward from `state_at`, or from 0 when `state_at` is
    /// past `start`. Weak init takes the cheaper of rolling forward and
    /// jumping to `a - 1`, where `a` is the nearest of `anchors` at or
    /// before `start` (iteration `a - 1`'s Loop End Checkpoint exists).
    pub fn init_start(
        &self,
        mode: InitMode,
        state_at: u64,
        start: u64,
        anchors: &BTreeSet<u64>,
    ) -> u64 {
        let forward = (state_at <= start).then_some(state_at);
        match mode {
            InitMode::Strong => forward.unwrap_or(0),
            InitMode::Weak => {
                let anchor = anchors.range(..=start).next_back().copied();
                let jump = anchor.unwrap_or(0).saturating_sub(1);
                forward.map_or(jump, |s| s.max(jump))
            }
        }
    }

    /// Per-iteration cost estimates that price `0..n` for range seeding
    /// (empty = uniform, when the run has no profile). Iterations replay
    /// will *execute* (probed, poisoned or unmemoized) cost their
    /// recorded compute time scaled by the slice's live fraction — the
    /// profile measured the full body — and restored ones `c·M_i`.
    pub(crate) fn range_costs(&self, n: u64) -> Vec<u64> {
        let executes = self.force_execute_all()
            || self.main_blocks.is_empty()
            || self
                .main_blocks
                .iter()
                .any(|b| self.probed_blocks.contains(b));
        let mut costs = self
            .profile
            .as_ref()
            .map(|p| p.replay_costs(n, executes))
            .unwrap_or_default();
        let live = self.slice.live_permille();
        if executes && live < 1000 {
            for c in &mut costs {
                *c = sliced_cost(*c, live);
            }
        }
        costs
    }

    /// Iterations `g` at which every main-loop block has a Loop End
    /// Checkpoint — the only places weak initialization may start a work
    /// segment after (paper §5.4.2: weak init "depends entirely on a
    /// checkpoint").
    pub fn anchors(
        &self,
        n_iters: u64,
        has_checkpoint: impl Fn(&str, u64) -> bool,
    ) -> BTreeSet<u64> {
        let mut anchors = BTreeSet::new();
        anchors.insert(0);
        if self.main_blocks.is_empty() {
            // No memoized blocks: any boundary is as good as any other
            // (workers re-execute from scratch anyway).
            anchors.extend(1..n_iters);
            return anchors;
        }
        for g in 0..n_iters.saturating_sub(1) {
            if self.main_blocks.iter().all(|b| has_checkpoint(b, g)) {
                anchors.insert(g + 1);
            }
        }
        anchors
    }
}

/// Shared state of one replay run's worker pool: the work-stealing range
/// queue, seeded lazily by the first worker to reach the main loop (only
/// workers know the iteration count).
pub struct ReplayRuntime {
    /// The micro-range queue workers pull from.
    pub queue: RangeQueue,
    /// Worker count.
    pub workers: usize,
    /// Initialization mode in force ([`ReplayPlan::init_mode`]).
    pub init_mode: InitMode,
    /// Cancellation token for this replay, if the caller wants one.
    pub cancel: Option<crate::parallel::CancelToken>,
    /// Sampling replay (paper §8): when set, the queue holds one
    /// single-iteration range per listed iteration below the loop's
    /// length instead of a cover of the whole loop.
    pub(crate) sample: Option<BTreeSet<u64>>,
}

impl ReplayRuntime {
    /// Runtime for one replay of `plan` under `opts`, with the
    /// initialization mode the plan allows.
    pub fn new(plan: &ReplayPlan, opts: &ReplayOptions) -> Self {
        let workers = opts.workers.max(1);
        ReplayRuntime {
            queue: RangeQueue::new(workers),
            workers,
            init_mode: plan.init_mode(opts.init_mode),
            cancel: opts.cancel.clone(),
            sample: None,
        }
    }

    /// True once this replay's cancellation token (if any) has fired.
    pub fn cancelled(&self) -> bool {
        self.cancel.as_ref().is_some_and(|c| c.is_cancelled())
    }

    /// Computes the seed deques for an `n`-iteration main loop — called
    /// exactly once per replay, by whichever worker reaches the loop first
    /// (every worker would compute the same result): iterations are split
    /// into micro-ranges sized by [`ReplayPlan::range_costs`] and seeded
    /// contiguously, balanced by cost, with boundaries clamped to
    /// `anchors` under weak initialization. A sampled replay seeds worker
    /// 0 alone, with its iterations. Returns the deques plus the cost
    /// vector they were balanced by (the queue weighs victims with it).
    pub(crate) fn seed_ranges(
        &self,
        plan: &ReplayPlan,
        n: u64,
        anchors: &BTreeSet<u64>,
    ) -> (Vec<Vec<MicroRange>>, Vec<u64>) {
        let costs = plan.range_costs(n);
        let deques = match &self.sample {
            Some(iters) => {
                let one = |&g: &u64| MicroRange {
                    start: g,
                    end: g + 1,
                };
                vec![iters.range(..n).map(one).collect()]
            }
            None => {
                let anchors = (self.init_mode == InitMode::Weak).then_some(anchors);
                seed_cost_ranges(n, self.workers, &costs, anchors)
            }
        };
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
    /// Why the slicer refused to elide anything, if it did (`None` for a
    /// slice that applied, found nothing dead, or was never asked — the
    /// reference).
    pub slice_refusal: Option<String>,
    /// Whether the postamble ran or its recorded entries were emitted
    /// (the reference always runs it).
    pub postamble: Postamble,
    /// Wall-clock time of the replay, ns.
    pub wall_ns: u64,
}

/// `for v in flor.partition(inner):` — the main-loop form the interpreter
/// and the compiler hand to the range executor.
fn is_partition_loop(stmt: &Stmt) -> bool {
    matches!(
        stmt,
        Stmt::For { iter: Expr::Call { func, args }, .. }
            if args.len() == 1
                && matches!(
                    func.as_ref(),
                    Expr::Attr { obj, name } if name == "partition" && obj.as_name() == Some("flor")
                )
    )
}

/// `flor.partition` loops anywhere in `body`, nested ones included.
fn partition_loops(body: &[Stmt]) -> usize {
    body.iter()
        .map(|s| match s {
            Stmt::For { body, .. } => usize::from(is_partition_loop(s)) + partition_loops(body),
            Stmt::If { then, orelse, .. } => partition_loops(then) + partition_loops(orelse),
            Stmt::SkipBlock { body, .. } => partition_loops(body),
            _ => 0,
        })
        .sum()
}

/// The [`Postamble`] rule: the first of conditions (a)–(d) that fails
/// names why the postamble runs.
fn postamble_rule(recorded: &Program, new: &Program, diff: &DiffReport) -> Postamble {
    let executed = |why: &str| Postamble::Executed(why.into());
    if !diff.is_pure_hindsight() {
        return executed("source changed beyond hindsight logging");
    }
    let main = |p: &Program| p.body.iter().position(is_partition_loop);
    let (Some(rec_main), Some(new_main)) = (main(recorded), main(new)) else {
        return executed("no top-level flor.partition main loop");
    };
    if partition_loops(&new.body) > 1 {
        return executed("a second flor.partition loop");
    }
    if recorded.body[rec_main + 1..] != new.body[new_main + 1..] {
        return executed("a probe lands in the postamble");
    }
    match diff
        .probes
        .iter()
        .find_map(|p| probe_mutating_call(&p.stmt))
    {
        Some(call) => {
            Postamble::Executed(format!("a probe calls `{call}`, which may mutate state"))
        }
        None => Postamble::Memoized,
    }
}

/// SkipBlock ids nested inside the main (partition-wrapped) loop.
fn main_loop_blocks(prog: &Program) -> Vec<String> {
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
    for stmt in prog.body.iter().filter(|s| is_partition_loop(s)) {
        if let Stmt::For { body, .. } = stmt {
            collect(body, &mut out);
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
    let plan = Arc::new(ReplayPlan::prepare(&store, new_src)?);
    replay_plan(plan, store, opts, |_| {})
}

/// Executes an already-built plan (the registry builds it first, to look
/// the query's slice class up in its cache), streaming as it goes:
/// `on_event` receives record-order log-entry chunks as soon as the
/// leading contiguous prefix of iterations completes (long before the last
/// worker finishes), plus progress counters and incrementally-detected
/// anomalies. The returned report's log is the concatenation of the
/// streamed chunks. The sliced program is lowered
/// to bytecode once per job — every worker executes the same shared
/// module — and, when the caller provides a module cache, reused across
/// jobs under the plan's module key.
pub fn replay_plan(
    plan: Arc<ReplayPlan>,
    store: Arc<CheckpointStore>,
    opts: &ReplayOptions,
    mut on_event: impl FnMut(StreamEvent<'_>),
) -> Result<ReplayReport, FlorError> {
    let module = plan.compile(opts.module_cache.as_deref())?;
    let runtime = ReplayRuntime::new(&plan, opts);
    run_plan(plan, store, runtime, Some(module), &mut on_event)
}

/// The differential oracle: one worker tree-walking the *unsliced*
/// instrumented program, sharing only the front end, the skipblock
/// restore-or-execute rule and the merger with [`replay`]. Tests and
/// benches compare production replays against it byte for byte; `flor
/// replay --reference` is its one production caller.
pub fn replay_reference(
    new_src: &str,
    store_root: impl Into<PathBuf>,
) -> Result<ReplayReport, FlorError> {
    let store = Arc::new(CheckpointStore::open(store_root.into())?);
    let plan = Arc::new(ReplayPlan::prepare(&store, new_src)?);
    let runtime = ReplayRuntime::new(&plan, &ReplayOptions::default());
    run_plan(plan, store, runtime, None, &mut |_| {})
}

/// Runs `runtime`'s workers and the merger. `module` is what
/// [`ReplayPlan::compile`] lowered; `None` tree-walks `plan.program` in
/// full instead, postamble included.
pub(crate) fn run_plan(
    plan: Arc<ReplayPlan>,
    store: Arc<CheckpointStore>,
    runtime: ReplayRuntime,
    module: Option<Arc<Module>>,
    on_event: &mut dyn FnMut(StreamEvent<'_>),
) -> Result<ReplayReport, FlorError> {
    // The record log feeds the incremental deferred check, and stands in
    // for a memoized postamble.
    let record_log = LogStream::parse_text(
        &String::from_utf8(store.get_artifact("record_log.txt")?)
            .map_err(|_| crate::error::rt("record log is not valid UTF-8"))?,
    );
    let postamble = match module {
        Some(_) => plan.postamble.clone(),
        None => Postamble::Executed("the reference runs it in full".into()),
    };
    match &postamble {
        Postamble::Memoized => flor_obs::counter!("replay.postamble_memoized").inc(),
        Postamble::Executed(_) if module.is_some() => {
            flor_obs::counter!("replay.postamble_refusals").inc();
            let probes = plan.diff.probes.len() as u64;
            flor_obs::instant(flor_obs::Category::Slice, "postamble_refused", probes, 0);
        }
        Postamble::Executed(_) => {}
    }

    // Interpreter values are Rc-based (single-threaded by design, like
    // CPython); each worker owns a fresh interpreter inside its thread —
    // workers share nothing but the plan, the store and the range queue,
    // the coordination-free model of §5.4 plus one lock-guarded steal
    // point.
    let t0 = flor_obs::clock::now_ns();
    let delta_counters_before = store.delta_read_counters();
    let workers = runtime.workers;
    let runtime = Arc::new(runtime);
    let (tx, rx) = std::sync::mpsc::channel::<StreamMsg>();
    let mut handles = Vec::with_capacity(workers);
    for pid in 0..workers {
        let mut ctx = ReplayCtx::new(store.clone(), plan.clone(), pid);
        ctx.memoize_ctors = module.is_some();
        ctx.runtime = Some(runtime.clone());
        let sink = RangeSink::new(tx.clone());
        ctx.sink = Some(sink.clone());
        let module = module.clone();
        handles.push(std::thread::spawn(
            move || -> Result<ReplayStats, FlorError> {
                let plan = ctx.plan.clone();
                let mut interp = Interp::new(Mode::Replay(Box::new(ctx)));
                match &module {
                    Some(m) => interp.run_vm(m)?,
                    None => interp.run(&plan.program)?,
                }
                let Mode::Replay(ctx) = interp.mode else {
                    unreachable!()
                };
                // Whatever the main loop didn't drain: preamble entries of
                // a loop-less program, and the postamble (empty when
                // memoized or when this worker does not own the final
                // state, whose postamble is suppressed).
                let leftover = interp.log.into_entries();
                let (pre, post): (Vec<LogEntry>, Vec<LogEntry>) = leftover
                    .into_iter()
                    .partition(|e| e.section == Section::Pre);
                sink.send(StreamMsg::Pre { pid, entries: pre });
                sink.send(StreamMsg::Post { entries: post });
                Ok(ctx.stats)
            },
        ));
    }
    drop(tx);

    // Drive the incremental merger on this thread until every worker's
    // sink is gone; entries stream to the observer as prefixes complete.
    flor_obs::set_lane(flor_obs::trace::LANE_DRIVER, "driver");
    let mut merger = StreamingMerger::new(&record_log, t0, on_event);
    if postamble == Postamble::Memoized {
        merger.memoize_post();
    }
    merger.run(&rx);

    let mut stats = ReplayStats::default();
    for h in handles {
        let s = h
            .join()
            .map_err(|_| crate::error::rt("replay worker panicked"))??;
        stats.restored += s.restored;
        stats.executed += s.executed;
        stats.restore_ns += s.restore_ns;
        stats.ranges_executed += s.ranges_executed;
    }
    let (merged, mut anomalies, first_entry_ns) = merger.finish();
    stats.steals = runtime.queue.steals();
    stats.stream_first_entry_ns = first_entry_ns;
    // 0 is the "no slice applied" sentinel of both fields
    // (`slice_fraction` reads it as 1.0).
    if module.is_some() && plan.slice.is_active() {
        stats.statements_elided = u64::from(plan.slice.elided_stmts);
        stats.slice_permille = plan.slice.live_permille();
    }
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

    if plan.force_execute_all() {
        anomalies.insert(
            0,
            format!(
                "source changed beyond hindsight logging ({} change(s)); \
                 checkpoints were not reused",
                plan.diff.other_changes.len()
            ),
        );
    }

    Ok(ReplayReport {
        log: merged,
        probes: plan.diff.probes.clone(),
        other_changes: plan.diff.other_changes.clone(),
        anomalies,
        stats,
        slice_refusal: module.and(plan.slice.fallback.clone()),
        postamble,
        wall_ns,
    })
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
    use crate::record::{record, tests::opts_exact, RecordReport};

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

    /// Probe outputs only: replay entries whose key the record log never
    /// wrote.
    fn hindsight_entries<'a>(rep: &'a ReplayReport, rec: &RecordReport) -> Vec<&'a LogEntry> {
        let recorded = |e: &&LogEntry| rec.log.iter().any(|r| r.key == e.key);
        rep.log.iter().filter(|e| !recorded(e)).collect()
    }

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

    // ---- ReplayPlan::build: no store, no filesystem ------------------------

    /// What record would have saved as `source.flr` for `src`.
    fn recorded(src: &str) -> String {
        print_program(&instrument(&parse(src).unwrap()).program)
    }

    /// A profile claiming `n` fully checkpointed iterations.
    fn dense_profile(n: usize) -> Option<CostProfile> {
        let it = crate::profile::IterCost {
            compute_ns: 1000,
            materialize_ns: 10,
            blocks: 1,
            checkpointed_blocks: 1,
        };
        Some(CostProfile {
            iters: vec![it; n],
            scaling_c: 1.0,
        })
    }

    fn build(new_src: &str) -> ReplayPlan {
        ReplayPlan::build(&recorded(TRAIN_SRC), new_src, dense_profile(6), |_, _| true).unwrap()
    }

    #[test]
    fn plan_attributes_probes_and_allows_cuts() {
        let outer = build(&outer_probed());
        assert!(outer.probed_blocks.is_empty(), "outer probe");
        assert_eq!(outer.main_blocks, ["sb_0"]);
        assert!(
            outer.slice().is_active(),
            "checkpoint cuts elide the training loop"
        );
        assert!(!outer.force_execute_all() && outer.rewind_ok());

        let inner = build(&inner_probed());
        assert_eq!(inner.probed_blocks, HashSet::from(["sb_0".to_string()]));
        // Anchors follow the checkpoints that exist.
        assert_eq!(
            inner.anchors(6, |_, g| g != 2),
            BTreeSet::from([0, 1, 2, 4, 5])
        );
    }

    #[test]
    fn plan_for_an_impure_diff_poisons_reuse() {
        let plan = build(&TRAIN_SRC.replace("lr=0.1", "lr=0.05"));
        assert!(plan.force_execute_all());
        assert_eq!(plan.init_mode(InitMode::Weak), InitMode::Strong);
        assert_eq!(
            build(&inner_probed()).init_mode(InitMode::Weak),
            InitMode::Weak
        );
        assert!(!plan.rewind_ok());
        assert_eq!(
            plan.fingerprint(),
            None,
            "poisoned replays are never memoized"
        );
        assert!(plan.slice().fallback.is_some() && !plan.slice().is_active());
    }

    #[test]
    fn plan_forbids_rewinds_over_outer_carried_state() {
        // `carry` is rolled forward by the outer body and repaired by no
        // checkpoint restore.
        let src = "\
import flor
carry = 1
total = 0
boost = 0
for epoch in flor.partition(range(5)):
    carry = carry + boost
    for i in range(3):
        total = total + carry
        boost = boost + 1
    log(\"loss\", total)
";
        let plan = ReplayPlan::build(&recorded(src), src, None, |_, _| true).unwrap();
        assert!(plan.outer_carried && !plan.rewind_ok());
        assert!(!plan.force_execute_all());
        // An anchor jump skips the outer body just as a rewind does.
        assert_eq!(plan.init_mode(InitMode::Weak), InitMode::Strong);
    }

    #[test]
    fn plan_places_init_starts() {
        let plan = build(&inner_probed());
        let (strong, weak) = (InitMode::Strong, InitMode::Weak);
        let anchors = BTreeSet::from([0, 2, 5]);
        // Strong rolls forward, and rewinds to 0 from past the start.
        assert_eq!(plan.init_start(strong, 1, 4, &anchors), 1);
        assert_eq!(plan.init_start(strong, 5, 4, &anchors), 0);
        // Weak jumps to the nearest anchor's checkpoint (anchor 2 → 1)
        // unless rolling forward is no longer.
        assert_eq!(plan.init_start(weak, 0, 4, &anchors), 1);
        assert_eq!(plan.init_start(weak, 3, 4, &anchors), 3);
        assert_eq!(plan.init_start(weak, 4, 4, &anchors), 4);
        assert_eq!(plan.init_start(weak, 6, 4, &anchors), 1);
        assert_eq!(plan.init_start(weak, 6, 1, &anchors), 0);
    }

    #[test]
    fn plan_refuses_cuts_when_a_checkpoint_is_missing() {
        let probed = outer_probed();
        let gap = ReplayPlan::build(&recorded(TRAIN_SRC), &probed, dense_profile(6), |_, g| {
            g != 2
        })
        .unwrap();
        let dense = build(&probed);
        assert!(gap.slice().elided_stmts < dense.slice().elided_stmts);
        let unprofiled =
            ReplayPlan::build(&recorded(TRAIN_SRC), &probed, None, |_, _| true).unwrap();
        assert!(unprofiled.slice().elided_stmts < dense.slice().elided_stmts);
    }

    #[test]
    fn plan_fingerprint_names_the_live_cone_not_the_text() {
        let probed = inner_probed();
        let variant = probed.replace("import flor\n", "import flor\n\n");
        assert_ne!(variant, probed);
        let (a, b) = (build(&probed), build(&variant));
        assert!(a.fingerprint().is_some());
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.module_key, b.module_key, "modules key on the text");
        assert_ne!(a.fingerprint(), build(&outer_probed()).fingerprint());
    }

    #[test]
    fn plan_keys_are_the_bytes_existing_caches_hold() {
        // Computed at the commit before `ReplayPlan` existed, from
        // `slice_fingerprint` and the streaming replay's module key: a
        // registry `cache/` written then must keep hitting. The module
        // key gained `+p` when memoized postambles stopped being
        // compiled; it keys the in-memory `ModuleCache` only, which no
        // earlier process left behind.
        let plan = build(&inner_probed());
        assert_eq!(plan.fingerprint(), Some(0x21c9_b231_ca05_e7c6));
        assert_eq!(plan.module_key, "8030229ee8567a13+s21c9b231ca05e7c6+p");
    }

    #[test]
    fn plan_memoizes_the_postamble_only_when_no_probe_can_change_it() {
        let refused = |src: &str| match build(src).postamble() {
            Postamble::Executed(why) => why.clone(),
            Postamble::Memoized => panic!("memoized:\n{src}"),
        };
        for src in [
            outer_probed(),
            inner_probed(),
            TRAIN_SRC.replace(
                "avg = meter()\n",
                "avg = meter()\nlog(\"n\", net.num_params())\n",
            ),
        ] {
            assert_eq!(build(&src).postamble(), &Postamble::Memoized, "{src}");
        }
        let impure = TRAIN_SRC.replace("lr=0.1", "lr=0.05");
        assert!(refused(&impure).contains("beyond hindsight"));
        let in_post = format!("{TRAIN_SRC}log(\"late\", acc)\n");
        assert_eq!(refused(&in_post), "a probe lands in the postamble");
        let mutating = TRAIN_SRC.replace(
            "        optimizer.step()\n",
            "        optimizer.step()\n        log(\"m\", net.accuracy(batch))\n",
        );
        assert!(refused(&mutating).contains("`net.accuracy(batch)`"));
        // Unpartitioned programs have no "after the loop" to memoize.
        let flat = "x = 1\nlog(\"x\", x)\n";
        let plan = ReplayPlan::build(&recorded(flat), flat, None, |_, _| true).unwrap();
        assert!(matches!(plan.postamble(), Postamble::Executed(_)));
        // A second partition loop shares the sections of the first.
        let second = format!("{TRAIN_SRC}for k in flor.partition(range(2)):\n    busy(0)\n");
        let probed = second.replace(
            "    log(\"loss\", avg.mean())\n",
            "    log(\"loss\", avg.mean())\n    log(\"w\", net.weight_norm())\n",
        );
        let plan =
            ReplayPlan::build(&recorded(&second), &probed, dense_profile(6), |_, _| true).unwrap();
        let want = Postamble::Executed("a second flor.partition loop".into());
        assert_eq!(plan.postamble(), &want);
    }

    #[test]
    fn a_shared_module_cache_keeps_memoized_and_executed_postambles_apart() {
        // One probed text, pure against run `a` (postamble memoized) and
        // impure against run `b` (recorded with another learning rate, so
        // its postamble runs). With the slice inactive, only the `+p`
        // suffix tells their modules apart.
        let (a, b) = (tmproot("memo-key-a"), tmproot("memo-key-b"));
        record(TRAIN_SRC, &opts_exact(&a)).unwrap();
        record(&TRAIN_SRC.replace("lr=0.1", "lr=0.05"), &opts_exact(&b)).unwrap();
        let probed = TRAIN_SRC.replace(
            "        optimizer.step()\n",
            "        optimizer.step()\n        log(\"waste\", waste)\n",
        );
        let plan = |root: &PathBuf| {
            ReplayPlan::prepare(&CheckpointStore::open(root).unwrap(), &probed).unwrap()
        };
        let (plan_a, plan_b) = (plan(&a), plan(&b));
        assert_eq!(plan_a.postamble(), &Postamble::Memoized);
        assert!(matches!(plan_b.postamble(), Postamble::Executed(_)));
        assert!(!plan_a.slice().is_active(), "every statement is live");
        assert_eq!(plan_a.module_key, format!("{}+p", plan_b.module_key));

        for order in [[&a, &b], [&b, &a]] {
            let opts = ReplayOptions {
                module_cache: Some(Arc::new(ModuleCache::new())),
                ..ReplayOptions::default()
            };
            for root in order {
                let rep = replay(&probed, root, &opts).unwrap();
                let reference = replay_reference(&probed, root).unwrap();
                assert_eq!(rep.log, reference.log, "{}", root.display());
                assert!(rep.log.iter().any(|e| e.key == "accuracy"));
            }
        }
    }

    #[test]
    fn an_empty_main_loop_still_prints_its_postamble() {
        let src = TRAIN_SRC.replace("range(6)", "range(0)");
        let root = tmproot("empty-loop");
        record(&src, &opts_exact(&root)).unwrap();
        // The unprobed replay memoizes the postamble; a mutating preamble
        // probe makes every worker's VM and the reference run it.
        let mutating = src.replace(
            "avg = meter()\n",
            "avg = meter()\nlog(\"batches\", len(loader.epoch()))\n",
        );
        for probed in [src.clone(), mutating] {
            let (_, vanilla) = crate::record::run_vanilla(&probed).unwrap();
            assert!(vanilla.iter().any(|e| e.section == Section::Post));
            let reference = replay_reference(&probed, &root).unwrap();
            assert_eq!(reference.log, vanilla, "reference\n{probed}");
            for workers in [1, 3] {
                let rep = replay(&probed, &root, &ReplayOptions::with_workers(workers)).unwrap();
                assert_eq!(rep.log, vanilla, "{workers} worker(s)\n{probed}");
            }
        }
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
        let hindsight = hindsight_entries(&rep, &rec);
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
        let hindsight = hindsight_entries(&rep, &rec);
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
    fn parallel_replay_merges_to_the_reference_log() {
        // The range-scheduled executor must produce the exact reference
        // log for every worker count and both probe positions.
        let root = tmproot("parallel");
        record(TRAIN_SRC, &opts_exact(&root)).unwrap();
        for probed in [inner_probed(), outer_probed()] {
            let reference = replay_reference(&probed, &root).unwrap();
            for workers in [1usize, 2, 3, 4, 8] {
                let par = replay(&probed, &root, &ReplayOptions::with_workers(workers)).unwrap();
                assert!(
                    par.anomalies.is_empty(),
                    "{workers} workers: {:?}",
                    par.anomalies
                );
                assert_eq!(par.log, reference.log, "{workers}-worker merge");
                assert!(par.stats.ranges_executed >= 1);
            }
        }
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
                init_mode: InitMode::Weak,
                ..ReplayOptions::with_workers(3)
            },
        )
        .unwrap();
        assert!(weak.anomalies.is_empty(), "{:?}", weak.anomalies);
        assert_eq!(weak.log, strong.log);
    }

    #[test]
    fn poisoned_reuse_matches_the_reference() {
        // Non-hindsight edits poison checkpoint reuse; parallel replay
        // must full-re-execute to the reference's log and still surface
        // the poisoning anomaly.
        let root = tmproot("poison-parallel");
        record(TRAIN_SRC, &opts_exact(&root)).unwrap();
        let edited = TRAIN_SRC.replace("lr=0.1", "lr=0.05");
        let reference = replay_reference(&edited, &root).unwrap();
        // Weak init anchors on checkpoint restores, which poisoning
        // disables — replay must fall back to strong rolling
        // re-execution and still match.
        for init_mode in [InitMode::Strong, InitMode::Weak] {
            let opts = ReplayOptions {
                init_mode,
                ..ReplayOptions::with_workers(3)
            };
            let rep = replay(&edited, &root, &opts).unwrap();
            assert_eq!(rep.log, reference.log, "{init_mode:?}");
            assert!(
                rep.anomalies[0].contains("source changed"),
                "poisoning must be surfaced: {:?}",
                rep.anomalies
            );
            assert_eq!(rep.stats.restored, 0);
            assert!(rep.slice_refusal.is_some(), "nothing may be elided");
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
        let plan = Arc::new(ReplayPlan::prepare(&store, &inner_probed()).unwrap());
        let report = replay_plan(
            plan,
            store,
            &ReplayOptions::with_workers(3),
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
