//! The FlorScript interpreter and its ML builtin surface.
//!
//! A tree-walking evaluator with Python reference semantics over
//! [`crate::value::Value`]. It executes vanilla runs, record and the
//! replay oracle ([`crate::replay::replay_reference`]); production replay
//! — sampled or not — executes the same value-level helpers and the same
//! main-loop and skipblock drivers from compiled bytecode ([`crate::vm`]).
//! Three execution modes share one code path:
//!
//! - **Vanilla** — plain execution; SkipBlocks are transparent and
//!   `flor.partition` is the identity. Used as the paper's "vanilla
//!   execution" baseline.
//! - **Record** — SkipBlocks memoize their loop's side-effects through the
//!   adaptive controller and background materializer (paper §3.1).
//! - **Replay** — SkipBlocks restore-or-execute depending on probes and
//!   checkpoint availability; `flor.partition` hands the main loop to the
//!   range executor, the one way replay runs a main loop: it pulls ranges
//!   off the shared queue and initializes each where
//!   [`ReplayPlan::init_start`](crate::replay::ReplayPlan::init_start)
//!   says (paper §3.2, §5.4, §8).
//!
//! The builtin surface mirrors the PyTorch-style API the paper's analysis
//! assumes: model constructors, `sgd`/`adam`, schedulers, data loaders, and
//! the `log(...)` primitive that writes the observable log stream.

use crate::adaptive::AdaptiveController;
use crate::env::Env;
use crate::error::{rt, FlorError};
use crate::logstream::{LogStream, Section};
use crate::parallel::InitMode;
use crate::skipblock;
use crate::value::{Batch, DatasetObj, Obj, Value};
use flor_chkpt::{CheckpointStore, Materializer};
use flor_lang::ast::{Arg, BinOp, Expr, Program, Stmt, UnaryOp};
use flor_ml::metrics::{accuracy, Meter};
use flor_ml::models;
use flor_ml::swa::SwaAverager;
use flor_ml::{
    Adam, CosineLr, CrossEntropyLoss, CyclicLr, DataLoader, Sgd, StepLr, SyntheticClassification,
    SyntheticTokens,
};
use flor_tensor::{Pcg64, Tensor};
use std::collections::{BTreeSet, HashMap, HashSet};
use std::rc::Rc;
use std::sync::Arc;

/// Which phase of parallel replay a worker is in (paper §5.4.2–5.4.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Reconstructing the starting state: SkipBlocks restore, logs are
    /// suppressed.
    Init,
    /// Processing the worker's own share of iterations.
    Work,
}

/// Record-mode state.
pub struct RecordCtx {
    /// Checkpoint destination.
    pub store: Arc<CheckpointStore>,
    /// Background writer.
    pub materializer: Materializer,
    /// Adaptive checkpointing controller (Eq. 4).
    pub controller: AdaptiveController,
    /// Per-block static changesets from instrumentation.
    pub static_changesets: HashMap<String, Vec<String>>,
    /// Lean checkpointing: when false, checkpoint the whole environment
    /// (the ablation baseline for §5.2).
    pub lean: bool,
    /// Current main-loop iteration, if inside the main loop.
    pub main_iter: Option<u64>,
    /// Sequence counters for blocks outside the main loop.
    pub standalone_seq: HashMap<String, u64>,
    /// Guard: blocks already executed in the current main-loop iteration.
    pub blocks_this_iter: HashSet<String>,
    /// Per-iteration cost observations, persisted as the run's
    /// [`cost profile`](crate::profile::CostProfile) so replay can schedule
    /// cost-aware micro-ranges.
    pub profile: crate::profile::ProfileBuilder,
}

/// Replay statistics for reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayStats {
    /// SkipBlock executions satisfied by restoring a checkpoint.
    pub restored: u64,
    /// SkipBlock executions that re-executed the loop.
    pub executed: u64,
    /// Total time spent restoring, ns.
    pub restore_ns: u64,
    /// Restores whose payload came from the worker's prefetcher — every
    /// restore on its schedule, whether the payload had already landed
    /// (I/O overlapped with interpretation) or the worker waited for it.
    pub prefetch_hits: u64,
    /// Micro-ranges that moved between workers.
    pub steals: u64,
    /// Micro-ranges executed across all workers.
    pub ranges_executed: u64,
    /// Time until the streaming merger emitted its first record-order log
    /// entry, ns from replay start (0 when nothing was emitted). Always
    /// strictly below the replay wall time when any worker produced output
    /// before the last one finished — the streaming-merge win.
    pub stream_first_entry_ns: u64,
    /// Restores that resolved a delta-chain entry (store-level counter,
    /// attributed to this replay).
    pub delta_restores: u64,
    /// Delta links decoded across those restores (= `delta_restores` when
    /// each worker's prefetch cursor rides a sequential partition from a
    /// keyframe).
    pub chain_links: u64,
    /// Statement nodes the dependency slicer elided from execution
    /// (0 when it refused or found nothing dead, and for the reference).
    pub statements_elided: u64,
    /// Live fraction of the sliceable region in permille; 0 means no
    /// slice applied and the full program ran.
    pub slice_permille: u32,
    /// Queries answered from the content-addressed slice cache instead
    /// of replaying (registry-level, attributed to the query's stats).
    pub slice_cache_hits: u64,
}

impl ReplayStats {
    /// Live region fraction as a ratio in `[0, 1]`, treating an unset
    /// (zero) permille as "nothing elided".
    pub fn slice_fraction(&self) -> f64 {
        if self.slice_permille == 0 {
            1.0
        } else {
            f64::from(self.slice_permille) / 1000.0
        }
    }
}

/// Replay-mode state for one worker.
pub struct ReplayCtx {
    /// Checkpoint source.
    pub store: Arc<CheckpointStore>,
    /// The query's front-end decisions, shared by every worker.
    pub plan: Arc<crate::replay::ReplayPlan>,
    /// This worker's id.
    pub pid: usize,
    /// Current phase.
    pub phase: Phase,
    /// Current main-loop iteration.
    pub main_iter: Option<u64>,
    /// Sequence counters for blocks outside the main loop.
    pub standalone_seq: HashMap<String, u64>,
    /// Guard: blocks already executed in the current iteration.
    pub blocks_this_iter: HashSet<String>,
    /// Restore/execute counters.
    pub stats: ReplayStats,
    /// Per-worker checkpoint prefetcher, spawned with the worker's first
    /// range so checkpoint reads overlap with interpretation, and fed one
    /// micro-range at a time.
    pub prefetcher: Option<crate::prefetch::Prefetcher>,
    /// The replay's shared range queue. `None` (a context built outside
    /// `replay`, or a hand-written second `flor.partition` loop after the
    /// first consumed the queue) drains a one-worker queue of its own.
    pub runtime: Option<Arc<crate::replay::ReplayRuntime>>,
    /// Channel to the streaming merger: completed ranges are drained from
    /// the log and sent as soon as they finish.
    pub sink: Option<crate::stream::RangeSink>,
}

impl ReplayCtx {
    /// Worker `pid`'s context for `plan`, before its first statement. The
    /// caller attaches the replay's shared `runtime` and `sink`.
    pub fn new(
        store: Arc<CheckpointStore>,
        plan: Arc<crate::replay::ReplayPlan>,
        pid: usize,
    ) -> Self {
        ReplayCtx {
            store,
            plan,
            pid,
            phase: Phase::Work,
            main_iter: None,
            standalone_seq: HashMap::new(),
            blocks_this_iter: HashSet::new(),
            stats: ReplayStats::default(),
            prefetcher: None,
            runtime: None,
            sink: None,
        }
    }
}

/// Execution mode.
pub enum Mode {
    /// Plain execution (the vanilla baseline).
    Vanilla,
    /// Record with checkpointing.
    Record(Box<RecordCtx>),
    /// Replay worker.
    Replay(Box<ReplayCtx>),
}

/// A main-loop body, abstracted over the executor: the tree-walker
/// re-walks the statement list per iteration; the VM re-enters a
/// compiled instruction range at an iteration boundary (which is what
/// lets stolen ranges resume from checkpoint-restored slots).
pub(crate) enum LoopBody<'a> {
    /// Walk the AST statements.
    Tree {
        /// Loop variable name.
        var: &'a str,
        /// Body statements.
        body: &'a [Stmt],
    },
    /// Execute a compiled instruction range on the VM.
    Vm {
        /// Loop-variable frame slot.
        var_slot: u16,
        /// First instruction of the body.
        start: usize,
        /// One past the last instruction of the body.
        end: usize,
    },
}

/// The interpreter.
pub struct Interp {
    /// Global variable bindings.
    pub env: Env,
    /// The observable log stream.
    pub log: LogStream,
    /// Execution mode.
    pub mode: Mode,
    /// Counter deriving default seeds for constructors without an explicit
    /// `seed=` kwarg (deterministic across runs).
    ctor_counter: u64,
    /// Live VM frame when executing compiled bytecode (`None` under the
    /// tree-walker). Boxed so the tree-walking fast path pays one
    /// pointer.
    pub(crate) vm: Option<Box<crate::vm::VmFrame>>,
}

impl Interp {
    /// New interpreter in the given mode.
    pub fn new(mode: Mode) -> Self {
        Interp {
            env: Env::new(),
            log: LogStream::new(),
            mode,
            ctor_counter: 0,
            vm: None,
        }
    }

    /// Runs a whole program. In record mode, waits for every background
    /// checkpoint write to land, failing if any did not.
    pub fn run(&mut self, prog: &Program) -> Result<(), FlorError> {
        self.exec_body(&prog.body)?;
        if let Mode::Record(ctx) = &mut self.mode {
            ctx.materializer.flush().map_err(rt)?;
        }
        Ok(())
    }

    /// Executes a statement sequence.
    pub fn exec_body(&mut self, body: &[Stmt]) -> Result<(), FlorError> {
        for stmt in body {
            self.exec_stmt(stmt)?;
        }
        Ok(())
    }

    fn exec_stmt(&mut self, stmt: &Stmt) -> Result<(), FlorError> {
        match stmt {
            Stmt::Import { .. } | Stmt::Pass => Ok(()),
            Stmt::Assign { targets, value } => {
                let v = self.eval(value)?;
                self.assign(targets, v)
            }
            Stmt::ExprStmt { expr } => {
                self.eval(expr)?;
                Ok(())
            }
            Stmt::If { cond, then, orelse } => {
                if self.eval(cond)?.truthy() {
                    self.exec_body(then)
                } else {
                    self.exec_body(orelse)
                }
            }
            Stmt::SkipBlock { id, body } => skipblock::exec_skipblock(self, id, body),
            Stmt::For { var, iter, body } => {
                // The main loop: `for v in flor.partition(inner):`.
                if let Expr::Call { func, args } = iter {
                    if let Expr::Attr { obj, name } = func.as_ref() {
                        if name == "partition" && obj.as_name() == Some("flor") && args.len() == 1 {
                            return self.exec_main_loop(var, &args[0].value, body);
                        }
                    }
                }
                let items = self.eval_to_items(iter)?;
                for item in items {
                    self.env.set(var.clone(), item);
                    self.exec_body(body)?;
                }
                Ok(())
            }
        }
    }

    fn eval_to_items(&mut self, iter: &Expr) -> Result<Vec<Value>, FlorError> {
        let v = self.eval(iter)?;
        items_of(v)
    }

    /// Executes the partition-wrapped main loop (paper Figures 8 & 9).
    fn exec_main_loop(&mut self, var: &str, inner: &Expr, body: &[Stmt]) -> Result<(), FlorError> {
        let items = self.eval_to_items(inner)?;
        self.exec_main_loop_impl(&LoopBody::Tree { var, body }, items)
    }

    /// Runs one main-loop iteration: section/iter bookkeeping, bind the
    /// loop variable, execute the body — on whichever executor `lb`
    /// names (tree-walker or VM bytecode range).
    fn run_loop_iter(&mut self, lb: &LoopBody<'_>, g: u64, item: Value) -> Result<(), FlorError> {
        self.enter_iter(g);
        match lb {
            LoopBody::Tree { var, body } => {
                self.env.set(var.to_string(), item);
                self.exec_body(body)
            }
            LoopBody::Vm {
                var_slot,
                start,
                end,
            } => {
                self.vm_set_slot(*var_slot, item);
                self.vm_run_range(*start, *end)
            }
        }
    }

    /// The mode dispatch behind [`Self::exec_main_loop`], shared by the
    /// tree-walker and the VM's `MainLoop` op: vanilla and record run every
    /// iteration in order, replay hands the loop to the range executor.
    /// Both are executor-agnostic once iteration execution is behind
    /// [`LoopBody`].
    pub(crate) fn exec_main_loop_impl(
        &mut self,
        lb: &LoopBody<'_>,
        items: Vec<Value>,
    ) -> Result<(), FlorError> {
        let n = items.len() as u64;
        match self.mode {
            Mode::Vanilla | Mode::Record(_) => {
                for g in 0..n {
                    self.run_loop_iter(lb, g, items[g as usize].clone())?;
                }
                self.exit_main_loop();
                Ok(())
            }
            Mode::Replay(_) => self.exec_main_loop_ranges(lb, &items, n),
        }
    }

    /// The range-scheduled replay executor — the one way replay runs a
    /// main loop.
    ///
    /// Instead of owning one fixed partition, the worker pulls micro-ranges
    /// from the shared [`RangeQueue`](crate::parallel::RangeQueue): its own
    /// contiguous seed first (each pop continues exactly where the last
    /// range ended — no re-initialization), then steals off stragglers. A
    /// range that does not continue the worker's state is a fresh
    /// init+work segment starting where
    /// [`ReplayPlan::init_start`](crate::replay::ReplayPlan::init_start)
    /// says — a stolen range, or the next iteration of a sampled replay —
    /// and appends its restore schedule to the worker's
    /// [`Prefetcher`](crate::prefetch::Prefetcher). Completed ranges are
    /// drained from the log and streamed to the incremental merger
    /// immediately. A context with no shared runtime drains a one-worker
    /// queue of its own through the same loop, and streams nothing.
    fn exec_main_loop_ranges(
        &mut self,
        lb: &LoopBody<'_>,
        items: &[Value],
        n: u64,
    ) -> Result<(), FlorError> {
        let Mode::Replay(ctx) = &mut self.mode else {
            unreachable!("range scheduling outside replay mode")
        };
        // Taken, not borrowed: a second `flor.partition` loop (not the
        // paper's model, but legal input) finds the shared queue consumed
        // by this one and runs locally.
        let (pid, plan) = (ctx.pid, ctx.plan.clone());
        let (runtime, deque, sink) = match ctx.runtime.take() {
            Some(shared) => (shared, pid, ctx.sink.clone()),
            None => {
                let opts = crate::replay::ReplayOptions::default();
                let local = crate::replay::ReplayRuntime::new(&plan, &opts);
                (Arc::new(local), 0, None)
            }
        };
        let init_mode = runtime.init_mode;
        let anchors = match init_mode {
            InitMode::Weak => plan.anchors(n, |b, g| ctx.store.contains(b, g)),
            InitMode::Strong => BTreeSet::new(),
        };
        // Seed the queue once; workers race, all would compute the same
        // deterministic seeding, the first wins.
        let seeded = runtime
            .queue
            .seed_once(n, || runtime.seed_ranges(&plan, n, &anchors));
        // Replay workers trace on their own lane, keyed by pid.
        flor_obs::set_lane(pid as u32, &format!("worker-{pid}"));
        if seeded {
            if let Some(sink) = &sink {
                sink.send(crate::stream::StreamMsg::Total { n_iters: n });
            }
        }
        // Stream the preamble (the merger keeps worker 0's).
        if let Some(sink) = &sink {
            sink.send(crate::stream::StreamMsg::Pre {
                pid,
                entries: self.log.drain(),
            });
        }

        // Program state sits at the start of this iteration (exclusive
        // upper bound of applied iterations); the preamble leaves it at 0.
        let mut state_at = 0u64;
        while let Some(next) = runtime.queue.next(deque, state_at, plan.rewind_ok()) {
            if runtime.cancelled() {
                return Err(FlorError::Cancelled);
            }
            let range = next.range;
            // A seed pop continues where the previous range ended (no
            // init). A backward steal under strong init rewinds to
            // iteration 0 — the queue avoids handing those out unless
            // nothing else remains.
            let init_from = plan.init_start(init_mode, state_at, range.start, &anchors);
            // This range's restore schedule is now fixed and this worker's
            // alone (a range can no longer be stolen once popped): hand it
            // to the prefetcher, which reads each of its checkpoints
            // exactly once.
            {
                let Mode::Replay(ctx) = &mut self.mode else {
                    unreachable!()
                };
                let keys = plan.restore_schedule(init_from..range.start, range.iters());
                match &ctx.prefetcher {
                    Some(p) => p.extend(keys),
                    None if keys.is_empty() => {}
                    None => {
                        ctx.prefetcher =
                            Some(crate::prefetch::Prefetcher::spawn(ctx.store.clone(), keys));
                    }
                }
            }
            // Init phase: logs suppressed, SkipBlocks restore.
            if init_from < range.start {
                let mut span = flor_obs::span(flor_obs::Category::RangeExec, "init");
                span.set_args(init_from, range.start);
                if let Mode::Replay(ctx) = &mut self.mode {
                    ctx.phase = Phase::Init;
                }
                self.log.set_suppressed(true);
                for j in init_from..range.start {
                    self.run_loop_iter(lb, j, items[j as usize].clone())?;
                }
                self.log.set_suppressed(false);
            }
            // Work phase.
            let mut span = flor_obs::span(flor_obs::Category::RangeExec, "range");
            span.set_args(range.start, range.end);
            if let Mode::Replay(ctx) = &mut self.mode {
                ctx.phase = Phase::Work;
            }
            // Bytecode execution of a work range is the hot path this
            // whole layer exists for: give it its own nested span and
            // latency histogram.
            let vm_span = match lb {
                LoopBody::Vm { .. } => {
                    let mut s = flor_obs::span(flor_obs::Category::VmExec, "vm-range");
                    s.set_args(range.start, range.end);
                    Some((s, flor_obs::clock::now_ns()))
                }
                LoopBody::Tree { .. } => None,
            };
            for g in range.iters() {
                if runtime.cancelled() {
                    return Err(FlorError::Cancelled);
                }
                self.run_loop_iter(lb, g, items[g as usize].clone())?;
            }
            if let Some((s, t0)) = vm_span {
                flor_obs::histogram!("vm.exec_ns").observe(flor_obs::clock::since_ns(t0));
                drop(s);
            }
            drop(span);
            state_at = range.end;
            if let Mode::Replay(ctx) = &mut self.mode {
                ctx.stats.ranges_executed += 1;
            }
            if let Some(sink) = &sink {
                sink.send(crate::stream::StreamMsg::Range {
                    start: range.start,
                    end: range.end,
                    stolen: next.stolen,
                    entries: self.log.drain(),
                });
            }
            // The final range's owner exits holding the true final program
            // state: pulling further (earlier) ranges would rewind it and
            // corrupt the postamble.
            if range.end == n {
                break;
            }
        }

        self.exit_main_loop();
        // Only a worker ending at the final iteration owns the true final
        // state; everyone else's postamble is suppressed. An empty loop's
        // final state is the preamble's, which every worker holds: the
        // owner of deque 0 answers for it.
        if state_at != n || (n == 0 && deque != 0) {
            self.log.set_suppressed(true);
        }
        Ok(())
    }

    fn enter_iter(&mut self, g: u64) {
        self.log.set_section(Section::Iter(g));
        match &mut self.mode {
            Mode::Record(ctx) => {
                ctx.main_iter = Some(g);
                ctx.blocks_this_iter.clear();
            }
            Mode::Replay(ctx) => {
                ctx.main_iter = Some(g);
                ctx.blocks_this_iter.clear();
            }
            Mode::Vanilla => {}
        }
    }

    fn exit_main_loop(&mut self) {
        self.log.set_section(Section::Post);
        match &mut self.mode {
            Mode::Record(ctx) => ctx.main_iter = None,
            Mode::Replay(ctx) => ctx.main_iter = None,
            Mode::Vanilla => {}
        }
    }

    fn assign(&mut self, targets: &[Expr], value: Value) -> Result<(), FlorError> {
        if targets.len() == 1 {
            return self.assign_one(&targets[0], value);
        }
        let items = unpack_values(value, targets.len())?;
        for (t, v) in targets.iter().zip(items) {
            self.assign_one(t, v)?;
        }
        Ok(())
    }

    fn assign_one(&mut self, target: &Expr, value: Value) -> Result<(), FlorError> {
        match target {
            Expr::Name(n) => {
                self.env.set(n.clone(), value);
                Ok(())
            }
            Expr::Attr { obj, name } => {
                let recv = self.eval(obj)?;
                store_attr_value(recv, name, value)
            }
            Expr::Subscript { obj, index } => {
                let recv = self.eval(obj)?;
                let idx = self.eval(index)?;
                store_index_value(recv, idx, value)
            }
            other => Err(rt(format!("invalid assignment target {other}"))),
        }
    }

    // ---- expressions -------------------------------------------------------

    /// Evaluates an expression.
    pub fn eval(&mut self, expr: &Expr) -> Result<Value, FlorError> {
        match expr {
            Expr::Int(i) => Ok(Value::Int(*i)),
            Expr::Float(x) => Ok(Value::Float(*x)),
            Expr::Str(s) => Ok(Value::Str(s.clone())),
            Expr::Bool(b) => Ok(Value::Bool(*b)),
            Expr::NoneLit => Ok(Value::None),
            Expr::Name(n) => {
                if n == "flor" {
                    // `flor` resolves as a pseudo-module; only flor.log /
                    // flor.partition are meaningful and both are handled at
                    // their call sites.
                    return Ok(Value::Str("<module flor>".into()));
                }
                self.env.get(n).cloned()
            }
            Expr::List(items) => Ok(Value::list(
                items
                    .iter()
                    .map(|e| self.eval(e))
                    .collect::<Result<_, _>>()?,
            )),
            Expr::Tuple(items) => Ok(Value::Tuple(
                items
                    .iter()
                    .map(|e| self.eval(e))
                    .collect::<Result<_, _>>()?,
            )),
            Expr::Unary { op, expr } => {
                let v = self.eval(expr)?;
                unary_op_value(*op, v)
            }
            Expr::Bin { op, lhs, rhs } => self.eval_bin(*op, lhs, rhs),
            Expr::Subscript { obj, index } => {
                let recv = self.eval(obj)?;
                let idx = self.eval(index)?;
                index_value(recv, idx)
            }
            Expr::Attr { obj, name } => {
                let recv = self.eval(obj)?;
                self.read_attr(recv, name)
            }
            Expr::Call { func, args } => self.eval_call(func, args),
        }
    }

    fn eval_bin(&mut self, op: BinOp, lhs: &Expr, rhs: &Expr) -> Result<Value, FlorError> {
        // Short-circuit boolean ops.
        match op {
            BinOp::And => {
                let l = self.eval(lhs)?;
                return if l.truthy() { self.eval(rhs) } else { Ok(l) };
            }
            BinOp::Or => {
                let l = self.eval(lhs)?;
                return if l.truthy() { Ok(l) } else { self.eval(rhs) };
            }
            _ => {}
        }
        let l = self.eval(lhs)?;
        let r = self.eval(rhs)?;
        bin_op_values(op, l, r)
    }

    pub(crate) fn read_attr(&mut self, recv: Value, name: &str) -> Result<Value, FlorError> {
        match recv {
            Value::Obj(rc) => {
                let o = rc.borrow();
                match (&*o, name) {
                    (Obj::Optim { inner, .. }, "lr") => Ok(Value::Float(inner.lr() as f64)),
                    (Obj::Optim { inner, .. }, "weight_decay") => {
                        Ok(Value::Float(inner.weight_decay() as f64))
                    }
                    (Obj::Sched { inner, .. }, "lr") => Ok(Value::Float(inner.current_lr() as f64)),
                    (Obj::Meter(m), "count") => Ok(Value::Int(m.count() as i64)),
                    (Obj::Swa(s), "count") => Ok(Value::Int(s.count() as i64)),
                    (o, attr) => Err(rt(format!("no attribute {attr:?} on {}", o.kind()))),
                }
            }
            other => Err(rt(format!("no attribute {name:?} on {}", other.kind()))),
        }
    }

    fn eval_call(&mut self, func: &Expr, args: &[Arg]) -> Result<Value, FlorError> {
        // flor.log / log: the logging primitive.
        let is_flor_attr = |target: &str| -> bool {
            matches!(func, Expr::Attr { obj, name } if name == target && obj.as_name() == Some("flor"))
        };
        if matches!(func, Expr::Name(n) if n == "log") || is_flor_attr("log") {
            return self.call_log(args);
        }
        if is_flor_attr("partition") {
            // Outside a For header, partition is the identity (record) —
            // evaluate its argument.
            return self.eval(&args[0].value);
        }
        match func {
            Expr::Name(n) => {
                let call_args = self.eval_args(args)?;
                self.call_builtin(n, call_args)
            }
            Expr::Attr { obj, name } => {
                let recv = self.eval(obj)?;
                let call_args = self.eval_args(args)?;
                self.call_method(recv, name, call_args)
            }
            other => Err(rt(format!("cannot call {other}"))),
        }
    }

    fn call_log(&mut self, args: &[Arg]) -> Result<Value, FlorError> {
        let mut vals = Vec::with_capacity(args.len());
        for a in args {
            vals.push(self.eval(&a.value)?);
        }
        self.log_values(vals)
    }

    /// Emits one log entry from already-evaluated `log(...)` arguments:
    /// first value is the key (strings pass through, everything else
    /// displays), the rest join with spaces. Keyword names are ignored.
    /// Shared by the tree-walker and the VM's `CallLog` op.
    pub(crate) fn log_values(&mut self, vals: Vec<Value>) -> Result<Value, FlorError> {
        let mut it = vals.into_iter();
        let Some(first) = it.next() else {
            return Err(rt("log() requires a key argument"));
        };
        let key = match first {
            Value::Str(s) => s,
            other => other.display(),
        };
        let vals: Vec<String> = it.map(|v| v.display()).collect();
        self.log.log(key, vals.join(" "));
        Ok(Value::None)
    }

    fn eval_args(&mut self, args: &[Arg]) -> Result<CallArgs, FlorError> {
        let mut pos = Vec::new();
        let mut kw = Vec::new();
        for a in args {
            let v = self.eval(&a.value)?;
            match &a.name {
                Some(n) => kw.push((n.clone(), v)),
                None => pos.push(v),
            }
        }
        Ok(CallArgs { pos, kw })
    }

    fn next_seed(&mut self) -> u64 {
        self.ctor_counter += 1;
        0x5EED_0000 + self.ctor_counter
    }

    // ---- builtins -----------------------------------------------------------

    pub(crate) fn call_builtin(&mut self, name: &str, mut a: CallArgs) -> Result<Value, FlorError> {
        match name {
            "range" => {
                let (lo, hi) = match a.pos.len() {
                    1 => (0, a.pos[0].as_i64()?),
                    2 => (a.pos[0].as_i64()?, a.pos[1].as_i64()?),
                    n => return Err(rt(format!("range() takes 1-2 args, got {n}"))),
                };
                Ok(Value::list((lo..hi).map(Value::Int).collect()))
            }
            "len" => {
                let v = a.req(0, "len")?;
                let n = match v {
                    Value::List(l) => l.borrow().len(),
                    Value::Tuple(t) => t.len(),
                    Value::Str(s) => s.len(),
                    Value::Obj(rc) => match &*rc.borrow() {
                        Obj::Dataset(d) => d.len(),
                        Obj::Batch(b) => b.y.len(),
                        o => return Err(rt(format!("len() unsupported for {}", o.kind()))),
                    },
                    other => return Err(rt(format!("len() unsupported for {}", other.kind()))),
                };
                Ok(Value::Int(n as i64))
            }
            "min" => {
                let x = a.req(0, "min")?.as_f64()?;
                let y = a.req(1, "min")?.as_f64()?;
                Ok(Value::Float(x.min(y)))
            }
            "max" => {
                let x = a.req(0, "max")?.as_f64()?;
                let y = a.req(1, "max")?.as_f64()?;
                Ok(Value::Float(x.max(y)))
            }
            "abs" => {
                let x = a.req(0, "abs")?.as_f64()?;
                Ok(Value::Float(x.abs()))
            }
            "busy" => {
                // Deterministic spin-compute: inflates loop compute time in
                // tests and benches without touching training state.
                let units = a.req(0, "busy")?.as_i64()?.max(0) as u64;
                let mut acc = 0.3f64;
                for _ in 0..units * 8_000 {
                    acc = (acc * 1.0000001 + 0.1).sin();
                }
                // Data-dependent side channel prevents the spin from being
                // optimized away.
                if acc > 2.0 {
                    return Err(rt("unreachable busy() overflow"));
                }
                Ok(Value::None)
            }
            "evaluate" => {
                // evaluate(net, dataset) → accuracy over the whole dataset.
                let net = a.req(0, "evaluate")?;
                let data = a.req(1, "evaluate")?;
                let (net_rc, data_rc) = match (net, data) {
                    (Value::Obj(n), Value::Obj(d)) => (n, d),
                    _ => return Err(rt("evaluate(net, dataset) expects objects")),
                };
                let batch = {
                    let d = data_rc.borrow();
                    match &*d {
                        Obj::Dataset(ds) => {
                            let all: Vec<usize> = (0..ds.len()).collect();
                            ds.gather(&all)
                        }
                        o => {
                            return Err(rt(format!(
                                "evaluate() expects a dataset, got {}",
                                o.kind()
                            )))
                        }
                    }
                };
                let mut n = net_rc.borrow_mut();
                match &mut *n {
                    Obj::Model(m) => {
                        let logits = m.forward(&model_input(m, &batch)?);
                        Ok(Value::Float(accuracy(&logits, &batch.y) as f64))
                    }
                    o => Err(rt(format!("evaluate() expects a model, got {}", o.kind()))),
                }
            }
            "synth_data" => {
                let n = a.kw_i64("n", 128)? as usize;
                let dim = a.kw_i64("dim", 8)? as usize;
                let classes = a.kw_i64("classes", 3)? as usize;
                let spread = a.kw_f64("spread", 0.3)?;
                let seed = a.kw_i64("seed", self.next_seed() as i64)? as u64;
                Ok(Value::obj(Obj::Dataset(DatasetObj::Classification(
                    SyntheticClassification::generate(n, dim, classes, spread as f32, seed),
                ))))
            }
            "token_data" => {
                let n = a.kw_i64("n", 128)? as usize;
                let seq = a.kw_i64("seq", 8)? as usize;
                let vocab = a.kw_i64("vocab", 64)? as usize;
                let classes = a.kw_i64("classes", 3)? as usize;
                let seed = a.kw_i64("seed", self.next_seed() as i64)? as u64;
                Ok(Value::obj(Obj::Dataset(DatasetObj::Tokens(
                    SyntheticTokens::generate(n, seq, vocab, classes, seed),
                ))))
            }
            "dataloader" => {
                let ds = a.req(0, "dataloader")?;
                let batch_size = a.kw_i64("batch_size", 16)? as usize;
                let seed = a.kw_i64("seed", self.next_seed() as i64)? as u64;
                let rc = match ds {
                    Value::Obj(rc) => rc,
                    other => {
                        return Err(rt(format!(
                            "dataloader() expects a dataset, got {}",
                            other.kind()
                        )))
                    }
                };
                let n = match &*rc.borrow() {
                    Obj::Dataset(d) => d.len(),
                    o => {
                        return Err(rt(format!(
                            "dataloader() expects a dataset, got {}",
                            o.kind()
                        )))
                    }
                };
                Ok(Value::obj(Obj::Loader {
                    inner: DataLoader::new(n, batch_size, seed),
                    dataset: rc,
                }))
            }
            "mlp" => {
                let input = a.kw_i64("input", 8)? as usize;
                let hidden = a.kw_i64("hidden", 16)? as usize;
                let classes = a.kw_i64("classes", 3)? as usize;
                let depth = a.kw_i64("depth", 2)? as usize;
                let seed = a.kw_i64("seed", self.next_seed() as i64)? as u64;
                let mut rng = Pcg64::seeded(seed);
                Ok(Value::obj(Obj::Model(models::mlp(
                    input, hidden, classes, depth, &mut rng,
                ))))
            }
            "resnet" => {
                let input = a.kw_i64("input", 8)? as usize;
                let hidden = a.kw_i64("hidden", 16)? as usize;
                let classes = a.kw_i64("classes", 3)? as usize;
                let blocks = a.kw_i64("blocks", 2)? as usize;
                let seed = a.kw_i64("seed", self.next_seed() as i64)? as u64;
                let mut rng = Pcg64::seeded(seed);
                Ok(Value::obj(Obj::Model(models::resnet_mini(
                    input, hidden, classes, blocks, &mut rng,
                ))))
            }
            "convnet" => {
                let features = a.kw_i64("features", 16)? as usize;
                let channels = a.kw_i64("channels", 2)? as usize;
                let conv_channels = a.kw_i64("conv_channels", 4)? as usize;
                let kernel = a.kw_i64("kernel", 3)? as usize;
                let classes = a.kw_i64("classes", 3)? as usize;
                let seed = a.kw_i64("seed", self.next_seed() as i64)? as u64;
                let mut rng = Pcg64::seeded(seed);
                Ok(Value::obj(Obj::Model(models::convnet1d_flat(
                    features,
                    channels,
                    conv_channels,
                    kernel,
                    classes,
                    &mut rng,
                ))))
            }
            "textnet" => {
                let vocab = a.kw_i64("vocab", 64)? as usize;
                let dim = a.kw_i64("dim", 16)? as usize;
                let classes = a.kw_i64("classes", 3)? as usize;
                let seed = a.kw_i64("seed", self.next_seed() as i64)? as u64;
                let mut rng = Pcg64::seeded(seed);
                Ok(Value::obj(Obj::Model(models::textnet(
                    vocab, dim, classes, &mut rng,
                ))))
            }
            "finetune" => {
                let input = a.kw_i64("input", 8)? as usize;
                let hidden = a.kw_i64("hidden", 32)? as usize;
                let classes = a.kw_i64("classes", 3)? as usize;
                let ballast = a.kw_i64("ballast", 100_000)? as usize;
                let seed = a.kw_i64("seed", self.next_seed() as i64)? as u64;
                let mut rng = Pcg64::seeded(seed);
                Ok(Value::obj(Obj::Model(models::finetune_net(
                    input, hidden, classes, ballast, &mut rng,
                ))))
            }
            "sgd" => {
                let net = a.req(0, "sgd")?;
                let lr = a.kw_f64("lr", 0.1)?;
                let momentum = a.kw_f64("momentum", 0.0)?;
                let weight_decay = a.kw_f64("weight_decay", 0.0)?;
                let model = as_model_rc(net)?;
                Ok(Value::obj(Obj::Optim {
                    inner: Box::new(Sgd::new(lr as f32, momentum as f32, weight_decay as f32)),
                    model,
                }))
            }
            "adam" => {
                let net = a.req(0, "adam")?;
                let lr = a.kw_f64("lr", 0.001)?;
                let weight_decay = a.kw_f64("weight_decay", 0.0)?;
                let model = as_model_rc(net)?;
                Ok(Value::obj(Obj::Optim {
                    inner: Box::new(Adam::new(lr as f32, weight_decay as f32)),
                    model,
                }))
            }
            "step_lr" => {
                let opt = a.req(0, "step_lr")?;
                let base_lr = a.kw_f64("base_lr", 0.1)?;
                let step_size = a.kw_i64("step_size", 10)? as u32;
                let gamma = a.kw_f64("gamma", 0.5)?;
                let optimizer = as_optim_rc(opt)?;
                Ok(Value::obj(Obj::Sched {
                    inner: Box::new(StepLr::new(base_lr as f32, step_size, gamma as f32)),
                    optimizer,
                }))
            }
            "cosine_lr" => {
                let opt = a.req(0, "cosine_lr")?;
                let base_lr = a.kw_f64("base_lr", 0.1)?;
                let eta_min = a.kw_f64("eta_min", 0.0)?;
                let t_max = a.kw_i64("t_max", 10)? as u32;
                let optimizer = as_optim_rc(opt)?;
                Ok(Value::obj(Obj::Sched {
                    inner: Box::new(CosineLr::new(base_lr as f32, eta_min as f32, t_max)),
                    optimizer,
                }))
            }
            "cyclic_lr" => {
                let opt = a.req(0, "cyclic_lr")?;
                let min_lr = a.kw_f64("min_lr", 0.01)?;
                let max_lr = a.kw_f64("max_lr", 0.5)?;
                let period = a.kw_i64("period", 4)? as u32;
                let optimizer = as_optim_rc(opt)?;
                Ok(Value::obj(Obj::Sched {
                    inner: Box::new(CyclicLr::new(min_lr as f32, max_lr as f32, period)),
                    optimizer,
                }))
            }
            "cross_entropy" => Ok(Value::obj(Obj::Loss(CrossEntropyLoss::new()))),
            "swa_averager" => Ok(Value::obj(Obj::Swa(SwaAverager::new()))),
            "meter" => Ok(Value::obj(Obj::Meter(Meter::new()))),
            other => Err(rt(format!("unknown function {other:?}"))),
        }
    }

    // ---- methods -------------------------------------------------------------

    pub(crate) fn call_method(
        &mut self,
        recv: Value,
        name: &str,
        mut a: CallArgs,
    ) -> Result<Value, FlorError> {
        // Tensor methods (value receiver).
        if let Value::Tensor(t) = &recv {
            return match name {
                "norm" => Ok(Value::Float(t.norm() as f64)),
                "mean" => Ok(Value::Float(t.mean() as f64)),
                "max" => Ok(Value::Float(t.max() as f64)),
                "item" => Ok(Value::Float(t.item() as f64)),
                "shape" => Ok(Value::Str(t.shape().to_string())),
                other => Err(rt(format!("no method {other:?} on tensor"))),
            };
        }
        let rc = match recv {
            Value::Obj(rc) => rc,
            other => return Err(rt(format!("no method {name:?} on {}", other.kind()))),
        };
        // Methods that need another object borrowed are handled with care
        // to avoid double borrows.
        enum Action {
            None,
            Value(Value),
        }
        let kind = rc.borrow().kind();
        let action: Action = match (kind, name) {
            ("model", "forward") => {
                let arg = a.req(0, "forward")?;
                let batch = as_batch(&arg)?;
                let mut o = rc.borrow_mut();
                let Obj::Model(m) = &mut *o else {
                    unreachable!()
                };
                let x = model_input(m, &batch)?;
                Action::Value(Value::Tensor(m.forward(&x)))
            }
            ("model", "backward") => {
                let grad = match a.req(0, "backward")? {
                    Value::Tensor(t) => t,
                    other => {
                        return Err(rt(format!(
                            "backward() expects a tensor, got {}",
                            other.kind()
                        )))
                    }
                };
                let mut o = rc.borrow_mut();
                let Obj::Model(m) = &mut *o else {
                    unreachable!()
                };
                m.backward(&grad);
                Action::None
            }
            ("model", "zero_grad") => {
                let mut o = rc.borrow_mut();
                let Obj::Model(m) = &mut *o else {
                    unreachable!()
                };
                m.zero_grad();
                Action::None
            }
            ("model", "weight_norm") => {
                let o = rc.borrow();
                let Obj::Model(m) = &*o else { unreachable!() };
                Action::Value(Value::Float(m.weight_norm() as f64))
            }
            ("model", "grad_norm") => {
                let o = rc.borrow();
                let Obj::Model(m) = &*o else { unreachable!() };
                Action::Value(Value::Float(m.grad_norm() as f64))
            }
            ("model", "num_params") => {
                let o = rc.borrow();
                let Obj::Model(m) = &*o else { unreachable!() };
                Action::Value(Value::Int(m.numel() as i64))
            }
            ("model", "accuracy") => {
                let arg = a.req(0, "accuracy")?;
                let batch = as_batch(&arg)?;
                let mut o = rc.borrow_mut();
                let Obj::Model(m) = &mut *o else {
                    unreachable!()
                };
                let logits = m.forward(&model_input(m, &batch)?);
                Action::Value(Value::Float(accuracy(&logits, &batch.y) as f64))
            }
            ("optimizer", "step") => {
                let o = rc.borrow();
                let Obj::Optim { model, .. } = &*o else {
                    unreachable!()
                };
                let model = model.clone();
                drop(o);
                let mut o = rc.borrow_mut();
                let Obj::Optim { inner, .. } = &mut *o else {
                    unreachable!()
                };
                let mut m = model.borrow_mut();
                let Obj::Model(net) = &mut *m else {
                    return Err(rt("optimizer's model reference is not a model"));
                };
                inner.step(net);
                Action::None
            }
            ("optimizer", "zero_grad") => {
                let o = rc.borrow();
                let Obj::Optim { model, .. } = &*o else {
                    unreachable!()
                };
                let model = model.clone();
                drop(o);
                let mut m = model.borrow_mut();
                let Obj::Model(net) = &mut *m else {
                    return Err(rt("optimizer's model reference is not a model"));
                };
                net.zero_grad();
                Action::None
            }
            ("optimizer", "set_lr") => {
                let lr = a.req(0, "set_lr")?.as_f64()?;
                let mut o = rc.borrow_mut();
                let Obj::Optim { inner, .. } = &mut *o else {
                    unreachable!()
                };
                inner.set_lr(lr as f32);
                Action::None
            }
            ("optimizer", "set_weight_decay") => {
                let wd = a.req(0, "set_weight_decay")?.as_f64()?;
                let mut o = rc.borrow_mut();
                let Obj::Optim { inner, .. } = &mut *o else {
                    unreachable!()
                };
                inner.set_weight_decay(wd as f32);
                Action::None
            }
            ("scheduler", "step") => {
                let o = rc.borrow();
                let Obj::Sched { optimizer, .. } = &*o else {
                    unreachable!()
                };
                let optimizer = optimizer.clone();
                drop(o);
                let mut s = rc.borrow_mut();
                let Obj::Sched { inner, .. } = &mut *s else {
                    unreachable!()
                };
                let mut opt = optimizer.borrow_mut();
                let Obj::Optim {
                    inner: opt_inner, ..
                } = &mut *opt
                else {
                    return Err(rt("scheduler's optimizer reference is not an optimizer"));
                };
                inner.step(opt_inner.as_mut());
                Action::None
            }
            ("loader", "epoch") => {
                let mut o = rc.borrow_mut();
                let Obj::Loader { inner, dataset } = &mut *o else {
                    unreachable!()
                };
                let batches = inner.next_epoch();
                let dataset = dataset.clone();
                drop(o);
                let d = dataset.borrow();
                let Obj::Dataset(ds) = &*d else {
                    return Err(rt("loader's dataset reference is not a dataset"));
                };
                let items: Vec<Value> = batches
                    .iter()
                    .map(|idx| Value::obj(Obj::Batch(ds.gather(idx))))
                    .collect();
                Action::Value(Value::list(items))
            }
            ("loader", "num_batches") => {
                let o = rc.borrow();
                let Obj::Loader { inner, .. } = &*o else {
                    unreachable!()
                };
                Action::Value(Value::Int(inner.batches_per_epoch() as i64))
            }
            ("loss", "forward") => {
                let preds = match a.req(0, "forward")? {
                    Value::Tensor(t) => t,
                    other => {
                        return Err(rt(format!(
                            "loss.forward expects logits tensor, got {}",
                            other.kind()
                        )))
                    }
                };
                let batch_val = a.req(1, "forward")?;
                let batch = as_batch(&batch_val)?;
                let mut o = rc.borrow_mut();
                let Obj::Loss(loss) = &mut *o else {
                    unreachable!()
                };
                Action::Value(Value::Float(loss.forward(&preds, &batch.y) as f64))
            }
            ("loss", "backward") => {
                let mut o = rc.borrow_mut();
                let Obj::Loss(loss) = &mut *o else {
                    unreachable!()
                };
                Action::Value(Value::Tensor(loss.backward()))
            }
            ("swa", "update") | ("swa", "update_buggy") => {
                let net = a.req(0, name)?;
                let model_rc = as_model_rc(net)?;
                let m = model_rc.borrow();
                let Obj::Model(model) = &*m else {
                    unreachable!()
                };
                let mut o = rc.borrow_mut();
                let Obj::Swa(swa) = &mut *o else {
                    unreachable!()
                };
                if name == "update" {
                    swa.update(model);
                } else {
                    swa.update_buggy(model);
                }
                Action::None
            }
            ("swa", "apply") => {
                let net = a.req(0, "apply")?;
                let model_rc = as_model_rc(net)?;
                let mut m = model_rc.borrow_mut();
                let Obj::Model(model) = &mut *m else {
                    unreachable!()
                };
                let o = rc.borrow();
                let Obj::Swa(swa) = &*o else { unreachable!() };
                swa.try_apply(model).map_err(rt)?;
                Action::None
            }
            ("meter", "update") => {
                let x = a.req(0, "update")?.as_f64()?;
                let mut o = rc.borrow_mut();
                let Obj::Meter(m) = &mut *o else {
                    unreachable!()
                };
                m.update(x as f32);
                Action::None
            }
            ("meter", "mean") => {
                let o = rc.borrow();
                let Obj::Meter(m) = &*o else { unreachable!() };
                Action::Value(Value::Float(m.mean() as f64))
            }
            ("meter", "reset") => {
                let mut o = rc.borrow_mut();
                let Obj::Meter(m) = &mut *o else {
                    unreachable!()
                };
                m.reset();
                Action::None
            }
            ("batch", "size") => {
                let o = rc.borrow();
                let Obj::Batch(b) = &*o else { unreachable!() };
                Action::Value(Value::Int(b.y.len() as i64))
            }
            (kind, method) => {
                return Err(rt(format!("no method {method:?} on {kind}")));
            }
        };
        Ok(match action {
            Action::None => Value::None,
            Action::Value(v) => v,
        })
    }
}

// ---- shared executor semantics ---------------------------------------------
//
// The tree-walker and the bytecode VM must agree byte-for-byte on values
// and error strings (the VM is differentially tested against the
// tree-walker); these helpers are the single home for value-level
// semantics so the two executors cannot drift.

/// Snapshot of an iterable's items (lists are cloned before the loop
/// body runs, so mutation during iteration is invisible — both
/// executors).
pub(crate) fn items_of(v: Value) -> Result<Vec<Value>, FlorError> {
    match v {
        Value::List(l) => Ok(l.borrow().clone()),
        Value::Tuple(t) => Ok(t),
        other => Err(rt(format!("cannot iterate over {}", other.kind()))),
    }
}

/// Splits a multi-assignment RHS into exactly `n` values.
pub(crate) fn unpack_values(value: Value, n: usize) -> Result<Vec<Value>, FlorError> {
    let items = match value {
        Value::Tuple(t) => t,
        Value::List(l) => l.borrow().clone(),
        other => {
            return Err(rt(format!(
                "cannot unpack {} into {n} targets",
                other.kind()
            )))
        }
    };
    if items.len() != n {
        return Err(rt(format!(
            "unpack mismatch: {} values into {n} targets",
            items.len()
        )));
    }
    Ok(items)
}

/// Applies a unary operator to an evaluated operand.
#[inline]
pub(crate) fn unary_op_value(op: UnaryOp, v: Value) -> Result<Value, FlorError> {
    match op {
        UnaryOp::Neg => match v {
            Value::Int(i) => Ok(Value::Int(-i)),
            Value::Float(x) => Ok(Value::Float(-x)),
            other => Err(rt(format!("cannot negate {}", other.kind()))),
        },
        UnaryOp::Not => Ok(Value::Bool(!v.truthy())),
    }
}

/// Numeric fast path shared by both executors: `Some(result)` for
/// int∘int and float∘float operands, `None` when the pair needs the
/// general path in [`bin_op_values`] (string ops, int/float promotion,
/// division/modulo-by-zero errors, type errors). Borrows its operands
/// so the VM's fused ops can evaluate straight out of frame slots and
/// the constant pool without cloning.
#[inline(always)]
pub(crate) fn bin_op_fast(op: BinOp, l: &Value, r: &Value) -> Option<Value> {
    match (l, r) {
        // Integer arithmetic stays integral.
        (Value::Int(a), Value::Int(b)) => {
            let (a, b) = (*a, *b);
            Some(match op {
                BinOp::Add => Value::Int(a + b),
                BinOp::Sub => Value::Int(a - b),
                BinOp::Mul => Value::Int(a * b),
                BinOp::Div if b != 0 => Value::Float(a as f64 / b as f64),
                BinOp::Mod if b != 0 => Value::Int(a.rem_euclid(b)),
                BinOp::Eq => Value::Bool(a == b),
                BinOp::Ne => Value::Bool(a != b),
                BinOp::Lt => Value::Bool(a < b),
                BinOp::Le => Value::Bool(a <= b),
                BinOp::Gt => Value::Bool(a > b),
                BinOp::Ge => Value::Bool(a >= b),
                // Division/modulo by zero error on the general path;
                // And/Or never reach a binary op.
                _ => return None,
            })
        }
        (Value::Float(a), Value::Float(b)) => {
            let (a, b) = (*a, *b);
            Some(match op {
                BinOp::Add => Value::Float(a + b),
                BinOp::Sub => Value::Float(a - b),
                BinOp::Mul => Value::Float(a * b),
                BinOp::Div if b != 0.0 => Value::Float(a / b),
                BinOp::Mod => Value::Float(a % b),
                BinOp::Eq => Value::Bool(a == b),
                BinOp::Ne => Value::Bool(a != b),
                BinOp::Lt => Value::Bool(a < b),
                BinOp::Le => Value::Bool(a <= b),
                BinOp::Gt => Value::Bool(a > b),
                BinOp::Ge => Value::Bool(a >= b),
                _ => return None,
            })
        }
        _ => None,
    }
}

/// Applies a non-short-circuit binary operator to evaluated operands
/// (`and`/`or` are control flow in both executors and never reach
/// here).
#[inline]
pub(crate) fn bin_op_values(op: BinOp, l: Value, r: Value) -> Result<Value, FlorError> {
    if let Some(v) = bin_op_fast(op, &l, &r) {
        return Ok(v);
    }
    // String concatenation.
    if op == BinOp::Add {
        if let (Value::Str(a), Value::Str(b)) = (&l, &r) {
            return Ok(Value::Str(format!("{a}{b}")));
        }
    }
    // Same-type integer pairs only fall through for the zero-divisor
    // errors — the fast path handled every other combination.
    if let (Value::Int(_), Value::Int(b)) = (&l, &r) {
        match op {
            BinOp::Div if *b == 0 => return Err(rt("division by zero")),
            BinOp::Mod if *b == 0 => return Err(rt("modulo by zero")),
            _ => {}
        }
    }
    // String equality.
    if let (Value::Str(a), Value::Str(b)) = (&l, &r) {
        match op {
            BinOp::Eq => return Ok(Value::Bool(a == b)),
            BinOp::Ne => return Ok(Value::Bool(a != b)),
            _ => {}
        }
    }
    let a = l.as_f64()?;
    let b = r.as_f64()?;
    Ok(match op {
        BinOp::Add => Value::Float(a + b),
        BinOp::Sub => Value::Float(a - b),
        BinOp::Mul => Value::Float(a * b),
        BinOp::Div => {
            if b == 0.0 {
                return Err(rt("division by zero"));
            }
            Value::Float(a / b)
        }
        BinOp::Mod => Value::Float(a % b),
        BinOp::Eq => Value::Bool(a == b),
        BinOp::Ne => Value::Bool(a != b),
        BinOp::Lt => Value::Bool(a < b),
        BinOp::Le => Value::Bool(a <= b),
        BinOp::Gt => Value::Bool(a > b),
        BinOp::Ge => Value::Bool(a >= b),
        BinOp::And | BinOp::Or => unreachable!(),
    })
}

/// Subscript load on evaluated receiver and index.
#[inline]
pub(crate) fn index_value(recv: Value, index: Value) -> Result<Value, FlorError> {
    let idx = index.as_i64()?;
    match recv {
        Value::List(l) => {
            let items = l.borrow();
            let len = items.len() as i64;
            let i = if idx < 0 { idx + len } else { idx };
            items
                .get(i as usize)
                .cloned()
                .ok_or_else(|| rt(format!("list index {idx} out of range")))
        }
        Value::Tuple(t) => {
            let len = t.len() as i64;
            let i = if idx < 0 { idx + len } else { idx };
            t.get(i as usize)
                .cloned()
                .ok_or_else(|| rt(format!("tuple index {idx} out of range")))
        }
        other => Err(rt(format!("cannot index {}", other.kind()))),
    }
}

/// Subscript store on evaluated receiver, index, and value.
pub(crate) fn store_index_value(recv: Value, index: Value, value: Value) -> Result<(), FlorError> {
    let idx = index.as_i64()?;
    match recv {
        Value::List(l) => {
            let mut items = l.borrow_mut();
            let len = items.len() as i64;
            let i = if idx < 0 { idx + len } else { idx };
            if i < 0 || i >= len {
                return Err(rt(format!("list index {idx} out of range")));
            }
            items[i as usize] = value;
            Ok(())
        }
        other => Err(rt(format!("cannot index-assign {}", other.kind()))),
    }
}

/// Attribute store on an evaluated receiver (only optimizer
/// hyperparameters are assignable, mirroring the paper's API surface).
pub(crate) fn store_attr_value(recv: Value, name: &str, value: Value) -> Result<(), FlorError> {
    match recv {
        Value::Obj(rc) => {
            let mut o = rc.borrow_mut();
            match (&mut *o, name) {
                (Obj::Optim { inner, .. }, "lr") => {
                    inner.set_lr(value.as_f64()? as f32);
                    Ok(())
                }
                (Obj::Optim { inner, .. }, "weight_decay") => {
                    inner.set_weight_decay(value.as_f64()? as f32);
                    Ok(())
                }
                (o, attr) => Err(rt(format!(
                    "cannot assign attribute {attr:?} on {}",
                    o.kind()
                ))),
            }
        }
        other => Err(rt(format!("cannot assign attribute on {}", other.kind()))),
    }
}

/// Evaluated call arguments: the positional/keyword split.
pub struct CallArgs {
    pos: Vec<Value>,
    kw: Vec<(String, Value)>,
}

impl CallArgs {
    /// Builds from an already-evaluated positional/keyword split (the
    /// VM's call ops rebuild this from the operand stack).
    pub(crate) fn new(pos: Vec<Value>, kw: Vec<(String, Value)>) -> Self {
        CallArgs { pos, kw }
    }

    fn req(&mut self, i: usize, func: &str) -> Result<Value, FlorError> {
        self.pos
            .get(i)
            .cloned()
            .ok_or_else(|| rt(format!("{func}() missing positional argument {i}")))
    }

    fn kw_get(&self, name: &str) -> Option<&Value> {
        self.kw.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }

    fn kw_i64(&self, name: &str, default: i64) -> Result<i64, FlorError> {
        match self.kw_get(name) {
            Some(v) => v.as_i64(),
            None => Ok(default),
        }
    }

    fn kw_f64(&self, name: &str, default: f64) -> Result<f64, FlorError> {
        match self.kw_get(name) {
            Some(v) => v.as_f64(),
            None => Ok(default),
        }
    }
}

fn as_model_rc(v: Value) -> Result<Rc<std::cell::RefCell<Obj>>, FlorError> {
    match v {
        Value::Obj(rc) => {
            if matches!(&*rc.borrow(), Obj::Model(_)) {
                Ok(rc)
            } else {
                Err(rt(format!("expected a model, got {}", rc.borrow().kind())))
            }
        }
        other => Err(rt(format!("expected a model, got {}", other.kind()))),
    }
}

fn as_optim_rc(v: Value) -> Result<Rc<std::cell::RefCell<Obj>>, FlorError> {
    match v {
        Value::Obj(rc) => {
            if matches!(&*rc.borrow(), Obj::Optim { .. }) {
                Ok(rc)
            } else {
                Err(rt(format!(
                    "expected an optimizer, got {}",
                    rc.borrow().kind()
                )))
            }
        }
        other => Err(rt(format!("expected an optimizer, got {}", other.kind()))),
    }
}

fn as_batch(v: &Value) -> Result<Batch, FlorError> {
    match v {
        Value::Obj(rc) => match &*rc.borrow() {
            Obj::Batch(b) => Ok(b.clone()),
            o => Err(rt(format!("expected a batch, got {}", o.kind()))),
        },
        other => Err(rt(format!("expected a batch, got {}", other.kind()))),
    }
}

/// Prepares a batch's features for a model: token models get the raw id
/// matrix; feature models get it as-is too — the distinction lives in the
/// dataset that produced the batch.
fn model_input(_m: &flor_ml::Sequential, batch: &Batch) -> Result<Tensor, FlorError> {
    Ok(batch.x.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use flor_lang::parse;

    fn run_vanilla(src: &str) -> Interp {
        let prog = parse(src).unwrap();
        let mut interp = Interp::new(Mode::Vanilla);
        interp
            .run(&prog)
            .unwrap_or_else(|e| panic!("script failed: {e}\n{src}"));
        interp
    }

    #[test]
    fn read_only_methods_leave_every_receiver_unchanged() {
        // Replay memoizes the postamble only for probes whose calls are
        // all in `READ_ONLY_METHODS` (or pure builtins); the list must not
        // drift from `call_method`. Every value kind a script can build,
        // with training state in it.
        let mut i = run_vanilla(
            "\
data = synth_data(n=12, dim=4, classes=2, seed=1)
loader = dataloader(data, batch_size=4, seed=1)
net = mlp(input=4, hidden=6, classes=2, depth=1, seed=1)
optimizer = sgd(net, lr=0.1, momentum=0.9)
sched = step_lr(optimizer)
criterion = cross_entropy()
swa = swa_averager()
avg = meter()
for batch in loader.epoch():
    optimizer.zero_grad()
    preds = net.forward(batch)
    loss = criterion.forward(preds, batch)
    grad = criterion.backward()
    net.backward(grad)
    optimizer.step()
    avg.update(loss)
    swa.update(net)
sched.step()
items = [loss, 1, \"s\"]
",
        );
        i.env
            .set("scalar".to_string(), Value::Tensor(Tensor::scalar(0.5)));
        let names = [
            "data",
            "loader",
            "net",
            "optimizer",
            "sched",
            "criterion",
            "swa",
            "avg",
            "batch",
            "preds",
            "grad",
            "scalar",
            "loss",
            "items",
        ];
        let bytes = |v: &Value| flor_chkpt::encode(&v.snapshot().unwrap());
        let mut implemented = BTreeSet::new();
        for name in names {
            let v = i.env.get(name).unwrap().clone();
            for &method in flor_analysis::READ_ONLY_METHODS {
                // `item()` is defined on one-element tensors only.
                if method == "item" && matches!(&v, Value::Tensor(t) if t.numel() != 1) {
                    continue;
                }
                let before = bytes(&v);
                let no_args = CallArgs::new(Vec::new(), Vec::new());
                match i.call_method(v.clone(), method, no_args) {
                    Ok(_) => {
                        implemented.insert(method);
                        assert_eq!(bytes(&v), before, "{name}.{method}() mutated {name}");
                    }
                    Err(e) => assert!(e.to_string().contains("no method"), "{name}.{method}: {e}"),
                }
            }
        }
        let listed: BTreeSet<&str> = flor_analysis::READ_ONLY_METHODS.iter().copied().collect();
        assert_eq!(implemented, listed, "a listed method no object implements");
        // The check can see a mutation: drawing an epoch advances the
        // loader's shuffle.
        let loader = i.env.get("loader").unwrap().clone();
        let before = bytes(&loader);
        let no_args = CallArgs::new(Vec::new(), Vec::new());
        i.call_method(loader.clone(), "epoch", no_args).unwrap();
        assert_ne!(bytes(&loader), before);
    }

    #[test]
    fn arithmetic_and_bindings() {
        let i = run_vanilla("x = 1 + 2 * 3\ny = x - 1\nz = y / 2\n");
        assert_eq!(i.env.get("x").unwrap().as_i64().unwrap(), 7);
        assert_eq!(i.env.get("y").unwrap().as_i64().unwrap(), 6);
        assert_eq!(i.env.get("z").unwrap().as_f64().unwrap(), 3.0);
    }

    #[test]
    fn for_loop_over_range() {
        let i = run_vanilla("total = 0\nfor k in range(5):\n    total = total + k\n");
        assert_eq!(i.env.get("total").unwrap().as_i64().unwrap(), 10);
    }

    #[test]
    fn if_else_branches() {
        let i = run_vanilla("x = 5\nif x > 3:\n    y = 1\nelse:\n    y = 2\n");
        assert_eq!(i.env.get("y").unwrap().as_i64().unwrap(), 1);
    }

    #[test]
    fn log_emits_entries() {
        let i = run_vanilla("log(\"loss\", 0.5)\nlog(\"acc\", 0.9, 12)\n");
        assert_eq!(i.log.entries().len(), 2);
        assert_eq!(i.log.entries()[0].key, "loss");
        assert_eq!(i.log.entries()[1].value, "0.9 12");
    }

    #[test]
    fn multi_assignment_unpack() {
        let i = run_vanilla("a, b = 1, 2\nc, d = (3, 4)\n");
        assert_eq!(i.env.get("a").unwrap().as_i64().unwrap(), 1);
        assert_eq!(i.env.get("d").unwrap().as_i64().unwrap(), 4);
    }

    #[test]
    fn list_indexing_and_mutation() {
        let i = run_vanilla("xs = [1, 2, 3]\nxs[1] = 9\ny = xs[1]\nz = xs[-1]\n");
        assert_eq!(i.env.get("y").unwrap().as_i64().unwrap(), 9);
        assert_eq!(i.env.get("z").unwrap().as_i64().unwrap(), 3);
    }

    #[test]
    fn training_pipeline_end_to_end() {
        // A full mini training script: the loss must decrease.
        let src = "\
data = synth_data(n=60, dim=8, classes=3, spread=0.25, seed=7)
loader = dataloader(data, batch_size=20, seed=7)
net = mlp(input=8, hidden=16, classes=3, depth=2, seed=7)
optimizer = sgd(net, lr=0.1, momentum=0.9)
criterion = cross_entropy()
first = 0.0
last = 0.0
for epoch in range(15):
    for batch in loader.epoch():
        optimizer.zero_grad()
        preds = net.forward(batch)
        loss = criterion.forward(preds, batch)
        grad = criterion.backward()
        net.backward(grad)
        optimizer.step()
    if epoch == 0:
        first = loss
    last = loss
acc = evaluate(net, data)
";
        let i = run_vanilla(src);
        let first = i.env.get("first").unwrap().as_f64().unwrap();
        let last = i.env.get("last").unwrap().as_f64().unwrap();
        let acc = i.env.get("acc").unwrap().as_f64().unwrap();
        assert!(last < first, "loss should fall: {first} -> {last}");
        assert!(acc > 0.8, "accuracy {acc}");
    }

    #[test]
    fn scheduler_changes_optimizer_lr() {
        let src = "\
net = mlp(seed=1)
optimizer = sgd(net, lr=1.0)
sched = step_lr(optimizer, base_lr=1.0, step_size=1, gamma=0.5)
sched.step()
lr1 = optimizer.lr
sched.step()
lr2 = optimizer.lr
";
        let i = run_vanilla(src);
        assert_eq!(i.env.get("lr1").unwrap().as_f64().unwrap(), 0.5);
        assert_eq!(i.env.get("lr2").unwrap().as_f64().unwrap(), 0.25);
    }

    #[test]
    fn optimizer_attr_assignment() {
        let src = "\
net = mlp(seed=1)
optimizer = sgd(net, lr=1.0, weight_decay=0.5)
optimizer.weight_decay = 0.0
wd = optimizer.weight_decay
";
        let i = run_vanilla(src);
        assert_eq!(i.env.get("wd").unwrap().as_f64().unwrap(), 0.0);
    }

    #[test]
    fn determinism_across_runs() {
        let src = "\
data = synth_data(n=40, dim=4, classes=2, seed=3)
loader = dataloader(data, batch_size=10, seed=3)
net = mlp(input=4, hidden=8, classes=2, depth=1, seed=3)
optimizer = sgd(net, lr=0.1)
criterion = cross_entropy()
for epoch in range(3):
    for batch in loader.epoch():
        optimizer.zero_grad()
        preds = net.forward(batch)
        loss = criterion.forward(preds, batch)
        grad = criterion.backward()
        net.backward(grad)
        optimizer.step()
    log(\"loss\", loss)
";
        let a = run_vanilla(src);
        let b = run_vanilla(src);
        assert_eq!(a.log.entries(), b.log.entries());
    }

    #[test]
    fn partitioned_loop_in_vanilla_sets_sections() {
        let src = "\
import flor
log(\"start\", 1)
for e in flor.partition(range(3)):
    log(\"epoch\", e)
log(\"end\", 1)
";
        let i = run_vanilla(src);
        let sections: Vec<Section> = i.log.entries().iter().map(|e| e.section).collect();
        assert_eq!(
            sections,
            vec![
                Section::Pre,
                Section::Iter(0),
                Section::Iter(1),
                Section::Iter(2),
                Section::Post
            ]
        );
    }

    #[test]
    fn swa_buggy_corrupts_square_model_silently() {
        // Square hidden layers: update_buggy transposes values without
        // breaking shapes — Alice's silent corruption.
        let src = "\
net = mlp(input=8, hidden=8, classes=8, depth=1, seed=5)
swa = swa_averager()
swa.update_buggy(net)
swa.apply(net)
w = net.weight_norm()
";
        let i = run_vanilla(src);
        assert!(i.env.get("w").unwrap().as_f64().unwrap() > 0.0);
    }

    #[test]
    fn unknown_function_errors() {
        let prog = parse("mystery(1)\n").unwrap();
        let mut interp = Interp::new(Mode::Vanilla);
        let err = interp.run(&prog).unwrap_err();
        assert!(err.to_string().contains("mystery"));
    }

    #[test]
    fn unknown_name_errors() {
        let prog = parse("x = y + 1\n").unwrap();
        let mut interp = Interp::new(Mode::Vanilla);
        assert!(interp.run(&prog).is_err());
    }

    #[test]
    fn division_by_zero_errors() {
        let prog = parse("x = 1 / 0\n").unwrap();
        assert!(Interp::new(Mode::Vanilla).run(&prog).is_err());
    }

    #[test]
    fn adam_script_trains() {
        let src = "\
data = synth_data(n=40, dim=6, classes=2, spread=0.25, seed=8)
loader = dataloader(data, batch_size=20, seed=8)
net = mlp(input=6, hidden=12, classes=2, depth=1, seed=8)
optimizer = adam(net, lr=0.02)
criterion = cross_entropy()
for epoch in range(10):
    for batch in loader.epoch():
        optimizer.zero_grad()
        preds = net.forward(batch)
        loss = criterion.forward(preds, batch)
        grad = criterion.backward()
        net.backward(grad)
        optimizer.step()
acc = evaluate(net, data)
";
        let i = run_vanilla(src);
        assert!(i.env.get("acc").unwrap().as_f64().unwrap() > 0.8);
    }

    #[test]
    fn textnet_script_trains_on_tokens() {
        let src = "\
data = token_data(n=60, seq=8, vocab=32, classes=3, seed=9)
loader = dataloader(data, batch_size=20, seed=9)
net = textnet(vocab=32, dim=12, classes=3, seed=9)
optimizer = sgd(net, lr=0.3, momentum=0.9)
criterion = cross_entropy()
for epoch in range(12):
    for batch in loader.epoch():
        optimizer.zero_grad()
        preds = net.forward(batch)
        loss = criterion.forward(preds, batch)
        grad = criterion.backward()
        net.backward(grad)
        optimizer.step()
acc = evaluate(net, data)
";
        let i = run_vanilla(src);
        assert!(i.env.get("acc").unwrap().as_f64().unwrap() > 0.6);
    }

    #[test]
    fn cosine_and_cyclic_schedules_from_script() {
        let src = "\
net = mlp(seed=1)
opt1 = sgd(net, lr=1.0)
cos = cosine_lr(opt1, base_lr=1.0, eta_min=0.0, t_max=4)
for i in range(4):
    cos.step()
final_cos = opt1.lr
opt2 = sgd(net, lr=0.0)
cyc = cyclic_lr(opt2, min_lr=0.1, max_lr=0.9, period=4)
cyc.step()
cyc.step()
peak = opt2.lr
";
        let i = run_vanilla(src);
        assert!(i.env.get("final_cos").unwrap().as_f64().unwrap() < 1e-6);
        assert!((i.env.get("peak").unwrap().as_f64().unwrap() - 0.9).abs() < 1e-6);
    }

    #[test]
    fn string_ops_and_comparisons() {
        let i = run_vanilla("a = \"x\" + \"y\"\nb = a == \"xy\"\nc = a != \"xy\"\n");
        assert_eq!(i.env.get("a").unwrap().display(), "xy");
        assert!(i.env.get("b").unwrap().truthy());
        assert!(!i.env.get("c").unwrap().truthy());
    }

    #[test]
    fn builtin_math_helpers() {
        let i = run_vanilla("a = min(3, 1.5)\nb = max(3, 1.5)\nc = abs(0 - 4)\n");
        assert_eq!(i.env.get("a").unwrap().as_f64().unwrap(), 1.5);
        assert_eq!(i.env.get("b").unwrap().as_f64().unwrap(), 3.0);
        assert_eq!(i.env.get("c").unwrap().as_f64().unwrap(), 4.0);
    }

    #[test]
    fn len_over_containers_and_objects() {
        let src = "\
data = synth_data(n=17, dim=4, classes=2, seed=2)
a = len([1, 2, 3])
b = len(\"hello\")
c = len(data)
";
        let i = run_vanilla(src);
        assert_eq!(i.env.get("a").unwrap().as_i64().unwrap(), 3);
        assert_eq!(i.env.get("b").unwrap().as_i64().unwrap(), 5);
        assert_eq!(i.env.get("c").unwrap().as_i64().unwrap(), 17);
    }

    #[test]
    fn tensor_methods_from_script() {
        let src = "\
data = synth_data(n=8, dim=4, classes=2, seed=2)
loader = dataloader(data, batch_size=8, seed=2)
net = mlp(input=4, hidden=4, classes=2, depth=1, seed=2)
batches = loader.epoch()
preds = net.forward(batches[0])
n = preds.norm()
m = preds.mean()
s = preds.shape()
";
        let i = run_vanilla(src);
        assert!(i.env.get("n").unwrap().as_f64().unwrap() >= 0.0);
        assert_eq!(i.env.get("s").unwrap().display(), "(8, 2)");
        let _ = i.env.get("m").unwrap().as_f64().unwrap();
    }

    #[test]
    fn range_with_two_args() {
        let i = run_vanilla("total = 0\nfor k in range(3, 6):\n    total = total + k\n");
        assert_eq!(i.env.get("total").unwrap().as_i64().unwrap(), 12);
    }

    #[test]
    fn modulo_and_negative_numbers() {
        let i = run_vanilla("a = 7 % 3\nb = -7 % 3\n");
        assert_eq!(i.env.get("a").unwrap().as_i64().unwrap(), 1);
        // rem_euclid semantics, like Python.
        assert_eq!(i.env.get("b").unwrap().as_i64().unwrap(), 2);
    }

    #[test]
    fn unknown_method_and_attr_errors_name_the_kind() {
        let prog = parse("net = mlp(seed=1)\nnet.frobnicate()\n").unwrap();
        let err = Interp::new(Mode::Vanilla).run(&prog).unwrap_err();
        assert!(err.to_string().contains("frobnicate"));
        let prog = parse("net = mlp(seed=1)\nx = net.bogus_attr\n").unwrap();
        let err = Interp::new(Mode::Vanilla).run(&prog).unwrap_err();
        assert!(err.to_string().contains("bogus_attr"));
    }

    #[test]
    fn unpack_mismatch_errors() {
        let prog = parse("a, b, c = 1, 2\n").unwrap();
        assert!(Interp::new(Mode::Vanilla).run(&prog).is_err());
    }

    #[test]
    fn loss_argument_type_errors() {
        let prog = parse("criterion = cross_entropy()\nx = criterion.forward(1, 2)\n").unwrap();
        assert!(Interp::new(Mode::Vanilla).run(&prog).is_err());
    }

    #[test]
    fn meter_accumulates() {
        let src = "\
m = meter()
m.update(1.0)
m.update(3.0)
avg = m.mean()
n = m.count
m.reset()
avg2 = m.mean()
";
        let i = run_vanilla(src);
        assert_eq!(i.env.get("avg").unwrap().as_f64().unwrap(), 2.0);
        assert_eq!(i.env.get("n").unwrap().as_i64().unwrap(), 2);
        assert_eq!(i.env.get("avg2").unwrap().as_f64().unwrap(), 0.0);
    }
}
