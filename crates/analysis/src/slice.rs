//! Backward program slicing for dependency-aware incremental replay
//! (ROADMAP item 2).
//!
//! A hindsight statement usually reads a handful of variables, yet
//! replay re-executes whole iterations. This module computes, over the
//! *instrumented* program, the transitive dependency closure of every
//! log statement in the main loop — the "live cone" — and emits the
//! complement as a set of dead [`StmtPath`]s that
//! `flor_lang::compile_sliced` lowers to nothing and
//! `flor_lang::prune_program` removes from the tree-walker's AST.
//!
//! Safety model (mirrors the Table-1 side-effect rules in
//! [`crate::rules`]):
//!
//! - **Roots.** Every `log(...)` statement is live: replay must
//!   regenerate the recorded log bit-identically (the deferred check
//!   depends on it) in addition to the new hindsight entries.
//! - **Defs.** A statement defines its plain-name targets, the root
//!   names of attribute/subscript targets (rule 1/3), and the receiver
//!   root of every method call anywhere in it (rules 1 and 4: a method
//!   call may mutate its receiver). A statement is live iff any def's
//!   alias class is live, then its name uses become live.
//! - **Alias classes.** A union-find over the loop body groups names
//!   that may refer to the same object: plain copies, container
//!   literals, attribute/subscript reads, and constructor calls (e.g.
//!   `sgd(net)` aliases the optimizer to the model, mirroring
//!   `crate::augment`'s runtime knowledge). Strong kills apply only
//!   to singleton classes.
//! - **Loop-carried deps.** Nested loops run a backward fixpoint on
//!   the body's live-out so a value consumed in the *next* iteration
//!   keeps its producer live; the main loop itself gets the same
//!   fixpoint.
//! - **Checkpoint cuts.** An *unprobed* skipblock whose iterations all
//!   checkpointed densely is restored, never executed, on the replay
//!   path being sliced — so it strongly kills the singleton-class
//!   names in its static changeset: their values after the block come
//!   entirely from the checkpoint, cutting the slice instead of
//!   dragging in pre-block producers. Without a dense profile the
//!   block may still execute (missing checkpoint ⇒ re-execution), so
//!   it conservatively uses every name in its body and kills nothing.
//!   Probed skipblocks re-execute and are scanned transparently.
//!   Skipblock statements themselves are never elided — block-level
//!   restore/execute decisions (and checkpoint side effects) are the
//!   replay engine's, not the slicer's.
//! - **Constructors stay live.** Object constructors draw from the
//!   interpreter's global seed counter; eliding one would shift every
//!   later constructor's seed. Unknown functions in assignment form
//!   also stay live so replay preserves their errors.
//! - **Fallback.** When safety is unprovable — a bare call to an
//!   unknown function (rule 5: arbitrary side effects), an
//!   attribute/subscript chain with no name root, or a computed callee
//!   — the slicer refuses and replay runs the full program.
//!
//! Only statements inside the main-loop body are candidates; the
//! preamble always runs in full, though production replay takes its
//! seed-pinned datasets and models from `flor-core`'s constructor memo
//! (copies of templates built once per process) instead of generating
//! them again, so what it costs is dispatch and copies. The postamble is
//! either run in full or
//! not at all: replay skips it, and emits its recorded log instead, when
//! no probe lands in it and every probe is read-only
//! ([`probe_mutating_call`]) — `flor-core`'s `ReplayPlan` decides. The
//! slice itself (and so its fingerprint) treats the postamble as live
//! either way.

use crate::instrument::BlockPlan;
use flor_lang::ast::{Expr, Program, Stmt};
use flor_lang::compile::{path_step, stmt_count, StmtPath};
use std::collections::{BTreeMap, BTreeSet, HashSet};

/// Builtins with no side effects and no aliasing between arguments and
/// result; statements whose only calls are pure are elidable. Mirrors
/// `flor-core`'s interpreter builtins.
const PURE_BUILTINS: &[&str] = &["range", "len", "min", "max", "abs", "busy"];

/// Methods that read their receiver and change nothing, on every object
/// kind that has them. A probe calling only these and the pure builtins
/// (`range`, `len`, `min`, `max`, `abs`, `busy`) leaves the program
/// state as it found it. `flor-core` pins the list
/// against its method dispatch: each entry leaves its receiver's
/// snapshot bytes unchanged.
pub const READ_ONLY_METHODS: &[&str] = &[
    "weight_norm",
    "grad_norm",
    "num_params",
    "mean",
    "norm",
    "max",
    "item",
    "shape",
    "size",
    "num_batches",
];

/// Builtins that construct objects. They advance the interpreter's
/// global constructor-seed counter, so they are never elided; their
/// results alias their name arguments (`sgd(net)` holds the model).
const CONSTRUCTORS: &[&str] = &[
    "synth_data",
    "token_data",
    "dataloader",
    "mlp",
    "resnet",
    "convnet",
    "textnet",
    "finetune",
    "sgd",
    "adam",
    "step_lr",
    "cosine_lr",
    "cyclic_lr",
    "cross_entropy",
    "swa_averager",
    "meter",
];

fn is_pure_builtin(name: &str) -> bool {
    PURE_BUILTINS.contains(&name)
}

fn is_constructor(name: &str) -> bool {
    CONSTRUCTORS.contains(&name)
}

fn is_known_builtin(name: &str) -> bool {
    is_pure_builtin(name) || is_constructor(name) || name == "log" || name == "evaluate"
}

/// Result of slicing one instrumented program for one query.
#[derive(Debug, Clone, Default)]
pub struct SlicePlan {
    /// Top-most dead statement paths (children of a dead subtree are
    /// not listed separately). Empty when nothing is elidable.
    pub dead: HashSet<StmtPath>,
    /// Statement nodes in the sliceable region (the main-loop body).
    pub region_stmts: u32,
    /// Statement nodes elided (subtrees counted in full).
    pub elided_stmts: u32,
    /// Why slicing was refused, if it was; `dead` is empty then.
    pub fallback: Option<String>,
}

impl SlicePlan {
    /// Live fraction of the region in permille (1000 = nothing elided).
    pub fn live_permille(&self) -> u32 {
        if self.region_stmts == 0 {
            return 1000;
        }
        (1000u64 * u64::from(self.region_stmts - self.elided_stmts) / u64::from(self.region_stmts))
            as u32
    }

    /// Whether the plan actually elides anything.
    pub fn is_active(&self) -> bool {
        self.fallback.is_none() && !self.dead.is_empty()
    }
}

/// Computes the backward slice of `prog`'s log statements.
///
/// `probed_blocks` are the skipblock ids the current query forces to
/// re-execute (from `lang::differ`); `blocks` are the instrumentation
/// block plans carrying each skipblock's static changeset;
/// `dense_checkpoints` says whether the recorded cost profile proves
/// every iteration of every block checkpointed (the precondition for
/// checkpoint cuts).
pub fn slice_program(
    prog: &Program,
    probed_blocks: &HashSet<String>,
    blocks: &[BlockPlan],
    dense_checkpoints: bool,
) -> SlicePlan {
    let Some((main_idx, var, iter, body)) = find_main_loop(prog) else {
        return SlicePlan {
            fallback: Some("no partitioned main loop".into()),
            ..SlicePlan::default()
        };
    };
    let region_stmts: u32 = body.iter().map(stmt_count).sum();
    if let Some(reason) = unsliceable_body(body) {
        return SlicePlan {
            region_stmts,
            fallback: Some(reason),
            ..SlicePlan::default()
        };
    }

    // Alias classes span the whole program: the preamble is where most
    // aliasing is established (`optimizer = sgd(net)` makes
    // `optimizer.step()` a mutation of `net`).
    let mut aliases = Aliases::default();
    collect_aliases(&prog.body, &mut aliases);
    let changesets: BTreeMap<&str, &[String]> = blocks
        .iter()
        .map(|b| (b.id.as_str(), b.static_changeset.as_slice()))
        .collect();
    let mut slicer = Slicer {
        aliases,
        probed: probed_blocks,
        changesets,
        dense: dense_checkpoints,
        dead: HashSet::new(),
        elided: 0,
    };

    // Live-out: every name the postamble mentions must hold its final
    // loop value.
    let mut live_after: BTreeSet<String> = BTreeSet::new();
    for s in &prog.body[main_idx + 1..] {
        for n in stmt_name_leaves(s) {
            let r = slicer.rep(&n);
            live_after.insert(r);
        }
    }

    let mut path: StmtPath = vec![path_step(0, main_idx)];

    // Loop-carried fixpoint on the main-loop body: `cur` is the live
    // set at the body's end (= after the loop ∪ at the next
    // iteration's head).
    let mut cur = live_after.clone();
    loop {
        let mut l = cur.clone();
        slicer.scan_body(body, 0, &mut path, &mut l, false);
        let var_rep = slicer.rep(var);
        if slicer.singleton(var) {
            l.remove(&var_rep);
        }
        for n in expr_name_leaves(iter) {
            let r = slicer.rep(&n);
            l.insert(r);
        }
        let next: BTreeSet<String> = live_after.union(&l).cloned().collect();
        if next == cur {
            break;
        }
        cur = next;
    }
    let mut l = cur;
    slicer.scan_body(body, 0, &mut path, &mut l, true);

    SlicePlan {
        dead: slicer.dead,
        region_stmts,
        elided_stmts: slicer.elided,
        fallback: None,
    }
}

/// Finds the first `for v in flor.partition(inner):` at top level —
/// the same detection the interpreter and compiler use.
fn find_main_loop(prog: &Program) -> Option<(usize, &str, &Expr, &[Stmt])> {
    for (i, s) in prog.body.iter().enumerate() {
        if let Stmt::For {
            var,
            iter: Expr::Call { func, args },
            body,
        } = s
        {
            if let Expr::Attr { obj, name } = func.as_ref() {
                if name == "partition" && obj.as_name() == Some("flor") && args.len() == 1 {
                    return Some((i, var, &args[0].value, body));
                }
            }
        }
    }
    None
}

/// Detects main-loop state carried across iterations *outside* every
/// skipblock — the condition under which rewound (backward-steal)
/// initialization is unsound.
///
/// A worker that takes a range behind its current position under strong
/// init rolls forward from iteration 0 *without* re-running the
/// preamble: the environment holds whatever the worker's previous range
/// left there. Names in a skipblock's changeset are repaired by that
/// block's checkpoint restore every iteration, and names the outer body
/// definitely rewrites before reading self-heal after one iteration —
/// but a name the outer body reads before its first write (`carry =
/// carry + boost`) keeps its already-advanced value through the entire
/// rewound prefix, and replay diverges from the record.
///
/// Returns the first such name (for diagnostics): one that is (a) read
/// before any definite outer write in body order, (b) mutated by an
/// outer-body statement (assignment target root or method receiver),
/// and (c) absent from every unconditional top-level skipblock
/// changeset. `None` means rewinds are sound and backward steals may
/// stay enabled.
pub fn outer_carried_state(prog: &Program, blocks: &[BlockPlan]) -> Option<String> {
    let (_, var, _, body) = find_main_loop(prog)?;
    let changesets: BTreeMap<&str, &[String]> = blocks
        .iter()
        .map(|b| (b.id.as_str(), b.static_changeset.as_slice()))
        .collect();

    // Names definitely (re)written so far this iteration, in body
    // order; the loop variable is assigned at the iteration top.
    let mut written: BTreeSet<String> = BTreeSet::new();
    written.insert(var.to_string());
    // Reads that happened while the name was not yet definitely
    // written: the value flows in from the previous iteration (or, on
    // the first, from the preamble).
    let mut carried_reads: Vec<String> = Vec::new();
    // Names the outer body mutates, definitely or conditionally.
    let mut outer_writes: BTreeSet<String> = BTreeSet::new();
    // Names a top-level (unconditional) skipblock restore repairs.
    let mut repaired: BTreeSet<String> = BTreeSet::new();

    for s in body {
        if let Stmt::SkipBlock { id, body: bb } = s {
            // The block's pre-state feeds its execution path (a probed
            // or checkpoint-less block re-executes), so every name leaf
            // in the body counts as a read; the changeset is then
            // written whether the block restores or executes.
            for n in bb.iter().flat_map(stmt_name_leaves) {
                if !written.contains(&n) {
                    carried_reads.push(n);
                }
            }
            if let Some(cs) = changesets.get(id.as_str()) {
                for n in *cs {
                    written.insert(n.clone());
                    repaired.insert(n.clone());
                }
            }
        } else {
            scan_outer_stmt(s, true, &mut written, &mut carried_reads, &mut outer_writes);
        }
    }

    carried_reads
        .into_iter()
        .find(|n| outer_writes.contains(n) && !repaired.contains(n))
}

/// One outer-body statement of the [`outer_carried_state`] scan: reads
/// are checked against the `written` set first, then defs are added.
/// `definite` is false under a conditional (If branch, nested loop
/// body, conditional skipblock), where a write may not happen on every
/// iteration and so never enters `written`.
fn scan_outer_stmt(
    s: &Stmt,
    definite: bool,
    written: &mut BTreeSet<String>,
    carried_reads: &mut Vec<String>,
    outer_writes: &mut BTreeSet<String>,
) {
    fn read(e: &Expr, written: &BTreeSet<String>, carried_reads: &mut Vec<String>) {
        for n in expr_name_leaves(e) {
            if !written.contains(&n) {
                carried_reads.push(n);
            }
        }
    }
    match s {
        Stmt::Import { .. } | Stmt::Pass => {}
        Stmt::Assign { targets, value } => {
            read(value, written, carried_reads);
            let mut recv = Vec::new();
            method_receivers(value, &mut recv);
            for t in targets {
                match t {
                    Expr::Name(n) => {
                        outer_writes.insert(n.clone());
                        if definite {
                            written.insert(n.clone());
                        }
                    }
                    other => {
                        // `obj.attr = v`: a partial update — the
                        // receiver's pre-value survives, so this is a
                        // read and a mutation, never a full rewrite.
                        read(other, written, carried_reads);
                        if let Some(r) = other.root_name() {
                            outer_writes.insert(r.to_string());
                        }
                    }
                }
            }
            outer_writes.extend(recv);
        }
        Stmt::ExprStmt { expr } => {
            read(expr, written, carried_reads);
            let mut recv = Vec::new();
            method_receivers(expr, &mut recv);
            outer_writes.extend(recv);
        }
        Stmt::If { cond, then, orelse } => {
            read(cond, written, carried_reads);
            for s in then.iter().chain(orelse) {
                scan_outer_stmt(s, false, written, carried_reads, outer_writes);
            }
        }
        Stmt::For { var, iter, body } => {
            read(iter, written, carried_reads);
            // The loop variable and body writes only happen when the
            // range is non-empty, and body reads may be loop-carried
            // within the inner loop — nothing here becomes definite.
            outer_writes.insert(var.clone());
            for s in body {
                scan_outer_stmt(s, false, written, carried_reads, outer_writes);
            }
        }
        Stmt::SkipBlock { body, .. } => {
            // A skipblock under a conditional may or may not restore on
            // a given iteration: treat its changeset as a conditional
            // mutation, never a repair.
            for s in body {
                scan_outer_stmt(s, false, written, carried_reads, outer_writes);
            }
        }
    }
}

// ---- fallback pre-scan -----------------------------------------------------

fn unsliceable_body(body: &[Stmt]) -> Option<String> {
    for s in body {
        match s {
            Stmt::Import { .. } | Stmt::Pass => {}
            Stmt::Assign { targets, value } => {
                for t in targets {
                    match t {
                        Expr::Name(_) => {}
                        Expr::Attr { .. } | Expr::Subscript { .. } if t.root_name().is_some() => {}
                        other => {
                            return Some(format!("unanalyzable assignment target `{other:?}`"))
                        }
                    }
                    if let Some(r) = unsliceable_expr(t) {
                        return Some(r);
                    }
                }
                if let Some(r) = unsliceable_expr(value) {
                    return Some(r);
                }
            }
            Stmt::ExprStmt { expr } => {
                if !s.is_log_stmt() {
                    if let Expr::Call { func, .. } = expr {
                        if let Expr::Name(f) = func.as_ref() {
                            if !is_known_builtin(f) {
                                // Rule 5: a bare call to an unknown
                                // function may touch anything.
                                return Some(format!(
                                    "bare call to unknown function `{f}()` may have arbitrary side effects"
                                ));
                            }
                        }
                    }
                }
                if let Some(r) = unsliceable_expr(expr) {
                    return Some(r);
                }
            }
            Stmt::For { iter, body, .. } => {
                if let Some(r) = unsliceable_expr(iter) {
                    return Some(r);
                }
                if let Some(r) = unsliceable_body(body) {
                    return Some(r);
                }
            }
            Stmt::If { cond, then, orelse } => {
                if let Some(r) = unsliceable_expr(cond) {
                    return Some(r);
                }
                if let Some(r) = unsliceable_body(then).or_else(|| unsliceable_body(orelse)) {
                    return Some(r);
                }
            }
            Stmt::SkipBlock { body, .. } => {
                if let Some(r) = unsliceable_body(body) {
                    return Some(r);
                }
            }
        }
    }
    None
}

fn unsliceable_expr(e: &Expr) -> Option<String> {
    match e {
        Expr::Attr { obj, .. } => {
            if e.root_name().is_none() {
                return Some("attribute access on a computed receiver (untrackable alias)".into());
            }
            unsliceable_expr(obj)
        }
        Expr::Subscript { obj, index } => {
            if e.root_name().is_none() {
                return Some("subscript of a computed receiver (untrackable alias)".into());
            }
            unsliceable_expr(obj).or_else(|| unsliceable_expr(index))
        }
        Expr::Call { func, args } => {
            match func.as_ref() {
                Expr::Name(_) => {}
                Expr::Attr { obj, .. } => {
                    if obj.root_name().is_none() {
                        return Some(
                            "method call on a computed receiver (untrackable alias)".into(),
                        );
                    }
                    if let Some(r) = unsliceable_expr(obj) {
                        return Some(r);
                    }
                }
                other => return Some(format!("cannot analyze callee `{other:?}`")),
            }
            args.iter().find_map(|a| unsliceable_expr(&a.value))
        }
        Expr::Bin { lhs, rhs, .. } => unsliceable_expr(lhs).or_else(|| unsliceable_expr(rhs)),
        Expr::Unary { expr, .. } => unsliceable_expr(expr),
        Expr::List(items) | Expr::Tuple(items) => items.iter().find_map(unsliceable_expr),
        Expr::Name(_)
        | Expr::Int(_)
        | Expr::Float(_)
        | Expr::Str(_)
        | Expr::Bool(_)
        | Expr::NoneLit => None,
    }
}

// ---- alias classes ---------------------------------------------------------

#[derive(Default)]
struct Aliases {
    parent: BTreeMap<String, String>,
    seen: BTreeSet<String>,
}

impl Aliases {
    fn find(&mut self, n: &str) -> String {
        let p = match self.parent.get(n) {
            None => return n.to_string(),
            Some(p) => p.clone(),
        };
        if p == n {
            return p;
        }
        let r = self.find(&p);
        self.parent.insert(n.to_string(), r.clone());
        r
    }

    fn union(&mut self, a: &str, b: &str) {
        if a == "flor" || b == "flor" {
            return;
        }
        self.seen.insert(a.to_string());
        self.seen.insert(b.to_string());
        let ra = self.find(a);
        let rb = self.find(b);
        if ra != rb {
            self.parent.insert(ra, rb);
        }
    }

    fn class_size(&mut self, n: &str) -> usize {
        let r = self.find(n);
        let members: Vec<String> = self.seen.iter().cloned().collect();
        members.iter().filter(|m| self.find(m) == r).count().max(1)
    }
}

/// Names the value of `e` may alias (empty for fresh values: literals,
/// arithmetic, method-call and pure/unknown-function results).
fn alias_sources(e: &Expr) -> Vec<&str> {
    match e {
        Expr::Name(n) => vec![n.as_str()],
        Expr::Attr { .. } | Expr::Subscript { .. } => e.root_name().into_iter().collect(),
        Expr::List(items) | Expr::Tuple(items) => items.iter().flat_map(alias_sources).collect(),
        Expr::Call { func, args } => match func.as_ref() {
            Expr::Name(f) if is_constructor(f) => {
                args.iter().flat_map(|a| alias_sources(&a.value)).collect()
            }
            _ => Vec::new(),
        },
        _ => Vec::new(),
    }
}

fn collect_aliases(body: &[Stmt], al: &mut Aliases) {
    for s in body {
        match s {
            Stmt::Assign { targets, value } => {
                let sources: Vec<String> =
                    alias_sources(value).into_iter().map(String::from).collect();
                for t in targets {
                    if let Some(root) = t.root_name() {
                        let root = root.to_string();
                        al.seen.insert(root.clone());
                        for src in &sources {
                            al.union(&root, src);
                        }
                    }
                }
            }
            Stmt::For { var, iter, body } => {
                // Iterating a container (or a method of one) may hand
                // out views of it: `for batch in loader.epoch()`.
                let src = match iter {
                    Expr::Call { func, .. } => match func.as_ref() {
                        Expr::Attr { obj, .. } => obj.root_name(),
                        _ => None,
                    },
                    other => other.root_name(),
                };
                al.seen.insert(var.clone());
                if let Some(src) = src {
                    al.union(var, src);
                }
                collect_aliases(body, al);
            }
            Stmt::If { then, orelse, .. } => {
                collect_aliases(then, al);
                collect_aliases(orelse, al);
            }
            Stmt::SkipBlock { body, .. } => collect_aliases(body, al),
            Stmt::ExprStmt { .. } | Stmt::Import { .. } | Stmt::Pass => {}
        }
    }
}

// ---- expression walks ------------------------------------------------------

fn expr_name_leaves(e: &Expr) -> Vec<String> {
    let mut out = Vec::new();
    walk_names(e, &mut out);
    out
}

fn walk_names(e: &Expr, out: &mut Vec<String>) {
    match e {
        Expr::Name(n) => {
            if n != "flor" {
                out.push(n.clone());
            }
        }
        Expr::Attr { obj, .. } => walk_names(obj, out),
        Expr::Subscript { obj, index } => {
            walk_names(obj, out);
            walk_names(index, out);
        }
        Expr::Call { func, args } => {
            // The callee name is not a variable use, but a method
            // receiver is.
            if let Expr::Attr { obj, .. } = func.as_ref() {
                walk_names(obj, out);
            }
            for a in args {
                walk_names(&a.value, out);
            }
        }
        Expr::Bin { lhs, rhs, .. } => {
            walk_names(lhs, out);
            walk_names(rhs, out);
        }
        Expr::Unary { expr, .. } => walk_names(expr, out),
        Expr::List(items) | Expr::Tuple(items) => {
            for i in items {
                walk_names(i, out);
            }
        }
        Expr::Int(_) | Expr::Float(_) | Expr::Str(_) | Expr::Bool(_) | Expr::NoneLit => {}
    }
}

/// Root names of every method-call receiver in `e` (rules 1/4: the
/// call may mutate the receiver).
fn method_receivers(e: &Expr, out: &mut Vec<String>) {
    match e {
        Expr::Call { func, args } => {
            if let Expr::Attr { obj, .. } = func.as_ref() {
                if let Some(r) = obj.root_name() {
                    if r != "flor" {
                        out.push(r.to_string());
                    }
                }
                method_receivers(obj, out);
            }
            for a in args {
                method_receivers(&a.value, out);
            }
        }
        Expr::Attr { obj, .. } => method_receivers(obj, out),
        Expr::Subscript { obj, index } => {
            method_receivers(obj, out);
            method_receivers(index, out);
        }
        Expr::Bin { lhs, rhs, .. } => {
            method_receivers(lhs, out);
            method_receivers(rhs, out);
        }
        Expr::Unary { expr, .. } => method_receivers(expr, out),
        Expr::List(items) | Expr::Tuple(items) => {
            for i in items {
                method_receivers(i, out);
            }
        }
        _ => {}
    }
}

/// Whether `e` contains a call that must not be elided regardless of
/// liveness: constructors (global seed counter) and unknown functions
/// (replay must preserve their errors).
fn has_pinned_call(e: &Expr) -> bool {
    match e {
        Expr::Call { func, args } => {
            let pinned = match func.as_ref() {
                Expr::Name(f) => !is_pure_builtin(f) && f != "log" && f != "evaluate",
                _ => false,
            };
            pinned || args.iter().any(|a| has_pinned_call(&a.value))
        }
        Expr::Attr { obj, .. } => has_pinned_call(obj),
        Expr::Subscript { obj, index } => has_pinned_call(obj) || has_pinned_call(index),
        Expr::Bin { lhs, rhs, .. } => has_pinned_call(lhs) || has_pinned_call(rhs),
        Expr::Unary { expr, .. } => has_pinned_call(expr),
        Expr::List(items) | Expr::Tuple(items) => items.iter().any(has_pinned_call),
        _ => false,
    }
}

/// The first call in a probe's arguments that may change program state —
/// a function that is not a pure builtin, a method outside
/// [`READ_ONLY_METHODS`], or a computed callee — printed for a refusal
/// reason. `None` means evaluating the probe leaves every value as it
/// found it, so the code after it computes what it did at record time.
pub fn probe_mutating_call(probe: &Stmt) -> Option<String> {
    fn first(e: &Expr) -> Option<String> {
        match e {
            Expr::Call { func, args } => {
                let (read_only, recv) = match func.as_ref() {
                    Expr::Name(f) => (is_pure_builtin(f), None),
                    Expr::Attr { obj, name } => {
                        (READ_ONLY_METHODS.contains(&name.as_str()), Some(obj))
                    }
                    _ => (false, None),
                };
                if !read_only {
                    return Some(e.to_string());
                }
                recv.and_then(|r| first(r))
                    .or_else(|| args.iter().find_map(|a| first(&a.value)))
            }
            Expr::Attr { obj, .. } => first(obj),
            Expr::Subscript { obj, index } => first(obj).or_else(|| first(index)),
            Expr::Bin { lhs, rhs, .. } => first(lhs).or_else(|| first(rhs)),
            Expr::Unary { expr, .. } => first(expr),
            Expr::List(items) | Expr::Tuple(items) => items.iter().find_map(first),
            Expr::Name(_)
            | Expr::Int(_)
            | Expr::Float(_)
            | Expr::Str(_)
            | Expr::Bool(_)
            | Expr::NoneLit => None,
        }
    }
    match probe {
        Stmt::ExprStmt {
            expr: Expr::Call { args, .. },
        } if probe.is_log_stmt() => args.iter().find_map(|a| first(&a.value)),
        _ => Some("a probe that is not a log statement".into()),
    }
}

fn stmt_name_leaves(s: &Stmt) -> Vec<String> {
    let mut out = Vec::new();
    collect_stmt_names(s, &mut out);
    out
}

fn collect_stmt_names(s: &Stmt, out: &mut Vec<String>) {
    match s {
        Stmt::Assign { targets, value } => {
            for t in targets {
                walk_names(t, out);
            }
            walk_names(value, out);
        }
        Stmt::ExprStmt { expr } => walk_names(expr, out),
        Stmt::For { var, iter, body } => {
            out.push(var.clone());
            walk_names(iter, out);
            for s in body {
                collect_stmt_names(s, out);
            }
        }
        Stmt::If { cond, then, orelse } => {
            walk_names(cond, out);
            for s in then.iter().chain(orelse) {
                collect_stmt_names(s, out);
            }
        }
        Stmt::SkipBlock { body, .. } => {
            for s in body {
                collect_stmt_names(s, out);
            }
        }
        Stmt::Import { .. } | Stmt::Pass => {}
    }
}

// ---- backward liveness -----------------------------------------------------

struct Slicer<'a> {
    aliases: Aliases,
    probed: &'a HashSet<String>,
    changesets: BTreeMap<&'a str, &'a [String]>,
    dense: bool,
    dead: HashSet<StmtPath>,
    elided: u32,
}

impl Slicer<'_> {
    fn rep(&mut self, n: &str) -> String {
        self.aliases.find(n)
    }

    fn singleton(&mut self, n: &str) -> bool {
        self.aliases.class_size(n) <= 1
    }

    fn mark_dead(&mut self, stmt: &Stmt, path: &StmtPath) {
        if self.dead.insert(path.clone()) {
            self.elided += stmt_count(stmt);
        }
    }

    fn add_uses(&mut self, e: &Expr, live: &mut BTreeSet<String>) {
        for n in expr_name_leaves(e) {
            let r = self.rep(&n);
            live.insert(r);
        }
    }

    /// Scans `body` backward, updating `live` in place. Returns whether
    /// any statement in it is live. Only records dead paths when
    /// `record` is set (probe passes and fixpoint rounds pass false).
    fn scan_body(
        &mut self,
        body: &[Stmt],
        slot: u32,
        path: &mut StmtPath,
        live: &mut BTreeSet<String>,
        record: bool,
    ) -> bool {
        let mut any = false;
        for (i, s) in body.iter().enumerate().rev() {
            path.push(path_step(slot, i));
            any |= self.scan_stmt(s, path, live, record);
            path.pop();
        }
        any
    }

    fn scan_stmt(
        &mut self,
        stmt: &Stmt,
        path: &mut StmtPath,
        live: &mut BTreeSet<String>,
        record: bool,
    ) -> bool {
        match stmt {
            // Imports never appear in loop bodies in practice; keep
            // them. A pre-existing `pass` is dead weight either way —
            // elide it so pruned reprints stay canonical.
            Stmt::Import { .. } => true,
            Stmt::Pass => {
                if record {
                    self.mark_dead(stmt, path);
                }
                false
            }
            Stmt::Assign { targets, value } => {
                let mut defs: Vec<String> = Vec::new();
                let mut kills: Vec<String> = Vec::new();
                for t in targets {
                    match t {
                        Expr::Name(n) => {
                            let r = self.rep(n);
                            if self.singleton(n) {
                                kills.push(r.clone());
                            }
                            defs.push(r);
                        }
                        other => {
                            if let Some(root) = other.root_name() {
                                let r = self.rep(root);
                                defs.push(r);
                            }
                        }
                    }
                }
                let mut recv = Vec::new();
                method_receivers(value, &mut recv);
                for r in recv {
                    let r = self.rep(&r);
                    defs.push(r);
                }
                let stmt_live = has_pinned_call(value) || defs.iter().any(|d| live.contains(d));
                if stmt_live {
                    for k in &kills {
                        live.remove(k);
                    }
                    self.add_uses(value, live);
                    for t in targets {
                        if !matches!(t, Expr::Name(_)) {
                            // `obj.attr = v` / `obj[i] = v`: the
                            // receiver and index are uses too.
                            self.add_uses(t, live);
                        }
                    }
                } else if record {
                    self.mark_dead(stmt, path);
                }
                stmt_live
            }
            Stmt::ExprStmt { expr } => {
                if stmt.is_log_stmt() {
                    // Root: the recorded log must be regenerated.
                    self.add_uses(expr, live);
                    return true;
                }
                let mut recv = Vec::new();
                method_receivers(expr, &mut recv);
                let stmt_live = has_pinned_call(expr)
                    || recv.iter().any(|r| {
                        let r = self.rep(r);
                        live.contains(&r)
                    });
                if stmt_live {
                    self.add_uses(expr, live);
                } else if record {
                    self.mark_dead(stmt, path);
                }
                stmt_live
            }
            Stmt::If { cond, then, orelse } => {
                let live_after = live.clone();
                let mut lt = live_after.clone();
                let then_any = self.scan_body(then, 0, path, &mut lt, false);
                let mut le = live_after.clone();
                let else_any = self.scan_body(orelse, 1, path, &mut le, false);
                let mut recv = Vec::new();
                method_receivers(cond, &mut recv);
                let stmt_live = then_any
                    || else_any
                    || has_pinned_call(cond)
                    || recv.iter().any(|r| {
                        let r = self.rep(r);
                        live.contains(&r)
                    });
                if !stmt_live {
                    if record {
                        self.mark_dead(stmt, path);
                    }
                    return false;
                }
                let mut lt = live_after.clone();
                self.scan_body(then, 0, path, &mut lt, record);
                let mut le = live_after;
                self.scan_body(orelse, 1, path, &mut le, record);
                // Either branch may run (an empty else leaves the
                // after-set intact), so the live-in is their union.
                *live = lt.union(&le).cloned().collect();
                self.add_uses(cond, live);
                true
            }
            Stmt::For { var, iter, body } => {
                let live_after = live.clone();
                // Fixpoint for loop-carried dependencies.
                let mut cur = live_after.clone();
                loop {
                    let mut l = cur.clone();
                    self.scan_body(body, 0, path, &mut l, false);
                    let var_rep = self.rep(var);
                    if self.singleton(var) {
                        l.remove(&var_rep);
                    }
                    self.add_uses(iter, &mut l);
                    let next: BTreeSet<String> = live_after.union(&l).cloned().collect();
                    if next == cur {
                        break;
                    }
                    cur = next;
                }
                let mut l = cur.clone();
                let body_any = self.scan_body(body, 0, path, &mut l, false);
                let var_rep = self.rep(var);
                let mut hdr_defs = vec![var_rep];
                let mut recv = Vec::new();
                method_receivers(iter, &mut recv);
                for r in recv {
                    let r = self.rep(&r);
                    hdr_defs.push(r);
                }
                let stmt_live =
                    body_any || has_pinned_call(iter) || hdr_defs.iter().any(|d| live.contains(d));
                if !stmt_live {
                    if record {
                        self.mark_dead(stmt, path);
                    }
                    return false;
                }
                let mut l = cur;
                self.scan_body(body, 0, path, &mut l, record);
                // No kills through the header: the loop may run zero
                // times.
                live.extend(l);
                self.add_uses(iter, live);
                true
            }
            Stmt::SkipBlock { id, body } => {
                if self.probed.contains(id) {
                    // Probed blocks re-execute every iteration: scan
                    // transparently. The block itself is never elided.
                    self.scan_body(body, 0, path, live, record);
                } else if self.dense {
                    // Restored from its end-of-body checkpoint on
                    // every iteration of this replay: the checkpoint
                    // cuts the slice. Singleton-class changeset names
                    // are strongly killed; the body never runs, so it
                    // contributes no uses and is left unmarked (the
                    // engine skips it block-wise).
                    if let Some(cs) = self.changesets.get(id.as_str()) {
                        for n in cs.iter() {
                            if self.singleton(n) {
                                let r = self.rep(n);
                                live.remove(&r);
                            }
                        }
                    }
                } else {
                    // Without a dense profile a missing checkpoint
                    // forces execution: everything the body mentions
                    // may be both read and written.
                    let mut names = Vec::new();
                    for s in body {
                        collect_stmt_names(s, &mut names);
                    }
                    for n in names {
                        let r = self.rep(&n);
                        live.insert(r);
                    }
                }
                true
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instrument::instrument;
    use flor_lang::{parse, print_program, prune_program};

    fn plan_for(src: &str, probed: &[&str], dense: bool) -> (SlicePlan, flor_lang::Program) {
        let prog = parse(src).expect("parse");
        let report = instrument(&prog);
        let probed: HashSet<String> = probed.iter().map(|s| s.to_string()).collect();
        let plan = slice_program(&report.program, &probed, &report.blocks, dense);
        (plan, report.program)
    }

    fn pruned_src(plan: &SlicePlan, prog: &flor_lang::Program) -> String {
        print_program(&prune_program(prog, &plan.dead))
    }

    const SPARSE_SRC: &str = "import flor\n\
        data = synth_data(n=32)\n\
        net = mlp(input=8)\n\
        optimizer = sgd(net)\n\
        acc = 0\n\
        for epoch in flor.partition(range(4)):\n\
        \x20   waste = busy(3)\n\
        \x20   also_dead = waste\n\
        \x20   acc = acc + epoch\n\
        \x20   log(\"acc\", acc)\n\
        log(\"final\", acc)\n";

    #[test]
    fn dead_strand_is_elided_live_chain_kept() {
        let (plan, prog) = plan_for(SPARSE_SRC, &[], true);
        assert!(plan.fallback.is_none(), "{:?}", plan.fallback);
        assert!(plan.is_active());
        assert_eq!(plan.elided_stmts, 2, "waste + also_dead");
        let out = pruned_src(&plan, &prog);
        assert!(!out.contains("waste"), "{out}");
        assert!(out.contains("acc = acc + epoch"), "{out}");
        assert!(plan.live_permille() < 1000);
    }

    #[test]
    fn loop_carried_dependency_keeps_producer_live() {
        // `prev` is consumed one iteration after it is produced; a
        // non-fixpoint scan would elide `prev = x`.
        let src = "import flor\n\
            prev = 0\n\
            x = 1\n\
            for epoch in flor.partition(range(4)):\n\
            \x20   log(\"delta\", x - prev)\n\
            \x20   prev = x\n\
            \x20   x = x + 1\n";
        let (plan, prog) = plan_for(src, &[], true);
        assert!(plan.fallback.is_none(), "{:?}", plan.fallback);
        let out = pruned_src(&plan, &prog);
        assert!(
            out.contains("prev = x"),
            "loop-carried producer kept: {out}"
        );
        assert!(out.contains("x = x + 1"), "{out}");
    }

    #[test]
    fn checkpoint_cut_elides_pre_block_producer() {
        // `avg` is strongly killed by the unprobed dense block's
        // restore, so `avg.reset()` before it is dead — the checkpoint
        // supersedes it.
        let src = "import flor\n\
            data = synth_data(n=32)\n\
            net = mlp(input=8)\n\
            avg = meter()\n\
            for epoch in flor.partition(range(4)):\n\
            \x20   avg.reset()\n\
            \x20   for step in range(3):\n\
            \x20       loss = net.train_step(data, step)\n\
            \x20       avg.update(loss)\n\
            \x20   log(\"loss\", avg.mean())\n";
        let (plan, prog) = plan_for(src, &[], true);
        assert!(plan.fallback.is_none(), "{:?}", plan.fallback);
        let out = pruned_src(&plan, &prog);
        assert!(
            !out.contains("avg.reset"),
            "restore supersedes reset: {out}"
        );
        assert!(out.contains("avg.mean"), "{out}");

        // Sparse profile: the block may execute, so nothing is cut.
        let (plan, prog) = plan_for(src, &[], false);
        let out = pruned_src(&plan, &prog);
        assert!(
            out.contains("avg.reset"),
            "no cut without dense checkpoints: {out}"
        );
    }

    #[test]
    fn skipblock_boundary_dep_survives_probe() {
        // The probed block reads `scale`, produced before the block in
        // the same iteration — the producer must stay live.
        let src = "import flor\n\
            data = synth_data(n=32)\n\
            net = mlp(input=8)\n\
            for epoch in flor.partition(range(4)):\n\
            \x20   scale = epoch * 2\n\
            \x20   unrelated = busy(2)\n\
            \x20   for step in range(3):\n\
            \x20       loss = net.train_step(data, step)\n\
            \x20       log(\"scaled\", loss * scale)\n\
            \x20   log(\"epoch\", epoch)\n";
        let (plan, prog) = plan_for(src, &["sb_0"], true);
        assert!(plan.fallback.is_none(), "{:?}", plan.fallback);
        let out = pruned_src(&plan, &prog);
        assert!(out.contains("scale = epoch * 2"), "{out}");
        assert!(!out.contains("unrelated"), "{out}");
    }

    #[test]
    fn aliased_names_are_not_strongly_killed() {
        // `twin = net` aliases; a dense block restoring `net` must not
        // kill the class (twin still points at the pre-restore object).
        let src = "import flor\n\
            data = synth_data(n=32)\n\
            net = mlp(input=8)\n\
            for epoch in flor.partition(range(4)):\n\
            \x20   twin = net\n\
            \x20   twin.zero_grad()\n\
            \x20   for step in range(3):\n\
            \x20       loss = net.train_step(data, step)\n\
            \x20   log(\"epoch\", epoch)\n\
            log(\"probe\", twin.grad_norm())\n";
        let (plan, prog) = plan_for(src, &[], true);
        assert!(plan.fallback.is_none(), "{:?}", plan.fallback);
        let out = pruned_src(&plan, &prog);
        assert!(out.contains("twin.zero_grad"), "alias mutation kept: {out}");
    }

    #[test]
    fn computed_receiver_falls_back() {
        let src = "import flor\n\
            nets = [mlp(input=8)]\n\
            for epoch in flor.partition(range(4)):\n\
            \x20   w = busy(1)\n\
            \x20   nets[0].zero_grad()\n\
            \x20   x = nets[0].grad_norm()[0]\n\
            \x20   log(\"e\", epoch)\n";
        // `nets[0].grad_norm()[0]` subscripts a call result: no root.
        let prog = parse(src).expect("parse");
        let report = instrument(&prog);
        let plan = slice_program(&report.program, &HashSet::new(), &report.blocks, true);
        assert!(plan.fallback.is_some());
        assert!(plan.dead.is_empty());
        assert_eq!(plan.live_permille(), 1000);
    }

    #[test]
    fn bare_unknown_call_falls_back() {
        let src = "import flor\n\
            for epoch in flor.partition(range(4)):\n\
            \x20   mystery(epoch)\n\
            \x20   log(\"e\", epoch)\n";
        let (plan, _) = plan_for(src, &[], true);
        assert!(plan.fallback.is_some(), "rule-5 bare call refuses slicing");
    }

    #[test]
    fn constructors_are_never_elided() {
        let src = "import flor\n\
            for epoch in flor.partition(range(4)):\n\
            \x20   scratch = meter()\n\
            \x20   w = busy(1)\n\
            \x20   log(\"e\", epoch)\n";
        let (plan, prog) = plan_for(src, &[], true);
        assert!(plan.fallback.is_none());
        let out = pruned_src(&plan, &prog);
        assert!(out.contains("meter()"), "seed counter discipline: {out}");
        assert!(!out.contains("busy(1)"), "{out}");
    }

    #[test]
    fn probe_mutating_call_names_the_first_call_that_may_write() {
        let probe = |src: &str| {
            let prog = parse(src).expect("parse");
            probe_mutating_call(&prog.body[0])
        };
        for read_only in [
            "log(\"w\", net.weight_norm() + 3)\n",
            "log(\"g\", max(net.grad_norm(), abs(x)), avg.mean())\n",
            "flor.log(\"b\", len(batch), batch.size(), preds.shape())\n",
        ] {
            assert_eq!(probe(read_only), None, "{read_only}");
        }
        assert_eq!(
            probe("log(\"m\", 1 + net.accuracy(batch))\n").as_deref(),
            Some("net.accuracy(batch)")
        );
        // The receiver of a read-only method is checked too.
        assert_eq!(
            probe("log(\"n\", loader.epoch().size())\n").as_deref(),
            Some("loader.epoch()")
        );
        assert!(probe("log(\"e\", evaluate(net, data))\n").is_some());
        assert!(probe("x = net.weight_norm()\n").is_some(), "not a log");
    }

    #[test]
    fn no_main_loop_is_a_fallback() {
        let (plan, _) = plan_for("x = 1\nlog(\"x\", x)\n", &[], true);
        assert!(plan.fallback.is_some());
    }

    fn carried(src: &str) -> Option<String> {
        let prog = parse(src).expect("parse");
        let report = instrument(&prog);
        outer_carried_state(&report.program, &report.blocks)
    }

    #[test]
    fn read_before_write_accumulator_is_outer_carried() {
        // `carry` lives in no changeset and is read before its outer
        // write — the pattern that made rewound backward steals
        // diverge.
        let src = "import flor\n\
            carry = 0\n\
            for epoch in flor.partition(range(6)):\n\
            \x20   boost = epoch + 1\n\
            \x20   carry = carry + boost\n\
            \x20   log(\"c\", carry)\n";
        assert_eq!(carried(src).as_deref(), Some("carry"));
    }

    #[test]
    fn write_before_read_and_changeset_repairs_are_not_carried() {
        // `units` is definitely rewritten before any read (the
        // conditional bump reads it only after `units = 1`), and `avg`
        // is repaired every iteration by the skipblock's restore — the
        // ML-fixture shape must keep backward steals enabled.
        let src = "import flor\n\
            data = synth_data(n=32)\n\
            net = mlp(input=8)\n\
            avg = meter()\n\
            for epoch in flor.partition(range(8)):\n\
            \x20   units = 1\n\
            \x20   if epoch > 4:\n\
            \x20       units = 8\n\
            \x20   avg.reset()\n\
            \x20   for step in range(3):\n\
            \x20       w = busy(units)\n\
            \x20       loss = net.train_step(data, step)\n\
            \x20       avg.update(loss)\n\
            \x20   log(\"loss\", avg.mean())\n";
        assert_eq!(carried(src), None);
    }

    #[test]
    fn conditional_first_write_is_carried() {
        // The only write before the read sits under an `if`, so on the
        // other branch the previous iteration's value is read.
        let src = "import flor\n\
            lr = 10\n\
            for epoch in flor.partition(range(6)):\n\
            \x20   if epoch > 2:\n\
            \x20       lr = lr - 1\n\
            \x20   log(\"lr\", lr)\n";
        assert_eq!(carried(src).as_deref(), Some("lr"));
    }

    #[test]
    fn outer_method_mutation_without_restore_is_carried() {
        // `sched.step()` mutates outer state that no skipblock
        // changeset repairs (there is no skipblock at all).
        let src = "import flor\n\
            net = mlp(input=8)\n\
            optimizer = sgd(net)\n\
            sched = step_lr(optimizer)\n\
            for epoch in flor.partition(range(6)):\n\
            \x20   sched.step()\n\
            \x20   log(\"e\", epoch)\n";
        assert_eq!(carried(src).as_deref(), Some("sched"));
    }
}
