//! Bytecode compiler: lowers a FlorScript [`Program`] to a flat
//! instruction stream executed by `flor-core`'s VM.
//!
//! The tree-walking interpreter re-dispatches on [`Stmt`]/[`Expr`] nodes
//! and hashes `String` names into the environment on every variable
//! touch — the dominant cost of replay once checkpoint reads are ~1µs
//! (paper §5: replay speed is the product's reason to exist). One
//! compile pass per source version eliminates both:
//!
//! - **Constant pool** — literals are materialized once per run, not per
//!   evaluation ([`Const`], [`Op::Const`]).
//! - **Slot-resolved variables** — every distinct name gets a `u16`
//!   frame slot at compile time; the VM indexes a `Vec` instead of
//!   hashing strings ([`Op::LoadSlot`]/[`Op::StoreSlot`]). `Env` remains
//!   only the boundary representation for checkpoint restore and
//!   materialization.
//! - **Compact ops** — control flow becomes absolute jumps; skipblock
//!   and main-loop bodies are inlined ranges re-enterable at iteration
//!   boundaries, which is exactly what the work-stealing replay executor
//!   needs to run a stolen range without walking the tree to find it.
//!
//! Compilation preserves the tree-walker's observable semantics *by
//! construction*: operand evaluation order matches the recursive
//! evaluator statement-for-statement, and runtime error strings are
//! either produced by the same shared helpers or pre-formatted here from
//! the same AST nodes ([`Op::Fail`]).

use crate::ast::{Arg, BinOp, Expr, Program, Stmt, UnaryOp};
use std::collections::{HashMap, HashSet};
use std::fmt;

/// Address of one statement in a program: one packed [`path_step`] per
/// nesting level, root first. The slot halves are fixed per container —
/// `For`/`SkipBlock` bodies and `If` then-branches are slot 0, `If`
/// else-branches slot 1, and the top-level program body slot 0 — so a
/// path identifies the same statement to the AST pruner
/// ([`prune_program`]), the elision compiler ([`compile_sliced`]), and
/// the slicer in `flor-analysis` that produces the dead set.
pub type StmtPath = Vec<u64>;

/// Packs one [`StmtPath`] step: which body of the parent statement
/// (`slot`) and the statement's index within that body.
pub fn path_step(slot: u32, idx: usize) -> u64 {
    ((slot as u64) << 32) | idx as u64
}

/// Number of statement nodes in a subtree — the unit of the slicer's
/// elision accounting (a dead `if` counts itself plus both branches).
pub fn stmt_count(stmt: &Stmt) -> u32 {
    match stmt {
        Stmt::For { body, .. } | Stmt::SkipBlock { body, .. } => {
            1 + body.iter().map(stmt_count).sum::<u32>()
        }
        Stmt::If { then, orelse, .. } => {
            1 + then.iter().map(stmt_count).sum::<u32>()
                + orelse.iter().map(stmt_count).sum::<u32>()
        }
        _ => 1,
    }
}

/// Removes every statement whose [`StmtPath`] is in `dead`, recursively.
/// This is the tree-walking interpreter's view of the slice: it executes
/// the pruned program directly, while the VM executes
/// [`compile_sliced`]'s module — both derive from the same dead set, and
/// `compile_sliced(prog, dead) == compile(prune_program(prog, dead))` by
/// construction (a bodies-emptied `pass` lowers to no instructions).
pub fn prune_program(prog: &Program, dead: &HashSet<StmtPath>) -> Program {
    let mut path = StmtPath::new();
    Program::new(prune_body(&prog.body, 0, &mut path, dead))
}

fn prune_body(
    body: &[Stmt],
    slot: u32,
    path: &mut StmtPath,
    dead: &HashSet<StmtPath>,
) -> Vec<Stmt> {
    let mut out = Vec::with_capacity(body.len());
    for (i, s) in body.iter().enumerate() {
        path.push(path_step(slot, i));
        if !dead.contains(path) {
            out.push(prune_stmt(s, path, dead));
        }
        path.pop();
    }
    if out.is_empty() && !body.is_empty() {
        // Keep emptied bodies printable and re-parseable; `pass` lowers
        // to no instructions, preserving module equality with in-place
        // elision.
        out.push(Stmt::Pass);
    }
    out
}

fn prune_stmt(stmt: &Stmt, path: &mut StmtPath, dead: &HashSet<StmtPath>) -> Stmt {
    match stmt {
        Stmt::For { var, iter, body } => Stmt::For {
            var: var.clone(),
            iter: iter.clone(),
            body: prune_body(body, 0, path, dead),
        },
        Stmt::If { cond, then, orelse } => Stmt::If {
            cond: cond.clone(),
            then: prune_body(then, 0, path, dead),
            orelse: prune_body(orelse, 1, path, dead),
        },
        Stmt::SkipBlock { id, body } => Stmt::SkipBlock {
            id: id.clone(),
            body: prune_body(body, 0, path, dead),
        },
        other => other.clone(),
    }
}

/// A compile-time constant in the module's pool.
#[derive(Debug, Clone, PartialEq)]
pub enum Const {
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// String literal.
    Str(String),
    /// Boolean literal.
    Bool(bool),
    /// `None`.
    None,
}

/// One VM instruction. Operands index the module's side tables
/// ([`Module::consts`], [`Module::names`], [`Module::calls`],
/// [`Module::loops`], [`Module::blocks`]) or frame slots; jump targets
/// are absolute instruction indices.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    /// Push `consts[i]`.
    Const(u16),
    /// Push the value in frame slot `i`; error if unbound.
    LoadSlot(u16),
    /// Pop into frame slot `i`.
    StoreSlot(u16),
    /// Push the `flor` module sentinel (checked before any binding, like
    /// the tree-walker's `Name("flor")` special case).
    LoadFlor,
    /// Pop `n` values, push a list (first-pushed first).
    MakeList(u16),
    /// Pop `n` values, push a tuple.
    MakeTuple(u16),
    /// Arithmetic negation of the top of stack.
    Neg,
    /// Logical negation (truthiness) of the top of stack.
    Not,
    /// Pop rhs, pop lhs, push `lhs op rhs`. Never [`BinOp::And`] /
    /// [`BinOp::Or`] — those compile to short-circuit jumps.
    Bin(BinOp),
    /// Fused [`Op::Bin`]: push `slots[a] op slots[b]` without touching
    /// the operand stack. Unbound-slot errors fire for `a` before `b`,
    /// exactly like the discrete `LoadSlot a; LoadSlot b; Bin` sequence.
    BinSS {
        /// Operator (never `And`/`Or`).
        op: BinOp,
        /// Lhs frame slot.
        a: u16,
        /// Rhs frame slot.
        b: u16,
    },
    /// Fused [`Op::Bin`]: push `slots[a] op consts[c]`.
    BinSC {
        /// Operator (never `And`/`Or`).
        op: BinOp,
        /// Lhs frame slot.
        a: u16,
        /// Rhs constant-pool index.
        c: u16,
    },
    /// Fused [`Op::Bin`]: push `consts[c] op slots[b]`.
    BinCS {
        /// Operator (never `And`/`Or`).
        op: BinOp,
        /// Lhs constant-pool index.
        c: u16,
        /// Rhs frame slot.
        b: u16,
    },
    /// Fused [`Op::Bin`]: pop lhs, push `lhs op slots[b]`.
    BinTS {
        /// Operator (never `And`/`Or`).
        op: BinOp,
        /// Rhs frame slot.
        b: u16,
    },
    /// Fused [`Op::Bin`]: pop lhs, push `lhs op consts[c]`.
    BinTC {
        /// Operator (never `And`/`Or`).
        op: BinOp,
        /// Rhs constant-pool index.
        c: u16,
    },
    /// Unconditional jump.
    Jump(u32),
    /// Pop the condition; jump if falsy.
    JumpIfFalse(u32),
    /// `and` short-circuit: if the top of stack is falsy, jump (keeping
    /// it as the result); otherwise pop it and continue into the rhs.
    AndJump(u32),
    /// `or` short-circuit: if the top of stack is truthy, jump (keeping
    /// it as the result); otherwise pop it and continue into the rhs.
    OrJump(u32),
    /// Discard the top of stack.
    Pop,
    /// Pop index, pop receiver, push `recv[index]`.
    Index,
    /// Pop index, pop receiver, pop value; `recv[index] = value`.
    StoreIndex,
    /// Pop receiver, push `recv.<names[i]>`.
    LoadAttr(u16),
    /// Pop receiver, pop value; `recv.<names[i]> = value`.
    StoreAttr(u16),
    /// Pop a tuple/list of exactly `n` items; push them in reverse so
    /// the first target's value ends up on top.
    Unpack(u16),
    /// Pop `n` evaluated arguments and emit a log entry (the `log(...)`
    /// / `flor.log(...)` primitive; keyword names are ignored, exactly
    /// like the tree-walker).
    CallLog(u16),
    /// Pop `calls[i].args.len()` arguments and invoke the builtin named
    /// `calls[i].name`.
    CallBuiltin(u16),
    /// Pop `calls[i].args.len()` arguments, pop the receiver, and invoke
    /// the method named `calls[i].name`.
    CallMethod(u16),
    /// Pop an iterable and push an iteration frame over its items
    /// (snapshotting, like the tree-walker's `eval_to_items`).
    GetIter,
    /// Advance the innermost iteration frame: store the next item into
    /// `slot` and fall through, or pop the frame and jump to `exit`.
    ForIter {
        /// Loop-variable frame slot.
        slot: u16,
        /// Jump target once the frame is exhausted.
        exit: u32,
    },
    /// Enter the `flor.partition` main loop described by `loops[i]`; the
    /// iterable's items are on the stack. The handler runs the inlined
    /// body range per iteration and resumes after it.
    MainLoop(u16),
    /// Execute the skipblock described by `blocks[i]` (record/restore
    /// decision at runtime); its body is the inlined range after this
    /// instruction, and the handler resumes past it.
    SkipBlock(u16),
    /// Raise the pre-formatted runtime error `names[i]` (statically
    /// uncallable callee, invalid assignment target). Evaluation order
    /// up to the failure point matches the tree-walker.
    Fail(u16),
}

/// Signature of one call site: the callee (or method) name plus each
/// argument's keyword name (`None` = positional), in source order. The
/// VM zips this with the popped argument values to rebuild the
/// positional/keyword split without re-inspecting the AST.
#[derive(Debug, Clone, PartialEq)]
pub struct CallSpec {
    /// Callee name index into [`Module::names`] (function name for
    /// [`Op::CallBuiltin`], method name for [`Op::CallMethod`]).
    pub name: u16,
    /// Per-argument keyword-name index (`None` = positional).
    pub args: Vec<Option<u16>>,
}

/// One `flor.partition` main loop: its loop-variable slot and the
/// inlined body's instruction range.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoopInfo {
    /// Frame slot of the loop variable.
    pub var_slot: u16,
    /// First instruction of the inlined body.
    pub body_start: usize,
    /// One past the last instruction of the body (resume point).
    pub body_end: usize,
}

/// One skipblock: its static id and the inlined body's instruction
/// range.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockInfo {
    /// Static skipblock id (stable across runs).
    pub id: String,
    /// First instruction of the inlined body.
    pub body_start: usize,
    /// One past the last instruction of the body (resume point).
    pub body_end: usize,
}

/// A compiled program: the instruction stream plus its side tables.
/// Immutable after compilation and `Send + Sync`, so replay workers
/// share one module behind an `Arc` and the registry caches it across
/// queries keyed by `source_version`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Module {
    /// Flat instruction stream; execution starts at 0.
    pub ops: Vec<Op>,
    /// Constant pool.
    pub consts: Vec<Const>,
    /// Interned strings: attribute/method/builtin/keyword names and
    /// pre-formatted [`Op::Fail`] messages.
    pub names: Vec<String>,
    /// Call-site signatures for [`Op::CallBuiltin`]/[`Op::CallMethod`].
    pub calls: Vec<CallSpec>,
    /// Slot index → variable name (for unbound-name errors and the
    /// slots→`Env` boundary flush).
    pub slot_names: Vec<String>,
    /// Variable name → slot index (for the `Env`→slots boundary on
    /// checkpoint restore).
    pub slot_of: HashMap<String, u16>,
    /// Main-loop descriptors for [`Op::MainLoop`].
    pub loops: Vec<LoopInfo>,
    /// Skipblock descriptors for [`Op::SkipBlock`].
    pub blocks: Vec<BlockInfo>,
}

impl Module {
    /// Number of frame slots a VM frame for this module needs.
    pub fn slot_count(&self) -> usize {
        self.slot_names.len()
    }
}

/// Compilation failure: a program exceeding the bytecode format's
/// limits (2¹⁶ slots/names/constants/call sites, 2³² instructions).
#[derive(Debug, Clone, PartialEq)]
pub struct CompileError(pub String);

/// A side-effect-free operand the compiler can fold into a fused
/// binary op instead of routing through the operand stack.
#[derive(Debug, Clone, Copy)]
enum Leaf {
    /// A plain variable reference, resolved to its frame slot.
    Slot(u16),
    /// A literal, interned in the constant pool.
    Const(u16),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "compile error: {}", self.0)
    }
}

impl std::error::Error for CompileError {}

/// Compiles a program to a [`Module`].
pub fn compile(prog: &Program) -> Result<Module, CompileError> {
    compile_sliced(prog, &HashSet::new()).map(|(m, _)| m)
}

/// Compiles a program with dead-statement elision: statements whose
/// [`StmtPath`] is in `dead` (and their subtrees) lower to nothing.
/// Returns the module and the number of statement nodes elided.
///
/// Produces exactly the module `compile(&prune_program(prog, dead))`
/// would — the differential unit test below pins this — so the VM and
/// the tree-walker execute the same slice.
pub fn compile_sliced(
    prog: &Program,
    dead: &HashSet<StmtPath>,
) -> Result<(Module, u32), CompileError> {
    let mut c = Compiler {
        dead: dead.clone(),
        ..Compiler::default()
    };
    c.body(&prog.body, 0)?;
    let elided = c.elided;
    Ok((
        Module {
            ops: c.ops,
            consts: c.consts,
            names: c.names,
            calls: c.calls,
            slot_names: c.slot_names,
            slot_of: c.slot_of,
            loops: c.loops,
            blocks: c.blocks,
        },
        elided,
    ))
}

/// Constant-pool dedup key (floats keyed by bit pattern).
#[derive(PartialEq, Eq, Hash)]
enum ConstKey {
    Int(i64),
    Float(u64),
    Str(String),
    Bool(bool),
    None,
}

#[derive(Default)]
struct Compiler {
    ops: Vec<Op>,
    consts: Vec<Const>,
    const_ids: HashMap<ConstKey, u16>,
    names: Vec<String>,
    name_ids: HashMap<String, u16>,
    calls: Vec<CallSpec>,
    slot_names: Vec<String>,
    slot_of: HashMap<String, u16>,
    loops: Vec<LoopInfo>,
    blocks: Vec<BlockInfo>,
    path: StmtPath,
    dead: HashSet<StmtPath>,
    elided: u32,
}

impl Compiler {
    fn emit(&mut self, op: Op) -> usize {
        self.ops.push(op);
        self.ops.len() - 1
    }

    fn here(&self) -> Result<u32, CompileError> {
        u32::try_from(self.ops.len())
            .map_err(|_| CompileError("program exceeds 2^32 instructions".into()))
    }

    fn patch(&mut self, at: usize, target: u32) {
        match &mut self.ops[at] {
            Op::Jump(t)
            | Op::JumpIfFalse(t)
            | Op::AndJump(t)
            | Op::OrJump(t)
            | Op::ForIter { exit: t, .. } => *t = target,
            other => unreachable!("patching non-jump op {other:?}"),
        }
    }

    fn konst(&mut self, c: Const) -> Result<u16, CompileError> {
        let key = match &c {
            Const::Int(i) => ConstKey::Int(*i),
            Const::Float(f) => ConstKey::Float(f.to_bits()),
            Const::Str(s) => ConstKey::Str(s.clone()),
            Const::Bool(b) => ConstKey::Bool(*b),
            Const::None => ConstKey::None,
        };
        if let Some(&id) = self.const_ids.get(&key) {
            return Ok(id);
        }
        let id = u16::try_from(self.consts.len())
            .map_err(|_| CompileError("more than 2^16 constants".into()))?;
        self.consts.push(c);
        self.const_ids.insert(key, id);
        Ok(id)
    }

    fn name_id(&mut self, name: &str) -> Result<u16, CompileError> {
        if let Some(&id) = self.name_ids.get(name) {
            return Ok(id);
        }
        let id = u16::try_from(self.names.len())
            .map_err(|_| CompileError("more than 2^16 interned names".into()))?;
        self.names.push(name.to_string());
        self.name_ids.insert(name.to_string(), id);
        Ok(id)
    }

    fn slot(&mut self, name: &str) -> Result<u16, CompileError> {
        if let Some(&id) = self.slot_of.get(name) {
            return Ok(id);
        }
        let id = u16::try_from(self.slot_names.len())
            .map_err(|_| CompileError("more than 2^16 variables".into()))?;
        self.slot_names.push(name.to_string());
        self.slot_of.insert(name.to_string(), id);
        Ok(id)
    }

    fn fail(&mut self, message: String) -> Result<(), CompileError> {
        let id = self.name_id(&message)?;
        self.emit(Op::Fail(id));
        Ok(())
    }

    fn call_spec(&mut self, name: &str, args: &[Arg]) -> Result<u16, CompileError> {
        let name = self.name_id(name)?;
        let mut kws = Vec::with_capacity(args.len());
        for a in args {
            kws.push(match &a.name {
                Some(n) => Some(self.name_id(n)?),
                None => None,
            });
        }
        let id = u16::try_from(self.calls.len())
            .map_err(|_| CompileError("more than 2^16 call sites".into()))?;
        self.calls.push(CallSpec { name, args: kws });
        Ok(id)
    }

    fn body(&mut self, body: &[Stmt], slot: u32) -> Result<(), CompileError> {
        for (i, s) in body.iter().enumerate() {
            self.path.push(path_step(slot, i));
            if self.dead.contains(&self.path) {
                self.elided += stmt_count(s);
            } else {
                self.stmt(s)?;
            }
            self.path.pop();
        }
        Ok(())
    }

    fn stmt(&mut self, stmt: &Stmt) -> Result<(), CompileError> {
        match stmt {
            Stmt::Import { .. } | Stmt::Pass => Ok(()),
            Stmt::Assign { targets, value } => {
                self.expr(value)?;
                if targets.len() == 1 {
                    self.store_target(&targets[0])
                } else {
                    let n = u16::try_from(targets.len())
                        .map_err(|_| CompileError("more than 2^16 assignment targets".into()))?;
                    self.emit(Op::Unpack(n));
                    for t in targets {
                        self.store_target(t)?;
                    }
                    Ok(())
                }
            }
            Stmt::ExprStmt { expr } => {
                self.expr(expr)?;
                self.emit(Op::Pop);
                Ok(())
            }
            Stmt::If { cond, then, orelse } => {
                self.expr(cond)?;
                let jf = self.emit(Op::JumpIfFalse(u32::MAX));
                self.body(then, 0)?;
                let j = self.emit(Op::Jump(u32::MAX));
                let else_at = self.here()?;
                self.patch(jf, else_at);
                self.body(orelse, 1)?;
                let end = self.here()?;
                self.patch(j, end);
                Ok(())
            }
            Stmt::SkipBlock { id, body } => {
                let bi = self.blocks.len();
                self.blocks.push(BlockInfo {
                    id: id.clone(),
                    body_start: 0,
                    body_end: 0,
                });
                let bi16 = u16::try_from(bi)
                    .map_err(|_| CompileError("more than 2^16 skipblocks".into()))?;
                self.emit(Op::SkipBlock(bi16));
                self.blocks[bi].body_start = self.ops.len();
                self.body(body, 0)?;
                self.blocks[bi].body_end = self.ops.len();
                Ok(())
            }
            Stmt::For { var, iter, body } => {
                // The main loop: `for v in flor.partition(inner):` — same
                // detection as the tree-walker's exec_stmt.
                if let Expr::Call { func, args } = iter {
                    if let Expr::Attr { obj, name } = func.as_ref() {
                        if name == "partition" && obj.as_name() == Some("flor") && args.len() == 1 {
                            return self.main_loop(var, &args[0].value, body);
                        }
                    }
                }
                self.expr(iter)?;
                self.emit(Op::GetIter);
                let head = self.here()?;
                let slot = self.slot(var)?;
                let fi = self.emit(Op::ForIter {
                    slot,
                    exit: u32::MAX,
                });
                self.body(body, 0)?;
                self.emit(Op::Jump(head));
                let exit = self.here()?;
                self.patch(fi, exit);
                Ok(())
            }
        }
    }

    fn main_loop(&mut self, var: &str, inner: &Expr, body: &[Stmt]) -> Result<(), CompileError> {
        self.expr(inner)?;
        let var_slot = self.slot(var)?;
        let li = self.loops.len();
        self.loops.push(LoopInfo {
            var_slot,
            body_start: 0,
            body_end: 0,
        });
        let li16 =
            u16::try_from(li).map_err(|_| CompileError("more than 2^16 main loops".into()))?;
        self.emit(Op::MainLoop(li16));
        self.loops[li].body_start = self.ops.len();
        self.body(body, 0)?;
        self.loops[li].body_end = self.ops.len();
        Ok(())
    }

    fn store_target(&mut self, target: &Expr) -> Result<(), CompileError> {
        match target {
            Expr::Name(n) => {
                let slot = self.slot(n)?;
                self.emit(Op::StoreSlot(slot));
                Ok(())
            }
            Expr::Attr { obj, name } => {
                self.expr(obj)?;
                let id = self.name_id(name)?;
                self.emit(Op::StoreAttr(id));
                Ok(())
            }
            Expr::Subscript { obj, index } => {
                self.expr(obj)?;
                self.expr(index)?;
                self.emit(Op::StoreIndex);
                Ok(())
            }
            other => self.fail(format!("invalid assignment target {other}")),
        }
    }

    /// Classifies a fusible leaf operand: a plain variable (slot) or a
    /// literal (constant-pool entry). `flor` is not a leaf — it loads
    /// the module sentinel through its own op. Interning here is
    /// idempotent with [`Self::expr`], so classifying an operand that
    /// ends up compiled discretely wastes nothing.
    fn leaf(&mut self, e: &Expr) -> Result<Option<Leaf>, CompileError> {
        Ok(match e {
            Expr::Int(i) => Some(Leaf::Const(self.konst(Const::Int(*i))?)),
            Expr::Float(f) => Some(Leaf::Const(self.konst(Const::Float(*f))?)),
            Expr::Str(s) => Some(Leaf::Const(self.konst(Const::Str(s.clone()))?)),
            Expr::Bool(b) => Some(Leaf::Const(self.konst(Const::Bool(*b))?)),
            Expr::NoneLit => Some(Leaf::Const(self.konst(Const::None)?)),
            Expr::Name(n) if n != "flor" => Some(Leaf::Slot(self.slot(n)?)),
            _ => None,
        })
    }

    fn expr(&mut self, expr: &Expr) -> Result<(), CompileError> {
        match expr {
            Expr::Int(i) => {
                let id = self.konst(Const::Int(*i))?;
                self.emit(Op::Const(id));
                Ok(())
            }
            Expr::Float(f) => {
                let id = self.konst(Const::Float(*f))?;
                self.emit(Op::Const(id));
                Ok(())
            }
            Expr::Str(s) => {
                let id = self.konst(Const::Str(s.clone()))?;
                self.emit(Op::Const(id));
                Ok(())
            }
            Expr::Bool(b) => {
                let id = self.konst(Const::Bool(*b))?;
                self.emit(Op::Const(id));
                Ok(())
            }
            Expr::NoneLit => {
                let id = self.konst(Const::None)?;
                self.emit(Op::Const(id));
                Ok(())
            }
            Expr::Name(n) => {
                // `flor` resolves to the module sentinel before any
                // binding — mirror the tree-walker's eval order.
                if n == "flor" {
                    self.emit(Op::LoadFlor);
                } else {
                    let slot = self.slot(n)?;
                    self.emit(Op::LoadSlot(slot));
                }
                Ok(())
            }
            Expr::List(items) => {
                for item in items {
                    self.expr(item)?;
                }
                let n = u16::try_from(items.len())
                    .map_err(|_| CompileError("more than 2^16 list items".into()))?;
                self.emit(Op::MakeList(n));
                Ok(())
            }
            Expr::Tuple(items) => {
                for item in items {
                    self.expr(item)?;
                }
                let n = u16::try_from(items.len())
                    .map_err(|_| CompileError("more than 2^16 tuple items".into()))?;
                self.emit(Op::MakeTuple(n));
                Ok(())
            }
            Expr::Unary { op, expr } => {
                self.expr(expr)?;
                self.emit(match op {
                    UnaryOp::Neg => Op::Neg,
                    UnaryOp::Not => Op::Not,
                });
                Ok(())
            }
            Expr::Bin { op, lhs, rhs } => match op {
                BinOp::And => {
                    self.expr(lhs)?;
                    let j = self.emit(Op::AndJump(u32::MAX));
                    self.expr(rhs)?;
                    let end = self.here()?;
                    self.patch(j, end);
                    Ok(())
                }
                BinOp::Or => {
                    self.expr(lhs)?;
                    let j = self.emit(Op::OrJump(u32::MAX));
                    self.expr(rhs)?;
                    let end = self.here()?;
                    self.patch(j, end);
                    Ok(())
                }
                _ => {
                    // Operand fusion: variable / literal leaves fold into
                    // the operator itself, skipping the operand stack.
                    // Leaves are side-effect free, so evaluation order —
                    // and the unbound-name error order — is unchanged.
                    match (self.leaf(lhs)?, self.leaf(rhs)?) {
                        (Some(Leaf::Slot(a)), Some(Leaf::Slot(b))) => {
                            self.emit(Op::BinSS { op: *op, a, b });
                        }
                        (Some(Leaf::Slot(a)), Some(Leaf::Const(c))) => {
                            self.emit(Op::BinSC { op: *op, a, c });
                        }
                        (Some(Leaf::Const(c)), Some(Leaf::Slot(b))) => {
                            self.emit(Op::BinCS { op: *op, c, b });
                        }
                        (Some(Leaf::Const(c)), Some(Leaf::Const(c2))) => {
                            self.emit(Op::Const(c));
                            self.emit(Op::BinTC { op: *op, c: c2 });
                        }
                        (None, Some(Leaf::Slot(b))) => {
                            self.expr(lhs)?;
                            self.emit(Op::BinTS { op: *op, b });
                        }
                        (None, Some(Leaf::Const(c))) => {
                            self.expr(lhs)?;
                            self.emit(Op::BinTC { op: *op, c });
                        }
                        (_, None) => {
                            self.expr(lhs)?;
                            self.expr(rhs)?;
                            self.emit(Op::Bin(*op));
                        }
                    }
                    Ok(())
                }
            },
            Expr::Subscript { obj, index } => {
                self.expr(obj)?;
                self.expr(index)?;
                self.emit(Op::Index);
                Ok(())
            }
            Expr::Attr { obj, name } => {
                self.expr(obj)?;
                let id = self.name_id(name)?;
                self.emit(Op::LoadAttr(id));
                Ok(())
            }
            Expr::Call { func, args } => self.call(func, args),
        }
    }

    fn call(&mut self, func: &Expr, args: &[Arg]) -> Result<(), CompileError> {
        // `log(...)` / `flor.log(...)` is the logging primitive
        // regardless of environment bindings — a static decision in the
        // tree-walker, so a static decision here.
        let is_flor_attr = |target: &str| -> bool {
            matches!(func, Expr::Attr { obj, name } if name == target && obj.as_name() == Some("flor"))
        };
        if matches!(func, Expr::Name(n) if n == "log") || is_flor_attr("log") {
            for a in args {
                self.expr(&a.value)?;
            }
            let n = u16::try_from(args.len())
                .map_err(|_| CompileError("more than 2^16 log arguments".into()))?;
            self.emit(Op::CallLog(n));
            return Ok(());
        }
        // `flor.partition` outside a for-header is the identity over its
        // first argument (only that argument is evaluated).
        if is_flor_attr("partition") {
            return match args.first() {
                Some(a) => self.expr(&a.value),
                None => self.fail("flor.partition requires an argument".into()),
            };
        }
        match func {
            Expr::Name(n) => {
                for a in args {
                    self.expr(&a.value)?;
                }
                let spec = self.call_spec(n, args)?;
                self.emit(Op::CallBuiltin(spec));
                Ok(())
            }
            Expr::Attr { obj, name } => {
                self.expr(obj)?;
                for a in args {
                    self.expr(&a.value)?;
                }
                let spec = self.call_spec(name, args)?;
                self.emit(Op::CallMethod(spec));
                Ok(())
            }
            // The tree-walker rejects a non-name, non-attribute callee
            // without evaluating anything — so no argument code here.
            other => self.fail(format!("cannot call {other}")),
        }
    }
}

#[cfg(test)]
impl Op {
    /// Stable mnemonic the opcode-coverage test matches on.
    fn mnemonic(self) -> &'static str {
        match self {
            Op::Const(_) => "const",
            Op::LoadSlot(_) => "load-slot",
            Op::StoreSlot(_) => "store-slot",
            Op::LoadFlor => "load-flor",
            Op::MakeList(_) => "make-list",
            Op::MakeTuple(_) => "make-tuple",
            Op::Neg => "neg",
            Op::Not => "not",
            Op::Bin(_) => "bin",
            Op::BinSS { .. } => "bin-ss",
            Op::BinSC { .. } => "bin-sc",
            Op::BinCS { .. } => "bin-cs",
            Op::BinTS { .. } => "bin-ts",
            Op::BinTC { .. } => "bin-tc",
            Op::Jump(_) => "jump",
            Op::JumpIfFalse(_) => "jump-if-false",
            Op::AndJump(_) => "and-jump",
            Op::OrJump(_) => "or-jump",
            Op::Pop => "pop",
            Op::Index => "index",
            Op::StoreIndex => "store-index",
            Op::LoadAttr(_) => "load-attr",
            Op::StoreAttr(_) => "store-attr",
            Op::Unpack(_) => "unpack",
            Op::CallLog(_) => "call-log",
            Op::CallBuiltin(_) => "call-builtin",
            Op::CallMethod(_) => "call-method",
            Op::GetIter => "get-iter",
            Op::ForIter { .. } => "for-iter",
            Op::MainLoop(_) => "main-loop",
            Op::SkipBlock(_) => "skip-block",
            Op::Fail(_) => "fail",
        }
    }

    /// Every mnemonic, in declaration order — the opcode-coverage test
    /// asserts each one is constructed by at least one compiler test.
    const MNEMONICS: [&'static str; 32] = [
        "const",
        "load-slot",
        "store-slot",
        "load-flor",
        "make-list",
        "make-tuple",
        "neg",
        "not",
        "bin",
        "bin-ss",
        "bin-sc",
        "bin-cs",
        "bin-ts",
        "bin-tc",
        "jump",
        "jump-if-false",
        "and-jump",
        "or-jump",
        "pop",
        "index",
        "store-index",
        "load-attr",
        "store-attr",
        "unpack",
        "call-log",
        "call-builtin",
        "call-method",
        "get-iter",
        "for-iter",
        "main-loop",
        "skip-block",
        "fail",
    ];
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;
    use std::collections::HashSet;

    fn compile_src(src: &str) -> Module {
        compile(&parse(src).expect("parse")).expect("compile")
    }

    fn mnemonics(m: &Module) -> HashSet<&'static str> {
        m.ops.iter().map(|op| op.mnemonic()).collect()
    }

    #[test]
    fn literals_are_pooled_and_deduped() {
        let m = compile_src("x = 1\ny = 1\nz = 2.5\ns = \"hi\"\nt = \"hi\"\nb = True\nn = None\n");
        assert_eq!(
            m.consts,
            vec![
                Const::Int(1),
                Const::Float(2.5),
                Const::Str("hi".into()),
                Const::Bool(true),
                Const::None,
            ],
            "duplicate literals share one pool entry"
        );
    }

    #[test]
    fn names_resolve_to_stable_slots() {
        let m = compile_src("x = 1\ny = x\nx = y\n");
        assert_eq!(m.slot_names, vec!["x".to_string(), "y".to_string()]);
        assert_eq!(m.slot_of["x"], 0);
        assert_eq!(m.slot_of["y"], 1);
        assert_eq!(
            m.ops,
            vec![
                Op::Const(0),
                Op::StoreSlot(0),
                Op::LoadSlot(0),
                Op::StoreSlot(1),
                Op::LoadSlot(1),
                Op::StoreSlot(0),
            ]
        );
    }

    #[test]
    fn flor_name_compiles_to_sentinel_load() {
        let m = compile_src("x = flor\nflor = 1\n");
        assert!(m.ops.contains(&Op::LoadFlor), "loads use the sentinel");
        // Stores still get a slot (dead, like the tree-walker's env entry).
        assert!(m.slot_of.contains_key("flor"));
    }

    #[test]
    fn if_else_compiles_to_jumps() {
        let m = compile_src("if x > 1:\n    y = 1\nelse:\n    y = 2\n");
        // x > 1 fuses to one op: BinSC, JumpIfFalse(else), 1, store,
        // Jump(end), else: 2, store
        assert!(matches!(m.ops[0], Op::BinSC { op: BinOp::Gt, .. }));
        assert_eq!(m.ops[1], Op::JumpIfFalse(5));
        assert_eq!(m.ops[4], Op::Jump(7));
        assert_eq!(m.ops.len(), 7);
    }

    #[test]
    fn and_or_compile_to_short_circuit_jumps() {
        let m = compile_src("x = a and b\ny = a or b\n");
        let mn = mnemonics(&m);
        assert!(mn.contains("and-jump") && mn.contains("or-jump"));
        assert!(
            !m.ops
                .iter()
                .any(|op| matches!(op, Op::Bin(BinOp::And) | Op::Bin(BinOp::Or))),
            "short-circuit ops never compile to Bin"
        );
    }

    #[test]
    fn plain_for_compiles_to_iter_frame_loop() {
        let m = compile_src("for i in xs:\n    y = i\n");
        // LoadSlot(xs), GetIter, ForIter, LoadSlot(i), StoreSlot(y), Jump(head)
        assert_eq!(m.ops[1], Op::GetIter);
        let slot_i = m.slot_of["i"];
        assert_eq!(
            m.ops[2],
            Op::ForIter {
                slot: slot_i,
                exit: 6
            }
        );
        assert_eq!(m.ops[5], Op::Jump(2));
    }

    #[test]
    fn main_loop_records_body_range() {
        let m = compile_src("for epoch in flor.partition(range(3)):\n    log(\"e\", epoch)\n");
        assert_eq!(m.loops.len(), 1);
        let li = m.loops[0];
        assert_eq!(li.var_slot, m.slot_of["epoch"]);
        // range(3), MainLoop, [body: "e", epoch, CallLog, Pop]
        assert!(matches!(m.ops[li.body_start - 1], Op::MainLoop(0)));
        assert_eq!(li.body_end, m.ops.len());
        assert!(mnemonics(&m).contains("call-log"));
    }

    #[test]
    fn skipblock_records_body_range() {
        let prog = Program::new(vec![Stmt::SkipBlock {
            id: "sb1".into(),
            body: vec![Stmt::Assign {
                targets: vec![Expr::name("x")],
                value: Expr::Int(1),
            }],
        }]);
        let m = compile(&prog).expect("compile");
        assert_eq!(m.blocks.len(), 1);
        assert_eq!(m.blocks[0].id, "sb1");
        assert!(matches!(
            m.ops[m.blocks[0].body_start - 1],
            Op::SkipBlock(0)
        ));
        assert_eq!(m.blocks[0].body_end, m.ops.len());
    }

    #[test]
    fn calls_preserve_argument_order_and_keywords() {
        let m = compile_src("net = mlp(4, hidden=6)\nloss = net.forward(batch)\n");
        assert_eq!(m.calls.len(), 2);
        let mlp = &m.calls[0];
        assert_eq!(m.names[mlp.name as usize], "mlp");
        assert_eq!(mlp.args.len(), 2);
        assert!(mlp.args[0].is_none());
        assert_eq!(m.names[mlp.args[1].unwrap() as usize], "hidden");
        let fwd = &m.calls[1];
        assert_eq!(m.names[fwd.name as usize], "forward");
        let mn = mnemonics(&m);
        assert!(mn.contains("call-builtin") && mn.contains("call-method"));
    }

    #[test]
    fn partition_outside_for_header_is_identity_over_first_arg() {
        let m = compile_src("x = flor.partition(xs)\n");
        assert_eq!(
            m.ops,
            vec![Op::LoadSlot(0), Op::StoreSlot(1)],
            "identity: just the inner expression"
        );
    }

    #[test]
    fn uncallable_callee_compiles_to_fail_without_arg_code() {
        let prog = Program::new(vec![Stmt::ExprStmt {
            expr: Expr::Call {
                func: Box::new(Expr::Int(3)),
                args: vec![Arg::pos(Expr::name("x"))],
            },
        }]);
        let m = compile(&prog).expect("compile");
        assert!(matches!(m.ops[0], Op::Fail(_)));
        assert_eq!(m.names[0], "cannot call 3");
        assert!(
            !m.ops.iter().any(|op| matches!(op, Op::LoadSlot(_))),
            "arguments are not evaluated for an uncallable callee"
        );
    }

    #[test]
    fn invalid_assignment_target_compiles_to_fail_after_value() {
        let prog = Program::new(vec![Stmt::Assign {
            targets: vec![Expr::Int(3)],
            value: Expr::name("x"),
        }]);
        let m = compile(&prog).expect("compile");
        assert!(matches!(m.ops[0], Op::LoadSlot(_)), "value evaluates first");
        assert!(matches!(m.ops[1], Op::Fail(_)));
        assert_eq!(m.names[0], "invalid assignment target 3");
    }

    #[test]
    fn multi_assign_unpacks_then_stores_in_order() {
        let m = compile_src("a, b = xs\nys[0] = a\nnet.lr = b\n");
        let mn = mnemonics(&m);
        for op in ["unpack", "store-index", "store-attr", "index"] {
            assert!(mn.contains(op) || op == "index", "{op} present");
        }
        assert!(m.ops.contains(&Op::Unpack(2)));
    }

    #[test]
    fn subscript_and_attr_loads() {
        let m = compile_src("x = xs[0]\ny = net.lr\nz = -x\nw = not y\nl = [1, 2]\nt = (1, 2)\n");
        let mn = mnemonics(&m);
        for op in [
            "index",
            "load-attr",
            "neg",
            "not",
            "make-list",
            "make-tuple",
        ] {
            assert!(mn.contains(op), "{op} present");
        }
    }

    #[test]
    fn opcode_coverage_every_op_constructed_by_compiler_tests() {
        // Union of the ops produced across representative programs; the
        // CI quick gate runs this test so a new Op variant without
        // compiler coverage fails the build.
        let mut seen: HashSet<&'static str> = HashSet::new();
        let sources = [
            "x = 1\ny = 2.5\ns = \"hi\"\nb = True\nn = None\nz = x + y\nq = x < 2 and b or not b\nw = -x\n",
            "xs = [1, 2, 3]\nt = (1, 2)\na, b = t\nxs[0] = a\nfirst = xs[0]\n",
            "if x > 1:\n    y = 1\nelse:\n    y = 2\n",
            "for i in xs:\n    log(\"i\", i)\n",
            "for epoch in flor.partition(range(3)):\n    log(\"e\", epoch)\n",
            "net = mlp(4, hidden=6)\nnet.lr = 0.5\nlr = net.lr\nloss = net.forward(batch)\nm = flor\n",
            // Every fused-operand shape plus the unfused fallback:
            // slot∘slot, slot∘const, const∘slot, stack∘slot, stack∘const,
            // and a compound∘compound that stays a raw `bin`.
            "a = x + y\nb = x + 1\nc = 1 + x\nd = (x + y) * x\ne = (x + y) * 2\nf = (x + y) * (x - y)\n",
        ];
        for src in sources {
            seen.extend(mnemonics(&compile_src(src)));
        }
        let skipblock = Program::new(vec![Stmt::SkipBlock {
            id: "sb".into(),
            body: vec![Stmt::Pass],
        }]);
        seen.extend(
            compile(&skipblock)
                .expect("compile")
                .ops
                .iter()
                .map(|op| op.mnemonic()),
        );
        let fail = Program::new(vec![Stmt::ExprStmt {
            expr: Expr::Call {
                func: Box::new(Expr::Int(1)),
                args: vec![],
            },
        }]);
        seen.extend(
            compile(&fail)
                .expect("compile")
                .ops
                .iter()
                .map(|op| op.mnemonic()),
        );
        let missing: Vec<_> = Op::MNEMONICS
            .iter()
            .filter(|m| !seen.contains(**m))
            .collect();
        assert!(
            missing.is_empty(),
            "ops never constructed by compiler tests: {missing:?}"
        );
    }

    #[test]
    fn compile_is_deterministic() {
        let src =
            "x = 1\nfor epoch in flor.partition(range(4)):\n    x = x + epoch\n    log(\"x\", x)\n";
        let a = compile_src(src);
        let b = compile_src(src);
        assert_eq!(a, b);
    }

    const SLICE_SRC: &str = "import flor\n\
        base = 1\n\
        for epoch in flor.partition(range(4)):\n\
        \x20   waste = busy(3)\n\
        \x20   x = base + epoch\n\
        \x20   if epoch > 2:\n\
        \x20       extra = busy(1)\n\
        \x20   log(\"x\", x)\n\
        done = x\n";

    // Paths of `waste = busy(3)` and the whole `if epoch > 2:` subtree.
    fn slice_dead() -> HashSet<StmtPath> {
        let for_path = path_step(0, 2);
        let mut dead = HashSet::new();
        dead.insert(vec![for_path, path_step(0, 0)]);
        dead.insert(vec![for_path, path_step(0, 2)]);
        dead
    }

    #[test]
    fn compile_sliced_matches_compiling_the_pruned_tree() {
        let prog = parse(SLICE_SRC).expect("parse");
        let dead = slice_dead();
        let (sliced, elided) = compile_sliced(&prog, &dead).expect("compile_sliced");
        assert_eq!(elided, 3, "waste + if + its body");
        let pruned = prune_program(&prog, &dead);
        assert_eq!(sliced, compile(&pruned).expect("compile pruned"));
        let full = compile(&prog).expect("compile full");
        assert!(sliced.ops.len() < full.ops.len());
        assert!(
            !sliced.slot_of.contains_key("waste"),
            "dead slots not interned"
        );
    }

    #[test]
    fn compile_sliced_with_empty_dead_set_is_plain_compile() {
        let prog = parse(SLICE_SRC).expect("parse");
        let (m, elided) = compile_sliced(&prog, &HashSet::new()).expect("compile_sliced");
        assert_eq!(elided, 0);
        assert_eq!(m, compile(&prog).expect("compile"));
    }

    #[test]
    fn prune_keeps_emptied_bodies_printable() {
        let prog = parse("if x > 1:\n    y = 2\nelse:\n    z = 3\n").expect("parse");
        let mut dead = HashSet::new();
        dead.insert(vec![path_step(0, 0), path_step(0, 0)]); // then body
        let pruned = prune_program(&prog, &dead);
        let printed = crate::print_program(&pruned);
        assert!(
            printed.contains("pass"),
            "emptied branch prints as pass: {printed}"
        );
        // pass lowers to nothing: module equality with in-place elision.
        let (sliced, _) = compile_sliced(&prog, &dead).expect("compile_sliced");
        assert_eq!(sliced, compile(&pruned).expect("compile pruned"));
        // Round-trips through the parser.
        crate::parse(&printed).expect("pruned program re-parses");
    }
}
