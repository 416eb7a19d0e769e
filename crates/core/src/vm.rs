//! The bytecode replay VM.
//!
//! Executes [`flor_lang::compile::Module`]s — flat instruction streams
//! with a constant pool and slot-resolved variables. Every replay runs
//! here; the tree-walking interpreter replays only as the differential
//! oracle ([`crate::replay::replay_reference`]). Both executors route
//! every value-level operation through the same shared helpers in
//! [`crate::interp`], so results and error strings agree byte-for-byte.
//!
//! Execution model:
//!
//! - **One frame per run.** [`Interp::run_vm`] installs a `VmFrame`
//!   (materialized constant pool, `Vec<Option<Value>>` slots, operand
//!   stack, iterator frames) and dispatches `ops[0..]`. Variable access
//!   is a vector index — no `String` hashing in the inner loop.
//! - **Re-enterable ranges.** Skipblock and main-loop bodies are inlined
//!   instruction ranges; the work-stealing replay executor re-enters the
//!   VM at an iteration boundary via `vm_run_range`, with
//!   checkpoint-restored values bound into slots through the
//!   `Interp::bind_name` boundary.
//! - **`Env` at the boundary only.** Checkpoint restore/materialization
//!   and post-run inspection see names, not slots: restores write
//!   through `bind_name`, and a successful run flushes slots back into
//!   the `Env` so callers observe the same final state the tree-walker
//!   would leave.
//!
//! Compiled modules are cached in a [`ModuleCache`] keyed by the replay
//! plan's module key — the probed source's `source_version` (the content address the registry's
//! query cache uses) plus the slice's hash — so repeated hindsight queries
//! over one source version skip compilation entirely — `vm.compile` stays flat while
//! `vm.module_cache_hits` climbs.

use crate::error::{rt, FlorError};
use crate::interp::{
    bin_op_fast, bin_op_values, index_value, items_of, store_attr_value, store_index_value,
    unary_op_value, unpack_values, CallArgs, Interp, LoopBody, Mode,
};
use crate::skipblock;
use crate::value::Value;
use flor_lang::ast::{Program, UnaryOp};
use flor_lang::compile::{compile_sliced, Const, Module, Op, StmtPath};
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex, PoisonError};

/// One snapshot-iterating loop in flight (a plain `for`, not the
/// partitioned main loop).
#[derive(Debug)]
struct IterFrame {
    items: Vec<Value>,
    idx: usize,
}

/// Execution state of one VM run: the module being executed, its
/// materialized constant pool, variable slots, operand stack, and
/// iterator frames.
pub(crate) struct VmFrame {
    /// The compiled module (shared, immutable).
    pub module: Arc<Module>,
    consts: Vec<Value>,
    slots: Vec<Option<Value>>,
    stack: Vec<Value>,
    iters: Vec<IterFrame>,
    dispatched: u64,
}

/// Materializes a pool constant as a runtime value.
fn const_value(c: &Const) -> Value {
    match c {
        Const::Int(i) => Value::Int(*i),
        Const::Float(x) => Value::Float(*x),
        Const::Str(s) => Value::Str(s.clone()),
        Const::Bool(b) => Value::Bool(*b),
        Const::None => Value::None,
    }
}

/// Compiles a program to a shareable module, tracing the pass
/// (`compile` span) and counting it (`vm.compile`, `vm.compile_ns`).
pub fn compile_program(prog: &Program) -> Result<Arc<Module>, FlorError> {
    compile_program_sliced(prog, &HashSet::new())
}

/// Compiles a program with dead-statement elision: statements whose
/// paths are in `dead` (the slicer's output) lower to nothing. Elided
/// statement counts feed `vm.elided_ops`.
pub fn compile_program_sliced(
    prog: &Program,
    dead: &HashSet<StmtPath>,
) -> Result<Arc<Module>, FlorError> {
    let mut span = flor_obs::span(flor_obs::Category::Compile, "compile");
    let t0 = flor_obs::clock::now_ns();
    let (module, elided) = compile_sliced(prog, dead).map_err(|e| rt(e.to_string()))?;
    let ns = flor_obs::clock::since_ns(t0);
    flor_obs::counter!("vm.compile").inc();
    flor_obs::counter!("vm.compile_ns").add(ns);
    if elided > 0 {
        flor_obs::counter!("vm.elided_ops").add(u64::from(elided));
    }
    span.set_args(module.ops.len() as u64, module.slot_count() as u64);
    Ok(Arc::new(module))
}

/// Modules a [`ModuleCache`] keeps. A long-lived server sees a new
/// source version with every fresh probe, and a compiled module is several
/// KiB against a compile pass of microseconds: the cache is for the
/// repeated sources of the moment, not a history.
const MODULE_CACHE_CAPACITY: usize = 64;

/// Compiled-module cache keyed by `source_version` (the FNV content
/// address of the source text — the same key family the registry's
/// query cache uses), holding at most `MODULE_CACHE_CAPACITY` modules;
/// a hit skips the compile pass entirely.
#[derive(Debug, Default)]
pub struct ModuleCache {
    modules: Mutex<HashMap<String, Arc<Module>>>,
}

impl ModuleCache {
    /// Empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the cached module for `source_version`, compiling and
    /// inserting on miss. Hits bump `vm.module_cache_hits`.
    pub fn get_or_compile(
        &self,
        source_version: &str,
        prog: &Program,
    ) -> Result<Arc<Module>, FlorError> {
        self.get_or_compile_sliced(source_version, prog, &HashSet::new())
    }

    /// Sliced-compile variant of [`ModuleCache::get_or_compile`]. The
    /// caller keys by `source_version` *plus* the slice's content hash
    /// (`<version>+s<hash>`), so a full module and differently-sliced
    /// modules of the same source coexist.
    pub fn get_or_compile_sliced(
        &self,
        key: &str,
        prog: &Program,
        dead: &HashSet<StmtPath>,
    ) -> Result<Arc<Module>, FlorError> {
        if let Some(m) = self
            .modules
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(key)
        {
            flor_obs::counter!("vm.module_cache_hits").inc();
            return Ok(m.clone());
        }
        let module = compile_program_sliced(prog, dead)?;
        let mut modules = self.modules.lock().unwrap_or_else(PoisonError::into_inner);
        if modules.len() >= MODULE_CACHE_CAPACITY {
            // Any victim will do: a wrongly evicted module costs one
            // recompile.
            if let Some(victim) = modules.keys().next().cloned() {
                modules.remove(&victim);
            }
        }
        modules.insert(key.to_string(), module.clone());
        Ok(module)
    }

    /// Number of cached modules.
    pub fn len(&self) -> usize {
        self.modules
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// True when no module is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Interp {
    /// Executes a compiled module to completion on the VM.
    ///
    /// Semantically equivalent to [`Interp::run`] over the program the
    /// module was compiled from, for Vanilla and Replay modes. Record
    /// mode is rejected: materialization reads the environment by name
    /// mid-run, which is exactly the boundary the VM moves — recording
    /// always tree-walks.
    pub fn run_vm(&mut self, module: &Arc<Module>) -> Result<(), FlorError> {
        if matches!(self.mode, Mode::Record(_)) {
            return Err(rt(
                "the bytecode VM does not support record mode; record runs tree-walk",
            ));
        }
        let mut slots: Vec<Option<Value>> = vec![None; module.slot_count()];
        // Pre-seed slots from any pre-bound environment (direct
        // embedders); a fresh interpreter starts empty.
        for (i, name) in module.slot_names.iter().enumerate() {
            if let Some(v) = self.env.try_get(name) {
                slots[i] = Some(v.clone());
            }
        }
        self.vm = Some(Box::new(VmFrame {
            module: module.clone(),
            consts: module.consts.iter().map(const_value).collect(),
            slots,
            stack: Vec::with_capacity(16),
            iters: Vec::new(),
            dispatched: 0,
        }));
        let vanilla = matches!(self.mode, Mode::Vanilla);
        let t0 = flor_obs::clock::now_ns();
        let result = self.vm_run_range(0, module.ops.len());
        if vanilla {
            flor_obs::histogram!("vm.exec_ns").observe(flor_obs::clock::since_ns(t0));
        }
        let frame = self.vm.take().expect("vm frame still installed");
        flor_obs::counter!("vm.dispatch").add(frame.dispatched);
        if result.is_ok() {
            // Boundary flush: bound slots become env entries so callers
            // (replay drivers, tests, the native layer) observe the same
            // final state the tree-walker leaves behind.
            for (i, v) in frame.slots.into_iter().enumerate() {
                if let Some(v) = v {
                    self.env.set(frame.module.slot_names[i].clone(), v);
                }
            }
        }
        result
    }

    /// Binds a name through the executor boundary: into the live VM
    /// frame's slot when one exists for it, else into the `Env`.
    /// Checkpoint restore writes through here.
    pub(crate) fn bind_name(&mut self, name: &str, value: Value) {
        if let Some(frame) = self.vm.as_mut() {
            if let Some(&slot) = frame.module.slot_of.get(name) {
                frame.slots[slot as usize] = Some(value);
                return;
            }
        }
        self.env.set(name.to_string(), value);
    }

    /// Reads a name through the executor boundary (slot first, then
    /// `Env`). Checkpoint restore reads the existing value through here
    /// to restore objects in place.
    pub(crate) fn lookup_name(&self, name: &str) -> Option<&Value> {
        if let Some(frame) = self.vm.as_ref() {
            if let Some(&slot) = frame.module.slot_of.get(name) {
                return frame.slots[slot as usize].as_ref();
            }
        }
        self.env.try_get(name)
    }

    /// Writes the main-loop variable's slot (per-iteration binding).
    pub(crate) fn vm_set_slot(&mut self, slot: u16, value: Value) {
        let frame = self.vm.as_mut().expect("vm frame installed");
        frame.slots[slot as usize] = Some(value);
    }

    #[inline]
    fn vm_frame(&mut self) -> &mut VmFrame {
        self.vm.as_mut().expect("vm frame installed")
    }

    #[inline]
    fn vm_pop(&mut self) -> Value {
        self.vm_frame().stack.pop().expect("vm stack underflow")
    }

    #[inline]
    fn vm_push(&mut self, v: Value) {
        self.vm_frame().stack.push(v);
    }

    /// Pops the top `n` stack values, preserving push order.
    #[inline]
    fn vm_pop_n(&mut self, n: usize) -> Vec<Value> {
        let stack = &mut self.vm_frame().stack;
        stack.split_off(stack.len() - n)
    }

    /// Executes `ops[start..end)` of the installed frame's module. The
    /// unit of VM execution: a whole program, a skipblock body, or one
    /// main-loop iteration (which is how stolen ranges re-enter at an
    /// iteration boundary).
    pub(crate) fn vm_run_range(&mut self, start: usize, end: usize) -> Result<(), FlorError> {
        let module = self.vm_frame().module.clone();
        let mut dispatched = 0u64;
        let result = self.vm_dispatch(&module, start, end, &mut dispatched);
        self.vm_frame().dispatched += dispatched;
        result
    }

    fn vm_dispatch(
        &mut self,
        module: &Arc<Module>,
        start: usize,
        end: usize,
        dispatched: &mut u64,
    ) -> Result<(), FlorError> {
        let ops = &module.ops;
        let mut pc = start;
        while pc < end {
            // Tight tier: one frame borrow covers a run of pure stack ops.
            // Re-borrowing `self.vm` per operand (pop, push, pop…) is the
            // dominant dispatch cost at this op granularity, so every op
            // that only touches the frame works on `frame` directly. The
            // six ops that need `&mut self` — calls, attribute reads, the
            // main loop, skipblocks — break out and release the borrow;
            // error paths early-return, which releases it the same way.
            let deferred = 'tight: {
                let frame = self.vm.as_mut().expect("vm frame installed");
                while pc < end {
                    *dispatched += 1;
                    let op = ops[pc];
                    pc += 1;
                    match op {
                        Op::Const(i) => frame.stack.push(frame.consts[i as usize].clone()),
                        Op::LoadSlot(i) => match &frame.slots[i as usize] {
                            Some(v) => frame.stack.push(v.clone()),
                            None => return Err(unbound(module, i)),
                        },
                        Op::StoreSlot(i) => {
                            let v = frame.stack.pop().expect("vm stack underflow");
                            frame.slots[i as usize] = Some(v);
                        }
                        Op::LoadFlor => frame.stack.push(Value::Str("<module flor>".into())),
                        Op::MakeList(n) => {
                            let items = frame.stack.split_off(frame.stack.len() - n as usize);
                            frame.stack.push(Value::list(items));
                        }
                        Op::MakeTuple(n) => {
                            let items = frame.stack.split_off(frame.stack.len() - n as usize);
                            frame.stack.push(Value::Tuple(items));
                        }
                        Op::Neg => {
                            let v = frame.stack.pop().expect("vm stack underflow");
                            frame.stack.push(unary_op_value(UnaryOp::Neg, v)?);
                        }
                        Op::Not => {
                            let v = frame.stack.pop().expect("vm stack underflow");
                            frame.stack.push(unary_op_value(UnaryOp::Not, v)?);
                        }
                        Op::Bin(op) => {
                            let r = frame.stack.pop().expect("vm stack underflow");
                            let l = frame.stack.pop().expect("vm stack underflow");
                            frame.stack.push(bin_op_values(op, l, r)?);
                        }
                        // The fused binary ops evaluate by reference
                        // straight out of slots / the constant pool —
                        // `bin_op_fast` covers the numeric cases without
                        // a clone, and everything else falls back to the
                        // same `bin_op_values` the tree-walker uses.
                        Op::BinSS { op, a, b } => {
                            let l = match &frame.slots[a as usize] {
                                Some(v) => v,
                                None => return Err(unbound(module, a)),
                            };
                            let r = match &frame.slots[b as usize] {
                                Some(v) => v,
                                None => return Err(unbound(module, b)),
                            };
                            let v = match bin_op_fast(op, l, r) {
                                Some(v) => v,
                                None => bin_op_values(op, l.clone(), r.clone())?,
                            };
                            frame.stack.push(v);
                        }
                        Op::BinSC { op, a, c } => {
                            let l = match &frame.slots[a as usize] {
                                Some(v) => v,
                                None => return Err(unbound(module, a)),
                            };
                            let r = &frame.consts[c as usize];
                            let v = match bin_op_fast(op, l, r) {
                                Some(v) => v,
                                None => bin_op_values(op, l.clone(), r.clone())?,
                            };
                            frame.stack.push(v);
                        }
                        Op::BinCS { op, c, b } => {
                            let l = &frame.consts[c as usize];
                            let r = match &frame.slots[b as usize] {
                                Some(v) => v,
                                None => return Err(unbound(module, b)),
                            };
                            let v = match bin_op_fast(op, l, r) {
                                Some(v) => v,
                                None => bin_op_values(op, l.clone(), r.clone())?,
                            };
                            frame.stack.push(v);
                        }
                        Op::BinTS { op, b } => {
                            let r = match &frame.slots[b as usize] {
                                Some(v) => v,
                                None => return Err(unbound(module, b)),
                            };
                            let l = frame.stack.last().expect("vm stack underflow");
                            let v = match bin_op_fast(op, l, r) {
                                Some(v) => v,
                                None => {
                                    let r = r.clone();
                                    let l = frame.stack.pop().expect("vm stack underflow");
                                    frame.stack.push(bin_op_values(op, l, r)?);
                                    continue;
                                }
                            };
                            *frame.stack.last_mut().expect("vm stack underflow") = v;
                        }
                        Op::BinTC { op, c } => {
                            let r = &frame.consts[c as usize];
                            let l = frame.stack.last().expect("vm stack underflow");
                            let v = match bin_op_fast(op, l, r) {
                                Some(v) => v,
                                None => {
                                    let r = r.clone();
                                    let l = frame.stack.pop().expect("vm stack underflow");
                                    frame.stack.push(bin_op_values(op, l, r)?);
                                    continue;
                                }
                            };
                            *frame.stack.last_mut().expect("vm stack underflow") = v;
                        }
                        Op::Jump(t) => pc = t as usize,
                        Op::JumpIfFalse(t) => {
                            let v = frame.stack.pop().expect("vm stack underflow");
                            if !v.truthy() {
                                pc = t as usize;
                            }
                        }
                        Op::AndJump(t) => {
                            let top = frame.stack.last().expect("vm stack underflow");
                            if top.truthy() {
                                frame.stack.pop();
                            } else {
                                pc = t as usize;
                            }
                        }
                        Op::OrJump(t) => {
                            let top = frame.stack.last().expect("vm stack underflow");
                            if top.truthy() {
                                pc = t as usize;
                            } else {
                                frame.stack.pop();
                            }
                        }
                        Op::Pop => {
                            frame.stack.pop().expect("vm stack underflow");
                        }
                        Op::Index => {
                            let idx = frame.stack.pop().expect("vm stack underflow");
                            let recv = frame.stack.pop().expect("vm stack underflow");
                            frame.stack.push(index_value(recv, idx)?);
                        }
                        Op::StoreIndex => {
                            let idx = frame.stack.pop().expect("vm stack underflow");
                            let recv = frame.stack.pop().expect("vm stack underflow");
                            let value = frame.stack.pop().expect("vm stack underflow");
                            store_index_value(recv, idx, value)?;
                        }
                        Op::StoreAttr(i) => {
                            let recv = frame.stack.pop().expect("vm stack underflow");
                            let value = frame.stack.pop().expect("vm stack underflow");
                            store_attr_value(recv, &module.names[i as usize], value)?;
                        }
                        Op::Unpack(n) => {
                            let v = frame.stack.pop().expect("vm stack underflow");
                            let items = unpack_values(v, n as usize)?;
                            // Reverse so the first target's value is on top.
                            frame.stack.extend(items.into_iter().rev());
                        }
                        Op::GetIter => {
                            let v = frame.stack.pop().expect("vm stack underflow");
                            let items = items_of(v)?;
                            frame.iters.push(IterFrame { items, idx: 0 });
                        }
                        Op::ForIter { slot, exit } => {
                            let iter = frame.iters.last_mut().expect("iter frame installed");
                            if iter.idx < iter.items.len() {
                                let item = iter.items[iter.idx].clone();
                                iter.idx += 1;
                                frame.slots[slot as usize] = Some(item);
                            } else {
                                frame.iters.pop();
                                pc = exit as usize;
                            }
                        }
                        Op::Fail(i) => return Err(rt(module.names[i as usize].clone())),
                        Op::LoadAttr(_)
                        | Op::CallLog(_)
                        | Op::CallBuiltin(_)
                        | Op::CallMethod(_)
                        | Op::MainLoop(_)
                        | Op::SkipBlock(_) => break 'tight Some(op),
                    }
                }
                None
            };
            // Deferred tier: the frame borrow is released; these ops go
            // back through the `vm_pop`/`vm_push` helpers because the
            // `&mut self` call in the middle forbids holding it.
            match deferred {
                None => break,
                Some(Op::LoadAttr(i)) => {
                    let recv = self.vm_pop();
                    let v = self.read_attr(recv, &module.names[i as usize])?;
                    self.vm_push(v);
                }
                Some(Op::CallLog(argc)) => {
                    let vals = self.vm_pop_n(argc as usize);
                    let r = self.log_values(vals)?;
                    self.vm_push(r);
                }
                Some(Op::CallBuiltin(ci)) => {
                    let spec = &module.calls[ci as usize];
                    let vals = self.vm_pop_n(spec.args.len());
                    let args = build_call_args(module, ci, vals);
                    let name = &module.names[spec.name as usize];
                    let r = self.call_builtin(name, args)?;
                    self.vm_push(r);
                }
                Some(Op::CallMethod(ci)) => {
                    let spec = &module.calls[ci as usize];
                    let vals = self.vm_pop_n(spec.args.len());
                    let recv = self.vm_pop();
                    let args = build_call_args(module, ci, vals);
                    let name = &module.names[spec.name as usize];
                    let r = self.call_method(recv, name, args)?;
                    self.vm_push(r);
                }
                Some(Op::MainLoop(li)) => {
                    let info = module.loops[li as usize];
                    let iterable = self.vm_pop();
                    let items = items_of(iterable)?;
                    self.exec_main_loop_impl(
                        &LoopBody::Vm {
                            var_slot: info.var_slot,
                            start: info.body_start,
                            end: info.body_end,
                        },
                        items,
                    )?;
                    pc = info.body_end;
                }
                Some(Op::SkipBlock(bi)) => {
                    let info = &module.blocks[bi as usize];
                    skipblock::exec_skipblock_vm(self, &info.id, info.body_start, info.body_end)?;
                    pc = info.body_end;
                }
                Some(op) => unreachable!("pure op {op:?} cannot defer"),
            }
        }
        Ok(())
    }
}

/// The unbound-slot error, shared by `LoadSlot` and the fused binary
/// ops so every executor path reports the identical message.
#[cold]
fn unbound(module: &Module, slot: u16) -> FlorError {
    let name = &module.slot_names[slot as usize];
    rt(format!("name {name:?} is not defined"))
}

/// Rebuilds the positional/keyword split for call site `ci` from the
/// popped argument values (source evaluation order is the stack order).
fn build_call_args(module: &Module, ci: u16, vals: Vec<Value>) -> CallArgs {
    let spec = &module.calls[ci as usize];
    let mut pos = Vec::with_capacity(vals.len());
    let mut kw = Vec::new();
    for (v, kw_name) in vals.into_iter().zip(&spec.args) {
        match kw_name {
            Some(n) => kw.push((module.names[*n as usize].clone(), v)),
            None => pos.push(v),
        }
    }
    CallArgs::new(pos, kw)
}

#[cfg(test)]
mod tests {
    use super::*;
    use flor_lang::parse;

    fn run_both(src: &str) -> (Interp, Interp) {
        let prog = parse(src).expect("parse");
        let mut tree = Interp::new(Mode::Vanilla);
        tree.run(&prog).expect("tree run");
        let module = compile_program(&prog).expect("compile");
        let mut vm = Interp::new(Mode::Vanilla);
        vm.run_vm(&module).expect("vm run");
        (tree, vm)
    }

    fn assert_same_outcome(src: &str) {
        let prog = parse(src).expect("parse");
        let mut tree = Interp::new(Mode::Vanilla);
        let tree_res = tree.run(&prog);
        let module = compile_program(&prog).expect("compile");
        let mut vm = Interp::new(Mode::Vanilla);
        let vm_res = vm.run_vm(&module);
        match (&tree_res, &vm_res) {
            (Ok(()), Ok(())) => assert_envs_equal(&tree, &vm),
            (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string(), "error parity"),
            other => panic!("outcome mismatch for {src:?}: {other:?}"),
        }
        assert_eq!(tree.log.entries(), vm.log.entries(), "log parity");
    }

    fn assert_envs_equal(a: &Interp, b: &Interp) {
        let mut na: Vec<&str> = a.env.names().collect();
        let mut nb: Vec<&str> = b.env.names().collect();
        na.sort_unstable();
        nb.sort_unstable();
        assert_eq!(na, nb, "bound names");
        for n in na {
            assert_eq!(
                a.env.get(n).unwrap().display(),
                b.env.get(n).unwrap().display(),
                "value of {n:?}"
            );
        }
    }

    #[test]
    fn arithmetic_and_slots_match_tree_walker() {
        let (tree, vm) =
            run_both("x = 3\ny = x * 2 + 1\nz = y / 2\nw = y % 4\ns = \"a\" + \"b\"\nq = -x\n");
        assert_envs_equal(&tree, &vm);
        assert_eq!(vm.env.get("y").unwrap().as_i64().unwrap(), 7);
        assert_eq!(vm.env.get("s").unwrap().display(), "ab");
    }

    #[test]
    fn control_flow_and_loops_match() {
        assert_same_outcome(
            "acc = 0\nfor i in range(10):\n    if i % 2 == 0:\n        acc = acc + i\n    else:\n        acc = acc - 1\nlog(\"acc\", acc)\n",
        );
    }

    #[test]
    fn short_circuit_keeps_deciding_value() {
        assert_same_outcome(
            "a = 0 and boom\nb = 1 or boom\nc = 0 or 7\nd = 2 and 3\nlog(\"v\", a, b, c, d)\n",
        );
    }

    #[test]
    fn lists_tuples_unpack_subscript_match() {
        assert_same_outcome(
            "xs = [1, 2, 3]\nt = (4, 5)\na, b = t\nxs[0] = b\nxs[-1] = a\nfirst = xs[0]\nlog(\"xs\", xs, first)\n",
        );
    }

    #[test]
    fn log_key_and_joining_match() {
        assert_same_outcome("log(3, 1.5, \"x\", True)\nlog(\"k\")\n");
    }

    #[test]
    fn errors_match_tree_walker() {
        for src in [
            "x = undefined_name\n",
            "x = 1 / 0\n",
            "x = 1 % 0\n",
            "x = [1][5]\n",
            "x = (1, 2)[9]\n",
            "x = -\"s\"\n",
            "a, b = 3\n",
            "a, b = (1, 2, 3)\n",
            "x = \"s\"[0]\n",
            "log()\n",
            "x = nofunc(1)\n",
            "for i in 3:\n    x = 1\n",
        ] {
            assert_same_outcome(src);
        }
    }

    #[test]
    fn flor_sentinel_and_builtin_calls_match() {
        assert_same_outcome(
            "m = flor\nflor = 5\nn = flor\nxs = flor.partition(range(3))\nlog(\"m\", m, n, xs)\n",
        );
    }

    #[test]
    fn ctor_seed_sequence_matches_tree_walker() {
        // Constructors without seed= draw from the shared deterministic
        // counter; both executors must consume it in the same order.
        assert_same_outcome(
            "d = synth_data(n=8, dim=2, classes=2)\nnet = mlp(input=2, hidden=3, classes=2, depth=1)\nw = net.weight_norm()\nlog(\"w\", w)\n",
        );
    }

    #[test]
    fn training_loop_matches_tree_walker() {
        assert_same_outcome(
            "data = synth_data(n=24, dim=4, classes=2, seed=3)\nloader = dataloader(data, batch_size=8, seed=3)\nnet = mlp(input=4, hidden=6, classes=2, depth=1, seed=3)\noptimizer = sgd(net, lr=0.1)\ncriterion = cross_entropy()\navg = meter()\nfor epoch in range(3):\n    avg.reset()\n    for batch in loader.epoch():\n        optimizer.zero_grad()\n        preds = net.forward(batch)\n        loss = criterion.forward(preds, batch)\n        grad = criterion.backward()\n        net.backward(grad)\n        optimizer.step()\n        avg.update(loss)\n    log(\"loss\", avg.mean())\nlog(\"final\", net.weight_norm())\n",
        );
    }

    #[test]
    fn main_loop_vanilla_matches_tree_walker() {
        assert_same_outcome(
            "acc = 0\nfor epoch in flor.partition(range(6)):\n    acc = acc + epoch\n    log(\"acc\", acc)\nlog(\"done\", acc)\n",
        );
    }

    #[test]
    fn record_mode_is_rejected() {
        let prog = parse("x = 1\n").unwrap();
        let module = compile_program(&prog).unwrap();
        let dir = std::env::temp_dir().join(format!(
            "flor-vm-rec-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Arc::new(flor_chkpt::CheckpointStore::open(dir).unwrap());
        let mut interp = Interp::new(Mode::Record(Box::new(crate::interp::RecordCtx {
            store: store.clone(),
            materializer: flor_chkpt::Materializer::new(store, 2),
            controller: crate::adaptive::AdaptiveController::default(),
            static_changesets: Default::default(),
            lean: true,
            main_iter: None,
            standalone_seq: Default::default(),
            blocks_this_iter: Default::default(),
            profile: crate::profile::ProfileBuilder::new(),
        })));
        let err = interp.run_vm(&module).unwrap_err();
        assert!(err.to_string().contains("record"), "got: {err}");
    }

    #[test]
    fn module_cache_compiles_once_per_version() {
        let prog = parse("x = 1\ny = x + 1\n").unwrap();
        let cache = ModuleCache::new();
        let before = flor_obs::metrics::counter("vm.compile").get();
        let a = cache.get_or_compile("v1", &prog).unwrap();
        let b = cache.get_or_compile("v1", &prog).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "second fetch is the cached module");
        assert_eq!(cache.len(), 1);
        let after = flor_obs::metrics::counter("vm.compile").get();
        assert_eq!(after - before, 1, "one compile for two fetches");
    }

    #[test]
    fn module_cache_stays_bounded_under_a_stream_of_fresh_versions() {
        // A server's every fresh probe is a new source version.
        let prog = parse("x = 1\n").unwrap();
        let cache = ModuleCache::new();
        for v in 0..3 * MODULE_CACHE_CAPACITY {
            cache.get_or_compile(&format!("v{v}"), &prog).unwrap();
        }
        assert_eq!(cache.len(), MODULE_CACHE_CAPACITY);
        // Still a cache: what it holds is served without a compile.
        let newest = format!("v{}", 3 * MODULE_CACHE_CAPACITY - 1);
        let a = cache.get_or_compile(&newest, &prog).unwrap();
        let b = cache.get_or_compile(&newest, &prog).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
    }
}
