//! The SkipBlock runtime — the paper's §4.2 language construct.
//!
//! A SkipBlock "always applies the side-effects of the enclosed loop to the
//! program state, but does so in one of two ways: (a) by executing the
//! enclosed loop, or (b) by skipping the loop and instead loading the
//! memoized side-effects from its materialized Loop End Checkpoint."
//!
//! Parameterized branching, by mode and phase:
//!
//! | Mode / phase | probed | checkpoint exists | action |
//! |---|---|---|---|
//! | Vanilla            | —   | —   | execute |
//! | Record             | —   | —   | execute, then maybe materialize (Eq. 4) |
//! | Replay / Init      | any | yes | **restore** (probe output belongs to other workers) |
//! | Replay / Init      | any | no  | execute (fills gaps left by periodic checkpointing) |
//! | Replay / Work      | yes | any | execute (memoization captures only final state, "not the intermediate states") |
//! | Replay / Work      | no  | yes | restore |
//! | Replay / Work      | no  | no  | execute |
//!
//! Non-hindsight source changes (`force_execute_all`) poison every
//! checkpoint: all blocks execute.

use crate::error::{rt, FlorError};
use crate::interp::{Interp, Mode, Phase};
use crate::oracle::EnvOracle;
use crate::value::Value;
use flor_analysis::augment_changeset;
use flor_chkpt::{encode, encode_into, BytesMut, CVal, SerializeSnapshot};
use flor_lang::ast::Stmt;
use std::sync::Arc;

/// Sequence-number base for SkipBlocks executed outside the main loop,
/// keeping them disjoint from main-loop iteration numbers.
const STANDALONE_BASE: u64 = 1 << 48;

/// A built checkpoint payload handed to the background materializer.
/// Building it is O(#objects) on the caller — tensor leaves are lazy
/// handles to refcounted slabs ([`flor_chkpt::LazyBytes`]), so no payload
/// bytes are copied on the training thread. Serialization (the tagged
/// encoding, including producing the tensor bytes) runs in the background
/// worker into a pooled buffer, mirroring the paper's fork() split.
pub struct CValSnapshot {
    cval: CVal,
    objects: usize,
}

impl CValSnapshot {
    /// Wraps a lowered value tree of `objects` logical objects.
    pub fn new(cval: CVal, objects: usize) -> Self {
        CValSnapshot { cval, objects }
    }
}

impl SerializeSnapshot for CValSnapshot {
    fn serialize(&self) -> Vec<u8> {
        encode(&self.cval)
    }
    fn serialize_into(&self, buf: &mut BytesMut) {
        encode_into(&self.cval, buf);
    }
    fn approx_bytes(&self) -> usize {
        self.cval.approx_bytes()
    }
    fn object_count(&self) -> usize {
        self.objects
    }
}

/// A skipblock body, abstracted over the executor (tree statements or a
/// compiled VM instruction range), mirroring `interp::LoopBody`.
pub(crate) enum BlockBody<'a> {
    /// Walk the AST statements.
    Tree(&'a [Stmt]),
    /// Execute a compiled instruction range on the VM.
    Vm {
        /// First instruction of the body.
        start: usize,
        /// One past the last instruction of the body.
        end: usize,
    },
}

fn exec_block_body(interp: &mut Interp, body: &BlockBody<'_>) -> Result<(), FlorError> {
    match body {
        BlockBody::Tree(b) => interp.exec_body(b),
        BlockBody::Vm { start, end } => interp.vm_run_range(*start, *end),
    }
}

/// Executes a `skipblock "id":` statement in the interpreter's current mode.
pub fn exec_skipblock(interp: &mut Interp, id: &str, body: &[Stmt]) -> Result<(), FlorError> {
    exec_skipblock_impl(interp, id, &BlockBody::Tree(body))
}

/// VM entry point: executes the skipblock whose compiled body is
/// `ops[start..end]` in the interpreter's current mode.
pub(crate) fn exec_skipblock_vm(
    interp: &mut Interp,
    id: &str,
    start: usize,
    end: usize,
) -> Result<(), FlorError> {
    exec_skipblock_impl(interp, id, &BlockBody::Vm { start, end })
}

fn exec_skipblock_impl(
    interp: &mut Interp,
    id: &str,
    body: &BlockBody<'_>,
) -> Result<(), FlorError> {
    match &interp.mode {
        Mode::Vanilla => exec_block_body(interp, body),
        Mode::Record(_) => exec_record(interp, id, body),
        Mode::Replay(_) => exec_replay(interp, id, body),
    }
}

/// Computes this execution's sequence number: the global main-loop
/// iteration when inside the main loop, a standalone counter otherwise.
/// The one sequencing rule of both runtimes (the interpreter and the
/// native [`Session`](crate::native::Session)): a block executed twice in
/// one iteration is refused, since its two checkpoints would share a key.
pub(crate) fn next_seq(
    main_iter: Option<u64>,
    standalone: &mut std::collections::HashMap<String, u64>,
    blocks_this_iter: &mut std::collections::HashSet<String>,
    id: &str,
) -> Result<u64, FlorError> {
    match main_iter {
        Some(g) => {
            if !blocks_this_iter.insert(id.to_string()) {
                return Err(rt(format!(
                    "skipblock {id:?} executed more than once in main-loop iteration {g}; \
                     flor-rs supports at most one execution per epoch per block"
                )));
            }
            Ok(g)
        }
        None => {
            let counter = standalone.entry(id.to_string()).or_insert(0);
            let seq = STANDALONE_BASE + *counter;
            *counter += 1;
            Ok(seq)
        }
    }
}

fn exec_record(interp: &mut Interp, id: &str, body: &BlockBody<'_>) -> Result<(), FlorError> {
    let mut span = flor_obs::span(flor_obs::Category::Record, "record_block");
    // 1. Execute the enclosed loop, timing its compute (C_i).
    let t0 = flor_obs::clock::now_ns();
    exec_block_body(interp, body)?;
    let compute_ns = flor_obs::clock::since_ns(t0);
    flor_obs::histogram!("record.compute_ns").observe(compute_ns);

    let Mode::Record(ctx) = &mut interp.mode else {
        unreachable!("exec_record outside record mode")
    };
    let seq = next_seq(
        ctx.main_iter,
        &mut ctx.standalone_seq,
        &mut ctx.blocks_this_iter,
        id,
    )?;
    span.set_args(seq, compute_ns);

    // 2. Changeset: static analysis result, augmented at runtime with
    //    library knowledge over the live object graph (paper §5.2.1).
    //    With lean checkpointing disabled (ablation), every bound name is
    //    captured instead.
    let env = &interp.env;
    let augmented = if ctx.lean {
        let static_cs = ctx.static_changesets.get(id).cloned().unwrap_or_default();
        augment_changeset(&static_cs, &EnvOracle::new(env))
    } else {
        let mut names: Vec<String> = env.names().map(str::to_string).collect();
        names.sort_unstable();
        names
    };

    // 3. Predict the materialization cost from a cheap size estimate.
    let est_bytes: usize = augmented
        .iter()
        .filter_map(|name| env.try_get(name))
        .map(|v| v.estimate_snapshot_bytes())
        .sum();
    let est_m = ctx.controller.estimate_materialize_ns(id, est_bytes as u64);

    // 4. Joint invariant (Eq. 4): materialize only if it keeps both the
    //    record-overhead and replay-latency invariants.
    if ctx.controller.should_materialize(id, compute_ns, est_m) {
        let t1 = flor_obs::clock::now_ns();
        let mut pairs: Vec<(String, CVal)> = Vec::with_capacity(augmented.len());
        for name in &augmented {
            if let Some(v) = env.try_get(name) {
                pairs.push((name.clone(), v.snapshot()?));
            }
        }
        let objects = pairs.len();
        let payload = CValSnapshot::new(CVal::Map(pairs), objects);
        ctx.materializer.submit(id, seq, Arc::new(payload));
        // M_i observed: the caller-visible cost (snapshot build + submit).
        // The serialize+compress+write runs in the background, exactly the
        // cost the paper's fork() hides from the training thread.
        let main_ns = flor_obs::clock::since_ns(t1);
        ctx.controller
            .observe_materialize(id, main_ns.max(1), est_bytes as u64);
        if let Some(g) = ctx.main_iter {
            ctx.profile.observe(g, compute_ns, Some(main_ns.max(1)));
        }
    } else if let Some(g) = ctx.main_iter {
        ctx.profile.observe(g, compute_ns, None);
    }
    Ok(())
}

fn exec_replay(interp: &mut Interp, id: &str, body: &BlockBody<'_>) -> Result<(), FlorError> {
    // Decide while holding the replay context.
    let (do_execute, seq) = {
        let Mode::Replay(ctx) = &mut interp.mode else {
            unreachable!("exec_replay outside replay mode")
        };
        let seq = next_seq(
            ctx.main_iter,
            &mut ctx.standalone_seq,
            &mut ctx.blocks_this_iter,
            id,
        )?;
        let exists = ctx.store.contains(id, seq);
        let probed = ctx.plan.probed_blocks.contains(id);
        let do_execute = match ctx.phase {
            // Initialization: restore whenever possible; probes don't
            // matter (their output belongs to other workers' partitions).
            Phase::Init => ctx.plan.force_execute_all() || !exists,
            // Work: "Flor skips memoized code-blocks on replay, unless
            // their internals are probed" (Figure 1).
            Phase::Work => ctx.plan.force_execute_all() || probed || !exists,
        };
        (do_execute, seq)
    };

    if do_execute {
        // Re-executing a block during replay regenerates its log records —
        // hindsight logging's deferred record work, so cat = Record.
        let mut span = flor_obs::span(flor_obs::Category::Record, "exec_block");
        span.set_args(seq, 0);
        exec_block_body(interp, body)?;
        if let Mode::Replay(ctx) = &mut interp.mode {
            ctx.stats.executed += 1;
        }
        return Ok(());
    }

    // Restore the Loop End Checkpoint (physical recovery). The payload
    // arrives as a refcounted `Bytes`. A key on the worker's prefetch
    // schedule is read by the prefetcher and nobody else — `take` waits
    // for it if it has not landed yet; only keys it will never have
    // (unscheduled, or their fetch failed) are read here, directly.
    let mut span = flor_obs::span(flor_obs::Category::RestoreChain, "restore");
    span.set_args(seq, 0);
    let t0 = flor_obs::clock::now_ns();
    let payload_bytes = {
        let Mode::Replay(ctx) = &mut interp.mode else {
            unreachable!()
        };
        let _fetch = flor_obs::span(flor_obs::Category::Prefetch, "payload_wait");
        match ctx.prefetcher.as_ref().and_then(|p| p.take(id, seq)) {
            Some(bytes) => {
                ctx.stats.prefetch_hits += 1;
                bytes
            }
            None => ctx.store.get_bytes(id, seq)?,
        }
    };
    let cval = flor_chkpt::decode(payload_bytes.as_ref())?;
    let CVal::Map(pairs) = cval else {
        return Err(rt(format!(
            "checkpoint {id:?}.{seq} has a malformed payload"
        )));
    };
    // Restored names bind through the interpreter's name boundary: with
    // a VM frame live they land in the compiled module's slots (where
    // the instruction stream reads them); otherwise in the `Env`. Object
    // restores mutate in place through the `Rc`, so an allocation
    // aliased by both a slot and the env stays consistent either way.
    for (name, snap) in &pairs {
        let existing = interp.lookup_name(name);
        let restored = Value::restore(snap, existing)?;
        interp.bind_name(name, restored);
    }
    if let Mode::Replay(ctx) = &mut interp.mode {
        let restore_ns = flor_obs::clock::since_ns(t0);
        flor_obs::histogram!("replay.restore_ns").observe(restore_ns);
        ctx.stats.restored += 1;
        ctx.stats.restore_ns += restore_ns;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adaptive::AdaptiveController;
    use crate::interp::{RecordCtx, ReplayCtx};
    use crate::replay::ReplayPlan;
    use flor_chkpt::CheckpointStore;
    use flor_chkpt::Materializer;
    use flor_lang::parse;
    use std::collections::{HashMap, HashSet};
    use std::path::PathBuf;

    fn tmproot(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "flor-sb-test-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn record_ctx(store: Arc<CheckpointStore>, changesets: HashMap<String, Vec<String>>) -> Mode {
        Mode::Record(Box::new(RecordCtx {
            store: store.clone(),
            materializer: Materializer::new(store, 2),
            // Every execution checkpoints: the adaptive controller prices
            // wall clock, and a cold first write could make it skip.
            controller: AdaptiveController::default().with_adaptivity_disabled(),
            static_changesets: changesets,
            lean: true,
            main_iter: None,
            standalone_seq: HashMap::new(),
            blocks_this_iter: HashSet::new(),
            profile: crate::profile::ProfileBuilder::new(),
        }))
    }

    fn replay_ctx(store: Arc<CheckpointStore>, plan: ReplayPlan) -> Mode {
        Mode::Replay(Box::new(ReplayCtx::new(store, Arc::new(plan), 0)))
    }

    /// A plan for `SRC` (or a script shaped like it) whose diff probes
    /// the given blocks.
    fn probing(probed: &[&str]) -> ReplayPlan {
        ReplayPlan {
            probed_blocks: probed.iter().map(|s| s.to_string()).collect(),
            main_blocks: vec!["sb_0".into()],
            ..ReplayPlan::default()
        }
    }

    /// A standalone (non-main-loop) skipblock accumulating into `acc`.
    const SRC: &str = "\
acc = 0
skipblock \"sb_0\":
    for i in range(5):
        w = busy(1)
        acc = acc + i
log(\"acc\", acc)
";

    #[test]
    fn record_then_skip_on_replay() {
        let store = Arc::new(CheckpointStore::open(tmproot("basic")).unwrap());
        let prog = parse(SRC).unwrap();
        // Record: executes and checkpoints {acc}.
        let mut rec = Interp::new(record_ctx(
            store.clone(),
            HashMap::from([("sb_0".to_string(), vec!["acc".to_string()])]),
        ));
        rec.run(&prog).unwrap();
        assert_eq!(rec.env.get("acc").unwrap().as_i64().unwrap(), 10);
        assert!(store.contains("sb_0", STANDALONE_BASE));

        // Replay unprobed: block restores instead of executing.
        let mut rep = Interp::new(replay_ctx(store.clone(), probing(&[])));
        rep.run(&prog).unwrap();
        assert_eq!(rep.env.get("acc").unwrap().as_i64().unwrap(), 10);
        if let Mode::Replay(ctx) = &rep.mode {
            assert_eq!(ctx.stats.restored, 1);
            assert_eq!(ctx.stats.executed, 0);
        }
        assert_eq!(rec.log.entries(), rep.log.entries());
    }

    #[test]
    fn a_failed_background_write_fails_the_record_run() {
        let root = tmproot("write-fail");
        let store = Arc::new(CheckpointStore::open(&root).unwrap());
        // No segment can be created once `seg/` is a regular file.
        std::fs::remove_dir_all(root.join("seg")).unwrap();
        std::fs::write(root.join("seg"), b"not a directory").unwrap();
        let mut rec = Interp::new(record_ctx(
            store.clone(),
            HashMap::from([("sb_0".to_string(), vec!["acc".to_string()])]),
        ));
        let err = rec.run(&parse(SRC).unwrap()).unwrap_err();
        let want = format!("sb_0.{STANDALONE_BASE}");
        assert!(err.to_string().contains(&want), "{err}");
        assert!(!store.contains("sb_0", STANDALONE_BASE));
    }

    #[test]
    fn probed_block_reexecutes() {
        let store = Arc::new(CheckpointStore::open(tmproot("probed")).unwrap());
        let prog = parse(SRC).unwrap();
        let mut rec = Interp::new(record_ctx(
            store.clone(),
            HashMap::from([("sb_0".to_string(), vec!["acc".to_string()])]),
        ));
        rec.run(&prog).unwrap();

        let mut rep = Interp::new(replay_ctx(store, probing(&["sb_0"])));
        rep.run(&prog).unwrap();
        if let Mode::Replay(ctx) = &rep.mode {
            assert_eq!(ctx.stats.executed, 1, "probed blocks must re-execute");
            assert_eq!(ctx.stats.restored, 0);
        }
        assert_eq!(rep.env.get("acc").unwrap().as_i64().unwrap(), 10);
    }

    #[test]
    fn prefetched_restore_is_consumed_and_counted() {
        let store = Arc::new(CheckpointStore::open(tmproot("prefetch")).unwrap());
        let prog = parse(SRC).unwrap();
        let mut rec = Interp::new(record_ctx(
            store.clone(),
            HashMap::from([("sb_0".to_string(), vec!["acc".to_string()])]),
        ));
        rec.run(&prog).unwrap();

        let mut mode = replay_ctx(store.clone(), probing(&[]));
        if let Mode::Replay(ctx) = &mut mode {
            let p = crate::prefetch::Prefetcher::spawn(
                store.clone(),
                vec![("sb_0".to_string(), STANDALONE_BASE)],
            );
            p.drain();
            assert_eq!(p.fetched(), 1);
            ctx.prefetcher = Some(p);
        }
        let mut rep = Interp::new(mode);
        rep.run(&prog).unwrap();
        if let Mode::Replay(ctx) = &rep.mode {
            assert_eq!(ctx.stats.restored, 1);
            assert_eq!(
                ctx.stats.prefetch_hits, 1,
                "restore must consume the prefetch"
            );
        }
        assert_eq!(rep.env.get("acc").unwrap().as_i64().unwrap(), 10);
    }

    #[test]
    fn missing_checkpoint_falls_back_to_execution() {
        let store = Arc::new(CheckpointStore::open(tmproot("missing")).unwrap());
        let prog = parse(SRC).unwrap();
        // No record pass at all: replay must still produce correct state.
        let mut rep = Interp::new(replay_ctx(store, probing(&[])));
        rep.run(&prog).unwrap();
        assert_eq!(rep.env.get("acc").unwrap().as_i64().unwrap(), 10);
        if let Mode::Replay(ctx) = &rep.mode {
            assert_eq!(ctx.stats.executed, 1);
        }
    }

    #[test]
    fn force_execute_all_ignores_checkpoints() {
        let store = Arc::new(CheckpointStore::open(tmproot("force")).unwrap());
        let prog = parse(SRC).unwrap();
        let mut rec = Interp::new(record_ctx(
            store.clone(),
            HashMap::from([("sb_0".to_string(), vec!["acc".to_string()])]),
        ));
        rec.run(&prog).unwrap();
        let mut plan = probing(&[]);
        plan.diff.other_changes.push("lr changed".into());
        let mut rep = Interp::new(replay_ctx(store, plan));
        rep.run(&prog).unwrap();
        if let Mode::Replay(ctx) = &rep.mode {
            assert_eq!(ctx.stats.executed, 1);
            assert_eq!(ctx.stats.restored, 0);
        }
    }

    #[test]
    fn vanilla_mode_is_transparent() {
        let prog = parse(SRC).unwrap();
        let mut interp = Interp::new(Mode::Vanilla);
        interp.run(&prog).unwrap();
        assert_eq!(interp.env.get("acc").unwrap().as_i64().unwrap(), 10);
    }

    #[test]
    fn standalone_seq_increments_across_executions() {
        let src = "\
acc = 0
for rep in range(3):
    skipblock \"sb_0\":
        for i in range(2):
            w = busy(1)
            acc = acc + 1
";
        // The outer loop is a plain loop (not the main partition loop), so
        // the block executes 3 times with standalone sequence numbers.
        let store = Arc::new(CheckpointStore::open(tmproot("seq")).unwrap());
        let prog = parse(src).unwrap();
        let mut rec = Interp::new(record_ctx(
            store.clone(),
            HashMap::from([("sb_0".to_string(), vec!["acc".to_string()])]),
        ));
        rec.run(&prog).unwrap();
        assert_eq!(store.count("sb_0"), 3);
        // Replay restores all three in order.
        let mut rep = Interp::new(replay_ctx(store, probing(&[])));
        rep.run(&prog).unwrap();
        assert_eq!(rep.env.get("acc").unwrap().as_i64().unwrap(), 6);
        if let Mode::Replay(ctx) = &rep.mode {
            assert_eq!(ctx.stats.restored, 3);
        }
    }

    #[test]
    fn model_state_roundtrips_through_checkpoint() {
        let src = "\
data = synth_data(n=40, dim=4, classes=2, seed=3)
loader = dataloader(data, batch_size=10, seed=3)
net = mlp(input=4, hidden=8, classes=2, depth=1, seed=3)
optimizer = sgd(net, lr=0.1)
criterion = cross_entropy()
skipblock \"sb_0\":
    for batch in loader.epoch():
        waste = busy(1)
        optimizer.zero_grad()
        preds = net.forward(batch)
        loss = criterion.forward(preds, batch)
        grad = criterion.backward()
        net.backward(grad)
        optimizer.step()
w = net.weight_norm()
log(\"w\", w)
";
        let store = Arc::new(CheckpointStore::open(tmproot("model")).unwrap());
        let prog = parse(src).unwrap();
        let changesets = HashMap::from([(
            "sb_0".to_string(),
            vec![
                "loader".to_string(),
                "optimizer".to_string(),
                "net".to_string(),
                "criterion".to_string(),
            ],
        )]);
        let mut rec = Interp::new(record_ctx(store.clone(), changesets));
        rec.run(&prog).unwrap();

        let mut rep = Interp::new(replay_ctx(store, probing(&[])));
        rep.run(&prog).unwrap();
        // The restored weight norm must match the recorded one bit-for-bit.
        assert_eq!(
            rec.env.get("w").unwrap().as_f64().unwrap(),
            rep.env.get("w").unwrap().as_f64().unwrap()
        );
        if let Mode::Replay(ctx) = &rep.mode {
            assert_eq!(ctx.stats.restored, 1);
        }
    }
}
