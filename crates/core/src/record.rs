//! The record phase (paper §3.1).
//!
//! "Before executing, Flor first instruments the user's code to make it
//! materialize checkpoints throughout training. […] After instrumentation,
//! Flor stores a copy of the code, and begins execution with checkpointing."
//!
//! [`record`] is the whole phase: parse → instrument → persist the
//! instrumented source → execute with adaptive, background-materialized
//! checkpointing → persist the record log. The stored artifacts
//! (`source.flr`, `record_log.txt`) are exactly what the replay phase needs
//! to detect probes and run deferred correctness checks.

use crate::adaptive::{AdaptiveController, DEFAULT_EPSILON};
use crate::error::FlorError;
use crate::interp::{Interp, Mode, RecordCtx};
use crate::logstream::LogEntry;
use flor_analysis::instrument::{instrument, BlockPlan, RefusedLoop};
use flor_chkpt::{CheckpointStore, Materializer, MaterializerStats};
use flor_lang::{parse, print_program};
use std::collections::{HashMap, HashSet};
use std::path::PathBuf;
use std::sync::Arc;

/// Knobs for a record run.
pub struct RecordOptions {
    /// Directory for the checkpoint store.
    pub store_root: PathBuf,
    /// Record-overhead tolerance ε (default 1/15 ≈ 6.67%, as in the paper).
    pub epsilon: f64,
    /// Adaptive checkpointing on/off (off reproduces Figure 7's
    /// "adaptivity disabled" bars).
    pub adaptive: bool,
    /// Background materializer worker threads.
    pub background_workers: usize,
    /// Lean checkpointing on/off. When off, SkipBlocks checkpoint the
    /// *entire* environment instead of the analyzed changeset — the
    /// ablation for §5.2's "avoiding the capture of too many redundancies".
    pub lean: bool,
    /// Delta-chain keyframe interval for the checkpoint store (`None` =
    /// store default; `Some(0)` disables delta encoding — every
    /// checkpoint is a full keyframe, the pre-delta pipeline).
    pub delta_keyframe_interval: Option<u32>,
}

impl RecordOptions {
    /// Defaults rooted at the given store directory.
    pub fn new(store_root: impl Into<PathBuf>) -> Self {
        RecordOptions {
            store_root: store_root.into(),
            epsilon: DEFAULT_EPSILON,
            adaptive: true,
            background_workers: 2,
            lean: true,
            delta_keyframe_interval: None,
        }
    }
}

/// What a record run produced.
pub struct RecordReport {
    /// Wall-clock time of the instrumented execution, ns.
    pub wall_ns: u64,
    /// Instrumented SkipBlocks and their static changesets.
    pub blocks: Vec<BlockPlan>,
    /// Loops the analysis refused.
    pub refused: Vec<RefusedLoop>,
    /// Checkpoints materialized (count).
    pub checkpoints: u64,
    /// Uncompressed checkpoint bytes.
    pub raw_bytes: u64,
    /// Stored bytes on disk in the run's own segments.
    pub stored_bytes: u64,
    /// Stored bytes of the shared dedup-arena blobs the run references
    /// (0 without an arena) — not part of `stored_bytes`, because other
    /// runs referencing the same blobs share them.
    pub arena_bytes: u64,
    /// The record log.
    pub log: Vec<LogEntry>,
    /// Materializer counters (main-thread blocked time, group commits, …).
    pub materializer: MaterializerStats,
    /// Controller view of cumulative record overhead
    /// (caller-visible materialization time / loop compute time).
    pub record_overhead: f64,
    /// Final restore/materialize scaling factor `c`.
    pub scaling_c: f64,
}

/// FNV-1a 64-bit hash — the workspace's one content-fingerprint
/// primitive (source versions here, query content addresses in
/// `flor-registry`).
pub fn fnv1a64(data: &[u8]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Stable fingerprint of a source text (FNV-1a 64, hex) — the "source
/// version" under which a run is cataloged and its query results are
/// content-addressed by `flor-registry`.
pub fn source_version(src: &str) -> String {
    format!("{:016x}", fnv1a64(src.as_bytes()))
}

/// Number of main-loop iterations observed in a log (highest global
/// iteration index + 1).
pub fn log_iterations(log: &[LogEntry]) -> u64 {
    log.iter()
        .filter_map(|e| match e.section {
            crate::logstream::Section::Iter(g) => Some(g + 1),
            _ => None,
        })
        .max()
        .unwrap_or(0)
}

/// Name of the machine-readable run summary artifact written at the end of
/// every record phase. `flor-registry` reads it to catalog a finished run
/// (including runs recorded before any registry existed).
pub const RUN_META_ARTIFACT: &str = "run_meta.txt";

fn run_meta_text(src: &str, report: &RecordReport) -> String {
    format!(
        "source_version\t{}\niterations\t{}\ncheckpoints\t{}\nraw_bytes\t{}\n\
         stored_bytes\t{}\nrecord_overhead\t{}\nscaling_c\t{}\n",
        source_version(src),
        log_iterations(&report.log),
        report.checkpoints,
        report.raw_bytes,
        report.stored_bytes,
        report.record_overhead,
        report.scaling_c,
    )
}

/// Records a training script: the paper's "all a model developer has to do
/// in advance is add a single line — `import flor`".
pub fn record(src: &str, opts: &RecordOptions) -> Result<RecordReport, FlorError> {
    let user_prog = parse(src)?;
    let inst = instrument(&user_prog);

    let mut store_opts = flor_chkpt::StoreOptions::default();
    if let Some(k) = opts.delta_keyframe_interval {
        store_opts.delta_keyframe_interval = k;
    }
    let store = Arc::new(CheckpointStore::open_opts(&opts.store_root, store_opts)?);
    let instrumented_src = print_program(&inst.program);
    store.put_artifact("source.flr", instrumented_src.as_bytes())?;

    let mut controller = AdaptiveController::new(opts.epsilon);
    if !opts.adaptive {
        controller = controller.with_adaptivity_disabled();
    }
    let static_changesets: HashMap<String, Vec<String>> = inst
        .blocks
        .iter()
        .map(|b| (b.id.clone(), b.static_changeset.clone()))
        .collect();

    let ctx = RecordCtx {
        store: store.clone(),
        // The paper's fork() approach, the one writer there is; the other
        // Figure 5 strategies are emulated by `flor-bench`'s `fig05`.
        materializer: Materializer::new(store.clone(), opts.background_workers),
        controller,
        static_changesets,
        lean: opts.lean,
        main_iter: None,
        standalone_seq: HashMap::new(),
        blocks_this_iter: HashSet::new(),
        profile: crate::profile::ProfileBuilder::new(),
    };

    let mut interp = Interp::new(Mode::Record(Box::new(ctx)));
    let t0 = flor_obs::clock::now_ns();
    interp.run(&inst.program)?;
    let wall_ns = flor_obs::clock::since_ns(t0);

    store.put_artifact("record_log.txt", interp.log.to_text().as_bytes())?;

    let Mode::Record(ctx) = interp.mode else {
        unreachable!()
    };
    let mat_stats = ctx.materializer.stats();
    // Persist the per-iteration cost profile: replay's work-stealing
    // scheduler sizes micro-ranges by it (skewed iterations — warmup, eval
    // epochs, LR phase changes — get their own stealable ranges).
    let cost_profile = ctx.profile.clone().finish(ctx.controller.c());
    if !cost_profile.is_empty() {
        store.put_artifact(
            crate::profile::COST_PROFILE_ARTIFACT,
            cost_profile.to_text().as_bytes(),
        )?;
    }
    let report = RecordReport {
        wall_ns,
        blocks: inst.blocks,
        refused: inst.refused,
        checkpoints: store.entries().len() as u64,
        raw_bytes: store.total_raw_bytes(),
        stored_bytes: store.total_stored_bytes(),
        arena_bytes: store.dedup_referenced_bytes(),
        log: interp.log.into_entries(),
        materializer: mat_stats,
        record_overhead: ctx.controller.record_overhead(),
        scaling_c: ctx.controller.c(),
    };
    // Machine-readable summary so a registry can catalog this run later.
    store.put_artifact(RUN_META_ARTIFACT, run_meta_text(src, &report).as_bytes())?;
    Ok(report)
}

/// Runs the same source *without* checkpointing (but with identical
/// instrumentation, so log sections match) — the paper's "vanilla
/// execution" baseline for overhead and speedup measurements.
pub fn run_vanilla(src: &str) -> Result<(u64, Vec<LogEntry>), FlorError> {
    let user_prog = parse(src)?;
    let inst = instrument(&user_prog);
    let mut interp = Interp::new(Mode::Vanilla);
    let t0 = flor_obs::clock::now_ns();
    interp.run(&inst.program)?;
    Ok((flor_obs::clock::since_ns(t0), interp.log.into_entries()))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::logstream::Section;

    fn tmproot(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "flor-record-test-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Figure-2-shaped training script used across the record/replay tests.
    /// The `busy(…)` call keeps per-epoch compute well above checkpoint
    /// cost, so the adaptive controller checkpoints every epoch (the
    /// "training" regime of §5.3.4 — fine-tuning regimes are exercised
    /// separately).
    /// Note the `avg` meter: it is defined *before* the training loop, so
    /// the loop-scope filter keeps it in the changeset and the epoch loss
    /// survives loop memoization. Logging the loop-scoped `loss` directly
    /// after the loop would violate the paper's scope-filter assumption
    /// ("this variable … is not read after the end of the loop").
    pub(crate) const TRAIN_SRC: &str = "\
import flor
data = synth_data(n=60, dim=8, classes=3, spread=0.25, seed=7)
loader = dataloader(data, batch_size=20, seed=7)
net = mlp(input=8, hidden=16, classes=3, depth=2, seed=7)
optimizer = sgd(net, lr=0.1, momentum=0.9)
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

    /// Options with adaptivity off: tests asserting exact checkpoint
    /// counts must not depend on wall-clock measurements.
    pub(crate) fn opts_exact(root: &PathBuf) -> RecordOptions {
        let mut o = RecordOptions::new(root);
        o.adaptive = false;
        o
    }

    #[test]
    fn record_produces_checkpoints_and_artifacts() {
        let root = tmproot("basic");
        let report = record(TRAIN_SRC, &opts_exact(&root)).unwrap();
        assert_eq!(report.blocks.len(), 1, "one skipblock for the train loop");
        // One checkpoint per epoch (cheap checkpoints, always materialized).
        assert_eq!(report.checkpoints, 6);
        assert!(report.raw_bytes > 0);
        // Artifacts exist.
        let store = CheckpointStore::open(&root).unwrap();
        assert!(store.has_artifact("source.flr"));
        assert!(store.has_artifact("record_log.txt"));
        // The stored source is the instrumented program.
        let stored = String::from_utf8(store.get_artifact("source.flr").unwrap()).unwrap();
        assert!(stored.contains("skipblock \"sb_0\":"));
        assert!(stored.contains("flor.partition"));
    }

    #[test]
    fn adaptive_record_leaves_exactly_the_run_artifacts() {
        let root = tmproot("artifact-set");
        record(TRAIN_SRC, &RecordOptions::new(&root)).unwrap();
        let mut names: Vec<String> = std::fs::read_dir(root.join("artifacts"))
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        assert_eq!(
            names,
            [
                "cost_profile.txt",
                "record_log.txt",
                "run_meta.txt",
                "source.flr"
            ]
        );
    }

    #[test]
    fn record_log_matches_vanilla_log() {
        let root = tmproot("logs");
        let report = record(TRAIN_SRC, &RecordOptions::new(&root)).unwrap();
        let (_, vanilla_log) = run_vanilla(TRAIN_SRC).unwrap();
        assert_eq!(
            report.log, vanilla_log,
            "checkpointing must not perturb training"
        );
    }

    #[test]
    fn log_sections_follow_main_loop() {
        let root = tmproot("sections");
        let report = record(TRAIN_SRC, &RecordOptions::new(&root)).unwrap();
        // 6 loss entries in Iter sections + 1 accuracy entry in Post.
        let iters: Vec<_> = report
            .log
            .iter()
            .filter(|e| matches!(e.section, Section::Iter(_)))
            .collect();
        assert_eq!(iters.len(), 6);
        assert_eq!(report.log.last().unwrap().section, Section::Post);
    }

    #[test]
    fn checkpoints_keyed_by_epoch() {
        let root = tmproot("seqs");
        record(TRAIN_SRC, &opts_exact(&root)).unwrap();
        let store = CheckpointStore::open(&root).unwrap();
        for g in 0..6 {
            assert!(store.contains("sb_0", g), "missing epoch {g} checkpoint");
        }
    }

    #[test]
    fn refused_main_loop_reported() {
        let root = tmproot("refused");
        let report = record(TRAIN_SRC, &RecordOptions::new(&root)).unwrap();
        // The main loop contains `evaluate(...)`? No — evaluate is after the
        // loop here, and assigned. The main loop contains only the skipblock
        // and a log; it passes analysis but is still not wrapped.
        assert!(report.refused.is_empty());
        let stored_src = {
            let store = CheckpointStore::open(&root).unwrap();
            String::from_utf8(store.get_artifact("source.flr").unwrap()).unwrap()
        };
        // Exactly one skipblock: the main loop was not wrapped.
        assert_eq!(stored_src.matches("skipblock").count(), 1);
    }

    #[test]
    fn deterministic_across_records() {
        // Training itself is bit-deterministic. Checkpoint *placement* under
        // adaptive checkpointing depends on wall-clock measurements, so byte
        // totals are only compared with adaptivity disabled.
        let r1 = record(TRAIN_SRC, &RecordOptions::new(tmproot("det1"))).unwrap();
        let r2 = record(TRAIN_SRC, &RecordOptions::new(tmproot("det2"))).unwrap();
        assert_eq!(r1.log, r2.log);

        let mut o3 = RecordOptions::new(tmproot("det3"));
        o3.adaptive = false;
        let mut o4 = RecordOptions::new(tmproot("det4"));
        o4.adaptive = false;
        let r3 = record(TRAIN_SRC, &o3).unwrap();
        let r4 = record(TRAIN_SRC, &o4).unwrap();
        assert_eq!(r3.raw_bytes, r4.raw_bytes);
        assert_eq!(r3.checkpoints, 6);
    }
}
