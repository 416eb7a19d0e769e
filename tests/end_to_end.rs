//! Workspace integration tests: the full record → probe → replay pipeline
//! across every miniature workload, exercising all crates together.

use flor_bench::scripts::{self, MINI_WORKLOADS};
use flor_core::record::{record, run_vanilla, RecordOptions};
use flor_core::replay::{replay, ReplayOptions};
use flor_core::InitMode;
use std::path::PathBuf;

fn store_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "flor-e2e-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn exact_opts(root: &PathBuf) -> RecordOptions {
    let mut o = RecordOptions::new(root);
    o.adaptive = false; // deterministic checkpoint placement for assertions
    o
}

#[test]
fn every_mini_workload_records_and_replays_identically() {
    for (name, src) in MINI_WORKLOADS {
        let root = store_dir(&format!("roundtrip-{name}"));
        let rec = record(src, &exact_opts(&root)).unwrap_or_else(|e| panic!("{name}: {e}"));
        let rep =
            replay(src, &root, &ReplayOptions::default()).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(rep.anomalies.is_empty(), "{name}: {:?}", rep.anomalies);
        assert_eq!(
            rep.log, rec.log,
            "{name}: unchanged replay must reproduce the log"
        );
        assert_eq!(
            rep.stats.restored,
            scripts::MINI_EPOCHS,
            "{name}: every epoch should restore"
        );
    }
}

#[test]
fn record_log_equals_vanilla_log_for_all_minis() {
    // Checkpointing must never perturb training (the record-side half of
    // the deferred-check contract).
    for (name, src) in MINI_WORKLOADS {
        let root = store_dir(&format!("vanilla-{name}"));
        let rec = record(src, &RecordOptions::new(&root)).unwrap();
        let (_, vanilla) = run_vanilla(src).unwrap();
        assert_eq!(rec.log, vanilla, "{name}");
    }
}

#[test]
fn outer_probes_answer_without_reexecution() {
    for (name, src) in MINI_WORKLOADS {
        let root = store_dir(&format!("outer-{name}"));
        record(src, &exact_opts(&root)).unwrap();
        let rep = replay(&scripts::probe_outer(src), &root, &ReplayOptions::default()).unwrap();
        assert!(rep.anomalies.is_empty(), "{name}: {:?}", rep.anomalies);
        assert_eq!(
            rep.stats.executed, 0,
            "{name}: outer probes must not re-execute"
        );
        let probes = rep.log.iter().filter(|e| e.key == "probe_wnorm").count();
        assert_eq!(probes as u64, scripts::MINI_EPOCHS, "{name}");
    }
}

#[test]
fn inner_probes_reexecute_and_match_fingerprint() {
    for (name, src) in MINI_WORKLOADS {
        let root = store_dir(&format!("inner-{name}"));
        let rec = record(src, &exact_opts(&root)).unwrap();
        let rep = replay(&scripts::probe_inner(src), &root, &ReplayOptions::default()).unwrap();
        assert!(rep.anomalies.is_empty(), "{name}: {:?}", rep.anomalies);
        assert_eq!(rep.stats.restored, 0, "{name}: probed blocks re-execute");
        // Re-executed losses must be bit-identical to the recorded ones.
        let rec_losses: Vec<_> = rec.log.iter().filter(|e| e.key == "loss").collect();
        let rep_losses: Vec<_> = rep.log.iter().filter(|e| e.key == "loss").collect();
        assert_eq!(rec_losses, rep_losses, "{name}");
    }
}

#[test]
fn parallel_replay_is_worker_count_invariant() {
    let src = scripts::CV_TRAIN;
    let root = store_dir("parallel");
    record(src, &exact_opts(&root)).unwrap();
    let probed = scripts::probe_inner(src);
    let reference = replay(&probed, &root, &ReplayOptions::default()).unwrap();
    for workers in [2usize, 3, 4, 8] {
        for init_mode in [InitMode::Strong, InitMode::Weak] {
            let rep = replay(
                &probed,
                &root,
                &ReplayOptions {
                    workers,
                    init_mode,
                    ..Default::default()
                },
            )
            .unwrap();
            assert!(
                rep.anomalies.is_empty(),
                "{workers} workers {init_mode:?}: {:?}",
                rep.anomalies
            );
            assert_eq!(
                rep.log, reference.log,
                "{workers} workers {init_mode:?} diverged from sequential replay"
            );
        }
    }
}

#[test]
fn adaptive_finetune_checkpoints_sparsely_but_replays_correctly() {
    // Adaptive recording of the fine-tune mini: periodic checkpoints.
    let root = store_dir("adaptive-ft");
    let rec = record(scripts::FINETUNE, &RecordOptions::new(&root)).unwrap();
    assert!(
        rec.checkpoints < scripts::MINI_EPOCHS,
        "fine-tune should checkpoint sparsely, got {}",
        rec.checkpoints
    );
    // Replay still reproduces the run (gaps re-execute).
    let rep = replay(scripts::FINETUNE, &root, &ReplayOptions::default()).unwrap();
    assert!(rep.anomalies.is_empty(), "{:?}", rep.anomalies);
    assert_eq!(rep.log, rec.log);
    // Weak-init parallel replay over sparse anchors also matches.
    let rep_weak = replay(
        scripts::FINETUNE,
        &root,
        &ReplayOptions {
            workers: 3,
            init_mode: InitMode::Weak,
            ..Default::default()
        },
    )
    .unwrap();
    assert!(rep_weak.anomalies.is_empty(), "{:?}", rep_weak.anomalies);
    assert_eq!(rep_weak.log, rec.log);
}

#[test]
fn hindsight_probe_values_match_fresh_instrumented_run() {
    // The headline guarantee: probe outputs from replay equal what a full
    // instrumented re-run would have produced.
    let src = scripts::RESNET;
    let root = store_dir("oracle");
    record(src, &exact_opts(&root)).unwrap();
    let probed = scripts::probe_inner(src);
    let rep = replay(&probed, &root, &ReplayOptions::with_workers(2)).unwrap();
    let (_, fresh) = run_vanilla(&probed).unwrap();
    let rep_probes: Vec<_> = rep.log.iter().filter(|e| e.key == "probe_gnorm").collect();
    let fresh_probes: Vec<_> = fresh.iter().filter(|e| e.key == "probe_gnorm").collect();
    assert_eq!(rep_probes, fresh_probes);
}

#[test]
fn record_overhead_is_modest_on_live_training() {
    // Paper's Figure 11 shape, live: record within a reasonable factor of
    // vanilla for a compute-dominated workload. This is a pathology guard,
    // not a measurement (`figures fig11` does best-of-3 in release
    // mode); the test binary runs tests concurrently, so the bound is
    // generous and we take the best of three runs.
    let src = scripts::CV_TRAIN;
    let mut best = f64::INFINITY;
    for i in 0..3 {
        let (vanilla_ns, _) = run_vanilla(src).unwrap();
        let rec = record(src, &RecordOptions::new(store_dir(&format!("overhead{i}")))).unwrap();
        best = best.min(rec.wall_ns as f64 / vanilla_ns as f64 - 1.0);
    }
    assert!(
        best < 1.0,
        "live record overhead {best:.2} looks pathological"
    );
}

#[test]
fn source_change_is_detected_and_survives() {
    let src = scripts::CV_TRAIN;
    let root = store_dir("edited");
    record(src, &exact_opts(&root)).unwrap();
    let edited = src.replace("lr=0.1", "lr=0.01");
    let rep = replay(&edited, &root, &ReplayOptions::default()).unwrap();
    assert!(!rep.other_changes.is_empty());
    assert!(
        !rep.anomalies.is_empty(),
        "non-hindsight change must be surfaced"
    );
    assert_eq!(rep.stats.restored, 0, "checkpoints must not be reused");
}
