//! Integration tests for the cost-aware work-stealing replay runtime and
//! streaming log merge, on a deliberately skewed workload (cheap warmup
//! epochs, a 30× heavier tail — the shape that breaks static contiguous
//! partitioning).

use flor_core::parallel::max_speedup_profiled;
use flor_core::profile::{CostProfile, COST_PROFILE_ARTIFACT};
use flor_core::record::{record, RecordOptions};
use flor_core::replay::{replay, replay_reference, ReplayOptions};
use flor_registry::{JobEvent, JobSink, JobState, QueryEvent, QueryJob, Registry, ReplayScheduler};
use std::path::PathBuf;
use std::sync::Arc;

/// 12 epochs; the last two run `busy(30)` per batch instead of `busy(1)` —
/// a tail-heavy cost skew like an end-of-run eval or LR-phase change.
const SKEWED_SRC: &str = "\
import flor
data = synth_data(n=30, dim=6, classes=2, seed=5)
loader = dataloader(data, batch_size=10, seed=5)
net = mlp(input=6, hidden=8, classes=2, depth=1, seed=5)
optimizer = sgd(net, lr=0.1)
criterion = cross_entropy()
avg = meter()
for epoch in flor.partition(range(12)):
    units = 1
    if epoch > 9:
        units = 30
    avg.reset()
    for batch in loader.epoch():
        w = busy(units)
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

fn store_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "flor-sched-e2e-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn exact_opts(root: &PathBuf) -> RecordOptions {
    let mut o = RecordOptions::new(root);
    o.adaptive = false;
    o
}

fn inner_probed() -> String {
    let probed = SKEWED_SRC.replace(
        "        optimizer.step()\n",
        "        optimizer.step()\n        log(\"probe_gnorm\", net.grad_norm())\n",
    );
    assert_ne!(probed, SKEWED_SRC);
    probed
}

#[test]
fn skewed_replay_matches_the_reference_and_streams_early() {
    let root = store_dir("skew");
    record(SKEWED_SRC, &exact_opts(&root)).unwrap();
    let probed = inner_probed();
    let reference = replay_reference(&probed, &root).unwrap();
    let steal = replay(&probed, &root, &ReplayOptions::with_workers(4)).unwrap();
    assert!(steal.anomalies.is_empty(), "{:?}", steal.anomalies);
    assert_eq!(
        steal.log, reference.log,
        "scheduling must not change the merged log"
    );
    // Cost-aware splitting produced more ranges than workers, and the
    // streaming merger delivered the first record-order entry while the
    // heavy tail was still replaying.
    assert!(
        steal.stats.ranges_executed > 4,
        "expected micro-ranges, got {}",
        steal.stats.ranges_executed
    );
    assert!(steal.stats.stream_first_entry_ns > 0);
    assert!(
        steal.stats.stream_first_entry_ns < steal.wall_ns,
        "first entry ({}ns) must stream before the replay ends ({}ns)",
        steal.stats.stream_first_entry_ns,
        steal.wall_ns
    );
}

#[test]
fn stealing_rescues_runs_recorded_without_a_profile() {
    // Runs recorded before cost profiling existed have no artifact: the
    // splitter falls back to uniform micro-ranges, seeds are unbalanced
    // under skew, and work-stealing is what rebalances them.
    let root = store_dir("noprofile");
    record(SKEWED_SRC, &exact_opts(&root)).unwrap();
    std::fs::remove_file(root.join("artifacts").join(COST_PROFILE_ARTIFACT)).unwrap();
    let probed = inner_probed();
    let reference = replay_reference(&probed, &root).unwrap();
    let steal = replay(&probed, &root, &ReplayOptions::with_workers(4)).unwrap();
    assert!(steal.anomalies.is_empty(), "{:?}", steal.anomalies);
    assert_eq!(steal.log, reference.log);
    assert!(
        steal.stats.steals >= 1,
        "uniform seeds under tail skew must trigger steals, got {}",
        steal.stats.steals
    );
}

#[test]
fn recorded_profile_tightens_the_speedup_bound() {
    let root = store_dir("bound");
    record(SKEWED_SRC, &exact_opts(&root)).unwrap();
    let store = flor_chkpt::CheckpointStore::open(&root).unwrap();
    let text = String::from_utf8(store.get_artifact(COST_PROFILE_ARTIFACT).unwrap()).unwrap();
    let profile = CostProfile::parse_text(&text).unwrap();
    assert_eq!(profile.len(), 12);
    // Re-execution costs: the heavy tail dominates, so the profile-aware
    // bound is far below the iteration-count bound n/⌈n/G⌉.
    // Cheapest light epoch vs heaviest tail epoch: scheduling noise on a
    // loaded 1-core host can inflate any single epoch's measured cost
    // (especially the cold first one), but not deflate the cheapest.
    let costs = profile.replay_costs(12, true);
    let heavy = *costs[10..].iter().max().unwrap() as f64;
    let light = *costs[..10].iter().min().unwrap() as f64;
    assert!(
        heavy > 5.0 * light,
        "profile must capture the skew: light {light} heavy {heavy}"
    );
    let profiled = max_speedup_profiled(&costs, 4);
    let uniform = flor_core::parallel::max_speedup(12, 4);
    assert!(
        profiled < uniform,
        "skew-aware bound {profiled:.2} must be tighter than {uniform:.2}"
    );
}

#[test]
fn streaming_query_delivers_entries_before_the_replay_finishes() {
    // The acceptance criterion: a hindsight query streams its first
    // record-order entry while trailing workers are still replaying.
    let reg_root = store_dir("registry");
    let registry = Registry::open(&reg_root).unwrap();
    registry
        .record_run("skewed", SKEWED_SRC, |o| o.adaptive = false)
        .unwrap();
    let probed = inner_probed();
    let mut chunks = 0u64;
    let mut streamed = Vec::new();
    let mut final_progress = (0u64, 0u64);
    let outcome = registry
        .query_streaming("skewed", &probed, 4, &mut |ev| match ev {
            QueryEvent::Entries(chunk) => {
                chunks += 1;
                streamed.extend(chunk);
            }
            QueryEvent::Progress {
                iterations_done,
                iterations_total,
                ..
            } => final_progress = (iterations_done, iterations_total),
            QueryEvent::Anomaly(a) => panic!("unexpected anomaly: {a}"),
        })
        .unwrap();
    assert!(!outcome.cached);
    assert_eq!(streamed, outcome.log);
    assert!(
        chunks >= 2,
        "entries must arrive incrementally, got {chunks} chunk(s)"
    );
    assert_eq!(final_progress, (12, 12));
    assert!(outcome.stream_first_entry_ns > 0);
    assert!(
        outcome.stream_first_entry_ns < outcome.wall_ns,
        "first entry ({}ns) must precede completion ({}ns)",
        outcome.stream_first_entry_ns,
        outcome.wall_ns
    );

    // The identical query now comes from the cache, as one chunk.
    let mut cached_chunks = 0u64;
    let cached = registry
        .query_streaming("skewed", &probed, 4, &mut |ev| {
            if let QueryEvent::Entries(_) = ev {
                cached_chunks += 1;
            }
        })
        .unwrap();
    assert!(cached.cached);
    assert_eq!(cached.log, outcome.log);
    assert_eq!(cached_chunks, 1);
}

#[test]
fn scheduler_exposes_streaming_progress() {
    let reg_root = store_dir("sched-progress");
    let registry = Arc::new(Registry::open(&reg_root).unwrap());
    registry
        .record_run("skewed", SKEWED_SRC, |o| o.adaptive = false)
        .unwrap();
    let scheduler = ReplayScheduler::new(registry, 2);
    let sink = Arc::new(JobSink::new(true, 1 << 20, || {}));
    let id = scheduler
        .submit(
            QueryJob {
                run_id: "skewed".into(),
                probed_source: inner_probed(),
                workers: 4,
                priority: 0,
                tenant: String::new(),
            },
            sink.clone(),
        )
        .unwrap();
    scheduler.wait(id);
    // The job left the scheduler; its final progress and terminal state
    // are the sink's last `Progress` and its `Done`.
    assert!(scheduler.progress(id).is_none());
    let events = sink.drain();
    let progress = events
        .iter()
        .rev()
        .find_map(|ev| match ev {
            JobEvent::Progress(p) => Some(*p),
            _ => None,
        })
        .expect("progress streamed");
    assert!(matches!(
        events.last(),
        Some(JobEvent::Done(JobState::Completed(_)))
    ));
    assert_eq!(progress.iterations_done, 12);
    assert_eq!(progress.iterations_total, 12);
    assert!(progress.entries_streamed > 0);
}

#[test]
fn streamed_replay_stats_survive_through_the_binary_surface() {
    // `flor replay` prints the scheduler counters; asserted at the CLI
    // layer here so the whole stack is covered end to end.
    let dir = store_dir("cli-steal");
    std::fs::create_dir_all(&dir).unwrap();
    let script = dir.join("train.flr");
    std::fs::write(&script, SKEWED_SRC).unwrap();
    let store = dir.join("store");
    let raw: Vec<String> = [
        "record",
        script.to_str().unwrap(),
        "--store",
        store.to_str().unwrap(),
        "--no-adaptive",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    flor_cli::run_cli(&raw).unwrap();
    let probed = dir.join("probed.flr");
    std::fs::write(&probed, inner_probed()).unwrap();
    let raw: Vec<String> = [
        "replay",
        probed.to_str().unwrap(),
        "--store",
        store.to_str().unwrap(),
        "--workers",
        "4",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let out = flor_cli::run_cli(&raw).unwrap();
    assert!(out.contains("# scheduler:"), "{out}");
    assert!(out.contains("range(s) executed"), "{out}");
    assert!(out.contains("first entry streamed after"), "{out}");
    assert!(!out.contains("ANOMALY"), "{out}");
}

/// The exactly-once read contract, on registry-recorded (`@dup`) stores:
/// every checkpoint a replay restores is read from the store once — by the
/// worker's prefetcher or by the worker, never both — whatever the worker
/// count and however ranges get stolen, and the merged log still equals
/// the reference's.
mod exactly_once {
    use super::*;
    use flor_chkpt::CheckpointStore;
    use flor_core::replay::replay_with_store;

    /// CV-shaped: every epoch a full keyframe (delta encoding off).
    const CV_SRC: &str = "\
import flor
data = synth_data(n=64, dim=8, classes=3, seed=9)
loader = dataloader(data, batch_size=16, seed=9)
net = mlp(input=8, hidden=48, classes=3, depth=2, seed=9)
optimizer = sgd(net, lr=0.05)
criterion = cross_entropy()
avg = meter()
for epoch in flor.partition(range(10)):
    avg.reset()
    for batch in loader.epoch():
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

    /// Fine-tune-shaped: a frozen ballast under a small trained head, so
    /// consecutive checkpoints delta-encode into chains.
    fn ft_src() -> String {
        CV_SRC.replace(
            "net = mlp(input=8, hidden=48, classes=3, depth=2, seed=9)",
            "net = finetune(input=8, hidden=16, classes=3, ballast=4000, seed=9)",
        )
    }

    fn outer_probed(src: &str) -> String {
        let probed = src.replace(
            "    log(\"loss\", avg.mean())\n",
            "    log(\"loss\", avg.mean())\n    log(\"probe_wnorm\", net.weight_norm())\n",
        );
        assert_ne!(probed, src);
        probed
    }

    /// Records `src` through a registry, replays an outer probe with 1 and
    /// 2 workers, and returns the store's delta-entry count.
    fn check(tag: &str, src: &str, keyframe_interval: u32) -> u64 {
        let registry = Registry::open(store_dir(tag)).unwrap();
        let (_, rec) = registry
            .record_run(tag, src, |o| {
                o.adaptive = false;
                o.delta_keyframe_interval = Some(keyframe_interval);
                // One materializer thread commits batches in record order,
                // so every delta chains on its predecessor (racing batches
                // may chain across a gap, which costs extra links to read
                // back whoever reads it).
                o.background_workers = 1;
            })
            .unwrap();
        let probed = outer_probed(src);
        let oracle = replay_reference(&probed, &rec.store_root).unwrap();
        let store = Arc::new(CheckpointStore::open(&rec.store_root).unwrap());
        let stored = store.stats();
        // Registry runs intern every stored payload of 1 KiB and up into
        // the arena (small delta frames stay in the run's own segment).
        assert!(
            stored.dedup_entries >= stored.keyframe_entries,
            "{stored:?}"
        );
        for workers in [1usize, 2] {
            let before = store.stats();
            let report = replay_with_store(
                &probed,
                store.clone(),
                &ReplayOptions::with_workers(workers),
            )
            .unwrap();
            let after = store.stats();
            assert!(report.anomalies.is_empty(), "{:?}", report.anomalies);
            assert_eq!(report.log, oracle.log, "{tag}, {workers} worker(s)");
            assert_eq!(report.stats.executed, 0, "outer probes restore everything");
            assert_eq!(
                after.reads - before.reads,
                report.stats.restored,
                "{tag}, {workers} worker(s): one store read per restore"
            );
            assert_eq!(
                report.stats.prefetch_hits, report.stats.restored,
                "{tag}, {workers} worker(s): main-loop restores come through the prefetcher"
            );
            if workers == 1 {
                // One reader walks the whole chain in order, so each delta
                // entry decodes exactly its own link off the restore cache.
                // (Two workers share the store's one-entry-per-block cache
                // and may evict each other's base; their link count is not
                // pinned.)
                assert_eq!(report.stats.restored, 10);
                assert_eq!(report.stats.delta_restores, stored.delta_entries, "{tag}");
                assert_eq!(report.stats.chain_links, stored.delta_entries, "{tag}");
            }
        }
        stored.delta_entries
    }

    #[test]
    fn cv_shaped_run_reads_each_checkpoint_once() {
        assert_eq!(check("once-cv", CV_SRC, 0), 0);
    }

    #[test]
    fn delta_chained_run_reads_each_checkpoint_once_and_decodes_each_link_once() {
        let delta_entries = check("once-ft", &ft_src(), 4);
        assert!(delta_entries >= 6, "fixture must chain: {delta_entries}");
    }
}
