//! End-to-end tests of the registry subsystem: record real runs, catalog
//! them, serve hindsight queries through the cache and the scheduler.

use flor_core::record::{record, RecordOptions};
use flor_registry::{
    CancelResult, JobEvent, JobId, JobSink, JobState, QueryJob, Registry, ReplayScheduler,
};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// A submitted job and the sink its answer arrives in.
type Submitted = (JobId, Arc<JobSink>);

/// Submits a query with a status-only sink.
fn submit(sched: &ReplayScheduler, run: &str, src: String, workers: usize, prio: i32) -> Submitted {
    let job = QueryJob {
        run_id: run.into(),
        probed_source: src,
        workers,
        priority: prio,
        tenant: String::new(),
    };
    let sink = Arc::new(JobSink::new(false, 16, || {}));
    (sched.submit(job, sink.clone()).unwrap(), sink)
}

/// Waits until the job leaves the scheduler and takes its terminal state
/// from its sink.
fn wait_done(sched: &ReplayScheduler, (id, sink): &Submitted) -> JobState {
    sched.wait(*id);
    assert!(sched.status(*id).is_none(), "a finished job is forgotten");
    match sink.drain().pop() {
        Some(JobEvent::Done(state)) => state,
        other => panic!("job {id} ended without Done: {other:?}"),
    }
}

fn tmproot(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "flor-registry-it-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn train_src(epochs: u64, lr: f64) -> String {
    format!(
        "\
import flor
data = synth_data(n=40, dim=8, classes=2, seed=5)
loader = dataloader(data, batch_size=20, seed=5)
net = mlp(input=8, hidden=8, classes=2, depth=1, seed=5)
optimizer = sgd(net, lr={lr})
criterion = cross_entropy()
avg = meter()
for epoch in range({epochs}):
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
"
    )
}

fn probed(src: &str) -> String {
    let out = src.replace(
        "    log(\"loss\", avg.mean())\n",
        "    log(\"loss\", avg.mean())\n    log(\"hindsight_wnorm\", net.weight_norm())\n",
    );
    assert_ne!(out, src);
    out
}

fn no_adaptive(opts: &mut RecordOptions) {
    opts.adaptive = false;
}

#[test]
fn record_run_catalogs_and_survives_restart() {
    let root = tmproot("restart");
    let src = train_src(4, 0.1);
    {
        let reg = Registry::open(&root).unwrap();
        let (report, rec) = reg.record_run("alice-cv", &src, no_adaptive).unwrap();
        assert_eq!(rec.generation, 0);
        assert_eq!(rec.iterations, 4);
        assert_eq!(rec.checkpoints, report.checkpoints);
        assert!(rec.store_root.starts_with(&root));
    }
    // A fresh process sees the same catalog.
    let reg = Registry::open(&root).unwrap();
    assert_eq!(reg.runs().len(), 1);
    let rec = reg.run("alice-cv").unwrap();
    assert_eq!(rec.iterations, 4);
    // And can still answer queries and read back the source.
    let source = reg.run_source("alice-cv").unwrap();
    assert_eq!(source, src);
}

#[test]
fn adopt_existing_store_via_run_meta() {
    let reg_root = tmproot("adopt-reg");
    let store_root = tmproot("adopt-store");
    let src = train_src(3, 0.1);
    let mut opts = RecordOptions::new(&store_root);
    opts.adaptive = false;
    record(&src, &opts).unwrap();

    let reg = Registry::open(&reg_root).unwrap();
    let rec = reg.adopt("legacy-run", &store_root).unwrap();
    assert_eq!(rec.iterations, 3);
    assert_eq!(rec.store_root, store_root);
    let out = reg.query("legacy-run", &probed(&src), 1).unwrap();
    assert_eq!(
        out.log
            .iter()
            .filter(|e| e.key == "hindsight_wnorm")
            .count(),
        3
    );
}

#[test]
fn second_identical_query_is_served_from_cache() {
    let reg = Registry::open(tmproot("cache")).unwrap();
    let src = train_src(4, 0.1);
    reg.record_run("alice-cv", &src, no_adaptive).unwrap();
    let q = probed(&src);

    let first = reg.query("alice-cv", &q, 2).unwrap();
    assert!(!first.cached);
    assert!(first.anomalies.is_empty(), "{:?}", first.anomalies);
    assert_eq!(first.probes, 1);
    assert!(first.restored + first.executed > 0, "fresh query replays");

    let second = reg.query("alice-cv", &q, 2).unwrap();
    assert!(second.cached, "identical repeat query must hit the cache");
    assert_eq!(
        second.restored + second.executed,
        0,
        "cache hit replays nothing"
    );
    assert_eq!(second.log, first.log, "cached stream is byte-identical");
    assert_eq!(second.key, first.key);

    // A different probe misses.
    let other = src.replace(
        "    log(\"loss\", avg.mean())\n",
        "    log(\"loss\", avg.mean())\n    log(\"hindsight_gnorm\", net.grad_norm())\n",
    );
    assert!(!reg.query("alice-cv", &other, 2).unwrap().cached);
}

#[test]
fn textual_variant_of_same_probe_hits_slice_cache() {
    let reg = Registry::open(tmproot("slice-memo")).unwrap();
    let src = train_src(4, 0.1);
    reg.record_run("alice-cv", &src, no_adaptive).unwrap();
    let q = probed(&src);

    let first = reg.query("alice-cv", &q, 2).unwrap();
    assert!(!first.cached);
    assert_eq!(first.slice_cache_hits, 0);

    // A blank line changes the raw query text (so the raw-text key
    // misses) but parses, instruments, and slices to the same live cone.
    let variant = q.replace("import flor\n", "import flor\n\n");
    assert_ne!(variant, q);
    let second = reg.query("alice-cv", &variant, 2).unwrap();
    assert!(
        second.cached,
        "slice fingerprint must dedup textual variants"
    );
    assert_eq!(second.slice_cache_hits, 1);
    assert_eq!(second.log, first.log, "memoized answer is byte-identical");
    assert_eq!(
        second.restored + second.executed,
        0,
        "slice-cache hit replays nothing"
    );

    // The hit backfilled the raw-text key: the same variant now
    // short-circuits on the raw cache (no slice-cache involvement).
    let third = reg.query("alice-cv", &variant, 2).unwrap();
    assert!(third.cached);
    assert_eq!(third.slice_cache_hits, 0);

    // A probe with a different live cone misses the slice cache.
    let other = src.replace(
        "    log(\"loss\", avg.mean())\n",
        "    log(\"loss\", avg.mean())\n    log(\"hindsight_gnorm\", net.grad_norm())\n",
    );
    let fresh = reg.query("alice-cv", &other, 2).unwrap();
    assert!(!fresh.cached);
    assert_eq!(fresh.slice_cache_hits, 0);
}

#[test]
fn reregistration_invalidates_cached_answers() {
    let reg = Registry::open(tmproot("invalidate")).unwrap();
    let src_v1 = train_src(3, 0.1);
    reg.record_run("run", &src_v1, no_adaptive).unwrap();
    let q1 = probed(&src_v1);
    assert!(!reg.query("run", &q1, 1).unwrap().cached);
    assert!(reg.query("run", &q1, 1).unwrap().cached);

    // Re-record the run with different hyperparameters → new generation;
    // the old cached answer must not be returned for the new generation.
    let src_v2 = train_src(5, 0.05);
    reg.record_run("run", &src_v2, no_adaptive).unwrap();
    assert_eq!(reg.run("run").unwrap().generation, 1);
    let q2 = probed(&src_v2);
    let fresh = reg.query("run", &q2, 1).unwrap();
    assert!(!fresh.cached);
    assert_eq!(
        fresh
            .log
            .iter()
            .filter(|e| e.key == "hindsight_wnorm")
            .count(),
        5
    );
}

#[test]
fn concurrent_record_runs_for_one_id_get_disjoint_stores() {
    let reg = Arc::new(Registry::open(tmproot("race")).unwrap());
    let src = train_src(3, 0.1);
    let mut handles = Vec::new();
    for _ in 0..4 {
        let reg = reg.clone();
        let src = src.clone();
        handles.push(std::thread::spawn(move || {
            reg.record_run("same-id", &src, no_adaptive).unwrap().1
        }));
    }
    let recs: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    let mut roots: Vec<_> = recs.iter().map(|r| r.store_root.clone()).collect();
    roots.sort();
    roots.dedup();
    assert_eq!(roots.len(), 4, "each racer recorded into its own store dir");
    let mut gens: Vec<_> = recs.iter().map(|r| r.generation).collect();
    gens.sort_unstable();
    assert_eq!(gens, vec![0, 1, 2, 3]);
    // Every generation replays cleanly from its own store.
    let q = probed(&src);
    let out = reg.query("same-id", &q, 1).unwrap();
    assert!(out.anomalies.is_empty());
}

#[test]
fn store_handles_are_pooled_across_queries() {
    let reg = Registry::open(tmproot("pool")).unwrap();
    let src = train_src(3, 0.1);
    reg.record_run("a", &src, no_adaptive).unwrap();
    // Distinct probes so no query is a cache hit, yet one handle serves all.
    for i in 0..3 {
        let q = src.replace(
            "    log(\"loss\", avg.mean())\n",
            &format!("    log(\"loss\", avg.mean())\n    log(\"hs_{i}\", net.weight_norm())\n"),
        );
        reg.query("a", &q, 1).unwrap();
    }
    assert_eq!(reg.open_store_handles(), 1);
}

#[test]
fn unknown_run_is_a_clean_error() {
    let reg = Registry::open(tmproot("unknown")).unwrap();
    let err = reg.query("nope", "import flor\n", 1).unwrap_err();
    assert!(err.to_string().contains("unknown run"));
}

#[test]
fn scheduler_completes_queued_queries_across_runs() {
    let reg_root = tmproot("sched");
    let reg = Arc::new(Registry::open(&reg_root).unwrap());
    let src_a = train_src(4, 0.1);
    let src_b = train_src(6, 0.05);
    reg.record_run("run-a", &src_a, no_adaptive).unwrap();
    reg.record_run("run-b", &src_b, no_adaptive).unwrap();

    // Bounded pool: 2 workers, 4 queued jobs across different runs.
    let sched = ReplayScheduler::new(reg.clone(), 2);
    assert_eq!(sched.pool_size(), 2);
    let jobs = [
        ("run-a", probed(&src_a), 0),
        ("run-b", probed(&src_b), 5),
        ("run-a", probed(&src_a), 0), // duplicate: should land on the cache
        ("run-b", src_b.clone(), -3), // unprobed replay, lowest priority
    ];
    let mut ids = Vec::new();
    for (run, q, priority) in jobs {
        ids.push(submit(&sched, run, q, 2, priority));
    }
    let outcomes: Vec<JobState> = ids.iter().map(|job| wait_done(&sched, job)).collect();
    let completed: Vec<_> = outcomes
        .iter()
        .map(|s| match s {
            JobState::Completed(o) => o,
            other => panic!("job did not complete: {other:?}"),
        })
        .collect();
    assert_eq!(
        completed[0]
            .log
            .iter()
            .filter(|e| e.key == "hindsight_wnorm")
            .count(),
        4
    );
    assert_eq!(
        completed[1]
            .log
            .iter()
            .filter(|e| e.key == "hindsight_wnorm")
            .count(),
        6
    );
    assert!(
        completed[0].cached || completed[2].cached,
        "one of the two identical run-a queries is a cache hit"
    );
    assert!(completed.iter().all(|o| o.anomalies.is_empty()));
}

#[test]
fn scheduler_priority_orders_queued_work() {
    // One worker + a long-running head job: everything else sits queued,
    // so completion order of the tail reflects priority order.
    let reg = Arc::new(Registry::open(tmproot("prio")).unwrap());
    let src = train_src(6, 0.1);
    reg.record_run("r", &src, no_adaptive).unwrap();
    let sched = ReplayScheduler::new(reg, 1);

    let mk = |tag: &str| {
        src.replace(
            "    log(\"loss\", avg.mean())\n",
            &format!("    log(\"loss\", avg.mean())\n    log(\"hs_{tag}\", net.weight_norm())\n"),
        )
    };
    let head = submit(&sched, "r", mk("head"), 1, 0);
    let low = submit(&sched, "r", mk("low"), 1, -1);
    let high = submit(&sched, "r", mk("high"), 1, 9);
    // `high` must complete no later than `low` despite being submitted
    // after it. Wait for `low`; by then `high` must already be terminal.
    wait_done(&sched, &head);
    wait_done(&sched, &low);
    assert!(
        matches!(high.1.drain().last(), Some(JobEvent::Done(_))),
        "high-priority job finished before the low-priority one"
    );
    sched.drain();
}

#[test]
fn scheduler_cancel_while_queued() {
    let reg = Arc::new(Registry::open(tmproot("cancel")).unwrap());
    let src = train_src(5, 0.1);
    reg.record_run("r", &src, no_adaptive).unwrap();
    let sched = ReplayScheduler::new(reg, 1);
    // Occupy the single worker, then cancel a queued job.
    let head = submit(&sched, "r", probed(&src), 1, 0);
    let victim = submit(
        &sched,
        "r",
        src.replace("avg.mean()", "avg.mean() * 1.0"),
        1,
        -5,
    );
    assert_eq!(
        sched.cancel_job(victim.0),
        CancelResult::Cancelled,
        "queued job is cancellable"
    );
    assert!(matches!(wait_done(&sched, &victim), JobState::Cancelled));
    wait_done(&sched, &head);
    sched.drain();
    assert_eq!(
        sched.cancel_job(head.0),
        CancelResult::NotCancellable,
        "finished job is not cancellable"
    );
}

#[test]
fn cancel_mid_replay_plateaus_frees_the_slot_and_never_poisons_the_cache() {
    // A big dataset and a probe whose logged value needs a full-dataset
    // evaluation per batch step: the probe is live (its result is logged)
    // and depends on per-batch optimizer state, so slicing cannot elide
    // it and the hindsight replay runs long enough to cancel mid-flight
    // even on a loaded single-core host.
    let src = "\
import flor
data = synth_data(n=800, dim=8, classes=2, seed=5)
loader = dataloader(data, batch_size=40, seed=5)
net = mlp(input=8, hidden=32, classes=2, depth=1, seed=5)
optimizer = sgd(net, lr=0.1)
criterion = cross_entropy()
avg = meter()
for epoch in range(16):
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
";
    let reg = Arc::new(Registry::open(tmproot("cancel-mid")).unwrap());
    reg.record_run("r", src, no_adaptive).unwrap();
    let q = src.replace(
        "        optimizer.step()\n",
        "        optimizer.step()\n        log(\"probe_acc\", evaluate(net, data))\n",
    );
    assert_ne!(q, src);
    let sched = ReplayScheduler::new(reg.clone(), 1);
    let victim = submit(&sched, "r", q.clone(), 1, 0);

    // Wait until the replay is demonstrably mid-flight (≥1 iteration in),
    // then fire the cooperative token.
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    loop {
        assert!(std::time::Instant::now() < deadline, "job never progressed");
        let running = matches!(sched.status(victim.0), Some(JobState::Running));
        if running
            && sched
                .progress(victim.0)
                .is_some_and(|p| p.iterations_done >= 1)
        {
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    assert_eq!(sched.cancel_job(victim.0), CancelResult::CancelRequested);
    sched.wait(victim.0);
    let mut events = victim.1.drain();
    let st = events.pop();
    assert!(
        matches!(st, Some(JobEvent::Done(JobState::Cancelled))),
        "got {st:?}"
    );

    // The iteration counter plateaued: the token stopped the replay before
    // the remaining epochs ran, and it stays put after termination.
    let at_cancel = events
        .iter()
        .rev()
        .find_map(|ev| match ev {
            JobEvent::Progress(p) => Some(*p),
            _ => None,
        })
        .unwrap();
    assert!(
        at_cancel.iterations_done < at_cancel.iterations_total,
        "cancelled mid-flight: {}/{}",
        at_cancel.iterations_done,
        at_cancel.iterations_total
    );
    std::thread::sleep(Duration::from_millis(50));
    assert!(
        victim.1.drain().is_empty() && sched.progress(victim.0).is_none(),
        "no iterations after cancellation"
    );

    // The worker slot is free: the next job on the same 1-worker pool
    // completes (a cancelled job that pinned its slot would hang this).
    let follow = submit(&sched, "r", src.to_string(), 1, 0);
    assert!(matches!(wait_done(&sched, &follow), JobState::Completed(_)));

    // The aborted replay was never cached: re-issuing the identical query
    // replays fresh, and only its *completed* answer populates the cache.
    let first = reg.query("r", &q, 1).unwrap();
    assert!(!first.cached, "a cancelled replay must not seed the cache");
    assert!(first.anomalies.is_empty(), "{:?}", first.anomalies);
    let second = reg.query("r", &q, 1).unwrap();
    assert!(second.cached);
    assert_eq!(second.log, first.log, "byte-identical via the cache");
    sched.drain();
}

#[test]
fn store_stats_and_compaction_surface_through_the_registry() {
    let root = tmproot("store-stats");
    let reg = Registry::open(&root).unwrap();
    let src = train_src(4, 0.1);
    reg.record_run("carol-cv", &src, no_adaptive).unwrap();

    let before = reg.store_stats("carol-cv").unwrap();
    assert!(before.entries >= 4, "{before:?}");
    assert!(before.segments >= 1, "{before:?}");
    assert_eq!(before.compactions, 0);
    assert!(reg.store_recovery("carol-cv").unwrap().is_clean());

    // Queries exercise the zero-copy read path of the pooled handle.
    let out = reg.query("carol-cv", &probed(&src), 1).unwrap();
    assert!(!out.cached);
    assert_eq!(out.restored, 4);
    let read = reg.store_stats("carol-cv").unwrap();
    assert!(read.reads >= 4, "{read:?}");

    // Registry stores record through the shared dedup arena, so
    // arena-backed entries carry no segment bytes and compaction
    // rewrites only the rest.
    let report = reg.compact_run("carol-cv").unwrap();
    assert_eq!(
        report.rewritten_entries + before.dedup_entries,
        before.entries,
        "{report:?} vs {before:?}"
    );
    let after = reg.store_stats("carol-cv").unwrap();
    assert_eq!(after.compactions, 1);
    assert_eq!(after.dead_segment_bytes, 0, "{after:?}");

    // Replay still answers correctly from the compacted store (cache is
    // keyed by content, so force a fresh replay with a different probe).
    let probed2 = src.replace(
        "    log(\"loss\", avg.mean())\n",
        "    log(\"loss\", avg.mean())\n    log(\"post_compact\", net.weight_norm())\n",
    );
    let out = reg.query("carol-cv", &probed2, 1).unwrap();
    assert!(!out.cached);
    assert_eq!(out.restored, 4);
    assert!(out.anomalies.is_empty(), "{:?}", out.anomalies);
}

#[test]
fn retention_prunes_old_generation_stores_but_keeps_history() {
    use flor_registry::RetentionPolicy;
    let root = tmproot("retention");
    let reg = Registry::open(&root).unwrap();
    // Three generations of the same run id.
    for lr in ["0.1", "0.05", "0.025"] {
        let src = train_src(3, lr.parse().unwrap());
        reg.record_run("dave-cv", &src, no_adaptive).unwrap();
    }
    let history = reg.catalog().history("dave-cv");
    assert_eq!(history.len(), 3);
    assert!(history.iter().all(|r| r.store_root.exists()));

    // keep_latest=2: generation 0's store goes, 1 and 2 stay.
    let pruned = reg
        .apply_retention("dave-cv", &RetentionPolicy { keep_latest: 2 })
        .unwrap();
    assert_eq!(pruned.len(), 1);
    assert_eq!(pruned[0].generation, 0);
    assert!(!pruned[0].store_root.exists());
    let history = reg.catalog().history("dave-cv");
    assert_eq!(history.len(), 3, "catalog metadata is never pruned");
    assert!(history[1].store_root.exists());
    assert!(history[2].store_root.exists());

    // Idempotent: nothing left to prune at this policy.
    assert!(reg
        .apply_retention("dave-cv", &RetentionPolicy { keep_latest: 2 })
        .unwrap()
        .is_empty());
    // The live generation is never prunable, even at keep_latest=1's floor.
    let pruned = reg
        .apply_retention("dave-cv", &RetentionPolicy { keep_latest: 1 })
        .unwrap();
    assert_eq!(pruned.len(), 1);
    assert_eq!(pruned[0].generation, 1);
    let live = reg.run("dave-cv").unwrap();
    assert!(live.store_root.exists());
    // And the live generation still answers queries.
    let src = train_src(3, 0.025);
    let out = reg.query("dave-cv", &probed(&src), 1).unwrap();
    assert_eq!(out.restored, 3);
}

#[test]
fn identical_rerecords_dedup_across_generations_and_retention_is_refcounted() {
    use flor_registry::RetentionPolicy;
    let root = tmproot("dedup-gens");
    let reg = Registry::open(&root).unwrap();
    // The same deterministic script twice: every checkpoint of generation
    // 1 is byte-identical to generation 0's, so its keyframe-sized stored
    // payloads land as `@dup` references into the registry-wide arena.
    let src = train_src(4, 0.1).replace("hidden=8", "hidden=64");
    reg.record_run("erin-cv", &src, no_adaptive).unwrap();
    reg.record_run("erin-cv", &src, no_adaptive).unwrap();

    let stats = reg.store_stats("erin-cv").unwrap();
    assert!(
        stats.dedup_entries > 0,
        "re-recorded checkpoints should dedup: {stats:?}"
    );
    let arena = flor_chkpt::DedupIndex::open(&reg.dedup_arena_dir()).unwrap();
    let arena_entries = arena.entries();
    assert!(arena_entries > 0);

    // Pruning generation 0 releases its references; generation 1's `@dup`
    // entries survive (refcount ≥ 1) and still restore.
    let pruned = reg
        .apply_retention("erin-cv", &RetentionPolicy { keep_latest: 1 })
        .unwrap();
    assert_eq!(pruned.len(), 1);
    assert!(!pruned[0].store_root.exists());
    let out = reg.query("erin-cv", &probed(&src), 1).unwrap();
    assert_eq!(out.restored, 4);
    assert!(out.anomalies.is_empty(), "{:?}", out.anomalies);
    // The shared blobs are still in the arena (the survivor holds refs).
    assert!(arena.entries() > 0, "retention must not sever shared blobs");
    assert!(arena.entries() <= arena_entries);
}
