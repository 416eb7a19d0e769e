//! Integration tests for the observability layer: a traced work-stealing
//! hindsight query must produce per-worker lanes, the full span-category
//! vocabulary, well-nested spans, and a Chrome `trace_event` JSON export
//! that parses back with the workspace's own parser.

use flor_core::profile::COST_PROFILE_ARTIFACT;
use flor_obs::json::{self, Json};
use flor_obs::trace::{EventKind, LANE_DRIVER};
use flor_obs::{Category, TraceSession};
use flor_registry::{QueryEvent, Registry};
use std::path::PathBuf;

/// 16 epochs × 64 batches = 1024 main-loop iterations; the last three
/// epochs run `busy(8)` per batch — the tail-heavy skew that makes
/// uniform range seeds unbalanced and forces steals.
const SKEWED_1K_SRC: &str = "\
import flor
data = synth_data(n=320, dim=6, classes=2, seed=7)
loader = dataloader(data, batch_size=5, seed=7)
net = mlp(input=6, hidden=8, classes=2, depth=1, seed=7)
optimizer = sgd(net, lr=0.1)
criterion = cross_entropy()
avg = meter()
for epoch in flor.partition(range(16)):
    units = 1
    if epoch > 12:
        units = 8
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
";

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "flor-trace-e2e-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn inner_probed(src: &str) -> String {
    // The second probe reads `w`: without a reader, `w = busy(units)` is
    // dead (busy is a pure builtin) and the slicer would elide it — taking
    // the tail-heavy skew, and the guaranteed steals, with it.
    let probed = src.replace(
        "        optimizer.step()\n",
        "        optimizer.step()\n        log(\"probe_gnorm\", net.grad_norm())\n        log(\"probe_w\", w)\n",
    );
    assert_ne!(probed, src);
    probed
}

#[test]
fn traced_stolen_range_query_has_worker_lanes_and_full_category_vocabulary() {
    let reg_root = tmp_dir("lanes");
    let registry = Registry::open(&reg_root).unwrap();
    let (_, rec) = registry
        .record_run("skewed-1k", SKEWED_1K_SRC, |o| o.adaptive = false)
        .unwrap();
    // Drop the recorded cost profile: the splitter falls back to uniform
    // micro-ranges, which the tail skew unbalances — steals are certain,
    // so the Steal category must appear in the trace.
    std::fs::remove_file(rec.store_root.join("artifacts").join(COST_PROFILE_ARTIFACT)).unwrap();
    let probed = inner_probed(SKEWED_1K_SRC);

    let session = TraceSession::start();
    let outcome = registry
        .query_streaming("skewed-1k", &probed, 4, &mut |ev| {
            if let QueryEvent::Anomaly(a) = ev {
                panic!("unexpected anomaly: {a}");
            }
        })
        .unwrap();
    let trace = session.finish();
    assert!(!outcome.cached);
    assert_eq!(trace.dropped, 0, "16k-slot rings must not overflow here");

    // Distinct per-worker lanes (pids 0..4) plus the merge driver's lane.
    let lanes = trace.lanes();
    for pid in 0u32..4 {
        assert!(
            lanes.contains(&pid) && !trace.lane_events(pid).is_empty(),
            "worker lane {pid} missing from {lanes:?}"
        );
    }
    assert!(lanes.contains(&LANE_DRIVER), "driver lane missing");
    assert!(
        trace
            .lane_names
            .iter()
            .any(|(l, n)| *l == LANE_DRIVER && n == "driver"),
        "driver lane must be named for the viewer"
    );

    // The acceptance vocabulary: record (re-executed probed blocks),
    // commit (query-cache fill), restore-chain, range-exec, steal,
    // stream-merge, the VM columns — compile (the driver's one lowering
    // pass) and vm-exec (per-range bytecode execution) — and slice (the
    // driver's backward-slice pass over the instrumented program).
    let cats = trace.categories();
    for want in [
        Category::Record,
        Category::Commit,
        Category::RestoreChain,
        Category::RangeExec,
        Category::Steal,
        Category::StreamMerge,
        Category::Compile,
        Category::VmExec,
        Category::Slice,
    ] {
        assert!(cats.contains(&want), "category {want:?} missing: {cats:?}");
    }
    assert!(cats.len() >= 9, "expected ≥9 categories, got {cats:?}");

    // vm-exec spans nest inside the range-exec span of the same range on
    // a worker lane; the compile span runs once, before any execution.
    let vm_exec = trace
        .events
        .iter()
        .find(|e| e.cat == Category::VmExec)
        .expect("vm-exec span");
    assert_eq!(vm_exec.kind, EventKind::Complete);
    assert!(vm_exec.lane < 4, "vm-exec happens on worker lanes");
    let compiles: Vec<_> = trace
        .events
        .iter()
        .filter(|e| e.cat == Category::Compile)
        .collect();
    assert_eq!(compiles.len(), 1, "one lowering pass per query");
    assert!(
        compiles[0].start_ns <= vm_exec.start_ns,
        "compilation precedes bytecode execution"
    );

    // Nesting invariant: every nested span is contained in some shallower
    // span on its own lane (spans never straddle their parents).
    for ev in trace
        .events
        .iter()
        .filter(|e| e.kind == EventKind::Complete)
    {
        if ev.depth == 0 {
            continue;
        }
        let contained = trace.events.iter().any(|p| {
            p.kind == EventKind::Complete
                && p.lane == ev.lane
                && p.depth < ev.depth
                && p.start_ns <= ev.start_ns
                && p.start_ns + p.dur_ns >= ev.start_ns + ev.dur_ns
        });
        assert!(
            contained,
            "span {:?}/{} at depth {} on lane {} has no enclosing parent",
            ev.cat, ev.name, ev.depth, ev.lane
        );
    }

    // Steal instants ride on worker lanes and carry the stolen range.
    let steal = trace
        .events
        .iter()
        .find(|e| e.cat == Category::Steal)
        .expect("steal instant");
    assert_eq!(steal.kind, EventKind::Instant);
    assert!(steal.lane < 4, "steals happen on worker lanes");
    assert!(steal.args[1] > steal.args[0], "steal args are [start, end)");

    // Chrome export of the same trace parses back with the workspace
    // parser, keeps every span as a ph:"X" event with a duration, and
    // names the lanes via thread_name metadata.
    let chrome = trace.to_chrome_json();
    let doc = json::parse(&chrome).expect("chrome export must be valid JSON");
    let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
    let ph = |e: &Json| e.get("ph").and_then(Json::as_str).unwrap().to_string();
    let complete = trace
        .events
        .iter()
        .filter(|e| e.kind == EventKind::Complete)
        .count();
    assert_eq!(events.iter().filter(|e| ph(e) == "X").count(), complete);
    assert_eq!(
        events.iter().filter(|e| ph(e) == "i").count(),
        trace.events.len() - complete
    );
    assert!(events.iter().filter(|e| ph(e) == "M").any(|e| e
        .get("args")
        .and_then(|a| a.get("name"))
        .and_then(Json::as_str)
        == Some("driver")));
    for ev in events.iter().filter(|e| ph(e) == "X") {
        assert!(ev.get("dur").and_then(Json::as_f64).unwrap() >= 0.0);
        assert!(ev.get("tid").and_then(Json::as_u64).is_some());
    }
    assert_eq!(doc.get("droppedEvents").and_then(Json::as_u64), Some(0));

    // The folded flamegraph view carries the same lanes, one stack per
    // line with a positive self-time count.
    let folded = trace.to_folded();
    assert!(
        folded.lines().any(|l| l.starts_with("worker-0;")),
        "{folded}"
    );
    for line in folded.lines() {
        let (_, count) = line.rsplit_once(' ').expect("stack <space> count");
        assert!(
            count.parse::<u64>().unwrap() > 0,
            "bad folded line {line:?}"
        );
    }
}

#[test]
fn cli_query_trace_flag_writes_a_parseable_chrome_trace() {
    let dir = tmp_dir("cli");
    std::fs::create_dir_all(&dir).unwrap();
    let small = SKEWED_1K_SRC
        .replace("range(16)", "range(6)")
        .replace("n=320", "n=40");
    let script = dir.join("train.flr");
    std::fs::write(&script, &small).unwrap();
    let registry = dir.join("registry");
    let raw: Vec<String> = [
        "record",
        script.to_str().unwrap(),
        "--registry",
        registry.to_str().unwrap(),
        "--run-id",
        "cli-trace",
        "--no-adaptive",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    flor_cli::run_cli(&raw).unwrap();

    let probed = dir.join("probed.flr");
    std::fs::write(&probed, inner_probed(&small)).unwrap();
    let trace_path = dir.join("trace.json");
    let raw: Vec<String> = [
        "query",
        "cli-trace",
        probed.to_str().unwrap(),
        "--registry",
        registry.to_str().unwrap(),
        "--workers",
        "2",
        "--trace",
        trace_path.to_str().unwrap(),
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let out = flor_cli::run_cli(&raw).unwrap();
    assert!(out.contains("# trace:"), "{out}");

    let text = std::fs::read_to_string(&trace_path).unwrap();
    let doc = json::parse(&text).expect("--trace output must parse");
    let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
    assert!(!events.is_empty());
    let mut lanes = std::collections::BTreeSet::new();
    let mut cats = std::collections::BTreeSet::new();
    for ev in events {
        match ev.get("ph").and_then(Json::as_str) {
            Some("X") | Some("i") => {
                lanes.extend(ev.get("tid").and_then(Json::as_u64));
                cats.extend(ev.get("cat").and_then(Json::as_str).map(String::from));
            }
            Some("M") => {}
            other => panic!("unexpected ph {other:?}"),
        }
    }
    assert!(
        lanes.len() >= 2,
        "want ≥2 lanes (workers + driver): {lanes:?}"
    );
    assert!(
        cats.contains("range-exec") && cats.contains("stream-merge"),
        "{cats:?}"
    );
    assert!(
        cats.contains("compile") && cats.contains("vm-exec"),
        "VM compile/exec categories must reach the exported trace: {cats:?}"
    );
    assert!(
        cats.contains("slice"),
        "the slice pass must reach the exported trace: {cats:?}"
    );
}

#[test]
fn socket_service_emits_serve_category_spans() {
    // The socket query service wraps its connection stages in `serve`
    // spans — accept (connection set-up), read (line parse + dispatch),
    // dispatch (one per protocol command), write (socket writes) — so a
    // trace of a serving process shows where connection time goes.
    let dir = tmp_dir("serve-cat");
    std::fs::create_dir_all(&dir).unwrap();
    let small = SKEWED_1K_SRC
        .replace("range(16)", "range(4)")
        .replace("n=320", "n=40");
    let registry = std::sync::Arc::new(Registry::open(dir.join("registry")).unwrap());
    registry
        .record_run("serve-cat", &small, |o| o.adaptive = false)
        .unwrap();
    let probed = dir.join("probed.flr");
    std::fs::write(&probed, inner_probed(&small)).unwrap();

    let session = TraceSession::start();
    let handle =
        flor_registry::Server::start(registry, flor_registry::ServerConfig::default()).unwrap();
    let ep = handle.local_endpoints()[0].clone();
    let conn = flor_registry::Conn::connect(&ep).unwrap();
    use std::io::{BufRead, Write};
    (&conn)
        .write_all(format!("query serve-cat {}\ndrain\nquit\n", probed.display()).as_bytes())
        .unwrap();
    let mut lines = Vec::new();
    let mut rd = std::io::BufReader::new(&conn);
    loop {
        let mut s = String::new();
        if rd.read_line(&mut s).unwrap() == 0 {
            break;
        }
        lines.push(s.trim_end_matches('\n').to_string());
    }
    drop(handle); // shut the server down before sampling the trace
    let trace = session.finish();

    assert!(
        lines.iter().any(|l| l.starts_with("job 1 done:")),
        "{lines:?}"
    );
    assert!(
        trace.categories().contains(&Category::Serve),
        "serve category missing: {:?}",
        trace.categories()
    );
    for stage in ["accept", "read", "dispatch", "write"] {
        assert!(
            trace
                .events
                .iter()
                .any(|e| e.cat == Category::Serve && e.name == stage),
            "serve span {stage:?} missing"
        );
    }
    assert_eq!(Category::Serve.as_str(), "serve");
    assert_eq!(Category::Tier.as_str(), "tier");
}

#[test]
fn read_once_contract_is_visible_in_metrics_and_store_stats() {
    // "Verified once" used to be silent; it is a counter now, on the
    // `metrics` surface and (per arena) in `flor store stats`.
    let dir = tmp_dir("read-once");
    let registry = Registry::open(dir.join("registry")).unwrap();
    // Wide enough that every epoch's checkpoint clears the arena's 1 KiB
    // floor.
    let src = SKEWED_1K_SRC
        .replace("range(16)", "range(12)")
        .replace("n=320", "n=40")
        .replace("hidden=8", "hidden=512");
    let (_, rec) = registry
        .record_run("read-once", &src, |o| {
            o.adaptive = false;
            o.delta_keyframe_interval = Some(0);
        })
        .unwrap();
    // Outer probes: every epoch restores, nothing re-executes. Distinct
    // constants make each query fresh (new key, new slice class).
    let outer_probed = |k: u64| {
        src.replace(
            "    log(\"loss\", avg.mean())\n",
            &format!("    log(\"loss\", avg.mean())\n    log(\"p{k}\", net.weight_norm() + {k})\n"),
        )
    };
    let hash_verifies = flor_obs::metrics::counter("dedup.hash_verifies");
    let verifies_before = hash_verifies.get();
    let slabs_reused = flor_obs::metrics::counter("replay.restore_slabs_reused");
    let reused_before = slabs_reused.get();

    let first = registry.query("read-once", &outer_probed(1), 1).unwrap();
    assert!(!first.cached && first.anomalies.is_empty(), "{first:?}");
    assert_eq!((first.restored, first.executed), (12, 0));
    let store = flor_chkpt::CheckpointStore::open_read_only(&rec.store_root).unwrap();
    let blobs = store.stats().dedup_entries;
    assert_eq!(blobs, 12, "{:?}", store.stats());
    let arena = store.dedup_index().unwrap();
    // The query's pooled handle shares this process's arena instance:
    // each blob it restored was hashed exactly once.
    assert_eq!(arena.hash_verifies(), blobs);
    assert_eq!(store.stats().dedup_hash_verifies, blobs);

    // Fresh queries keep restoring all twelve blobs and verify none
    // again.
    for k in 2..5 {
        let again = registry.query("read-once", &outer_probed(k), 1).unwrap();
        assert!(!again.cached && again.restored == 12, "{again:?}");
    }
    assert_eq!(
        arena.hash_verifies(),
        blobs,
        "hash once per blob per process"
    );
    assert!(hash_verifies.get() - verifies_before >= blobs);
    // Each query's restores after its first load into the slabs its
    // model and optimizer already own.
    assert!(slabs_reused.get() - reused_before >= 4 * (blobs - 1));

    // The counter is on the `metrics` surface, beside the constructor
    // memo's (a table that starts empty misses before it hits) and the
    // restores' slab counts.
    let metrics = registry.metrics_snapshot().to_json();
    for name in [
        "dedup.hash_verifies",
        "replay.ctor_memo_hits",
        "replay.ctor_memo_misses",
        "replay.ctor_memo_evictions",
        "replay.restore_slabs_reused",
        "replay.restore_slabs_allocated",
    ] {
        assert!(metrics.contains(name), "{name} missing from {metrics}");
    }
}

#[test]
fn postamble_memoization_is_counted_and_refusals_say_why() {
    // A replay that runs the postamble when it could have emitted the
    // recorded one must say so, like a slicer refusal. Every other test in
    // this binary replays read-only probes outside the postamble, so the
    // refusal deltas below are this test's alone; the memoized counter
    // only grows. (Both refusals here keep the slice: the slicer refusal
    // test counts `slice.refusals` exactly.)
    let dir = tmp_dir("postamble");
    std::fs::create_dir_all(&dir).unwrap();
    let registry = Registry::open(dir.join("registry")).unwrap();
    let src = SKEWED_1K_SRC
        .replace("range(16)", "range(4)")
        .replace("n=320", "n=40")
        + "acc = evaluate(net, data)\nlog(\"accuracy\", acc)\n";
    let (_, rec) = registry
        .record_run("post", &src, |o| o.adaptive = false)
        .unwrap();
    let after = |anchor: &str, probe: &str| {
        let probed = src.replace(anchor, &format!("{anchor}{probe}"));
        assert_ne!(probed, src);
        probed
    };
    let memoized = flor_obs::metrics::counter("replay.postamble_memoized");
    let refusals = flor_obs::metrics::counter("replay.postamble_refusals");
    for (name, probed, reason) in [
        (
            "outer",
            after(
                "    log(\"loss\", avg.mean())\n",
                "    log(\"w\", net.weight_norm())\n",
            ),
            None,
        ),
        (
            "postamble",
            after("log(\"accuracy\", acc)\n", "log(\"late\", acc)\n"),
            Some("a probe lands in the postamble"),
        ),
        (
            "mutating",
            after(
                "        optimizer.step()\n",
                "        log(\"m\", net.accuracy(batch))\n",
            ),
            Some("a probe calls `net.accuracy(batch)`, which may mutate state"),
        ),
    ] {
        let (memoized_before, refusals_before) = (memoized.get(), refusals.get());
        let session = TraceSession::start();
        let outcome = registry.query("post", &probed, 2).unwrap();
        let trace = session.finish();
        assert!(
            !outcome.cached && outcome.anomalies.is_empty(),
            "{name}: {outcome:?}"
        );
        assert!(outcome.log.iter().any(|e| e.key == "accuracy"), "{name}");
        let refused_events = trace
            .events
            .iter()
            .filter(|e| e.cat == Category::Slice && e.name == "postamble_refused")
            .count();
        let (memoized_now, refusals_now) = (memoized.get(), refusals.get());
        // The CLI prints the decision where `flor replay` ends.
        let script = dir.join(format!("{name}.flr"));
        std::fs::write(&script, &probed).unwrap();
        let argv = ["replay", script.to_str().unwrap(), "--store"];
        let argv = argv
            .iter()
            .copied()
            .chain([rec.store_root.to_str().unwrap()]);
        let out = flor_cli::run_cli(&argv.map(String::from).collect::<Vec<_>>()).unwrap();
        match reason {
            None => {
                assert!(memoized_now > memoized_before, "{name}");
                assert_eq!(refusals_now, refusals_before, "{name}");
                assert_eq!(refused_events, 0, "{name}");
                assert!(
                    out.contains("# postamble: memoized (1 recorded entries)"),
                    "{out}"
                );
            }
            Some(reason) => {
                assert_eq!(refusals_now - refusals_before, 1, "{name}: one refusal");
                assert_eq!(refused_events, 1, "{name}");
                assert!(
                    out.contains(&format!("# postamble: executed ({reason})")),
                    "{out}"
                );
            }
        }
    }
    // Both counters are on the `metrics` surface.
    let metrics = registry.metrics_snapshot().to_json();
    for name in ["replay.postamble_memoized", "replay.postamble_refusals"] {
        assert!(metrics.contains(name), "{name} missing from {metrics}");
    }
}

#[test]
fn slicer_refusals_are_counted_and_say_why() {
    // A slicer that cannot prove elision safe runs the full program; that
    // fallback must be counted and named, never silent. `slice.refusals`
    // is process-wide: every other test in this binary replays a
    // sliceable program, so the deltas below are this test's alone.
    let dir = tmp_dir("refusals");
    let registry = Registry::open(dir.join("registry")).unwrap();
    let refusals = flor_obs::metrics::counter("slice.refusals");
    let sliceable = "\
import flor
base = 2
acc = 0
for epoch in flor.partition(range(4)):
    shadow = base
    for i in range(3):
        acc = acc + shadow
        dead = epoch * 5
    log(\"loss\", acc)
";
    let probe = |src: &str| {
        let probed = src.replace(
            "    log(\"loss\", acc)\n",
            "    log(\"loss\", acc)\n    log(\"probe_acc\", acc)\n",
        );
        assert_ne!(probed, src);
        probed
    };
    for (run_id, src, reason) in [
        ("sliceable", sliceable.to_string(), None),
        // A subscript of a computed receiver: untrackable aliasing.
        (
            "aliasing",
            sliceable.replace("shadow = base\n", "shadow = [base, 2][0]\n"),
            Some("untrackable alias"),
        ),
        // Rule 5: a bare call to an unknown function may touch anything.
        // (`if epoch < 0` keeps it from ever running.)
        (
            "rule-5",
            sliceable.replace(
                "    shadow = base\n",
                "    shadow = base\n    if epoch < 0:\n        mystery(acc)\n",
            ),
            Some("arbitrary side effects"),
        ),
    ] {
        registry
            .record_run(run_id, &src, |o| o.adaptive = false)
            .unwrap();
        let before = refusals.get();
        let session = TraceSession::start();
        let outcome = registry.query(run_id, &probe(&src), 2).unwrap();
        let trace = session.finish();
        assert!(outcome.anomalies.is_empty(), "{run_id}: {outcome:?}");
        let refused_events = trace
            .events
            .iter()
            .filter(|e| e.cat == Category::Slice && e.name == "slice_refused")
            .count();
        match reason {
            None => {
                assert_eq!(refusals.get() - before, 0, "{run_id}");
                assert_eq!(outcome.slice_refusal, None, "{run_id}");
                assert!(outcome.statements_elided > 0, "{run_id}: {outcome:?}");
                assert_eq!(refused_events, 0, "{run_id}");
            }
            Some(reason) => {
                assert_eq!(refusals.get() - before, 1, "{run_id}: exactly one refusal");
                let said = outcome.slice_refusal.as_deref().unwrap_or_default();
                assert!(said.contains(reason), "{run_id}: {said:?}");
                assert_eq!(outcome.statements_elided, 0, "{run_id}");
                assert_eq!(refused_events, 1, "{run_id}");
                // The CLI prints the reason where the elision count goes.
                let script = dir.join(format!("{run_id}.flr"));
                std::fs::write(&script, probe(&src)).unwrap();
                let store = registry.run(run_id).unwrap().store_root;
                let argv = ["replay", script.to_str().unwrap(), "--store"];
                let argv = argv.iter().copied().chain([store.to_str().unwrap()]);
                let out = flor_cli::run_cli(&argv.map(String::from).collect::<Vec<_>>()).unwrap();
                assert!(out.contains(&format!("# slice: refused ({said})")), "{out}");
                assert!(!out.contains("statement(s) elided"), "{out}");
            }
        }
    }
}
