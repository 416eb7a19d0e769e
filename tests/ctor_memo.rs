//! The seed-pinned constructor memo seen from outside: production replay
//! builds the preamble's datasets and initial weights once per process
//! and answers from copies after that, while vanilla runs, record and the
//! reference replay never touch the table.
//!
//! The memo's counters are process-wide, so every test in this binary
//! holds [`SERIAL`] for its whole body.

use flor_core::record::{record, run_vanilla, RecordOptions};
use flor_core::replay::{replay, replay_reference, ReplayOptions};
use std::path::PathBuf;
use std::sync::Mutex;

static SERIAL: Mutex<()> = Mutex::new(());

fn store_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("flor-ctor-memo-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn record_exact(src: &str, tag: &str) -> PathBuf {
    let root = store_dir(tag);
    let mut ropts = RecordOptions::new(&root);
    ropts.adaptive = false;
    record(src, &ropts).unwrap();
    root
}

/// `(hits, misses)` of the memo so far in this process.
fn memo_counts() -> (u64, u64) {
    let c = flor_obs::metrics::counter;
    (
        c("replay.ctor_memo_hits").get(),
        c("replay.ctor_memo_misses").get(),
    )
}

/// A training script whose dataset, loader and model all take counter
/// seeds: each one's seed depends on every constructor call before it.
/// Each test passes its own `size`, so its first replay misses.
fn unseeded_src(size: u32) -> String {
    let n = 4 * size;
    format!(
        "\
import flor
data = synth_data(n={n}, dim=4, classes=2)
loader = dataloader(data, batch_size=10)
net = mlp(input=4, hidden={size}, classes=2, depth=1)
optimizer = sgd(net, lr=0.1)
criterion = cross_entropy()
avg = meter()
for epoch in flor.partition(range(4)):
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

/// `src` with a probe inside the inner loop: every work iteration
/// re-executes from the state the one before left, so iteration 0 runs
/// on the constructed data, loader order and initial weights.
fn inner_probed(src: &str) -> String {
    let probed = src.replace(
        "        optimizer.step()\n",
        "        optimizer.step()\n        log(\"probe_w\", net.weight_norm())\n",
    );
    assert_ne!(probed, src);
    probed
}

#[test]
fn unseeded_constructors_replay_equal_to_vanilla_on_misses_and_on_hits() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let src = unseeded_src(9);
    let root = record_exact(&src, "unseeded");
    let probed = inner_probed(&src);
    let (_, vanilla) = run_vanilla(&probed).unwrap();
    assert!(vanilla.iter().any(|e| e.key == "probe_w"));
    // The first pass builds both memoized constructors; the second
    // builds neither.
    for (pass, want) in [(0, (0, 2)), (1, (2, 0))] {
        let before = memo_counts();
        let rep = replay(&probed, &root, &ReplayOptions::default()).unwrap();
        assert!(rep.anomalies.is_empty(), "pass {pass}: {:?}", rep.anomalies);
        assert_eq!(rep.log, vanilla, "pass {pass}");
        let after = memo_counts();
        assert_eq!(
            (after.0 - before.0, after.1 - before.1),
            want,
            "pass {pass}"
        );
    }
}

#[test]
fn only_production_replay_reads_or_fills_the_memo() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let src = unseeded_src(13);
    let before = memo_counts();
    let root = record_exact(&src, "modes");
    let probed = inner_probed(&src);
    run_vanilla(&probed).unwrap();
    let reference = replay_reference(&probed, &root).unwrap();
    assert_eq!(
        memo_counts(),
        before,
        "record, run and the reference build fresh"
    );

    // One miss per constructor on the first production replay, hits after.
    let first = replay(&probed, &root, &ReplayOptions::default()).unwrap();
    let after_first = memo_counts();
    assert_eq!(first.log, reference.log);
    assert_eq!(after_first, (before.0, before.1 + 2));
    let second = replay(&probed, &root, &ReplayOptions::default()).unwrap();
    assert_eq!(second.log, reference.log);
    assert_eq!(memo_counts(), (after_first.0 + 2, after_first.1));

    // And the reference still builds fresh after the table holds them.
    replay_reference(&probed, &root).unwrap();
    assert_eq!(memo_counts(), (after_first.0 + 2, after_first.1));
}
