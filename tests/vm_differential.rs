//! The differential table: production replay (sliced, range-scheduled,
//! on the bytecode VM — including stolen-range boundaries, where workers
//! re-enter the VM at iteration granularity with checkpoint-restored
//! slots) against `replay_reference`, the one-worker tree-walk of the
//! unsliced program.

use flor_core::record::{record, RecordOptions};
use flor_core::replay::{replay, replay_reference, ReplayOptions};
use flor_core::InitMode;
use std::path::PathBuf;

fn store_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "flor-vmdiff-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

const TRAIN_SRC: &str = "\
import flor
data = synth_data(n=60, dim=8, classes=3, seed=11)
loader = dataloader(data, batch_size=20, seed=11)
net = mlp(input=8, hidden=10, classes=3, depth=2, seed=11)
optimizer = sgd(net, lr=0.1)
criterion = cross_entropy()
avg = meter()
for epoch in range(8):
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
log(\"final\", net.weight_norm())
";

/// `TRAIN_SRC` with `probe` spliced in after the line `after`.
fn probed_after(after: &str, probe: &str) -> String {
    let probed = TRAIN_SRC.replace(after, &format!("{after}{probe}"));
    assert_ne!(probed, TRAIN_SRC, "probe marker {after:?} must match");
    probed
}

/// The probe placements of the table, by what they make replay do.
fn probes() -> Vec<(&'static str, String)> {
    vec![
        // Forces the skipblocks to re-execute: real training iterations
        // on the VM.
        (
            "inner",
            probed_after(
                "        optimizer.step()\n",
                "        log(\"gnorm\", net.grad_norm())\n",
            ),
        ),
        // Skipblocks restore and only the probe line executes — the
        // restore→slots boundary.
        (
            "outer",
            probed_after(
                "    log(\"loss\", avg.mean())\n",
                "    log(\"wnorm\", net.weight_norm())\n",
            ),
        ),
        // Reads state the preamble built, before any iteration ran: every
        // worker runs the preamble, the merger must keep exactly one copy.
        (
            "preamble",
            probed_after(
                "optimizer = sgd(net, lr=0.1)\n",
                "log(\"init_wnorm\", net.weight_norm())\n",
            ),
        ),
        // Reads the final state after the loop: only the final range's
        // owner may answer.
        (
            "postamble",
            probed_after(
                "log(\"final\", net.weight_norm())\n",
                "log(\"final_gnorm\", net.grad_norm())\n",
            ),
        ),
    ]
}

fn opts(workers: usize, init_mode: InitMode) -> ReplayOptions {
    ReplayOptions {
        init_mode,
        ..ReplayOptions::with_workers(workers)
    }
}

#[test]
fn production_replay_equals_the_reference_for_every_probe_placement() {
    let root = store_dir("table");
    let mut ropts = RecordOptions::new(&root);
    ropts.adaptive = false;
    record(TRAIN_SRC, &ropts).unwrap();

    for (name, probed) in probes() {
        let reference = replay_reference(&probed, &root).unwrap();
        assert!(
            reference.anomalies.is_empty(),
            "{name}: {:?}",
            reference.anomalies
        );
        assert_eq!(reference.probes.len(), 1, "{name}");
        assert!(
            reference.log.len() > 9,
            "{name}: the probe must have produced output"
        );
        for workers in [1usize, 2, 3] {
            for init_mode in [InitMode::Strong, InitMode::Weak] {
                let rep = replay(&probed, &root, &opts(workers, init_mode)).unwrap();
                let at = format!("{name} workers={workers} {init_mode:?}");
                assert!(rep.anomalies.is_empty(), "{at}: {:?}", rep.anomalies);
                assert_eq!(rep.log, reference.log, "{at} diverged from the reference");
                // Restore/execute counters are worker-dependent (a stolen
                // range re-initializes through restores, and which worker
                // steals what is a race), so they are pinned only where no
                // steal can happen.
                if workers == 1 {
                    assert_eq!(rep.stats.restored, reference.stats.restored, "{at}");
                    assert_eq!(rep.stats.executed, reference.stats.executed, "{at}");
                }
            }
        }
    }
}

#[test]
fn poisoned_reuse_full_reexecution_equals_the_reference() {
    // A non-hindsight edit forces full re-execution: every iteration runs
    // end-to-end on the VM, including ones entered via stolen ranges, and
    // weak init is demoted to strong.
    let root = store_dir("poison");
    let mut ropts = RecordOptions::new(&root);
    ropts.adaptive = false;
    record(TRAIN_SRC, &ropts).unwrap();
    let edited = TRAIN_SRC.replace("lr=0.1", "lr=0.05");

    let reference = replay_reference(&edited, &root).unwrap();
    assert_eq!(reference.stats.restored, 0);
    let single = replay(&edited, &root, &opts(1, InitMode::Strong)).unwrap();
    assert_eq!(single.log, reference.log);
    assert_eq!(single.stats.executed, reference.stats.executed);
    // Steal timing is nondeterministic, so run the comparison several
    // times: a single run caught the backward-steal-under-poisoning bug
    // only ~1 round in 5.
    for init_mode in [InitMode::Strong, InitMode::Weak] {
        for workers in [2usize, 3] {
            for round in 0..5 {
                let rep = replay(&edited, &root, &opts(workers, init_mode)).unwrap();
                let at = format!("round {round} workers={workers} {init_mode:?}");
                assert_eq!(rep.log, reference.log, "{at} diverged");
                assert_eq!(rep.stats.restored, 0, "{at}");
                // The poisoning is surfaced first; the changed learning
                // rate then legitimately diverges from the recorded losses.
                assert!(rep.anomalies[0].contains("source changed"), "{at}");
                assert_eq!(rep.anomalies, reference.anomalies, "{at}");
            }
        }
    }
}
