//! Hindsight parallelism: one recorded run, replayed across worker pools.
//!
//! Run with: `cargo run -p flor-bench --example parallel_replay --release`
//!
//! Records a 12-epoch training job once, then asks an inner-loop hindsight
//! question (per-batch gradient norms) with 1, 2 and 4 replay workers.
//! Checkpoints break the cross-epoch dependencies, so workers re-execute
//! disjoint epoch ranges coordination-free (paper §5.4), stealing ranges
//! off stragglers, and the merged log is identical regardless of worker
//! count.

use flor_core::record::{record, RecordOptions};
use flor_core::replay::{replay, ReplayOptions};

const TRAIN: &str = "\
import flor
data = synth_data(n=96, dim=12, classes=4, spread=0.3, seed=11)
loader = dataloader(data, batch_size=24, seed=11)
net = mlp(input=12, hidden=24, classes=4, depth=2, seed=11)
optimizer = sgd(net, lr=0.1, momentum=0.9)
criterion = cross_entropy()
avg = meter()
for epoch in range(12):
    avg.reset()
    for batch in loader.epoch():
        waste = busy(4)
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

fn main() {
    let store = std::env::temp_dir().join(format!("flor-parallel-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store);

    let rec = record(TRAIN, &RecordOptions::new(&store)).expect("record");
    println!(
        "recorded 12 epochs in {:.2}s ({} checkpoints, {} KiB on disk)",
        rec.wall_ns as f64 / 1e9,
        rec.checkpoints,
        rec.stored_bytes / 1024
    );

    // The hindsight question lives inside the training loop, so replay must
    // re-execute it — in parallel.
    let probed = TRAIN.replace(
        "        optimizer.step()\n",
        "        optimizer.step()\n        log(\"g_norm\", net.grad_norm())\n",
    );

    let mut reference: Option<Vec<flor_core::LogEntry>> = None;
    for workers in [1usize, 2, 4] {
        let rep = replay(&probed, &store, &ReplayOptions::with_workers(workers)).expect("replay");
        println!(
            "\n{workers} worker(s): {:.2}s wall, {} range(s) executed, {} steal(s)",
            rep.wall_ns as f64 / 1e9,
            rep.stats.ranges_executed,
            rep.stats.steals
        );
        println!(
            "  blocks re-executed: {}, restored: {}, anomalies: {}",
            rep.stats.executed,
            rep.stats.restored,
            rep.anomalies.len()
        );
        assert!(rep.anomalies.is_empty());
        match &reference {
            None => reference = Some(rep.log),
            Some(reference) => {
                assert_eq!(
                    &rep.log, reference,
                    "merged log must be identical for any worker count"
                );
                println!("  merged log identical to sequential replay ✓");
            }
        }
    }

    let reference = reference.unwrap();
    let probes = reference.iter().filter(|e| e.key == "g_norm").count();
    println!(
        "\nhindsight log contains {probes} per-batch gradient norms (never logged at record time)"
    );
}
