//! End-to-end tests of dependency-aware incremental replay: production
//! replays (dead statements elided from the compiled module) must emit
//! logs byte-identical to the unsliced reference, across probe
//! placements, worker counts, and steal orders — and must refuse to slice,
//! and say why, when safety is unprovable.

use flor_core::record::{record, RecordOptions};
use flor_core::replay::{replay, replay_reference, ReplayOptions, ReplayReport};
use proptest::prelude::*;
use std::path::PathBuf;

fn store_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "flor-slice-e2e-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn record_src(src: &str, tag: &str) -> PathBuf {
    let root = store_dir(tag);
    let mut ropts = RecordOptions::new(&root);
    ropts.adaptive = false;
    record(src, &ropts).unwrap();
    root
}

/// Replays `probed` at 1, 2 and 3 workers and asserts each log is
/// byte-identical to the sequential unsliced tree-walk reference. Returns
/// one production report for counter assertions.
fn assert_sliced_matches_oracle(probed: &str, root: &PathBuf) -> ReplayReport {
    let oracle = replay_reference(probed, root).unwrap();
    assert!(oracle.anomalies.is_empty(), "{:?}", oracle.anomalies);
    let mut sample = None;
    for workers in [1, 2, 3] {
        let sliced = replay(probed, root, &ReplayOptions::with_workers(workers)).unwrap();
        assert!(
            sliced.anomalies.is_empty(),
            "workers={workers}: {:?}",
            sliced.anomalies
        );
        assert_eq!(
            sliced.log, oracle.log,
            "sliced replay (workers={workers}) diverged from the unsliced oracle"
        );
        sample = Some(sliced);
    }
    sample.unwrap()
}

/// Dead strands feed names nothing reads; the probe keeps the `acc`
/// chain (and the skew-carrying `busy`) live.
const SPARSE_DEP_SRC: &str = "\
import flor
base = 3
acc = 0
for epoch in flor.partition(range(6)):
    acc = acc + base
    for i in range(4):
        acc = acc + i
        dead_a = busy(1)
        dead_b = epoch * 7
        dead_c = dead_b + i
    log(\"loss\", acc)
";

#[test]
fn sliced_replay_elides_dead_statements_and_matches_unsliced_oracle() {
    let root = record_src(SPARSE_DEP_SRC, "sparse");
    let probed = SPARSE_DEP_SRC.replace(
        "    log(\"loss\", acc)\n",
        "    log(\"loss\", acc)\n    log(\"probe_acc\", acc + 1)\n",
    );
    assert_ne!(probed, SPARSE_DEP_SRC);
    let sliced = assert_sliced_matches_oracle(&probed, &root);
    assert!(
        sliced.stats.statements_elided > 0,
        "the dead strands must be elided: {:?}",
        sliced.stats
    );
    assert!(
        sliced.stats.slice_permille > 0 && sliced.stats.slice_permille < 1000,
        "an applied slice reports a proper live fraction: {:?}",
        sliced.stats
    );
    assert!(sliced.stats.slice_fraction() < 1.0);
    assert_eq!(sliced.slice_refusal, None);
    // The reference never slices, and says so with the same sentinels.
    let full = replay_reference(&probed, &root).unwrap();
    assert_eq!(full.stats.statements_elided, 0);
    assert_eq!(full.stats.slice_permille, 0, "0 is the unsliced sentinel");
    assert_eq!(full.stats.slice_fraction(), 1.0);
}

#[test]
fn loop_carried_dependency_survives_slicing() {
    // `boost` reaches the probe only through the *next* iteration: the
    // block updates it, the outer body folds it into `carry`, and the
    // probe reads `total = total + carry`. A slicer without the
    // loop-carried fixpoint would see no same-iteration reader of
    // `boost = boost + 1`, elide it, and the probe would diverge from
    // the second iteration on. `junk` stays provably dead.
    let src = "\
import flor
carry = 1
total = 0
boost = 0
for epoch in flor.partition(range(5)):
    carry = carry + boost
    for i in range(3):
        total = total + carry
        boost = boost + 1
        junk = busy(1)
    log(\"loss\", total)
";
    let root = record_src(src, "loop-carried");
    let probed = src.replace(
        "        total = total + carry\n",
        "        total = total + carry\n        log(\"probe_total\", total)\n",
    );
    assert_ne!(probed, src);
    let sliced = assert_sliced_matches_oracle(&probed, &root);
    assert!(sliced.stats.statements_elided > 0, "{:?}", sliced.stats);
    // The probe stream itself must carry the evolving loop-carried value.
    let probe_vals: Vec<&str> = sliced
        .log
        .iter()
        .filter(|e| e.key == "probe_total")
        .map(|e| e.value.as_str())
        .collect();
    assert_eq!(probe_vals.len(), 15);
    assert!(
        probe_vals.windows(2).all(|w| w[0] != w[1]),
        "loop-carried chain cut — probe repeats a constant: {probe_vals:?}"
    );
}

#[test]
fn skipblock_boundary_dependency_survives_slicing() {
    // `t` is produced inside the first skipblock and consumed by a probe
    // after the second: the dependency crosses skipblock boundaries
    // within one iteration, so eliding either producer block would
    // corrupt the probe.
    let src = "\
import flor
for epoch in flor.partition(range(5)):
    t = 0
    for i in range(3):
        t = t + epoch + i
    u = 0
    for j in range(2):
        u = u + t
        waste = busy(1)
    log(\"loss\", u)
";
    let root = record_src(src, "boundary");
    let probed = src.replace(
        "    log(\"loss\", u)\n",
        "    log(\"loss\", u)\n    log(\"probe_t\", t * 2)\n",
    );
    assert_ne!(probed, src);
    let sliced = assert_sliced_matches_oracle(&probed, &root);
    assert!(sliced.stats.statements_elided > 0, "{:?}", sliced.stats);
}

#[test]
fn untrackable_alias_forces_full_execution_fallback() {
    // `[base, 2][0]` subscripts a computed receiver — the slicer cannot
    // prove what it aliases, so it must refuse to elide anything, and
    // the replay must still be byte-identical to the oracle.
    let src = "\
import flor
base = 2
acc = 0
for epoch in flor.partition(range(4)):
    shadow = [base, 2][0]
    for i in range(3):
        acc = acc + shadow
        dead = epoch * 5
    log(\"loss\", acc)
";
    let root = record_src(src, "alias-fallback");
    let probed = src.replace(
        "    log(\"loss\", acc)\n",
        "    log(\"loss\", acc)\n    log(\"probe_acc\", acc)\n",
    );
    assert_ne!(probed, src);
    let sliced = assert_sliced_matches_oracle(&probed, &root);
    assert_eq!(
        sliced.stats.statements_elided, 0,
        "unprovable aliasing must disable elision entirely"
    );
    assert_eq!(sliced.stats.slice_permille, 0);
    let reason = sliced.slice_refusal.expect("a refusal says why");
    assert!(reason.contains("untrackable alias"), "{reason}");
}

#[test]
fn missing_checkpoint_disables_checkpoint_cuts() {
    // With a dense profile, the slicer's checkpoint cut would elide
    // `acc = 0` (the skipblock's checkpoint supersedes it on the restore
    // path). But the cut's precondition must be verified against the
    // *live* store: once iteration 2's checkpoint entry is gone, the
    // engine re-executes that block, and re-execution without the reset
    // accumulates across epochs. The plan must refuse the cut.
    let src = "\
import flor
acc = 0
for epoch in flor.partition(range(5)):
    acc = 0
    for i in range(3):
        acc = acc + epoch + i
    log(\"loss\", acc)
";
    let root = store_dir("missing-ckpt");
    let mut ropts = RecordOptions::new(&root);
    ropts.adaptive = false;
    let rec = record(src, &ropts).unwrap();
    let manifest = root.join("MANIFEST");
    let text = std::fs::read_to_string(&manifest).unwrap();
    let kept: Vec<&str> = text
        .lines()
        .filter(|l| !l.starts_with("sb_0\t2\t"))
        .collect();
    assert_ne!(kept.len(), text.lines().count(), "one entry must drop");
    std::fs::write(&manifest, kept.join("\n") + "\n").unwrap();

    let rep = replay(src, &root, &ReplayOptions::default()).unwrap();
    assert!(rep.anomalies.is_empty(), "{:?}", rep.anomalies);
    assert_eq!(
        rep.log, rec.log,
        "gap re-execution must see the un-elided reset"
    );
    assert_eq!(rep.stats.executed, 1, "the gap re-executes");
    assert_eq!(rep.log, replay_reference(src, &root).unwrap().log);
}

#[test]
fn real_training_probe_slices_and_matches_oracle() {
    // The ML-shaped fixture: constructors, method-call side effects, and
    // a dead busy strand. Constructors are seed-pinned (eliding one would
    // shift later constructor seeds), so only the strand may go.
    let src = "\
import flor
data = synth_data(n=40, dim=6, classes=2, seed=9)
loader = dataloader(data, batch_size=10, seed=9)
net = mlp(input=6, hidden=6, classes=2, depth=1, seed=9)
optimizer = sgd(net, lr=0.1)
criterion = cross_entropy()
avg = meter()
for epoch in flor.partition(range(4)):
    avg.reset()
    for batch in loader.epoch():
        scratch = busy(1)
        optimizer.zero_grad()
        preds = net.forward(batch)
        loss = criterion.forward(preds, batch)
        grad = criterion.backward()
        net.backward(grad)
        optimizer.step()
        avg.update(loss)
    log(\"loss\", avg.mean())
";
    let root = record_src(src, "training");
    let probed = src.replace(
        "    log(\"loss\", avg.mean())\n",
        "    log(\"loss\", avg.mean())\n    log(\"probe_wnorm\", net.weight_norm())\n",
    );
    assert_ne!(probed, src);
    let sliced = assert_sliced_matches_oracle(&probed, &root);
    assert!(
        sliced.stats.statements_elided > 0,
        "the scratch busy strand must be elided: {:?}",
        sliced.stats
    );
}

// ---------------------------------------------------------------------------
// Property: sliced replay ≡ full replay over arbitrary programs
// ---------------------------------------------------------------------------

/// Builds a random-but-recordable training loop: a live accumulator
/// chain feeding the recorded log, plus `dead` strands nothing reads,
/// with the probe either in the outer body or inside the skipblock.
fn gen_src(epochs: u64, inner: u64, dead: u8, seed: i64) -> String {
    let mut body = String::new();
    body.push_str(&format!("        acc = acc + i + {}\n", seed % 5));
    for d in 0..dead {
        body.push_str(&format!("        dead_{d} = epoch * {}\n", d + 2));
    }
    format!(
        "\
import flor
base = {seed}
acc = 0
for epoch in flor.partition(range({epochs})):
    acc = acc + base
    for i in range({inner}):
{body}    log(\"loss\", acc)
"
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// For arbitrary recordable programs, probe placements, worker
    /// counts, and steal orders, production replay emits a log
    /// byte-identical to the sequential unsliced oracle.
    #[test]
    fn sliced_replay_is_byte_identical_to_full_replay(
        epochs in 3u64..7,
        inner in 2u64..5,
        dead in 0u8..4,
        seed in 0i64..1000,
        inner_probe in any::<bool>(),
        case in 0u32..1000,
    ) {
        let src = gen_src(epochs, inner, dead, seed);
        let probed = if inner_probe {
            src.replace(
                "        acc = acc + i + ",
                "        log(\"probe_acc\", acc)\n        acc = acc + i + ",
            )
        } else {
            src.replace(
                "    log(\"loss\", acc)\n",
                "    log(\"loss\", acc)\n    log(\"probe_sum\", acc + base)\n",
            )
        };
        prop_assert_ne!(&probed, &src);
        let root = record_src(&src, &format!("prop-{case}-{epochs}-{inner}-{dead}"));

        let oracle = replay_reference(&probed, &root).unwrap();
        prop_assert!(oracle.anomalies.is_empty(), "{:?}", oracle.anomalies);
        for workers in [1, 2, 3] {
            let sliced = replay(&probed, &root, &ReplayOptions::with_workers(workers)).unwrap();
            prop_assert!(sliced.anomalies.is_empty(), "{:?}", sliced.anomalies);
            prop_assert_eq!(
                &sliced.log, &oracle.log,
                "workers={} diverged\n{}", workers, probed
            );
        }
        let _ = std::fs::remove_dir_all(&root);
    }
}
