//! The differential table: production replay (sliced, range-scheduled,
//! on the bytecode VM — including stolen-range boundaries, where workers
//! re-enter the VM at iteration granularity with checkpoint-restored
//! slots — and with the postamble memoized wherever the plan allows), and
//! sampled replay on the same executor, against `replay_reference`, the
//! one-worker tree-walk of the unsliced program, and against a
//! from-scratch run of the probed script.

use flor_core::record::{record, run_vanilla, RecordOptions};
use flor_core::replay::{replay, replay_reference, Postamble, ReplayOptions};
use flor_core::sample::replay_sample;
use flor_core::{InitMode, LogEntry, Section};
use std::collections::BTreeSet;
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

/// Records `src` with every iteration checkpointed.
fn record_exact(src: &str, tag: &str) -> PathBuf {
    let root = store_dir(tag);
    let mut ropts = RecordOptions::new(&root);
    ropts.adaptive = false;
    record(src, &ropts).unwrap();
    root
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

/// `TRAIN_SRC` with a second `flor.partition` loop in its postamble. The
/// bare `busy(0)` call keeps instrumentation from wrapping the loop in a
/// SkipBlock (rule 5), so every replay runs it.
fn second_loop_src() -> String {
    format!(
        "{TRAIN_SRC}total = 0\nfor k in flor.partition(range(3)):\n    busy(0)\n    total = total + k\nlog(\"total\", total)\n"
    )
}

/// One row of the table: a recorded script, the script replayed against
/// it, and what the plan must decide about the postamble — `None` for
/// memoized, else a fragment of the reason it runs.
struct Case {
    name: &'static str,
    recorded: String,
    probed: String,
    executes_postamble: Option<&'static str>,
}

/// The table's rows, by what they make replay do.
fn cases() -> Vec<Case> {
    let case = |name, probed, executes_postamble| Case {
        name,
        recorded: TRAIN_SRC.to_string(),
        probed,
        executes_postamble,
    };
    let second = second_loop_src();
    vec![
        // Forces the skipblocks to re-execute: real training iterations
        // on the VM.
        case(
            "inner",
            probed_after(
                "        optimizer.step()\n",
                "        log(\"gnorm\", net.grad_norm())\n",
            ),
            None,
        ),
        // Skipblocks restore and only the probe line executes — the
        // restore→slots boundary.
        case(
            "outer",
            probed_after(
                "    log(\"loss\", avg.mean())\n",
                "    log(\"wnorm\", net.weight_norm())\n",
            ),
            None,
        ),
        // Reads state the preamble built, before any iteration ran: every
        // worker runs the preamble, the merger must keep exactly one copy.
        case(
            "preamble",
            probed_after(
                "optimizer = sgd(net, lr=0.1)\n",
                "log(\"init_wnorm\", net.weight_norm())\n",
            ),
            None,
        ),
        // Reads the final state after the loop: only the final range's
        // owner may answer. (Not `net.grad_norm()`: checkpoints hold
        // weights, not gradients, so a restored run reads 0 where a
        // from-scratch one reads the last batch's.)
        case(
            "postamble",
            probed_after(
                "log(\"final\", net.weight_norm())\n",
                "log(\"final_loss\", avg.mean())\n",
            ),
            Some("a probe lands in the postamble"),
        ),
        // Every block re-executes under the new learning rate.
        case(
            "impure",
            TRAIN_SRC.replace("lr=0.1", "lr=0.05"),
            Some("beyond hindsight logging"),
        ),
        // A forward pass in a probe rewrites the model's activations.
        case(
            "mutating",
            probed_after(
                "        optimizer.step()\n",
                "        log(\"m\", net.accuracy(batch))\n",
            ),
            Some("`net.accuracy(batch)`"),
        ),
        Case {
            name: "second-loop",
            probed: second.replace(
                "    log(\"loss\", avg.mean())\n",
                "    log(\"loss\", avg.mean())\n    log(\"wnorm\", net.weight_norm())\n",
            ),
            recorded: second,
            executes_postamble: Some("a second flor.partition loop"),
        },
    ]
}

/// Records every distinct script of `cases` once, returning each case
/// beside its store.
fn record_cases(tag: &str, cases: Vec<Case>) -> Vec<(Case, PathBuf)> {
    let mut stores: Vec<(String, PathBuf)> = Vec::new();
    cases
        .into_iter()
        .map(|case| {
            let root = match stores.iter().find(|(src, _)| *src == case.recorded) {
                Some((_, root)) => root.clone(),
                None => {
                    let root = record_exact(&case.recorded, &format!("{tag}-{}", stores.len()));
                    stores.push((case.recorded.clone(), root.clone()));
                    root
                }
            };
            (case, root)
        })
        .collect()
}

/// Asserts the plan's postamble decision is the one `case` names.
fn assert_postamble(case: &Case, got: &Postamble, at: &str) {
    match (case.executes_postamble, got) {
        (None, Postamble::Memoized) => {}
        (Some(want), Postamble::Executed(why)) if why.contains(want) => {}
        (want, got) => panic!("{at}: postamble {got:?}, want {want:?}"),
    }
}

fn opts(workers: usize, init_mode: InitMode) -> ReplayOptions {
    ReplayOptions {
        init_mode,
        ..ReplayOptions::with_workers(workers)
    }
}

#[test]
fn production_replay_equals_the_reference_for_every_probe_placement() {
    for (case, root) in record_cases("table", cases()) {
        let (name, probed) = (case.name, &case.probed);
        let reference = replay_reference(probed, &root).unwrap();
        let (_, vanilla) = run_vanilla(probed).unwrap();
        assert_eq!(reference.log, vanilla, "{name}: reference vs from-scratch");
        assert!(
            matches!(reference.postamble, Postamble::Executed(_)),
            "{name}: the reference runs the postamble"
        );
        if name == "impure" {
            // The poisoning is surfaced first; the changed learning rate
            // then legitimately diverges from the recorded losses.
            assert!(reference.anomalies[0].contains("source changed"));
        } else {
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
        }
        for workers in [1usize, 2, 3] {
            for init_mode in [InitMode::Strong, InitMode::Weak] {
                let rep = replay(probed, &root, &opts(workers, init_mode)).unwrap();
                let at = format!("{name} workers={workers} {init_mode:?}");
                assert_postamble(&case, &rep.postamble, &at);
                assert_eq!(rep.anomalies, reference.anomalies, "{at}");
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
    let root = record_exact(TRAIN_SRC, "poison");
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

/// The loop-carried fixture of `tests/slice_replay.rs`, probed after the
/// loss: `carry` is rolled forward by the outer body, outside every
/// skipblock changeset, so no checkpoint restore rebuilds it.
const CARRY_SRC: &str = "\
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

fn carry_probed() -> String {
    let marker = "    log(\"loss\", total)\n";
    let probed = CARRY_SRC.replace(
        marker,
        &format!("{marker}    log(\"probe_carry\", carry)\n"),
    );
    assert_ne!(probed, CARRY_SRC);
    probed
}

/// The entries of `log` whose section `keep` accepts.
fn sections(log: &[LogEntry], keep: impl Fn(Section) -> bool) -> Vec<LogEntry> {
    log.iter().filter(|e| keep(e.section)).cloned().collect()
}

#[test]
fn weak_init_over_outer_carried_state_equals_the_reference() {
    // A weak-init worker jumping to an anchor skips the outer body that
    // rolls `carry` forward; the plan must demote weak init to strong.
    let root = record_exact(CARRY_SRC, "carry-weak");
    let probed = carry_probed();
    let reference = replay_reference(&probed, &root).unwrap();
    let (_, vanilla) = run_vanilla(&probed).unwrap();
    let carry = |log: &[LogEntry]| -> Vec<String> {
        log.iter()
            .filter(|e| e.key == "probe_carry")
            .map(|e| e.value.clone())
            .collect()
    };
    assert_eq!(carry(&reference.log), ["1", "4", "10", "19", "31"]);
    assert_eq!(carry(&vanilla), carry(&reference.log));
    for workers in [1usize, 2, 3] {
        let rep = replay(&probed, &root, &opts(workers, InitMode::Weak)).unwrap();
        let at = format!("workers={workers}");
        assert!(rep.anomalies.is_empty(), "{at}: {:?}", rep.anomalies);
        assert_eq!(rep.log, reference.log, "{at} diverged from the reference");
    }
}

#[test]
fn sampled_replay_equals_the_reference_for_every_probe_and_selection() {
    // Sampling runs on the range executor: each selection must print, for
    // the iterations it picks, exactly what the reference prints, and be
    // checked like any replay.
    let mut table = cases();
    table.push(Case {
        name: "outer-carried",
        recorded: CARRY_SRC.to_string(),
        probed: carry_probed(),
        executes_postamble: None,
    });
    for (case, root) in record_cases("sample", table) {
        let (name, probed, root) = (case.name, &case.probed, &root);
        let reference = replay_reference(probed, root).unwrap();
        // Every iteration logs its loss, so the last one names the length.
        let n = reference
            .log
            .iter()
            .filter_map(|e| match e.section {
                Section::Iter(g) => Some(g + 1),
                _ => None,
            })
            .max()
            .unwrap();
        for selection in [
            vec![0],
            vec![n / 2],
            vec![n - 1],
            vec![1, 3, 3, 5],
            vec![2, 999],
        ] {
            let at = format!("{name} {selection:?}");
            let sampled = replay_sample(probed, root, &selection).unwrap();
            assert_postamble(&case, &sampled.postamble, &at);
            let picked: BTreeSet<u64> = selection.iter().copied().filter(|&g| g < n).collect();
            let in_sample = |s: Section| matches!(s, Section::Iter(g) if picked.contains(&g));
            let any_iter = |s: Section| matches!(s, Section::Iter(_));
            assert_eq!(
                sections(&sampled.log, any_iter),
                sections(&reference.log, in_sample),
                "{at}: sampled iterations diverged from the reference"
            );
            let pre = |s: Section| s == Section::Pre;
            assert_eq!(
                sections(&sampled.log, pre),
                sections(&reference.log, pre),
                "{at}"
            );
            // Only the final iteration's owner runs the postamble.
            let post = |s: Section| s == Section::Post;
            let want_post = if picked.contains(&(n - 1)) {
                sections(&reference.log, post)
            } else {
                Vec::new()
            };
            assert_eq!(sections(&sampled.log, post), want_post, "{at}");
            if name == "impure" {
                assert!(
                    sampled.anomalies[0].contains("source changed"),
                    "{at}: the poisoning must be surfaced: {:?}",
                    sampled.anomalies
                );
                assert_eq!(sampled.stats.restored, 0, "{at}");
            } else {
                assert!(
                    sampled.anomalies.is_empty(),
                    "{at}: {:?}",
                    sampled.anomalies
                );
            }
        }
    }
}

#[test]
fn sampled_impure_diff_equals_a_from_scratch_run() {
    // An impure diff turns every restore into a re-execution, so a sample
    // may not jump to an anchor: it must roll forward from iteration 0.
    let root = record_exact(TRAIN_SRC, "sample-impure");
    let edited = TRAIN_SRC.replace("lr=0.1", "lr=0.05");
    let (_, vanilla) = run_vanilla(&edited).unwrap();
    let sampled = replay_sample(&edited, &root, &[2, 5]).unwrap();
    for g in [2, 5] {
        let iter = |s: Section| s == Section::Iter(g);
        assert_eq!(
            sections(&sampled.log, iter),
            sections(&vanilla, iter),
            "iteration {g}"
        );
    }
    assert!(
        sampled.anomalies[0].contains("source changed"),
        "{:?}",
        sampled.anomalies
    );
}
