//! Sampling replay and replay-time search (paper §8, "Partial Replay:
//! Search and Approximation").
//!
//! "In many cases the user may be interested in only partial information
//! […] As a proof of concept, we implemented iteration sampling in Flor
//! replay. Sampling replay relies on the same initialization mechanism as
//! parallel replay, which provides random-access to any iteration of the
//! main loop. Random access to loop iterations enables Flor to schedule the
//! order of traversal (e.g. for binary search)."
//!
//! Sampling is not a second executor: [`replay_sample`] runs the one range
//! executor ([`crate::replay`]) over a queue seeded with one range per
//! requested iteration, sliced, prefetched and checked like any replay.
//! It asks for weak initialization, so each sampled iteration starts from
//! the nearest checkpoint anchor or continues from the last one, whichever
//! is cheaper — and the plan demotes that to strong rolling
//! initialization where restores cannot rebuild the loop state.
//! [`binary_search`] exploits the random access: given a monotone predicate
//! over a single iteration's hindsight output (e.g. "has the loss
//! converged?"), it finds the first satisfying iteration in O(log n)
//! sampled replays instead of a full scan.

use crate::error::FlorError;
use crate::logstream::{LogEntry, Section};
use crate::parallel::InitMode;
use crate::replay::{run_plan, ReplayOptions, ReplayPlan, ReplayReport, ReplayRuntime};
use flor_chkpt::CheckpointStore;
use std::path::PathBuf;
use std::sync::Arc;

/// Replays only the given main-loop iterations (any order; duplicates are
/// collapsed, iterations past the loop ignored). The returned report's log
/// contains entries for exactly the sampled iterations (plus preamble, and
/// the postamble when the last iteration is sampled).
pub fn replay_sample(
    new_src: &str,
    store_root: impl Into<PathBuf>,
    iterations: &[u64],
) -> Result<ReplayReport, FlorError> {
    sampler(new_src, store_root.into())?(iterations)
}

/// Opens the store, builds the plan and compiles its module once, and
/// returns a function running one sampled replay per call over them.
fn sampler(
    new_src: &str,
    store_root: PathBuf,
) -> Result<impl Fn(&[u64]) -> Result<ReplayReport, FlorError>, FlorError> {
    let store = Arc::new(CheckpointStore::open(store_root)?);
    let plan = Arc::new(ReplayPlan::prepare(&store, new_src)?);
    let module = plan.compile(None)?;
    let opts = ReplayOptions {
        init_mode: InitMode::Weak,
        ..ReplayOptions::default()
    };
    Ok(move |iterations: &[u64]| {
        let mut runtime = ReplayRuntime::new(&plan, &opts);
        runtime.sample = Some(iterations.iter().copied().collect());
        let module = Some(module.clone());
        run_plan(plan.clone(), store.clone(), runtime, module, &mut |_| {})
    })
}

/// Extracts a sampled iteration's entries from a report.
pub fn iteration_entries(report: &ReplayReport, g: u64) -> Vec<&LogEntry> {
    report
        .log
        .iter()
        .filter(|e| e.section == Section::Iter(g))
        .collect()
}

/// Binary search over main-loop iterations: finds the **first** iteration
/// in `[0, n_iters)` whose hindsight output satisfies `pred`, assuming
/// `pred` is monotone (false … false, true … true) along the run — the
/// paper's convergence-detection example. Returns `None` if no iteration
/// satisfies it.
///
/// Each probe costs one single-iteration sampled replay, so the total cost
/// is O(log n) sampled replays instead of a full sequential scan; the
/// store, the plan and the compiled module are shared by all of them.
pub fn binary_search(
    new_src: &str,
    store_root: impl Into<PathBuf>,
    n_iters: u64,
    mut pred: impl FnMut(&[&LogEntry]) -> bool,
) -> Result<Option<u64>, FlorError> {
    let sample = sampler(new_src, store_root.into())?;
    let mut lo = 0u64;
    let mut hi = n_iters; // invariant: pred true at all known ≥ hi
    let mut found = None;
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        let report = sample(&[mid])?;
        let entries = iteration_entries(&report, mid);
        if pred(&entries) {
            found = Some(mid);
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    Ok(found)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{record, tests::opts_exact, tests::TRAIN_SRC};
    use crate::replay::{replay, ReplayOptions};

    fn tmproot(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "flor-sample-test-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn inner_probed() -> String {
        TRAIN_SRC.replace(
            "        optimizer.step()\n",
            "        optimizer.step()\n        log(\"probe_g\", net.grad_norm())\n",
        )
    }

    #[test]
    fn sampled_iterations_match_full_replay() {
        let root = tmproot("match");
        record(TRAIN_SRC, &opts_exact(&root)).unwrap();
        let probed = inner_probed();
        let full = replay(&probed, &root, &ReplayOptions::default()).unwrap();
        for g in [0u64, 2, 5] {
            let sampled = replay_sample(&probed, &root, &[g]).unwrap();
            let s_entries: Vec<&LogEntry> = iteration_entries(&sampled, g);
            let f_entries: Vec<&LogEntry> = full
                .log
                .iter()
                .filter(|e| e.section == Section::Iter(g))
                .collect();
            assert_eq!(s_entries, f_entries, "iteration {g}");
        }
    }

    #[test]
    fn sampled_replay_touches_only_requested_iterations() {
        let root = tmproot("touch");
        record(TRAIN_SRC, &opts_exact(&root)).unwrap();
        let probed = inner_probed();
        let sampled = replay_sample(&probed, &root, &[4]).unwrap();
        // Only iteration 4 has visible entries.
        let visible: std::collections::BTreeSet<u64> = sampled
            .log
            .iter()
            .filter_map(|e| match e.section {
                Section::Iter(g) => Some(g),
                _ => None,
            })
            .collect();
        assert_eq!(visible, [4u64].into_iter().collect());
        // One probed execution (iteration 4); with every epoch
        // checkpointed, the jump initialization restores exactly one
        // checkpoint (epoch 3's Loop End Checkpoint).
        assert_eq!(sampled.stats.executed, 1);
        assert_eq!(sampled.stats.restored, 1);
    }

    #[test]
    fn multiple_samples_in_one_pass() {
        let root = tmproot("multi");
        record(TRAIN_SRC, &opts_exact(&root)).unwrap();
        let probed = inner_probed();
        let sampled = replay_sample(&probed, &root, &[5, 1, 3, 3]).unwrap();
        let visible: std::collections::BTreeSet<u64> = sampled
            .log
            .iter()
            .filter_map(|e| match e.section {
                Section::Iter(g) => Some(g),
                _ => None,
            })
            .collect();
        assert_eq!(visible, [1u64, 3, 5].into_iter().collect());
        assert_eq!(sampled.stats.executed, 3, "three sampled executions");
    }

    #[test]
    fn binary_search_finds_convergence_epoch() {
        let root = tmproot("search");
        record(TRAIN_SRC, &opts_exact(&root)).unwrap();
        // Ground truth from a full replay: first epoch with loss < 0.5.
        let full = replay(TRAIN_SRC, &root, &ReplayOptions::default()).unwrap();
        let losses: Vec<(u64, f64)> = full
            .log
            .iter()
            .filter(|e| e.key == "loss")
            .map(|e| {
                let g = match e.section {
                    Section::Iter(g) => g,
                    _ => unreachable!(),
                };
                (g, e.value.parse().unwrap())
            })
            .collect();
        let expected = losses.iter().find(|(_, l)| *l < 0.5).map(|(g, _)| *g);
        assert!(expected.is_some(), "training should converge: {losses:?}");
        // Loss is monotone decreasing here, so the predicate is monotone.
        let found = binary_search(TRAIN_SRC, &root, 6, |entries| {
            entries
                .iter()
                .find(|e| e.key == "loss")
                .and_then(|e| e.value.parse::<f64>().ok())
                .map(|l| l < 0.5)
                .unwrap_or(false)
        })
        .unwrap();
        assert_eq!(found, expected);
    }

    #[test]
    fn binary_search_none_when_never_satisfied() {
        let root = tmproot("never");
        record(TRAIN_SRC, &opts_exact(&root)).unwrap();
        let found = binary_search(TRAIN_SRC, &root, 6, |_| false).unwrap();
        assert_eq!(found, None);
    }

    #[test]
    fn out_of_range_samples_ignored() {
        let root = tmproot("oob");
        record(TRAIN_SRC, &opts_exact(&root)).unwrap();
        let sampled = replay_sample(TRAIN_SRC, &root, &[2, 999]).unwrap();
        let visible: Vec<u64> = sampled
            .log
            .iter()
            .filter_map(|e| match e.section {
                Section::Iter(g) => Some(g),
                _ => None,
            })
            .collect();
        assert_eq!(visible, vec![2]);
    }
}
