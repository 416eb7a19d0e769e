//! Queries across runs and versions (paper §8, "Queries Across Projects
//! and Versions").
//!
//! "We believe hindsight logging could support querying the past of
//! multiple versions of a model […] This brings up challenges in
//! consistently injecting hindsight log statements into many programs, and
//! then performing replay as appropriate."
//!
//! A cross-version query probes each run's *own* recorded source, so the
//! one thing every run must give back is that source: [`recorded_source`]
//! reads it from the store and strips the instrumentation record added.
//! The registry serves it (`Registry::run_source`); the tests below replay
//! a fleet of versions through [`crate::replay::replay`] with it.

use crate::error::FlorError;
use flor_analysis::instrument::strip_instrumentation;
use flor_chkpt::CheckpointStore;
use flor_lang::{parse, print_program};
use std::path::Path;

/// Reads a run's original (de-instrumented) source back from its store.
pub fn recorded_source(store_root: &Path) -> Result<String, FlorError> {
    let store = CheckpointStore::open(store_root)?;
    let instrumented = String::from_utf8(store.get_artifact("source.flr")?)
        .map_err(|_| crate::error::rt("recorded source is not valid UTF-8"))?;
    let prog = parse(&instrumented)?;
    Ok(print_program(&strip_instrumentation(&prog)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logstream::LogEntry;
    use crate::record::{record, tests::opts_exact};
    use crate::replay::{replay, ReplayOptions, ReplayReport};
    use std::path::PathBuf;

    /// A hindsight probe injected consistently across program versions:
    /// adds a log statement after every occurrence of an anchor statement.
    ///
    /// Working on *source text of the de-instrumented recorded program*
    /// keeps the probe version-agnostic: each run's own code is probed,
    /// whatever its hyperparameters or structure.
    struct Probe {
        /// Statement line to anchor on (exact text, without indentation),
        /// e.g. `optimizer.step()`.
        after_stmt: String,
        /// Log statement to inject (without indentation),
        /// e.g. `log("g_norm", net.grad_norm())`.
        log_stmt: String,
    }

    impl Probe {
        /// Probe adding `log_stmt` after each `after_stmt`.
        fn new(after_stmt: impl Into<String>, log_stmt: impl Into<String>) -> Self {
            Probe {
                after_stmt: after_stmt.into(),
                log_stmt: log_stmt.into(),
            }
        }

        /// Applies the probe to a source text. Returns `None` if the anchor
        /// statement does not occur (that version cannot answer the query).
        fn apply(&self, src: &str) -> Option<String> {
            let mut out = String::with_capacity(src.len() + 64);
            let mut hits = 0;
            for line in src.lines() {
                out.push_str(line);
                out.push('\n');
                if line.trim_end().ends_with(self.after_stmt.as_str())
                    && line.trim_start() == self.after_stmt
                {
                    let indent = &line[..line.len() - line.trim_start().len()];
                    out.push_str(indent);
                    out.push_str(&self.log_stmt);
                    out.push('\n');
                    hits += 1;
                }
            }
            (hits > 0).then_some(out)
        }
    }

    /// Injects `probe` into every run's own recorded source and replays
    /// each store; `None` for a version that lacks the probe's anchor.
    fn replay_runs(stores: &[PathBuf], probe: &Probe) -> Vec<Option<ReplayReport>> {
        stores
            .iter()
            .map(|store| {
                let src = recorded_source(store).unwrap();
                probe
                    .apply(&src)
                    .map(|probed| replay(&probed, store, &ReplayOptions::default()).unwrap())
            })
            .collect()
    }

    fn tmproot(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "flor-versions-test-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Versions of a training script, differing in hyperparameters (like
    /// colleagues' diverging experiment branches). With lr·wd > 2 the decay
    /// update factor goes below -1 and the weights oscillate divergently —
    /// the §2.1 over-regularization failure.
    fn version_src(lr: f64, wd: f64, epochs: u64) -> String {
        format!(
            "\
import flor
data = synth_data(n=48, dim=8, classes=3, spread=0.25, seed=13)
loader = dataloader(data, batch_size=16, seed=13)
net = mlp(input=8, hidden=12, classes=3, depth=1, seed=13)
optimizer = sgd(net, lr={lr}, weight_decay={wd})
criterion = cross_entropy()
avg = meter()
for epoch in range({epochs}):
    avg.reset()
    for batch in loader.epoch():
        w = busy(1)
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

    #[test]
    fn probe_applies_at_every_anchor() {
        let probe = Probe::new("optimizer.step()", "log(\"g\", net.grad_norm())");
        let probed = probe
            .apply(&version_src(0.1, 0.0, 4))
            .expect("anchor present");
        assert_eq!(probed.matches("log(\"g\"").count(), 1);
        // Indentation matches the anchor line.
        assert!(probed.contains("        optimizer.step()\n        log(\"g\""));
    }

    #[test]
    fn probe_missing_anchor_returns_none() {
        let probe = Probe::new("nonexistent.call()", "log(\"x\", 1)");
        assert!(probe.apply(&version_src(0.1, 0.0, 4)).is_none());
    }

    #[test]
    fn recorded_source_roundtrips_without_instrumentation() {
        let root = tmproot("srcback");
        let src = version_src(0.1, 0.0, 4);
        record(&src, &opts_exact(&root)).unwrap();
        let back = recorded_source(&root).unwrap();
        assert!(!back.contains("skipblock"));
        assert!(!back.contains("flor.partition"));
        assert_eq!(back, src);
    }

    #[test]
    fn cross_run_query_finds_the_unstable_version() {
        // Record three "versions": two sane, one over-regularized with
        // lr·wd > 2 (the §2.1 instability: weights oscillate divergently).
        let specs = [(0.05, 0.0, 4u64), (3.0, 0.8, 4), (0.1, 0.01, 6)];
        let mut stores = Vec::new();
        for (i, (lr, wd, epochs)) in specs.iter().enumerate() {
            let root = tmproot(&format!("fleet-{i}"));
            record(&version_src(*lr, *wd, *epochs), &opts_exact(&root)).unwrap();
            stores.push(root);
        }
        // Hindsight query: which runs show exploding *weight* magnitudes?
        let probe = Probe::new("optimizer.step()", "log(\"xw\", net.weight_norm())");
        let explodes = |log: &[LogEntry]| {
            log.iter()
                .filter(|e| e.key == "xw")
                .filter_map(|e| e.value.parse::<f64>().ok())
                .any(|g| g > 100.0)
        };
        let hits: Vec<PathBuf> = stores
            .iter()
            .zip(replay_runs(&stores, &probe))
            .filter(|(_, rep)| rep.as_ref().is_some_and(|r| explodes(&r.log)))
            .map(|(store, _)| store.clone())
            .collect();
        assert_eq!(
            hits,
            vec![stores[1].clone()],
            "only the over-regularized run explodes"
        );
    }

    #[test]
    fn versions_lacking_the_anchor_are_skipped_not_failed() {
        let root_a = tmproot("mixed-a");
        record(&version_src(0.1, 0.0, 3), &opts_exact(&root_a)).unwrap();
        // A version that never calls optimizer.step() (evaluation-only).
        let root_b = tmproot("mixed-b");
        let eval_only = "\
import flor
data = synth_data(n=24, dim=8, classes=3, seed=13)
net = mlp(input=8, hidden=12, classes=3, depth=1, seed=13)
acc = evaluate(net, data)
log(\"accuracy\", acc)
";
        record(eval_only, &opts_exact(&root_b)).unwrap();

        let probe = Probe::new("optimizer.step()", "log(\"g\", net.grad_norm())");
        let answers = replay_runs(&[root_a, root_b], &probe);
        assert!(answers[0].is_some());
        assert!(answers[1].is_none(), "anchor absent → skipped");
    }
}
