//! Ablations for the design choices DESIGN.md calls out — each knocks out
//! one of Flor's mechanisms and measures what it was buying.

use crate::scripts;
use crate::util::{fresh_dir, render_table};
use flor_core::record::{record, RecordOptions};
use flor_core::replay::{replay, ReplayOptions};

/// Ablation 1 — **lean checkpointing** (§5.2). With the changeset analysis
/// disabled, SkipBlocks capture the whole environment: loop-scoped
/// tensors (batches, activations, gradients) inflate every checkpoint.
pub fn lean() -> String {
    let mut rows = Vec::new();
    for (name, src) in scripts::MINI_WORKLOADS {
        let mut lean_opts = RecordOptions::new(fresh_dir(&format!("abl-lean-{name}")));
        lean_opts.adaptive = false;
        let lean_rep = record(src, &lean_opts).expect("lean record");

        let full_root = fresh_dir(&format!("abl-full-{name}"));
        let mut full_opts = RecordOptions::new(&full_root);
        full_opts.adaptive = false;
        full_opts.lean = false;
        let full_rep = record(src, &full_opts).expect("full record");

        // Full-env checkpoints must still replay correctly (they are a
        // superset of the lean ones).
        let check = replay(src, &full_root, &ReplayOptions::default()).expect("replay");
        assert!(check.anomalies.is_empty(), "{name}: {:?}", check.anomalies);

        rows.push(vec![
            name.to_string(),
            format!("{} KiB", lean_rep.raw_bytes / 1024),
            format!("{} KiB", full_rep.raw_bytes / 1024),
            format!(
                "{:.2}x",
                full_rep.raw_bytes as f64 / lean_rep.raw_bytes.max(1) as f64
            ),
        ]);
    }
    let mut out = render_table(
        &["workload", "lean (changeset)", "full env", "inflation"],
        &rows,
    );
    out.push_str("lean checkpointing drops loop-scoped state (batches, activations, gradients)\n");
    out
}

/// Ablation 2 — **adaptive checkpointing** (§5.3), live. The fine-tuning
/// mini carries a frozen ballast; with Eq. 4 active it checkpoints
/// sparsely, without it every epoch pays the full materialization cost.
pub(crate) fn adaptive_live() -> String {
    let mut rows = Vec::new();
    for (name, src) in [
        ("cv_train", scripts::CV_TRAIN),
        ("finetune", scripts::FINETUNE),
    ] {
        let adaptive = record(
            src,
            &RecordOptions::new(fresh_dir(&format!("abl-ad-{name}"))),
        )
        .expect("adaptive record");
        let mut off_opts = RecordOptions::new(fresh_dir(&format!("abl-off-{name}")));
        off_opts.adaptive = false;
        let off = record(src, &off_opts).expect("non-adaptive record");
        rows.push(vec![
            name.to_string(),
            format!(
                "{} ckpts / {} KiB",
                adaptive.checkpoints,
                adaptive.raw_bytes / 1024
            ),
            format!("{} ckpts / {} KiB", off.checkpoints, off.raw_bytes / 1024),
        ]);
    }
    let mut out = render_table(
        &["workload", "adaptive (Eq. 4)", "always checkpoint"],
        &rows,
    );
    out.push_str("the fine-tune regime is where adaptivity pays (paper Figure 7)\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lean_ablation_shows_inflation() {
        let out = lean();
        // At least one workload's full-env checkpoints are meaningfully
        // larger than its lean ones.
        let inflations: Vec<f64> = out
            .lines()
            .filter_map(|l| l.split_whitespace().last())
            .filter_map(|w| w.strip_suffix('x'))
            .filter_map(|w| w.parse().ok())
            .collect();
        assert!(!inflations.is_empty(), "{out}");
        assert!(
            inflations.iter().any(|&x| x > 1.2),
            "full-env checkpoints should be larger: {inflations:?}\n{out}"
        );
        assert!(
            inflations.iter().all(|&x| x >= 0.95),
            "full env can never be smaller than lean: {inflations:?}"
        );
    }

    #[test]
    fn adaptive_live_ablation_renders() {
        let out = adaptive_live();
        assert!(out.contains("finetune"), "{out}");
    }
}
