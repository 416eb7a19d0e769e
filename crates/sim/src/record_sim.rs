//! Record-phase simulation at paper scale (Figures 7 & 11, Table 4 inputs).
//!
//! Drives the **real** [`flor_core::adaptive::AdaptiveController`] with
//! virtual per-epoch times from a [`Workload`]: every epoch contributes its
//! compute time `C`; the controller's Joint Invariant (Eq. 4) decides
//! whether to materialize, and materialized checkpoints contribute `M` to
//! record time (the paper's Eq. 1 accounting — see the crate docs for why
//! `M` is charged to the critical path).

use crate::workload::Workload;
use flor_core::adaptive::AdaptiveController;
use std::collections::BTreeSet;

/// Outcome of simulating one record run.
#[derive(Debug, Clone)]
pub struct RecordSim {
    /// The workload name.
    pub name: &'static str,
    /// Vanilla runtime, seconds.
    pub vanilla_secs: f64,
    /// Record runtime, seconds (compute + materialization).
    pub record_secs: f64,
    /// Record overhead fraction (Figure 7 / Figure 11 y-axis).
    pub overhead: f64,
    /// Epochs whose Loop End Checkpoint was materialized (`k_i` total and
    /// the anchor set replay's weak initialization partitions on).
    pub(crate) checkpointed_epochs: BTreeSet<u64>,
    /// Total compressed checkpoint bytes (Table 4's "Checkpoint Size").
    pub total_ckpt_gb: f64,
}

impl RecordSim {
    /// Number of checkpoints materialized.
    pub fn checkpoints(&self) -> u64 {
        self.checkpointed_epochs.len() as u64
    }
}

/// Simulates recording `workload` with tolerance `epsilon` (the paper uses
/// 1/15) and adaptivity on or off.
pub fn simulate_record(workload: &Workload, epsilon: f64, adaptive: bool) -> RecordSim {
    let mut span = flor_obs::span(flor_obs::Category::Sim, "simulate_record");
    span.set_args(workload.epochs, 0);
    let mut controller = AdaptiveController::new(epsilon);
    if !adaptive {
        controller = controller.with_adaptivity_disabled();
    }
    let c_ns = (workload.epoch_secs() * 1e9) as u64;
    let m_ns = (workload.materialize_secs() * 1e9) as u64;

    let mut checkpointed = BTreeSet::new();
    let mut record_secs = 0.0;
    for epoch in 0..workload.epochs {
        record_secs += workload.epoch_secs();
        // The controller tests Eq. 4 after the loop executes, before
        // materialization — exactly the live engine's call sequence.
        if controller.should_materialize(workload.name, c_ns, m_ns) {
            controller.observe_materialize(
                workload.name,
                m_ns,
                (workload.compressed_ckpt_gb * 1e9) as u64,
            );
            checkpointed.insert(epoch);
            record_secs += workload.materialize_secs();
        }
    }
    let vanilla_secs = workload.vanilla_hours * 3600.0;
    RecordSim {
        name: workload.name,
        vanilla_secs,
        record_secs,
        overhead: (record_secs - vanilla_secs) / vanilla_secs,
        total_ckpt_gb: checkpointed.len() as f64 * workload.compressed_ckpt_gb,
        checkpointed_epochs: checkpointed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{Workload, ALL_WORKLOADS};

    const EPSILON: f64 = 1.0 / 15.0;

    #[test]
    fn figure7_no_workload_exceeds_tolerance_with_adaptivity() {
        // "No workload exceeds the overhead limit with adaptive
        // checkpointing" — modulo the single bootstrap checkpoint.
        for w in ALL_WORKLOADS {
            let sim = simulate_record(w, EPSILON, true);
            let slack = w.materialize_secs() / sim.vanilla_secs;
            assert!(
                sim.overhead <= EPSILON + slack + 1e-9,
                "{}: overhead {:.3} exceeds ε",
                w.name,
                sim.overhead
            );
        }
    }

    #[test]
    fn figure7_disabled_adaptivity_extremes() {
        // "adaptivity-disabled overhead is 91% for RTE and 28% for CoLA".
        let rte = simulate_record(Workload::by_name("RTE").unwrap(), EPSILON, false);
        assert!(
            (rte.overhead - 0.91).abs() < 1e-6,
            "RTE {:.3}",
            rte.overhead
        );
        let cola = simulate_record(Workload::by_name("CoLA").unwrap(), EPSILON, false);
        assert!(
            (cola.overhead - 0.28).abs() < 1e-6,
            "CoLA {:.3}",
            cola.overhead
        );
    }

    #[test]
    fn training_workloads_checkpoint_every_epoch() {
        // "The loops in model training workloads are memoized every time"
        // (§5.3.4).
        for name in ["Cifr", "RsNt", "Wiki", "Jasp", "ImgN", "RnnT"] {
            let w = Workload::by_name(name).unwrap();
            let sim = simulate_record(w, EPSILON, true);
            assert_eq!(
                sim.checkpoints(),
                w.epochs,
                "{name}: training loops memoize every epoch"
            );
        }
    }

    #[test]
    fn finetune_workloads_checkpoint_periodically() {
        // "Fine-tuning workloads are checkpointed periodically … their
        // checkpoints are massive relative to their short execution times".
        let rte = simulate_record(Workload::by_name("RTE").unwrap(), EPSILON, true);
        assert!(
            rte.checkpoints() < 200 / 10,
            "RTE sparse: {} checkpoints",
            rte.checkpoints()
        );
        assert!(rte.checkpoints() >= 2);
        let cola = simulate_record(Workload::by_name("CoLA").unwrap(), EPSILON, true);
        assert!(cola.checkpoints() < 80 / 3, "CoLA: {}", cola.checkpoints());
    }

    #[test]
    fn table4_totals_reproduced() {
        // Adaptive checkpointing × per-checkpoint sizes must land near
        // Table 4's published totals.
        let expect = [
            ("ImgN", 0.051),
            ("Cifr", 0.705),
            ("Jasp", 2.0),
            ("Wiki", 14.0),
            ("RTE", 14.0),
            ("RsNt", 39.0),
            ("RnnT", 29.0),
        ];
        for (name, gb) in expect {
            let w = Workload::by_name(name).unwrap();
            let sim = simulate_record(w, EPSILON, true);
            let rel = (sim.total_ckpt_gb - gb).abs() / gb;
            assert!(
                rel < 0.25,
                "{name}: simulated {:.3} GB vs Table 4's {gb} GB",
                sim.total_ckpt_gb
            );
        }
    }

    #[test]
    fn figure11_average_overhead_band() {
        // Paper: 1.47% average overhead across the eight workloads.
        let avg: f64 = ALL_WORKLOADS
            .iter()
            .map(|w| simulate_record(w, EPSILON, true).overhead)
            .sum::<f64>()
            / ALL_WORKLOADS.len() as f64;
        assert!(
            avg > 0.002 && avg < 0.03,
            "average record overhead {avg:.4} out of the paper's band"
        );
    }

    #[test]
    fn anchors_are_usable_for_weak_init() {
        let rte = Workload::by_name("RTE").unwrap();
        let sim = simulate_record(rte, EPSILON, true);
        // Every checkpointed epoch is < total epochs.
        assert!(sim.checkpointed_epochs.iter().all(|&e| e < rte.epochs));
        // Periodic: gaps between consecutive checkpoints are > 1.
        let v: Vec<u64> = sim.checkpointed_epochs.iter().copied().collect();
        assert!(v.windows(2).any(|w| w[1] - w[0] > 1));
    }
}
