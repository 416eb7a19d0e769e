//! Replay-phase simulation at paper scale (Figures 10, 12, 13).
//!
//! Uses the **real** hindsight-parallelism planner
//! ([`flor_core::parallel`]) to assign epoch segments to simulated GPU
//! workers, then costs each worker's [`crate::des`] timeline:
//!
//! - **restore** of a memoized epoch costs `R = c·M`;
//! - **re-execution** of an epoch costs `C` (probed blocks, or epochs whose
//!   checkpoint was skipped by adaptive checkpointing);
//! - every worker first pays the **preamble** (imports + data loading) and
//!   its **initialization segment** (strong: every preceding epoch,
//!   restored where checkpointed and re-executed where not; weak: one
//!   restore from the nearest anchor).
//!
//! Replay wall time is the latest worker completion — workers are
//! coordination-free (§5.4), so there is nothing else to model.

use crate::des::Timeline;
use crate::record_sim::RecordSim;
use crate::workload::Workload;
use flor_core::parallel::{plan, plan_anchored, InitMode, WorkerPlan};
use std::collections::BTreeSet;

/// Where the hindsight probe landed (Figure 12's two regimes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbePosition {
    /// Probe outside the training loop: memoized epochs restore
    /// ("partial + parallel replay", Figure 12 top).
    Outer,
    /// Probe inside the training loop: every epoch re-executes
    /// ("parallel-only replay", Figure 12 bottom).
    Inner,
}

/// Outcome of simulating one replay.
#[derive(Debug, Clone)]
pub struct ReplaySim {
    /// Workload name.
    pub name: &'static str,
    /// Replay wall-clock, seconds.
    pub wall_secs: f64,
    /// Vanilla re-execution wall-clock, seconds (the Figure 10/12 baseline:
    /// same logging, no Flor).
    pub vanilla_secs: f64,
    /// Speedup over vanilla.
    pub speedup: f64,
    /// Epochs restored (across workers, work segments only).
    pub restored: u64,
    /// Epochs re-executed (across workers, including initialization).
    pub executed: u64,
}

impl ReplaySim {
    /// Replay time as a fraction of vanilla (Figure 10's y-axis).
    pub fn fraction_of_vanilla(&self) -> f64 {
        self.wall_secs / self.vanilla_secs
    }
}

/// Simulates replaying `workload` on `gpus` coordination-free workers.
///
/// `record` supplies the checkpoint placement (from [`crate::simulate_record`]);
/// `probe` positions the hindsight log; `init_mode` picks strong or weak
/// worker initialization.
pub fn simulate_replay(
    workload: &Workload,
    record: &RecordSim,
    probe: ProbePosition,
    gpus: usize,
    init_mode: InitMode,
) -> ReplaySim {
    let mut span = flor_obs::span(flor_obs::Category::Sim, "simulate_replay");
    span.set_args(workload.epochs, gpus as u64);
    let n = workload.epochs;
    let anchors: BTreeSet<u64> = {
        // An epoch boundary g is an anchor iff epoch g-1 is checkpointed.
        let mut a: BTreeSet<u64> = record
            .checkpointed_epochs
            .iter()
            .map(|&e| e + 1)
            .filter(|&b| b < n)
            .collect();
        a.insert(0);
        a
    };
    let plans: Vec<WorkerPlan> = match init_mode {
        InitMode::Strong => plan(n, gpus, InitMode::Strong),
        InitMode::Weak => plan_anchored(n, &anchors, gpus),
    };

    let c = workload.epoch_secs();
    // Restore cost: the paper's compute-side R = c·M plus the storage
    // engine's measured read constants (`cost::read_cost`) for pulling the
    // checkpoint out of a segment.
    let r = workload.restore_secs()
        + crate::cost::read_cost::restore_read_secs(workload.compressed_ckpt_gb);
    let mut restored = 0u64;
    let mut executed = 0u64;
    let mut wall: f64 = 0.0;
    for p in &plans {
        let mut t = Timeline::new();
        // Preamble: every worker replays imports/data-loading.
        t.run(0.0, workload.preamble_secs());
        // Initialization segment.
        match init_mode {
            InitMode::Strong => {
                for g in p.init_iters() {
                    if record.checkpointed_epochs.contains(&g) {
                        t.run(0.0, r);
                    } else {
                        t.run(0.0, c);
                        executed += 1;
                    }
                }
            }
            InitMode::Weak => {
                if p.init_len() > 0 {
                    // One restore from the anchor's checkpoint.
                    t.run(0.0, r);
                }
            }
        }
        // Work segment.
        for g in p.work_iters() {
            let restore_possible = record.checkpointed_epochs.contains(&g);
            match probe {
                ProbePosition::Inner => {
                    t.run(0.0, c);
                    executed += 1;
                }
                ProbePosition::Outer => {
                    if restore_possible {
                        t.run(0.0, r);
                        restored += 1;
                    } else {
                        t.run(0.0, c);
                        executed += 1;
                    }
                }
            }
        }
        wall = wall.max(t.free_at());
    }

    let vanilla_secs = workload.vanilla_hours * 3600.0 + workload.preamble_secs();
    ReplaySim {
        name: workload.name,
        wall_secs: wall,
        vanilla_secs,
        speedup: vanilla_secs / wall.max(1e-9),
        restored,
        executed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record_sim::simulate_record;
    use crate::workload::{Workload, ALL_WORKLOADS};

    const EPSILON: f64 = 1.0 / 15.0;

    fn rec(name: &str) -> (&'static Workload, RecordSim) {
        let w = Workload::by_name(name).unwrap();
        (w, simulate_record(w, EPSILON, true))
    }

    #[test]
    fn figure12_outer_probe_speedups_order_of_magnitude() {
        // "improvements range from 7× to 1123× — with the more significant
        // improvements favoring the longer experiments".
        let mut speedups = Vec::new();
        for w in ALL_WORKLOADS {
            let record = simulate_record(w, EPSILON, true);
            // Up to 4 machines × 4 GPUs, best configuration.
            let best = [4usize, 8, 12, 16]
                .iter()
                .map(|&g| {
                    simulate_replay(w, &record, ProbePosition::Outer, g, InitMode::Weak).speedup
                })
                .fold(0.0f64, f64::max);
            speedups.push((w.name, best));
        }
        for (name, s) in &speedups {
            assert!(*s >= 4.0, "{name}: outer-probe speedup {s:.1} too small");
        }
        let max = speedups.iter().map(|(_, s)| *s).fold(0.0f64, f64::max);
        assert!(
            max > 300.0,
            "longest workloads should see orders of magnitude ({max:.0}×)"
        );
    }

    #[test]
    fn figure12_longer_experiments_gain_more() {
        let (cifr_w, cifr_r) = rec("Cifr"); // 1 hour
        let (wiki_w, wiki_r) = rec("Wiki"); // ~22 hours
        let s_cifr =
            simulate_replay(cifr_w, &cifr_r, ProbePosition::Outer, 4, InitMode::Weak).speedup;
        let s_wiki =
            simulate_replay(wiki_w, &wiki_r, ProbePosition::Outer, 4, InitMode::Weak).speedup;
        assert!(
            s_wiki > s_cifr,
            "longer job must gain more: Wiki {s_wiki:.0}× vs Cifr {s_cifr:.0}×"
        );
    }

    #[test]
    fn figure10_four_gpu_fraction_near_quarter_for_epoch_rich_training() {
        // Parallel (inner-probe) replay on 4 GPUs: near-ideal 25% for
        // epoch-rich fully-checkpointed workloads.
        for name in ["Cifr", "RsNt"] {
            let (w, r) = rec(name);
            for mode in [InitMode::Strong, InitMode::Weak] {
                let sim = simulate_replay(w, &r, ProbePosition::Inner, 4, mode);
                let frac = sim.fraction_of_vanilla();
                assert!(
                    frac > 0.24 && frac < 0.40,
                    "{name} {mode:?}: fraction {frac:.3} not near-ideal"
                );
            }
        }
    }

    #[test]
    fn figure10_rte_cola_limited_by_partitions() {
        // "RTE & CoLA only have 6 epoch-partitions each, so parallelism on
        // 4 GPUs leads to at best 2/6 = 33% replay time."
        let (w, r) = rec("RTE");
        let sim = simulate_replay(w, &r, ProbePosition::Inner, 4, InitMode::Weak);
        let frac = sim.fraction_of_vanilla();
        assert!(
            frac >= 0.28,
            "RTE cannot beat its checkpoint-partition bound: {frac:.3}"
        );
        // And it is still a real improvement over sequential.
        assert!(
            frac < 0.7,
            "RTE parallel replay should still win: {frac:.3}"
        );
    }

    #[test]
    fn figure13_rsnt_scaleout_is_near_ideal() {
        // RsNt scale-out 4 → 16 GPUs with weak init: near-ideal speedups,
        // bounded by 200/⌈200/G⌉ (15.38× at 16).
        let (w, r) = rec("RsNt");
        let mut prev = 0.0;
        for gpus in [4usize, 8, 12, 16] {
            let sim = simulate_replay(w, &r, ProbePosition::Inner, gpus, InitMode::Weak);
            let ideal = flor_core::parallel::max_speedup(200, gpus);
            assert!(
                sim.speedup > 0.8 * ideal && sim.speedup <= ideal + 1e-9,
                "{gpus} GPUs: speedup {:.2} vs ideal {ideal:.2}",
                sim.speedup
            );
            assert!(sim.speedup > prev, "speedup must grow with GPUs");
            prev = sim.speedup;
        }
    }

    #[test]
    fn weak_init_beats_strong_when_checkpoints_are_sparse() {
        // For periodic-checkpoint workloads, strong init re-executes the
        // gaps; weak init jumps straight to the anchor.
        let (w, r) = rec("RTE");
        let strong = simulate_replay(w, &r, ProbePosition::Inner, 4, InitMode::Strong);
        let weak = simulate_replay(w, &r, ProbePosition::Inner, 4, InitMode::Weak);
        assert!(
            weak.wall_secs < strong.wall_secs,
            "weak {:.0}s must beat strong {:.0}s on sparse checkpoints",
            weak.wall_secs,
            strong.wall_secs
        );
    }

    #[test]
    fn weak_vs_strong_negligible_when_fully_checkpointed() {
        // "the difference between weak and strong initialization is
        // negligible" (Figure 10) — for fully checkpointed workloads.
        let (w, r) = rec("RsNt");
        let strong = simulate_replay(w, &r, ProbePosition::Inner, 4, InitMode::Strong);
        let weak = simulate_replay(w, &r, ProbePosition::Inner, 4, InitMode::Weak);
        let rel = (strong.wall_secs - weak.wall_secs).abs() / weak.wall_secs;
        assert!(rel < 0.10, "difference {rel:.3} should be negligible");
    }

    #[test]
    fn single_gpu_inner_replay_is_roughly_vanilla() {
        // No parallelism, probe inside: Flor ≈ vanilla (no regret).
        let (w, r) = rec("Jasp");
        let sim = simulate_replay(w, &r, ProbePosition::Inner, 1, InitMode::Strong);
        let frac = sim.fraction_of_vanilla();
        assert!(frac > 0.95 && frac < 1.1, "fraction {frac:.3}");
    }

    #[test]
    fn outer_probe_restores_everything_checkpointed() {
        let (w, r) = rec("Cifr");
        let sim = simulate_replay(w, &r, ProbePosition::Outer, 1, InitMode::Strong);
        assert_eq!(sim.restored, 200);
        assert_eq!(sim.executed, 0);
    }
}
