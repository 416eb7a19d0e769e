//! Adaptive checkpointing — the paper's §5.3 (Table 2 symbols, Eqs. 1–4).
//!
//! Per loop `i`, using the paper's notation:
//!
//! - `M_i` — time to materialize the loop's side-effects (checkpoint),
//! - `R_i` — time to restore them,
//! - `C_i` — time to compute (execute) the loop,
//! - `n_i` — executions of the loop so far,
//! - `k_i` — checkpoints materialized so far,
//! - `G`   — replay parallelism (unknown at record time),
//! - `c`   — scaling factor with `R_i = c · M_i`, refined online,
//! - `ε`   — user-specifiable record-overhead tolerance.
//!
//! **Record Overhead invariant (Eq. 1):** `k_i · M_i < n_i · ε · C_i`, i.e.
//! `M_i / C_i < n_i ε / k_i` — total materialization time stays under an ε
//! fraction of total compute.
//!
//! **Replay Latency invariant (Eq. 3):** `M_i + R_i < (n_i / k_i) C_i` with
//! `R_i = c·M_i` ⇒ `M_i / C_i < n_i / (k_i (1 + c))` — record-replay must
//! beat two vanilla executions even without partial replay.
//!
//! **Joint invariant (Eq. 4), tested after a loop executes but *before*
//! materializing (hence `k_i + 1`):**
//!
//! ```text
//! M_i / C_i  <  n_i / (k_i + 1) · min( 1 / (1 + c), ε )
//! ```
//!
//! The controller is deliberately clock-agnostic: callers feed it observed
//! compute/materialize/restore durations in nanoseconds (real clocks in the
//! live engine, virtual clocks in `flor-sim`), so the exact same decision
//! logic produces both the live behaviour and the paper-scale simulations of
//! Figures 7, 10–14.

use std::collections::HashMap;

/// Default overhead tolerance: the paper's 6.67% (= 1/15), chosen so
/// memoized loops compute at least 15× longer than they take to checkpoint.
pub(crate) const DEFAULT_EPSILON: f64 = 1.0 / 15.0;

/// Default restore/materialize scaling factor prior (`c = 1.0` naive prior;
/// the paper reports an observed average of 1.38 across workloads).
pub(crate) const DEFAULT_C: f64 = 1.0;

/// Per-block bookkeeping (Table 2 row per loop `i`).
#[derive(Debug, Clone, Default)]
pub struct BlockStats {
    /// `n_i`: executions so far.
    pub executions: u64,
    /// `k_i`: checkpoints materialized so far.
    pub checkpoints: u64,
    /// Total compute time, ns.
    pub(crate) total_compute_ns: u64,
    /// Total materialize time, ns.
    pub(crate) total_materialize_ns: u64,
    /// Total restore time, ns (replay feeds this back to refine `c`).
    pub(crate) total_restore_ns: u64,
}

impl BlockStats {
    /// Mean per-execution compute time, ns.
    pub fn mean_compute_ns(&self) -> f64 {
        if self.executions == 0 {
            0.0
        } else {
            self.total_compute_ns as f64 / self.executions as f64
        }
    }

    /// Mean per-checkpoint materialize time, ns.
    pub fn mean_materialize_ns(&self) -> f64 {
        if self.checkpoints == 0 {
            0.0
        } else {
            self.total_materialize_ns as f64 / self.checkpoints as f64
        }
    }
}

/// The adaptive checkpointing controller.
#[derive(Debug, Clone)]
pub struct AdaptiveController {
    epsilon: f64,
    c: f64,
    adaptive: bool,
    blocks: HashMap<String, BlockStats>,
    /// Serialization throughput estimate (ns per byte) used to predict `M_i`
    /// before the first materialization of a block; refined from
    /// observations.
    ns_per_byte: f64,
    restore_obs: u64,
}

impl Default for AdaptiveController {
    fn default() -> Self {
        Self::new(DEFAULT_EPSILON)
    }
}

impl AdaptiveController {
    /// Controller with the given overhead tolerance ε.
    pub fn new(epsilon: f64) -> Self {
        assert!(epsilon > 0.0, "epsilon must be positive");
        AdaptiveController {
            epsilon,
            c: DEFAULT_C,
            adaptive: true,
            blocks: HashMap::new(),
            // 1 GiB/s serialization prior ≈ 1 ns per byte.
            ns_per_byte: 1.0,
            restore_obs: 0,
        }
    }

    /// Disables adaptivity: every loop execution is checkpointed. This is
    /// the "adaptivity-disabled" configuration of Figure 7 (91% overhead on
    /// RTE, 28% on CoLA).
    pub fn with_adaptivity_disabled(mut self) -> Self {
        self.adaptive = false;
        self
    }

    /// The current restore/materialize scaling factor `c`.
    pub fn c(&self) -> f64 {
        self.c
    }

    /// Predicted materialization time for a payload of `bytes`, from the
    /// calibrated throughput model.
    pub(crate) fn estimate_materialize_ns(&self, block: &str, bytes: u64) -> u64 {
        let stats = self.blocks.get(block);
        match stats {
            Some(s) if s.checkpoints > 0 => s.mean_materialize_ns() as u64,
            _ => (bytes as f64 * self.ns_per_byte) as u64,
        }
    }

    /// The Joint Invariant test (Eq. 4). Called **after** a loop execution
    /// (with its measured compute time) and **before** materialization (with
    /// the predicted materialize time). Records the execution (`n_i += 1`)
    /// and answers whether the checkpoint should be materialized.
    pub fn should_materialize(
        &mut self,
        block: &str,
        compute_ns: u64,
        est_materialize_ns: u64,
    ) -> bool {
        let stats = self.blocks.entry(block.to_string()).or_default();
        stats.executions += 1;
        stats.total_compute_ns += compute_ns;
        if !self.adaptive {
            return true;
        }
        let n = stats.executions as f64;
        let k = stats.checkpoints as f64;
        let mean_c = stats.mean_compute_ns();
        if mean_c <= 0.0 {
            // Zero-cost loop: materializing can only add overhead.
            return false;
        }
        let m = if stats.checkpoints > 0 {
            stats.mean_materialize_ns()
        } else {
            est_materialize_ns as f64
        };
        let threshold = (n / (k + 1.0)) * (1.0 / (1.0 + self.c)).min(self.epsilon);
        (m / mean_c) < threshold
    }

    /// Records an actual materialization (`k_i += 1`) and refines the
    /// byte-throughput model.
    pub fn observe_materialize(&mut self, block: &str, materialize_ns: u64, bytes: u64) {
        let stats = self.blocks.entry(block.to_string()).or_default();
        stats.checkpoints += 1;
        stats.total_materialize_ns += materialize_ns;
        if bytes > 0 {
            let obs = materialize_ns as f64 / bytes as f64;
            // EWMA keeps the prior from being washed out by one noisy sample.
            self.ns_per_byte = 0.7 * self.ns_per_byte + 0.3 * obs;
        }
    }

    /// Records an observed restore and refines `c` ("Flor gradually refines
    /// the scaling factor after observing materialization and restoration
    /// times from record-replay"; the paper's measured average was 1.38).
    pub fn observe_restore(&mut self, block: &str, restore_ns: u64) {
        let stats = self.blocks.entry(block.to_string()).or_default();
        stats.total_restore_ns += restore_ns;
        self.restore_obs += 1;
        let m = stats.mean_materialize_ns();
        if m > 0.0 {
            let obs_c = restore_ns as f64 / m;
            self.c = 0.7 * self.c + 0.3 * obs_c;
        }
    }

    /// Stats for one block.
    pub fn block_stats(&self, block: &str) -> Option<&BlockStats> {
        self.blocks.get(block)
    }

    /// All blocks seen so far.
    pub fn blocks(&self) -> impl Iterator<Item = (&str, &BlockStats)> {
        self.blocks.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Aggregate record overhead so far: total materialize / total compute.
    pub fn record_overhead(&self) -> f64 {
        let compute: u64 = self.blocks.values().map(|s| s.total_compute_ns).sum();
        let materialize: u64 = self.blocks.values().map(|s| s.total_materialize_ns).sum();
        if compute == 0 {
            0.0
        } else {
            materialize as f64 / compute as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drives the controller with constant per-execution costs and returns
    /// the number of materialized checkpoints.
    fn drive(ctrl: &mut AdaptiveController, block: &str, execs: u64, c_ns: u64, m_ns: u64) -> u64 {
        let mut k = 0;
        for _ in 0..execs {
            if ctrl.should_materialize(block, c_ns, m_ns) {
                ctrl.observe_materialize(block, m_ns, m_ns); // 1 byte/ns payload
                k += 1;
            }
        }
        k
    }

    #[test]
    fn cheap_checkpoints_always_materialize() {
        // Training-style loop: compute 100ms, checkpoint 1ms → ratio 0.01
        // ≪ min(1/(1+c), ε) = min(0.5, 0.0667). Every execution checkpoints.
        let mut ctrl = AdaptiveController::new(DEFAULT_EPSILON);
        let k = drive(&mut ctrl, "sb_0", 50, 100_000_000, 1_000_000);
        assert_eq!(k, 50);
    }

    #[test]
    fn expensive_checkpoints_become_periodic() {
        // Fine-tuning regime: checkpoint as expensive as the compute
        // (ratio 1.0). Materialize only when n/(k+1)·min(…) > 1, i.e.
        // roughly every 1/0.0667 ≈ 15 executions.
        let mut ctrl = AdaptiveController::new(DEFAULT_EPSILON);
        let k = drive(&mut ctrl, "rte", 200, 1_000_000, 1_000_000);
        assert!(k > 0, "periodic checkpointing still checkpoints");
        assert!(k <= 200 / 14, "expected sparse checkpoints, got {k}");
    }

    #[test]
    fn overhead_never_exceeds_epsilon_plus_first() {
        // Property over several cost regimes: cumulative overhead stays at
        // or under ε once past the first (estimated) checkpoint.
        for (c_ns, m_ns) in [
            (10_000u64, 100u64),
            (1_000, 1_000),
            (100, 10_000),
            (500, 499),
        ] {
            let mut ctrl = AdaptiveController::new(DEFAULT_EPSILON);
            drive(&mut ctrl, "b", 500, c_ns, m_ns);
            let overhead = ctrl.record_overhead();
            // Allow the one bootstrap checkpoint's contribution.
            let slack = m_ns as f64 / (500.0 * c_ns as f64);
            assert!(
                overhead <= DEFAULT_EPSILON + slack + 1e-9,
                "overhead {overhead} for C={c_ns} M={m_ns}"
            );
        }
    }

    #[test]
    fn disabled_adaptivity_checkpoints_everything() {
        let mut ctrl = AdaptiveController::new(DEFAULT_EPSILON).with_adaptivity_disabled();
        let k = drive(&mut ctrl, "rte", 100, 1_000, 910);
        assert_eq!(k, 100);
        // This is Figure 7's adaptivity-disabled RTE bar: ~91% overhead.
        assert!((ctrl.record_overhead() - 0.91).abs() < 0.01);
    }

    #[test]
    fn replay_latency_invariant_bounds_ratio() {
        // With c = 1 the threshold is min(0.5, ε); a ratio between ε and 0.5
        // must still be limited by ε (Eq. 1 binds before Eq. 3).
        let mut ctrl = AdaptiveController::new(0.4);
        // ratio M/C = 0.45 < 0.5 but > ε=0.4 → first execution: n/(k+1)=1,
        // threshold 0.4 → no checkpoint. After 2 executions threshold 0.8 →
        // checkpoint.
        assert!(!ctrl.should_materialize("b", 1000, 450));
        assert!(ctrl.should_materialize("b", 1000, 450));
    }

    #[test]
    fn c_refines_toward_observed_ratio() {
        let mut ctrl = AdaptiveController::new(DEFAULT_EPSILON);
        ctrl.should_materialize("b", 1_000_000, 10);
        ctrl.observe_materialize("b", 1_000, 1_000);
        assert!((ctrl.c() - 1.0).abs() < 1e-9);
        // Observed restores run 1.38× materialization (paper's average).
        for _ in 0..50 {
            ctrl.observe_restore("b", 1_380);
        }
        assert!((ctrl.c() - 1.38).abs() < 0.02, "c = {}", ctrl.c());
    }

    #[test]
    fn estimate_uses_throughput_before_first_checkpoint() {
        let ctrl = AdaptiveController::new(DEFAULT_EPSILON);
        // 1 ns/byte prior.
        assert_eq!(ctrl.estimate_materialize_ns("new", 5_000), 5_000);
    }

    #[test]
    fn estimate_uses_history_after_first_checkpoint() {
        let mut ctrl = AdaptiveController::new(DEFAULT_EPSILON);
        ctrl.should_materialize("b", 1_000_000, 10);
        ctrl.observe_materialize("b", 777, 100);
        assert_eq!(ctrl.estimate_materialize_ns("b", 123_456), 777);
    }

    #[test]
    fn per_block_isolation() {
        let mut ctrl = AdaptiveController::new(DEFAULT_EPSILON);
        drive(&mut ctrl, "cheap", 10, 1_000_000, 1_000);
        drive(&mut ctrl, "costly", 10, 1_000, 1_000_000);
        assert_eq!(ctrl.block_stats("cheap").unwrap().checkpoints, 10);
        assert!(ctrl.block_stats("costly").unwrap().checkpoints <= 1);
    }

    #[test]
    #[should_panic(expected = "epsilon must be positive")]
    fn zero_epsilon_rejected() {
        AdaptiveController::new(0.0);
    }
}
