//! Per-iteration cost profiles — the record-time measurements that drive
//! cost-aware replay scheduling.
//!
//! The adaptive controller (paper §5.3, Table 2) already measures per-loop
//! compute (`C_i`), materialize (`M_i`), and restore (`R_i = c·M_i`) times
//! to place checkpoints. Those same measurements, kept *per main-loop
//! iteration* instead of aggregated per block, describe exactly how skewed
//! a training run is (warmup iterations, eval epochs, LR-schedule phase
//! changes…) — and skew is what caps static contiguous partitioning: the
//! slowest worker gates the barrier join, so Figure 13's 200 epochs over
//! 16 GPUs tops out at 15.38× no matter how fast the other 15 finish.
//!
//! [`ProfileBuilder`] accumulates the per-iteration observations during
//! record; [`CostProfile`] is the persisted artifact
//! ([`COST_PROFILE_ARTIFACT`]) the replay planner loads to size micro-ranges
//! ([`crate::parallel::seed_cost_ranges`]) and to compute the
//! profile-aware speedup bound
//! ([`crate::parallel::max_speedup_profiled`]).

/// Artifact name under which the record phase persists the profile.
pub const COST_PROFILE_ARTIFACT: &str = "cost_profile.txt";

/// Largest iteration index [`CostProfile::parse_text`] accepts — the
/// profile is advisory, so a corrupt index line is skipped rather than
/// allowed to drive an arbitrarily large allocation.
pub(crate) const MAX_PROFILED_ITERATIONS: u64 = 1 << 24;

/// Slice-adjusted estimate of one *executed* iteration's replay cost:
/// the recorded compute cost scaled by the slice's live statement
/// fraction (in permille). Recorded profiles measure the full loop
/// body; when dead-statement elision drops part of it, pricing seeded
/// ranges at full cost would skew work-stealing balance.
pub(crate) fn sliced_cost(cost_ns: u64, live_permille: u32) -> u64 {
    ((cost_ns as u128 * u128::from(live_permille.min(1000))) / 1000).max(1) as u64
}

/// Measured costs of one main-loop iteration at record time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IterCost {
    /// Total SkipBlock compute time in this iteration, ns (`C_i`).
    pub(crate) compute_ns: u64,
    /// Caller-visible materialization time in this iteration, ns (`M_i`,
    /// the quantity the controller's scaling factor `c` is calibrated
    /// against).
    pub(crate) materialize_ns: u64,
    /// SkipBlock executions observed in this iteration.
    pub blocks: u32,
    /// How many of them materialized a Loop End Checkpoint.
    pub(crate) checkpointed_blocks: u32,
}

impl IterCost {
    /// True when every block of the iteration left a checkpoint (the
    /// iteration can be *restored* during replay).
    pub(crate) fn fully_checkpointed(&self) -> bool {
        self.blocks > 0 && self.checkpointed_blocks == self.blocks
    }
}

/// A per-iteration cost profile for one recorded run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CostProfile {
    /// Cost of each main-loop iteration, indexed by global iteration.
    pub iters: Vec<IterCost>,
    /// The controller's final restore/materialize scaling factor
    /// (`R_i = c·M_i`).
    pub scaling_c: f64,
}

impl CostProfile {
    /// Number of profiled iterations.
    pub fn len(&self) -> usize {
        self.iters.len()
    }

    /// True when no iteration was profiled.
    pub fn is_empty(&self) -> bool {
        self.iters.is_empty()
    }

    /// Estimated replay cost of iteration `g` in ns, never zero (zero-cost
    /// iterations would make every cost-balanced split degenerate).
    ///
    /// `execute` says whether replay will re-execute the iteration (probed
    /// blocks, poisoned reuse, missing checkpoints) or restore it. An
    /// executed iteration costs its recorded compute time; a restored one
    /// costs `c·M_i`. Iterations beyond the profile (the replayed run may
    /// be longer than the profiled one) fall back to the mean cost of the
    /// profiled iterations.
    pub(crate) fn replay_cost_ns(&self, g: u64, execute: bool) -> u64 {
        let Some(it) = self.iters.get(g as usize) else {
            return self.mean_cost_ns(execute);
        };
        let ns = if execute || !it.fully_checkpointed() {
            it.compute_ns
        } else {
            (self.scaling_c * it.materialize_ns as f64) as u64
        };
        ns.max(1)
    }

    /// Mean replay cost across profiled iterations (≥ 1 ns).
    pub(crate) fn mean_cost_ns(&self, execute: bool) -> u64 {
        if self.iters.is_empty() {
            return 1;
        }
        let total: u64 = (0..self.iters.len() as u64)
            .map(|g| self.replay_cost_ns(g, execute))
            .sum();
        (total / self.iters.len() as u64).max(1)
    }

    /// Replay cost vector for iterations `0..n`, extending past the profile
    /// with the mean cost when the replayed loop is longer. The mean is
    /// computed once — this runs inside the range queue's seeding lock, so
    /// it must stay O(n + p), not O(n·p).
    pub fn replay_costs(&self, n: u64, execute: bool) -> Vec<u64> {
        let mean = self.mean_cost_ns(execute);
        (0..n)
            .map(|g| {
                if (g as usize) < self.iters.len() {
                    self.replay_cost_ns(g, execute)
                } else {
                    mean
                }
            })
            .collect()
    }

    /// True when every profiled iteration left a full set of block
    /// checkpoints — the precondition for the slicer's checkpoint cuts
    /// (an unprobed block provably restores instead of executing).
    pub fn dense_checkpoints(&self) -> bool {
        !self.iters.is_empty() && self.iters.iter().all(|it| it.fully_checkpointed())
    }

    /// Serializes to the artifact text format (one iteration per line).
    pub(crate) fn to_text(&self) -> String {
        let mut out = format!("scaling_c\t{}\n", self.scaling_c);
        for (g, it) in self.iters.iter().enumerate() {
            out.push_str(&format!(
                "iter\t{g}\t{}\t{}\t{}\t{}\n",
                it.compute_ns, it.materialize_ns, it.blocks, it.checkpointed_blocks
            ));
        }
        out
    }

    /// Parses the artifact text format. Malformed lines are skipped (the
    /// profile is advisory — a torn artifact degrades to a shorter profile,
    /// never an error). Returns `None` when nothing parseable remains.
    pub fn parse_text(text: &str) -> Option<CostProfile> {
        let mut profile = CostProfile::default();
        let mut saw_header = false;
        for line in text.lines() {
            let mut parts = line.split('\t');
            match parts.next() {
                Some("scaling_c") => {
                    if let Some(c) = parts.next().and_then(|v| v.parse().ok()) {
                        profile.scaling_c = c;
                        saw_header = true;
                    }
                }
                Some("iter") => {
                    let mut num = || parts.next().and_then(|v| v.parse::<u64>().ok());
                    let (Some(g), Some(c), Some(m), Some(b), Some(k)) =
                        (num(), num(), num(), num(), num())
                    else {
                        continue;
                    };
                    // A corrupt index must degrade like any other malformed
                    // line, not drive a giant resize: cap at a bound far
                    // above any real main loop.
                    if g > MAX_PROFILED_ITERATIONS {
                        continue;
                    }
                    let g = g as usize;
                    if profile.iters.len() <= g {
                        profile.iters.resize(g + 1, IterCost::default());
                    }
                    profile.iters[g] = IterCost {
                        compute_ns: c,
                        materialize_ns: m,
                        blocks: b as u32,
                        checkpointed_blocks: k as u32,
                    };
                }
                _ => {}
            }
        }
        if saw_header || !profile.iters.is_empty() {
            Some(profile)
        } else {
            None
        }
    }
}

/// Accumulates per-iteration observations during the record phase.
#[derive(Debug, Clone, Default)]
pub struct ProfileBuilder {
    iters: Vec<IterCost>,
}

impl ProfileBuilder {
    /// Fresh builder.
    pub fn new() -> Self {
        ProfileBuilder::default()
    }

    /// Records one SkipBlock execution inside main-loop iteration `g`.
    pub fn observe(&mut self, g: u64, compute_ns: u64, materialize_ns: Option<u64>) {
        let g = g as usize;
        if self.iters.len() <= g {
            self.iters.resize(g + 1, IterCost::default());
        }
        let it = &mut self.iters[g];
        it.compute_ns += compute_ns;
        it.blocks += 1;
        if let Some(m) = materialize_ns {
            it.materialize_ns += m;
            it.checkpointed_blocks += 1;
        }
    }

    /// Finishes the profile with the controller's final scaling factor.
    pub fn finish(self, scaling_c: f64) -> CostProfile {
        CostProfile {
            iters: self.iters,
            scaling_c,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn skewed() -> CostProfile {
        let mut b = ProfileBuilder::new();
        for g in 0..8u64 {
            let c = if g == 3 { 1_000_000 } else { 1_000 };
            b.observe(g, c, Some(100));
        }
        b.finish(1.38)
    }

    #[test]
    fn builder_accumulates_per_iteration() {
        let mut b = ProfileBuilder::new();
        b.observe(0, 100, Some(10));
        b.observe(0, 200, None);
        b.observe(2, 50, Some(5));
        let p = b.finish(1.0);
        assert_eq!(p.len(), 3);
        assert_eq!(p.iters[0].compute_ns, 300);
        assert_eq!(p.iters[0].blocks, 2);
        assert_eq!(p.iters[0].checkpointed_blocks, 1);
        assert!(!p.iters[0].fully_checkpointed());
        assert!(p.iters[2].fully_checkpointed());
        // Iteration 1 never observed: zero blocks, not checkpointed.
        assert!(!p.iters[1].fully_checkpointed());
    }

    #[test]
    fn text_roundtrip_is_exact() {
        let p = skewed();
        let parsed = CostProfile::parse_text(&p.to_text()).unwrap();
        assert_eq!(parsed, p);
    }

    #[test]
    fn parse_skips_garbage_lines() {
        let text = "garbage\nscaling_c\t2.0\niter\t0\t5\t1\t1\t1\niter\tbroken\n";
        let p = CostProfile::parse_text(text).unwrap();
        assert_eq!(p.scaling_c, 2.0);
        assert_eq!(p.len(), 1);
        assert_eq!(p.iters[0].compute_ns, 5);
        assert!(CostProfile::parse_text("nothing here\n").is_none());
    }

    #[test]
    fn parse_rejects_absurd_iteration_indices() {
        // A corrupt index line must be skipped, not drive a terabyte-scale
        // resize (the profile is advisory; replay must keep working).
        let text = "scaling_c\t1.0\niter\t99999999999\t1\t1\t1\t1\niter\t1\t7\t1\t1\t1\n";
        let p = CostProfile::parse_text(text).unwrap();
        assert_eq!(p.len(), 2, "only the sane line lands");
        assert_eq!(p.iters[1].compute_ns, 7);
    }

    #[test]
    fn replay_cost_distinguishes_execute_and_restore() {
        let p = skewed();
        // Executed iterations cost their compute time.
        assert_eq!(p.replay_cost_ns(3, true), 1_000_000);
        // Restored iterations cost c·M.
        assert_eq!(p.replay_cost_ns(3, false), 138);
        // Beyond the profile: mean cost.
        assert_eq!(p.replay_cost_ns(99, true), p.mean_cost_ns(true));
    }

    #[test]
    fn uncheckpointed_iterations_always_cost_compute() {
        let mut b = ProfileBuilder::new();
        b.observe(0, 500, None);
        let p = b.finish(1.0);
        assert_eq!(
            p.replay_cost_ns(0, false),
            500,
            "no checkpoint → must execute"
        );
    }

    #[test]
    fn zero_cost_iterations_are_floored() {
        let mut b = ProfileBuilder::new();
        b.observe(0, 0, None);
        let p = b.finish(1.0);
        assert_eq!(p.replay_cost_ns(0, true), 1);
        assert!(p.mean_cost_ns(true) >= 1);
        assert!(CostProfile::default().mean_cost_ns(false) >= 1);
    }
}
