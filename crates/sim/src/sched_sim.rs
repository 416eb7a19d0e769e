//! Scheduling simulation: static contiguous partitioning vs the cost-aware
//! work-stealing executor, over skewed epoch-cost profiles.
//!
//! Real training iterations are heavily skewed — warmup iterations
//! compile/caches-fill, periodic eval epochs run a validation pass,
//! LR-schedule phase changes shift per-step cost — and static contiguous
//! partitioning (paper §5.4) is gated by whichever worker drew the
//! expensive span: Figure 13's 200 epochs over 16 GPUs tops out at 15.38×
//! *even with uniform costs*, and skew makes it far worse. This module
//! drives the **real** scheduling machinery ([`flor_core::parallel`]'s
//! micro-range splitter, contiguous seeding, and [`RangeQueue`]) over
//! synthetic skew profiles to quantify what the work-stealing runtime buys
//! and how close it gets to the profile-aware bound
//! ([`max_speedup_profiled`]).

use flor_core::parallel::{max_speedup_profiled, plan, seed_cost_ranges, InitMode, RangeQueue};

/// Per-epoch replay costs, seconds. Generators below produce the common
/// skew shapes; any slice works.
pub type EpochCosts = Vec<f64>;

/// Uniform costs: `n` epochs of `base` seconds (the best case for static
/// partitioning — stealing must tie here, not win).
pub fn uniform(n: u64, base: f64) -> EpochCosts {
    vec![base; n as usize]
}

/// Warmup skew: the first `warmup` epochs cost `factor ×` base (JIT
/// compilation, cache warm, dataloader spin-up).
pub fn warmup_skew(n: u64, base: f64, warmup: u64, factor: f64) -> EpochCosts {
    (0..n)
        .map(|g| if g < warmup { base * factor } else { base })
        .collect()
}

/// Eval-epoch skew: every `every`-th epoch runs a validation pass costing
/// `factor ×` base.
pub fn eval_spike_skew(n: u64, base: f64, every: u64, factor: f64) -> EpochCosts {
    (0..n)
        .map(|g| {
            if every > 0 && g % every == every - 1 {
                base * factor
            } else {
                base
            }
        })
        .collect()
}

/// Tail skew: the last `tail` epochs cost `factor ×` base (end-of-run
/// fine-tuning phase, LR-schedule change, growing sequence lengths).
pub fn tail_skew(n: u64, base: f64, tail: u64, factor: f64) -> EpochCosts {
    (0..n)
        .map(|g| {
            if g >= n - tail.min(n) {
                base * factor
            } else {
                base
            }
        })
        .collect()
}

/// Outcome of simulating one schedule comparison.
#[derive(Debug, Clone)]
pub struct SchedSim {
    /// Static contiguous partitioning makespan, seconds (the barrier-join
    /// wall time: slowest worker's share).
    pub static_secs: f64,
    /// Work-stealing makespan, seconds.
    pub steal_secs: f64,
    /// Ranges that moved between workers.
    pub steals: u64,
    /// static / steal — how much the new runtime buys on this profile.
    pub improvement: f64,
    /// Profile-aware speedup bound over one worker
    /// ([`max_speedup_profiled`]).
    pub bound: f64,
    /// Speedup over one worker the stealing schedule achieved.
    pub steal_speedup: f64,
}

fn to_ns(costs: &[f64]) -> Vec<u64> {
    costs.iter().map(|&c| (c * 1e9).max(1.0) as u64).collect()
}

/// Makespan of the legacy static plan: each worker executes its contiguous
/// [`plan`] share; the barrier join waits for the slowest.
pub fn static_makespan(costs: &[f64], workers: usize) -> f64 {
    let n = costs.len() as u64;
    plan(n, workers, InitMode::Strong)
        .iter()
        .map(|p| p.work_iters().map(|g| costs[g as usize]).sum::<f64>())
        .fold(0.0, f64::max)
}

/// Makespan of the work-stealing executor, using the real splitter,
/// seeding, and [`RangeQueue`] policy (final-range pinning, forward-steal
/// preference). `profiled` seeds with the true costs (a recorded profile);
/// otherwise uniform micro-ranges model a run recorded before cost
/// profiling existed. Returns `(makespan_secs, steals)`.
pub fn stealing_makespan(costs: &[f64], workers: usize, profiled: bool) -> (f64, u64) {
    let mut span = flor_obs::span(flor_obs::Category::Sim, "stealing_makespan");
    span.set_args(costs.len() as u64, workers as u64);
    let n = costs.len() as u64;
    if n == 0 || workers == 0 {
        return (0.0, 0);
    }
    let seed_costs: Vec<u64> = if profiled { to_ns(costs) } else { Vec::new() };
    let deques = seed_cost_ranges(n, workers, &seed_costs, None);
    let queue = RangeQueue::new(workers);
    queue.seed_once(n, || (deques, seed_costs));

    // Event loop: the earliest-free worker pulls its next range; workers
    // that executed the final range retire (they own the final state).
    let mut clock = vec![0.0f64; workers];
    let mut state = vec![0u64; workers];
    let mut alive = vec![true; workers];
    while let Some(pid) = (0..workers)
        .filter(|&w| alive[w])
        .min_by(|&a, &b| clock[a].total_cmp(&clock[b]))
    {
        // The simulator models reusable checkpoints (rewinds allowed).
        let Some(next) = queue.next(pid, state[pid], true) else {
            alive[pid] = false;
            continue;
        };
        let r = next.range;
        clock[pid] += r.iters().map(|g| costs[g as usize]).sum::<f64>();
        state[pid] = r.end;
        if r.end == n {
            alive[pid] = false;
        }
    }
    (clock.iter().fold(0.0f64, |a, &b| a.max(b)), queue.steals())
}

/// Compares static partitioning against profiled work-stealing on one cost
/// profile.
pub fn compare(costs: &[f64], workers: usize) -> SchedSim {
    let static_secs = static_makespan(costs, workers);
    let (steal_secs, steals) = stealing_makespan(costs, workers, true);
    let total: f64 = costs.iter().sum();
    SchedSim {
        static_secs,
        steal_secs,
        steals,
        improvement: static_secs / steal_secs.max(1e-12),
        bound: max_speedup_profiled(&to_ns(costs), workers),
        steal_speedup: total / steal_secs.max(1e-12),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_costs_tie_within_two_percent() {
        // Stealing must not regress the uniform case (the paper's model).
        for workers in [2usize, 4, 8, 16] {
            let costs = uniform(200, 30.0);
            let sim = compare(&costs, workers);
            assert!(
                sim.improvement > 0.98,
                "{workers} workers: stealing lost uniform ground: {sim:?}"
            );
            assert!(
                sim.improvement < 1.10,
                "{workers} workers: uniform 'improvement' {:.3} is noise",
                sim.improvement
            );
        }
    }

    #[test]
    fn tail_skew_improves_markedly() {
        // 2 of 16 epochs are 10×: static hands one worker both heavy
        // epochs plus neighbors; cost-aware seeding spreads them.
        let costs = tail_skew(16, 10.0, 2, 10.0);
        let sim = compare(&costs, 4);
        assert!(
            sim.improvement >= 1.5,
            "tail skew should improve ≥1.5×: {sim:?}"
        );
        assert!(sim.steal_secs < sim.static_secs);
    }

    #[test]
    fn eval_spikes_improve_and_respect_bound() {
        // Spikes spread fairly evenly across contiguous shares, so static
        // is not catastrophic here — the win is real but moderate.
        let costs = eval_spike_skew(60, 20.0, 10, 6.0);
        for workers in [4usize, 8] {
            let sim = compare(&costs, workers);
            assert!(sim.improvement > 1.05, "{workers} workers: {sim:?}");
            assert!(
                sim.steal_speedup <= sim.bound + 1e-9,
                "no schedule may beat the profile-aware bound: {sim:?}"
            );
        }
    }

    #[test]
    fn warmup_skew_improves() {
        let costs = warmup_skew(40, 15.0, 4, 8.0);
        let sim = compare(&costs, 4);
        assert!(sim.improvement > 1.2, "{sim:?}");
    }

    #[test]
    fn unprofiled_stealing_still_beats_static_under_skew() {
        // Without a profile the seeds are uniform — the queue's stealing
        // is the only rebalancer, and it must still win (this is the
        // pre-profile-run rescue path).
        let costs = tail_skew(16, 10.0, 2, 10.0);
        let static_secs = static_makespan(&costs, 4);
        let (steal_secs, steals) = stealing_makespan(&costs, 4, false);
        assert!(
            steal_secs < static_secs,
            "unprofiled stealing {steal_secs:.1}s vs static {static_secs:.1}s"
        );
        assert!(steals > 0, "uniform seeds under skew must steal");
    }

    #[test]
    fn figure13_shape_reproduces_with_uniform_costs() {
        // 200 uniform epochs on 16 workers: the static bound 15.38× —
        // stealing cannot beat it (atomic epochs), only match it.
        let costs = uniform(200, 30.0);
        let total: f64 = costs.iter().sum();
        let (steal_secs, _) = stealing_makespan(&costs, 16, true);
        let speedup = total / steal_secs;
        let static_speedup = total / static_makespan(&costs, 16);
        assert!((static_speedup - 200.0 / 13.0).abs() < 1e-6);
        assert!(speedup <= 16.0 + 1e-9);
        assert!(
            speedup >= static_speedup * 0.98,
            "stealing must not lose to static"
        );
    }

    #[test]
    fn degenerate_profiles() {
        assert_eq!(stealing_makespan(&[], 4, true).0, 0.0);
        let single = compare(&[42.0], 4);
        assert!((single.steal_secs - 42.0).abs() < 1e-9);
        assert!((single.improvement - 1.0).abs() < 1e-9);
    }
}
