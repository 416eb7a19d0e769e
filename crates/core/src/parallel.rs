//! Hindsight parallelism planning (paper §5.4, Figures 8–10, 13).
//!
//! "Even sequential code can be re-executed in parallel if the right
//! checkpoints are materialized on the first pass." Two layers, both pure
//! arithmetic. [`plan`] / [`plan_anchored`] are the paper's model:
//! contiguous partitioning of the main loop's iterations over `G` workers,
//! strong/weak initialization segments, and the load-balance speedup bound
//! (e.g. the paper's 200 epochs over 16 GPUs → ⌈200/16⌉ = 13 epochs per
//! worker → max speedup 200/13 = 15.38×) — what the `flor-sim`
//! discrete-event simulator and the benches price. The live replay engine
//! schedules with the second layer only: [`seed_cost_ranges`] and the
//! work-stealing [`RangeQueue`].

/// Worker initialization mode (paper §5.4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InitMode {
    /// Initialize every iteration preceding the work segment by restoring
    /// each one's checkpoints in turn. Correct whenever record checkpointed
    /// (the default, per the paper).
    Strong,
    /// Jump directly to the last preceding iteration's checkpoint. Needed
    /// when checkpoints are sparse/periodic (RTE & CoLA under adaptive
    /// checkpointing), risky if checkpoints miss side-effects.
    Weak,
}

/// One worker's share of the main loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerPlan {
    /// Worker id (the paper's PID).
    pub pid: usize,
    /// First global iteration of the work segment (inclusive).
    pub work_start: u64,
    /// One past the last global iteration of the work segment.
    pub work_end: u64,
    /// Initialization segment `[init_start, work_start)`; empty when the
    /// worker starts at iteration 0.
    pub init_start: u64,
}

impl WorkerPlan {
    /// Number of work iterations.
    pub fn work_len(&self) -> u64 {
        self.work_end - self.work_start
    }

    /// Number of initialization iterations.
    pub fn init_len(&self) -> u64 {
        self.work_start - self.init_start
    }

    /// Global iterations of the init segment.
    pub fn init_iters(&self) -> std::ops::Range<u64> {
        self.init_start..self.work_start
    }

    /// Global iterations of the work segment.
    pub fn work_iters(&self) -> std::ops::Range<u64> {
        self.work_start..self.work_end
    }
}

/// Partitions `n_iters` main-loop iterations over `workers` workers into
/// contiguous, disjoint, covering segments (the first `n_iters % workers`
/// workers take one extra iteration), and attaches each worker's
/// initialization segment per `mode`.
///
/// Workers whose segment would be empty are omitted — "RTE & CoLA only have
/// 6 epoch-partitions each, so parallelism on 4 GPUs leads to at best
/// 2/6 = 33% replay time" (Figure 10): you cannot use more workers than
/// iterations.
pub fn plan(n_iters: u64, workers: usize, mode: InitMode) -> Vec<WorkerPlan> {
    if n_iters == 0 || workers == 0 {
        return Vec::new();
    }
    let g = (workers as u64).min(n_iters);
    let base = n_iters / g;
    let extra = n_iters % g;
    let mut plans = Vec::with_capacity(g as usize);
    let mut start = 0u64;
    for pid in 0..g {
        let len = base + if pid < extra { 1 } else { 0 };
        let work_start = start;
        let work_end = start + len;
        let init_start = match mode {
            _ if work_start == 0 => 0,
            InitMode::Strong => 0,
            InitMode::Weak => work_start - 1,
        };
        plans.push(WorkerPlan {
            pid: pid as usize,
            work_start,
            work_end,
            init_start,
        });
        start = work_end;
    }
    plans
}

/// Partitions `n_iters` iterations over `workers` workers when segment
/// boundaries are restricted to `anchors` — iterations where every
/// main-loop block has a checkpoint. This is how weak initialization copes
/// with *periodic* checkpointing (paper §5.4.2): "RTE & CoLA only have 6
/// epoch-partitions each, so parallelism on 4 GPUs leads to at best
/// 2/6 = 33% replay time" (Figure 10).
///
/// Anchors must include 0. Each worker receives a contiguous run of
/// checkpoint intervals, greedily balanced by iteration count; weak
/// initialization for a worker starting at anchor `a > 0` is the single
/// iteration `a - 1` (whose Loop End Checkpoint exists by construction).
pub fn plan_anchored(
    n_iters: u64,
    anchors: &std::collections::BTreeSet<u64>,
    workers: usize,
) -> Vec<WorkerPlan> {
    if n_iters == 0 || workers == 0 {
        return Vec::new();
    }
    // Segment boundaries: the anchors below n_iters, plus the end.
    let mut bounds: Vec<u64> = anchors.iter().copied().filter(|&a| a < n_iters).collect();
    if bounds.first() != Some(&0) {
        bounds.insert(0, 0);
    }
    bounds.push(n_iters);
    let n_segments = bounds.len() - 1;
    let g = workers.min(n_segments);
    let target = (n_iters as f64 / g as f64).ceil() as u64;

    let mut plans: Vec<WorkerPlan> = Vec::with_capacity(g);
    let mut seg = 0usize;
    for pid in 0..g {
        if seg >= n_segments {
            break;
        }
        let work_start = bounds[seg];
        let mut end_seg = seg;
        let remaining_workers = g - pid - 1;
        // Take segments until reaching the target, but leave at least one
        // segment for each remaining worker.
        while end_seg + 1 < n_segments
            && (n_segments - (end_seg + 1)) > remaining_workers
            && bounds[end_seg + 1] - work_start < target
        {
            end_seg += 1;
        }
        let work_end = bounds[end_seg + 1];
        let init_start = if work_start == 0 { 0 } else { work_start - 1 };
        plans.push(WorkerPlan {
            pid,
            work_start,
            work_end,
            init_start,
        });
        seg = end_seg + 1;
    }
    // Any leftover segments go to the last worker.
    if seg < n_segments {
        if let Some(last) = plans.last_mut() {
            last.work_end = n_iters;
        }
    }
    plans
}

/// Maximum achievable parallel speedup for `n_iters` over `workers`
/// workers, limited by the largest share: `n / ⌈n/G⌉`.
pub fn max_speedup(n_iters: u64, workers: usize) -> f64 {
    if n_iters == 0 || workers == 0 {
        return 1.0;
    }
    let g = (workers as u64).min(n_iters);
    let largest = n_iters.div_ceil(g);
    n_iters as f64 / largest as f64
}

/// Profile-aware speedup bound: with per-iteration replay costs known, the
/// makespan of *any* schedule is at least `max(total/G, max single
/// iteration)`, so the speedup is at most `total / max(total/G, max_iter)`.
///
/// This is far tighter than [`max_speedup`] under skew — one iteration
/// 1000× the rest caps the speedup near `total/max_iter` regardless of
/// worker count — and reduces to the continuous relaxation `G` (which
/// upper-bounds `n/⌈n/G⌉`) on uniform costs. Work-stealing over
/// cost-sized micro-ranges approaches this bound; static contiguous
/// partitioning generally cannot (the slowest contiguous share exceeds the
/// greedy makespan whenever costs are skewed).
pub fn max_speedup_profiled(iter_costs: &[u64], workers: usize) -> f64 {
    if iter_costs.is_empty() || workers == 0 {
        return 1.0;
    }
    let total: u64 = iter_costs.iter().map(|&c| c.max(1)).sum();
    let largest: u64 = iter_costs.iter().map(|&c| c.max(1)).max().unwrap_or(1);
    let lower_bound = (total as f64 / workers as f64).max(largest as f64);
    total as f64 / lower_bound
}

// ---- cost-aware micro-range scheduling -------------------------------------

/// A contiguous span of main-loop iterations — the unit of work-stealing.
/// Smaller than a [`WorkerPlan`] work segment: a worker's seed partition is
/// split into several micro-ranges so a drained worker can steal load off a
/// straggler without breaking checkpoint-restore locality for the victim.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MicroRange {
    /// First global iteration (inclusive).
    pub start: u64,
    /// One past the last global iteration.
    pub end: u64,
}

impl MicroRange {
    /// Iterations covered.
    pub fn len(&self) -> u64 {
        self.end - self.start
    }

    /// True for a degenerate empty range.
    pub fn is_empty(&self) -> bool {
        self.start >= self.end
    }

    /// Global iterations of the range.
    pub fn iters(&self) -> std::ops::Range<u64> {
        self.start..self.end
    }
}

/// Micro-ranges a worker's seed deque should hold, as a multiple of the
/// worker count: enough granularity that stealing can rebalance, few enough
/// that per-range re-initialization stays negligible.
pub const RANGES_PER_WORKER: u64 = 4;

/// Candidate boundaries for range splitting: the anchors below `n_iters`
/// plus both ends, or every iteration when unconstrained.
fn split_bounds(n_iters: u64, anchors: Option<&std::collections::BTreeSet<u64>>) -> Vec<u64> {
    match anchors {
        Some(a) => {
            let mut b: Vec<u64> = a.iter().copied().filter(|&x| x < n_iters).collect();
            if b.first() != Some(&0) {
                b.insert(0, 0);
            }
            b.push(n_iters);
            b
        }
        None => (0..=n_iters).collect(),
    }
}

/// Greedily packs the segments `bounds[lo..hi]` into at most `parts`
/// contiguous spans of roughly equal cost. "Take-if-closer": a span keeps
/// absorbing the next segment while doing so lands it nearer its cost
/// target than stopping would — the rounding rule that reproduces the
/// static planner's exact shares on uniform costs (stealing must tie
/// there, not lose to seeding noise). The target is re-derived from the
/// remaining cost before each span, so early rounding never dumps a
/// remainder on the last span.
fn pack_spans(bounds: &[u64], parts: usize, seg_cost: &[u64]) -> Vec<MicroRange> {
    let n_segments = bounds.len() - 1;
    let parts = parts.min(n_segments);
    let mut spans = Vec::with_capacity(parts);
    let mut remaining: u64 = seg_cost.iter().sum();
    let mut seg = 0usize;
    for part in 0..parts {
        if seg >= n_segments {
            break;
        }
        let spans_left = (parts - part) as u64;
        let target = remaining.div_ceil(spans_left).max(1);
        let start = bounds[seg];
        let mut acc = seg_cost[seg];
        seg += 1;
        while seg < n_segments && (n_segments - seg) as u64 >= spans_left {
            let c = seg_cost[seg];
            let take = (acc + c).abs_diff(target) <= target.abs_diff(acc);
            if !take {
                break;
            }
            acc += c;
            seg += 1;
        }
        remaining -= acc;
        spans.push(MicroRange {
            start,
            end: bounds[seg],
        });
    }
    // The rounding rule leaves ≥1 segment per remaining span, so by the
    // last span everything is consumed.
    if let (Some(last), true) = (spans.last_mut(), seg < n_segments) {
        last.end = bounds[n_segments];
    }
    spans
}

/// Seeds `workers` deques with cost-balanced contiguous micro-ranges for
/// an `n_iters`-iteration main loop: first `0..n_iters` is partitioned
/// into one contiguous *share* per worker, balanced by per-iteration
/// `costs` (ns; uniform when empty — missing profile entries cost the
/// mean), then each share is split into up to [`RANGES_PER_WORKER`]
/// micro-ranges so a drained worker can steal off a straggler without
/// taking its whole share.
///
/// A single expensive iteration is never split (one iteration is the
/// atomic unit of replay), and when `anchors` is non-empty every boundary
/// is clamped to an anchor (weak initialization may only start a segment
/// at a full-checkpoint boundary — paper §5.4.2). Workers may receive
/// empty deques when there are fewer splittable segments than workers.
pub fn seed_cost_ranges(
    n_iters: u64,
    workers: usize,
    costs: &[u64],
    anchors: Option<&std::collections::BTreeSet<u64>>,
) -> Vec<Vec<MicroRange>> {
    let mut deques: Vec<Vec<MicroRange>> = vec![Vec::new(); workers];
    if n_iters == 0 || workers == 0 {
        return deques;
    }
    let mean = if costs.is_empty() {
        1
    } else {
        (costs.iter().sum::<u64>() / costs.len() as u64).max(1)
    };
    let cost_of = |g: u64| -> u64 { costs.get(g as usize).copied().unwrap_or(mean).max(1) };
    let bounds = split_bounds(n_iters, anchors);
    let seg_cost: Vec<u64> = bounds
        .windows(2)
        .map(|w| (w[0]..w[1]).map(cost_of).sum())
        .collect();
    let shares = pack_spans(&bounds, workers, &seg_cost);
    for (pid, share) in shares.iter().enumerate() {
        // Split the share along its own boundary subset.
        let lo = bounds.partition_point(|&b| b < share.start);
        let hi = bounds.partition_point(|&b| b < share.end);
        let share_bounds = &bounds[lo..=hi];
        let share_costs = &seg_cost[lo..hi];
        deques[pid] = pack_spans(share_bounds, RANGES_PER_WORKER as usize, share_costs);
    }
    deques
}

/// What [`RangeQueue::next`] hands a worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NextRange {
    /// The range to execute.
    pub range: MicroRange,
    /// True when the range came off another worker's deque.
    pub stolen: bool,
}

struct QueueState {
    seeded: bool,
    deques: Vec<std::collections::VecDeque<MicroRange>>,
    /// Per-iteration cost estimates used at seed time (empty = uniform);
    /// victim selection weighs remaining ranges by it.
    iter_cost: Vec<u64>,
    /// One past the last global iteration. The final range (`end ==
    /// n_iters`) is stolen only as a last resort: its executor retires
    /// holding the true final program state (and owns the postamble).
    n_iters: u64,
}

impl QueueState {
    fn range_cost(&self, r: &MicroRange) -> u64 {
        r.iters()
            .map(|g| self.iter_cost.get(g as usize).copied().unwrap_or(1).max(1))
            .sum()
    }
}

/// The shared work-stealing range queue — replay's one scheduler.
///
/// Each worker owns a deque seeded with a contiguous run of micro-ranges
/// and pops from its *front* (ascending iteration order — every pop
/// continues exactly where the previous range ended, so no
/// re-initialization). A drained worker steals from the *back* of the
/// most-loaded victim: the work farthest from the victim's current
/// position, which the victim would have reached last anyway. Two
/// preferences keep the paper's replay semantics cheap:
///
/// - thieves prefer ranges **ahead of their own position** (`start ≥`
///   their current state), because a forward steal re-initializes by
///   rolling checkpoints forward while a backward steal must rewind;
/// - the **final range** (ending at `n_iters`) is taken only as a last
///   resort: whoever executes it exits the pull loop holding the true
///   final program state (and owns the postamble), so handing it out
///   early would retire a worker while other ranges still wait.
pub struct RangeQueue {
    state: parking_lot::Mutex<QueueState>,
    steals: std::sync::atomic::AtomicU64,
}

impl RangeQueue {
    /// Unseeded queue for `workers` deques.
    pub fn new(workers: usize) -> Self {
        RangeQueue {
            state: parking_lot::Mutex::new(QueueState {
                seeded: false,
                deques: vec![std::collections::VecDeque::new(); workers],
                iter_cost: Vec::new(),
                n_iters: 0,
            }),
            steals: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// Seeds the queue exactly once (workers race to seed; all compute the
    /// same deterministic seeding, the first wins). `seed` returns the
    /// per-worker deques plus the per-iteration cost vector they were
    /// balanced by (empty = uniform), which steers victim selection.
    /// Returns true for the seeding caller.
    pub fn seed_once(
        &self,
        n_iters: u64,
        seed: impl FnOnce() -> (Vec<Vec<MicroRange>>, Vec<u64>),
    ) -> bool {
        let mut state = self.state.lock();
        if state.seeded {
            return false;
        }
        let (deques, iter_cost) = seed();
        state.iter_cost = iter_cost;
        state.deques = deques
            .into_iter()
            .map(std::collections::VecDeque::from)
            .collect();
        state.n_iters = n_iters;
        state.seeded = true;
        true
    }

    /// Pops the next range for worker `pid`, whose program state currently
    /// sits at iteration `state_at`. Own deque first (front); then the back
    /// of the most-loaded victim — preferring forward ranges, and the final
    /// range only when nothing else is left. `None` means the replay's
    /// range pool is exhausted for this worker.
    ///
    /// `rewind_ok` says whether this worker can take a range *behind* its
    /// current state: rewinding means re-initializing from iteration 0 on
    /// the strength of checkpoint restores, so it is only sound while
    /// checkpoints are reusable. Poisoned reuse (`force_execute_all`) must
    /// pass `false` — the init phase then re-executes for real, and
    /// re-executing a prefix from an already-advanced program state
    /// corrupts it. Forward-only workers may retire while victims still
    /// hold backward work; owners always drain their own deques in order,
    /// so no range is orphaned.
    pub fn next(&self, pid: usize, state_at: u64, rewind_ok: bool) -> Option<NextRange> {
        let mut state = self.state.lock();
        if let Some(r) = state.deques.get_mut(pid).and_then(|d| d.pop_front()) {
            return Some(NextRange {
                range: r,
                stolen: false,
            });
        }
        let n = state.n_iters;
        // Candidate victims by remaining load (seed-cost weighted — under
        // skew the straggler is whoever holds the expensive ranges, not
        // the most iterations), descending.
        let mut victims: Vec<usize> = (0..state.deques.len())
            .filter(|&v| v != pid && !state.deques[v].is_empty())
            .collect();
        victims.sort_by_key(|&v| {
            std::cmp::Reverse(
                state.deques[v]
                    .iter()
                    .map(|r| state.range_cost(r))
                    .sum::<u64>(),
            )
        });
        // Three passes: forward steals of non-final ranges, then backward
        // ones, then — nothing else left anywhere — the final range, whose
        // thief will retire holding the final program state. A backward
        // steal of a range starting at 0 is never allowed for a worker
        // already past it: there is no checkpoint before iteration 0 to
        // rewind to. With `rewind_ok` false, *no* backward steal is — the
        // worker cannot rebuild earlier state at all.
        for (forward_only, allow_final) in [(true, false), (false, false), (false, true)] {
            for &vid in &victims {
                let deque = &mut state.deques[vid];
                // From the back: the work farthest from the victim's own
                // position, which it would have reached last anyway.
                let idx = deque
                    .iter()
                    .enumerate()
                    .rev()
                    .find(|(_, r)| {
                        (allow_final || r.end != n)
                            && (!forward_only || r.start >= state_at)
                            && ((rewind_ok && r.start > 0) || r.start >= state_at)
                    })
                    .map(|(i, _)| i);
                if let Some(i) = idx {
                    let r = deque.remove(i).expect("index in bounds");
                    self.steals
                        .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    flor_obs::instant(flor_obs::Category::Steal, "steal", r.start, r.end);
                    return Some(NextRange {
                        range: r,
                        stolen: true,
                    });
                }
            }
        }
        None
    }

    /// Ranges stolen so far.
    pub fn steals(&self) -> u64 {
        self.steals.load(std::sync::atomic::Ordering::Relaxed)
    }
}

/// Cooperative cancellation flag shared between a replay's driver and its
/// workers. Workers poll it at range-pull and per-iteration boundaries and
/// bail out with [`crate::FlorError::Cancelled`]; setting it never blocks,
/// so it is safe to fire from an event loop or signal-adjacent context.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: std::sync::Arc<std::sync::atomic::AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-fired token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Requests cancellation. Idempotent; wakes nothing by itself —
    /// workers notice at their next poll point.
    pub fn cancel(&self) {
        self.flag.store(true, std::sync::atomic::Ordering::Release);
    }

    /// True once [`CancelToken::cancel`] has been called on any clone.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(std::sync::atomic::Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_covering(n: u64, plans: &[WorkerPlan]) {
        let mut covered = Vec::new();
        for p in plans {
            assert!(p.work_start <= p.work_end);
            covered.extend(p.work_iters());
        }
        covered.sort_unstable();
        assert_eq!(
            covered,
            (0..n).collect::<Vec<_>>(),
            "plans must cover 0..{n} disjointly"
        );
    }

    #[test]
    fn even_partition() {
        let plans = plan(8, 4, InitMode::Strong);
        assert_eq!(plans.len(), 4);
        for p in &plans {
            assert_eq!(p.work_len(), 2);
        }
        assert_covering(8, &plans);
    }

    #[test]
    fn uneven_partition_front_loads_extras() {
        let plans = plan(10, 4, InitMode::Strong);
        let lens: Vec<u64> = plans.iter().map(WorkerPlan::work_len).collect();
        assert_eq!(lens, vec![3, 3, 2, 2]);
        assert_covering(10, &plans);
    }

    #[test]
    fn more_workers_than_iterations() {
        let plans = plan(3, 8, InitMode::Strong);
        assert_eq!(
            plans.len(),
            3,
            "workers beyond the iteration count are dropped"
        );
        assert_covering(3, &plans);
    }

    #[test]
    fn strong_init_reaches_back_to_zero() {
        let plans = plan(8, 4, InitMode::Strong);
        assert_eq!(plans[0].init_len(), 0);
        assert_eq!(plans[1].init_iters(), 0..2);
        assert_eq!(plans[3].init_iters(), 0..6);
    }

    #[test]
    fn weak_init_is_single_iteration() {
        let plans = plan(8, 4, InitMode::Weak);
        assert_eq!(plans[0].init_len(), 0);
        for p in &plans[1..] {
            assert_eq!(p.init_len(), 1);
            assert_eq!(p.init_start, p.work_start - 1);
        }
    }

    #[test]
    fn figure13_rsnt_bound() {
        // 200 epochs on 16 GPUs → max share ⌈200/16⌉ = 13 → 15.38×.
        let s = max_speedup(200, 16);
        assert!((s - 200.0 / 13.0).abs() < 1e-9);
        assert!((s - 15.3846).abs() < 1e-3);
    }

    #[test]
    fn figure10_rte_bound() {
        // 6 epoch-partitions on 4 GPUs → best replay time 2/6 = 33%.
        let s = max_speedup(6, 4);
        assert!((s - 3.0).abs() < 1e-9, "6/⌈6/4⌉ = 3 → 33% of vanilla");
    }

    #[test]
    fn single_worker_is_identity() {
        let plans = plan(5, 1, InitMode::Strong);
        assert_eq!(plans.len(), 1);
        assert_eq!(plans[0].work_iters(), 0..5);
        assert_eq!(plans[0].init_len(), 0);
        assert_eq!(max_speedup(5, 1), 1.0);
    }

    #[test]
    fn degenerate_inputs() {
        assert!(plan(0, 4, InitMode::Strong).is_empty());
        assert!(plan(4, 0, InitMode::Strong).is_empty());
        assert_eq!(max_speedup(0, 4), 1.0);
    }

    #[test]
    fn workers_exceed_iterations_in_both_modes() {
        // G > n: exactly n single-iteration plans, ids 0..n, regardless of
        // how extreme the ratio is.
        for (n, g) in [(1u64, 2usize), (1, 64), (3, 8), (5, 1000)] {
            for mode in [InitMode::Strong, InitMode::Weak] {
                let plans = plan(n, g, mode);
                assert_eq!(plans.len(), n as usize, "n={n} g={g} {mode:?}");
                assert_covering(n, &plans);
                for (i, p) in plans.iter().enumerate() {
                    assert_eq!(p.pid, i);
                    assert_eq!(p.work_len(), 1, "n={n} g={g}: every share is one iter");
                }
                // Speedup saturates at n when workers outnumber iterations.
                assert!((max_speedup(n, g) - n as f64).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn zero_iterations_yield_no_plans_in_both_modes() {
        for g in [0usize, 1, 4, 64] {
            assert!(plan(0, g, InitMode::Strong).is_empty());
            assert!(plan(0, g, InitMode::Weak).is_empty());
        }
        assert!(plan_anchored(0, &std::collections::BTreeSet::from([0]), 4).is_empty());
        assert_eq!(max_speedup(0, 0), 1.0);
    }

    #[test]
    fn single_worker_degenerate_plan_has_no_init_segment() {
        for n in [1u64, 2, 7, 100] {
            for mode in [InitMode::Strong, InitMode::Weak] {
                let plans = plan(n, 1, mode);
                assert_eq!(plans.len(), 1, "n={n} {mode:?}");
                let p = &plans[0];
                assert_eq!(p.pid, 0);
                assert_eq!(p.work_iters(), 0..n);
                assert_eq!(p.init_len(), 0, "worker 0 never initializes");
                assert_eq!(p.init_iters(), 0..0);
            }
        }
    }

    #[test]
    fn one_iteration_many_workers_single_plan() {
        let plans = plan(1, 16, InitMode::Weak);
        assert_eq!(plans.len(), 1);
        assert_eq!(plans[0].work_iters(), 0..1);
        assert_eq!(plans[0].init_len(), 0);
    }

    #[test]
    fn anchored_plan_respects_boundaries() {
        use std::collections::BTreeSet;
        // Checkpoints every 15 iterations of 90 → anchors 0,15,30,…,75.
        let anchors: BTreeSet<u64> = (0..6).map(|i| i * 15).collect();
        let plans = plan_anchored(90, &anchors, 4);
        assert!(!plans.is_empty());
        assert_covering(90, &plans);
        for p in &plans {
            assert!(
                anchors.contains(&p.work_start),
                "work_start {} must be an anchor",
                p.work_start
            );
            if p.work_start > 0 {
                assert_eq!(p.init_start, p.work_start - 1);
            }
        }
    }

    #[test]
    fn anchored_plan_limits_parallelism_to_segments() {
        use std::collections::BTreeSet;
        // 6 checkpoint intervals (RTE-style) over 4 workers → ≤ 4 plans,
        // the largest covering at least 2 intervals.
        let anchors: BTreeSet<u64> = (0..6).map(|i| i * 33).collect();
        let plans = plan_anchored(198, &anchors, 4);
        assert!(plans.len() <= 4);
        assert_covering(198, &plans);
        let largest = plans.iter().map(WorkerPlan::work_len).max().unwrap();
        assert!(
            largest >= 66,
            "largest share {largest} covers ≥ 2 intervals"
        );
    }

    #[test]
    fn anchored_plan_under_extreme_interval_skew() {
        use std::collections::BTreeSet;
        // One checkpoint interval spans 1000 iterations, the rest are
        // single-iteration: plans must still cover disjointly, start on
        // anchors, and give the giant interval to exactly one worker.
        let mut anchors: BTreeSet<u64> = (0..5).collect(); // 0..4 singles
        anchors.insert(1004); // then [4, 1004) is one giant interval
        let n = 1008;
        for workers in [2usize, 4, 16] {
            let plans = plan_anchored(n, &anchors, workers);
            assert_covering(n, &plans);
            for p in &plans {
                assert!(anchors.contains(&p.work_start) || p.work_start == 0);
                assert!(p.work_len() > 0, "no empty plans under skew");
            }
            let giant = plans
                .iter()
                .filter(|p| p.work_iters().contains(&500))
                .count();
            assert_eq!(giant, 1, "the giant interval is atomic");
        }
        // More workers than segments: capped at the segment count.
        let plans = plan_anchored(n, &anchors, 64);
        assert!(plans.len() <= 6);
        assert_covering(n, &plans);
    }

    #[test]
    fn anchored_plan_with_dense_anchors_matches_plain() {
        use std::collections::BTreeSet;
        let anchors: BTreeSet<u64> = (0..20).collect();
        let plans = plan_anchored(20, &anchors, 4);
        assert_covering(20, &plans);
        assert_eq!(plans.len(), 4);
    }

    #[test]
    fn anchored_plan_single_anchor_is_sequential() {
        use std::collections::BTreeSet;
        let anchors: BTreeSet<u64> = [0].into_iter().collect();
        let plans = plan_anchored(10, &anchors, 4);
        assert_eq!(plans.len(), 1, "no checkpoints → no parallelism");
        assert_covering(10, &plans);
    }

    // ---- micro-range splitter & work-stealing queue ------------------------

    fn assert_ranges_cover(n: u64, ranges: &[MicroRange]) {
        let mut covered = Vec::new();
        for r in ranges {
            assert!(r.start < r.end, "no empty ranges: {r:?}");
            covered.extend(r.iters());
        }
        covered.sort_unstable();
        assert_eq!(
            covered,
            (0..n).collect::<Vec<_>>(),
            "ranges must cover 0..{n}"
        );
    }

    #[test]
    fn uniform_split_covers_and_balances() {
        let costs = vec![10u64; 64];
        let ranges = seed_cost_ranges(64, 4, &costs, None).concat();
        assert_ranges_cover(64, &ranges);
        assert!(
            ranges.len() >= 8 && ranges.len() <= 64,
            "uniform costs → several ranges per worker, got {}",
            ranges.len()
        );
    }

    #[test]
    fn skewed_split_isolates_expensive_iterations() {
        // One iteration 1000× the rest: it must land in a range of its own,
        // so a steal can move everything around it.
        let mut costs = vec![1u64; 32];
        costs[17] = 1000;
        let ranges = seed_cost_ranges(32, 4, &costs, None).concat();
        assert_ranges_cover(32, &ranges);
        let heavy = ranges
            .iter()
            .find(|r| r.iters().contains(&17))
            .expect("iteration 17 covered");
        assert_eq!(
            (heavy.start, heavy.end),
            (17, 18),
            "the 1000× iteration stands alone: {heavy:?}"
        );
    }

    #[test]
    fn zero_cost_iterations_do_not_degenerate_the_split() {
        let costs = vec![0u64; 20];
        let ranges = seed_cost_ranges(20, 4, &costs, None).concat();
        assert_ranges_cover(20, &ranges);
        // Zero costs are floored to 1, so the split is the uniform one, not
        // a single all-covering range and not 20 singletons per worker.
        assert!(ranges.len() > 1, "zero costs must not collapse the split");
    }

    #[test]
    fn split_with_more_workers_than_iterations() {
        let ranges = seed_cost_ranges(3, 16, &[5, 5, 5], None).concat();
        assert_ranges_cover(3, &ranges);
        assert_eq!(ranges.len(), 3, "one singleton range per iteration");
    }

    #[test]
    fn split_without_profile_falls_back_to_uniform() {
        // Empty cost slice = profile missing: every iteration costs 1.
        let ranges = seed_cost_ranges(40, 4, &[], None).concat();
        assert_ranges_cover(40, &ranges);
        let lens: Vec<u64> = ranges.iter().map(MicroRange::len).collect();
        let (min, max) = (lens.iter().min().unwrap(), lens.iter().max().unwrap());
        assert!(max - min <= 2, "uniform fallback stays balanced: {lens:?}");
    }

    #[test]
    fn split_with_partial_profile_costs_missing_iterations_at_mean() {
        // Profile covers only the first 4 of 16 iterations (e.g. a block
        // whose loop ran longer at replay than at record).
        let costs = vec![100u64, 100, 100, 100];
        let ranges = seed_cost_ranges(16, 2, &costs, None).concat();
        assert_ranges_cover(16, &ranges);
        assert!(ranges.len() >= 4);
    }

    #[test]
    fn anchored_split_respects_boundaries_under_skew() {
        use std::collections::BTreeSet;
        let anchors: BTreeSet<u64> = [0u64, 10, 20, 30].into_iter().collect();
        let mut costs = vec![1u64; 40];
        costs[5] = 1000; // heavy iteration inside the first interval
        let ranges = seed_cost_ranges(40, 4, &costs, Some(&anchors)).concat();
        assert_ranges_cover(40, &ranges);
        for r in &ranges {
            assert!(
                anchors.contains(&r.start),
                "range start {} must be an anchor",
                r.start
            );
        }
        // The heavy interval [0,10) cannot be split below the anchor
        // granularity — it stands alone instead.
        let heavy = ranges.iter().find(|r| r.iters().contains(&5)).unwrap();
        assert_eq!((heavy.start, heavy.end), (0, 10));
    }

    #[test]
    fn degenerate_split_inputs() {
        assert!(seed_cost_ranges(0, 4, &[], None).concat().is_empty());
        assert!(seed_cost_ranges(4, 0, &[], None).concat().is_empty());
    }

    #[test]
    fn seeding_is_contiguous_and_cost_balanced() {
        let mut costs = vec![1u64; 24];
        for c in costs.iter_mut().take(24).skip(20) {
            *c = 50; // tail-heavy skew
        }
        let deques = seed_cost_ranges(24, 4, &costs, None);
        assert_eq!(deques.len(), 4);
        // Contiguity: each deque's ranges chain, and deques chain globally.
        let mut pos = 0u64;
        for d in &deques {
            for r in d {
                assert_eq!(r.start, pos, "seeded ranges must chain contiguously");
                pos = r.end;
            }
        }
        assert_eq!(pos, 24);
        // Cost balance: the heavy tail is not all on one worker.
        let worker_cost = |d: &Vec<MicroRange>| -> u64 {
            d.iter()
                .flat_map(MicroRange::iters)
                .map(|g| costs[g as usize])
                .sum()
        };
        let max = deques.iter().map(worker_cost).max().unwrap();
        let total: u64 = costs.iter().sum();
        assert!(
            max <= total / 2,
            "seeding must spread cost: max {max} of total {total}"
        );
    }

    #[test]
    fn seeding_uniform_costs_reproduces_static_shares() {
        // On uniform costs the cost-balanced seeding must hand each worker
        // exactly the share the static planner would — stealing ties, it
        // never loses ground to seeding noise.
        let deques = seed_cost_ranges(200, 16, &[], None);
        let plans = plan(200, 16, InitMode::Strong);
        for (pid, plan) in plans.iter().enumerate() {
            let first = deques[pid].first().unwrap();
            let last = deques[pid].last().unwrap();
            assert_eq!(
                (first.start, last.end),
                (plan.work_start, plan.work_end),
                "worker {pid} share"
            );
        }
    }

    #[test]
    fn seed_with_more_workers_than_ranges_leaves_empty_deques() {
        let deques = seed_cost_ranges(3, 8, &[], None);
        assert_eq!(deques.len(), 8);
        let non_empty = deques.iter().filter(|d| !d.is_empty()).count();
        assert_eq!(non_empty, 3);
    }

    #[test]
    fn queue_steals_from_most_loaded_victim_back() {
        let q = RangeQueue::new(2);
        q.seed_once(8, || {
            (
                vec![
                    vec![MicroRange { start: 0, end: 1 }],
                    vec![
                        MicroRange { start: 1, end: 3 },
                        MicroRange { start: 3, end: 5 },
                        MicroRange { start: 5, end: 8 },
                    ],
                ],
                Vec::new(),
            )
        });
        let own = q.next(0, 0, true).unwrap();
        assert!(!own.stolen);
        // Worker 0 drained: steals from worker 1's back, skipping the
        // pinned final range (5..8).
        let stolen = q.next(0, 1, true).unwrap();
        assert!(stolen.stolen);
        assert_eq!(stolen.range, MicroRange { start: 3, end: 5 });
        assert_eq!(q.steals(), 1);
        // The final range stays with its owner.
        let r1 = q.next(1, 0, true).unwrap();
        assert_eq!(r1.range, MicroRange { start: 1, end: 3 });
        let r2 = q.next(1, 3, true).unwrap();
        assert_eq!(r2.range, MicroRange { start: 5, end: 8 });
        assert!(!r2.stolen);
        // Nothing left for the thief: the final range is not stealable.
        assert_eq!(q.next(0, 5, true), None);
    }

    #[test]
    fn queue_prefers_forward_steals() {
        let q = RangeQueue::new(3);
        q.seed_once(9, || {
            (
                vec![
                    vec![MicroRange { start: 0, end: 3 }],
                    vec![MicroRange { start: 3, end: 6 }],
                    vec![MicroRange { start: 6, end: 9 }],
                ],
                Vec::new(),
            )
        });
        // Worker 2 takes its own (final) range first, then sits at state 9;
        // both remaining ranges are behind it — the backward pass still
        // serves one rather than idling the worker.
        assert!(!q.next(2, 0, true).unwrap().stolen);
        let behind = q.next(2, 9, true).unwrap();
        assert!(behind.stolen);
        // Worker 0 at state 0: 3..6 is ahead, preferred over nothing.
        let ahead = q.next(0, 0, true);
        let _ = ahead; // whichever range remains, it must be servable
    }

    #[test]
    fn no_backward_steals_without_rewind() {
        // With rewinds impossible (poisoned reuse: init re-executes instead
        // of restoring), a worker past a range must never be handed it.
        let q = RangeQueue::new(3);
        q.seed_once(9, || {
            (
                vec![
                    vec![MicroRange { start: 0, end: 3 }],
                    vec![
                        MicroRange { start: 3, end: 6 },
                        MicroRange { start: 6, end: 9 },
                    ],
                    vec![],
                ],
                Vec::new(),
            )
        });
        // Worker 2 (empty deque) steals forward work.
        let s = q.next(2, 0, false).unwrap();
        assert!(s.stolen);
        assert_eq!(s.range, MicroRange { start: 3, end: 6 });
        // At state 6 the only forward range is the final one: served as
        // last resort.
        let f = q.next(2, 6, false).unwrap();
        assert_eq!(f.range, MicroRange { start: 6, end: 9 });
        // At state 9 the remaining range 0..3 is behind — forward-only
        // returns None and the owner keeps its work.
        assert_eq!(q.next(2, 9, false), None);
        assert!(!q.next(0, 0, false).unwrap().stolen);
    }

    #[test]
    fn final_range_is_stolen_only_as_last_resort() {
        let q = RangeQueue::new(2);
        q.seed_once(6, || {
            (
                vec![
                    vec![MicroRange { start: 0, end: 2 }],
                    vec![
                        MicroRange { start: 2, end: 4 },
                        MicroRange { start: 4, end: 6 },
                    ],
                ],
                Vec::new(),
            )
        });
        assert!(!q.next(0, 0, true).unwrap().stolen);
        // Non-final work is preferred even though the final range sits at
        // the victim's back.
        let s1 = q.next(0, 2, true).unwrap();
        assert_eq!(s1.range, MicroRange { start: 2, end: 4 });
        assert!(s1.stolen);
        // Nothing else left anywhere: the final range is handed out so an
        // idle worker can absorb a heavy tail (its thief retires with the
        // final program state).
        let s2 = q.next(0, 4, true).unwrap();
        assert_eq!(s2.range, MicroRange { start: 4, end: 6 });
        assert!(s2.stolen);
        assert_eq!(q.next(1, 0, true), None, "owner finds its deque emptied");
    }

    #[test]
    fn queue_seed_once_is_idempotent() {
        let q = RangeQueue::new(1);
        assert!(q.seed_once(2, || (
            vec![vec![MicroRange { start: 0, end: 2 }]],
            Vec::new()
        )));
        assert!(!q.seed_once(2, || panic!("second seed must not run")));
        assert_eq!(
            q.next(0, 0, true).unwrap().range,
            MicroRange { start: 0, end: 2 }
        );
    }

    #[test]
    fn profiled_bound_tightens_under_skew_and_matches_uniform() {
        // Uniform: the continuous relaxation — total/(total/G) = G — which
        // upper-bounds the integral count-based bound.
        let uniform = vec![7u64; 200];
        let u = max_speedup_profiled(&uniform, 16);
        assert!((u - 16.0).abs() < 1e-9, "uniform bound {u}");
        assert!(u >= max_speedup(200, 16));
        // Skew: one iteration dominates — bound collapses toward total/max.
        let mut skewed = vec![1u64; 100];
        skewed[0] = 1000;
        let b = max_speedup_profiled(&skewed, 16);
        assert!((b - 1099.0 / 1000.0).abs() < 1e-9, "bound {b}");
        assert!(b < max_speedup(100, 16), "profile-aware bound is tighter");
        // Degenerate inputs.
        assert_eq!(max_speedup_profiled(&[], 4), 1.0);
        assert_eq!(max_speedup_profiled(&[5], 0), 1.0);
    }

    #[test]
    fn property_partitions_cover_for_many_shapes() {
        for n in [1u64, 2, 3, 7, 16, 100, 200] {
            for g in [1usize, 2, 3, 4, 5, 16, 64] {
                let plans = plan(n, g, InitMode::Strong);
                assert_covering(n, &plans);
                let plans = plan(n, g, InitMode::Weak);
                assert_covering(n, &plans);
            }
        }
    }
}
