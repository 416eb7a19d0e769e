//! Replay-scheduler benchmark: the cost-aware work-stealing executor
//! against the paper's §5.4 static contiguous partitioning model.
//!
//! The fixture is a training script whose per-epoch compute is skewed by a
//! data-dependent `busy(units)` spin (cheap warmup epochs, a heavy tail —
//! the shape of eval epochs and LR-phase changes). Replaying it with an
//! inner probe forces re-execution, so replay cost mirrors the recorded
//! skew; a static plan hands one worker the whole heavy tail while the
//! work-stealing runtime splits it into profile-sized micro-ranges.
//!
//! Two kinds of numbers come out:
//!
//! - **live** wall-clock, steal and streaming metrics from real threaded
//!   replays (`host_cores` is recorded next to them: CPU-bound workers
//!   serialize on a host with fewer cores than workers);
//! - **schedule makespans**: the worker-completion times implied by each
//!   scheduler's assignment, priced with the fixture's *live-recorded*
//!   per-epoch cost profile — `parallel::plan` for the static model, the
//!   executor's own splitter/seeding/queue code for stealing. This is the
//!   host-independent number `BENCH_replay_sched.json` is held to (≥1.5×
//!   on the skewed fixture, parity on uniform).

use flor_chkpt::CheckpointStore;
use flor_core::profile::{CostProfile, COST_PROFILE_ARTIFACT};
use flor_core::record::{record, RecordOptions};
use flor_core::replay::{replay_with_store, ReplayOptions};
use flor_sim::sched_sim;
use std::path::PathBuf;
use std::sync::Arc;

/// Builds the fixture training script: `epochs` main-loop epochs over 3
/// batches each; epochs `>= epochs - heavy_tail` spin `heavy_units` per
/// batch instead of `light_units`.
pub fn skewed_script(epochs: u64, light_units: u64, heavy_units: u64, heavy_tail: u64) -> String {
    format!(
        "\
import flor
data = synth_data(n=30, dim=6, classes=2, seed=5)
loader = dataloader(data, batch_size=10, seed=5)
net = mlp(input=6, hidden=8, classes=2, depth=1, seed=5)
optimizer = sgd(net, lr=0.1)
criterion = cross_entropy()
avg = meter()
for epoch in flor.partition(range({epochs})):
    units = {light_units}
    if epoch > {cutoff}:
        units = {heavy_units}
    avg.reset()
    for batch in loader.epoch():
        w = busy(units)
        optimizer.zero_grad()
        preds = net.forward(batch)
        loss = criterion.forward(preds, batch)
        grad = criterion.backward()
        net.backward(grad)
        optimizer.step()
        avg.update(loss)
    log(\"loss\", avg.mean())
acc = evaluate(net, data)
log(\"accuracy\", acc)
",
        cutoff = epochs - heavy_tail.min(epochs) - 1,
    )
}

/// A recorded fixture ready to replay.
pub struct SchedFixture {
    root: PathBuf,
    probed: String,
    store: Arc<CheckpointStore>,
}

/// One measured replay configuration (median over the reps).
#[derive(Debug, Clone, Copy)]
pub struct SchedMeasurement {
    /// Median wall-clock of the replay, ns.
    pub median_wall_ns: u64,
    /// Micro-ranges stolen (from the median rep).
    pub steals: u64,
    /// Micro-ranges executed (from the median rep).
    pub ranges_executed: u64,
    /// Time-to-first streamed record-order entry, ns (median rep).
    pub stream_first_entry_ns: u64,
}

impl SchedFixture {
    /// Records the script (adaptivity off — deterministic checkpoint
    /// placement) into a throwaway store.
    pub fn build(tag: &str, src: &str) -> SchedFixture {
        let root =
            std::env::temp_dir().join(format!("flor-bench-sched-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let mut opts = RecordOptions::new(&root);
        opts.adaptive = false;
        record(src, &opts).expect("record fixture");
        // The second probe reads `w`: unread, `w = busy(units)` is dead and
        // the slicer would elide it — and the skew under test with it.
        let probed = src.replace(
            "        optimizer.step()\n",
            "        optimizer.step()\n        log(\"probe_gnorm\", net.grad_norm())\n        \
             log(\"probe_w\", w)\n",
        );
        assert_ne!(probed, src, "probe splice must match");
        let store = Arc::new(CheckpointStore::open(&root).expect("open fixture store"));
        SchedFixture {
            root,
            probed,
            store,
        }
    }

    /// Store root (for cleanup).
    pub fn root(&self) -> &PathBuf {
        &self.root
    }

    /// Replays the inner-probed fixture `reps` times with `workers`
    /// workers and reports the median-wall rep.
    pub fn measure(&self, workers: usize, reps: usize) -> SchedMeasurement {
        let opts = ReplayOptions::with_workers(workers);
        let mut runs: Vec<SchedMeasurement> = (0..reps.max(1))
            .map(|_| {
                let report =
                    replay_with_store(&self.probed, self.store.clone(), &opts).expect("replay");
                assert!(report.anomalies.is_empty(), "{:?}", report.anomalies);
                SchedMeasurement {
                    median_wall_ns: report.wall_ns,
                    steals: report.stats.steals,
                    ranges_executed: report.stats.ranges_executed,
                    stream_first_entry_ns: report.stats.stream_first_entry_ns,
                }
            })
            .collect();
        runs.sort_by_key(|m| m.median_wall_ns);
        runs[runs.len() / 2]
    }
}

/// Schedule-makespan comparison priced with a live-recorded profile.
#[derive(Debug, Clone, Copy)]
pub struct ScheduleComparison {
    /// Static contiguous partitioning (`parallel::plan`) makespan — the
    /// slowest worker's share — ns.
    pub static_makespan_ns: u64,
    /// Work-stealing executor makespan, ns.
    pub steal_makespan_ns: u64,
    /// static / steal.
    pub speedup: f64,
    /// Profile-aware upper bound on any schedule's speedup over one
    /// worker.
    pub bound: f64,
}

impl SchedFixture {
    /// Prices both schedulers' assignments with the fixture's recorded
    /// per-epoch costs (re-execution column — the inner probe forces
    /// execution), using the same planner/splitter/queue the live executor
    /// runs. Host-independent: this is what the live wall-clock converges
    /// to on a host with ≥ `workers` cores.
    pub fn schedule_compare(&self, workers: usize) -> ScheduleComparison {
        let text = String::from_utf8(
            self.store
                .get_artifact(COST_PROFILE_ARTIFACT)
                .expect("fixture profile"),
        )
        .expect("profile utf-8");
        let profile = CostProfile::parse_text(&text).expect("parse profile");
        let n = profile.len() as u64;
        let costs_secs: Vec<f64> = profile
            .replay_costs(n, true)
            .iter()
            .map(|&ns| ns as f64 / 1e9)
            .collect();
        let static_secs = sched_sim::static_makespan(&costs_secs, workers);
        let (steal_secs, _) = sched_sim::stealing_makespan(&costs_secs, workers, true);
        ScheduleComparison {
            static_makespan_ns: (static_secs * 1e9) as u64,
            steal_makespan_ns: (steal_secs * 1e9) as u64,
            speedup: static_secs / steal_secs.max(1e-12),
            bound: flor_core::parallel::max_speedup_profiled(
                &profile.replay_costs(n, true),
                workers,
            ),
        }
    }
}

impl Drop for SchedFixture {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixture_builds_and_measures() {
        let fixture = SchedFixture::build("test", &skewed_script(6, 1, 4, 2));
        let m = fixture.measure(2, 1);
        assert!(m.median_wall_ns > 0);
        assert!(m.ranges_executed >= 2);
    }

    #[test]
    fn skewed_script_marks_the_tail() {
        let src = skewed_script(12, 1, 30, 2);
        assert!(src.contains("if epoch > 9:"));
        assert!(src.contains("units = 30"));
    }
}
