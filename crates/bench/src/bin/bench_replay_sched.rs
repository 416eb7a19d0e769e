//! Emits `BENCH_replay_sched.json`: the cost-aware work-stealing replay
//! scheduler priced against the paper's §5.4 static contiguous
//! partitioning model (`parallel::plan` — a model only: the engine has one
//! scheduler).
//!
//! Three number groups:
//!
//! - `*_live`: real threaded replays of the fixtures (wall-clock, steals,
//!   time-to-first-streamed-entry), with `host_cores` recorded so the
//!   numbers can be read in context.
//! - `schedule`: the host-independent makespans each schedule implies,
//!   priced with the fixture's **live-recorded** cost profile; the
//!   stealing side runs the same splitter/seeding/queue code the executor
//!   does. `skewed_steal_speedup` (held to ≥1.5×) and
//!   `uniform_schedule_delta` (held to ≤5%) come from here.
//! - `sim_paper_scale`: the same comparison at Figure 13 magnitudes
//!   (200 epochs, 16 workers) via `flor_sim::sched_sim`.
//!
//! ```text
//! cargo run --release -p flor-bench --bin bench_replay_sched [-- OUT.json]
//! ```
//!
//! Quick mode (`FLOR_BENCH_QUICK=1`, used by `tools/bench.sh` in CI)
//! shrinks the spin units so the smoke run finishes in a couple seconds.

use flor_bench::replay_sched::{skewed_script, SchedFixture, SchedMeasurement};
use flor_sim::sched_sim;
use std::fmt::Write as _;

fn json_measurement(out: &mut String, m: &SchedMeasurement) {
    let _ = write!(
        out,
        "{{\"median_wall_ns\": {}, \"steals\": {}, \"ranges_executed\": {}, \
         \"stream_first_entry_ns\": {}}}",
        m.median_wall_ns, m.steals, m.ranges_executed, m.stream_first_entry_ns
    );
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_replay_sched.json".to_string());
    let quick = std::env::var("FLOR_BENCH_QUICK")
        .map(|v| v != "0")
        .unwrap_or(false);
    // light/heavy spin units (busy(u) ≈ 0.155ms·u per batch × 3 batches)
    // and measurement repetitions.
    let (light, heavy, reps) = if quick { (8u64, 80, 1) } else { (40, 400, 3) };
    let (epochs, tail, workers) = (12u64, 2u64, 4usize);
    let host_cores = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);

    eprintln!("recording skewed fixture ({epochs} epochs, {tail}-epoch tail at {heavy} units)…");
    let skewed = SchedFixture::build("skew", &skewed_script(epochs, light, heavy, tail));
    eprintln!("recording uniform fixture…");
    let uniform = SchedFixture::build("uniform", &skewed_script(epochs, light, light, 0));

    eprintln!("replaying both fixtures live ({reps} rep(s))…");
    let skew_live = skewed.measure(workers, reps);
    let uni_live = uniform.measure(workers, reps);

    // Host-independent schedule makespans from the live-recorded profiles.
    let skew_sched = skewed.schedule_compare(workers);
    let uni_sched = uniform.schedule_compare(workers);
    let uni_sched_delta =
        uni_sched.steal_makespan_ns as f64 / uni_sched.static_makespan_ns.max(1) as f64 - 1.0;

    // Paper-scale simulation (Figure 13 shape with a tail skew), driving
    // the same splitter/queue the live engine uses.
    let sim_costs = sched_sim::tail_skew(200, 30.0, 20, 8.0);
    let sim = sched_sim::compare(&sim_costs, 16);

    let mut body = String::new();
    let _ = writeln!(body, "{{");
    let _ = writeln!(body, "  \"bench\": \"replay_sched\",");
    let _ = writeln!(
        body,
        "  \"description\": \"replay scheduling, the cost-aware work-stealing executor with \
         streaming merge priced against the paper's static contiguous partitioning model; \
         inner-probed replay of a tail-skewed training run, {workers} workers. 'schedule' prices \
         each assignment with the live-recorded cost profile (host-independent); the live \
         columns additionally reflect host parallelism (host_cores)\","
    );
    let _ = writeln!(body, "  \"quick\": {quick},");
    let _ = writeln!(body, "  \"host_cores\": {host_cores},");
    let _ = writeln!(
        body,
        "  \"fixture\": {{\"epochs\": {epochs}, \"heavy_tail_epochs\": {tail}, \
         \"light_units\": {light}, \"heavy_units\": {heavy}, \"workers\": {workers}, \
         \"reps\": {reps}}},"
    );
    let _ = write!(body, "  \"skewed_live\": ");
    json_measurement(&mut body, &skew_live);
    let _ = writeln!(body, ",");
    let _ = write!(body, "  \"uniform_live\": ");
    json_measurement(&mut body, &uni_live);
    let _ = writeln!(body, ",");
    let _ = writeln!(
        body,
        "  \"schedule\": {{\"skewed_static_makespan_ns\": {}, \"skewed_steal_makespan_ns\": {}, \
         \"skewed_steal_speedup\": {:.2}, \"skewed_profile_bound\": {:.2}, \
         \"uniform_static_makespan_ns\": {}, \"uniform_steal_makespan_ns\": {}, \
         \"uniform_schedule_delta\": {:.4}}},",
        skew_sched.static_makespan_ns,
        skew_sched.steal_makespan_ns,
        skew_sched.speedup,
        skew_sched.bound,
        uni_sched.static_makespan_ns,
        uni_sched.steal_makespan_ns,
        uni_sched_delta,
    );
    let _ = writeln!(
        body,
        "  \"skewed_steal_speedup\": {:.2},",
        skew_sched.speedup
    );
    let _ = writeln!(
        body,
        "  \"sim_paper_scale\": {{\"epochs\": 200, \"workers\": 16, \"tail\": \"20 epochs × 8\", \
         \"static_secs\": {:.1}, \"steal_secs\": {:.1}, \"improvement\": {:.2}, \
         \"profile_bound\": {:.2}, \"steals\": {}}}",
        sim.static_secs, sim.steal_secs, sim.improvement, sim.bound, sim.steals
    );
    let _ = writeln!(body, "}}");

    std::fs::write(&out_path, &body).expect("write BENCH_replay_sched.json");
    eprintln!(
        "schedule (profile-priced): static {:.1}ms vs stealing {:.1}ms — {:.2}x (bound {:.2}); \
         uniform schedule delta {:+.2}%",
        skew_sched.static_makespan_ns as f64 / 1e6,
        skew_sched.steal_makespan_ns as f64 / 1e6,
        skew_sched.speedup,
        skew_sched.bound,
        uni_sched_delta * 100.0,
    );
    eprintln!(
        "live ({host_cores} core(s)): skewed {:.1}ms ({} steal(s), first streamed entry after \
         {:.1}ms); uniform {:.1}ms",
        skew_live.median_wall_ns as f64 / 1e6,
        skew_live.steals,
        skew_live.stream_first_entry_ns as f64 / 1e6,
        uni_live.median_wall_ns as f64 / 1e6,
    );
    eprintln!("wrote {out_path}");
}
