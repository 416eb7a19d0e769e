//! Emits `BENCH_record.json`: caller-thread submit latency and blocked
//! time on Flor's fork-batched materializer, for the zero-copy pipeline
//! and the pre-refactor eager-copy baseline. This is the committed benchmark
//! trajectory for the record hot path — future PRs are held to it.
//!
//! ```text
//! cargo run --release -p flor-bench --bin bench_record_json [-- OUT.json]
//! ```
//!
//! Quick mode (`FLOR_BENCH_QUICK=1`, used by `tools/bench.sh` in CI)
//! shrinks the workload so the smoke run finishes in seconds.

use flor_bench::record_submit::{measure_submit, StateFixture, SubmitMeasurement, SubmitMode};
use std::fmt::Write as _;

fn json_measurement(out: &mut String, m: &SubmitMeasurement) {
    let _ = write!(
        out,
        "{{\"jobs\": {}, \"mean_submit_ns\": {}, \"median_submit_ns\": {}, \
         \"blocked_ns_total\": {}, \"group_commits\": {}}}",
        m.jobs, m.mean_submit_ns, m.median_submit_ns, m.blocked_ns_total, m.group_commits
    );
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_record.json".to_string());
    let quick = std::env::var("FLOR_BENCH_QUICK")
        .map(|v| v != "0")
        .unwrap_or(false);
    let (tensors, floats, jobs) = if quick {
        (8, 16 * 1024, 24)
    } else {
        (8, 64 * 1024, 64)
    };
    let fixture = StateFixture::new(tensors, floats);

    // Steady-state warmup: the process's first sustained measurement runs
    // up to ~1.5× slow (CPU frequency/quota ramp on shared hosts), which
    // used to land entirely on whichever configuration was measured first
    // (a committed 0.68× zero-copy "regression" was exactly this artifact,
    // not a pipeline cost). One discarded full-length
    // measurement absorbs it for every configuration equally. The ratio
    // printed below is a reading, not a gate: `record_submit::tests` pins
    // the deterministic property behind it (zero-copy leaves share the
    // tensor slabs).
    eprintln!("steady-state warmup…");
    let _ = measure_submit(&fixture, SubmitMode::EagerCopy, jobs, "steady-state-warmup");

    let mut body = String::new();
    let _ = writeln!(body, "{{");
    let _ = writeln!(body, "  \"bench\": \"record_submit\",");
    let _ = writeln!(
        body,
        "  \"description\": \"caller-thread cost per checkpoint on the fork-batched materializer \
         (snapshot build + submit); \
         zero_copy = lazy slab handles, eager_copy_prepr = pre-refactor to_bytes copies\","
    );
    let _ = writeln!(body, "  \"quick\": {quick},");
    let _ = writeln!(
        body,
        "  \"payload\": {{\"tensors\": {}, \"floats_per_tensor\": {}, \"raw_bytes\": {}}},",
        tensors,
        floats,
        fixture.raw_bytes()
    );
    // Alternate zero/eager reps and keep each mode's best: transient CPU
    // steal on shared hosts then cannot land on one mode only.
    let reps = if quick { 1 } else { 3 };
    let mut zero: Option<SubmitMeasurement> = None;
    let mut eager: Option<SubmitMeasurement> = None;
    for _ in 0..reps {
        let z = measure_submit(&fixture, SubmitMode::ZeroCopy, jobs, "json");
        let e = measure_submit(&fixture, SubmitMode::EagerCopy, jobs, "json");
        if zero
            .as_ref()
            .is_none_or(|b| z.mean_submit_ns < b.mean_submit_ns)
        {
            zero = Some(z);
        }
        if eager
            .as_ref()
            .is_none_or(|b| e.mean_submit_ns < b.mean_submit_ns)
        {
            eager = Some(e);
        }
    }
    let (zero, eager) = (zero.expect("reps >= 1"), eager.expect("reps >= 1"));
    let speedup = eager.mean_submit_ns as f64 / zero.mean_submit_ns.max(1) as f64;
    let _ = write!(body, "  \"zero_copy\": ");
    json_measurement(&mut body, &zero);
    let _ = write!(body, ",\n  \"eager_copy_prepr\": ");
    json_measurement(&mut body, &eager);
    let _ = writeln!(body, ",\n  \"mean_submit_speedup\": {speedup:.2}");
    eprintln!(
        "zero-copy mean {} ns/ckpt, eager (pre-PR) mean {} ns/ckpt — {:.2}x",
        zero.mean_submit_ns, eager.mean_submit_ns, speedup
    );
    let _ = writeln!(body, "}}");

    std::fs::write(&out_path, &body).expect("write BENCH_record.json");
    eprintln!("wrote {out_path}");
}
