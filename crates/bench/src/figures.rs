//! Figure regenerators (paper Figures 5, 7, 10–14).

use crate::util::{fmt_secs, fresh_dir, render_table};
use flor_chkpt::background::{BytesSnapshot, BATCH_OBJECTS};
use flor_chkpt::{BytesMut, CheckpointStore, Materializer, SerializeSnapshot};
use flor_core::parallel::{max_speedup, InitMode};
use flor_core::record::{record, run_vanilla, RecordOptions};
use flor_sim::cost::{machine, parallel_bill, serial_bill};
use flor_sim::{simulate_record, simulate_replay, ProbePosition, Workload, ALL_WORKLOADS};
use std::sync::Arc;

const EPSILON: f64 = 1.0 / 15.0;

/// A deliberately serialization-heavy snapshot: materialization cost is
/// dominated by encoding work, as in Python (the paper's 4.3× ratio).
struct HeavySnapshot {
    payload: Vec<u8>,
}

impl SerializeSnapshot for HeavySnapshot {
    fn serialize(&self) -> Vec<u8> {
        // Transform pass stands in for object-graph traversal + pickling.
        let mut out = Vec::with_capacity(self.payload.len());
        let mut acc = 0u8;
        for &b in &self.payload {
            acc = acc.wrapping_mul(31).wrapping_add(b);
            out.push(b ^ acc);
        }
        out
    }
    fn approx_bytes(&self) -> usize {
        self.payload.len()
    }
}

/// A snapshot that dispatches alone: it reports a full batch of objects,
/// so the fork-batched writer hands it to a worker at once, one job per
/// group commit — the per-job hand-off of Figure 5's two IPC strategies.
struct PerJob(Arc<dyn SerializeSnapshot>);

impl SerializeSnapshot for PerJob {
    fn serialize(&self) -> Vec<u8> {
        self.0.serialize()
    }
    fn serialize_into(&self, buf: &mut BytesMut) {
        self.0.serialize_into(buf)
    }
    fn approx_bytes(&self) -> usize {
        self.0.approx_bytes()
    }
    fn object_count(&self) -> usize {
        BATCH_OBJECTS
    }
}

/// Figure 5: main-thread blocked time per materialization strategy for an
/// RTE-style checkpoint. `payload_bytes` scales the experiment (the paper
/// used 1.1 GB; the harness default is 16 MiB so the experiment runs in
/// seconds — ratios, not magnitudes, are the result).
///
/// Flor's [`Materializer`] is the fork-batched writer only; the other three
/// bars are emulated over it. Baseline serializes and writes on the caller;
/// IPC-Queue serializes on the caller and hands the bytes off per job;
/// Plasma hands the snapshot handle off per job.
pub fn fig05(payload_bytes: usize) -> String {
    let mut payload = vec![0u8; payload_bytes];
    // Mixed compressible/incompressible content.
    let mut x = 0x2545F491u32;
    for (i, b) in payload.iter_mut().enumerate() {
        if i % 3 == 0 {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            *b = x as u8;
        }
    }
    let jobs = 6u64;
    let mut rows = Vec::new();
    let mut results = Vec::new();
    for (i, name) in [
        "Baseline (cloudpickle)",
        "IPC-Queue (multiprocessing)",
        "IPC-Plasma",
        "Fork (Flor)",
    ]
    .into_iter()
    .enumerate()
    {
        let store = Arc::new(CheckpointStore::open(fresh_dir(&format!("fig05-{i}"))).unwrap());
        let mat = Materializer::new(store.clone(), 2);
        // Caller-side work done outside `submit` (the strategies that
        // serialize on the training thread).
        let mut caller = std::time::Duration::ZERO;
        let t0 = std::time::Instant::now();
        for seq in 0..jobs {
            let snapshot: Arc<dyn SerializeSnapshot> = Arc::new(HeavySnapshot {
                payload: payload.clone(),
            });
            let t = std::time::Instant::now();
            match i {
                // Baseline: serialize and write on the caller.
                0 => {
                    store.put("ckpt", seq, &snapshot.serialize()).unwrap();
                    caller += t.elapsed();
                }
                // IPC-Queue: serialize on the caller, hand the bytes off.
                1 => {
                    let bytes = BytesSnapshot(snapshot.serialize());
                    caller += t.elapsed();
                    mat.submit("ckpt", seq, Arc::new(PerJob(Arc::new(bytes))));
                }
                // IPC-Plasma: hand the handle off, one job at a time.
                2 => mat.submit("ckpt", seq, Arc::new(PerJob(snapshot))),
                // Fork: Flor's writer, as production runs it.
                _ => mat.submit("ckpt", seq, snapshot),
            }
        }
        let main_elapsed = t0.elapsed().as_secs_f64();
        mat.flush().expect("checkpoint writes");
        let stats = mat.stats();
        let main_thread = caller.as_secs_f64() + stats.main_thread_ns as f64 / 1e9;
        results.push((name, main_thread));
        let commits = if i == 0 { jobs } else { stats.group_commits };
        rows.push(vec![
            name.to_string(),
            fmt_secs(main_thread),
            fmt_secs(main_elapsed),
            commits.to_string(),
        ]);
    }
    let mut out = format!(
        "payload: {} MiB × {jobs} checkpoints (paper: 1.1 GB × 10)\n",
        payload_bytes >> 20
    );
    out.push_str(&render_table(
        &[
            "strategy",
            "main-thread time",
            "submit wall",
            "store commits",
        ],
        &rows,
    ));
    let base = results[0].1;
    let fork = results[3].1;
    out.push_str(&format!(
        "fork main-thread time is {:.1}% of baseline (paper shape: fork ≪ queue < baseline)\n",
        100.0 * fork / base
    ));
    out
}

/// Figure 7: record overhead with adaptivity disabled vs enabled, per
/// workload, against the ε = 6.67% tolerance line.
pub fn fig07() -> String {
    let mut rows = Vec::new();
    for w in ALL_WORKLOADS {
        let off = simulate_record(w, EPSILON, false);
        let on = simulate_record(w, EPSILON, true);
        rows.push(vec![
            w.name.to_string(),
            format!("{:.1}%", off.overhead * 100.0),
            format!("{:.2}%", on.overhead * 100.0),
            on.checkpoints().to_string(),
            w.epochs.to_string(),
        ]);
    }
    let mut out = render_table(
        &[
            "workload",
            "adaptivity OFF",
            "adaptivity ON",
            "ckpts",
            "epochs",
        ],
        &rows,
    );
    out.push_str("tolerance line ε = 6.67%; paper extremes: RTE 91%, CoLA 28% (OFF)\n");
    out
}

/// Figure 10: parallel replay time as a fraction of vanilla on 4 GPUs,
/// inner probe (full re-execution), weak vs strong initialization.
pub fn fig10() -> String {
    let mut rows = Vec::new();
    for w in ALL_WORKLOADS {
        let rec = simulate_record(w, EPSILON, true);
        let weak = simulate_replay(w, &rec, ProbePosition::Inner, 4, InitMode::Weak);
        let strong = simulate_replay(w, &rec, ProbePosition::Inner, 4, InitMode::Strong);
        rows.push(vec![
            w.name.to_string(),
            format!("{:.1}%", weak.fraction_of_vanilla() * 100.0),
            format!("{:.1}%", strong.fraction_of_vanilla() * 100.0),
            format!("{:.1}%", 100.0 / max_speedup(w.epochs, 4)),
        ]);
    }
    let mut out = render_table(&["workload", "weak init", "strong init", "ideal"], &rows);
    out.push_str(
        "paper: near-ideal (25%) for epoch-rich workloads; RTE & CoLA floor at 2/6 = 33%\n",
    );
    out
}

/// Figure 11: record vs vanilla runtime per workload (paper scale), plus a
/// live miniature measurement through the real engine.
pub fn fig11() -> String {
    let mut rows = Vec::new();
    let mut sum = 0.0;
    for w in ALL_WORKLOADS {
        let sim = simulate_record(w, EPSILON, true);
        sum += sim.overhead;
        rows.push(vec![
            w.name.to_string(),
            format!("{:.2} h", sim.vanilla_secs / 3600.0),
            format!("{:.2} h", sim.record_secs / 3600.0),
            format!("{:.2}%", sim.overhead * 100.0),
        ]);
    }
    let mut out = render_table(&["workload", "vanilla", "record", "overhead"], &rows);
    out.push_str(&format!(
        "average simulated overhead: {:.2}% (paper: 1.47%)\n",
        100.0 * sum / ALL_WORKLOADS.len() as f64
    ));

    // Live miniature: record vs vanilla through the real engine (several
    // repetitions, best-of to damp scheduler noise). This script carries
    // real per-epoch compute (`busy(60)`), so per-run fixed costs (store
    // setup, materializer threads, final durability barrier) don't swamp
    // the measurement the way they would on a millisecond-scale job.
    let src = FIG11_LIVE;
    let mut vanilla_best = f64::INFINITY;
    let mut record_best = f64::INFINITY;
    for i in 0..3 {
        let (v_ns, _) = run_vanilla(src).unwrap();
        vanilla_best = vanilla_best.min(v_ns as f64 / 1e9);
        let rep = record(src, &RecordOptions::new(fresh_dir(&format!("fig11-{i}")))).unwrap();
        record_best = record_best.min(rep.wall_ns as f64 / 1e9);
    }
    let live_overhead = (record_best - vanilla_best) / vanilla_best;
    out.push_str(&format!(
        "live (compute-dominated mini): vanilla {}, record {}, overhead {:.2}%\n",
        fmt_secs(vanilla_best),
        fmt_secs(record_best),
        100.0 * live_overhead
    ));
    out
}

/// The live Figure-11 workload: like `scripts::CV_TRAIN` but with enough
/// per-batch compute that training dominates the session's fixed costs.
const FIG11_LIVE: &str = "\
import flor
data = synth_data(n=96, dim=12, classes=4, spread=0.3, seed=11)
loader = dataloader(data, batch_size=24, seed=11)
net = mlp(input=12, hidden=24, classes=4, depth=2, seed=11)
optimizer = sgd(net, lr=0.1, momentum=0.9)
criterion = cross_entropy()
avg = meter()
for epoch in range(8):
    avg.reset()
    for batch in loader.epoch():
        waste = busy(60)
        optimizer.zero_grad()
        preds = net.forward(batch)
        loss = criterion.forward(preds, batch)
        grad = criterion.backward()
        net.backward(grad)
        optimizer.step()
        avg.update(loss)
    log(\"loss\", avg.mean())
";

/// Figure 12: replay latency by probe position. Top: outer probes
/// (partial + parallel). Bottom: inner probes (parallel only). Each
/// workload uses the best configuration of up to 4 machines × 4 GPUs.
pub fn fig12() -> String {
    let gpu_options = [4usize, 8, 12, 16];
    let mut rows = Vec::new();
    for w in ALL_WORKLOADS {
        let rec = simulate_record(w, EPSILON, true);
        let best = |probe: ProbePosition| -> (f64, f64, usize) {
            gpu_options
                .iter()
                .map(|&g| {
                    let sim = simulate_replay(w, &rec, probe, g, InitMode::Weak);
                    (sim.speedup, sim.wall_secs, g)
                })
                .max_by(|a, b| a.0.partial_cmp(&b.0).unwrap())
                .unwrap()
        };
        let (outer_speedup, outer_wall, outer_g) = best(ProbePosition::Outer);
        let (inner_speedup, inner_wall, inner_g) = best(ProbePosition::Inner);
        rows.push(vec![
            w.name.to_string(),
            format!(
                "{outer_speedup:.0}x ({}, {outer_g} GPUs)",
                fmt_secs(outer_wall)
            ),
            format!(
                "{inner_speedup:.1}x ({}, {inner_g} GPUs)",
                fmt_secs(inner_wall)
            ),
        ]);
    }
    let mut out = render_table(
        &[
            "workload",
            "outer probe (partial+parallel)",
            "inner probe (parallel only)",
        ],
        &rows,
    );
    out.push_str("paper: outer-probe speedups 7x-1123x, favoring longer experiments\n");
    out
}

/// Figure 13: RsNt scale-out across 4-GPU machines, weak initialization.
pub fn fig13() -> String {
    let w = Workload::by_name("RsNt").unwrap();
    let rec = simulate_record(w, EPSILON, true);
    let mut rows = Vec::new();
    for machines in 1..=4usize {
        let gpus = machines * 4;
        let sim = simulate_replay(w, &rec, ProbePosition::Inner, gpus, InitMode::Weak);
        rows.push(vec![
            format!("{machines} × P3.8xLarge ({gpus} GPUs)"),
            format!("{:.2} h", sim.wall_secs / 3600.0),
            format!("{:.2}x", sim.speedup),
            format!("{:.2}x", max_speedup(w.epochs, gpus)),
        ]);
    }
    let mut out = render_table(
        &["machines", "replay time", "speedup", "load-balance bound"],
        &rows,
    );
    out.push_str("paper: max achievable at 16 GPUs is 200/13 = 15.38x\n");
    out
}

/// Figure 14: the same work done serially (P3.2xLarge) vs in parallel
/// (m × P3.8xLarge).
///
/// Machine counts per workload follow the paper's rule — "each workload
/// uses as many machines […] as will result in parallelism gains": a
/// configuration only appears if its GPUs stay ≥ 80% load-balanced
/// (`epochs / (⌈epochs/G⌉·G)`); billing idle GPUs is what would inflate
/// marginal cost.
pub fn fig14() -> String {
    let mut rows = Vec::new();
    for name in ["Cifr", "RsNt", "Wiki", "RnnT"] {
        let w = Workload::by_name(name).unwrap();
        let rec = simulate_record(w, EPSILON, true);
        let serial = serial_bill(w.vanilla_hours);
        for machines in 1usize..=4 {
            let gpus = machines * machine::P3_8X_GPUS;
            let slots = w.epochs.div_ceil(gpus as u64) * gpus as u64;
            let efficiency = w.epochs as f64 / slots as f64;
            if efficiency < 0.8 {
                continue; // the paper would not bill idle GPUs
            }
            let sim = simulate_replay(w, &rec, ProbePosition::Inner, gpus, InitMode::Weak);
            let par = parallel_bill(&sim, machines);
            rows.push(vec![
                format!("{name} ({machines}m, {gpus} GPUs)"),
                format!("${:.2} / {:.1} h", serial.total_usd, serial.hours),
                format!("${:.2} / {:.2} h", par.total_usd, par.hours),
                format!("${:+.2}", par.total_usd - serial.total_usd),
            ]);
        }
    }
    let mut out = render_table(
        &["workload", "serial (P3.2x)", "parallel (P3.8x)", "marginal"],
        &rows,
    );
    out.push_str("paper: parallel costs about the same as serial; marginal cost under $3\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig05_shape_holds() {
        // Small payload to keep the test fast; shape must still hold.
        let out = fig05(2 << 20);
        assert!(out.contains("Fork (Flor)"));
        // The headline: fork spends a small fraction of baseline main-thread
        // time.
        let pct: f64 = out
            .lines()
            .find(|l| l.contains("% of baseline"))
            .and_then(|l| l.split('%').next())
            .and_then(|l| l.split_whitespace().last())
            .and_then(|s| s.parse().ok())
            .expect("summary line");
        assert!(pct < 60.0, "fork at {pct}% of baseline main-thread time");
    }

    #[test]
    fn fig07_reports_both_modes() {
        let out = fig07();
        assert!(out.contains("RTE"));
        assert!(out.contains("91.0%"), "{out}");
    }

    #[test]
    fn fig10_fig12_fig13_fig14_render() {
        for out in [fig10(), fig12(), fig13(), fig14()] {
            assert!(out.lines().count() > 4, "{out}");
        }
    }
}
