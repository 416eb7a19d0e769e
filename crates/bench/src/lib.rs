//! # flor-bench
//!
//! The experiment harness: regenerates every table and figure of the
//! paper's evaluation (§6) through one binary, `figures`
//! (`cargo run -p flor-bench --release --bin figures -- fig11`, …; with no
//! argument it runs the lot and prints the combined report).
//!
//! Two kinds of numbers appear side by side:
//!
//! - **live** measurements from the miniature workloads (seconds-scale
//!   training through the real record/replay engine), and
//! - **paper-scale** simulations from `flor-sim`, which drive the same
//!   controller/planner code with Table 3/4 magnitudes.
//!
//! The other binaries are the microbenchmarks for layers the end-to-end
//! benchmark under `benchmark/` cannot see (VM ns/op, sim-scale replay
//! scheduling, 16-client serving), plus the `bench_check` and
//! `trace_check` gates `tools/ci.sh` runs.

#![warn(missing_docs)]

pub(crate) mod ablations;
pub mod figures;
pub mod replay_sched;
pub mod scripts;
pub(crate) mod tables;
pub(crate) mod util;

/// One report section: its name on the `figures` command line, its title,
/// and the regenerator that produces its body.
pub(crate) type Experiment = (&'static str, &'static str, fn() -> String);

/// Figure 5's default payload: 16 MiB per checkpoint.
pub(crate) const FIG05_DEFAULT_BYTES: usize = 16 << 20;

/// Every table, figure and ablation, in report order.
pub const EXPERIMENTS: [Experiment; 13] = [
    (
        "tab01",
        "Table 1 — side-effect analysis rules",
        tables::tab01,
    ),
    (
        "tab02",
        "Table 2 — adaptive checkpointing symbols (live)",
        tables::tab02,
    ),
    ("tab03", "Table 3 — evaluation workloads", tables::tab03),
    (
        "tab04",
        "Table 4 — checkpoint sizes and S3 cost",
        tables::tab04,
    ),
    ("fig05", "Figure 5 — background materialization", || {
        figures::fig05(FIG05_DEFAULT_BYTES)
    }),
    (
        "fig07",
        "Figure 7 — adaptive checkpointing impact",
        figures::fig07,
    ),
    (
        "fig10",
        "Figure 10 — parallel replay fraction (4 GPUs)",
        figures::fig10,
    ),
    ("fig11", "Figure 11 — record overhead", figures::fig11),
    (
        "fig12",
        "Figure 12 — replay latency by probe position",
        figures::fig12,
    ),
    ("fig13", "Figure 13 — RsNt scale-out", figures::fig13),
    (
        "fig14",
        "Figure 14 — serial vs parallel cost",
        figures::fig14,
    ),
    (
        "ablation_lean",
        "Ablation — lean checkpointing",
        ablations::lean,
    ),
    (
        "ablation_adaptive",
        "Ablation — adaptive checkpointing (live)",
        ablations::adaptive_live,
    ),
];

/// One section of the report, headed by its title.
pub fn section(title: &str, body: &str) -> String {
    format!("\n=== {title} ===\n{body}")
}

/// Runs every experiment and returns the combined report text.
pub fn all_experiments() -> String {
    EXPERIMENTS
        .iter()
        .map(|(_, title, run)| section(title, &run()))
        .collect()
}
