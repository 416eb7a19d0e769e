//! The repository's benchmark: record overhead and hindsight-query latency
//! through the real `flor record` → `flor serve` socket path, checked
//! against from-scratch oracles, plus an outside-in per-layer budget taken
//! in a separate traced run. `BENCHMARK.json` at the repository root names
//! the metrics and their bounds; `benchmark/README.md` explains them.

#![warn(missing_docs)]

pub mod agree;
pub mod check;
pub mod client;
pub mod fixture;
pub mod layers;
pub mod report;
pub mod run;
pub mod spans;
pub mod stats;
pub mod workload;

/// Errors are messages: the driver prints them and exits non-zero.
pub type Res<T> = Result<T, String>;
