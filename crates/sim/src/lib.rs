//! # flor-sim
//!
//! Paper-scale simulation of the Flor experiments. The live engine in
//! `flor-core` runs miniature workloads in seconds; the paper's evaluation
//! (§6) runs hours-long GPU jobs on EC2 P3 fleets. This crate replays that
//! evaluation through a simulation whose *decision logic* is
//! the real thing:
//!
//! - checkpoint placement comes from the **same** [`flor_core::adaptive`]
//!   controller the live engine uses (Eq. 4, with virtual clocks),
//! - partitioning and strong/weak initialization come from the **same**
//!   [`flor_core::parallel`] planner,
//!
//! so "who wins, by what factor, where the crossovers fall" is produced by
//! the reproduced system, not hard-coded. The workload parameters
//! ([`workload`]) carry Table 3's published structure (epochs,
//! train-vs-fine-tune) and Table 4 / Figure 7's published magnitudes
//! (checkpoint sizes, materialization/compute ratios); remaining
//! calibrations (vanilla runtimes) are documented estimates.
//!
//! Modeling note (documented in DESIGN.md): record-overhead accounting
//! charges materialization time to the training thread, matching the
//! paper's Record Overhead invariant (Eq. 1 treats `k·M` as overhead
//! against `n·C`). The *background-materialization* win of Figure 5 is
//! measured live by `flor-chkpt` benches rather than simulated here; the
//! two mechanisms compose (background materialization shrinks the effective
//! `M` that adaptive checkpointing reasons about).

#![warn(missing_docs)]

pub mod cost;
pub(crate) mod des;
pub(crate) mod record_sim;
pub(crate) mod replay_sim;
pub mod sched_sim;
pub mod workload;

pub use cost::{machine, monthly_storage_usd, ReplayBill};
pub use record_sim::{simulate_record, RecordSim};
pub use replay_sim::{simulate_replay, ProbePosition, ReplaySim};
pub use sched_sim::{compare as compare_schedules, SchedSim};
pub use workload::{Workload, WorkloadKind, ALL_WORKLOADS};
