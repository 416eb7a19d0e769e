//! # flor-core
//!
//! The Flor engine: a record–replay system for **hindsight logging**,
//! reproducing *Hindsight Logging for Model Training* (Garcia, Liu,
//! Sreekanti, Yan, Dandamudi, Gonzalez, Hellerstein, Sen — VLDB 2020) in
//! Rust.
//!
//! Hindsight logging lets a model developer add log statements to training
//! code *after* a run and obtain their output without re-executing training
//! from scratch. Flor achieves this physiologically, in the
//! database-recovery sense: a **record** phase takes lean, adaptive
//! checkpoints of loop side-effects at negligible overhead, and a **replay**
//! phase mixes physical recovery (loading checkpoints) with logical recovery
//! (re-executing only the probed code), parallelized across workers by
//! *hindsight parallelism*.
//!
//! ## The two API layers
//!
//! - **Script layer** (the paper's interface): run a FlorScript training
//!   program through [`record::record`], add `log(...)` probes to the
//!   source, and hand the new source to [`replay::replay`]. Everything —
//!   instrumentation, side-effect analysis, checkpoint placement, probe
//!   detection, parallelization — is automatic; the only opt-in is
//!   `import flor` at the top of the script.
//! - **Native layer** ([`native`]): a typed Rust API (`Session`,
//!   `skip_block`) for embedding hindsight logging in Rust programs that
//!   have Flor-style loop structure.
//!
//! ## Module map (paper section in parentheses)
//!
//! - [`value`] / [`mod@env`]: the interpreter's Python-like object graph —
//!   reference semantics make the optimizer→model aliasing real (§5.2.1).
//! - [`interp`]: tree-walking interpreter + the ML builtin surface, and
//!   the main-loop driver both executors share.
//! - [`logstream`]: structured log output; the replay/record fingerprint
//!   (§5.2.2).
//! - [`skipblock`]: the SkipBlock construct — parameterized branching,
//!   side-effect memoization, restoration (§4.2).
//! - [`adaptive`]: the record-overhead / replay-latency invariants and the
//!   joint invariant, Eqs. 1–4 (§5.3).
//! - [`mod@record`]: the record phase (§3.1).
//! - [`mod@replay`]: the replay phase — one [`replay::ReplayPlan`] per query
//!   (probe detection by source diff, slicing, every scheduling policy),
//!   one production path that executes it, one oracle
//!   ([`replay::replay_reference`]), deferred correctness checks (§3.2,
//!   §5.2.2).
//! - [`parallel`]: hindsight parallelism — the cost-aware micro-range
//!   splitter and work-stealing queue replay schedules with, plus the
//!   paper's static iterator-partitioning model (§5.4) that `flor-sim`
//!   and the benches price it against.
//! - [`profile`]: per-iteration cost profiles recorded alongside the run,
//!   consumed by the micro-range splitter.
//! - [`stream`]: the incremental record-order log merger — hindsight
//!   queries stream results as leading iterations complete instead of
//!   blocking on the last worker.
//! - [`oracle`]: runtime changeset augmentation over the live object graph
//!   (§5.2.1 step 3).
//! - [`vm`]: the bytecode replay VM — executes `flor-lang`'s compiled
//!   modules with slot-resolved variables and a compiled-module cache.

#![warn(missing_docs)]

pub mod adaptive;
mod ctors;
pub mod env;
pub mod error;
pub mod interp;
pub mod logstream;
pub mod native;
pub mod oracle;
pub mod parallel;
pub mod profile;
pub mod record;
pub mod replay;
pub mod sample;
pub mod skipblock;
pub mod stream;
pub mod value;
pub mod versions;
pub mod vm;

pub use adaptive::AdaptiveController;
pub use error::FlorError;
pub use logstream::{LogEntry, LogStream, Section};
pub use parallel::{CancelToken, InitMode};
pub use profile::CostProfile;
pub use record::{record, RecordOptions, RecordReport};
pub use replay::{replay, ReplayOptions, ReplayReport};
pub use stream::StreamEvent;
pub use vm::{compile_program, ModuleCache};
