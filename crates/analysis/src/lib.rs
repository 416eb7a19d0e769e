//! # flor-analysis
//!
//! Static side-effect analysis and instrumentation for FlorScript — the
//! "lean checkpointing" front end of flor-rs, reproducing §5.2 of *Hindsight
//! Logging for Model Training* (Garcia et al., VLDB 2020).
//!
//! The pipeline, per loop in the user's program:
//!
//! 1. **Rule matching** ([`rules`]): each statement is matched against the
//!    six templates of the paper's Table 1, in descending precedence.
//!    Rule 5 (`func(args)` — arbitrary side effects) and rule 0 (assignment
//!    to an already-changed variable) force Flor to *refuse* the loop: it is
//!    left uninstrumented and will be fully re-executed on replay.
//! 2. **Changeset construction** ([`changeset`]): the per-statement deltas
//!    accumulate into the loop's changeset.
//! 3. **Loop-scope filtering** ([`scope`]): variables first defined inside
//!    the loop body are assumed dead after the loop and dropped — the step
//!    that keeps checkpoints lean ("loop-scoped variables are very common
//!    and can be large").
//! 4. **Library augmentation** ([`augment`]): at *runtime*, encoded library
//!    knowledge closes the changeset over side-effect edges the rules cannot
//!    see: a PyTorch-style optimizer updates its model; a scheduler updates
//!    its optimizer.
//! 5. **Instrumentation** ([`instrument`]): qualifying loops are wrapped in
//!    `skipblock "sb_<n>":` constructs (paper §4.2); the main loop is left
//!    unwrapped but its iterator is wrapped in `flor.partition(...)` for
//!    hindsight parallelism (paper Figure 8).
//! 6. **Slicing** ([`slice`]): at replay time, a backward slice over the
//!    instrumented program computes the dependency cone of the log
//!    statements so everything outside it can be elided from execution
//!    (checkpoint restores cut the slice at unprobed block boundaries).

#![warn(missing_docs)]

pub mod augment;
pub mod changeset;
pub mod instrument;
pub mod rules;
pub mod scope;
pub mod slice;

pub use augment::{augment_changeset, TypeOracle};
pub use changeset::{analyze_loop, LoopAnalysis, RefusalReason};
pub use instrument::{instrument, BlockPlan, InstrumentReport};
pub use rules::{match_rule, RuleApplication, RuleId};
pub use slice::{
    outer_carried_state, probe_mutating_call, slice_program, SlicePlan, READ_ONLY_METHODS,
};
