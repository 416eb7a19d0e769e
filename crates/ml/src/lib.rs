//! # flor-ml
//!
//! A miniature deep-learning library: the PyTorch stand-in for the flor-rs
//! reproduction of *Hindsight Logging for Model Training* (Garcia et al.,
//! VLDB 2020).
//!
//! The paper's lean checkpointing (§5.2) assumes training-loop bodies are
//! "predominantly written in PyTorch" and encodes exactly two library facts:
//!
//! 1. the **model** may be updated via the **optimizer** (`optimizer.step()`),
//! 2. the **optimizer** may be updated via the **learning-rate scheduler**
//!    (`scheduler.step()`).
//!
//! This crate reproduces that interface shape — [`Sequential`] models built
//! from [`layer`]s, [`optim`] optimizers that mutate model parameters through
//! a shared reference, and [`sched`] schedulers that mutate the optimizer —
//! so Flor's side-effect analysis, changeset augmentation, and checkpoint
//! contents are exercised exactly as in the paper. Training is *real*:
//! layers carry hand-written backward passes (verified against finite
//! differences), so losses genuinely decrease and replay log fingerprints are
//! meaningful.
//!
//! Everything is deterministic given a seed; all state (parameters, optimizer
//! moments, scheduler counters, RNG words) is exposed for checkpointing via
//! `state_dict`-style APIs.

#![warn(missing_docs)]

pub mod data;
pub mod layer;
pub mod loss;
pub mod metrics;
pub mod models;
pub mod module;
pub mod optim;
pub mod sched;
pub mod swa;

pub use data::{DataLoader, SyntheticClassification, SyntheticTokens};
pub use layer::{Activation, Linear};
pub use loss::CrossEntropyLoss;
pub use module::{Sequential, StateDict};
pub use optim::{Adam, Optimizer, Sgd};
pub use sched::{CosineLr, CyclicLr, Scheduler, StepLr};
