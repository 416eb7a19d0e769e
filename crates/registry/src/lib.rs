//! # flor-registry
//!
//! The serving layer over flor-core's single-run record–replay engine: a
//! **multi-run catalog** plus a **hindsight query service** with a
//! **replay job scheduler** — the step from the paper's per-run
//! physiological recovery (Garcia et al., VLDB 2020, §8 "Queries Across
//! Projects and Versions") toward a queryable store of many users' runs.
//!
//! - [`catalog`]: persistent, versioned run index (append-only,
//!   CRC-protected `CATALOG` file; crash-recovering load).
//! - [`cache`]: content-addressed caching of materialized query results —
//!   the second identical query is O(1), served without replaying.
//! - [`service`]: the [`Registry`] — catalog + pooled store handles +
//!   cache behind one query API.
//! - [`scheduler`]: bounded worker pool dispatching queued queries with
//!   per-job priority, cancellation, and a status API for live jobs.
//! - [`admission`]: multi-tenant admission control — token quotas,
//!   concurrent-job limits, and latency-aware queue shedding.
//! - [`session`]: the serve protocol state machine, shared by the stdin
//!   adapter and the socket server.
//! - [`server`]: the protocol over TCP and Unix sockets, a reader and a
//!   writer thread per connection, with per-connection backpressure.
//! - [`conn`]: [`Endpoint`] addresses and the [`Conn`] stream the server,
//!   `flor connect` and the tests share (`std` sockets).
//! - [`error`]: [`RegistryError`], composing with `?` across the
//!   workspace's error types.

#![warn(missing_docs)]

pub mod admission;
pub mod cache;
pub mod catalog;
pub mod conn;
pub mod error;
pub mod scheduler;
pub mod server;
pub mod service;
pub mod session;

pub use admission::{AdmissionController, AdmissionPolicy};
pub use cache::{query_key, CachedResult, QueryCache};
pub use catalog::{RetentionPolicy, RunCatalog, RunRecord};
pub use conn::{Conn, Endpoint};
pub use error::RegistryError;
pub use scheduler::{
    CancelResult, JobEvent, JobId, JobProgress, JobSink, JobState, QueryJob, ReplayScheduler,
};
pub use server::{Server, ServerConfig, ServerHandle};
pub use service::{QueryEvent, QueryOutcome, Registry};
pub use session::{ServeSession, SessionControl};
