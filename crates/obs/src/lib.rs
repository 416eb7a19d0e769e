//! Low-overhead observability for flor-rs: spans, metrics, trace export.
//!
//! The record hot path submits a checkpoint handle in ~2µs and the
//! segmented store serves a restore read in ~1µs — instrumentation that
//! costs a syscall (or even a clock read) per operation would show up in
//! the benches this repo gates on. This crate therefore splits the
//! problem:
//!
//! - [`trace`]: a span/event API behind one global flag. Disabled (the
//!   default), entering a span is a single relaxed atomic load — no clock,
//!   no allocation, no thread-local touch. Enabled (a
//!   [`TraceSession`] is live), spans record into
//!   per-thread lock-free SPSC ring buffers and drain into a [`Trace`]
//!   that exports Chrome `trace_event` JSON (one lane per replay worker)
//!   or flamegraph-folded text.
//! - [`metrics`]: always-on named counters and log-bucketed latency
//!   histograms (O(1) relaxed atomic increments), snapshotted behind one
//!   [`MetricSnapshot`].
//! - [`clock`]: the monotonic nanosecond clock every subsystem times with
//!   (`tools/ci.sh` lints raw `std::time::Instant` reads out of the hot
//!   paths).
//! - [`json`]: the one hand-rolled JSON writer/parser the exporters, the
//!   `--json` CLI surfaces, and the trace roundtrip tests share — the
//!   workspace is vendored-deps-only, so there is no serde.

#![warn(missing_docs)]

pub mod clock;
pub mod export;
pub mod json;
pub mod metrics;
pub mod trace;

pub use metrics::{HistogramSnapshot, MetricSnapshot};
pub use trace::{instant, set_lane, span, Category, Span, Trace, TraceSession};

/// Caches a `&'static` metric handle at the call site so hot paths skip
/// the registry lock after first use.
///
/// ```
/// let c = flor_obs::counter!("replay.restores");
/// c.add(1);
/// ```
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        static __C: std::sync::OnceLock<&'static $crate::metrics::Counter> =
            std::sync::OnceLock::new();
        *__C.get_or_init(|| $crate::metrics::counter($name))
    }};
}

/// Caches a `&'static` histogram handle at the call site (see
/// [`counter!`]).
#[macro_export]
macro_rules! histogram {
    ($name:expr) => {{
        static __H: std::sync::OnceLock<&'static $crate::metrics::Histogram> =
            std::sync::OnceLock::new();
        *__H.get_or_init(|| $crate::metrics::histogram($name))
    }};
}
