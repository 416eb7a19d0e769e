//! Always-on named counters and log-bucketed latency histograms.
//!
//! Subsystem stats used to be scattered, per-struct O(1) counters
//! (`ReplayStats`, `MaterializerStats`, `CompactionReport`, …) with no
//! shared snapshot. Counters and histograms registered here cost one
//! relaxed atomic RMW to update, and [`snapshot`] folds everything into a
//! [`MetricSnapshot`] — the struct behind `flor store stats --json`, the
//! `metrics` verb of `flor serve`, and the registry's service surface.
//!
//! Histograms bucket durations by power of two (bucket `i` holds values
//! in `[2^(i-1), 2^i)` ns), which keeps `observe` branch-free and allows
//! p50/p95/p99 estimates without storing samples. Hot call sites cache
//! the `&'static` handle via [`counter!`](crate::counter!) /
//! [`histogram!`](crate::histogram!) so the registry lock is off the
//! fast path.

use crate::json::JsonWriter;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};

/// A monotonically increasing named count.
#[derive(Debug, Default)]
pub struct Counter {
    v: AtomicU64,
}

impl Counter {
    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.v.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.v.load(Ordering::Relaxed)
    }
}

/// Number of power-of-two buckets: covers 1ns .. ~2^62ns (~146 years).
const BUCKETS: usize = 63;

/// A log-bucketed latency histogram (nanosecond durations).
#[derive(Debug)]
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

fn bucket_of(ns: u64) -> usize {
    ((64 - ns.leading_zeros()) as usize).min(BUCKETS - 1)
}

/// Upper bound (exclusive) of a bucket, used as its representative value
/// when estimating percentiles — a deliberate round-up so estimates never
/// undersell a latency.
fn bucket_ceiling(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        1u64 << i.min(62)
    }
}

impl Histogram {
    /// Records one duration.
    #[inline]
    pub fn observe(&self, ns: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(ns, Ordering::Relaxed);
        self.max.fetch_max(ns, Ordering::Relaxed);
        self.buckets[bucket_of(ns)].fetch_add(1, Ordering::Relaxed);
    }

    /// Point-in-time copy with percentile estimates.
    pub fn snapshot(&self, name: &str) -> HistogramSnapshot {
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let count: u64 = buckets.iter().sum();
        let pct = |p: f64| -> u64 {
            if count == 0 {
                return 0;
            }
            let rank = ((count as f64) * p).ceil().max(1.0) as u64;
            let mut seen = 0u64;
            for (i, b) in buckets.iter().enumerate() {
                seen += b;
                if seen >= rank {
                    return bucket_ceiling(i);
                }
            }
            bucket_ceiling(BUCKETS - 1)
        };
        HistogramSnapshot {
            name: name.to_string(),
            count,
            sum_ns: self.sum.load(Ordering::Relaxed),
            p50_ns: pct(0.50),
            p95_ns: pct(0.95),
            p99_ns: pct(0.99),
            max_ns: self.max.load(Ordering::Relaxed),
        }
    }
}

/// Percentile summary of one histogram. Percentiles are bucket ceilings
/// (upper bounds of the containing power-of-two bucket).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Registered name.
    pub name: String,
    /// Samples observed.
    pub count: u64,
    /// Sum of all observed durations, ns.
    pub sum_ns: u64,
    /// Median estimate, ns.
    pub p50_ns: u64,
    /// 95th-percentile estimate, ns.
    pub p95_ns: u64,
    /// 99th-percentile estimate, ns.
    pub p99_ns: u64,
    /// Largest observed value, exact, ns.
    pub max_ns: u64,
}

struct RegistryInner {
    counters: BTreeMap<&'static str, &'static Counter>,
    histograms: BTreeMap<&'static str, &'static Histogram>,
}

fn registry() -> &'static Mutex<RegistryInner> {
    static R: OnceLock<Mutex<RegistryInner>> = OnceLock::new();
    R.get_or_init(|| {
        Mutex::new(RegistryInner {
            counters: BTreeMap::new(),
            histograms: BTreeMap::new(),
        })
    })
}

/// The counter registered as `name` (registers on first use). The handle
/// is `&'static`: leaked once per distinct name, bounded by the set of
/// metric names in the codebase.
pub fn counter(name: &'static str) -> &'static Counter {
    let mut reg = registry().lock().unwrap_or_else(PoisonError::into_inner);
    reg.counters
        .entry(name)
        .or_insert_with(|| Box::leak(Box::default()))
}

/// The histogram registered as `name` (registers on first use).
pub fn histogram(name: &'static str) -> &'static Histogram {
    let mut reg = registry().lock().unwrap_or_else(PoisonError::into_inner);
    reg.histograms
        .entry(name)
        .or_insert_with(|| Box::leak(Box::default()))
}

/// Like [`counter`] but for names built at runtime (per-tenant metrics:
/// `tenant.<name>.queries`). The name is leaked once per distinct string
/// and nothing here bounds how many there are: the caller must. (The
/// serving layer caps the tenants a process registers —
/// `flor_registry::admission::MAX_TENANTS` — before any reaches this.)
pub fn counter_named(name: &str) -> &'static Counter {
    let mut reg = registry().lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(c) = reg.counters.get(name) {
        return c;
    }
    let leaked: &'static str = Box::leak(name.to_string().into_boxed_str());
    reg.counters
        .entry(leaked)
        .or_insert_with(|| Box::leak(Box::default()))
}

/// Like [`histogram`] but for names built at runtime (see
/// [`counter_named`]: the caller bounds the set of names).
pub fn histogram_named(name: &str) -> &'static Histogram {
    let mut reg = registry().lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(h) = reg.histograms.get(name) {
        return h;
    }
    let leaked: &'static str = Box::leak(name.to_string().into_boxed_str());
    reg.histograms
        .entry(leaked)
        .or_insert_with(|| Box::leak(Box::default()))
}

/// Point-in-time copy of every registered metric, name-sorted.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricSnapshot {
    /// `(name, value)` for every counter.
    pub counters: Vec<(String, u64)>,
    /// Percentile summaries for every histogram.
    pub histograms: Vec<HistogramSnapshot>,
}

/// Snapshots the whole registry.
pub fn snapshot() -> MetricSnapshot {
    snapshot_filtered(|_| true)
}

/// Snapshots only the metrics whose name starts with `prefix` — the
/// per-tenant `metrics <tenant>` view (`prefix = "tenant.<name>."`).
pub fn snapshot_prefixed(prefix: &str) -> MetricSnapshot {
    snapshot_filtered(|name| name.starts_with(prefix))
}

fn snapshot_filtered(keep: impl Fn(&str) -> bool) -> MetricSnapshot {
    let reg = registry().lock().unwrap_or_else(PoisonError::into_inner);
    MetricSnapshot {
        counters: reg
            .counters
            .iter()
            .filter(|(n, _)| keep(n))
            .map(|(n, c)| (n.to_string(), c.get()))
            .collect(),
        histograms: reg
            .histograms
            .iter()
            .filter(|(n, _)| keep(n))
            .map(|(n, h)| h.snapshot(n))
            .collect(),
    }
}

impl MetricSnapshot {
    /// Serializes via the shared [`JsonWriter`] — the same serializer the
    /// `--json` CLI surfaces use, so formats cannot drift.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_obj();
        w.key("counters");
        w.begin_obj();
        for (name, v) in &self.counters {
            w.field_u64(name, *v);
        }
        w.end_obj();
        w.key("histograms");
        w.begin_obj();
        for h in &self.histograms {
            w.key(&h.name);
            w.begin_obj();
            w.field_u64("count", h.count);
            w.field_u64("sum_ns", h.sum_ns);
            w.field_u64("p50_ns", h.p50_ns);
            w.field_u64("p95_ns", h.p95_ns);
            w.field_u64("p99_ns", h.p99_ns);
            w.field_u64("max_ns", h.max_ns);
            w.end_obj();
        }
        w.end_obj();
        w.end_obj();
        w.finish()
    }

    /// Human-readable rendering (the `flor serve` pretty form), derived
    /// from the same snapshot the JSON form serializes.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (name, v) in &self.counters {
            let _ = writeln!(out, "{name:<40} {v}");
        }
        for h in &self.histograms {
            let _ = writeln!(
                out,
                "{:<40} n={} p50={}ns p95={}ns p99={}ns max={}ns",
                h.name, h.count, h.p50_ns, h.p95_ns, h.p99_ns, h.max_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot() {
        let c = counter("test.metrics.counter_a");
        let before = c.get();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), before + 5);
        let snap = snapshot();
        assert!(snap
            .counters
            .iter()
            .any(|(n, v)| n == "test.metrics.counter_a" && *v >= before + 5));
    }

    #[test]
    fn same_name_returns_same_handle() {
        let a = counter("test.metrics.same") as *const Counter;
        let b = counter("test.metrics.same") as *const Counter;
        assert_eq!(a, b);
    }

    #[test]
    fn histogram_percentiles_bracket_observations() {
        let h = histogram("test.metrics.hist");
        // 90 fast ops (~1µs), 10 slow (~1ms).
        for _ in 0..90 {
            h.observe(1_000);
        }
        for _ in 0..10 {
            h.observe(1_000_000);
        }
        let s = h.snapshot("test.metrics.hist");
        assert_eq!(s.count, 100);
        assert_eq!(s.max_ns, 1_000_000);
        // p50 lands in the 1µs bucket (ceiling 1024), p99 in the 1ms one.
        assert!(s.p50_ns >= 1_000 && s.p50_ns < 4_096, "p50={}", s.p50_ns);
        assert!(s.p99_ns >= 1_000_000, "p99={}", s.p99_ns);
        assert!(s.p95_ns >= s.p50_ns && s.p99_ns >= s.p95_ns);
    }

    #[test]
    fn zero_and_huge_observations_stay_in_range() {
        let h = Histogram::default();
        h.observe(0);
        h.observe(u64::MAX);
        let s = h.snapshot("edge");
        assert_eq!(s.count, 2);
        assert_eq!(s.max_ns, u64::MAX);
    }

    #[test]
    fn named_metrics_register_once_and_filter_by_prefix() {
        let tenant = "tenant.acme-metrics-test.";
        let a = counter_named(&format!("{tenant}queries")) as *const Counter;
        let b = counter_named(&format!("{tenant}queries")) as *const Counter;
        assert_eq!(a, b, "dynamic names must not re-leak per lookup");
        counter_named(&format!("{tenant}queries")).add(3);
        histogram_named(&format!("{tenant}job_ns")).observe(42);
        counter("test.metrics.other_tenant_noise").inc();
        let snap = snapshot_prefixed(tenant);
        assert_eq!(snap.counters.len(), 1);
        assert!(snap.counters[0].0.ends_with("queries") && snap.counters[0].1 >= 3);
        assert_eq!(snap.histograms.len(), 1);
        assert!(snap.histograms[0].count >= 1);
    }

    #[test]
    fn snapshot_json_roundtrips() {
        counter("test.metrics.json").add(7);
        histogram("test.metrics.json_hist").observe(123);
        let snap = snapshot();
        let parsed = crate::json::parse(&snap.to_json()).expect("snapshot JSON parses");
        let counters = parsed.get("counters").expect("counters object");
        assert!(counters.get("test.metrics.json").is_some());
        let hist = parsed
            .get("histograms")
            .and_then(|h| h.get("test.metrics.json_hist"))
            .expect("histogram object");
        assert!(hist.get("p99_ns").and_then(|v| v.as_f64()).is_some());
    }
}
